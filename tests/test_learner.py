"""Learner tests: enumeration, greedy solve, verify, and the fast cover path.

The exhaustive-search oracle here is the ground truth for desk-scale
completeness: wherever some ≤3-clause program over negative-safe candidates
fits the examples, solve must succeed too.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from pathlib import Path

import pytest

from hornpipe import cover, learner
from hornpipe.cover import (
    CandidateList,
    CoverCache,
    Session,
    WantedSet,
    coverage_tables,
    covered_atoms,
    covers_any,
)
from hornpipe.entailment import FactStore, coverage, rule_support, rule_supports
from hornpipe.learner import (
    SolverResult,
    candidate_list,
    enumerate_clauses,
    solve,
    verify,
)
from hornpipe.logic import Atom, Clause, ExampleSet, Program, atom, canonical, const, print_clause
from hornpipe.parsing import parse_bias, parse_clause, parse_examples, parse_facts, print_bias

from oracles import greedy_cover, naive_consequences, random_bias, random_instance, reference_clauses
from test_parsing import VOCAB_BIAS

RULE_CROSS_LANDING = "collision(V0,V1):- cross_runway(V0,V2),landing_runway(V1,V2)."

SMALL_BIAS = parse_bias(
    "head_pred(h,2).\n"
    "body_pred(p,2).\n"
    "body_pred(q,2).\n"
    "body_pred(r,1).\n"
    "max_vars(3).\n"
    "max_body(2).\n"
)

PLANT_BIAS = parse_bias(
    "head_pred(collision,2).\n"
    "body_pred(cross_runway,2).\n"
    "body_pred(landing_runway,2).\n"
    "type(collision,(agent,agent)).\n"
    "type(cross_runway,(agent,runway)).\n"
    "type(landing_runway,(agent,runway)).\n"
    "max_vars(4).\n"
    "max_body(2).\n"
)

# the bias synthgen builds for data/planted_rules.rules
CORPUS_BIAS = parse_bias(
    "head_pred(collision,2).\n"
    "body_pred(cross_runway,2).\n"
    "body_pred(holding_on_runway,2).\n"
    "body_pred(idle,1).\n"
    "body_pred(landing_runway,2).\n"
    "body_pred(on_extended_area_runway,2).\n"
    "body_pred(same_runway,2).\n"
    "type(collision,(t0,t0)).\n"
    "type(cross_runway,(t0,t1)).\n"
    "type(holding_on_runway,(t0,t2)).\n"
    "type(idle,(t0)).\n"
    "type(landing_runway,(t0,t1)).\n"
    "type(on_extended_area_runway,(t0,t2)).\n"
    "type(same_runway,(t2,t1)).\n"
    "max_vars(4).\n"
    "max_body(3).\n"
)

VOCABULARY = (Path(__file__).resolve().parent.parent / "data" / "vocabulary.bias").read_text(encoding="utf-8")


def atoms_of(wanted: WantedSet, mask: int) -> set[Atom]:
    return {a for i, a in enumerate(wanted.atoms) if mask >> i & 1}


def exs(pos: list[Atom], neg: list[Atom]) -> ExampleSet:
    return ExampleSet.of(pos, neg)


# ---------------------------------------------------------------- enumeration


def test_stream_empty_when_second_head_var_unbindable():
    bias = parse_bias(
        "head_pred(collision,2).\n"
        "body_pred(cross_runway,2).\n"
        "type(collision,(agent,agent)).\n"
        "type(cross_runway,(agent,runway)).\n"
        "max_vars(3).\n"
        "max_body(1).\n"
    )
    assert list(enumerate_clauses(bias)) == []


def test_stream_contains_cross_landing_rule():
    bias = parse_bias(VOCAB_BIAS.replace("max_vars(6).", "max_vars(4).").replace("max_body(4).", "max_body(2)."))
    texts = {print_clause(c) for c in enumerate_clauses(bias)}
    assert RULE_CROSS_LANDING in texts


def test_stream_ordered_and_duplicate_free():
    seen = set()
    last = None
    for c in enumerate_clauses(SMALL_BIAS):
        text = print_clause(c)
        assert text not in seen
        seen.add(text)
        key = (len(c.body), text)
        if last is not None:
            assert last < key
        last = key
    assert seen  # the small bias admits clauses


def test_stream_clauses_well_formed():
    heads = SMALL_BIAS.head_predicates
    for c in enumerate_clauses(SMALL_BIAS):
        assert canonical(c) == c
        assert c.head.predicate in heads
        assert len(c.body) <= SMALL_BIAS.max_body
        assert len(c.variables()) <= SMALL_BIAS.max_vars
        head_args = set(c.head.args)
        assert len(head_args) == c.head.arity  # distinct head variables
        for lit in c.body:
            assert lit.predicate not in heads
        assert head_args <= {v for lit in c.body for v in lit.variables()}


def test_stream_matches_reference_on_random_biases():
    """The enumeration against ``oracles.reference_clauses``, which
    canonicalises every raw body and dedupes by text: the same texts in the
    same order.  Bodies that repeat a predicate exercise the least-order
    test."""
    rng = random.Random(20261019)
    arities, types, max_vars, max_body = set(), set(), set(), set()
    repeated = 0
    for _ in range(40):
        bias = random_bias(rng)
        want = [str(c) for c in reference_clauses(bias)]
        got = list(enumerate_clauses(bias))
        assert [str(c) for c in got] == want, print_bias(bias)
        arities |= {d.arity for d in bias.body_decls}
        types |= {d.types is None for d in bias.body_decls}
        max_vars.add(bias.max_vars)
        max_body.add(bias.max_body)
        repeated += sum(len({lit.predicate for lit in c.body}) < len(c.body) for c in got)
    assert arities == {1, 2, 3} and types == {True, False}
    assert max_vars == {2, 3, 4, 5} and max_body == {1, 2, 3}
    assert repeated


# (candidates, digest) per bias
DIGESTS = {
    "small": (115, "154baa301b6f3f33"),
    "plant": (8, "6618224020ba685a"),
    "corpus": (257, "cd01f7252953734b"),
    "vocabulary-2": (85, "e47ae75aef4dd961"),
    "vocabulary-3": (3373, "4820edebc8e9d9e0"),
}


def compiled_digest(candidates: CandidateList) -> str:
    h = hashlib.sha256()
    for cand in candidates:
        h.update(cand.text.encode() + b"\n")
    h.update(repr(candidates.slotted).encode())
    h.update(repr(candidates.uses).encode())
    return h.hexdigest()[:16]


def test_compiled_space_digest():
    """The candidate texts in order, the slotted groups and each candidate's
    uses, pinned by a digest of what the canonicalising enumerator built."""
    biases = {
        "small": SMALL_BIAS,
        "plant": PLANT_BIAS,
        "corpus": CORPUS_BIAS,
        "vocabulary-2": parse_bias(VOCABULARY.replace("max_body(4).", "max_body(2).")),
        "vocabulary-3": parse_bias(VOCABULARY.replace("max_body(4).", "max_body(3).")),
    }
    got = {}
    for name, bias in biases.items():
        candidates = candidate_list(bias)
        got[name] = (len(candidates), compiled_digest(candidates))
    assert got == DIGESTS


def test_candidate_text_is_canonical_print():
    vocab = parse_bias(VOCAB_BIAS.replace("max_body(4).", "max_body(2)."))
    for bias in (SMALL_BIAS, PLANT_BIAS, vocab):
        cands = candidate_list(bias)
        assert cands
        for cand in cands:
            assert str(cand.clause) == print_clause(cand.clause) == cand.text


def test_typed_positions_never_mix():
    bias = parse_bias(VOCAB_BIAS.replace("max_vars(6).", "max_vars(4).").replace("max_body(4).", "max_body(2)."))
    types = bias.types_by_predicate
    for c in enumerate_clauses(bias):
        var_types: dict = {}
        for lit in (c.head, *c.body):
            for t, ty in zip(lit.args, types[lit.predicate]):
                assert var_types.setdefault(t, ty) == ty


# ------------------------------------------------------------------ cover.py


def test_split_body_covers_across_components():
    b = parse_facts("cross_runway(a,r1).\nlanding_runway(b,r2).\n")
    clause = canonical(parse_clause("collision(X,Y):- cross_runway(X,R),landing_runway(Y,S)."))
    cands = CandidateList([clause])
    assert len(cands.uses[0]) == 2
    tables = coverage_tables(cands, Session().solved(b, cands))
    want = [atom("collision", "a", "b"), atom("collision", "b", "a")]
    wanted = WantedSet(want)
    (mask,) = covered_atoms(tables, wanted)
    got = atoms_of(wanted, mask)
    assert got == {atom("collision", "a", "b")}
    engine = coverage(b, Program.of([clause]), exs(want, []))
    assert got == set(engine.covered_pos)


def test_candidate_list_rejects_non_candidate_clauses():
    for text in ("h(X,X):- p(X,Y).", "h(X,a):- p(X,Y).", "h(X,Y):- p(X,a),q(X,Y)."):
        with pytest.raises(ValueError, match="candidate"):
            CandidateList([parse_clause(text)])


def test_cover_cache_reused_across_stores():
    candidates = candidate_list(PLANT_BIAS)
    cache = CoverCache()
    session = Session(cache)
    b1 = parse_facts("cross_runway(a,r1).\nlanding_runway(b,r1).\n")
    session.solved(b1, candidates)
    session.commit(session.examples)
    n1 = len(cache.tables)
    b2 = parse_facts("cross_runway(a,r1).\nlanding_runway(b,r1).\ncross_runway(c,r2).\n")
    session.solved(b2, candidates)
    # the second solve adds one fact set: the new fact, which shares no
    # constant with b1, so it touches no base component
    assert len(cache.tables) == n1 + 1


def test_shared_group_fires_once_per_solve(monkeypatch):
    """Candidates that share a body group share its solutions, and a solve
    fires each group once over all the facts it adds: not once per
    candidate that carries the group, nor once per component."""
    fired = []
    real_fire = cover.fire

    def counting_fire(rule, store, out):
        fired.append(rule)
        return real_fire(rule, store, out)

    monkeypatch.setattr(cover, "fire", counting_fire)
    candidates = candidate_list(SMALL_BIAS)
    background = parse_facts("p(a,b).\np(b,c).\nr(c).\np(d,e).\nr(e).\np(f,g).\nr(g).\n")
    components = FactStore.from_program(background).components()
    assert len(components) == 3
    # every group over p and r applies in every component, so firing per
    # component would fire three times as often
    assert all({pred for pred, _ in facts} == {"p", "r"} for facts in components)
    carried = [candidates.groups[candidates.slotted[i][3]] for uses in candidates.uses for i in uses]
    slots = [g.rule for g in carried if g.preds <= {"p", "r"}]
    distinct = {canonical(rule) for rule in slots}
    assert len(distinct) < len(slots)
    session = Session()
    session.solved(background, candidates)
    assert len(fired) == len(distinct)
    session.solved(background, candidates)
    assert len(fired) == len(distinct)


def random_solver_instance(rng: random.Random) -> tuple[Program, ExampleSet]:
    consts = [f"c{i}" for i in range(rng.randint(3, 5))]
    facts: list[Atom] = []
    for pred, ar in (("p", 2), ("q", 2), ("r", 1)):
        for args in itertools.product(consts, repeat=ar):
            if rng.random() < 0.25:
                facts.append(Atom(pred, tuple(const(a) for a in args)))
    pairs = [(x, y) for x in consts for y in consts]
    rng.shuffle(pairs)
    pos, neg = [], []
    for x, y in pairs[: rng.randint(2, 6)]:
        (pos if rng.random() < 0.5 else neg).append(atom("h", x, y))
    return Program.of(facts), ExampleSet.of(pos, neg)


def test_cover_path_matches_engine_on_random_instances():
    candidates = candidate_list(SMALL_BIAS)
    rng = random.Random(20260301)
    for _ in range(40):
        background, ex = random_solver_instance(rng)
        tables = coverage_tables(candidates, Session().solved(background, candidates))
        wanted = WantedSet((*ex.positives, *ex.negatives))
        for cand, mask in zip(candidates, covered_atoms(tables, wanted)):
            fast = atoms_of(wanted, mask)
            engine = coverage(background, Program.of([cand.clause]), ex)
            assert fast == set(engine.covered_pos) | set(engine.covered_neg), cand.text


def two_pool_background(rng: random.Random) -> Program:
    """Random facts over two disjoint constant pools.

    The store then has at least two components, so a candidate whose body
    splits into groups can bind each group in a different one, as in
    ``test_split_body_covers_across_components``.
    """
    facts: list[Atom] = []
    for pool in ("a", "b"):
        consts = [f"{pool}{i}" for i in range(rng.randint(1, 3))]
        for pred, ar in (("p", 2), ("q", 2), ("r", 1)):
            for args in itertools.product(consts, repeat=ar):
                if rng.random() < 0.35:
                    facts.append(Atom(pred, tuple(const(a) for a in args)))
    return Program.of(facts)


def test_cover_path_matches_exhaustive_oracle_across_components():
    """Cover tables against ``oracles.naive_consequences``, which shares no
    code with the join kernel that both cover and the fixpoint engine run."""
    candidates = candidate_list(SMALL_BIAS)
    assert sum(len(uses) > 1 for uses in candidates.uses) > len(candidates) // 2
    rng = random.Random(20261018)
    cross = 0
    for _ in range(12):
        background = two_pool_background(rng)
        consts = sorted(constants(background))
        every = [atom("h", x, y) for x in consts for y in consts]
        some = rng.sample(every, k=len(every) // 4)
        every_set, some_set = WantedSet(every), WantedSet(some)
        tables = coverage_tables(candidates, Session().solved(background, candidates))
        for cand, every_mask, some_mask, some_hit in zip(
            candidates,
            covered_atoms(tables, every_set),
            covered_atoms(tables, some_set),
            covers_any(tables, some_set),
        ):
            model = naive_consequences(background, Program.of([cand.clause]))
            derived = {a for a in model if a.predicate == "h"}
            cross += sum(a.args[0].name[0] != a.args[1].name[0] for a in derived)
            text = cand.text
            assert atoms_of(every_set, every_mask) == derived, text
            assert atoms_of(some_set, some_mask) == derived & set(some), text
            assert some_hit == bool(derived & set(some)), text
    assert cross  # some heads join groups bound in different components


def test_group_key_under_different_slots_scores_apart():
    """A group key omits the head slots, so two candidates whose ``p``
    groups share a key but bind different head variables must still get
    their own verdicts, in either scoring order."""
    texts = ("h(X,Y):- p(X),q(X,Y).", "h(X,Y):- p(Y),q(X,Y).")
    clauses = [canonical(parse_clause(t)) for t in texts]
    listed = CandidateList(clauses)
    cands = listed.candidates
    carried = [listed.slotted[i] for uses in listed.uses for i in uses]
    p_groups = [s for s in carried if listed.groups[s[3]].preds == {"p"}]
    # (head predicate, head arity, head_slots, key)
    assert p_groups[0][3] == p_groups[1][3]
    assert p_groups[0][2] != p_groups[1][2]
    background = parse_facts("p(a).\nq(a,b).\n")
    hit = atom("h", "a", "b")
    want = {cands[0].text: {hit}, cands[1].text: set()}
    for order in (CandidateList(clauses), CandidateList(clauses[::-1])):
        tables = coverage_tables(order, Session().solved(background, order))
        negatives, positives = WantedSet([hit]), WantedSet([hit])
        for cand, bad, mask in zip(order, covers_any(tables, negatives), covered_atoms(tables, positives)):
            assert bad == bool(want[cand.text])
            assert atoms_of(positives, mask) == want[cand.text]


def test_head_predicates_score_apart():
    """Wanted atoms are numbered across head predicates, so a slotted
    group's mask must reach only atoms of its own head predicate and arity:
    a negative ``g(a,b)`` leaves ``h(X,Y):- p(X,Y)`` safe although both
    candidates' groups share a key and slots."""
    bias = parse_bias("head_pred(h,2).\nhead_pred(g,2).\nbody_pred(p,2).\nmax_vars(2).\nmax_body(1).\n")
    candidates = candidate_list(bias)
    by_text = {c.text: i for i, c in enumerate(candidates)}
    h, g = by_text["h(V0,V1):- p(V0,V1)."], by_text["g(V0,V1):- p(V0,V1)."]
    (h_group,), (g_group,) = candidates.uses[h], candidates.uses[g]
    assert h_group != g_group
    # the same head slots and group key, under different heads
    assert candidates.slotted[h_group][2:] == candidates.slotted[g_group][2:]
    background = parse_facts("p(a,b).\n")
    tables = coverage_tables(candidates, Session().solved(background, candidates))
    negatives = WantedSet([atom("g", "a", "b"), atom("h", "b", "a")])
    positives = WantedSet([atom("h", "a", "b"), atom("g", "b", "a")])
    unsafe, derived = covers_any(tables, negatives), covered_atoms(tables, positives)
    assert (unsafe[h], unsafe[g]) == (False, True)
    assert atoms_of(positives, derived[h]) == {atom("h", "a", "b")}
    assert atoms_of(positives, derived[g]) == set()
    res = solve(background, parse_examples("pos(h(a,b)).\nneg(g(a,b)).\n"), bias)
    assert res.hypothesis == Program.of([parse_clause("h(V0,V1):- p(V0,V1).")])


def test_wanted_set_reused_across_stores():
    """A wanted set keeps only what its atoms decide: one wanted set scored
    against tables from different stores answers for each."""
    clause = canonical(parse_clause("h(X,Y):- p(X,Z),q(Z,Y)."))
    cands = CandidateList([clause])
    wanted = WantedSet([atom("h", "a", "b")])
    session = Session()
    for facts, covered in (
        ("p(a,c).\nq(c,b).\n", True),
        ("p(a,c).\nq(c,d).\n", False),
        ("p(a,c).\nq(c,b).\n", True),
    ):
        tables = coverage_tables(cands, session.solved(parse_facts(facts), cands))
        assert covers_any(tables, wanted) == [covered]
        (mask,) = covered_atoms(tables, wanted)
        assert atoms_of(wanted, mask) == ({atom("h", "a", "b")} if covered else set())


def constants(background: Program) -> set[str]:
    return {c for _, args in FactStore.from_program(background).facts() for c in args}


def fresh_unions(background: Program, candidates) -> dict[str, frozenset]:
    """Group unions straight from the components of ``from_program``, each
    group fired on its own, with no cache and no derivation."""
    out: dict[str, set] = {}
    for facts in FactStore.from_program(background).components():
        store = FactStore(facts)
        for key, group in candidates.groups.items():
            heads: set = set()
            cover.fire(group.compiled, store, heads)
            if heads:
                out.setdefault(key, set()).update(args for _, args in heads)
    return {key: frozenset(sols) for key, sols in out.items()}


def assert_solved_is_fresh(form: cover.SolvedBackground, background: Program, candidates) -> None:
    store = FactStore.from_program(background)
    consts = constants(background)
    assert form.clauses == background.clauses
    # membership on every fact, on every other atom over the background's
    # constants, and on atoms whose first constant is not in the background
    arities = {(pred, len(args)) for pred, args in store.facts()}
    probes = [
        Atom(pred, tuple(const(c) for c in args))
        for pred, arity in arities
        for args in itertools.product([*consts, "absent"], repeat=arity)
    ]
    facts = {a for a in probes if store.has_atom(a)}
    assert len(facts) == len(store)
    wanted = WantedSet(probes)
    assert atoms_of(wanted, form.facts_in(wanted)) == facts
    assert set(form.component_of.values()) == {frozenset(c) for c in store.components()}
    assert set(form.component_of) == consts
    for c, component in form.component_of.items():
        assert any(c in args for _, args in component)
    assert form.unions == fresh_unions(background, candidates)


def background_chain(rng: random.Random):
    """Overlapping fact subsets from one ``oracles.random_instance`` background,
    and a bias over its predicates."""
    background, _ = random_instance(
        rng, max_constants=7, max_predicates=3, max_facts=18, arities=(1, 2)
    )
    facts = sorted(background.clauses, key=str)
    arity = {c.head.predicate: c.head.arity for c in facts}
    bias = parse_bias(
        "head_pred(h,2).\n"
        + "".join(f"body_pred({pred},{ar}).\n" for pred, ar in sorted(arity.items()))
        + "max_vars(3).\nmax_body(2).\n"
    )
    subsets = [
        Program.of(rng.sample(facts, k=rng.randint(1, min(4, len(facts)))))
        for _ in range(rng.randint(4, 8))
    ]
    return bias, subsets


def test_derived_solved_background_equals_a_fresh_one():
    """Along random aggregation-shaped chains (each step extends the kept
    state by a subset, then keeps or discards it, sometimes asking for the
    same background again), every solved form equals one built from
    scratch, and so does every earlier form after later steps."""
    rng = random.Random(20261018)
    merges = discards_then_derived = repeats = 0
    for _ in range(60):
        bias, subsets = background_chain(rng)
        candidates = candidate_list(bias)
        session = Session()
        state = Program.of(())
        latest = None
        seen: list[tuple[cover.SolvedBackground, Program]] = []
        for subset in subsets:
            background = state.union(subset)
            form = session.solved(background, candidates)
            assert_solved_is_fresh(form, background, candidates)
            old, new = constants(state), constants(subset)
            merges += bool(old & new) and background != state
            discards_then_derived += latest is not None and latest.clauses != state.clauses
            if rng.random() < 0.3:
                repeats += 1
                assert session.solved(background, candidates) is form
            seen.append((form, background))
            latest = form
            if rng.random() < 0.7:
                state = background
                session.commit(session.examples)
        for form, background in seen:
            assert_solved_is_fresh(form, background, candidates)
    assert merges > 20 and discards_then_derived > 20 and repeats > 20


def test_derived_solved_background_equals_a_fresh_one_after_subset_checks():
    """As in ``run_pipeline``, where the subset checks and aggregation share
    one cache: every subset is first solved alone, then a chain extends the
    kept state by each.  Every form, the subsets' own included, equals one
    built from scratch, also where a subset whose constants are new to the
    state adds the fact set its own solve tabled, and joining it tables
    nothing."""
    rng = random.Random(20261019)
    reused = merges = 0
    for _ in range(60):
        bias, subsets = background_chain(rng)
        candidates = candidate_list(bias)
        cache = CoverCache()
        session = Session(cache)
        seen: list[tuple[cover.SolvedBackground, Program]] = []
        for subset in subsets:
            form = session.solved(subset, candidates)
            assert_solved_is_fresh(form, subset, candidates)
            seen.append((form, subset))
        state = Program.of(())
        for subset in subsets:
            background = state.union(subset)
            # the fact set a subset adds when its constants are new to the state
            own = frozenset(FactStore.from_program(subset).facts())
            hit = own in cache.tables and constants(state).isdisjoint(constants(subset))
            tabled = len(cache.tables)
            form = session.solved(background, candidates)
            assert_solved_is_fresh(form, background, candidates)
            reused += hit and bool(state.clauses) and len(cache.tables) == tabled
            merges += bool(constants(state) & constants(subset)) and background != state
            seen.append((form, background))
            if rng.random() < 0.7:
                state = background
                session.commit(session.examples)
        for form, background in seen:
            assert_solved_is_fresh(form, background, candidates)
    assert reused > 5 and merges > 20


# --------------------------------------------------------------------- solve


def plant_background() -> Program:
    return parse_facts(
        "cross_runway(a1,r1).\nlanding_runway(b1,r1).\n"
        "cross_runway(a2,r2).\nlanding_runway(b2,r2).\n"
        "cross_runway(c1,r3).\nlanding_runway(d1,r4).\n"
    )


def plant_examples() -> ExampleSet:
    return parse_examples(
        "pos(collision(a1,b1)).\npos(collision(a2,b2)).\n"
        "neg(collision(c1,d1)).\nneg(collision(d1,c1)).\n"
    )


def test_solve_recovers_planted_rule():
    res = solve(plant_background(), plant_examples(), PLANT_BIAS)
    assert res.outcome == "hypothesis"
    assert res.hypothesis == Program.of([parse_clause(RULE_CROSS_LANDING)])
    assert res.stats.clauses_enumerated == len(candidate_list(PLANT_BIAS))
    assert 0 < res.stats.candidates_negative_safe <= res.stats.clauses_enumerated


def test_solve_empty_positives_yields_empty_program():
    ex = parse_examples("neg(collision(c1,d1)).\n")
    res = solve(plant_background(), ex, PLANT_BIAS)
    assert res.outcome == "hypothesis"
    assert res.hypothesis == Program.of(())


def test_solve_no_hypothesis_for_unreachable_positive():
    b = parse_facts("cross_runway(a,r9).\nlanding_runway(b,r9).\n")
    agents = ["a", "b", "x", "y"]
    negs = [
        atom("collision", s, t) for s in agents for t in agents if (s, t) != ("x", "y")
    ]
    ex = ExampleSet.of([atom("collision", "x", "y")], negs)
    # no clause in the space can even reach the positive: its constants
    # never occur in the background
    for c in enumerate_clauses(PLANT_BIAS):
        cov = coverage(b, Program.of([c]), ex)
        assert atom("collision", "x", "y") not in cov.covered_pos
    res = solve(b, ex, PLANT_BIAS)
    assert res.outcome == "no_hypothesis"
    assert res.hypothesis is None


def test_solve_rejects_negative_present_as_fact():
    b = parse_facts("cross_runway(a,r1).\ncollision(a,a).\n")
    ex = parse_examples("pos(collision(a,b)).\nneg(collision(a,a)).\n")
    res = solve(b, ex, PLANT_BIAS)
    assert res.outcome == "no_hypothesis"


def test_solve_rejects_example_at_undeclared_arity():
    # collision is declared at arity 2; an example at arity 1 is a caller
    # error, not a run that found no hypothesis
    ex = parse_examples("pos(collision(a)).\n")
    with pytest.raises(ValueError, match="collision/1"):
        solve(plant_background(), ex, PLANT_BIAS)


def test_solve_rejects_undeclared_predicate_on_first_positive_or_last_negative(monkeypatch):
    """The predicate check reads every example, before the hypothesis space
    is compiled: a body predicate on the first positive and an undeclared
    one on the last negative are each a caller error."""

    def no_compile(bias):
        raise AssertionError("compiled the hypothesis space before checking the examples")

    monkeypatch.setattr(learner, "candidate_list", no_compile)
    pos, neg = plant_examples().positives, plant_examples().negatives
    for ex, name in (
        (ExampleSet.of([atom("cross_runway", "a1", "r1"), *pos], neg), "cross_runway/2"),
        (ExampleSet.of(pos, [*neg, atom("holding", "c1")]), "holding/1"),
    ):
        with pytest.raises(ValueError, match=f"^example predicate {name} is not a declared head predicate$"):
            solve(plant_background(), ex, PLANT_BIAS)


def test_solve_ignores_the_clock(monkeypatch):
    """The outcome depends on the evidence alone: a clock that leaps 1000 s
    at every read changes nothing."""
    clock = itertools.count(0.0, 1000.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))
    res = solve(plant_background(), plant_examples(), PLANT_BIAS)
    assert res.outcome == "hypothesis"
    assert res.hypothesis == Program.of([parse_clause(RULE_CROSS_LANDING)])


def test_cover_cache_shared_across_biases():
    """A cache holds facts about (component, group) pairs and a session
    drops its solved forms when the candidate list changes, so one session
    passed through solves under different biases gives each the verdict a
    fresh one gives."""
    background = parse_facts("p(a,c).\nr(b,a).\n")
    pair = parse_examples("pos(h(a,b)).\nneg(h(b,a)).\n")
    cases = [
        (parse_bias("head_pred(h,2).\nbody_pred(p,2).\nmax_vars(2).\nmax_body(1).\n"), pair),
        (parse_bias("head_pred(h,2).\nbody_pred(r,2).\nmax_vars(2).\nmax_body(1).\n"), pair),
        (
            parse_bias("head_pred(g,1).\nbody_pred(p,2).\nmax_vars(2).\nmax_body(1).\n"),
            parse_examples("pos(g(a)).\nneg(g(c)).\n"),
        ),
    ]
    fresh = [solve(background, ex, bias) for bias, ex in cases]
    assert fresh[1].hypothesis == Program.of([parse_clause("h(V0,V1):- r(V1,V0).")])
    assert fresh[2].hypothesis == Program.of([parse_clause("g(V0):- p(V0,V1).")])
    for order, want in ((cases, fresh), (cases[::-1], fresh[::-1])):
        session = Session()
        assert [solve(background, ex, bias, session) for bias, ex in order] == want


def test_solve_scores_each_slotted_group_once(monkeypatch):
    """An attempt updates at most one mask per slotted group whose union
    grew or whose head pattern has new atoms: never one per candidate that
    carries the group, nor one per side.  An attempt that adds nothing
    updates none, and no solve builds a wanted set."""
    built, updates = [], []
    real_init, real_mask = cover.WantedSet.__init__, cover._mask

    def counting_init(self, atoms):
        built.append(self)
        real_init(self, atoms)

    def counting_mask(*args):
        updates.append(args)
        return real_mask(*args)

    monkeypatch.setattr(cover.WantedSet, "__init__", counting_init)
    monkeypatch.setattr(cover, "_mask", counting_mask)
    candidates = candidate_list(SMALL_BIAS)
    carried = [candidates.slotted[i] for uses in candidates.uses for i in uses]

    def with_solutions(background: Program) -> set:
        unions = Session().solved(background, candidates).unions
        return {s for s in candidates.slotted if s[3] in unions}

    background = parse_facts("p(a,b).\np(b,c).\nq(b,a).\nq(c,c).\nr(a).\nr(c).\n")
    ex = parse_examples("pos(h(a,b)).\npos(h(b,c)).\nneg(h(b,a)).\nneg(h(a,c)).\n")
    session = Session()
    res = solve(background, ex, SMALL_BIAS, session)
    assert res.outcome == "hypothesis"
    first = with_solutions(background)
    # many candidates share a slotted group with solutions, so scoring per
    # candidate would update more masks than this test allows
    assert len([s for s in carried if s in first]) > len(first)
    assert 0 < len(updates) <= len(first)

    session.commit(ex)
    updates.clear()
    assert solve(background, ex, SMALL_BIAS, session) == res
    assert updates == []

    # new facts that grow some unions, and new atoms of the one head pattern
    grown = background.union(parse_facts("p(c,a).\nr(b).\n"))
    joined = session.join([("h", ("c", "a"))], [("h", ("c", "b"))])
    fresh = solve(grown, joined, SMALL_BIAS)
    updates.clear()
    assert solve(grown, joined, SMALL_BIAS, session) == fresh
    assert 0 < len(updates) <= len(with_solutions(grown))
    assert built == []

    complete = [
        c for c, uses in zip(candidates, candidates.uses) if all(candidates.slotted[i] in first for i in uses)
    ]
    safe = [c for c in complete if not coverage(background, Program.of([c.clause]), ex).covered_neg]
    # a candidate with a group that has no solutions derives nothing
    res = solve(background, ex, SMALL_BIAS)
    assert res.stats.candidates_negative_safe == len(safe) + len(candidates) - len(complete)


def test_solve_deterministic():
    args = (plant_background(), plant_examples(), PLANT_BIAS)
    assert solve(*args) == solve(*args)


def test_solve_respects_max_clauses():
    # two positives needing two different rules, but max_clauses(1)
    bias = parse_bias(
        "head_pred(h,2).\nbody_pred(p,2).\nbody_pred(q,2).\n"
        "max_vars(2).\nmax_body(1).\nmax_clauses(1).\n"
    )
    b = parse_facts("p(a,b).\nq(c,d).\n")
    ex = ExampleSet.of([atom("h", "a", "b"), atom("h", "c", "d")], [atom("h", "b", "a")])
    res = solve(b, ex, bias)
    assert res.outcome == "no_hypothesis"
    relaxed = parse_bias(
        "head_pred(h,2).\nbody_pred(p,2).\nbody_pred(q,2).\n"
        "max_vars(2).\nmax_body(1).\nmax_clauses(2).\n"
    )
    res2 = solve(b, ex, relaxed)
    assert res2.outcome == "hypothesis"
    assert len(res2.hypothesis.clauses) == 2


# -------------------------------------------------------------------- verify


def test_verify_consistent_on_planted_rule():
    h = Program.of([parse_clause(RULE_CROSS_LANDING)])
    v = verify(plant_background(), h, plant_examples())
    assert v.status == "consistent"
    assert v.missed_positives == () and v.covered_negatives == ()


def test_verify_empty_hypothesis_incomplete():
    ex = plant_examples()
    v = verify(plant_background(), Program.of(()), ex)
    assert v.status == "incomplete"
    assert set(v.missed_positives) == set(ex.positives)


def test_verify_unsound_reports_witness():
    b = parse_facts("landing_runway(p1,r1).\nlanding_runway(p2,r2).\n")
    h = Program.of(
        [parse_clause("collision(V0,V1):- landing_runway(V0,V2),landing_runway(V1,V3).")]
    )
    ex = parse_examples("neg(collision(p1,p2)).\n")
    v = verify(b, h, ex)
    assert v.status == "unsound"
    assert v.covered_negatives == (atom("collision", "p1", "p2"),)


# --------------------------------------------- completeness against an oracle


def exhaustive_consistent_exists(background: Program, ex: ExampleSet, bias) -> bool:
    base = coverage(background, Program.of(()), ex)
    if base.covered_neg:
        return False
    needed = set(ex.positives) - set(base.covered_pos)
    if not needed:
        return True
    covers: set[frozenset[Atom]] = set()
    for c in enumerate_clauses(bias):
        cov = coverage(background, Program.of([c]), ex)
        if cov.covered_neg:
            continue
        got = frozenset(cov.covered_pos) & frozenset(needed)
        if got:
            covers.add(frozenset(got))
    pool = list(covers)
    for k in (1, 2, 3):
        for combo in itertools.combinations(pool, k):
            if needed <= set().union(*combo):
                return True
    return False


def test_solve_complete_at_desk_scale():
    rng = random.Random(20260302)
    solvable = 0
    for _ in range(60):
        background, ex = random_solver_instance(rng)
        res = solve(background, ex, SMALL_BIAS)
        oracle = exhaustive_consistent_exists(background, ex, SMALL_BIAS)
        if oracle:
            solvable += 1
            assert res.outcome == "hypothesis", (str(background), str(ex.positives))
        if res.outcome == "hypothesis":
            # soundness: self-verification must agree with the engine
            v = verify(background, res.hypothesis, ex)
            assert v.status == "consistent"
            assert len(res.hypothesis.clauses) <= SMALL_BIAS.max_clauses
    assert solvable >= 10  # the suite must actually exercise the property


# ------------------------------------------- greedy cover against an oracle


def random_solve_case(rng: random.Random):
    """A solver instance grown from ``oracles.random_instance``: one head
    predicate of a random program, its model's other atoms as background,
    and ground atoms of the head predicate labelled by that model, with a
    label flipped now and then so that some instances have no hypothesis."""
    while True:
        background, program = random_instance(rng, max_constants=4, max_body=2)
        heads = sorted({(c.head.predicate, c.head.arity) for c in program})
        if not heads:
            continue
        pred, arity = rng.choice(heads)
        model = naive_consequences(background, program)
        facts = sorted((a for a in model if a.predicate != pred), key=str)
        body = sorted({(a.predicate, a.arity) for a in facts})
        if body:
            break
    consts = sorted({t.name for a in model for t in a.args})
    ground = [
        Atom(pred, tuple(const(c) for c in args))
        for args in itertools.product(consts, repeat=arity)
    ]
    rng.shuffle(ground)
    pos, neg = [], []
    for a in ground[: rng.randint(1, 6)]:
        (pos if (a in model) != (rng.random() < 0.15) else neg).append(a)
    if rng.random() < 0.1:  # an example already in the background
        facts.append(rng.choice(ground))
    bias = parse_bias(
        f"head_pred({pred},{arity}).\n"
        + "".join(f"body_pred({p},{k}).\n" for p, k in body)
        + f"max_vars({rng.randint(max(arity, 2), 3)}).\n"
        + f"max_body({rng.randint(1, 2)}).\n"
        + f"max_clauses({rng.randint(1, 3)}).\n"
    )
    return Program.of(Clause(a) for a in facts), ExampleSet.of(pos, neg), bias


def test_solve_matches_exhaustive_greedy_cover():
    """Outcome, hypothesis text and negative-safe count equal the oracle's,
    which scores each candidate alone by ground substitution."""
    rng = random.Random(20261019)
    outcomes = []
    for _ in range(200):
        background, ex, bias = random_solve_case(rng)
        res = solve(background, ex, bias)
        outcome, hypothesis, safe = greedy_cover(
            background, ex, list(enumerate_clauses(bias)), bias.max_clauses
        )
        case = (str(background), str(ex.positives), str(ex.negatives))
        assert res.outcome == outcome, case
        assert str(res.hypothesis) == str(hypothesis), case
        assert res.stats.candidates_negative_safe == safe, case
        outcomes.append((outcome, -1 if hypothesis is None else len(hypothesis.clauses)))
    # the instances reach every branch: no hypothesis, an empty one, and
    # hypotheses of one and of several clauses
    kinds = {o for o, _ in outcomes}
    sizes = {n for _, n in outcomes}
    assert kinds == {"hypothesis", "no_hypothesis"}
    assert {0, 1} <= sizes and max(sizes) >= 2, outcomes


def test_rule_supports_equal_rule_support_on_learned_hypotheses():
    """Supports read from one background store equal one full model per rule."""
    rng = random.Random(1986)
    learned = several = 0
    for _ in range(400):
        background, ex, bias = random_solve_case(rng)
        res = solve(background, ex, bias)
        if res.hypothesis is None or not res.hypothesis.clauses:
            continue
        rules = res.hypothesis.rules()
        learned += 1
        several += len(rules) > 1
        want = [rule_support(r, background, ex.positives) for r in rules]
        assert rule_supports(rules, background, ex.positives) == want, str(res.hypothesis)
    assert learned >= 100 and several >= 5


def test_rule_supports_refuses_a_body_over_a_head_predicate():
    rules = [parse_clause("q(X):- p(X)."), parse_clause("h(X):- q(X).")]
    with pytest.raises(ValueError, match="head predicate"):
        rule_supports(rules, parse_facts("p(a).\n"), [])
