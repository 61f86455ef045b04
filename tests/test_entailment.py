"""Entailment engine tests against the brute-force model oracle."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hornpipe import entailment
from hornpipe.entailment import (
    CompiledRule,
    FactStore,
    atom_to_fact,
    compile_clause,
    consequences,
    coverage,
    fire,
    rule_support,
)
from hornpipe.learner import candidate_list
from hornpipe.logic import Atom, Clause, ExampleSet, Program, atom, const, var
from hornpipe.parsing import parse_clause, parse_facts, parse_examples, parse_rules
from hornpipe.synthgen import generate_corpus, generate_scenarios

from oracles import naive_consequences, random_instance, reference_fire


def prog(*lines: str) -> Program:
    return parse_facts("\n".join(lines))


def rules(*lines: str) -> Program:
    return Program.of([parse_clause(s) for s in lines])


# --- FactStore ------------------------------------------------------------------

def test_factstore_indexes_and_constants():
    p = prog("p(a,b).", "p(a,c).", "q(b).")
    store = FactStore(atom_to_fact(a) for a in [c.head for c in p])
    assert len(store) == 3
    assert store.by_pred["p"] == {("a", "b"), ("a", "c")}
    assert store.by_pred["q"] == {("b",)}
    assert {c for _, args in store.facts() for c in args} == {"a", "b", "c"}
    assert store.has_atom(atom("p", "a", "b"))
    assert not store.has_atom(atom("p", "b", "a"))


def test_factstore_index_any_position_stays_current():
    store = FactStore([("p", ("a", "b")), ("p", ("c", "b")), ("p", ("a",))])
    by_second = store.index("p", 2, 1)
    assert list(by_second) == ["b"] and sorted(by_second["b"]) == [("a", "b"), ("c", "b")]
    assert store.index("p", 1, 0) == {"a": [("a",)]}
    store.add(("p", ("d", "e")))
    store.add(("p", ("d", "e")))  # a duplicate is not indexed twice
    assert by_second["e"] == [("d", "e")]
    assert store.index("p", 1, 0) == {"a": [("a",)]}


def test_factstore_components():
    p = prog("p(a,b).", "p(c,d).", "q(e).")
    store = FactStore.from_program(p)
    groups = store.components()
    assert sorted(map(sorted, groups)) == [
        [("p", ("a", "b"))],
        [("p", ("c", "d"))],
        [("q", ("e",))],
    ]
    # facts sharing a constant land in one component
    store.add(("r", ("b", "c")))
    assert sorted(len(g) for g in store.components()) == [1, 3]


def test_factstore_has_atom_rejects_non_ground_atom():
    store = FactStore.from_program(prog("p(a,b)."))
    for args in ((var("X"), const("b")), (const("a"), var("Y"))):
        with pytest.raises(ValueError, match="ground"):
            store.has_atom(Atom("p", args))


def test_from_program_rejects_a_rule_in_the_background():
    background = prog("p(a,b).").union(rules("q(X,Y):- p(X,Y)."))
    with pytest.raises(ValueError, match="only facts"):
        FactStore.from_program(background)


def test_from_program_holds_exactly_the_program_facts():
    rng = random.Random(20261018)
    for _ in range(50):
        background, _ = random_instance(rng, max_constants=6, max_predicates=4, max_facts=20)
        store = FactStore.from_program(background)
        want = {atom_to_fact(a) for a in background.facts()}
        assert set(store.facts()) == want
        assert len(store) == len(want)


# --- consequences ----------------------------------------------------------------

def test_consequences_single_join():
    b = prog("cross_runway(a1,r1).", "landing_runway(a2,r1).")
    h = rules("collision(V0,V1):- cross_runway(V0,V2),landing_runway(V1,V2).")
    model = consequences(b, h)
    assert model.has_atom(atom("collision", "a1", "a2"))
    assert not model.has_atom(atom("collision", "a2", "a1"))
    # contains the background
    assert model.has_atom(atom("cross_runway", "a1", "r1"))


def test_consequences_multi_step_chain():
    b = prog("p(a,b).", "p(b,c).")
    h = rules("q(X,Y):- p(X,Y).", "r(X,Z):- q(X,Y),q(Y,Z).")
    model = consequences(b, h)
    assert model.has_atom(atom("r", "a", "c"))
    assert not model.has_atom(atom("r", "a", "b"))


def test_consequences_rejects_rules_in_background():
    h = rules("q(X,Y):- p(X,Y).")
    with pytest.raises(ValueError, match="only facts"):
        consequences(h, Program.of([]))


def test_entails_requires_ground_query():
    model = consequences(prog("p(a,b)."), Program.of([]))
    with pytest.raises(ValueError, match="ground"):
        model.has_atom(Atom("p", tuple(parse_clause("q(X,Y):- p(X,Y).").head.args)))


def test_entails_empty_hypothesis_is_background_membership():
    model = consequences(prog("p(a,b)."), Program.of([]))
    assert model.has_atom(atom("p", "a", "b"))
    assert not model.has_atom(atom("p", "b", "a"))


# --- oracle equivalence ------------------------------------------------------------

def test_consequences_matches_naive_oracle_frozen_seeds():
    rng = random.Random(424242)
    for _ in range(400):
        b, h = random_instance(rng)
        got = consequences(b, h).atoms()
        want = naive_consequences(b, h)
        assert got == want, f"\nB={b}\nH={h}\ngot-want={got - want}\nwant-got={want - got}"


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=2**48))
def test_consequences_matches_naive_oracle_property(seed):
    b, h = random_instance(random.Random(seed))
    assert consequences(b, h).atoms() == naive_consequences(b, h)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**48), st.integers(min_value=0, max_value=2**48))
def test_monotone_in_background(seed, seed2):
    """Adding facts never removes derivations."""
    rng = random.Random(seed)
    b, h = random_instance(rng)
    extra, _ = random_instance(random.Random(seed2))
    merged = b.union(extra)
    small = consequences(b, h).atoms()
    big = consequences(merged, h).atoms()
    assert small <= big


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**48))
def test_monotone_in_hypothesis(seed):
    """Adding clauses never removes derivations."""
    rng = random.Random(seed)
    b, h = random_instance(rng)
    _, h2 = random_instance(random.Random(seed + 1))
    assert consequences(b, h).atoms() <= consequences(b, h.union(h2)).atoms()


# --- planned joins against the oracle ------------------------------------------------

DATA = Path(__file__).resolve().parent.parent / "data"


def test_join_probes_a_bound_second_argument():
    """same_runway(V3,V2) is reached with only V2 bound: the probe is on position 1."""
    b = prog(
        "landing_runway(l1,r1).", "landing_runway(l2,r2).",
        "same_runway(r9,r1).", "same_runway(r1,r2).", "same_runway(r8,r7).",
        "holding_on_runway(h1,r9).", "holding_on_runway(h2,r1).", "holding_on_runway(h3,r8).",
        "holding_on_runway(h4,r2).",
    )
    text = "collision(V0,V1):- landing_runway(V1,V2),same_runway(V3,V2),holding_on_runway(V0,V3)."
    h = rules(text)
    model = consequences(b, h)
    assert model.atoms() == naive_consequences(b, h)
    assert model.has_atom(atom("collision", "h1", "l1"))
    assert model.has_atom(atom("collision", "h2", "l2"))
    assert not model.has_atom(atom("collision", "h3", "l1"))

    # the clause as written, not in the canonical body order Program.of gives it
    steps = compile_clause(parse_clause(text)).plan(None).steps
    assert [s.pred for s in steps] == ["landing_runway", "same_runway", "holding_on_runway"]
    same = steps[1]
    assert same.probe_pos == 1 and same.probe_slot == 2  # V2
    assert same.pre == () and same.binds == ((0, 3),)  # V3 is bound from position 0


def _one_name(p: Program) -> Program:
    """Rename every predicate to ``p``: arity alone tells the predicates apart."""

    def ren(a: Atom) -> Atom:
        return Atom("p", a.args)

    return Program.of(Clause(ren(c.head), tuple(ren(x) for x in c.body)) for c in p)


def test_one_predicate_name_at_two_arities_matches_oracle():
    rng = random.Random(5150)
    mixed = 0
    for _ in range(150):
        b, h = random_instance(rng)
        b, h = _one_name(b), _one_name(h)
        mixed += len({c.head.arity for c in b}) == 2
        got = consequences(b, h).atoms()
        assert got == naive_consequences(b, h), f"\nB={b}\nH={h}"
    assert mixed > 30


def test_arity_three_four_literal_bodies_match_oracle():
    rng = random.Random(3344)
    long_bodies = 0
    for _ in range(120):
        b, h = random_instance(
            rng, max_constants=4, max_body=4, max_facts=16, arities=(2, 3), n_vars=5
        )
        long_bodies += any(len(c.body) == 4 for c in h)
        assert consequences(b, h).atoms() == naive_consequences(b, h), f"\nB={b}\nH={h}"
    assert long_bodies > 20


def test_recursive_rules_over_many_rounds_match_oracle():
    chain = prog(*(f"edge(c{i},c{i + 1})." for i in range(7)), "edge(c7,c3).", "start(c0).")
    cases = [
        # linear recursion: one more edge per round
        rules("path(X,Y):- edge(X,Y).", "path(X,Z):- path(X,Y),edge(Y,Z)."),
        # non-linear recursion
        rules("path(X,Y):- edge(X,Y).", "path(X,Z):- path(X,Y),path(Y,Z)."),
        # mutual recursion through a unary predicate and a constant
        rules(
            "reach(X):- start(X).",
            "reach(Y):- reach(X),edge(X,Y).",
            "loop(X):- reach(X),path(X,c3).",
            "path(X,Y):- edge(X,Y).",
            "path(X,Z):- edge(X,Y),path(Y,Z).",
        ),
    ]
    for h in cases:
        model = consequences(chain, h)
        assert model.atoms() == naive_consequences(chain, h)
    assert model.has_atom(atom("path", "c0", "c7"))  # needs 6 rounds after the first
    assert model.has_atom(atom("loop", "c5"))


@pytest.mark.parametrize("rules_file", ["planted_rules.rules", "hand_rules.rules"])
def test_merged_world_model_is_union_of_scene_models(rules_file):
    """Scenes share no constants, so a world's model is the union of theirs."""
    h = parse_rules((DATA / rules_file).read_text(encoding="utf-8"))
    scenes = generate_scenarios(h, len(h.rules()), seed=0)
    world = Program.of(())
    want: set[Atom] = set()
    for _, background, _, _ in scenes:
        world = world.union(background)
        want |= naive_consequences(background, h)
    model = consequences(world, h)
    assert model.atoms() == want
    assert any(a.predicate == "collision" for a in want)


# --- generated join kernels ----------------------------------------------------------

def _renamed(c: Clause, prefix: str) -> Clause:
    def ren(a: Atom) -> Atom:
        return Atom(prefix + a.predicate, a.args)

    return Clause(ren(c.head), tuple(ren(x) for x in c.body))


def _fired(rule: CompiledRule, store: FactStore, seed=None, rows=None) -> tuple[set, set]:
    got: set = set()
    want: set = set()
    fire(rule, store, got, seed, rows)
    reference_fire(rule, store, want, seed, rows)
    return got, want


def test_fire_matches_the_recursive_reference():
    """Each rule fired naively and from each body literal, against the
    recursive join, on random rules with constants and repeated variables,
    half of them with one predicate name at two arities.  Each rule also
    fires as a twin over renamed predicates whose rows differ: the same
    shape, so the same kernel."""
    rng = random.Random(2525)
    derived = seeded = mixed = 0
    for _ in range(300):
        b, h = random_instance(rng, max_body=4, max_facts=25, arities=(1, 3))
        if rng.random() < 0.5:
            b, h = _one_name(b), _one_name(h)
        store = FactStore.from_program(b)
        for pred, rows in list(store.by_pred.items()):
            mixed += len({len(r) for r in rows}) == 2
            consts = [args[0] for args in rows]
            for row in rows:
                if rng.random() < 0.7:
                    store.add(("q_" + pred, tuple(rng.choice(consts) for _ in row)))
        for c in h.rules():
            rule, twin = CompiledRule(c), CompiledRule(_renamed(c, "q_"))
            for r in (rule, twin):
                got, want = _fired(r, store)
                assert got == want, f"\n{c}\nB={b}"
                derived += bool(got)
                for i, (pred, slots) in enumerate(r.body):
                    rows = [row for row in store.by_pred.get(pred, ()) if len(row) == len(slots)]
                    rows = rng.sample(rows, rng.randint(0, len(rows)))
                    got, want = _fired(r, store, i, rows)
                    assert got == want, f"\n{c} from literal {i}\nB={b}"
                    seeded += bool(got)
            assert twin.plan(None).kernel is rule.plan(None).kernel
    assert derived > 150 and seeded > 300 and mixed > 30


def _deep_instance(length: int, through: str) -> tuple[Program, Program, Atom]:
    """A rule of ``length`` body literals over four variables, the first
    three ``link`` literals, and the facts one planted assignment satisfies
    plus random others.  The planted link facts are ``through`` facts: as
    ``link`` facts the long rule derives in its naive first round, and as
    ``edge`` facts, from which ``link`` is derived, only when it fires from
    a ``link`` literal seeded with them."""
    rng = random.Random(length)
    xs = [var(f"X{i}") for i in range(4)]
    consts = ["c0", "c1", "c2"]
    value = {x: const(rng.choice(consts)) for x in xs}
    lits = [Atom("link", (xs[i], xs[i + 1])) for i in range(3)]
    for i in range(length - 3):
        a, b = rng.choice(xs), rng.choice(xs)
        lits.append(Atom(f"p{i}", (a, b) if rng.random() < 0.8 else (a, const(rng.choice(consts)))))
    facts = {Atom(through, tuple(value[t] for t in lit.args)) for lit in lits[:3]}
    for lit in lits[3:]:
        facts.add(Atom(lit.predicate, tuple(value.get(t, t) for t in lit.args)))
        for _ in range(4):
            facts.add(Atom(lit.predicate, (const(rng.choice(consts)), const(rng.choice(consts)))))
    deep = Clause(Atom("h", (xs[0], xs[3])), tuple(lits))
    link = Clause(Atom("link", (xs[0], xs[1])), (Atom("edge", (xs[0], xs[1])),))
    background = Program.of(Clause(f) for f in facts)
    return background, Program.of([deep, link]), Atom("h", (value[xs[0]], value[xs[3]]))


@pytest.mark.parametrize("length", [25, 60])
@pytest.mark.parametrize("through", ["link", "edge"])
def test_long_bodies_match_oracle(length, through):
    """Bodies far deeper than the 20 blocks CPython nests in one function,
    fired naively (``link`` facts in the background) and seeded by
    ``saturate`` (``link`` facts derived from ``edge``)."""
    b, h, planted = _deep_instance(length, through)
    model = consequences(b, h)
    assert model.atoms() == naive_consequences(b, h)
    assert model.has_atom(planted)


def test_planted_groups_need_22_kernels(monkeypatch):
    """Kernels are per plan shape: the 67 body groups of the planted
    corpus's bias have 22 shapes, and a rule of a known shape adds none."""
    monkeypatch.setattr(entailment, "_KERNELS", {})
    planted = parse_rules((DATA / "planted_rules.rules").read_text(encoding="utf-8"))
    groups = candidate_list(generate_corpus(planted, 2, 0.2, seed=0).bias).groups
    store = FactStore.from_program(prog("landing_runway(a1,r1).", "cross_runway(a2,r1)."))
    for group in groups.values():
        fire(CompiledRule(group.rule), store, set())
    assert len(groups) == 67
    assert len(entailment._KERNELS) == 22

    monkeypatch.setattr(entailment, "_KERNELS", {})
    first = CompiledRule(parse_clause("collision(X,Y):- landing_runway(X,R),cross_runway(Y,R)."))
    second = CompiledRule(parse_clause("near(A,B):- taxiing(A,T),parked(B,T)."))
    fire(first, store, set())
    assert len(entailment._KERNELS) == 1
    fire(second, store, set())
    assert len(entailment._KERNELS) == 1
    assert second.plan(None).kernel is first.plan(None).kernel


def test_constants_that_read_as_source_text_match_oracle():
    """Constants and predicates reach a kernel as arguments, never as text."""
    b = prog(
        "p(a,0).", "p(b,class).", "p(c,0).", "q(a,none).", "q(c,none).", "q(b,k0).",
        "r(0,class).", "r(none,0).", "s(class,c).",
    )
    h = rules(
        "h(X,class):- p(X,0),q(X,none).",
        "g(X,Y):- p(X,Y),r(0,Y).",
        "k(none,X):- q(X,none),s(class,X).",
        "m(X):- r(X,0),q(a,X).",
    )
    model = consequences(b, h)
    assert model.atoms() == naive_consequences(b, h)
    assert model.has_atom(atom("h", "a", "class")) and model.has_atom(atom("k", "none", "c"))
    for rule in (compile_clause(c) for c in h.rules()):
        kernel = rule.plan(None).kernel
        for f in (v for v in kernel.__globals__.values() if callable(v)):
            assert not any(isinstance(x, str) for x in f.__code__.co_consts)


# --- coverage and support ------------------------------------------------------------

def test_coverage_single_run():
    b = prog("cross_runway(a1,r1).", "landing_runway(a2,r1).")
    h = rules("collision(V0,V1):- cross_runway(V0,V2),landing_runway(V1,V2).")
    exs = parse_examples("pos(collision(a1,a2)).\nneg(collision(a2,a1)).")
    cov = coverage(b, h, exs)
    assert cov.covered_pos == {atom("collision", "a1", "a2")}
    assert cov.covered_neg == frozenset()


def test_coverage_empty_hypothesis_covers_only_background_atoms():
    b = prog("collision(a1,a2).", "cross_runway(a3,r1).")
    exs = parse_examples("pos(collision(a1,a2)).\nneg(collision(a3,a1)).")
    cov = coverage(b, Program.of([]), exs)
    assert cov.covered_pos == {atom("collision", "a1", "a2")}
    assert cov.covered_neg == frozenset()


def test_rule_support_counts_positives_covered_alone():
    b = prog(
        "cross_runway(a1,r1).", "landing_runway(a2,r1).",
        "cross_runway(a3,r2).", "landing_runway(a4,r2).",
        "holding_on_runway(a5,r3).", "landing_runway(a6,r3).",
    )
    r_cross = parse_clause("collision(V0,V1):- cross_runway(V0,V2),landing_runway(V1,V2).")
    r_hold = parse_clause("collision(V0,V1):- holding_on_runway(V0,V2),landing_runway(V1,V2).")
    pos = [
        atom("collision", "a1", "a2"),
        atom("collision", "a3", "a4"),
        atom("collision", "a5", "a6"),
    ]
    assert rule_support(r_cross, b, pos) == 2
    assert rule_support(r_hold, b, pos) == 1
