"""Aggregation steps that cost in proportion to the joining subset.

The solver's self-check carries its least model forward in a trial's
``Session`` while the hypothesis holds and the background only grows, the
session checks a joining subset's examples against its committed labels,
and it scores each attempt from what the attempt adds to its committed
state.  All three are checked here against from-scratch references: the
naive model oracle, ``consequences``, ``ExampleSet.of`` and a solve in a
fresh session.  Counts of the work done bound what a step costs.
"""

from __future__ import annotations

import collections
import itertools
import random
from pathlib import Path

import pytest

from hornpipe import entailment, learner
from hornpipe.cover import Session
from hornpipe.entailment import consequences
from hornpipe.logic import Atom, ExampleSet, Program, atom, const
from hornpipe.parsing import parse_bias, parse_clause, parse_facts, parse_rules
from hornpipe.pipeline import PipelineConfig, aggregate, run_checks
from hornpipe.synthgen import generate_corpus

from oracles import naive_consequences, random_instance

DATA = Path(__file__).resolve().parent.parent / "data"


# --- the carried model ---------------------------------------------------------


def _ground_atoms(*programs: Program) -> set[Atom]:
    """Every ground atom over the programs' predicates and constants."""
    shapes, consts = set(), set()
    for p in programs:
        for c in p:
            for a in (c.head, *c.body):
                shapes.add((a.predicate, a.arity))
                consts.update(t.name for t in a.args if t.is_const())
    return {
        Atom(pred, tuple(const(c) for c in args))
        for pred, arity in shapes
        for args in itertools.product(sorted(consts), repeat=arity)
    }


def _chain(seed: int, steps: int = 10) -> int:
    """Check a random growing chain against fresh models; returns how many
    checks carried the model forward.

    Between checks the background grows, or the hypothesis changes, or the
    chain restarts; new examples are drawn on both sides of the current
    model, and the examples are now and then reordered so that they no
    longer extend the ones checked before.
    """
    rng = random.Random(seed)
    session = Session()
    background, hypothesis = random_instance(rng)
    examples = ExampleSet()
    carried = 0
    for _ in range(steps):
        model = naive_consequences(background, hypothesis)
        fresh = sorted(
            _ground_atoms(background, hypothesis) - {*examples.positives, *examples.negatives}, key=str
        )
        new = rng.sample(fresh, min(len(fresh), rng.randint(0, 3)))
        examples = ExampleSet.of(
            (*examples.positives, *(a for a in new if a in model)),
            (*examples.negatives, *(a for a in new if a not in model)),
        )
        if rng.random() < 0.1:
            examples = ExampleSet.of(examples.positives[::-1], examples.negatives[::-1])

        kept = session._verified
        missed, bad = session.check(background, hypothesis, examples)
        case = f"\nB={background}\nH={hypothesis}\nE={examples}"
        assert sorted(missed, key=str) == sorted((a for a in examples.positives if a not in model), key=str), case
        assert sorted(bad, key=str) == sorted((a for a in examples.negatives if a in model), key=str), case
        now = session._verified
        if now is None:
            assert missed or bad
            examples = ExampleSet()  # start the labels over
        else:
            carried += kept is not None and now.model is kept.model
            assert now.model.atoms() == model == consequences(background, hypothesis).atoms(), case

        r = rng.random()
        if r < 0.1:
            background, hypothesis = random_instance(rng)
            examples = ExampleSet()
        elif r < 0.25:
            _, hypothesis = random_instance(rng)
        else:
            extra, _ = random_instance(rng)
            background = background.union(extra)
    return carried


def test_carried_model_equals_fresh_along_random_chains():
    """Every model the self-check keeps equals the oracle's and a fresh
    ``consequences``, and its verdicts equal a from-scratch check, along
    chains with hypothesis changes, restarts and reordered examples."""
    carried = sum(_chain(seed) for seed in range(150))
    assert carried > 300


def test_old_negative_entering_the_model_is_caught():
    """An earlier negative that a grown background adds as a fact, or lets
    the rules derive, is reported even though only new examples are tested
    against the model."""
    background = parse_facts("p(a,b).\n")
    hypothesis = Program.of([parse_clause("h(X,Y):- p(X,Y).")])
    examples = ExampleSet.of([atom("h", "a", "b")], [atom("h", "b", "a")])
    for extra in ("h(b,a).\n", "p(b,a).\n"):
        session = Session()
        assert session.check(background, hypothesis, examples) == ([], [])
        model = session._verified.model
        grown = background.union(parse_facts(extra))
        assert session.check(grown, hypothesis, examples) == ([], [atom("h", "b", "a")])
        assert ("h", ("b", "a")) in model  # the kept model was carried, not rebuilt
        assert session._verified is None


def test_carried_model_runs_every_semi_naive_round():
    """A fact that joins a long recursive chain derives facts many rounds
    away from it."""
    background = parse_facts("".join(f"edge(c{i},c{i + 1}).\n" for i in range(8) if i != 3))
    hypothesis = Program.of(
        [parse_clause("path(X,Y):- edge(X,Y)."), parse_clause("path(X,Z):- path(X,Y),edge(Y,Z).")]
    )
    examples = ExampleSet.of([atom("path", "c0", "c3")], [atom("path", "c8", "c0")])
    session = Session()
    assert session.check(background, hypothesis, examples) == ([], [])
    grown = background.union(parse_facts("edge(c3,c4).\n"))
    longer = ExampleSet.of([*examples.positives, atom("path", "c0", "c8")], examples.negatives)
    assert session.check(grown, hypothesis, longer) == ([], [])
    assert session._verified.model.atoms() == naive_consequences(grown, hypothesis)


def test_fresh_cache_self_check_compiles_each_rule_once(monkeypatch):
    """A solve with a fresh session, as every subset check has, compiles
    each hypothesis rule once for its self-check's model and the rules it
    keeps."""
    bias = parse_bias("head_pred(goal,2).\nbody_pred(p,2).\nbody_pred(q,2).\nmax_vars(2).\nmax_body(1).\n")
    background = parse_facts("p(a,b).\nq(c,d).\n")
    examples = ExampleSet.of([atom("goal", "a", "b"), atom("goal", "c", "d")], [atom("goal", "b", "a")])
    compiled = []
    compile_clause = entailment.compile_clause

    def counting_compile(c):
        compiled.append(c)
        return compile_clause(c)

    monkeypatch.setattr(entailment, "compile_clause", counting_compile)
    result = learner.solve(background, examples, bias)
    assert result.outcome == "hypothesis"
    rules = result.hypothesis.rules()
    assert len(rules) == 2
    assert sorted(compiled, key=str) == rules


# --- the committed labels ------------------------------------------------------


def _committed(examples: ExampleSet) -> Session:
    session = Session()
    session.commit(examples)
    return session


def test_session_joins_exactly_as_example_set_of():
    """On random chains with clashes and duplicates, a join accepts and
    rejects what ``ExampleSet.of`` accepts and rejects over the whole union,
    with the same example order, and a commit leaves the session labelling
    exactly the committed examples."""
    rng = random.Random(1993)
    universe = [atom("h", x, y) for x in "abc" for y in "abc"]
    clashes = duplicates = commits = 0
    for _ in range(300):
        labels = Session()
        for _ in range(8):
            pos = [rng.choice(universe) for _ in range(rng.randint(0, 3))]
            neg = [rng.choice(universe) for _ in range(rng.randint(0, 3))]
            state = labels.examples
            try:
                want = ExampleSet.of((*state.positives, *pos), (*state.negatives, *neg))
            except ValueError:
                want = None
            got = labels.join(pos, neg)
            assert labels.examples is state  # a join leaves the session as it was
            if want is None:
                assert got is None
                clashes += 1
                continue
            assert got is not None
            assert (got.positives, got.negatives) == (want.positives, want.negatives)
            duplicates += len(got) < len(state) + len(pos) + len(neg)
            if rng.random() < 0.7:
                labels.commit(got)
                commits += 1
                assert labels.examples is got
                assert labels.labels == _committed(want).labels
    assert clashes > 300 and duplicates > 300 and commits > 300


def test_commit_refuses_examples_that_do_not_extend_the_committed_ones():
    """Committed labels are never rewritten: a commit whose examples drop,
    reorder or relabel a committed atom raises and changes nothing."""
    session = Session()
    session.commit(session.join([atom("h", "c", "d")], [atom("h", "b", "a")]))
    labels = dict(session.labels)
    committed = session.examples
    for bad in (
        # relabels h(b,a) and drops it from the negatives
        ExampleSet.of([atom("h", "c", "d"), atom("h", "b", "a")], [atom("h", "x", "y")]),
        ExampleSet.of([atom("h", "x", "y"), atom("h", "c", "d")], [atom("h", "b", "a")]),
        ExampleSet(),
        # keeps the order but labels a committed negative positive too
        committed.extended((atom("h", "b", "a"),), ()),
    ):
        with pytest.raises(RuntimeError, match="do not extend the committed examples"):
            session.commit(bad)
        assert session.labels == labels and session.examples is committed


# --- work per aggregation step -------------------------------------------------

PER_STEP = 2  # fact insertions allowed per fact or example the joining subset brings


def test_self_check_inserts_in_proportion_to_the_joining_subset(monkeypatch):
    """Along a chronological trial, a step whose hypothesis equals the last
    one inserts into the self-check's model a bounded multiple of what the
    joining subset brings, however large the state has grown."""
    planted = parse_rules((DATA / "planted_rules.rules").read_text(encoding="utf-8"))
    corpus = generate_corpus(planted, 60, 0.2, seed=0)
    config = PipelineConfig(max_retries=1)
    sources = [s.bundle_source() for s in corpus.subsets]
    _, reliable, _ = run_checks(sources, corpus.bias, config)

    count = {"inside": False, "adds": 0}
    add, verify = entailment.FactStore.add, learner.verify

    def counting_add(self, fact):
        count["adds"] += count["inside"]
        return add(self, fact)

    def counting_verify(*args):
        count["inside"] = True
        try:
            return verify(*args)
        finally:
            count["inside"] = False

    by_id = {s.id: s for s in reliable}
    steps = []  # (inserts, joining facts plus examples, hypothesis unchanged, state facts)
    last = [None]

    def on_accept(trial, state):
        joined = by_id[state.accepted_ids[-1]]
        size = len(joined.background) + len(joined.examples)
        steps.append((count["adds"], size, state.hypothesis == last[0], len(state.background)))
        last[0] = state.hypothesis
        count["adds"] = 0

    monkeypatch.setattr(entailment.FactStore, "add", counting_add)
    monkeypatch.setattr(learner, "verify", counting_verify)
    aggregate(reliable, corpus.bias, config, on_accept)

    held = [(adds, size, facts) for adds, size, same, facts in steps if same]
    assert len(held) >= 40
    assert held[-1][2] > 20 * held[-1][1]  # the state dwarfs the subset
    for i, (adds, size, facts) in enumerate(held):
        assert adds <= PER_STEP * size, f"step {i}: {adds} inserts for a subset of {size} over {facts} facts"


# --- attempts over a session ---------------------------------------------------

CHAIN_BIASES = (
    parse_bias("head_pred(h,2).\nbody_pred(p,2).\nbody_pred(q,2).\nbody_pred(r,1).\nmax_vars(3).\nmax_body(2).\n"),
    parse_bias("head_pred(h,2).\nbody_pred(p,2).\nbody_pred(r,1).\nmax_vars(3).\nmax_body(2).\nmax_clauses(2).\n"),
)


def _random_facts(rng: random.Random, consts: list[str]) -> Program:
    """A few facts over ``consts``, now and then one of the head predicate,
    which can make an example a fact."""
    facts = []
    for _ in range(rng.randint(1, 4)):
        pred, arity = rng.choice((("p", 2), ("q", 2), ("r", 1), ("p", 2), ("q", 2), ("h", 2)))
        facts.append(Atom(pred, tuple(const(rng.choice(consts)) for _ in range(arity))))
    return Program.of(facts)


def _attempt_chain(seed: int, counts: dict) -> None:
    """Random joins, whole and peeled, over one session; each is committed
    or discarded, and now and then the chain restarts or switches to the
    other candidate list.  Every attempt's verdict, hypothesis and
    ``candidates_negative_safe`` must equal a fresh solve's."""
    rng = random.Random(seed)
    consts = [f"c{i}" for i in range(rng.randint(3, 6))]
    bias = rng.choice(CHAIN_BIASES)
    session, state = Session(), Program()
    for _ in range(rng.randint(4, 10)):
        r = rng.random()
        if r < 0.08:
            session, state = Session(session.cache), Program()
            counts["restarts"] += 1
        elif r < 0.16:
            bias = CHAIN_BIASES[bias is CHAIN_BIASES[0]]
            counts["switches"] += 1
        subset = _random_facts(rng, consts)
        background = state.union(subset)
        if rng.random() < 0.2:
            background = Program(background.clauses)  # not told what it adds
        pos = [atom("h", rng.choice(consts), rng.choice(consts)) for _ in range(rng.randint(1, 3))]
        neg = [atom("h", rng.choice(consts), rng.choice(consts)) for _ in range(rng.randint(0, 3))]
        examples = None
        while True:
            joined = session.join(pos, neg)
            if joined is not None:
                examples = joined
                got = learner.solve(background, joined, bias, session)
                want = learner.solve(background, joined, bias)
                case = f"seed {seed}\nB={background}\nE={joined}"
                assert got.outcome == want.outcome, case
                assert str(got.hypothesis) == str(want.hypothesis), case
                assert got.stats.candidates_negative_safe == want.stats.candidates_negative_safe, case
                counts["attempts"] += 1
                counts["no_hypothesis"] += got.outcome == "no_hypothesis"
            if (not neg and len(pos) < 2) or rng.random() < 0.5:
                break
            (neg or pos).pop()  # peel, negatives first
            counts["peels"] += 1
        if examples is not None and rng.random() < 0.7:
            session.commit(examples)
            state = background
            counts["commits"] += 1
        else:
            counts["discards"] += 1


def test_session_attempts_equal_fresh_solves_along_random_chains():
    """Scoring carried in a session equals scoring from scratch along
    chains of joins, peels, discards, restarts and candidate-list changes,
    over a few shared constants, so new facts reach committed examples and
    can make a committed negative a fact."""
    counts = collections.Counter()
    for seed in range(250):
        _attempt_chain(seed, counts)
    assert counts["attempts"] > 1500 and counts["no_hypothesis"] > 100, counts
    for what in ("peels", "commits", "discards", "restarts", "switches"):
        assert counts[what] > 50, counts


PER_ATTEMPT = 6  # scoring work allowed per fact, example and slotted group an attempt adds


def test_scoring_work_per_attempt_tracks_what_it_adds(monkeypatch):
    """Along a chronological trial, each solve's scoring work (atoms
    numbered, projection entries written, solutions probed) stays within a
    fixed multiple of the facts and examples it adds plus the number of
    slotted groups, however large the committed state has grown.  The
    named exceptions are rebuilds from the empty state: a trial's first
    solve and a candidate-list change, which this trial never makes."""
    planted = parse_rules((DATA / "planted_rules.rules").read_text(encoding="utf-8"))
    corpus = generate_corpus(planted, 60, 0.2, seed=0)
    config = PipelineConfig(max_retries=1)
    sources = [s.bundle_source() for s in corpus.subsets]
    _, reliable, _ = run_checks(sources, corpus.bias, config)
    groups = len(learner.candidate_list(corpus.bias).slotted)

    attempts = []  # (work, facts and examples added, examples, first)
    solve = learner.solve

    def counting_solve(background, examples, bias, session=None):
        committed, before = session.examples, session.work
        result = solve(background, examples, bias, session)
        added = len(background.added) + len(examples) - len(committed)
        attempts.append((session.work - before, added, len(examples), not committed.positives))
        return result

    monkeypatch.setattr(learner, "solve", counting_solve)
    aggregate(reliable, corpus.bias, config)

    carried = [(work, added, size) for work, added, size, first in attempts if not first]
    assert len(carried) >= 40
    assert carried[-1][2] > 10 * carried[-1][1]  # the state dwarfs what the attempt adds
    for i, (work, added, size) in enumerate(carried):
        bound = PER_ATTEMPT * (added + groups)
        assert work <= bound, f"attempt {i}: work {work} over {bound}, adding {added} to {size} examples"
