import dataclasses
import itertools
import pickle
import random
from pathlib import Path

import pytest

from hornpipe import cover, learner, pipeline
from hornpipe.cover import CoverCache, Session
from hornpipe.entailment import coverage
from hornpipe.ingestion import BundleSource, RawBundle
from hornpipe.logic import Program
from hornpipe.parsing import parse_bias, parse_examples, parse_facts, parse_rules
from hornpipe.pipeline import (
    PipelineConfig,
    SubsetInstance,
    _run_trial,
    aggregate,
    check_subsets,
    prune_by_support,
    retain_partial,
    run_pipeline,
    validate_bundle,
)
from hornpipe.synthgen import generate_corpus, sample_rules

DATA = Path(__file__).resolve().parent.parent / "data"

TEST_BIAS = parse_bias(
    "head_pred(goal,2).\n"
    "body_pred(p,2).\n"
    "body_pred(q,2).\n"
    "max_vars(3).\n"
    "max_body(2).\n"
    "max_clauses(4).\n"
)

TYPED_BIAS = parse_bias(
    "head_pred(goal,2).\n"
    "body_pred(p,2).\n"
    "body_pred(r,1).\n"
    "type(goal,(agent,agent)).\n"
    "type(p,(agent,agent)).\n"
    "type(r,(runway)).\n"
    "max_vars(3).\n"
    "max_body(2).\n"
)


def _bundle(
    vfacts="p(a,b).\n",
    vex="pos(goal(a,b)).\n",
    nfacts="",
    nex="neg(goal(b,a)).\n",
    bid="b-1",
):
    return RawBundle(
        id=bid,
        timestamp="2024-01-01",
        violation_id=f"{bid}-v",
        nominal_id=f"{bid}-n",
        violation_facts=vfacts,
        violation_examples=vex,
        nominal_facts=nfacts,
        nominal_examples=nex,
    )


def _source(by_attempt: dict[int, RawBundle]) -> BundleSource:
    last = max(by_attempt)

    def fetch(attempt: int) -> RawBundle:
        return by_attempt.get(attempt, by_attempt[last])

    return BundleSource(id="b-1", timestamp="2024-01-01", fetch=fetch)


def _subset(sid: str, stamp: str, facts: str, exs: str) -> SubsetInstance:
    parsed = parse_examples(exs)
    return SubsetInstance(
        id=sid, timestamp=stamp, background=parse_facts(facts), examples=parsed
    )


# ---------------------------------------------------------------- validation


def test_valid_bundle_accepted_first_attempt():
    out = validate_bundle(_source({1: _bundle()}), TEST_BIAS, attempts=3)
    assert out.accepted
    assert out.attempts_used == 1
    assert out.reasons == ()
    assert out.subset is not None
    assert len(out.subset.background.facts()) == 1


def test_refetch_until_valid_attempt():
    bad = _bundle(vex="")  # no positive example
    out = validate_bundle(_source({1: bad, 2: bad, 3: _bundle()}), TEST_BIAS, attempts=3)
    assert out.accepted
    assert out.attempts_used == 3
    assert any(r.startswith("attempt 1:") for r in out.reasons)
    assert any(r.startswith("attempt 2:") for r in out.reasons)


def test_rejection_after_all_attempts():
    bad = _bundle(vex="")
    out = validate_bundle(_source({1: bad}), TEST_BIAS, attempts=3)
    assert not out.accepted
    assert out.attempts_used == 3
    assert out.subset is None
    assert len(out.reasons) == 3
    assert all("no positive example" in r for r in out.reasons)


def test_parse_failure_is_a_rejection_not_an_error():
    out = validate_bundle(
        _source({1: _bundle(vfacts="p(a,b\n")}), TEST_BIAS, attempts=1
    )
    assert not out.accepted
    assert any("violation facts" in r for r in out.reasons)


def test_fetch_errors_propagate():
    def fetch(attempt: int) -> RawBundle:
        raise OSError("extractor unavailable")

    src = BundleSource(id="b-9", timestamp="2024-01-01", fetch=fetch)
    with pytest.raises(OSError):
        validate_bundle(src, TEST_BIAS, attempts=2)


def test_unchanged_refetch_is_not_parsed_again(monkeypatch):
    parsed = []

    def counting_parse_facts(text):
        parsed.append(text)
        return parse_facts(text)

    monkeypatch.setattr(pipeline, "parse_facts", counting_parse_facts)
    fetched = []
    bad = _bundle(vex="")  # no positive example
    retry = _bundle(vex="", vfacts="p(a,b).\nq(b,c).\n")

    def fetch(attempt: int) -> RawBundle:
        fetched.append(attempt)
        return {1: bad, 2: bad, 3: retry}.get(attempt, retry)

    src = BundleSource(id="b-1", timestamp="2024-01-01", fetch=fetch)
    out = validate_bundle(src, TEST_BIAS, attempts=4)
    assert fetched == [1, 2, 3, 4]
    assert len(parsed) == 4  # two facts texts per distinct bundle: attempts 1 and 3
    assert out.reasons == tuple(f"attempt {n}: no positive example" for n in (1, 2, 3, 4))

    # a fetch that fails after an unchanged one still propagates
    def flaky(attempt: int) -> RawBundle:
        if attempt == 3:
            raise OSError("extractor unavailable")
        return bad

    with pytest.raises(OSError):
        validate_bundle(BundleSource(id="b-1", timestamp="2024-01-01", fetch=flaky), TEST_BIAS, attempts=3)


def test_role_separation_is_enforced():
    out = validate_bundle(
        _source({1: _bundle(vex="pos(goal(a,b)).\nneg(goal(b,a)).\n")}),
        TEST_BIAS,
        attempts=1,
    )
    assert not out.accepted
    assert any("negative example in violation-derived" in r for r in out.reasons)

    out = validate_bundle(
        _source({1: _bundle(nex="pos(goal(b,a)).\n")}), TEST_BIAS, attempts=1
    )
    assert not out.accepted
    assert any("positive example in nominal-derived" in r for r in out.reasons)


def test_unknown_predicate_rejected():
    out = validate_bundle(
        _source({1: _bundle(vfacts="p(a,b).\nmystery(a).\n")}), TEST_BIAS, attempts=1
    )
    assert not out.accepted
    assert any("unknown predicate mystery/1" in r for r in out.reasons)


def test_example_must_use_head_predicate():
    out = validate_bundle(
        _source({1: _bundle(vex="pos(p(a,b)).\n")}), TEST_BIAS, attempts=1
    )
    assert not out.accepted
    assert any("not a declared head predicate" in r for r in out.reasons)


def test_type_conflict_rejected():
    # a plays an agent slot in p and the runway slot in r
    out = validate_bundle(
        _source({1: _bundle(vfacts="p(a,b).\nr(a).\n")}), TYPED_BIAS, attempts=1
    )
    assert not out.accepted
    assert any("type conflict: constant a" in r for r in out.reasons)


def test_flagged_reasons_keep_the_clause_text_order():
    """Unknown predicates and type conflicts are reported in the order of
    each facts part's clause texts, violation part first, whatever order the
    facts were read in: ``c`` is first seen as an agent in ``p(b,c)``, which
    sorts before ``r(c)``."""
    bundle = _bundle(vfacts="zeta(a).\nr(c).\np(b,c).\nalpha(b).\n", nfacts="r(b).\n")
    out = validate_bundle(_source({1: bundle}), TYPED_BIAS, attempts=1)
    assert out.reasons == (
        "attempt 1: unknown predicate alpha/1",
        "attempt 1: unknown predicate zeta/1",
        "attempt 1: type conflict: constant c used as agent and runway",
        "attempt 1: type conflict: constant b used as agent and runway",
    )


def test_contradictory_labels_rejected():
    out = validate_bundle(
        _source({1: _bundle(nex="neg(goal(a,b)).\n")}), TEST_BIAS, attempts=1
    )
    assert not out.accepted
    assert any("both positive and negative" in r for r in out.reasons)


# ------------------------------------------------------------- subset checks


def test_check_subsets_splits_reliable_from_unreliable():
    good = _subset("s-good", "2024-01-01", "p(a,b).\n", "pos(goal(a,b)).\nneg(goal(b,a)).\n")
    orphan = _subset("s-orphan", "2024-01-02", "q(z,z).\n", "pos(goal(a,b)).\n")
    config = PipelineConfig()
    reliable, checks = check_subsets([good, orphan], TEST_BIAS, config)
    assert [s.id for s in reliable] == ["s-good"]
    assert [c.reliable for c in checks] == [True, False]
    assert checks[0].outcome == "hypothesis"
    assert checks[0].clause_count == 1
    assert checks[1].outcome == "no_hypothesis"


def test_check_subsets_parallel_matches_serial():
    """Serial checks through one shared cache, serial checks with a fresh
    cache per solve and pooled checks agree; the last subset extends the
    one before it."""
    subsets = [
        _subset(f"s-{i}", f"2024-01-0{i+1}", f"p(a{i},b{i}).\n", f"pos(goal(a{i},b{i})).\n")
        for i in range(4)
    ]
    subsets.append(
        _subset("s-4", "2024-01-05", "p(a3,b3).\nq(b3,a3).\n", "pos(goal(b3,a3)).\nneg(goal(a3,b3)).\n")
    )
    serial = check_subsets(subsets, TEST_BIAS, PipelineConfig(jobs=1))
    shared = check_subsets(subsets, TEST_BIAS, PipelineConfig(jobs=1), CoverCache())
    parallel = check_subsets(subsets, TEST_BIAS, PipelineConfig(jobs=2))
    assert serial == shared == parallel
    assert [c.reliable for c in serial[1]] == [True] * 5


class _Unpicklable(Program):
    def __reduce_ex__(self, protocol):
        raise TypeError("a subset's background was pickled")


def _numbered_subsets(n: int) -> list[SubsetInstance]:
    """``n`` subsets, each reliable but the last."""
    subsets = [
        _subset(f"s-{i}", f"2024-01-{i + 1:02d}", f"p(a{i},b{i}).\n", f"pos(goal(a{i},b{i})).\n")
        for i in range(n - 1)
    ]
    return subsets + [_subset("s-orphan", "2024-02-01", "q(z,z).\n", "pos(goal(a0,b0)).\n")]


def test_checks_with_jobs_never_pickle_a_subset():
    """``jobs`` starts no pool, so a background that cannot be pickled is
    checked in-process all the same."""
    subsets = [dataclasses.replace(s, background=_Unpicklable(s.background.clauses)) for s in _numbered_subsets(5)]
    with pytest.raises(TypeError):
        pickle.dumps(subsets[0])
    serial = check_subsets(subsets, TEST_BIAS, PipelineConfig(jobs=1))
    assert check_subsets(subsets, TEST_BIAS, PipelineConfig(jobs=2)) == serial
    assert [c.reliable for c in serial[1]] == [True] * 4 + [False]


def test_aggregation_reuses_the_subset_checks_tables(monkeypatch):
    """With one cache through stages 2 and 3, as ``run_pipeline`` passes it,
    aggregating constant-disjoint subsets fires no group: each step adds
    exactly the facts its subset's check tabled.  The outcome equals the
    one from a fresh cache."""
    batch = _poisoned_batch()
    config = PipelineConfig(seed=0)
    fresh = aggregate(batch, TEST_BIAS, config)
    fired = []
    real_fire = cover.fire

    def counting_fire(rule, store, out):
        fired.append(rule)
        return real_fire(rule, store, out)

    monkeypatch.setattr(cover, "fire", counting_fire)
    cache = CoverCache()
    reliable, _ = check_subsets(batch, TEST_BIAS, config, cache)
    assert reliable == batch
    checked = len(fired)
    assert checked
    shared = aggregate(reliable, TEST_BIAS, config, cache=cache)
    assert len(fired) == checked
    assert shared == fresh
    # the batch exercises cut-backs and more than one trial
    assert len(shared.trials) > 1
    assert any(d.action == "retained_partial" for d in shared.best.trial_log)


# --------------------------------------------------------------- aggregation


def _poisoned_batch() -> list[SubsetInstance]:
    """One early subset whose stray negative blocks every later positive."""
    bad = _subset(
        "bad",
        "2024-01-01",
        "p(x0,y0).\nq(y0,x0).\n",
        "pos(goal(y0,x0)).\nneg(goal(x0,y0)).\n",
    )
    goods = [
        _subset(
            f"good-{i}",
            f"2024-01-0{i + 2}",
            f"p(a{i},b{i}).\n",
            f"pos(goal(a{i},b{i})).\nneg(goal(b{i},a{i})).\n",
        )
        for i in range(4)
    ]
    return [bad, *goods]


def test_chronological_pass_can_fail_badly():
    batch = _poisoned_batch()
    config = PipelineConfig(seed=0, max_retries=5, retry_fail_threshold=0.30)
    outcome = aggregate(batch, TEST_BIAS, config)

    first = outcome.trials[0]
    assert first.order[0] == "bad"
    assert first.accepted_count == 1
    assert first.fail_frac == pytest.approx(0.8)
    assert first.success  # a hypothesis exists, it is just tiny

    assert outcome.best_trial > 1
    best = outcome.best
    assert len(best.accepted_ids) == 5
    assert outcome.early_stopped
    assert outcome.trials[-1].fail_frac <= 0.30
    for rec in outcome.trials[:-1]:
        assert rec.fail_frac > 0.30

    flips = [d for d in best.trial_log if d.subset_id == "bad"]
    assert flips[-1].action == "retained_partial"
    assert flips[-1].removed_negatives == ("goal(x0,y0)",)
    cov = coverage(best.background, best.hypothesis, best.examples)
    assert cov.covered_pos == best.examples.pos_set
    assert not cov.covered_neg


def test_every_ordering_confirms_the_poisoning_story():
    batch = _poisoned_batch()
    config = PipelineConfig(seed=0)
    cache = CoverCache()
    for perm in itertools.permutations(batch):
        state = _run_trial(list(perm), 1, TEST_BIAS, config, cache, None)
        expected = 1 if perm[0].id == "bad" else 5
        assert len(state.accepted_ids) == expected, [s.id for s in perm]


def test_aggregate_is_deterministic():
    batch = _poisoned_batch()
    config = PipelineConfig(seed=3, max_retries=4)
    assert aggregate(batch, TEST_BIAS, config) == aggregate(batch, TEST_BIAS, config)


def test_aggregate_empty_input():
    outcome = aggregate([], TEST_BIAS, PipelineConfig())
    assert outcome.best_trial == 0
    assert outcome.trials == ()
    assert not outcome.best.accepted_ids


def test_retain_partial_peels_contradicting_positive():
    state_a = aggregate(
        [_subset("a", "2024-01-01", "p(a,b).\n", "pos(goal(a,b)).\nneg(goal(b,a)).\n")],
        TEST_BIAS,
        PipelineConfig(),
    ).best
    # second positive contradicts the accepted negative label for goal(b,a)
    b = _subset("b", "2024-01-02", "q(c,d).\n", "pos(goal(c,d)).\npos(goal(b,a)).\n")
    union = state_a.background.union(b.background)
    session = Session()
    session.commit(state_a.examples)
    reduced = retain_partial(session, b, union, TEST_BIAS)
    assert reduced is not None
    removed_pos, removed_neg, res, background, examples = reduced
    kept_pos = examples.positives[len(state_a.examples.positives) :]
    kept_neg = examples.negatives[len(state_a.examples.negatives) :]
    assert [str(a) for a in kept_pos] == ["goal(c,d)"]
    assert [str(a) for a in removed_pos] == ["goal(b,a)"]
    assert not removed_neg and not kept_neg
    assert res.outcome == "hypothesis"
    assert examples.pos_set == {*state_a.examples.positives, *kept_pos}


def test_contradicting_single_positive_subset_is_discarded():
    a = _subset("a", "2024-01-01", "p(a,b).\n", "pos(goal(a,b)).\nneg(goal(b,a)).\n")
    b = _subset("b", "2024-01-02", "q(b,a).\n", "pos(goal(b,a)).\n")
    outcome = aggregate([a, b], TEST_BIAS, PipelineConfig(max_retries=1))
    assert outcome.best.accepted_ids == ("a",)
    drop = [d for d in outcome.best.trial_log if d.subset_id == "b"]
    assert drop[-1].action == "discarded"
    assert drop[-1].solver_outcome == "contradiction"


# ------------------------------------------------------------------- pruning


def _support_fixture(supports: list[int]):
    rules, facts, pos = [], [], []
    for i, s in enumerate(supports):
        rules.append(f"goal(V0,V1):- u{i}(V0,V1).")
        for j in range(s):
            facts.append(f"u{i}(a{i}x{j},b{i}x{j}).")
            pos.append(f"pos(goal(a{i}x{j},b{i}x{j})).")
    hypothesis = parse_rules("\n".join(rules) + "\n")
    background = parse_facts("\n".join(facts) + "\n")
    positives = parse_examples("\n".join(pos) + "\n").positives
    return hypothesis, background, positives


def test_prune_drops_weakly_supported_rules():
    h, bg, pos = _support_fixture([10, 3, 1])
    pruned, records = prune_by_support(h, bg, pos, 0.20)
    assert [r.support for r in records] == [10, 3, 1]
    assert [r.kept for r in records] == [True, True, False]
    assert len(pruned.clauses) == 2


def test_prune_keeps_everything_above_cutoff():
    h, bg, pos = _support_fixture([4, 1])
    pruned, records = prune_by_support(h, bg, pos, 0.20)
    assert [r.kept for r in records] == [True, True]
    assert len(pruned.clauses) == 2


def test_prune_single_rule_never_dropped():
    h, bg, pos = _support_fixture([2])
    pruned, records = prune_by_support(h, bg, pos, 1.0)
    assert [r.kept for r in records] == [True]
    assert len(pruned.clauses) == 1


def test_prune_empty_hypothesis():
    h, bg, pos = _support_fixture([1])
    pruned, records = prune_by_support(parse_rules(""), bg, pos, 0.2)
    assert not pruned.clauses
    assert records == ()


# ---------------------------------------------------------------- end to end


RULES = parse_rules(
    "goal(V0,V1):- link(V0,V2),feeds(V2,V1).\n"
    "goal(V0,V1):- marked(V0),feeds(V0,V1).\n"
)


def test_run_pipeline_on_clean_corpus():
    corpus = generate_corpus(RULES, n_subsets=6, corruption=0.0, seed=1)
    config = PipelineConfig(seed=1)
    report = run_pipeline(corpus.bundle_sources(), corpus.bias, config)
    assert report.emptied_at is None
    assert all(v.accepted for v in report.validation)
    assert all(c.reliable for c in report.subset_checks)
    best = report.aggregation.best
    assert len(best.accepted_ids) == 6
    assert report.final_hypothesis.clauses
    cov = coverage(best.background, report.final_hypothesis, best.examples)
    assert cov.covered_pos == best.examples.pos_set
    assert not cov.covered_neg
    # a clean first pass stops after one trial
    assert len(report.aggregation.trials) == 1

    again = run_pipeline(corpus.bundle_sources(), corpus.bias, config)
    assert report == again


def test_run_pipeline_with_no_sources():
    report = run_pipeline([], TEST_BIAS, PipelineConfig())
    assert report.emptied_at == "no_bundles"
    assert not report.final_hypothesis.clauses
    assert report.pre_prune_rule_count == 0


def test_pruned_hypothesis_covering_a_negative_raises(monkeypatch):
    """The check after pruning reads the aggregated negatives: a pruned
    hypothesis that derives one stops the run."""
    unsafe = parse_rules("goal(X,Y):- p(Y,X).\n")  # derives the negative goal(b,a)
    monkeypatch.setattr(pipeline, "prune_by_support", lambda *args: (unsafe, ()))
    with pytest.raises(RuntimeError, match="covers an aggregated negative"):
        run_pipeline([_source({1: _bundle()})], TEST_BIAS, PipelineConfig())


def test_run_pipeline_survives_corrupted_corpora():
    for seed in range(4):
        rng = random.Random(seed)
        rules = sample_rules(rng, n_rules=1)
        corpus = generate_corpus(rules, n_subsets=6, corruption=0.4, seed=seed, light=True)
        report = run_pipeline(
            corpus.bundle_sources(), corpus.bias, PipelineConfig(seed=seed, max_retries=3)
        )
        best = report.aggregation.best
        if best.hypothesis.clauses:
            cov = coverage(best.background, best.hypothesis, best.examples)
            assert cov.covered_pos == best.examples.pos_set
            assert not cov.covered_neg
        post = coverage(best.background, report.final_hypothesis, best.examples)
        assert not post.covered_neg


def test_training_correct_after_every_accepted_step():
    corpus = generate_corpus(RULES, n_subsets=5, corruption=0.2, seed=9, light=True)
    outcomes = [validate_bundle(s, corpus.bias, 2) for s in corpus.bundle_sources()]
    subsets = [o.subset for o in outcomes if o.accepted]
    config = PipelineConfig(seed=9, max_retries=3)
    reliable, _ = check_subsets(subsets, corpus.bias, config)
    steps = []

    def spy(trial: int, state) -> None:
        cov = coverage(state.background, state.hypothesis, state.examples)
        assert cov.covered_pos == state.examples.pos_set
        assert not cov.covered_neg
        steps.append((trial, len(state.accepted_ids)))

    aggregate(reliable, corpus.bias, config, on_accept=spy)
    assert steps


def test_one_verification_per_accepted_state(monkeypatch):
    """The solver's self-check is the only fixpoint check of an accepted state."""
    counts = {"verify": 0, "solved": 0, "accepted": 0}
    verify, solve = learner.verify, learner.solve

    def counting_verify(*args):
        counts["verify"] += 1
        return verify(*args)

    def counting_solve(*args):
        res = solve(*args)
        counts["solved"] += res.outcome == "hypothesis"
        return res

    def on_accept(trial, state):
        counts["accepted"] += 1

    monkeypatch.setattr(learner, "verify", counting_verify)
    monkeypatch.setattr(learner, "solve", counting_solve)
    config = PipelineConfig(seed=0, max_retries=5, retry_fail_threshold=0.30)
    aggregate(_poisoned_batch(), TEST_BIAS, config, on_accept)
    assert counts["accepted"] >= 5
    assert counts["verify"] == counts["solved"]


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        PipelineConfig(support_threshold=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(retry_fail_threshold=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(max_retries=0)
    with pytest.raises(ValueError):
        PipelineConfig(jobs=0)


def test_validation_checks_and_aggregation_build_no_ground_objects():
    """The path all evidence takes reads ground data as rows: after
    validation, the subset checks and an aggregation trial over a planted
    corpus, no subset's background has built its clauses, and neither any
    subset's examples nor any state a trial step reached have built their
    clauses or atoms.  A change that puts the objects back on this path fails here,
    not only in the benchmark."""
    planted = parse_rules((DATA / "planted_rules.rules").read_text(encoding="utf-8"))
    corpus = generate_corpus(planted, 24, 0.2, seed=5)
    outcomes = [validate_bundle(s, corpus.bias, 3) for s in corpus.bundle_sources()]
    subsets = [o.subset for o in outcomes if o.accepted]
    config = PipelineConfig(seed=5, max_retries=1)
    reliable, _ = check_subsets(subsets, corpus.bias, config, CoverCache())
    states = []
    aggregate(reliable, corpus.bias, config, lambda trial, state: states.append(state))
    assert len(reliable) >= 15 and len(states) >= 15
    for s in subsets:
        assert "clauses" not in s.background.__dict__, s.id
        assert not {"positives", "negatives"} & s.examples.__dict__.keys(), s.id
    for state in states:
        assert "clauses" not in state.background.__dict__, state.accepted_ids[-1]
        assert not {"positives", "negatives"} & state.examples.__dict__.keys(), state.accepted_ids[-1]
