import pytest

from hornpipe.entailment import coverage
from hornpipe.evalharness import Metrics, Scenario, diff_hypotheses, evaluate
from hornpipe.parsing import parse_examples, parse_facts, parse_rules
from hornpipe.pipeline import PipelineConfig, prune_by_support, run_pipeline
from hornpipe.synthgen import generate_corpus, generate_scenarios

RULES = parse_rules(
    "goal(V0,V1):- link(V0,V2),feeds(V2,V1).\n"
    "goal(V0,V1):- marked(V0),feeds(V0,V1).\n"
)


def _scenarios(n: int = 6, seed: int = 0) -> list[Scenario]:
    return [
        Scenario(sid, background, examples, tags)
        for sid, background, examples, tags in generate_scenarios(RULES, n, seed)
    ]


def test_reported_operating_point():
    m = Metrics.from_counts(tp=39, fp=0, fn=5, tn=44)
    assert m.precision == pytest.approx(1.000, abs=1e-3)
    assert m.recall == pytest.approx(0.886, abs=1e-3)
    assert m.f1 == pytest.approx(0.940, abs=1e-3)
    assert m.accuracy == pytest.approx(83 / 88)
    assert not (m.degenerate_precision or m.degenerate_recall)


def test_degenerate_denominators_flag():
    empty = Metrics.from_counts(0, 0, 0, 0)
    assert empty.precision == 1.0 and empty.degenerate_precision
    assert empty.recall == 1.0 and empty.degenerate_recall
    assert empty.accuracy == 1.0 and empty.degenerate_accuracy
    only_neg = Metrics.from_counts(0, 0, 0, 7)
    assert only_neg.degenerate_precision and only_neg.degenerate_recall
    assert only_neg.accuracy == 1.0 and not only_neg.degenerate_accuracy
    with pytest.raises(ValueError):
        Metrics.from_counts(-1, 0, 0, 0)


def test_count_partition_invariant():
    scenarios = _scenarios()
    report = evaluate(RULES, scenarios)
    n_pos = sum(len(s.examples.positives) for s in scenarios)
    n_neg = sum(len(s.examples.negatives) for s in scenarios)
    m = report.metrics
    assert m.tp + m.fn == n_pos
    assert m.fp + m.tn == n_neg


def test_planted_rules_score_perfectly():
    report = evaluate(RULES, _scenarios())
    m = report.metrics
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
    assert all(s.correct for s in report.scenarios)
    assert report.correct_count == len(report.scenarios)


def test_empty_hypothesis_predicts_nothing():
    empty = parse_rules("")
    report = evaluate(empty, _scenarios())
    m = report.metrics
    assert m.tp == 0 and m.fp == 0
    assert m.recall == 0.0
    assert m.precision == 1.0 and m.degenerate_precision
    assert all(not v.predicted for v in report.verdicts)
    # only scenarios with no positives could be correct, and ours all have one
    assert report.correct_count == 0


def test_scenario_correct_iff_no_local_mistakes():
    background = parse_facts("link(a,r).\nfeeds(r,b).\n")
    good = Scenario("s-good", background, parse_examples("pos(goal(a,b)).\nneg(goal(b,a)).\n"))
    miss = Scenario("s-miss", background, parse_examples("pos(goal(a,b)).\npos(goal(b,a)).\n"))
    report = evaluate(RULES, [good, miss])
    by_id = {s.scenario_id: s for s in report.scenarios}
    assert by_id["s-good"].correct
    assert not by_id["s-miss"].correct
    kinds = [v.kind for v in by_id["s-miss"].verdicts]
    assert kinds == ["tp", "fn"]


def test_evaluate_is_order_independent():
    scenarios = _scenarios(5, seed=3)
    forward = evaluate(RULES, scenarios)
    backward = evaluate(RULES, list(reversed(scenarios)))
    assert forward.metrics == backward.metrics
    assert forward.correct_count == backward.correct_count


def test_diff_identical_hypotheses_is_empty():
    scenarios = _scenarios(4, seed=1)
    diff = diff_hypotheses(RULES, RULES, scenarios)
    assert diff.empty
    assert diff.metric_deltas == {"accuracy": 0.0, "precision": 0.0, "recall": 0.0, "f1": 0.0}


def test_diff_localizes_a_removed_rule():
    scenarios = _scenarios(6, seed=2)
    kept = parse_rules("goal(V0,V1):- link(V0,V2),feeds(V2,V1).\n")
    diff = diff_hypotheses(RULES, kept, scenarios)
    assert not diff.empty
    # removing a rule can only retract predictions, and only on positives
    # that the removed rule alone covered
    assert all(d.first_predicted and not d.second_predicted for d in diff.disagreements)
    assert all(d.label == "pos" for d in diff.disagreements)
    removed = parse_rules("goal(V0,V1):- marked(V0),feeds(V0,V1).\n")
    for d in diff.disagreements:
        scenario = next(s for s in scenarios if s.id == d.scenario_id)
        cov = coverage(scenario.background, removed, scenario.examples)
        assert d.atom in {str(a) for a in cov.covered_pos}


def test_prune_never_adds_false_positives():
    corpus = generate_corpus(RULES, n_subsets=6, corruption=0.0, seed=4)
    report = run_pipeline(corpus.bundle_sources(), corpus.bias, PipelineConfig(seed=4))
    best = report.aggregation.best
    pruned, _ = prune_by_support(
        best.hypothesis, best.background, best.examples.positives, 0.9
    )
    scenarios = _scenarios(6, seed=4)
    diff = diff_hypotheses(best.hypothesis, pruned, scenarios)
    assert diff.metric_deltas["precision"] >= 0.0
    assert diff.second.fp <= diff.first.fp


def test_training_corpus_evaluation_reproduces_training_correctness():
    corpus = generate_corpus(RULES, n_subsets=5, corruption=0.0, seed=6)
    report = run_pipeline(corpus.bundle_sources(), corpus.bias, PipelineConfig(seed=6))
    best = report.aggregation.best
    as_scenario = Scenario("train", best.background, best.examples)
    scored = evaluate(best.hypothesis, [as_scenario])
    assert scored.metrics.fp == 0
    assert scored.metrics.fn == 0
