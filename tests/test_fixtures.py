"""The shipped data fixtures must stay mutually consistent."""

from pathlib import Path

from hornpipe.evalharness import Scenario, evaluate
from hornpipe.ingestion import (
    NOMINAL,
    VIOLATION,
    FixtureExtractor,
    SourceRecord,
    bundle_sources,
)
from hornpipe.parsing import parse_bias, parse_rules
from hornpipe.pipeline import validate_bundle
from hornpipe.storage import load_scenario_dirs, read_rules

DATA = Path(__file__).resolve().parent.parent / "data"


def _scenarios() -> list[Scenario]:
    return [
        Scenario(sid, background, examples, tags)
        for sid, background, examples, tags in load_scenario_dirs(DATA / "scenarios")
    ]


def test_vocabulary_and_rules_parse_together():
    bias = parse_bias((DATA / "vocabulary.bias").read_text(encoding="utf-8"))
    rules = read_rules(DATA / "hand_rules.rules")
    assert len(bias.head_decls) == 1
    assert len(bias.body_decls) == 10
    vocab = bias.vocabulary
    for clause in rules.rules():
        assert clause.head.predicate in bias.head_predicates
        for lit in clause.body:
            assert vocab[lit.predicate] == lit.arity


def test_scenarios_are_vocabulary_conformant():
    bias = parse_bias((DATA / "vocabulary.bias").read_text(encoding="utf-8"))
    heads, vocab = bias.head_predicates, bias.vocabulary
    scenarios = _scenarios()
    assert len(scenarios) == 20
    for s in scenarios:
        for atom in s.background.facts():
            assert vocab[atom.predicate] == atom.arity, (s.id, str(atom))
        for atom in (*s.examples.positives, *s.examples.negatives):
            assert atom.predicate in heads and vocab[atom.predicate] == atom.arity, (s.id, str(atom))
        assert s.tags


def test_hand_rules_are_perfect_on_fixture_scenarios():
    rules = read_rules(DATA / "hand_rules.rules")
    report = evaluate(rules, _scenarios())
    m = report.metrics
    wrong = [
        (v.scenario_id, v.kind, v.atom)
        for s in report.scenarios
        for v in s.verdicts
        if v.kind in ("fp", "fn")
    ]
    assert not wrong, wrong
    assert m.accuracy == 1.0
    assert report.correct_count == len(report.scenarios)


def test_empty_rules_have_zero_recall_on_fixtures():
    report = evaluate(parse_rules(""), _scenarios())
    assert report.metrics.recall == 0.0
    assert report.metrics.fp == 0


def test_extraction_fixture_recovers_on_third_attempt():
    bias = parse_bias((DATA / "vocabulary.bias").read_text(encoding="utf-8"))
    extractor = FixtureExtractor(DATA / "fixtures" / "extractions")
    nominal = SourceRecord(id="n-calm", kind=NOMINAL, timestamp="2024-02-02")
    retry = SourceRecord(id="v-retry", kind=VIOLATION, timestamp="2024-02-01")
    hopeless = SourceRecord(id="v-hopeless", kind=VIOLATION, timestamp="2024-02-03")
    sources = bundle_sources(extractor, [retry, hopeless], [nominal], seed=0)

    out = validate_bundle(sources[0], bias, attempts=3)
    assert out.accepted
    assert out.attempts_used == 3
    assert any("attempt 1" in r for r in out.reasons)
    assert any("attempt 2" in r and "skid_mark" in r for r in out.reasons)

    out = validate_bundle(sources[1], bias, attempts=3)
    assert not out.accepted
    assert out.attempts_used == 3


def test_retry_bundle_rejected_when_attempts_too_low():
    bias = parse_bias((DATA / "vocabulary.bias").read_text(encoding="utf-8"))
    extractor = FixtureExtractor(DATA / "fixtures" / "extractions")
    nominal = SourceRecord(id="n-calm", kind=NOMINAL, timestamp="2024-02-02")
    retry = SourceRecord(id="v-retry", kind=VIOLATION, timestamp="2024-02-01")
    sources = bundle_sources(extractor, [retry], [nominal], seed=0)
    out = validate_bundle(sources[0], bias, attempts=2)
    assert not out.accepted
