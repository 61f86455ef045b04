import hashlib
import json
import random
from dataclasses import astuple
from pathlib import Path

import pytest

from hornpipe.entailment import coverage
from hornpipe.logic import print_program
from hornpipe.parsing import parse_rules, print_bias, print_examples
from hornpipe.pipeline import validate_bundle
from hornpipe.synthgen import (
    GeneratedCorpus,
    _infer_types,
    generate_corpus,
    generate_scenarios,
    sample_rules,
)

PLANTED = parse_rules(
    (Path(__file__).resolve().parent.parent / "data" / "planted_rules.rules").read_text(encoding="utf-8")
)
CHAIN = parse_rules("goal(V0,V1):- link(V0,V2),feeds(V2,V1).\n")
TWO_RULES = parse_rules(
    "goal(V0,V1):- link(V0,V2),feeds(V2,V1).\n"
    "goal(V0,V1):- marked(V0),feeds(V0,V1).\n"
)


def test_type_inference_joins_positions():
    types = _infer_types(CHAIN.rules())
    # head arg 0 joins link arg 0; link arg 1 joins feeds arg 0
    assert types["goal"][0] == types["link"][0]
    assert types["link"][1] == types["feeds"][0]
    assert types["goal"][1] == types["feeds"][1]
    assert types["goal"][0] != types["goal"][1]


def test_type_inference_rejects_constants():
    bad = parse_rules("goal(V0,V1):- link(V0,c1),feeds(c1,V1).\n")
    with pytest.raises(ValueError):
        _infer_types(bad.rules())


def test_corpus_is_deterministic():
    a = generate_corpus(TWO_RULES, n_subsets=8, corruption=0.25, seed=7)
    b = generate_corpus(TWO_RULES, n_subsets=8, corruption=0.25, seed=7)
    assert a.manifest == b.manifest
    assert [s.raw_bundle() for s in a.subsets] == [s.raw_bundle() for s in b.subsets]


def test_clean_subsets_respect_planted_rules():
    corpus = generate_corpus(TWO_RULES, n_subsets=6, corruption=0.0, seed=3)
    assert corpus.manifest["corrupted"] == {}
    for sub in corpus.subsets:
        assert sub.corruption is None
        # exactly one positive per subset, several structured negatives
        assert len(sub.positives) == 1
        assert len(sub.negatives) >= 2


def test_corruption_bookkeeping():
    corpus = generate_corpus(TWO_RULES, n_subsets=10, corruption=0.3, seed=11)
    bad = [s for s in corpus.subsets if s.corruption is not None]
    assert len(bad) == 3
    assert corpus.manifest["corrupted"] == {s.id: s.corruption for s in bad}
    kinds = {"fact_deletion", "label_flip", "unknown_predicate"}
    assert all(s.corruption in kinds for s in bad)


def test_bias_covers_generated_vocabulary():
    corpus = generate_corpus(CHAIN, n_subsets=4, corruption=0.0, seed=0)
    vocab = corpus.bias.vocabulary
    for sub in corpus.subsets:
        for atom in (*sub.violation_facts, *sub.nominal_facts):
            assert vocab[atom.predicate] == atom.arity
    assert "idle" in vocab
    assert corpus.bias.max_body == 2


def test_constants_do_not_leak_between_subsets():
    corpus = generate_corpus(CHAIN, n_subsets=5, corruption=0.0, seed=0)
    seen: set[str] = set()
    for sub in corpus.subsets:
        mine = {
            t.name
            for atom in (*sub.violation_facts, *sub.nominal_facts)
            for t in atom.args
        }
        assert not (mine & seen)
        seen |= mine


def test_clean_bundles_pass_validation():
    corpus = generate_corpus(TWO_RULES, n_subsets=6, corruption=0.0, seed=5)
    for source in corpus.bundle_sources():
        outcome = validate_bundle(source, corpus.bias, attempts=1)
        assert outcome.accepted, outcome.reasons
        assert outcome.subset is not None
        assert outcome.subset.timestamp == source.timestamp


def test_unknown_predicate_corruption_is_rejected():
    rng = random.Random(0)
    seen = 0
    for seed in range(20):
        corpus = generate_corpus(CHAIN, n_subsets=4, corruption=0.5, seed=seed, light=True)
        for sub in corpus.subsets:
            if sub.corruption != "unknown_predicate":
                continue
            seen += 1
            outcome = validate_bundle(sub.bundle_source(), corpus.bias, attempts=2)
            assert not outcome.accepted
            assert any("unknown predicate" in r for r in outcome.reasons)
            assert outcome.attempts_used == 2
    assert seen >= 3
    del rng


def test_scenarios_match_planted_rules_exactly():
    scenarios = generate_scenarios(TWO_RULES, n_scenarios=6, seed=2)
    assert len(scenarios) == 6
    for name, background, examples, tags in scenarios:
        cov = coverage(background, TWO_RULES, examples)
        assert cov.covered_pos == frozenset(examples.positives)
        assert not cov.covered_neg
        assert "generated" in tags
    # scenario constants stay clear of corpus constants
    corpus = generate_corpus(TWO_RULES, n_subsets=4, corruption=0.0, seed=2)
    corpus_consts = {
        t.name
        for s in corpus.subsets
        for atom in (*s.violation_facts, *s.nominal_facts)
        for t in atom.args
    }
    scen_consts = {
        t.name
        for _, background, _, _ in scenarios
        for atom in background.facts()
        for t in atom.args
    }
    assert not (corpus_consts & scen_consts)


def test_sampled_rules_generate_valid_corpora():
    for seed in range(6):
        rng = random.Random(seed)
        rules = sample_rules(rng, n_rules=2)
        corpus = generate_corpus(rules, n_subsets=6, corruption=0.2, seed=seed, light=True)
        assert isinstance(corpus, GeneratedCorpus)
        assert len(corpus.subsets) == 6


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_corpus(CHAIN, n_subsets=0, corruption=0.0, seed=0)
    with pytest.raises(ValueError):
        generate_corpus(CHAIN, n_subsets=3, corruption=1.5, seed=0)
    unary_head = parse_rules("flag(V0):- marked(V0),feeds(V0,V1).\n")
    with pytest.raises(ValueError):
        generate_corpus(unary_head, n_subsets=3, corruption=0.0, seed=0)


# SHA-256 over everything the generator emits for a fixed set of inputs.  A
# refactor of the generator must leave it alone; a change meant to alter the
# corpora updates it and says why.
GENERATOR_DIGEST = "d846a41ba5483c52c78b7a40abe03811a93d5b09a503038523647ff484b10e92"


def _generator_digest() -> str:
    h = hashlib.sha256()

    def feed(*parts: str) -> None:
        for part in parts:
            h.update(part.encode("utf-8"))
            h.update(b"\0")

    rule_sets = [PLANTED] + [sample_rules(random.Random(s), n_rules=1 + s % 3) for s in range(60)]
    for n, rules in enumerate(rule_sets):
        for light in (False, True):
            corruptions = (0.0, 0.2, 0.5) if n == 0 else ((0.0, 0.2, 0.5)[n % 3],)
            for corruption in corruptions:
                corpus = generate_corpus(rules, 10 if n == 0 else 5, corruption, seed=n, light=light)
                feed(print_bias(corpus.bias), json.dumps(corpus.manifest, sort_keys=True))
                for sub in corpus.subsets:
                    stored = sub.stored()
                    feed(*astuple(sub.raw_bundle()), stored.id, stored.facts_text, stored.examples_text)
                    feed(json.dumps(stored.meta, sort_keys=True))
        for sid, background, examples, tags in generate_scenarios(rules, 4, n):
            feed(sid, print_program(background), print_examples(examples), *tags)
    return h.hexdigest()


def test_generator_output_digest_is_stable():
    assert _generator_digest() == GENERATOR_DIGEST
