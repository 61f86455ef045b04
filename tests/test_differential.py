"""The whole pipeline against a run that carries no state between solves.

Every solve of a normal run reads the bundle reader's rows and scores over
its trial's session: told deltas, the lazy ``Program.union``, overlay
attempts, the carried model, the session's label map and the shared cover
cache.  The reference run patches ``learner.solve`` so that each solve gets
an eager ``Program`` of the background's clauses, an ``ExampleSet.of`` its
atoms and a fresh ``Session`` over a fresh ``CoverCache``: objects, and
nothing carried.  The two reports must be byte-identical, over random
planted corpora, random corpora whose subsets share constants (so that
subsets are dropped or cut back, and shuffled retry trials run under a low
threshold) and the benchmark's conflict corpora, whose poison bundles are
peeled.
"""

from __future__ import annotations

import random
from pathlib import Path

from hornpipe import learner
from hornpipe.cover import CoverCache, Session
from hornpipe.entailment import consequences
from hornpipe.ingestion import BundleSource, RawBundle
from hornpipe.logic import Atom, ExampleSet, Program, const
from hornpipe.parsing import parse_rules
from hornpipe.pipeline import PipelineConfig, run_pipeline
from hornpipe.reporting import pipeline_report_lines
from hornpipe.synthgen import generate_corpus, sample_rules

ROOT = Path(__file__).resolve().parent.parent


def _report(sources, bias, config) -> list[str]:
    return pipeline_report_lines(run_pipeline(sources, bias, config), config)


def _fresh_solves(monkeypatch) -> None:
    solve = learner.solve

    def fresh(background, examples, bias, session=None):
        eager = ExampleSet.of(examples.positives, examples.negatives)
        return solve(Program(background.clauses), eager, bias, Session(CoverCache()))

    monkeypatch.setattr(learner, "solve", fresh)


def _shared_corpus(rng: random.Random, k: int):
    """Bundles over three constants of each type, so that subsets share
    constants: a joining subset's facts merge committed components, can make
    a committed example a fact or derivable, and its labels can clash with
    committed ones.  Each bundle plants one derivation and is labelled by the
    planted rules on its own facts, so it is reliable alone."""
    rules = sample_rules(rng, n_rules=rng.randint(1, 2))
    bias = generate_corpus(rules, 1, 0.0, k, light=True).bias
    types = bias.types_by_predicate
    pool = {t: [f"{t}c{i}" for i in range(3)] for tys in types.values() for t in tys}
    heads = sorted(bias.head_predicates)
    body = [d.predicate for d in bias.body_decls]

    def ground(pred: str) -> Atom:
        return Atom(pred, tuple(const(rng.choice(pool[t])) for t in types[pred]))

    sources = []
    for i in range(rng.randint(6, 14)):
        facts = {ground(rng.choice(body)) for _ in range(rng.randint(1, 5))}
        if rng.random() < 0.2:
            facts.add(ground(rng.choice(heads)))
        rule = rng.choice(rules.rules())
        names: dict = {}
        for lit in rule.body:
            args = (names.setdefault(v, rng.choice(pool[t])) for v, t in zip(lit.args, types[lit.predicate]))
            facts.add(Atom(lit.predicate, tuple(map(const, args))))
        model = consequences(Program.of(facts), rules)
        pos = sorted((a for a in model.atoms() if a.predicate in heads and a not in facts), key=str)
        neg = sorted({a for a in (ground(rng.choice(heads)) for _ in range(rng.randint(0, 3))) if not model.has_atom(a)}, key=str)
        bundle = RawBundle(
            id=f"shared-{i:02d}",
            timestamp=f"2024-01-01T{i:02d}:00:00",
            violation_id=f"shared-{i:02d}-v",
            nominal_id=f"shared-{i:02d}-n",
            violation_facts="".join(f"{a}.\n" for a in sorted(facts, key=str)),
            violation_examples="".join(f"pos({a}).\n" for a in pos),
            nominal_facts="",
            nominal_examples="".join(f"neg({a}).\n" for a in neg),
        )
        sources.append(BundleSource(bundle.id, bundle.timestamp, lambda attempt, bundle=bundle: bundle))
    return sources, bias


def _corpora(monkeypatch):
    """(name, sources, bias, config), each corpus made once."""
    rng = random.Random(2027)
    for k in range(30):
        rules = sample_rules(rng, n_rules=rng.randint(1, 3))
        corpus = generate_corpus(rules, rng.randint(5, 24), rng.choice((0.0, 0.2, 0.35, 0.5)), k, light=True)
        config = PipelineConfig(seed=k, retry_fail_threshold=rng.choice((0.0, 0.05, 0.3)), max_retries=3)
        yield f"planted {k}", corpus.bundle_sources(), corpus.bias, config
    for k in range(40):
        sources, bias = _shared_corpus(rng, k)
        config = PipelineConfig(seed=k, retry_fail_threshold=rng.choice((0.0, 0.05, 0.3)), max_retries=3)
        yield f"shared {k}", sources, bias, config

    monkeypatch.syspath_prepend(str(ROOT / "hornbench"))
    from workloads import conflict_corpus

    planted = parse_rules((ROOT / "data" / "planted_rules.rules").read_text(encoding="utf-8"))
    for k in range(6):
        bias, sources, _ = conflict_corpus(planted, random.Random(f"differential-conflict:{k}"))
        yield f"conflict {k}", sources, bias, PipelineConfig(seed=k, retry_fail_threshold=0.0, max_retries=2)


def test_pipeline_reports_equal_runs_with_fresh_object_solves(monkeypatch):
    """Byte-identical reports from the incremental row path and from fresh
    solves over objects, with peels, discards and retry trials all taken."""
    runs = []
    for name, sources, bias, config in _corpora(monkeypatch):
        runs.append((name, sources, bias, config, _report(sources, bias, config)))
    _fresh_solves(monkeypatch)
    retried = peeled = discarded = 0
    for name, sources, bias, config, lines in runs:
        assert _report(sources, bias, config) == lines, name
        retried += any('"trial": 2' in line for line in lines)
        peeled += sum('"action": "retained_partial"' in line for line in lines)
        discarded += sum('"action": "discarded"' in line for line in lines)
    # every path the session takes is exercised, so neither side is compared vacuously
    assert retried >= 25 and peeled >= 40 and discarded >= 30, (retried, peeled, discarded)
