"""The four workloads: inputs made from a seed, the timed round, the output checks.

Each ``setup_*`` function builds every input from ``--seed`` and compiles
the hypothesis space, and returns a ``Round``: the steps one timed round
runs, each with the check of its output.  Library calls go through module
attributes (``pipeline.run_pipeline``, not a bound name) so that the traced
run sees them.  Checks use ``oracle.py``, never ``hornpipe.entailment``,
and never a saved copy of earlier output.
"""

from __future__ import annotations

import dataclasses
import datetime
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from hornpipe import evalharness, learner, parsing, pipeline, synthgen
from hornpipe.evalharness import Scenario
from hornpipe.ingestion import BundleSource, RawBundle
from hornpipe.logic import Atom, ExampleSet, Program, const, print_clause
from hornpipe.synthgen import GenSubset

import oracle

DATA = Path(__file__).resolve().parent.parent / "data"

CORRUPTION = 0.2
HELD_OUT = 30  # held-out scenarios scored after each learn run

NOISY_CORPORA = 2  # corpora per learn-noisy round
NOISY_SUBSETS = 20

CONFLICT_CORPORA = 2  # corpora per learn-conflict round
CONFLICT_CLEAN = 12
CONFLICT_POISON = 3

WORLDS = 1  # worlds per eval-world round, each scored with both rule files
WORLD_SCENES = 300

WIDE_SUBSETS = 360


@dataclass
class Step:
    """One timed call and the check of its output.

    ``check`` returns one line per operation whose output is wrong; ``ops``
    is how many operations the step stands for.
    """

    call: Callable[[], object]
    check: Callable[[object], list[str]]
    ops: int = 1


@dataclass
class Round:
    steps: list[Step]
    items: int  # work items per round: subsets, or scored examples for eval-world


def _rules(name: str) -> Program:
    return parsing.parse_rules((DATA / name).read_text(encoding="utf-8"))


def _texts(program: Program) -> list[str]:
    return sorted(print_clause(r) for r in program.rules())


def _prefix(rng: random.Random) -> str:
    return f"k{rng.randrange(10**6)}_"


def _renamed(atoms, prefix: str) -> tuple[Atom, ...]:
    return tuple(Atom(a.predicate, tuple(const(prefix + t.name) for t in a.args)) for a in atoms)


def _renamed_subset(sub: GenSubset, prefix: str) -> GenSubset:
    return dataclasses.replace(
        sub,
        violation_facts=_renamed(sub.violation_facts, prefix),
        positives=_renamed(sub.positives, prefix),
        nominal_facts=_renamed(sub.nominal_facts, prefix),
        negatives=_renamed(sub.negatives, prefix),
    )


def _held_out(rules: Program, prefix: str) -> list[Scenario]:
    return [
        Scenario(
            sid,
            Program.of(_renamed(bk.facts(), prefix)),
            ExampleSet.of(_renamed(exs.positives, prefix), _renamed(exs.negatives, prefix)),
            tags=tags,
        )
        for sid, bk, exs, tags in synthgen.generate_scenarios(rules, HELD_OUT, 0)
    ]


def _timeouts(report) -> list[str]:
    outcomes = [c.outcome for c in report.subset_checks]
    outcomes += [d.solver_outcome for d in report.aggregation.best.trial_log]
    return ["a solve timed out"] if "timeout" in outcomes else []


def _held_out_problems(hypothesis: Program, held_out: list[Scenario], metrics) -> list[str]:
    """Held-out precision and F1 must be 1.0, counted by the oracle."""
    rules = hypothesis.rules()
    tp = fp = fn = tn = 0
    for s in held_out:
        a, b, c, d = oracle.counts(s.background.facts(), rules, s.examples.positives, s.examples.negatives)
        tp, fp, fn, tn = tp + a, fp + b, fn + c, tn + d
    problems = []
    if (metrics.tp, metrics.fp, metrics.fn, metrics.tn) != (tp, fp, fn, tn):
        problems.append(f"evaluate counts {metrics} differ from the oracle's {(tp, fp, fn, tn)}")
    if fp or fn or not tp:
        problems.append(f"held-out precision/F1 below 1.0: tp={tp} fp={fp} fn={fn}")
    return problems


def _learn_step(sources, bias, config, held_out, check) -> Step:
    def call():
        report = pipeline.run_pipeline(sources, bias, config)
        return report, evalharness.evaluate(report.final_hypothesis, held_out)

    return Step(call, lambda out: ["; ".join(p)] if (p := check(*out)) else [])


# -- learn-noisy --------------------------------------------------------------


def setup_learn_noisy(seed: int) -> Round:
    rules = _rules("planted_rules.rules")
    planted = set(_texts(rules))
    rng = random.Random(f"learn-noisy:{seed}")
    held_out = _held_out(rules, _prefix(rng))
    steps = []
    for k in range(NOISY_CORPORA):
        corpus = synthgen.generate_corpus(rules, NOISY_SUBSETS, CORRUPTION, k)
        learner.candidate_list(corpus.bias)
        prefix = _prefix(rng)
        steps.append(
            _learn_step(
                [_renamed_subset(sub, prefix).bundle_source() for sub in corpus.subsets],
                corpus.bias,
                pipeline.PipelineConfig(seed=k),
                held_out,
                lambda report, ev: check_learn_noisy(report, ev, planted, held_out),
            )
        )
    return Round(steps, items=NOISY_CORPORA * NOISY_SUBSETS)


def check_learn_noisy(report, ev, planted: set[str], held_out) -> list[str]:
    problems = _timeouts(report)
    final = _texts(report.final_hypothesis)
    stray = [r for r in final if r not in planted]
    if stray or not final:
        problems.append(f"final rules {final} are not all planted rules")
    return problems + _held_out_problems(report.final_hypothesis, held_out, ev.metrics)


# -- learn-conflict -----------------------------------------------------------


@dataclass(frozen=True)
class _Subset:
    """What the checks need to know about one bundle: facts and examples."""

    facts: tuple[Atom, ...]
    positives: tuple[Atom, ...]
    negatives: tuple[Atom, ...]
    flipped: Atom | None = None  # a poison bundle's mislabelled negative


def _poison(j: int, donor, scene, timestamp: str, prefix: str) -> tuple[BundleSource, _Subset]:
    """A bundle that is reliable alone but contradicts the planted rules.

    The donor is a clean subset of one pattern (its positive makes the
    bundle solvable); the scene is a held-out scenario of another pattern
    whose violating pair is labelled negative.  The flipped negative is
    followed by the scene's other negatives, and retraction peels
    negatives newest first, so recovering the bundle costs one re-solve per
    scene negative plus one.
    """
    d = f"{prefix}d{j}_"
    s = f"{prefix}s{j}_"
    _, background, examples, _ = scene
    flipped = _renamed(examples.positives, s)[0]
    v_facts = _renamed(donor.violation_facts, d)
    positives = _renamed(donor.positives, d)
    n_facts = _renamed(donor.nominal_facts, d) + _renamed(background.facts(), s)
    negatives = _renamed(donor.negatives, d) + (flipped,) + _renamed(examples.negatives, s)
    bundle = RawBundle(
        id=f"poison-{j:02d}",
        timestamp=timestamp,
        violation_id=f"poison-{j:02d}-v",
        nominal_id=f"poison-{j:02d}-n",
        violation_facts="".join(f"{a}.\n" for a in v_facts),
        violation_examples="".join(f"pos({a}).\n" for a in positives),
        nominal_facts="".join(f"{a}.\n" for a in n_facts),
        nominal_examples="".join(f"neg({a}).\n" for a in negatives),
    )
    source = BundleSource(bundle.id, timestamp, lambda attempt: bundle)
    return source, _Subset(v_facts + n_facts, positives, negatives, flipped)


def conflict_corpus(rules: Program, rng: random.Random):
    """Clean planted subsets with poison bundles timestamped among them.

    Poison j goes half an hour after a clean subset drawn from the j-th of
    CONFLICT_POISON equal stretches that follow the first subset of every
    pattern, so each planted rule is learned before any poison arrives.
    """
    prefix = _prefix(rng)
    clean = synthgen.generate_corpus(rules, CONFLICT_CLEAN, 0.0, 0)
    donors = synthgen.generate_corpus(rules, CONFLICT_POISON, 0.0, 0).subsets
    n_patterns = len(rules.rules())
    scenes = synthgen.generate_scenarios(rules, n_patterns * CONFLICT_POISON, 0)
    renamed = [_renamed_subset(sub, prefix) for sub in clean.subsets]
    sources = [sub.bundle_source() for sub in renamed]
    subsets = {s.id: _Subset(s.violation_facts + s.nominal_facts, s.positives, s.negatives) for s in renamed}
    stretch = (CONFLICT_CLEAN - n_patterns + 1) // CONFLICT_POISON
    for j, donor in enumerate(donors):
        after = clean.subsets[n_patterns - 1 + j * stretch + rng.randrange(stretch)]
        stamp = datetime.datetime.fromisoformat(after.timestamp) + datetime.timedelta(minutes=30)
        pattern = (j % n_patterns + 1 + rng.randrange(n_patterns - 1)) % n_patterns
        source, subset = _poison(j, donor, scenes[n_patterns * j + pattern], stamp.isoformat(), prefix)
        sources.append(source)
        subsets[source.id] = subset
    return clean.bias, sources, subsets


def setup_learn_conflict(seed: int) -> Round:
    rules = _rules("planted_rules.rules")
    planted = _texts(rules)
    rng = random.Random(f"learn-conflict:{seed}")
    held_out = _held_out(rules, _prefix(rng))
    steps = []
    for k in range(CONFLICT_CORPORA):
        bias, sources, subsets = conflict_corpus(rules, rng)
        learner.candidate_list(bias)
        steps.append(
            _learn_step(
                sources,
                bias,
                pipeline.PipelineConfig(seed=k),
                held_out,
                lambda report, ev, subsets=subsets: check_learn_conflict(report, ev, planted, subsets, held_out),
            )
        )
    return Round(steps, items=CONFLICT_CORPORA * (CONFLICT_CLEAN + CONFLICT_POISON))


def check_learn_conflict(report, ev, planted: list[str], subsets: dict[str, _Subset], held_out) -> list[str]:
    problems = _timeouts(report)
    if _texts(report.final_hypothesis) != planted:
        problems.append(f"final rules {_texts(report.final_hypothesis)} are not the planted rules")
    best = report.aggregation.best
    decisions = {d.subset_id: d for d in best.trial_log}
    for sid, sub in subsets.items():
        if sub.flipped is None:
            continue
        d = decisions.get(sid)
        if d is None:
            problems.append(f"{sid} never reached aggregation")
        elif d.action == "accepted" or (
            d.action == "retained_partial" and str(sub.flipped) not in d.removed_negatives
        ):
            problems.append(f"{sid} kept its flipped negative {sub.flipped} ({d.action})")
    rules = report.final_hypothesis.rules()
    for sid in best.accepted_ids:
        sub, d = subsets[sid], decisions[sid]
        pos = [a for a in sub.positives if str(a) not in d.removed_positives]
        neg = [a for a in sub.negatives if str(a) not in d.removed_negatives]
        tp, fp, fn, tn = oracle.counts(sub.facts, rules, pos, neg)
        if fp or fn:
            problems.append(f"final rules are not training-correct on {sid}: fp={fp} fn={fn}")
    return problems + _held_out_problems(report.final_hypothesis, held_out, ev.metrics)


# -- eval-world ---------------------------------------------------------------


def _reversed_pattern(planted: Program) -> int:
    """Index of the pattern whose head roles hand_rules.rules reverses."""
    for i, rule in enumerate(planted.rules()):
        if any(lit.predicate == "on_extended_area_runway" for lit in rule.body):
            return i
    raise ValueError("planted rules have no on_extended_area_runway pattern")


def _expected(scenes, rules_name: str, reversed_tag: str) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) implied by the scenes' pattern tags."""
    tp = fp = fn = tn = 0
    for _, _, exs, tags in scenes:
        flip = rules_name == "hand" and reversed_tag in tags
        tp, fn = tp + (0 if flip else 1), fn + (1 if flip else 0)
        fp, tn = fp + (1 if flip else 0), tn + len(exs.negatives) - (1 if flip else 0)
    return tp, fp, fn, tn


def setup_eval_world(seed: int) -> Round:
    rng = random.Random(f"eval-world:{seed}")
    files = {"planted": _rules("planted_rules.rules"), "hand": _rules("hand_rules.rules")}
    n_patterns = len(files["planted"].rules())
    reversed_tag = f"pattern-{_reversed_pattern(files['planted'])}"
    skip = n_patterns * rng.randrange(50)
    pool = synthgen.generate_scenarios(files["planted"], WORLDS * WORLD_SCENES + skip, seed)[skip:]
    steps = []
    items = 0
    for w in range(WORLDS):
        scenes = pool[w * WORLD_SCENES : (w + 1) * WORLD_SCENES]
        world = Scenario(
            f"world-{w}",
            Program.of(c for _, bk, _, _ in scenes for c in bk),
            ExampleSet.of(
                [a for _, _, exs, _ in scenes for a in exs.positives],
                [a for _, _, exs, _ in scenes for a in exs.negatives],
            ),
        )
        sample = rng.sample(scenes, 4)
        for name, rules in files.items():
            expected = _expected(scenes, name, reversed_tag)
            steps.append(
                Step(
                    lambda rules=rules, world=world: evalharness.evaluate(rules, [world]),
                    _world_check(expected, sample, rules, name, reversed_tag),
                )
            )
            items += len(world.examples)
    return Round(steps, items)


def _world_check(expected, sample, rules: Program, name: str, reversed_tag: str):
    """Compare a world's counts with the tag-implied ones.

    The tag-implied counts are themselves checked once, with the oracle, on
    a sample of the unmerged scenes.
    """
    sample_problems: list[str] | None = None

    def check(report) -> list[str]:
        nonlocal sample_problems
        if sample_problems is None:
            sample_problems = []
            for scene in sample:
                _, bk, exs, _ = scene
                got = oracle.counts(bk.facts(), rules.rules(), exs.positives, exs.negatives)
                want = _expected([scene], name, reversed_tag)
                if got != want:
                    sample_problems.append(f"{scene[0]}: tags imply {want} under {name} rules, oracle gives {got}")
        m = report.metrics
        got = (m.tp, m.fp, m.fn, m.tn)
        problems = sample_problems + ([] if got == expected else [f"{name} rules scored {got}, expected {expected}"])
        return ["; ".join(problems)] if problems else []

    return check


# -- check-wide ---------------------------------------------------------------


def setup_check_wide(seed: int) -> Round:
    rules = _rules("planted_rules.rules")
    corpus_seed = random.Random(f"check-wide:{seed}").randrange(2**31)
    corpus = synthgen.generate_corpus(rules, WIDE_SUBSETS, CORRUPTION, corpus_seed)
    learner.candidate_list(corpus.bias)
    config = pipeline.PipelineConfig(seed=corpus_seed, jobs=len(os.sched_getaffinity(0)))
    sources = corpus.bundle_sources()

    def call():
        outcomes = [pipeline.validate_bundle(s, corpus.bias, config.validation_attempts) for s in sources]
        subsets = [o.subset for o in outcomes if o.accepted]
        _, checks = pipeline.check_subsets(subsets, corpus.bias, config)
        return outcomes, checks

    corrupted = corpus.manifest["corrupted"]
    return Round([Step(call, lambda out: check_wide(out, corrupted), ops=WIDE_SUBSETS)], WIDE_SUBSETS)


def check_wide(out, corrupted: dict[str, str]) -> list[str]:
    outcomes, checks = out
    accepted = {o.bundle_id for o in outcomes if o.accepted}
    verdict = {c.subset_id: c for c in checks}
    problems = []
    for o in outcomes:
        kind = corrupted.get(o.bundle_id)
        c = verdict.get(o.bundle_id)
        if c is not None and c.outcome == "timeout":
            problems.append(f"{o.bundle_id}: subset check timed out")
        elif kind is None and (o.bundle_id not in accepted or not c.reliable):
            problems.append(f"{o.bundle_id}: uncorrupted but not reliable")
        elif kind == "unknown_predicate" and o.bundle_id in accepted:
            problems.append(f"{o.bundle_id}: unknown predicate passed validation")
    return problems


SETUPS = {
    "learn-noisy": setup_learn_noisy,
    "learn-conflict": setup_learn_conflict,
    "eval-world": setup_eval_world,
    "check-wide": setup_check_wide,
}
