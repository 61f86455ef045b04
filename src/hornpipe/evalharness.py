"""Hypothesis evaluation on held-out scenarios, by entailment only.

An example is predicted positive exactly when the scenario's background
plus the hypothesis entails it.  Counts pool over all scenarios
(micro-averaged); a scenario is correct when none of its own examples are
misclassified.  Precision and recall fall back to 1.0 on an empty
denominator, with a flag recording that the value is degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entailment import coverage
from .logic import ExampleSet, Program


@dataclass(frozen=True)
class Scenario:
    id: str
    background: Program
    examples: ExampleSet
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Verdict:
    scenario_id: str
    atom: str
    label: str  # "pos" | "neg"
    predicted: bool

    @property
    def kind(self) -> str:
        if self.label == "pos":
            return "tp" if self.predicted else "fn"
        return "fp" if self.predicted else "tn"


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate_accuracy: bool = False
    degenerate_precision: bool = False
    degenerate_recall: bool = False

    @staticmethod
    def from_counts(tp: int, fp: int, fn: int, tn: int) -> "Metrics":
        for name, v in (("tp", tp), ("fp", fp), ("fn", fn), ("tn", tn)):
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")
        total = tp + fp + fn + tn
        accuracy = (tp + tn) / total if total else 1.0
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return Metrics(
            tp=tp,
            fp=fp,
            fn=fn,
            tn=tn,
            accuracy=accuracy,
            precision=precision,
            recall=recall,
            f1=f1,
            degenerate_accuracy=total == 0,
            degenerate_precision=tp + fp == 0,
            degenerate_recall=tp + fn == 0,
        )


@dataclass(frozen=True)
class ScenarioResult:
    scenario_id: str
    verdicts: tuple[Verdict, ...]
    correct: bool  # no local false negatives and no local false positives
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class EvalReport:
    scenarios: tuple[ScenarioResult, ...]
    metrics: Metrics

    @property
    def verdicts(self) -> tuple[Verdict, ...]:
        return tuple(v for s in self.scenarios for v in s.verdicts)

    @property
    def correct_count(self) -> int:
        return sum(1 for s in self.scenarios if s.correct)


def _eval_scenario(hypothesis: Program, scenario: Scenario) -> ScenarioResult:
    cov = coverage(scenario.background, hypothesis, scenario.examples)
    verdicts = [
        Verdict(scenario.id, str(a), "pos", a in cov.covered_pos)
        for a in scenario.examples.positives
    ]
    verdicts += [
        Verdict(scenario.id, str(a), "neg", a in cov.covered_neg)
        for a in scenario.examples.negatives
    ]
    correct = cov.covered_pos == scenario.examples.pos_set and not cov.covered_neg
    return ScenarioResult(
        scenario_id=scenario.id,
        verdicts=tuple(verdicts),
        correct=correct,
        tags=scenario.tags,
    )


def evaluate(hypothesis: Program, scenarios: list[Scenario]) -> EvalReport:
    """Score a hypothesis over scenarios; counts pool across all examples."""
    results = [_eval_scenario(hypothesis, s) for s in scenarios]
    counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for res in results:
        for v in res.verdicts:
            counts[v.kind] += 1
    return EvalReport(scenarios=tuple(results), metrics=Metrics.from_counts(**counts))


@dataclass(frozen=True)
class Disagreement:
    scenario_id: str
    atom: str
    label: str
    first_predicted: bool
    second_predicted: bool


@dataclass(frozen=True)
class HypothesisDiff:
    disagreements: tuple[Disagreement, ...]
    first: Metrics
    second: Metrics

    @property
    def metric_deltas(self) -> dict[str, float]:
        return {
            name: getattr(self.second, name) - getattr(self.first, name)
            for name in ("accuracy", "precision", "recall", "f1")
        }

    @property
    def empty(self) -> bool:
        return not self.disagreements


def diff_hypotheses(first: Program, second: Program, scenarios: list[Scenario]) -> HypothesisDiff:
    """Per-example verdict changes between two hypotheses, plus metric deltas."""
    a = evaluate(first, scenarios)
    b = evaluate(second, scenarios)
    disagreements = tuple(
        Disagreement(va.scenario_id, va.atom, va.label, va.predicted, vb.predicted)
        for va, vb in zip(a.verdicts, b.verdicts)
        if va.predicted != vb.predicted
    )
    return HypothesisDiff(disagreements=disagreements, first=a.metrics, second=b.metrics)
