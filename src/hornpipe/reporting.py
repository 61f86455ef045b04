"""Report serialization: line-delimited JSON records plus text summaries.

Structured reports are reproducible artifacts: every line is a JSON object
with a ``record`` tag, keys sorted, and no wall-clock values, so reruns
with identical inputs are byte-identical.  The only timestamps present are
the data's own subset timestamps.  Elapsed-time chatter belongs in the
human-readable summaries, which make no byte-level promises.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

from .evalharness import EvalReport, HypothesisDiff
from .logic import print_clause
from .pipeline import PipelineConfig, PipelineReport, SubsetCheck, ValidationOutcome

SCHEMA_VERSION = 1


def _line(record: str, **fields) -> str:
    return json.dumps({"record": record, **fields}, sort_keys=True)


def _check_lines(
    validation: Iterable[ValidationOutcome], subset_checks: Iterable[SubsetCheck]
) -> list[str]:
    """The ``validation`` and ``subset_check`` records of stages 1-2."""
    lines = [
        _line(
            "validation",
            bundle_id=v.bundle_id,
            timestamp=v.timestamp,
            accepted=v.accepted,
            attempts_used=v.attempts_used,
            reasons=list(v.reasons),
        )
        for v in validation
    ]
    return lines + [_line("subset_check", **asdict(c)) for c in subset_checks]


def check_report_lines(
    validation: Iterable[ValidationOutcome], subset_checks: Iterable[SubsetCheck]
) -> list[str]:
    """The report of ``hornpipe check``: stages 1-2 only."""
    schema = _line("schema", version=SCHEMA_VERSION, kind="check")
    return [schema, *_check_lines(validation, subset_checks)]


def pipeline_report_lines(report: PipelineReport, config: PipelineConfig) -> list[str]:
    lines = [
        _line("schema", version=SCHEMA_VERSION, kind="pipeline"),
        _line("config", **asdict(config)),
        *_check_lines(report.validation, report.subset_checks),
    ]
    agg = report.aggregation
    lines += [_line("trial", **asdict(t)) for t in agg.trials]
    lines += [_line("decision", **asdict(d)) for d in agg.best.trial_log]
    lines.append(
        _line(
            "aggregation",
            best_trial=agg.best_trial,
            early_stopped=agg.early_stopped,
            accepted_ids=list(agg.best.accepted_ids),
            pre_prune_rule_count=report.pre_prune_rule_count,
        )
    )
    lines += [_line("rule_support", **asdict(r)) for r in report.pruning]
    lines.append(
        _line(
            "final",
            emptied_at=report.emptied_at,
            rules=[print_clause(c) for c in report.final_hypothesis.rules()],
        )
    )
    return lines


def eval_report_lines(report: EvalReport) -> list[str]:
    lines = [_line("schema", version=SCHEMA_VERSION, kind="eval")]
    for s in report.scenarios:
        lines.append(
            _line(
                "scenario",
                scenario_id=s.scenario_id,
                correct=s.correct,
                tags=list(s.tags),
            )
        )
        lines += [_line("verdict", **asdict(v), kind=v.kind) for v in s.verdicts]
    lines.append(_line("metrics", **asdict(report.metrics)))
    return lines


def diff_report_lines(diff: HypothesisDiff) -> list[str]:
    lines = [_line("schema", version=SCHEMA_VERSION, kind="diff")]
    lines += [_line("disagreement", **asdict(d)) for d in diff.disagreements]
    lines.append(_line("metrics_first", **asdict(diff.first)))
    lines.append(_line("metrics_second", **asdict(diff.second)))
    lines.append(_line("metrics_delta", **diff.metric_deltas))
    return lines


def write_report_lines(path: Path, lines: list[str]) -> None:
    Path(path).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


# ------------------------------------------------------------- text summaries


def pipeline_summary(report: PipelineReport, elapsed: float | None = None) -> str:
    v_total = len(report.validation)
    v_ok = sum(1 for v in report.validation if v.accepted)
    reliable = sum(1 for c in report.subset_checks if c.reliable)
    agg = report.aggregation
    out = [
        f"validation: {v_ok}/{v_total} bundles accepted",
        f"subset checks: {reliable}/{len(report.subset_checks)} reliable",
    ]
    for t in agg.trials:
        out.append(
            f"trial {t.trial}: accepted {t.accepted_count}, "
            f"fail_frac {t.fail_frac:.3f}, success {t.success}"
        )
    out.append(
        f"aggregation: best trial {agg.best_trial}, "
        f"{len(agg.best.accepted_ids)} subsets, "
        f"{report.pre_prune_rule_count} rules pre-prune"
        + (", stopped early" if agg.early_stopped else "")
    )
    kept = sum(1 for r in report.pruning if r.kept)
    out.append(f"pruning: kept {kept}/{len(report.pruning)} rules")
    for r in report.pruning:
        mark = "keep" if r.kept else "drop"
        out.append(f"  [{mark}] support {r.support:4d}  {r.rule}")
    if report.emptied_at:
        out.append(f"pipeline emptied at: {report.emptied_at}")
    if elapsed is not None:
        out.append(f"elapsed: {elapsed:.2f}s")
    return "\n".join(out) + "\n"


def eval_summary(report: EvalReport, elapsed: float | None = None) -> str:
    m = report.metrics
    out = [
        f"scenarios: {report.correct_count}/{len(report.scenarios)} fully correct",
        f"counts: tp={m.tp} fp={m.fp} fn={m.fn} tn={m.tn}",
        f"accuracy  {m.accuracy:.3f}" + ("  (degenerate)" if m.degenerate_accuracy else ""),
        f"precision {m.precision:.3f}" + ("  (degenerate)" if m.degenerate_precision else ""),
        f"recall    {m.recall:.3f}" + ("  (degenerate)" if m.degenerate_recall else ""),
        f"f1        {m.f1:.3f}",
    ]
    wrong = [s for s in report.scenarios if not s.correct]
    for s in wrong:
        bad = [v for v in s.verdicts if v.kind in ("fp", "fn")]
        out.append(f"  {s.scenario_id}: " + ", ".join(f"{v.kind} {v.atom}" for v in bad))
    if elapsed is not None:
        out.append(f"elapsed: {elapsed:.2f}s")
    return "\n".join(out) + "\n"


def diff_summary(diff: HypothesisDiff) -> str:
    if diff.empty:
        out = ["no verdict disagreements"]
    else:
        out = [f"{len(diff.disagreements)} verdict disagreement(s)"]
        for d in diff.disagreements:
            out.append(
                f"  {d.scenario_id} {d.label} {d.atom}: "
                f"{d.first_predicted} -> {d.second_predicted}"
            )
    out.append(
        "deltas: "
        + "  ".join(f"{k} {v:+.3f}" for k, v in diff.metric_deltas.items())
    )
    return "\n".join(out) + "\n"
