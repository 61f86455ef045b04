"""Command-line interface.

Commands: ``gen`` plants a synthetic corpus from a rules file; ``check``
runs bundle validation and standalone subset checks; ``learn`` runs the
full pipeline and writes rules plus reports; ``eval`` scores a rules file
on a scenario directory; ``diff`` compares two rules files; ``print-rules``
reprints a rules file in canonical form.

Pipeline settings resolve as defaults, then config file (``--config`` or
the HORNPIPE_CONFIG environment variable; ``key = value`` lines), then
flags.  ``check`` and ``learn`` still accept ``--jobs`` (``learn`` writes it
to the report's config record), but every stage runs in-process; ``eval``
and ``diff`` take no ``--jobs`` (passing it is a usage error, exit 2).

Exit codes: 0 success, 1 empty hypothesis / nothing reliable, 2 validation
or config error, 3 I/O error, 4 internal error (a failed invariant check).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .evalharness import Scenario, diff_hypotheses, evaluate
from .ingestion import bundle_source_from_stored
from .logic import print_program
from .parsing import ParseError, parse_bias
from .pipeline import PipelineConfig, run_checks, run_pipeline
from .reporting import (
    check_report_lines,
    diff_report_lines,
    diff_summary,
    eval_report_lines,
    eval_summary,
    pipeline_report_lines,
    pipeline_summary,
    write_report_lines,
)
from .storage import (
    load_corpus_bias,
    load_scenario_dirs,
    load_subsets,
    read_rules,
    write_corpus_bias,
    write_manifest,
    write_rules,
    write_subset,
)
from .synthgen import generate_corpus

CONFIG_ENV = "HORNPIPE_CONFIG"

# config-file/flag name -> PipelineConfig field
_CONFIG_KEYS = {
    "tau": ("support_threshold", float),
    "rho": ("retry_fail_threshold", float),
    "retries": ("max_retries", int),
    "attempts": ("validation_attempts", int),
    "seed": ("seed", int),
    "jobs": ("jobs", int),
}


def _read_config_file(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for i, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{i}: expected 'key = value', got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{i}: unknown config key {key!r}")
        out[key] = val
    return out


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig()
    path = args.config or os.environ.get(CONFIG_ENV)
    if path:
        for key, val in _read_config_file(Path(path)).items():
            field, cast = _CONFIG_KEYS[key]
            config = replace(config, **{field: cast(val)})
    for key, (field, cast) in _CONFIG_KEYS.items():
        val = getattr(args, key, None)
        if val is not None:
            config = replace(config, **{field: cast(val)})
    return config


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file; HORNPIPE_CONFIG is the fallback")
    p.add_argument("--tau", type=float, help="min fraction of max rule support kept by pruning")
    p.add_argument("--rho", type=float, help="acceptable dropped-subset fraction per trial")
    p.add_argument("--retries", type=int, help="max aggregation trials, shuffles included")
    p.add_argument("--attempts", type=int, help="extraction attempts per bundle")
    p.add_argument("--seed", type=int, help="root seed for shuffling")
    p.add_argument("--jobs", type=int, help="recorded in the report; subset checks run in-process")


def _load_corpus(args: argparse.Namespace):
    """The bias, from ``--bias`` or else the corpus's own, and the corpus subsets."""
    corpus_dir = Path(args.corpus_dir)
    if args.bias:
        bias = parse_bias(Path(args.bias).read_text(encoding="utf-8"))
    else:
        bias = load_corpus_bias(corpus_dir)
    return bias, load_subsets(corpus_dir)


def _scenarios_from(path: str) -> list[Scenario]:
    dirs = load_scenario_dirs(Path(path))
    if not dirs:
        raise ValueError(f"no scenario directories under {path}")
    return [Scenario(sid, bg, exs, tags) for sid, bg, exs, tags in dirs]


def cmd_gen(args: argparse.Namespace) -> int:
    rules = read_rules(Path(args.rules_file))
    corpus = generate_corpus(
        rules, n_subsets=args.subsets, corruption=args.corruption, seed=args.seed or 0
    )
    out = Path(args.out_dir)
    write_corpus_bias(out, corpus.bias)
    write_manifest(out, corpus.manifest)
    for stored in corpus.stored_subsets():
        write_subset(out, stored)
    bad = corpus.manifest["corrupted"]
    print(f"wrote {len(corpus.subsets)} subsets to {out} ({len(bad)} corrupted)")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    bias, stored = _load_corpus(args)
    config = _pipeline_config(args)
    sources = [bundle_source_from_stored(s) for s in stored]
    outcomes, reliable, checks = run_checks(sources, bias, config)
    if args.out:
        write_report_lines(Path(args.out), check_report_lines(outcomes, checks))
    print(f"validation: {len(checks)}/{len(outcomes)} bundles accepted")
    print(f"subset checks: {len(reliable)}/{len(checks)} reliable")
    for o in outcomes:
        if not o.accepted:
            print(f"  rejected {o.bundle_id}: {'; '.join(o.reasons)}")
    for c in checks:
        if not c.reliable:
            print(f"  unreliable {c.subset_id}: {c.outcome}")
    return 0 if reliable else 1


def cmd_learn(args: argparse.Namespace) -> int:
    started = time.monotonic()
    bias, stored = _load_corpus(args)
    config = _pipeline_config(args)
    sources = [bundle_source_from_stored(s) for s in stored]
    report = run_pipeline(sources, bias, config)
    elapsed = time.monotonic() - started

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_lines(out / "report.jsonl", pipeline_report_lines(report, config))
    summary = pipeline_summary(report, elapsed=elapsed)
    (out / "report.txt").write_text(summary, encoding="utf-8")
    write_rules(out / "final.rules", report.final_hypothesis)
    print(summary, end="")
    return 0 if report.final_hypothesis.clauses else 1


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.monotonic()
    rules = read_rules(Path(args.rules))
    scenarios = _scenarios_from(args.scenarios_dir)
    report = evaluate(rules, scenarios)
    elapsed = time.monotonic() - started
    summary = eval_summary(report, elapsed=elapsed)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_report_lines(out / "report.jsonl", eval_report_lines(report))
        (out / "report.txt").write_text(summary, encoding="utf-8")
    print(summary, end="")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    first = read_rules(Path(args.rules))
    second = read_rules(Path(args.other))
    scenarios = _scenarios_from(args.scenarios_dir)
    diff = diff_hypotheses(first, second, scenarios)
    if args.out:
        write_report_lines(Path(args.out), diff_report_lines(diff))
    print(diff_summary(diff), end="")
    return 0


def cmd_print_rules(args: argparse.Namespace) -> int:
    rules = read_rules(Path(args.rules))
    sys.stdout.write(print_program(rules))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hornpipe",
        description="rule induction from noisy logic-program bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="plant a synthetic corpus from a rules file")
    p.add_argument("--rules-file", required=True, help="ground-truth rules to plant")
    p.add_argument("--subsets", type=int, required=True, help="number of subsets")
    p.add_argument("--corruption", type=float, default=0.0, help="fraction of subsets corrupted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="validate bundles and check subset solvability")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--bias", help="bias file overriding the corpus bias")
    p.add_argument("--out", help="structured report path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("learn", help="run the full pipeline and write final rules")
    p.add_argument("--corpus-dir", required=True)
    p.add_argument("--bias", help="bias file overriding the corpus bias")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("eval", help="score a rules file on a scenario directory")
    p.add_argument("--rules", required=True)
    p.add_argument("--scenarios-dir", required=True)
    p.add_argument("--out", help="output directory for reports")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diff", help="compare two rules files on the same scenarios")
    p.add_argument("--rules", required=True, help="first rules file")
    p.add_argument("--other", required=True, help="second rules file")
    p.add_argument("--scenarios-dir", required=True)
    p.add_argument("--out", help="structured diff path")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("print-rules", help="reprint a rules file in canonical form")
    p.add_argument("rules", help="rules file")
    p.set_defaults(func=cmd_print_rules)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except RuntimeError as e:
        # a failed invariant check must not pass for an empty result (1)
        print(f"internal error: {e}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main())
