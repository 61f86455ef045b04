"""Sweep corpus size under label/fact corruption and report held-out quality.

For every (size, seed) cell: plant the rule set into a corrupted corpus, run
the full pipeline, and score the final hypothesis on freshly generated
scenarios.  The table shows how the pruned rule set stays small and precise
while the raw (pre-prune) hypothesis grows with corpus size.  It also shows
the median seconds per size and the scaling exponent between consecutive
sizes, log(t2/t1)/log(n2/n1), over those medians.  A cell's seconds are the
wall time of ``run_pipeline`` plus the held-out ``evaluate``; generating
the corpus and the scenarios is not timed.  Beside the seconds it prints
the cycle collector's runs of each generation over the same calls
(``gc.get_stats()`` before and after), which count the tracked objects a
run allocates; the collector is left as the process has it.

  python scripts/run_scaling.py --sizes 5,15,30,60 --seeds 10
"""

import argparse
import csv
import gc
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hornpipe.evalharness import Scenario, evaluate
from hornpipe.parsing import parse_rules
from hornpipe.pipeline import PipelineConfig, run_pipeline
from hornpipe.synthgen import generate_corpus, generate_scenarios

DEFAULT_RULES = Path(__file__).resolve().parent.parent / "data" / "planted_rules.rules"


def run_cell(rules, size, seed, corruption, n_scenarios):
    corpus = generate_corpus(rules, size, corruption, seed=seed)
    scenarios = [
        Scenario(sid, background, examples, tags=tags)
        for sid, background, examples, tags in generate_scenarios(rules, n_scenarios, seed)
    ]
    collections = [g["collections"] for g in gc.get_stats()]
    started = time.monotonic()
    report = run_pipeline(corpus.bundle_sources(), corpus.bias, PipelineConfig(seed=seed))
    metrics = evaluate(report.final_hypothesis, scenarios).metrics
    seconds = time.monotonic() - started
    gc0, gc1, gc2 = (g["collections"] - n for g, n in zip(gc.get_stats(), collections))
    return {
        "size": size,
        "seed": seed,
        "f1": metrics.f1,
        "precision": metrics.precision,
        "recall": metrics.recall,
        "pre_prune_rules": report.pre_prune_rule_count,
        "final_rules": len(report.final_hypothesis.rules()),
        "seconds": round(seconds, 2),
        "gc0": gc0,
        "gc1": gc1,
        "gc2": gc2,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rules", type=Path, default=DEFAULT_RULES)
    parser.add_argument("--sizes", default="5,15,30,60")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--corruption", type=float, default=0.2)
    parser.add_argument("--scenarios", type=int, default=30)
    parser.add_argument("--csv", type=Path, help="also write one row per run")
    args = parser.parse_args(argv)

    rules = parse_rules(args.rules.read_text(encoding="utf-8"))
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    for size in sizes:
        for seed in range(args.seeds):
            row = run_cell(rules, size, seed, args.corruption, args.scenarios)
            rows.append(row)
            print(
                f"size {size:3d} seed {seed:2d}: f1 {row['f1']:.3f}"
                f" precision {row['precision']:.3f} recall {row['recall']:.3f}"
                f" rules {row['pre_prune_rules']}->{row['final_rules']}"
                f" ({row['seconds']}s, gc {row['gc0']}/{row['gc1']}/{row['gc2']})"
            )

    print()
    print("size  med-F1  min-prec  med-recall  med-pre-prune  med-final   med-s  exponent  med-gc0/1/2")
    prev = None
    for size in sizes:
        cells = [r for r in rows if r["size"] == size]
        secs = statistics.median(c["seconds"] for c in cells)
        exponent = "-"
        if prev is not None and prev[1] > 0 and secs > 0:
            exponent = f"{math.log(secs / prev[1]) / math.log(size / prev[0]):.2f}"
        prev = (size, secs)
        print(
            f"{size:4d}  {statistics.median(c['f1'] for c in cells):6.3f}"
            f"  {min(c['precision'] for c in cells):8.3f}"
            f"  {statistics.median(c['recall'] for c in cells):10.3f}"
            f"  {statistics.median(c['pre_prune_rules'] for c in cells):13.1f}"
            f"  {statistics.median(c['final_rules'] for c in cells):9.1f}"
            f"  {secs:6.2f}  {exponent:>8}"
            f"  {'/'.join(str(statistics.median(c[g] for c in cells)) for g in ('gc0', 'gc1', 'gc2'))}"
        )

    if args.csv:
        with args.csv.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
