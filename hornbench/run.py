"""Run one hornpipe benchmark workload and print its metrics as JSON.

    python3 hornbench/run.py --workload learn-noisy --seed 0 --seconds 15 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
run builds the workload's inputs from the seed (several times, to time
set-up), then repeats whole rounds of the workload until ``--seconds``
have passed, then checks every output.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer ones from wrappers
around the library's public functions.  The last line of standard output
is the result object; files go to ``hornbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest worker's peak
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from hornpipe import learner

    tracer = setup_spans = None
    if trace:
        import tracing

        tracer, setup_spans = tracing.Tracer(), []

    setup_times = []
    for _ in range(SETUP_REPEATS):
        learner.candidate_list.cache_clear()  # every set-up compiles the hypothesis space
        if tracer:
            tracer.install(tracing.SETUP_LAYERS)
        t0 = time.perf_counter()
        rnd = workloads.SETUPS[workload](seed)
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
            setup_spans.append(tracer.take())

    # Each round's outputs are checked and dropped before the next round, so
    # the process does not grow with the number of rounds: check_subsets
    # forks its workers from it, and a worker's peak RSS starts at the
    # parent's.  Checks run untraced, and only timed time counts towards
    # --seconds.
    rounds = []  # (wall s, cpu s, spans, remote spans)
    attempted = failed = 0
    correct = True
    problems: list[str] = []
    while not rounds or sum(r[0] for r in rounds) < seconds:
        gc.collect()
        if tracer:
            tracer.install(tracing.TIMED_LAYERS)
        cpu0, t0 = _cpu(), time.perf_counter()
        outputs = []
        for step in rnd.steps:
            try:
                outputs.append((True, step.call()))
            except Exception:  # a raising operation is counted as failed
                outputs.append((False, traceback.format_exc()))
        wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
        if tracer:
            tracer.uninstall()
        rounds.append((wall, cpu, *(tracer.take() if tracer else ([], []))))
        for step, (ok, out) in zip(rnd.steps, outputs):
            attempted += step.ops
            if not ok:
                failed += step.ops
                problems.append(out)
                continue
            wrong = step.check(out)
            failed += len(wrong)
            correct = correct and not wrong
            problems += wrong
        del outputs

    for p in problems[:10]:
        print(f"{workload}: {p}", file=sys.stderr)

    walls = [r[0] for r in rounds]
    print(f"{workload}: round seconds {[round(w, 3) for w in walls]}", file=sys.stderr)
    if trace:
        summary = tracing.summarise([(r[0], r[2], r[3]) for r in rounds], setup_spans)
        metrics = {k: _metric(summary[k], unit) for k, unit in per_layer_units().items()}
        _write_spans(workload, seed, rounds[0], setup_spans)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "run_s": _metric(statistics.median(walls), "s"),
            "items_per_s": _metric(rnd.items / statistics.median(walls), "1/s"),
            "cpu_s": _metric(statistics.median(r[1] for r in rounds), "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _write_spans(workload: str, seed: int, first_round, setup_spans) -> None:
    """Spans of every set-up and of the first timed round, one JSON line each.

    A line is [phase, index, side, name, start, end, parent, counts]; side
    is "parent", or "worker" for a worker solve's spans, whose parent
    indices count within that solve.  Later rounds repeat the first, so
    they are summarised but not written, which keeps the file small.
    """
    groups = [("setup", i, "parent", spans) for i, (spans, _) in enumerate(setup_spans)]
    groups.append(("round", 0, "parent", first_round[2]))
    groups += [("round", 0, "worker", spans) for spans in first_round[3]]
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"trace-{workload}-{seed}.jsonl.gz", "wt", encoding="utf-8") as f:
        for phase, i, side, spans in groups:
            for name, t0, t1, parent, attrs in spans:
                f.write(json.dumps([phase, i, side, name, t0, t1, parent, attrs]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hornpipe" / "__init__.py").is_file():
        print(f"hornbench: no hornpipe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.SETUPS:
        print(f"hornbench: unknown workload {args.workload!r}; one of {sorted(workloads.SETUPS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
