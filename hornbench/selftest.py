"""Self-test of the benchmark: every output check rejects a wrong result, and
a short run of every workload finishes with correct output.

    python3 hornbench/selftest.py

Workload sizes are shrunk for the smoke runs, so it takes well under a
minute.  Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hornpipe import evalharness  # noqa: E402
from hornpipe.logic import Program  # noqa: E402
from hornpipe.parsing import parse_rules  # noqa: E402

SMALL = {
    "NOISY_CORPORA": 1,
    "NOISY_SUBSETS": 9,
    "CONFLICT_CORPORA": 1,
    "CONFLICT_CLEAN": 7,
    "CONFLICT_POISON": 2,
    "WORLDS": 1,
    "WORLD_SCENES": 30,
    "WIDE_SUBSETS": 24,
}

# A clause that skips the same_runway join: planted-looking but not planted.
STRAY = parse_rules("collision(V0,V1):- landing_runway(V1,V2),holding_on_runway(V0,V3).").rules()[0]

failures: list[str] = []


def expect(label: str, problems: list[str], wrong: bool) -> None:
    if bool(problems) != wrong:
        failures.append(f"{label}: expected {'a rejection' if wrong else 'no problem'}, got {problems}")
    print(f"{'ok  ' if bool(problems) == wrong else 'FAIL'} {label}")


def first_output(name: str):
    rnd = workloads.SETUPS[name](0)
    return rnd, [step.call() for step in rnd.steps]


def with_rules(report, rules: list):
    """The report with another final hypothesis (the held-out scores stay as they were)."""
    return dataclasses.replace(report, final_hypothesis=Program.of(rules))


def test_learn_noisy() -> None:
    rnd, outs = first_output("learn-noisy")
    step, (report, ev) = rnd.steps[0], outs[0]
    expect("learn-noisy: real output", step.check((report, ev)), False)
    rules = report.final_hypothesis.rules()
    expect("learn-noisy: dropped rule", step.check((with_rules(report, rules[1:]), ev)), True)
    expect("learn-noisy: stray rule", step.check((with_rules(report, [*rules, STRAY]), ev)), True)
    m = ev.metrics
    flipped = dataclasses.replace(ev, metrics=dataclasses.replace(m, tp=m.tp - 1, fn=m.fn + 1))
    expect("learn-noisy: flipped verdict", step.check((report, flipped)), True)


def test_learn_conflict() -> None:
    rnd, outs = first_output("learn-conflict")
    step, (report, ev) = rnd.steps[0], outs[0]
    expect("learn-conflict: real output", step.check((report, ev)), False)
    best = report.aggregation.best
    poison = next(d for d in best.trial_log if d.subset_id.startswith("poison"))

    def with_decision(new):
        log = tuple(new if d is poison else d for d in best.trial_log)
        agg = dataclasses.replace(report.aggregation, best=dataclasses.replace(best, trial_log=log))
        return dataclasses.replace(report, aggregation=agg)

    kept = with_decision(dataclasses.replace(poison, action="accepted", removed_negatives=()))
    expect("learn-conflict: poison accepted whole", step.check((kept, ev)), True)
    partial = with_decision(dataclasses.replace(poison, removed_negatives=poison.removed_negatives[:-1]))
    expect("learn-conflict: flipped negative kept", step.check((partial, ev)), True)
    rules = report.final_hypothesis.rules()
    expect("learn-conflict: dropped rule", step.check((with_rules(report, rules[1:]), ev)), True)
    expect("learn-conflict: stray rule", step.check((with_rules(report, [*rules, STRAY]), ev)), True)


def test_eval_world() -> None:
    rnd, outs = first_output("eval-world")
    for step, report in zip(rnd.steps, outs):
        expect("eval-world: real output", step.check(report), False)
        m = report.metrics
        bad = dataclasses.replace(report, metrics=dataclasses.replace(m, fp=m.fp + 1, tn=m.tn - 1))
        expect("eval-world: flipped verdict", step.check(bad), True)
    files = {"planted": workloads._rules("planted_rules.rules"), "hand": workloads._rules("hand_rules.rules")}
    scenes = workloads.synthgen.generate_scenarios(files["planted"], 6, 0)
    # naming the wrong pattern as the reversed one must fail the oracle sample check
    wrong = f"pattern-{(workloads._reversed_pattern(files['planted']) + 1) % 3}"
    check = workloads._world_check(workloads._expected(scenes, "hand", wrong), scenes, files["hand"], "hand", wrong)
    world = workloads.Scenario("w", Program.of(c for _, bk, _, _ in scenes for c in bk),
                               workloads.ExampleSet.of([a for s in scenes for a in s[2].positives],
                                                       [a for s in scenes for a in s[2].negatives]))
    expect("eval-world: wrong tag expectation", check(evalharness.evaluate(files["hand"], [world])), True)


def test_check_wide() -> None:
    rnd, outs = first_output("check-wide")
    step, (outcomes, checks) = rnd.steps[0], outs[0]
    expect("check-wide: real output", step.check((outcomes, checks)), False)
    i = next(i for i, c in enumerate(checks) if c.reliable)
    flipped = [*checks[:i], dataclasses.replace(checks[i], reliable=False, outcome="no_hypothesis"), *checks[i + 1 :]]
    expect("check-wide: reliable subset marked unreliable", step.check((outcomes, flipped)), True)
    timed_out = [*checks[:i], dataclasses.replace(checks[i], outcome="timeout"), *checks[i + 1 :]]
    expect("check-wide: timed-out solve", step.check((outcomes, timed_out)), True)
    j = next(j for j, o in enumerate(outcomes) if o.accepted)
    kind = {outcomes[j].bundle_id: "unknown_predicate"}
    expect("check-wide: unknown predicate accepted", workloads.check_wide((outcomes, checks), kind), True)


def test_smoke_runs() -> None:
    for name in workloads.SETUPS:
        for trace in (False, True):
            result = run.run(name, seed=1, seconds=0.0, trace=trace)
            label = f"smoke {name} trace={int(trace)}"
            ok = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            expect(label, [] if ok else [str({k: v for k, v in result.items() if k != "metrics"})], False)
            names = set(result["metrics"])
            want = set(run.per_layer_units()) if trace else {"setup_s", "run_s", "items_per_s", "cpu_s", "peak_rss_mb"}
            expect(f"{label}: metric names", [] if names == want else [str(names ^ want)], False)


def test_trace_adds_up() -> None:
    """Parent-side self times plus other.s equal the traced round time."""
    tracer = tracing.Tracer()
    rnd = workloads.SETUPS["learn-conflict"](2)
    tracer.install(tracing.TIMED_LAYERS)
    try:
        t0 = time.perf_counter()
        for step in rnd.steps:
            step.call()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    spans, remote = tracer.take()
    summary = tracing.summarise([(wall, spans, remote)], [([], [])])
    parts = sum(summary[k] for k in tracing.TIMED_METRICS if k.endswith(".s")) + summary["other.s"]
    gap = abs(parts - summary["traced.run_s"])
    expect("trace: self times + other.s == traced.run_s", [] if gap < 1e-6 else [f"off by {gap}"], False)
    solves = summary["pipeline.retain_partial.solves"]
    expect("trace: retraction re-solves recorded", [] if solves > 0 else ["no retain_partial solves"], False)


def main() -> int:
    for name, value in SMALL.items():
        setattr(workloads, name, value)
    for test in (test_learn_noisy, test_learn_conflict, test_eval_world, test_check_wide, test_trace_adds_up, test_smoke_runs):
        test()
    print(f"{len(failures)} failure(s)")
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
