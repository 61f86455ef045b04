"""The library surface the benchmark's tracer wraps.

``hornbench/tracing.py`` installs timing wrappers on named attributes of
hornpipe modules and classes.  This test loads that file as it is and
checks that every name it wraps still exists, and runs the pipeline under
those wrappers so that every hook, including the ones that read library
internals, runs too.  Deleting or renaming a traced function or an
attribute a hook reads fails here and not only in the benchmark's self-test.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from hornpipe import evalharness, pipeline
from hornpipe.evalharness import Scenario
from hornpipe.ingestion import BundleSource, RawBundle
from hornpipe.parsing import parse_bias, parse_examples, parse_facts, parse_rules

TRACING = Path(__file__).resolve().parent.parent / "hornbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("hornbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _source(bid: str, timestamp: str, x: str, y: str) -> BundleSource:
    bundle = RawBundle(
        id=bid,
        timestamp=timestamp,
        violation_id=f"{bid}-v",
        nominal_id=f"{bid}-n",
        violation_facts=f"link({x},{y}).\n",
        violation_examples=f"pos(goal({x},{y})).\n",
        nominal_facts="",
        nominal_examples=f"neg(goal({y},{x})).\n",
    )
    return BundleSource(id=bid, timestamp=timestamp, fetch=lambda attempt: bundle)


def test_traced_names_exist_and_install_round_trips():
    tracing = _load_tracing()
    layers = (*tracing.TIMED_LAYERS, *tracing.SETUP_LAYERS)
    missing = [name for owner, attr, name, _, _ in layers if attr not in vars(owner)]
    assert not missing

    # the owners' attributes and every hornpipe module's bindings, which
    # install also rewires
    owners = {id(o): o for o, *_ in layers}
    owners.update((id(m), m) for n, m in sys.modules.items() if n.startswith("hornpipe"))
    before = {k: dict(vars(o)) for k, o in owners.items()}
    rules = parse_rules("goal(V0,V1):- link(V0,V1).")
    scene = Scenario("s", parse_facts("link(a,b)."), parse_examples("pos(goal(a,b)).\n"))
    sources = [_source("b-1", "2024-01-01", "a", "b"), _source("b-2", "2024-01-02", "c", "d")]
    bias = parse_bias("head_pred(goal,2).\nbody_pred(link,2).\nmax_vars(3).\nmax_body(2).\n")
    tracer = tracing.Tracer()
    tracer.install(layers)
    try:
        report = evalharness.evaluate(rules, [scene])
        learned = pipeline.run_pipeline(sources, bias, pipeline.PipelineConfig())
    finally:
        tracer.uninstall()
    assert report.metrics.tp == 1
    assert learned.final_hypothesis == rules
    spans, _ = tracer.take()
    assert "evalharness.evaluate" in [s[0] for s in spans]
    attrs: dict[str, list] = {}
    for name, _, _, _, counts in spans:
        attrs.setdefault(name, []).append(counts)
    tables, solves = attrs["cover.CoverCache.table"], attrs["learner.solve"]
    assert all(isinstance(c["hit"], bool) for c in tables)
    assert all(c["safe"] > 0 for c in solves)
    for k, o in owners.items():
        assert all(vars(o).get(attr) is value for attr, value in before[k].items())
