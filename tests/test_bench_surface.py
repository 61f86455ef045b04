"""The library surface the benchmark's tracer wraps.

``hornbench/tracing.py`` installs timing wrappers on named attributes of
hornpipe modules and classes.  This test loads that file as it is and
checks that every name it wraps still exists, so deleting or renaming a
traced function fails here and not only in the benchmark's self-test.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from hornpipe import evalharness
from hornpipe.evalharness import Scenario
from hornpipe.parsing import parse_examples, parse_facts, parse_rules

TRACING = Path(__file__).resolve().parent.parent / "hornbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("hornbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    tracer = tracing.Tracer()
    tracer.install(layers)
    try:
        report = evalharness.evaluate(rules, [scene])
    finally:
        tracer.uninstall()
    assert report.metrics.tp == 1
    spans, _ = tracer.take()
    assert "evalharness.evaluate" in [s[0] for s in spans]
    for k, o in owners.items():
        assert all(vars(o).get(attr) is value for attr, value in before[k].items())
