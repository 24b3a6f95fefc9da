"""The benchmark under perfbench/ must still find every layer it traces.

Its tracer wraps public torusnf functions by module and name, so a renamed
or deleted layer would otherwise only show when the benchmark runs.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    flows = importlib.import_module("torusnf.flows")
    original = flows.compose_maps
    with tracer.LayerTracer():
        assert flows.compose_maps is not original
    assert flows.compose_maps is original
    for w in workloads.WORKLOADS.values():
        assert set(w.layers) <= set(tracer.LAYERS)
        assert w.entry in tracer.LAYERS
