"""The benchmark under perfbench/ must still find every layer it traces.

Its tracer wraps public torusnf functions by module and name, so a renamed
or deleted layer would otherwise only show when the benchmark runs.
"""

import importlib
from pathlib import Path

import pytest

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


def test_tracer_reads_flow_and_inverse_counts(monkeypatch):
    # the tracer reads FlowResult.step_count as flows.flow.rk4_steps and
    # MapInverse.iterations as flows.invert_map.iterations
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    flows = importlib.import_module("torusnf.flows")
    series = importlib.import_module("torusnf.series")
    c = series.PeriodicSeries.from_terms(2, 1, {(0, 1): 1e-3, (0, -1): 1e-3})
    v = (c, series.PeriodicSeries.zeros(2, 1))
    with tracer.LayerTracer() as trace:
        fr = flows.flow(v, 1.0, 0.5, 0.2, N_out=1)
        flows.flow(v, -1.0, 0.5, 0.2, N_out=1, line_integrand=c)
        flows.invert_map((fr.map,), 0.5, N_out=1)
    counts = trace.exact_counts()
    assert counts["flows.flow.calls"] == 2
    assert counts["flows.flow.rk4_steps"] > 0
    assert counts["flows.invert_map.iterations"] > 0


@pytest.mark.parametrize("name", ["n2-reparam", "n3-seeded", "annulus-realize"])
def test_first_item_reaches_every_listed_layer(name, monkeypatch):
    # a traced benchmark run fails on any listed layer that is never called.
    # The witnesses read their grids by FFT, so only stages after the first
    # non-affine one reach MapChain.apply and jacobian_det; the warm-up
    # inputs are seeded normal forms whose chains are affine and reach
    # neither, so a batch item is traced instead.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    w = workloads.WORKLOADS[name]
    item = w.make_batch(1)[0]
    with tracer.LayerTracer() as trace:
        outcome = w.run(item)
    assert not outcome.failure
    assert [layer for layer in w.layers if not trace.calls[layer]] == []
