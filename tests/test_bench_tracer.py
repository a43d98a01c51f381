"""The benchmark's tracer still wraps the layers whose metrics it reports.

``benchmarks/tracing.Tracer`` skips a name it cannot find, so a renamed
function would make its per-layer metrics read 0 without an error. These
tests only read ``benchmarks/``.
"""

import importlib.util
from pathlib import Path

import numpy as np

from ammlab import backtest, envsim, marketdata, strategies

TRACING = Path(__file__).parent.parent / "benchmarks" / "tracing.py"
LAYERS = [
    (envsim, "write_trace_csv", "envsim.write_trace_csv"),
    (backtest, "run", "backtest.run"),
    (backtest, "gas_sweep", "backtest.gas_sweep"),
    (envsim.LpEnv, "step", "envsim.LpEnv.step"),
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_wraps_trace_layers(tmp_path):
    closes = 100.0 + 0.5 * np.sin(np.arange(20) / 3.0)
    series = marketdata.BarSeries(
        t=np.arange(20), open=closes, high=closes, low=closes, close=closes, volume=np.full(20, 1000.0)
    )
    originals = [getattr(owner, attr) for owner, attr, _ in LAYERS]
    with load_tracer() as tracer:
        for (owner, attr, _), original in zip(LAYERS, originals):
            assert getattr(owner, attr) is not original, attr
        backtest.gas_sweep([("lancelot", strategies.Lancelot)], series, (1.0, 2.0))
        _, trace = backtest.run(strategies.Lancelot(), series)
        envsim.write_trace_csv(tmp_path / "trace.csv", trace)
        env = envsim.LpEnv(series, episode_length=5)
        env.reset(0)
        env.step(1)
    assert [tracer.calls(name) for *_, name in LAYERS] == [1, 2, 1, 1]
    assert [getattr(owner, attr) for owner, attr, _ in LAYERS] == originals
