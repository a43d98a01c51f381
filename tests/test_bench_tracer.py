"""The benchmark's tracer still wraps the layers whose metrics it reports.

``benchmarks/tracing.Tracer`` skips a name it cannot find, so a renamed
function would make its per-layer metrics read 0 without an error. These
tests only read ``benchmarks/``.
"""

import importlib.util
from pathlib import Path

import numpy as np

from ammlab import ammcore, backtest, envsim, marketdata, neural, strategies
from ammlab.agent import Q_NET_DIMS

TRACING = Path(__file__).parent.parent / "benchmarks" / "tracing.py"
LAYERS = [
    (envsim, "write_trace_csv", "envsim.write_trace_csv"),
    (backtest, "run", "backtest.run"),
    (backtest, "gas_sweep", "backtest.gas_sweep"),
    (envsim.LpEnv, "step", "envsim.LpEnv.step"),
    (strategies.Lancelot, "decide", "strategies.lancelot.decide"),
    (strategies.GalahadOu, "decide", "strategies.galahad.decide"),
    (strategies.PolicyStrategy, "decide", "strategies.rammstein.decide"),
    (ammcore, "fee_step", "ammcore.fee_step"),
    (ammcore, "recenter", "ammcore.recenter"),
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_wraps_trace_layers(tmp_path):
    n = 20
    closes = 100.0 + 0.5 * np.sin(np.arange(n) / 3.0)
    series = marketdata.BarSeries(
        t=np.arange(n), open=closes, high=closes, low=closes, close=closes, volume=np.full(n, 1000.0)
    )
    # seed 2 both holds and recenters
    policy = strategies.PolicyStrategy(neural.Mlp(Q_NET_DIMS, seed=2))
    swept = [strategies.Lancelot(), strategies.GalahadOu(), policy]
    traces = {s.name: backtest.run(s, series)[1] for s in swept}
    assert 0 < counted_decides(policy, series) < n
    recenters = {name: int(trace["action"].sum()) for name, trace in traces.items()}
    originals = [getattr(owner, attr) for owner, attr, _ in LAYERS]
    with load_tracer() as tracer:
        for (owner, attr, _), original in zip(LAYERS, originals):
            assert getattr(owner, attr) is not original, attr
        backtest.gas_sweep(swept, series, (1.0, 2.0))
        assert tracer.calls("backtest.run") == len(swept)  # one run per strategy, not per gas level
        _, trace = backtest.run(swept[0], series)
        envsim.write_trace_csv(tmp_path / "trace.csv", trace)
        env = envsim.LpEnv(series, episode_length=5)
        env.reset(0)
        env.step(1)
    assert min(recenters.values()) > 0
    expected = {
        "envsim.write_trace_csv": 1,
        "backtest.run": len(swept) + 1,
        "backtest.gas_sweep": 1,
        "envsim.LpEnv.step": 1,
        # lancelot is asked only at the out-of-band bar where it recenters
        "strategies.lancelot.decide": 2 * recenters["lancelot"],
        "strategies.galahad.decide": out_of_band_bars(traces["galahad"], closes[0]),
        # the policy decides bar by bar only in its short windows
        "strategies.rammstein.decide": counted_decides(policy, series),
        # held bars accrue through ammcore.hold; fee_step runs on recenter bars and the env step
        "ammcore.fee_step": sum(recenters.values()) + recenters["lancelot"] + 1,
        "ammcore.recenter": sum(recenters.values()) + recenters["lancelot"] + 1,
    }
    assert {name: tracer.calls(name) for *_, name in LAYERS} == expected
    assert [getattr(owner, attr) for owner, attr, _ in LAYERS] == originals


def out_of_band_bars(trace, center0, width=0.002):
    """Bars whose price lies outside the band held before their decision."""
    held = np.concatenate([[center0], trace["center"][:-1]])
    price = trace["price"]
    return int(np.count_nonzero(~((held * (1.0 - width) <= price) & (price <= held * (1.0 + width)))))


def counted_decides(strategy, series):
    """decide calls in one untraced run of `strategy`."""
    calls = []
    cls = type(strategy)
    decide = cls.decide

    def counted(self, *args):
        calls.append(args[0])
        return decide(self, *args)

    cls.decide = counted
    try:
        backtest.run(strategy, series)
    finally:
        cls.decide = decide
    return len(calls)
