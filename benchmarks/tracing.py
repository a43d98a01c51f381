"""Per-layer spans recorded from outside the program.

The tracer replaces public functions and methods of the ``ammlab`` modules
with thin wrappers that time each call, then puts the originals back. The
program is not edited: callers reach the wrappers because they look the
names up at call time (``neural.forward(...)`` inside ``agent``, the
module-global ``select_action`` inside ``agent.train``, methods through the
class). Wrappers only observe arguments and results, so RNG streams and
output bytes are the same as in an untraced run.

Spans nest. Each span's self time is its duration minus the durations of
the spans opened directly inside it.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from ammlab import (
    agent,
    ammcore,
    backtest,
    cli,
    config,
    envsim,
    marketdata,
    neural,
    qvi,
    regime,
    strategies,
    synthpath,
)


class _Span:
    __slots__ = ("durations", "selfs", "parents")

    def __init__(self):
        self.durations = array("d")
        self.selfs = array("d")
        self.parents = Counter()


def _forward_name(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    rows = 1 if np.ndim(x) == 1 else len(x)
    return f"neural.forward.b{rows}"


class Tracer:
    """Patches the layer boundaries on entry and restores them on exit."""

    def __init__(self):
        self.spans: dict[str, _Span] = {}
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [name, time covered by children]
        self._saved: list[tuple] = []

    def __enter__(self):
        self._install()
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name=None, namer=None, on_result=None):
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_name = name or namer(args, kwargs)
            frame = [span_name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                span = spans.get(span_name)
                if span is None:
                    span = spans[span_name] = _Span()
                span.durations.append(dur)
                span.selfs.append(dur - frame[1])
                span.parents[parent[0] if parent else None] += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attr, name=None, **kw):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr, None)
        if original is None:  # a later version may drop the name; its metrics read 0
            return
        self._saved.append((owner, attr, original))
        wrapped = self._wrap(original, name=name, **kw)
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def _install(self):
        def count_iterations(sol):
            self.counters["qvi.solve.iterations"] += sol.iterations

        module_functions = [
            (synthpath, ["simulate_schedule"]),
            (marketdata, ["read_trades_csv", "aggregate", "write_bars_csv", "read_bars_csv"]),
            (regime, ["rolling_estimates"]),
            (ammcore, ["fee_step", "recenter"]),
            (envsim, ["build_state", "write_trace_csv"]),
            (neural, ["forward_cached", "backward", "adam_update", "copy_parameters"]),
            (agent, ["train", "select_action", "ddqn_target"]),
            (backtest, ["run", "gas_sweep"]),
            (qvi, ["write_solution_csv", "write_boundary_csv"]),
            (config, ["load"]),
            (cli, ["main"]),
        ]
        for module, names in module_functions:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in names:
                self._patch(module, attr, f"{layer}.{attr}")
        self._patch(neural, "forward", namer=_forward_name)
        self._patch(qvi, "solve", "qvi.solve", on_result=count_iterations)

        methods = [
            (envsim.LpEnv, "step", "envsim.LpEnv.step"),
            (envsim.FeatureTrack, "__init__", "envsim.FeatureTrack"),
            (agent.DdqnAgent, "train_step", "agent.DdqnAgent.train_step"),
            (agent.ReplayBuffer, "sample", "agent.ReplayBuffer.sample"),
            (agent.ReplayBuffer, "push", "agent.ReplayBuffer.push"),
        ]
        for cls in vars(strategies).values():
            if isinstance(cls, type) and issubclass(cls, strategies.Strategy) and "decide" in vars(cls):
                methods.append((cls, "decide", f"strategies.{cls.name}.decide"))
        for cls, attr, name in methods:
            self._patch(cls, attr, name)

        for command in list(cli._COMMANDS):
            self._patch(cli._COMMANDS, command, f"cli.{command}")

    def calls(self, name: str) -> int:
        span = self.spans.get(name)
        return len(span.durations) if span else 0

    def summary(self) -> dict:
        """Per-span totals and medians, suitable for writing out as JSON."""
        out = {}
        for name, span in sorted(self.spans.items()):
            d = np.frombuffer(span.durations)
            s = np.frombuffer(span.selfs)
            out[name] = {
                "calls": len(d),
                "total_s": float(d.sum()),
                "self_s": float(s.sum()),
                "p50_us": float(np.median(d)) * 1e6,
                "self_p50_us": float(np.median(s)) * 1e6,
                "parents": {str(k): v for k, v in span.parents.items()},
            }
        out["counters"] = dict(self.counters)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=1, sort_keys=True)
