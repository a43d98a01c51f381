"""Command-line entry point exposing every pipeline stage as a subcommand.

Every command takes a JSON run config (validated against the published
schema before any work), an output directory, and a seed; all randomness
flows from that seed. Each run writes a manifest.json recording the
command, the config hash, and the artifacts produced, so any output can
be traced back to the exact configuration that made it; the manifest
also records the run's wall time, peak RSS, versions and thread settings.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import sys
import time

import numpy as np

from . import agent as agent_mod
from . import backtest as backtest_mod
from . import config as config_mod
from . import THREAD_ENV as _THREAD_ENV
from . import artifacts, envsim, marketdata, neural, qvi, regime, strategies, synthpath


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _build_parser() -> _Parser:
    parser = _Parser(prog="ammlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    flags = {
        "--strategy": dict(choices=config_mod.STRATEGY_NAMES, help="strategy name override"),
        "--checkpoint": dict(help="policy checkpoint path"),
        "--profile": dict(choices=list(config_mod.PROFILES), help="training profile"),
    }
    for name, help_text, own_flags in [
        ("ingest", "aggregate a trade CSV into 1 Hz bars", []),
        ("synth", "generate a synthetic bar series from the configured schedule", []),
        ("estimate", "rolling regime estimates for every bar", []),
        ("train", "train the rebalancing agent and write a checkpoint", ["--profile"]),
        ("backtest", "run one strategy over the configured data", ["--strategy", "--checkpoint"]),
        ("sweep-gas", "backtest strategies across gas-cost levels", ["--checkpoint"]),
        ("qvi", "solve the impulse-control oracle and export value/boundary", []),
        ("heatmap", "export the Q-difference grid for a checkpoint", ["--checkpoint"]),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run-config JSON path")
        p.add_argument("--out", required=True, help="output directory (all writes go here)")
        p.add_argument("--seed", type=_seed, default=None, help="override the config seed (>= 0)")
        for flag in own_flags:
            p.add_argument(flag, **flags[flag])
    return parser


def _load_series(doc, seed):
    data = doc.get("data", {})
    if "bars_csv" in data:
        series = marketdata.read_bars_csv(data["bars_csv"])
    elif "synth" in data:
        series = synthpath.simulate_schedule(config_mod.schedule(doc), seed)
    else:
        raise config_mod.ConfigError("config needs data.bars_csv or data.synth")
    return series


def _segment(doc, seed, name):
    """Segment `name` of the configured series under data.splits; the whole
    series without splits or for "all"."""
    series = _load_series(doc, seed)
    splits = doc.get("data", {}).get("splits")
    if splits is None or name == "all":
        return series
    train, val, test = marketdata.split(series, tuple(splits))
    segment = {"train": train, "val": val, "test": test}[name]
    if len(segment) == 0:
        raise config_mod.ConfigError(f"segment {name!r} is empty: data.splits {splits} of a {len(series)}-bar series")
    return segment


def _features(series, doc):
    return envsim.FeatureTrack(series, config_mod.estimate_window(doc))


def _backtest_segment(doc, seed):
    """The backtest.segment of the configured series and its features."""
    series = _segment(doc, seed, doc.get("backtest", {}).get("segment", "test"))
    return series, _features(series, doc)


def _write_manifest(out_dir, command, cfg_hash, seed, outputs, started):
    """Write manifest.json: what ran, what it wrote, and where the time went.

    ``started`` is the ``perf_counter`` reading at ``main`` entry. Peak RSS
    is the whole process's, in MB (``ru_maxrss`` is in KiB on Linux).
    """
    path = os.path.join(out_dir, "manifest.json")
    doc = {
        "command": command,
        "config_hash": cfg_hash,
        "seed": seed,
        "outputs": sorted(outputs),
        "wall_s": time.perf_counter() - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {var: os.environ.get(var, "unset") for var in _THREAD_ENV},
    }
    artifacts.write_json(path, doc)
    return path


_DEFAULT_STRATEGY = {"name": "lancelot"}


def _strategy(spec, checkpoint):
    """The strategy a validated spec names; --checkpoint applies to rammstein only."""
    name = spec["name"]
    params = dict(spec.get("params", {}))
    if name == "rammstein":
        if checkpoint:
            params["checkpoint"] = checkpoint
        if "checkpoint" not in params:
            raise config_mod.ConfigError("rammstein needs --checkpoint or a 'checkpoint' param")
    return strategies.make_strategy(name, params)


def cmd_ingest(args, doc, seed, cfg_hash, out_dir):
    trades_path = doc.get("data", {}).get("trades_csv")
    if trades_path is None:
        raise config_mod.ConfigError("ingest needs data.trades_csv")
    series = marketdata.aggregate(*marketdata.read_trades_csv(trades_path))
    return marketdata.write_bars_csv(os.path.join(out_dir, "bars.csv"), series)


def cmd_synth(args, doc, seed, cfg_hash, out_dir):
    series = synthpath.simulate_schedule(config_mod.schedule(doc), seed)
    return marketdata.write_bars_csv(os.path.join(out_dir, "bars.csv"), series)


def cmd_estimate(args, doc, seed, cfg_hash, out_dir):
    series = _load_series(doc, seed)
    theta, mu, sigma, valid = regime.rolling_estimates(series.close, config_mod.estimate_window(doc))
    # rolling_estimates clips theta to >= 0, so only theta == 0 and invalid entries are inf
    with np.errstate(divide="ignore", over="ignore"):
        half_life = np.where(valid & (theta > 0), math.log(2.0) / theta, math.inf)
    columns = (series.t, theta, mu, sigma, half_life, valid.astype(int))
    out = os.path.join(out_dir, "regime.csv")
    artifacts.write_columns(out, ["t", "theta", "mu", "sigma", "half_life", "valid"], columns)
    return [out]


def cmd_train(args, doc, seed, cfg_hash, out_dir):
    series = _segment(doc, seed, "train")
    tc = config_mod.train_config(doc, seed)
    if len(series) <= tc.episode_length:
        raise config_mod.ConfigError(
            f"train.episode_length {tc.episode_length} needs more bars than the "
            f"{len(series)}-bar training segment"
        )
    env = envsim.LpEnv(
        series,
        config_mod.pool_config(doc),
        config_mod.reward_params(doc),
        features=_features(series, doc),
    )
    agent, log_rows = agent_mod.train(env, tc)
    ckpt = os.path.join(out_dir, "checkpoint.json")
    neural.save_checkpoint(
        ckpt,
        agent.online,
        metadata={"seed": seed, "training_step": agent.updates, "config_hash": cfg_hash},
    )
    log = os.path.join(out_dir, "training_log.csv")
    agent_mod.write_train_log(log, log_rows)
    return [ckpt, log]


def cmd_backtest(args, doc, seed, cfg_hash, out_dir):
    spec = doc.get("strategy", _DEFAULT_STRATEGY)
    if args.strategy not in (None, spec["name"]):
        spec = {"name": args.strategy}  # the config's params belong to its own strategy
    strategy = _strategy(spec, args.checkpoint)
    series, features = _backtest_segment(doc, seed)
    report, trace = backtest_mod.run(strategy, series, config_mod.pool_config(doc), features=features)
    trace_path = os.path.join(out_dir, "trace.csv")
    envsim.write_trace_csv(trace_path, trace)
    report = dataclasses.replace(report, config_hash=cfg_hash, trace_path=trace_path)
    report_path = os.path.join(out_dir, "report.json")
    backtest_mod.write_report_json(report_path, report)
    return [report_path, trace_path]


def cmd_sweep_gas(args, doc, seed, cfg_hash, out_dir):
    sweep = doc.get("sweep", {})
    specs = sweep.get("strategies") or [doc.get("strategy", _DEFAULT_STRATEGY)]
    levels = {"gas_levels": sweep["gas_levels"]} if "gas_levels" in sweep else {}
    built = [_strategy(s, args.checkpoint) for s in specs]
    series, features = _backtest_segment(doc, seed)
    pool = config_mod.pool_config(doc)
    rows, break_evens = backtest_mod.gas_sweep(built, series, cfg=pool, features=features, **levels)

    sweep_path = os.path.join(out_dir, "gas_sweep.csv")
    backtest_mod.write_gas_sweep_csv(sweep_path, rows)
    be_path = os.path.join(out_dir, "break_even.json")
    artifacts.write_json(be_path, {"config_hash": cfg_hash, "break_even_gas": break_evens})
    return [sweep_path, be_path]


def cmd_qvi(args, doc, seed, cfg_hash, out_dir):
    q = doc.get("qvi", {})
    ou = synthpath.OuParams(q.get("theta", 0.05), q.get("mu", 100.0), q.get("sigma", 0.5))
    pool = config_mod.pool_config(doc)
    grid = {key: q[key] for key in ("n_s", "n_c", "span_sigmas", "rho", "ref_volume", "cost") if key in q}
    try:
        problem = qvi.QviProblem.default(ou, pool, **grid)
    except ValueError as exc:
        raise config_mod.ConfigError(f"qvi: {exc}") from None
    tol = q.get("tol", 1e-6)
    sol = qvi.solve(problem, tol=tol, max_iters=q.get("max_iters", 20_000))
    if not sol.converged:
        inner = "no" if sol.settled else "an"
        print(
            f"warning: qvi did not converge in {sol.iterations} outer iterations "
            f"(last sup change {sol.sup_change:.3g}, tol {tol:g}); "
            f"{inner} inner active-set solve was cut short",
            file=sys.stderr,
        )
    sol_path = os.path.join(out_dir, "qvi_solution.csv")
    qvi.write_solution_csv(sol_path, sol)
    b_path = os.path.join(out_dir, "qvi_boundary.csv")
    qvi.write_boundary_csv(b_path, sol)
    meta_path = os.path.join(out_dir, "qvi_meta.json")
    artifacts.write_json(
        meta_path,
        {
            "config_hash": cfg_hash,
            "converged": sol.converged,
            "iterations": sol.iterations,
            "sup_change": sol.sup_change,
            "sup_change_history": sol.sup_change_history,
            "policy_iterations": sol.policy_iterations,
            "eliminated_rows": sol.eliminated_rows,
            "substituted_rows": sol.substituted_rows,
            "fee_rate": problem.fee_rate(),
            "cost": problem.cost_value(),
            "obstacle_violation": qvi.obstacle_violation(sol),
            "max_complementarity_residual": float(qvi.complementarity_residual(sol).max()),
        },
    )
    return [sol_path, b_path, meta_path]


def cmd_heatmap(args, doc, seed, cfg_hash, out_dir):
    if not args.checkpoint:
        raise config_mod.ConfigError("heatmap needs --checkpoint")
    net, _, _ = neural.load_checkpoint(args.checkpoint)
    series = _load_series(doc, seed)
    features = _features(series, doc)
    h = doc.get("heatmap", {})
    theta_axis = np.linspace(*config_mod.heatmap_theta_range(doc), h.get("theta_points", 41))
    d_edge_axis = np.linspace(-1.0, 1.0, h.get("d_edge_points", 41))
    pool = config_mod.pool_config(doc)
    columns, ok = features.bar_columns, features.valid
    grid = backtest_mod.heatmap(
        net,
        theta_axis,
        d_edge_axis,
        width=pool.width,
        sigma_norm=float(np.median(columns[ok, 2])) if ok.any() else 0.0,
        recent_vol=float(np.median(columns[:, 3])),
    )
    out = os.path.join(out_dir, "heatmap.csv")
    backtest_mod.write_heatmap_csv(out, grid)
    return [out]


_COMMANDS = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "estimate": cmd_estimate,
    "train": cmd_train,
    "backtest": cmd_backtest,
    "sweep-gas": cmd_sweep_gas,
    "qvi": cmd_qvi,
    "heatmap": cmd_heatmap,
}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        doc = config_mod.load(args.config)
        if args.command == "train":
            doc = config_mod.apply_profile(doc, args.profile)
        seed = args.seed if args.seed is not None else doc.get("seed", 0)
    except (config_mod.ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    made_out = not os.path.exists(args.out)
    try:
        os.makedirs(args.out, exist_ok=True)
        cfg_hash = config_mod.config_hash(doc)
        outputs = _COMMANDS[args.command](args, doc, seed, cfg_hash, args.out)
        outputs.append(_write_manifest(args.out, args.command, cfg_hash, seed, outputs, started))
        return 0
    except config_mod.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except Exception as exc:  # runtime failure, distinct from config errors
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    if made_out:
        # only the leaf this call made, and only while empty: partial outputs stay
        with contextlib.suppress(OSError):
            os.rmdir(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
