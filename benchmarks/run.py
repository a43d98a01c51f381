"""ammlab benchmark: one workload, one seed, driven through ``ammlab.cli.main``.

    python3 benchmarks/run.py --workload train-smoke --seed 1 --seconds 35 --trace 0

Set-up makes the workload's inputs from the seed in a fresh process, several
times, and reports the median as ``setup_s``. Then the workload's commands
run again and again in this process for ``--seconds`` seconds; every
iteration's outputs are checked; untraced iterations are timed at reference
host speed (``HostSpeed``). With ``--trace 0`` the last line of output is a
JSON object with the end-to-end metrics; with ``--trace 1`` iterations
alternate untraced and traced (see ``tracing.py``) and the JSON holds the
per-layer metrics. Human-readable lines, starting with ``#``, come first.
"""

from __future__ import annotations

import os

# ROADMAP baselines are taken at one BLAS thread; the sweep's thread pool
# stays off so the default serial path runs. Both before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RAMMSTEIN_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/ammlab/cli.py", "configs/smoke.json", "configs/stationary.json")
WORKLOADS = ("train-smoke", "evaluate-recorded", "oracle-qvi")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
FULL_PROFILE_STEPS = 300 * 36_000

# Per-layer metrics: (metric, unit, span, statistic). Counts and seconds are
# per traced iteration; "p50_us" and "self_p50_us" are per call.
LAYER_METRICS = [
    ("neural.forward.b128.us_p50", "us", "neural.forward.b128", "p50_us"),
    ("neural.backward.us_p50", "us", "neural.backward", "p50_us"),
    ("neural.adam_update.us_p50", "us", "neural.adam_update", "p50_us"),
    ("neural.forward.b1.us_p50", "us", "neural.forward.b1", "p50_us"),
    ("neural.forward.b1.calls", "count", "neural.forward.b1", "calls"),
    ("neural.copy_parameters.calls", "count", "neural.copy_parameters", "calls"),
    ("agent.DdqnAgent.train_step.self_us_p50", "us", "agent.DdqnAgent.train_step", "self_p50_us"),
    ("agent.ReplayBuffer.sample.us_p50", "us", "agent.ReplayBuffer.sample", "p50_us"),
    ("agent.ReplayBuffer.push.us_p50", "us", "agent.ReplayBuffer.push", "p50_us"),
    ("agent.select_action.self_us_p50", "us", "agent.select_action", "self_p50_us"),
    ("agent.updates", "count", "agent.DdqnAgent.train_step", "calls"),
    ("agent.train.self_s", "s", "agent.train", "self_s"),
    ("envsim.LpEnv.step.self_us_p50", "us", "envsim.LpEnv.step", "self_p50_us"),
    ("envsim.LpEnv.step.calls", "count", "envsim.LpEnv.step", "calls"),
    ("envsim.build_state.us_p50", "us", "envsim.build_state", "p50_us"),
    ("envsim.build_state.calls", "count", "envsim.build_state", "calls"),
    ("envsim.FeatureTrack.s", "s", "envsim.FeatureTrack", "total_s"),
    ("envsim.write_trace_csv.s", "s", "envsim.write_trace_csv", "total_s"),
    ("ammcore.fee_step.calls", "count", "ammcore.fee_step", "calls"),
    ("ammcore.fee_step.busy_s", "s", "ammcore.fee_step", "total_s"),
    ("ammcore.recenter.calls", "count", "ammcore.recenter", "calls"),
    ("regime.rolling_estimates.s", "s", "regime.rolling_estimates", "total_s"),
    ("synthpath.simulate_schedule.s", "s", "synthpath.simulate_schedule", "total_s"),
    ("marketdata.read_trades_csv.s", "s", "marketdata.read_trades_csv", "total_s"),
    ("marketdata.aggregate.s", "s", "marketdata.aggregate", "total_s"),
    ("marketdata.write_bars_csv.s", "s", "marketdata.write_bars_csv", "total_s"),
    ("marketdata.read_bars_csv.s", "s", "marketdata.read_bars_csv", "total_s"),
    ("marketdata.read_bars_csv.calls", "count", "marketdata.read_bars_csv", "calls"),
    ("strategies.lancelot.decide.us_p50", "us", "strategies.lancelot.decide", "p50_us"),
    ("strategies.galahad.decide.us_p50", "us", "strategies.galahad.decide", "p50_us"),
    ("strategies.rammstein.decide.us_p50", "us", "strategies.rammstein.decide", "p50_us"),
    ("backtest.run.calls", "count", "backtest.run", "calls"),
    ("backtest.run.self_s", "s", "backtest.run", "self_s"),
    ("backtest.gas_sweep.s", "s", "backtest.gas_sweep", "total_s"),
    ("qvi.solve.s", "s", "qvi.solve", "total_s"),
    ("qvi.write_solution_csv.s", "s", "qvi.write_solution_csv", "total_s"),
    ("qvi.write_boundary_csv.s", "s", "qvi.write_boundary_csv", "total_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("cli.train.self_s", "s", "cli.train", "self_s"),
    ("cli.ingest.self_s", "s", "cli.ingest", "self_s"),
    ("cli.estimate.self_s", "s", "cli.estimate", "self_s"),
    ("cli.backtest.self_s", "s", "cli.backtest", "self_s"),
    ("cli.sweep-gas.self_s", "s", "cli.sweep-gas", "self_s"),
    ("cli.qvi.self_s", "s", "cli.qvi", "self_s"),
    ("config.load.s", "s", "config.load", "total_s"),
]
PER_ITERATION = {"calls", "total_s", "self_s"}


class Tally:
    """Operations attempted (commands plus output checks) and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def record(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)

    def checks(self, label: str, fn, *args) -> None:
        try:
            results = fn(*args)
        except Exception as exc:  # a missing or malformed output fails the check
            self.record(False, f"{label}: {type(exc).__name__}: {exc}")
            return
        for name, ok in results:
            self.record(ok, name)


@dataclass
class Measured:
    tally: Tally = field(default_factory=Tally)
    walls: dict = field(default_factory=lambda: {False: [], True: []})  # traced? -> seconds
    walls_ref: list = field(default_factory=list)  # untraced seconds at reference host speed
    slowdowns: list = field(default_factory=list)  # untraced: HostSpeed.slowdown() per iteration
    sampler_s: float = 0.0  # untraced: seconds spent sampling, excluded from walls
    stages: dict = field(default_factory=dict)  # stage -> untraced seconds
    tracer: object = None
    sweep_runs: int = 0  # backtests run inside sweep-gas, traced iterations
    sha: str | None = None  # train-smoke checkpoint of the first iteration


def _setup_once(args, work: Path) -> tuple[float, float]:
    """Seconds one set-up took, as measured and at reference host speed."""
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "setup_once.py"), args.workload, str(args.seed), str(work)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd)
    # wait() with a timeout polls in steps of up to 50 ms, which would round
    # the set-up time; without one it blocks until the child exits.
    killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
    elapsed = perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)
    host = json.loads((work / "setup_host.json").read_text())
    return elapsed, (elapsed - host["spent_s"]) / host["slowdown"]


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "RAMMSTEIN_THREADS": os.environ.get("RAMMSTEIN_THREADS", "unset"),
        "seed": seed,
    }


def _layer_metrics(summary: dict, iterations: int, plan: dict, sweep_runs: int, overhead_s: float) -> dict:
    metrics = {}
    for name, unit, span, stat in LAYER_METRICS:
        value = summary[span][stat] if span in summary else 0.0
        if stat in PER_ITERATION:
            value /= iterations
        metrics[name] = (float(value), unit)
    metrics["qvi.solve.iterations"] = (summary["counters"].get("qvi.solve.iterations", 0) / iterations, "count")
    # backtests the gas sweep runs per strategy; 1 would mean one run per curve
    per_strategy = sweep_runs / iterations / plan["sweep_strategies"] if "sweep_strategies" in plan else 0.0
    metrics["backtest.runs_per_strategy"] = (per_strategy, "runs/strategy")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def measure(args, plan: dict, work: Path) -> Measured:
    """Run iterations of the workload for ``args.seconds`` seconds."""
    import workloads
    from tracing import Tracer

    m = Measured(tracer=Tracer() if args.trace else None)
    host = HostSpeed()
    tally, walls, tracer = m.tally, m.walls, m.tracer
    out = work / "out"
    t_start = perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        shutil.rmtree(out, ignore_errors=True)
        # a user runs each command in a fresh process: start every iteration
        # without the previous one's cyclic garbage, untimed
        gc.collect()
        run_marks = [tracer.calls("backtest.run")] if traced else []

        def on_command(name, rc):
            tally.record(rc == 0, f"{name} exits 0 (got {rc})")
            if traced:
                run_marks.append(tracer.calls("backtest.run"))
                if name == "sweep":
                    m.sweep_runs += run_marks[-1] - run_marks[-2]

        if traced:
            t0 = perf_counter()
            with tracer:
                workloads.run_commands(plan, out, on_command)
            walls[True].append(perf_counter() - t0)
        else:
            spent0 = host.spent
            with host:
                t0 = host.clock()
                stage_s = workloads.run_commands(plan, out, on_command, host.clock)
                wall = host.clock() - t0
            walls[False].append(wall)
            m.walls_ref.append(wall / host.slowdown())
            m.slowdowns.append(host.slowdown())
            m.sampler_s += host.spent - spent0
            for stage, s in stage_s.items():
                m.stages.setdefault(stage, []).append(s)

        tally.checks("output checks", workloads.CHECKS[args.workload], plan, out)
        if args.workload == "train-smoke":
            sha = workloads.checkpoint_sha256(out) if (out / "train" / "checkpoint.json").exists() else None
            m.sha = m.sha or sha
            label = "traced" if traced else "repeated"
            tally.record(sha is not None and sha == m.sha, f"{label} checkpoint bytes equal the first run's")

        n = len(walls[False]) + len(walls[True])
        elapsed = perf_counter() - t_start
        enough = walls[False] and (tracer is None or walls[True])
        if enough and elapsed * (n + 1) / n > args.seconds:
            return m


def report(args, plan: dict, work: Path, setups: list[tuple[float, float]], m: Measured) -> None:
    tally, walls, stages, tracer, sweep_runs, sha = m.tally, m.walls, m.stages, m.tracer, m.sweep_runs, m.sha
    print(f"# env {json.dumps(_environment(args.seed), sort_keys=True)}")
    for traced in (False, True):
        if walls[traced]:
            label = "traced" if traced else "untraced"
            print(f"# {label} iteration seconds ({len(walls[traced])}): {' '.join(f'{w:.3f}' for w in walls[traced])}")
    ref = " ".join(f"{w:.3f}" for w in m.walls_ref)
    print(f"# untraced iteration seconds at reference speed ({len(m.walls_ref)}): {ref}")
    if sha:
        print(f"# checkpoint sha256 {sha}")
    for label in tally.failed:
        print(f"# FAILED {label}")

    wall_s = statistics.median(walls[False])
    e2e = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "wall_ref_s": (statistics.median(m.walls_ref), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "wall_s": (wall_s, "s"),
        "setup_raw_s": (statistics.median(raw for raw, _ in setups), "s"),
        "host_slowdown": (statistics.median(m.slowdowns), "x"),
        "sampler_overhead_frac": (m.sampler_s / (m.sampler_s + sum(walls[False])), "share"),
        "failed_frac": (len(tally.failed) / tally.attempted, "share"),
    }
    for stage, values in stages.items():
        extra[f"{stage}_s"] = (statistics.median(values), "s")
    if "train_steps" in plan:
        steps_per_s = plan["train_steps"] / extra["train_s"][0]
        extra["train_steps_per_s"] = (steps_per_s, "steps/s")
        extra["full_profile_projected_h"] = (FULL_PROFILE_STEPS / steps_per_s / 3600.0, "h")

    if tracer is None:
        metrics = e2e
    else:
        overhead = statistics.median(walls[True]) - wall_s
        extra["trace.overhead_frac"] = (overhead / wall_s, "share")
        tracer.write(work.parent / f"trace-{args.workload}-s{args.seed}.json")
        metrics = _layer_metrics(tracer.summary(), len(walls[True]), plan, sweep_runs, overhead)

    for name, (value, unit) in {**e2e, **extra, **metrics}.items():
        print(f"# metric {name} {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": not tally.failed,
                "attempted": tally.attempted,
                "failed": len(tally.failed),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes; not for measurement")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: program files not found: {', '.join(missing)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        try:
            setups = [_setup_once(args, work) for _ in range(SETUP_REPEATS)]
        except subprocess.CalledProcessError as exc:  # a hung set-up is killed, exit -9
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        plan = json.loads((work / "inputs" / "plan.json").read_text())
        report(args, plan, work, setups, measure(args, plan, work))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
