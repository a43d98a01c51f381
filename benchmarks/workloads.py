"""Seeded inputs, command plans and output checks for the benchmark workloads.

Each workload is a fixed list of ``ammlab`` subcommands run on inputs made
here from the seed. Set-up writes those inputs and a ``plan.json`` that
names the commands; the program sees only the files and configs.
``setup_once.py`` runs one set-up in a fresh process.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ammlab import agent, cli, neural  # noqa: E402

# Sizes of one iteration. "tiny" is for the self-test only.
SIZES = {
    "full": {
        "episodes": 1,
        "episode_length": 3600,
        "recorded_seconds": 10_000,
        "qvi_grid": (400, 100),
        "qvi_fine": (800, 200),
    },
    "tiny": {
        "episodes": 1,
        "episode_length": 300,
        "recorded_seconds": 2_500,
        "qvi_grid": (80, 20),
        "qvi_fine": (160, 40),
    },
}
# 0.01 takes about 40 outer iterations, 0.05 and above take 3 to 4
QVI_THETAS = (0.01, 0.02, 0.05, 0.1)
QVI_FINE_THETA = 0.05
TRADES_PER_SECOND = 2.0  # Poisson mean; about 13% of seconds have no trade
TRADE_T0_MS = 1_700_000_000_000
AFFINE_RTOL = 1e-9


def _base_config(name: str) -> dict:
    return json.loads((ROOT / "configs" / name).read_text())


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _command(out: str, *argv) -> dict:
    return {"out": out, "argv": [str(a) for a in argv]}


def setup_train_smoke(seed: int, inputs: Path, outputs: Path, size: dict) -> dict:
    doc = _base_config("smoke.json")
    doc["seed"] = seed
    doc["train"].update(episodes=size["episodes"], episode_length=size["episode_length"])
    cfg = _write_json(inputs / "train.json", doc)
    return {
        "stages": [["train", [_command("train", "train", "--config", cfg, "--seed", seed)]]],
        "episodes": size["episodes"],
        "train_steps": size["episodes"] * size["episode_length"],
    }


def _ou_path(rng, n: int) -> np.ndarray:
    """Two OU regimes (strong, then weak mean reversion) around 100, at 1 Hz."""
    out = np.empty(n)
    s = 100.0
    for k in range(n):
        theta, sigma = (0.05, 0.05) if k < n // 2 else (0.0005, 0.03)
        decay = math.exp(-theta)
        s = 100.0 + (s - 100.0) * decay + rng.normal() * sigma * math.sqrt((1 - decay * decay) / (2 * theta))
        out[k] = s
    return out


def write_trades_csv(path: Path, seed: int, seconds: int) -> tuple[int, int]:
    """OU prices, Poisson trade counts (with tradeless seconds), exponential sizes.

    Returns the first and last trade second.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    path_prices = _ou_path(rng, seconds)
    counts = rng.poisson(TRADES_PER_SECOND, size=seconds)
    counts[0] = max(counts[0], 1)
    counts[-1] = max(counts[-1], 1)
    second = np.repeat(np.arange(seconds), counts)
    offset_ms = rng.integers(0, 1000, size=len(second))
    order = np.lexsort((offset_ms, second))
    second, offset_ms = second[order], offset_ms[order]
    price = path_prices[second] * (1.0 + 1e-5 * rng.standard_normal(len(second)))
    size = rng.exponential(1.0, size=len(second))
    t0 = TRADE_T0_MS // 1000
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp_ms", "price", "size"])
        for sec, off, p, q in zip(second.tolist(), offset_ms.tolist(), price.tolist(), size.tolist()):
            writer.writerow([TRADE_T0_MS + 1000 * sec + off, repr(p), repr(q)])
    return t0, t0 + seconds - 1


def setup_evaluate_recorded(seed: int, inputs: Path, outputs: Path, size: dict) -> dict:
    trades = inputs / "trades.csv"
    first, last = write_trades_csv(trades, seed, size["recorded_seconds"])
    ingest_cfg = _write_json(inputs / "ingest.json", {"seed": seed, "data": {"trades_csv": str(trades)}})

    checkpoint = inputs / "policy.json"
    neural.save_checkpoint(checkpoint, neural.Mlp(agent.Q_NET_DIMS, seed=seed), metadata={"seed": seed})

    doc = _base_config("smoke.json")
    doc["seed"] = seed
    doc["data"] = {"bars_csv": str(outputs / "ingest" / "bars.csv")}
    cfg = _write_json(inputs / "evaluate.json", doc)
    common = ("--config", cfg, "--seed", seed)
    # merlin is backtested too, so its active_frac can be checked
    backtests = [
        _command(f"backtest-{name}", "backtest", *common, "--strategy", name, *extra)
        for name, extra in [
            ("lancelot", ()),
            ("galahad", ()),
            ("rammstein", ("--checkpoint", checkpoint)),
            ("merlin", ()),
        ]
    ]
    return {
        "stages": [
            ["ingest", [_command("ingest", "ingest", "--config", ingest_cfg, "--seed", seed)]],
            ["estimate", [_command("estimate", "estimate", *common)]],
            ["backtest", backtests],
            ["sweep", [_command("sweep", "sweep-gas", *common)]],
        ],
        "first_second": first,
        "last_second": last,
        "sweep_strategies": len(doc["sweep"]["strategies"]),
    }


def setup_oracle_qvi(seed: int, inputs: Path, outputs: Path, size: dict) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    # small jitter: the inputs differ per seed while the iteration counts stay put
    points = [(theta, size["qvi_grid"]) for theta in QVI_THETAS] + [(QVI_FINE_THETA, size["qvi_fine"])]
    commands = []
    for k, (theta, (n_s, n_c)) in enumerate(points):
        doc = _base_config("stationary.json")
        doc["seed"] = seed
        doc["qvi"].update(theta=theta * (1.0 + rng.uniform(-0.02, 0.02)), n_s=n_s, n_c=n_c)
        cfg = _write_json(inputs / f"qvi-{k}.json", doc)
        commands.append(_command(f"qvi-{k}", "qvi", "--config", cfg, "--seed", seed))
    return {"stages": [["qvi", commands]], "mu": _base_config("stationary.json")["qvi"]["mu"]}


SETUPS = {
    "train-smoke": setup_train_smoke,
    "evaluate-recorded": setup_evaluate_recorded,
    "oracle-qvi": setup_oracle_qvi,
}


def setup(workload: str, seed: int, workdir: Path, tiny: bool = False) -> dict:
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    plan = SETUPS[workload](seed, inputs, workdir / "out", SIZES["tiny" if tiny else "full"])
    plan.update(workload=workload, seed=seed)
    _write_json(inputs / "plan.json", plan)
    return plan


# ---- output checks: each returns a list of (label, ok) -------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_train_smoke(plan: dict, out: Path) -> list[tuple[str, bool]]:
    rows = _read_csv(out / "train" / "training_log.csv")
    losses_ok = len(rows) == plan["episodes"] and all(math.isfinite(float(r["mean_loss"])) for r in rows)
    net, _, _ = neural.load_checkpoint(out / "train" / "checkpoint.json")
    return [
        ("one log row per episode, finite losses", losses_ok),
        ("checkpoint loads with Q_NET_DIMS", tuple(net.layer_dims) == tuple(agent.Q_NET_DIMS)),
    ]


def checkpoint_sha256(out: Path) -> str:
    return hashlib.sha256((out / "train" / "checkpoint.json").read_bytes()).hexdigest()


def _affine(curve: list[tuple[float, float]]) -> bool:
    (g0, r0), (g1, r1) = curve[0], curve[-1]
    scale = max(abs(r) for _, r in curve)
    slope = (r1 - r0) / (g1 - g0)
    return scale > 0 and all(abs(r0 + slope * (g - g0) - r) <= AFFINE_RTOL * scale for g, r in curve)


def check_evaluate_recorded(plan: dict, out: Path) -> list[tuple[str, bool]]:
    seconds = [int(r["t"]) for r in _read_csv(out / "ingest" / "bars.csv")]
    expected = list(range(plan["first_second"], plan["last_second"] + 1))
    checks = [("bars.csv has one row per second from first to last trade", seconds == expected)]
    for name in ("lancelot", "merlin"):
        report = json.loads((out / f"backtest-{name}" / "report.json").read_text())
        checks.append((f"{name} active_frac == 1.0", report["metrics"]["active_frac"] == 1.0))
    curves: dict[str, list] = {}
    for r in _read_csv(out / "sweep" / "gas_sweep.csv"):
        curves.setdefault(r["strategy"], []).append((float(r["gas"]), float(r["net_roi"])))
    checks.append(("sweep covers every configured strategy", len(curves) == plan["sweep_strategies"]))
    for name, curve in sorted(curves.items()):
        checks.append((f"{name} sweep ROI affine in gas", _affine(sorted(curve))))
    return checks


def check_oracle_qvi(plan: dict, out: Path) -> list[tuple[str, bool]]:
    mu = plan["mu"]
    checks = []
    for cmd in plan["stages"][0][1]:
        d = out / cmd["out"]
        meta = json.loads((d / "qvi_meta.json").read_text())
        with open(d / "qvi_solution.csv", newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            sides = {float(s) > mu for s, _, _, region in rows if region == "jump" and float(s) != mu}
        checks.append((f"{cmd['out']} converged", meta["converged"] is True))
        checks.append((f"{cmd['out']} jump nodes on both sides of mu", sides == {False, True}))
    return checks


CHECKS = {
    "train-smoke": check_train_smoke,
    "evaluate-recorded": check_evaluate_recorded,
    "oracle-qvi": check_oracle_qvi,
}


def run_commands(plan: dict, out: Path, on_command, clock=perf_counter) -> dict[str, float]:
    """Run every command of one iteration through ``ammlab.cli.main``.

    ``on_command(out_name, exit_code)`` is told the result of each command.
    Returns seconds per stage by ``clock``; the stages run back to back.
    """
    stage_s = {}
    for stage, commands in plan["stages"]:
        t0 = clock()
        for cmd in commands:
            rc = cli.main(cmd["argv"] + ["--out", str(out / cmd["out"])])
            on_command(cmd["out"], rc)
        stage_s[stage] = clock() - t0
    return stage_s

