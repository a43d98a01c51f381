"""Self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

Runs every workload untraced and traced at ``--tiny`` sizes and checks that
the result line has the agreed keys, that no operation failed, that every
metric named in BENCHMARK.json is printed with its unit, and that the
human-readable lines name each workload's end-to-end metrics. It also checks
that the benchmark refuses to run, without printing a result, in a copy that
holds only BENCHMARK.json and the benchmark's own files. Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# printed on "# metric" lines; the gated subset is in BENCHMARK.json
SHOWN = {
    "train-smoke": {"train_steps_per_s": "steps/s", "full_profile_projected_h": "h"},
    "evaluate-recorded": {"ingest_s": "s", "estimate_s": "s", "backtest_s": "s", "sweep_s": "s"},
    "oracle-qvi": {"qvi_s": "s"},
}
SHOWN_EVERYWHERE = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "wall_s": "s",
    "setup_raw_s": "s",
    "host_slowdown": "x",
    "sampler_overhead_frac": "share",
    "peak_rss_mb": "MB",
    "failed_frac": "share",
}


def _run(root: Path, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "benchmarks" / "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny")
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        failed = [ln for ln in lines if ln.startswith("# FAILED")]
        problems.append(f"{where}: operations failed: {failed}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {set(got) ^ set(wanted)}")
    shown = {}
    for ln in lines:
        if ln.startswith("# metric "):
            _, _, name, value, unit = ln.split()
            float(value)
            shown[name] = unit
    for name, unit in {**SHOWN_EVERYWHERE, **SHOWN[workload]}.items():
        if shown.get(name) != unit:
            problems.append(f"{where}: {name} not printed with unit {unit}")
    return problems


def check_refuses_without_program() -> list[str]:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "oracle-qvi", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_program()
    for workload in SHOWN:
        for trace in (0, 1):
            problems += check_workload(spec, workload, trace)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
