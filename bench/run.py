"""Benchmark of relpoly: one workload per call, in fresh processes.

    python3 bench/run.py --workload exact-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload mc-grid --seed 1 --seconds 1 --trace 1 --quick

Workloads: exact-ladder, mc-grid, cli-mix (see README.md).
With ``--trace 0`` the last line of output is one JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  ``--quick`` runs one round of a reduced input set with all its
checks.  The program is imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-ladder", "mc-grid", "cli-mix")
# RELPOLY_WORKERS per workload; None removes it, so the default (1) applies
WORKERS = {"exact-ladder": "2", "mc-grid": "2", "cli-mix": None}
# set-up is measured in this many fresh processes per run; the median counts
SETUP_PROCESSES = 5
CHILD_TIMEOUT_S = 170


def child_env(workload: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("RELPOLY_WORKERS", None)
    if WORKERS[workload] is not None:
        env["RELPOLY_WORKERS"] = WORKERS[workload]
    return env


def run_child(workload: str, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Start worker.py; return (launch time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, *extra]
    launched = time.monotonic()
    done = subprocess.run(cmd, env=child_env(workload), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - launched))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with code {done.returncode}")
    return launched, json.loads(lines[-1])


def run_workload(workload: str, args, deadline: float) -> dict:
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        common.append("--quick")
    setups = []
    if not args.trace:
        for _ in range(1 if args.quick else SETUP_PROCESSES - 1):
            launched, res = run_child(workload, [*common, "--setup-only"], deadline)
            setups.append(res["ready"] - launched)
    launched, res = run_child(workload, common, deadline)
    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["ready"] - launched)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one round of reduced inputs")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "relpoly" / "__init__.py").is_file():
        print(f"error: no relpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        if args.workload == "all":
            deadline = time.monotonic() + CHILD_TIMEOUT_S
        try:
            results[name] = run_workload(name, args, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        print(f"# {name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"#   {key:34s} {m['value']:14.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
