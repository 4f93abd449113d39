"""One workload in one fresh process: set up, run whole rounds, verify.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints one JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Rounds:
    """Whole rounds of a fixed list of operations, with their outputs."""

    def __init__(self, ops):
        self.ops = ops
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.latencies: list[float] = []
        # per op label: {output key: [first output, times seen, raised]}
        self.outputs: dict[str, dict] = {op.label: {} for op in ops}

    def run(self, seconds: float) -> None:
        """Start rounds until ``seconds`` have passed; always at least one."""
        clock = time.perf_counter
        deadline = clock() + seconds
        while True:
            c0, w0 = cpu_seconds(), clock()
            for op in self.ops:
                t0 = clock()
                try:
                    out, raised = op.run(), None
                except Exception as exc:  # a failed operation, counted below
                    out, raised = None, exc
                self.latencies.append(clock() - t0)
                key = ("raised", repr(raised)) if raised else op.key(out)
                seen = self.outputs[op.label].setdefault(key, [out, 0, raised])
                seen[1] += 1
            w1 = clock()
            self.walls.append(w1 - w0)
            self.cpus.append(cpu_seconds() - c0)
            if w1 >= deadline:
                return

    @property
    def samples_per_round(self) -> int:
        return sum(op.samples for op in self.ops)


def verify(workload, phases: list[Rounds]) -> tuple[bool, int, int]:
    """Check every distinct output; returns (correct, attempted, failed)."""
    attempted = failed = wrong = 0
    first: dict[str, list] = {}
    for rounds in phases:
        attempted += len(rounds.walls) * len(rounds.ops)
        for op in rounds.ops:
            for out, times, raised in rounds.outputs[op.label].values():
                first.setdefault(op.label, [out])
                if raised is not None:
                    status, why = "failed", f"raised {raised!r}"
                else:
                    status, why = op.check(out)
                if status == "failed":
                    failed += times
                elif status != "ok":
                    wrong += times
                if status != "ok":
                    print(f"{status}: {op.label}: {why}", file=sys.stderr)
            if len(rounds.outputs[op.label]) > 1:
                # every operation is deterministic: same inputs, same output
                wrong += 1
                print(f"wrong: {op.label}: output changed between rounds", file=sys.stderr)
    problems = workload.cross_check(first)
    for p in problems:
        print(f"wrong: {p}", file=sys.stderr)
    return wrong == 0 and not problems, attempted, failed


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, rounds: Rounds) -> dict:
    return {
        "wall_s": (statistics.median(rounds.walls), "s"),
        "cpu_s": (statistics.median(rounds.cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(children=workload.name == "cli-mix"), "MB"),
        "op_ms.p50": (statistics.median(rounds.latencies) * 1e3, "ms"),
        "samples_per_s": (statistics.median(rounds.samples_per_round / w for w in rounds.walls), "1/s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import relpoly

    if not Path(relpoly.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: relpoly imported from {relpoly.__file__}, not from the checkout", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.build(args.workload, args.seed, args.quick)
    for op in workload.warmup:
        op.run()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if args.trace:
        import traced

        correct, attempted, failed, metrics = traced.run(workload, args)
    else:
        rounds = Rounds(workload.ops)
        rounds.run(args.seconds)
        metrics = end_to_end(workload, rounds)  # peak RSS before verification
        correct, attempted, failed = verify(workload, [rounds])
        print(f"{len(rounds.walls)} rounds of {len(rounds.ops)} operations; "
              f"samples are {workload.sample_unit}", file=sys.stderr)
    result = {
        "ready": ready,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
