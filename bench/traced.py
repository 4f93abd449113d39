"""The traced run: per-layer metrics from spans recorded around relpoly calls.

The run first times rounds untraced, then the same rounds with the tracer
installed; the difference of their median round times is the tracing
overhead.  Span metrics are given per traced round.  The pool speed-ups and
the CLI start-up figures are measured after the traced rounds, untraced.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from spans import Tracer, summarize
from worker import ROOT, Rounds, verify
from workloads import FLOAT_TOL_UNITS, LADDER, QUICK_MAX_WINDOWS

# Bytes a Monte Carlo batch holds per cell: float64 draws (8), the
# threshold mask (1) and three int32 arrays of the prefix-sum detector
# (prefix table, padded copy, window sums: 12).
MC_BYTES_PER_CELL = 21


def _shape_info(args, kwargs, result):
    shape = args[0]
    return {"windows": shape.num_windows, "volume": shape.volume}


def _rows_info(args, kwargs, result):
    return {"rows": len(args[1])}


def _tally_info(args, kwargs, result):
    return {"configs": 1 << args[0].volume}


def _estimate_info(args, kwargs, result):
    import relpoly.montecarlo

    batch = kwargs.get("batch_size", relpoly.montecarlo.DEFAULT_BATCH_SIZE)
    samples = args[2]
    return {"batches": -(-samples // batch), "batch_cells": min(batch, samples) * args[0].volume}


def _eval_info(args, kwargs, result):
    return {"poly": args[0], "q": args[1], "value": result}


def _targets():
    import relpoly
    import relpoly.cli
    import relpoly.engine
    import relpoly.model
    import relpoly.montecarlo
    import relpoly.oracle

    modules = [relpoly, relpoly.cli, relpoly.engine, relpoly.model, relpoly.montecarlo, relpoly.oracle]
    targets = [
        ("engine.failure_polynomial", relpoly.engine, "failure_polynomial", _shape_info),
        ("engine.build_cell_mask_table", relpoly.engine, "build_cell_mask_table", None),
        ("engine.count_sequence", relpoly.engine, "count_sequence", None),
        ("model.eval_float", relpoly.model.IntPolynomial, "eval_float", _eval_info),
        ("model.eval_rational", relpoly.model.IntPolynomial, "eval_rational", None),
        ("model.polynomial_to_json", relpoly.model, "polynomial_to_json", None),
        ("oracle.detect_failures", relpoly.oracle, "detect_failures", _rows_info),
        ("oracle.brute_force_tally", relpoly.oracle, "brute_force_tally", _tally_info),
        ("montecarlo.estimate", relpoly.montecarlo, "estimate_failure_probability", _estimate_info),
        ("cli.main", relpoly.cli, "main", None),
    ]
    return modules, targets


def _bad_float_evals(spans) -> int:
    """eval_float results outside [0, 1] or outside the float tolerance."""
    exact_cache: dict = {}
    bad = 0
    for _, name, _, _, _, info in spans:
        if name != "model.eval_float" or not info:
            continue
        poly, q, value = info["poly"], info["q"], info["value"]
        key = (tuple(poly.terms()), q)
        if key not in exact_cache:
            exact_cache[key] = poly.eval_rational(Fraction(q))
        exact = exact_cache[key]
        units = FLOAT_TOL_UNITS * max(poly.degree, 1)
        if not 0.0 <= value <= 1.0 or abs(Fraction(value) - exact) > units * Fraction(1, 1 << 52) * abs(exact):
            bad += 1
    return bad


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _pool_speedups(quick: bool) -> dict:
    """Time at 1 worker over time at 2, for the largest ladder shape and an
    mc-grid call."""
    import relpoly

    out = {}
    shapes = [relpoly.validate_shape(n, s) for n, s, _ in LADDER]
    shape = max((sh for sh in shapes if not quick or sh.num_windows <= QUICK_MAX_WINDOWS),
                key=lambda sh: sh.num_windows)
    t = {w: _median_time(lambda: relpoly.failure_polynomial(shape, config=relpoly.EngineConfig(workers=w)), 1)
         for w in (1, 2)}
    out["engine.pool_speedup"] = (t[1] / t[2], "x")
    mc_shape = relpoly.validate_shape((16, 16) if quick else (48, 48), (3, 3))
    samples, batch = (1024, 512) if quick else (4096, 2048)
    t = {w: _median_time(lambda: relpoly.estimate_failure_probability(mc_shape, 0.44, samples, 1, batch_size=batch,
                                                                    workers=w), 1 if quick else 3)
         for w in (1, 2)}
    out["montecarlo.pool_speedup"] = (t[1] / t[2], "x")
    return out


def _cli_startup(reps: int) -> dict:
    env = dict(os.environ)

    def child(code: str) -> float:
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              check=True, timeout=60)
        return float(done.stdout)

    def bare() -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        return time.perf_counter() - t0

    timer = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    return {
        "cli.interpreter_ms": (statistics.median(bare() for _ in range(reps)) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(child(timer.format("relpoly.cli")) for _ in range(reps)) * 1e3, "ms"),
        "cli.import_numpy_ms": (statistics.median(child(timer.format("numpy")) for _ in range(reps)) * 1e3, "ms"),
    }


def run(workload, args) -> tuple[bool, int, int, dict]:
    untraced = Rounds(workload.trace_ops)
    untraced.run(args.seconds / 3)
    traced = Rounds(workload.trace_ops)
    tracer = Tracer()
    modules, targets = _targets()
    tracer.install(modules, targets)
    try:
        traced.run(args.seconds * 2 / 3)
    finally:
        tracer.uninstall()
    metrics = _pool_speedups(args.quick)
    metrics.update(_cli_startup(2 if args.quick else 5))
    correct, attempted, failed = verify(workload, [untraced, traced])

    rounds = len(traced.walls)
    agg = summarize(tracer.spans)

    def per_round(name: str, field: str = "total", scale: float = 1e3) -> float:
        return agg.get(name, {}).get(field, 0.0) * scale / rounds

    def infos(name: str):
        return [info for _, n, _, _, _, info in tracer.spans if n == name and info]

    fp = infos("engine.failure_polynomial")
    subsets = sum((1 << i["windows"]) - 1 for i in fp)
    fp_seconds = agg.get("engine.failure_polynomial", {}).get("total", 0.0)
    # the zeta table holds one entry per window subset, in the narrowest
    # unsigned dtype that holds the covered-cell count (every cell is covered)
    zeta_bytes = max(((1 << i["windows"]) * (1 if i["volume"] < 256 else 2 if i["volume"] < 65536 else 4)
                      for i in fp), default=0)
    evals = agg.get("model.eval_float", {"calls": 0, "total": 0.0})
    rows = sum(i["rows"] for i in infos("oracle.detect_failures"))
    detect_seconds = agg.get("oracle.detect_failures", {}).get("total", 0.0)
    configs = sum(i["configs"] for i in infos("oracle.brute_force_tally"))
    tally_seconds = agg.get("oracle.brute_force_tally", {}).get("total", 0.0)
    estimates = infos("montecarlo.estimate")
    metrics.update({
        "engine.failure_polynomial.ms": (per_round("engine.failure_polynomial"), "ms"),
        "engine.failure_polynomial.calls": (per_round("engine.failure_polynomial", "calls", 1), "count"),
        "engine.build_cell_mask_table.ms": (per_round("engine.build_cell_mask_table"), "ms"),
        "engine.sweep.ms": (per_round("engine.failure_polynomial", "self"), "ms"),
        "engine.count_sequence.ms": (per_round("engine.count_sequence"), "ms"),
        "engine.subsets": (subsets / rounds, "count"),
        "engine.subsets_per_s": (subsets / fp_seconds if fp_seconds else 0.0, "1/s"),
        "engine.zeta_table_mb": (zeta_bytes / 2**20, "MB"),
        "model.eval_float.us": (evals["total"] / evals["calls"] * 1e6 if evals["calls"] else 0.0, "us"),
        "model.eval_float.calls": (evals["calls"] / rounds, "count"),
        "model.eval_float.bad": (_bad_float_evals(tracer.spans) / rounds, "count"),
        "model.eval_rational.ms": (per_round("model.eval_rational"), "ms"),
        "model.polynomial_to_json.ms": (per_round("model.polynomial_to_json"), "ms"),
        "oracle.detect_failures.ms": (per_round("oracle.detect_failures"), "ms"),
        "oracle.detect_failures.rows": (rows / rounds, "count"),
        "oracle.rows_per_s": (rows / detect_seconds if detect_seconds else 0.0, "1/s"),
        "oracle.brute_force_tally.ms": (per_round("oracle.brute_force_tally"), "ms"),
        "oracle.configs_per_s": (configs / tally_seconds if tally_seconds else 0.0, "1/s"),
        "montecarlo.estimate.ms": (per_round("montecarlo.estimate"), "ms"),
        "montecarlo.self.ms": (per_round("montecarlo.estimate", "self"), "ms"),
        "montecarlo.batches": (sum(i["batches"] for i in estimates) / rounds, "count"),
        "montecarlo.batch_mb": (max((i["batch_cells"] for i in estimates), default=0) * MC_BYTES_PER_CELL / 2**20,
                                "MB"),
        "cli.main.ms": (per_round("cli.main"), "ms"),
        "trace.spans": (len(tracer.spans) / rounds, "count"),
        "trace.overhead_pct": ((statistics.median(traced.walls) / statistics.median(untraced.walls) - 1) * 100,
                               "%"),
    })
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(f"{rounds} traced rounds, {len(tracer.spans)} spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    return correct, attempted, failed, metrics
