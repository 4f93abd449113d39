"""Command-line interface.

Subcommands: ``poly`` (exact polynomial), ``eval`` (evaluate R or P at one
q), ``count`` (failed-configuration counts), ``curve`` (R over a q grid),
``oracle`` (brute-force tally, optionally checked against the engine), and
``mc`` (Monte Carlo estimate).

Exit codes: 0 success, 1 output closed by its reader, 2 usage error
(including an output file that cannot be written), 3 resource cap exceeded
or out of memory, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .engine import (
    POLYNOMIAL,
    RouteCost,
    count_sequence,
    exact_reliability,
    failed_count,
    failure_polynomial,
    reliability_polynomial,
)
from .model import (
    IntPolynomial,
    ResourceLimitError,
    SystemShape,
    polynomial_to_json,
    validate_shape,
)
from .montecarlo import estimate_failure_probability
from .oracle import brute_force_tally, tally_to_polynomial

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_MISMATCH = 4


def format_poly_text(poly: IntPolynomial) -> str:
    """Human-readable polynomial, ascending powers with explicit signs."""
    terms = poly.terms()
    if not terms:
        return "0"
    parts = []
    for i, (exp, coeff) in enumerate(terms):
        mag = abs(coeff)
        if exp == 0:
            body = str(mag)
        else:
            var = "q" if exp == 1 else f"q^{exp}"
            body = var if mag == 1 else f"{mag}{var}"
        if i == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def _parse_extents(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_q(text: str) -> Fraction:
    """q as an exact rational, from a decimal or a/b fraction string."""
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed probability {text!r}: {exc}") from exc
    if not 0 <= q <= 1:
        raise ValueError(f"q must lie in [0, 1], got {text}")
    return q


def _shape_from_args(args) -> SystemShape:
    return validate_shape(_parse_extents(args.n), _parse_extents(args.s))


def _route_json(route: RouteCost, reached: int | None) -> dict:
    """A route as the envelope reports it; a scan with one value or packed
    polynomial per state adds the states it was priced with and the most it
    held."""
    out = {
        "name": route.route,
        "axis": None if route.axis is None else route.axis + 1,
        "payload": route.payload,
        "seconds": route.seconds,
        "bytes": route.nbytes,
    }
    if route.payload != POLYNOMIAL:
        out["states"] = {"predicted": route.states, "reached": reached}
    return out


def _run_json(stats: dict) -> dict:
    """The envelope fields of one engine run's ``stats``."""
    if "routes" in stats:
        return {"routes": [_run_json(run)["route"] for run in stats["routes"]]}
    return {"route": _route_json(stats["route"], stats.get("states"))}


def _envelope(
    command: str,
    shape: SystemShape,
    mode: str,
    result,
    started: float,
    run: dict | None = None,
) -> dict:
    env = {
        "tool": "relpoly",
        "version": __version__,
        "command": command,
        "n": list(shape.n),
        "s": list(shape.s),
        "mode": mode,
        "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        "result": result,
    }
    return env if run is None else env | run


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_poly(args) -> int:
    started = time.perf_counter()
    shape = _shape_from_args(args)
    stats: dict = {}
    poly = (
        failure_polynomial(shape, stats=stats)
        if args.target == "p"
        else reliability_polynomial(shape, stats=stats)
    )
    if args.format == "json":
        result = polynomial_to_json(shape, poly)
        env = _envelope("poly", shape, "exact", result, started, _run_json(stats))
        print(json.dumps(env))
    else:
        print(format_poly_text(poly))
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.perf_counter()
    shape = _shape_from_args(args)
    q = _parse_q(args.q)
    if not args.exact:  # the binary64 q, exactly; its value rounds once
        q = Fraction(float(q))
    stats: dict = {}
    value = exact_reliability(shape, q, stats=stats)
    if args.target == "p":
        value = 1 - value
    rendered = str(value) if args.exact else float(value)
    if args.format == "json":
        result = {"q": str(q) if args.exact else float(q), "value": rendered}
        run = _run_json(stats)
        print(json.dumps(_envelope("eval", shape, "exact", result, started, run)))
    else:
        print(rendered)
    return EXIT_OK


def cmd_count(args) -> int:
    started = time.perf_counter()
    shape = _shape_from_args(args)
    if (args.vary is None) != (args.to is None):
        raise ValueError("--vary and --to must be given together")
    stats: dict = {}
    if args.vary is not None:
        if not 1 <= args.vary <= shape.d:
            raise ValueError(f"--vary axis must be in 1..{shape.d}")
        counts = count_sequence(shape.n, shape.s, args.vary - 1, args.to, stats=stats)
        rendered = ",".join(str(c) for c in counts)
        result: object = [str(c) for c in counts]
    else:
        count = failed_count(shape, stats=stats)
        rendered = str(count)
        result = str(count)
    if args.format == "json":
        env = _envelope("count", shape, "exact", result, started, _run_json(stats))
        print(json.dumps(env))
    else:
        print(rendered)
    return EXIT_OK


def cmd_curve(args) -> int:
    started = time.perf_counter()
    shape = _shape_from_args(args)
    lo, hi, steps = args.q_min, args.q_max, args.steps
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError(
            f"need 0 <= q-min < q-max <= 1, got [{lo}, {hi}]"
        )
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if args.out and not os.access(os.path.dirname(os.path.abspath(args.out)), os.W_OK):
        raise ValueError(f"cannot write {args.out}: no writable directory")
    stats: dict = {}
    poly = reliability_polynomial(shape, stats=stats)
    points = []
    for i in range(steps + 1):
        t = i / steps
        q = lo * (1.0 - t) + hi * t
        points.append((q, poly.eval_float(q)))
    if args.format == "json":
        result = {"points": [[q, r] for q, r in points]}
        env = _envelope("curve", shape, "exact", result, started, _run_json(stats))
        _emit(json.dumps(env), args.out)
    else:
        lines = ["q,R"] + [f"{q!r},{r!r}" for q, r in points]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    shape = _shape_from_args(args)
    tally = brute_force_tally(shape)
    poly = tally_to_polynomial(tally)
    check = None
    if args.check:
        check = "MATCH" if failure_polynomial(shape) == poly else "MISMATCH"
    if args.format == "json":
        result = {
            "a": tally.total,
            "f": list(tally.f),
            "poly": polynomial_to_json(shape, poly)["poly"],
            "check": check,
        }
        print(json.dumps(_envelope("oracle", shape, "exact", result, started)))
    else:
        print(f"a={tally.total}")
        print(f"f={list(tally.f)}")
        print(f"P = {format_poly_text(poly)}")
        if check:
            print(check)
    return EXIT_MISMATCH if check == "MISMATCH" else EXIT_OK


def cmd_mc(args) -> int:
    started = time.perf_counter()
    shape = _shape_from_args(args)
    q = float(_parse_q(args.q))
    if args.samples < 1:
        raise ValueError(f"--samples must be positive, got {args.samples}")
    est = estimate_failure_probability(shape, q, args.samples, args.seed)
    if args.format == "json":
        result = {
            "q": est.q,
            "samples": est.samples,
            "failures": est.failures,
            "p_hat": est.p_hat,
            "stderr": est.stderr,
            "ci95": list(est.ci95),
            "seed": est.seed,
            "rng": est.rng,
        }
        print(json.dumps(_envelope("mc", shape, "montecarlo", result, started)))
    else:
        print(
            f"p_hat={est.p_hat!r} stderr={est.stderr!r} "
            f"ci95=[{est.ci95[0]!r}, {est.ci95[1]!r}] "
            f"samples={est.samples} failures={est.failures} "
            f"seed={est.seed} rng={est.rng}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    shape_flags = argparse.ArgumentParser(add_help=False)
    shape_flags.add_argument(
        "--n", required=True, metavar="N1,N2,...", help="array extents"
    )
    shape_flags.add_argument(
        "--s", required=True, metavar="S1,S2,...", help="window extents"
    )

    parser = argparse.ArgumentParser(
        prog="relpoly",
        description=(
            "Exact reliability/failure polynomials of d-dimensional "
            "consecutive-k-out-of-n:F systems"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", parents=[shape_flags], help="exact polynomial")
    p.add_argument("--target", choices=("r", "p"), default="r")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("eval", parents=[shape_flags], help="evaluate R or P at q")
    p.add_argument("--q", required=True, help="probability, decimal or a/b")
    p.add_argument("--target", choices=("r", "p"), default="r")
    p.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("count", parents=[shape_flags], help="failed-configuration count")
    p.add_argument("--vary", type=int, metavar="AXIS", help="1-based axis to grow")
    p.add_argument("--to", type=int, metavar="MAX", help="final extent of the varied axis")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("curve", parents=[shape_flags], help="reliability curve over q")
    p.add_argument("--q-min", type=float, default=0.0)
    p.add_argument("--q-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100, help="number of intervals")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("oracle", parents=[shape_flags], help="brute-force tally")
    p.add_argument(
        "--check", action="store_true", help="compare against the exact engine"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("mc", parents=[shape_flags], help="Monte Carlo estimate")
    p.add_argument("--q", required=True, help="probability, decimal or a/b")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here rather than at exit
        return code
    except BrokenPipeError:  # the reader stopped early: drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print(
            "error: out of memory. Try a smaller instance, or fall back to "
            "the Monte Carlo estimator (CLI subcommand 'mc').",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    except (OSError, ValueError) as exc:  # ShapeError, an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
