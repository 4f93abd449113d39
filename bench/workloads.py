"""The benchmark's workloads: inputs made from a seed, operations and checks.

Each workload is a fixed cyclic list of operations (one *round*).  The
seed picks where the cycle starts, and the Monte Carlo seeds; the shapes,
q grids and command lines do not depend on it, so the operations that
fail because of a known fault are the same in every run.

Every output is checked against :mod:`reference`, never against a stored
copy of an earlier output.  A check returns ``(status, why)``:

* ``OK``;
* ``FAILED``: the operation hit the known binary64 Horner fault of
  ``IntPolynomial.eval_float`` (a value outside [0, 1] or outside the float
  tolerance).  It counts as a failed operation;
* ``WRONG``: any other disagreement.  It makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import reference as ref

OK, FAILED, WRONG = "ok", "failed", "wrong"

#: A float evaluation passes when it lies in [0, 1] and within
#: FLOAT_TOL_UNITS * N * 2^-52 of the exact value, relative.  Summing the
#: nonnegative Bernstein terms f_k q^k (1-q)^(N-k) in binary64 stays within
#: about (N + 3) * 2^-52, so an O(N * eps) evaluator meets it.
FLOAT_TOL_UNITS = 4

# Monte Carlo batches are kept small so that two in flight stay near
# 250 MB; the memory of the host is shared.
MC_SAMPLES, MC_BATCH = 4096, 2048


@dataclass
class Op:
    """One timed operation and the check of its output."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str]]
    key: Callable[[Any], Any] = repr  # equal keys mean equal outputs
    samples: int = 1  # units of work counted by samples_per_s


@dataclass
class Workload:
    name: str
    sample_unit: str
    ops: list[Op]  # one round
    trace_ops: list[Op]  # one round of the traced run
    warmup: list[Op]
    cross_check: Callable[[dict[str, list]], list[str]] = lambda outputs: []


def rotate(items: list, rng: random.Random) -> list:
    """The fixed cyclic order, started at a seeded offset.

    Every operation keeps the same predecessor for every seed, so the state
    one operation leaves behind (heap, caches) weighs the same in each run.
    """
    k = rng.randrange(len(items))
    return items[k:] + items[:k]


def fmt(n, s) -> str:
    return f"[{','.join(map(str, n))}]x[{','.join(map(str, s))}]"


@functools.lru_cache(maxsize=None)
def reference_poly(n: tuple, s: tuple):
    return ref.reference_failure_poly(n, s)


@functools.lru_cache(maxsize=None)
def reference_tally(n: tuple, s: tuple) -> list[int] | None:
    found = reference_poly(n, s)
    return None if found is None else ref.tally_from_power(found[1], math.prod(n))


def check_failure_poly(n, s, coeffs: dict[int, int]) -> tuple[str, str]:
    """Exact reference where one applies; the tally properties always."""
    n, s = tuple(n), tuple(s)
    problems = ref.tally_violations(ref.tally_from_power(coeffs, math.prod(n)), n, s)
    if problems:
        return WRONG, "; ".join(problems[:3])
    found = reference_poly(n, s)
    if found is None:
        return OK, "properties"
    if found[1] != coeffs:
        return WRONG, f"differs from the {found[0]} reference"
    return OK, found[0]


def exact_value(n, s, target: str, q) -> Fraction:
    p = ref.bernstein_value(reference_tally(tuple(n), tuple(s)), Fraction(q))
    return p if target == "p" else 1 - p


def check_float(value: float, exact: Fraction, volume: int) -> tuple[str, str]:
    if not 0.0 <= value <= 1.0:
        return FAILED, f"{value!r} outside [0, 1] (exact {float(exact):.3e})"
    tol = FLOAT_TOL_UNITS * volume * Fraction(1, 1 << 52) * exact
    if abs(Fraction(value) - exact) > tol:
        err = abs(Fraction(value) - exact) / exact if exact else math.inf
        return FAILED, f"{value!r} off by {float(err):.2e} relative (exact {float(exact):.3e})"
    return OK, ""


def mc_reference(n, s, q: float) -> float | None:
    red = ref.reduction(n, s)
    if red is None:
        return None
    length, run, m = red
    return ref.one_dim_failure_float(length, run, q**m)


def check_mc_counts(n, s, q: float, samples: int, failures: int) -> tuple[str, str]:
    if not 0 <= failures <= samples:
        return WRONG, f"{failures} failures out of {samples} samples"
    p = mc_reference(n, s, q)
    if p is not None:
        stderr = math.sqrt(p * (1 - p) / samples)
        if abs(failures / samples - p) > 5 * stderr:
            return WRONG, f"p_hat {failures / samples} is beyond 5 stderr of the 1-D reference {p:.6f}"
    return OK, ""


# -- exact-ladder ------------------------------------------------------------

# (n, s, time failed_count as well); |E| runs from 12 to 25.  A round has
# an odd number of operations (19), so the median latency falls inside the
# samples of one operation instead of between two.
LADDER = [
    ((4, 5), (2, 2), True),  # 12, compact 2-D; enumeration reference
    ((3, 3, 4), (2, 2, 2), False),  # 12, compact 3-D
    ((14,), (2,), True),  # 13, 1-D
    ((3, 8), (2, 2), False),  # 14
    ((16,), (1,), True),  # 16, series
    ((4, 4), (1, 1), False),  # 16, series
    ((5, 5), (2, 2), False),  # 16
    ((20,), (3,), True),  # 18, long 1-D
    ((4, 22), (4, 3), True),  # 20, 1-D in effect with cell probability q^12
    ((2, 5, 6), (2, 2, 2), False),  # 20
    ((3, 4, 5), (2, 2, 2), False),  # 24
    ((25,), (2,), False),  # 24, long 1-D
    ((6, 6), (2, 2), False),  # 25, the largest
]
# count_sequence over [2,n]x[2,2] for n = 2 .. 24 (|E| = n - 1)
COUNT_SEQUENCE = ((2, 2), (2, 2), 1, 24)
QUICK_MAX_WINDOWS = 16


def _ladder_ops(relpoly, quick: bool) -> list[Op]:
    ops = []
    for n, s, with_count in LADDER:
        shape = relpoly.validate_shape(n, s)
        if quick and shape.num_windows > QUICK_MAX_WINDOWS:
            continue
        subsets = (1 << shape.num_windows) - 1
        ops.append(
            Op(
                f"failure_polynomial {fmt(n, s)}",
                functools.partial(lambda sh: relpoly.failure_polynomial(sh), shape),
                functools.partial(lambda n, s, p: check_failure_poly(n, s, dict(p.coeffs)), n, s),
                key=lambda p: tuple(p.terms()),
                samples=subsets,
            )
        )
        if with_count:
            ops.append(
                Op(
                    f"failed_count {fmt(n, s)}",
                    functools.partial(lambda sh: relpoly.failed_count(sh), shape),
                    functools.partial(_check_count, n, s),
                    samples=subsets,
                )
            )
    n, s, axis, stop = COUNT_SEQUENCE
    if quick:
        stop = 12
    ops.append(
        Op(
            f"count_sequence {fmt(n, s)} axis {axis + 1} to {stop}",
            lambda: relpoly.count_sequence(n, s, axis, stop),
            functools.partial(_check_count_sequence, n, s, axis),
            samples=sum((1 << (v - s[axis] + 1)) - 1 for v in range(n[axis], stop + 1)),
        )
    )
    # alternate the cheapest and the dearest remaining operation, so that a
    # slow spell of the host falls on small and large shapes alike
    ops.sort(key=lambda op: op.samples)
    return [ops[i // 2] if i % 2 == 0 else ops[-1 - i // 2] for i in range(len(ops))]


def _check_count(n, s, count: int) -> tuple[str, str]:
    expected = sum(reference_tally(tuple(n), tuple(s)))
    return (OK, "") if count == expected else (WRONG, f"count {count}, reference {expected}")


def _check_count_sequence(n, s, axis, counts: list[int]) -> tuple[str, str]:
    n = list(n)
    for i, count in enumerate(counts):
        ext = list(n)
        ext[axis] = n[axis] + i
        expected = sum(reference_tally(tuple(ext), tuple(s)))
        if count != expected:
            return WRONG, f"count at extent {ext[axis]} is {count}, reference {expected}"
    return OK, ""


# -- mc-grid -------------------------------------------------------------------

MC_GRID = [
    ((48, 48), (3, 3), (0.38, 0.44)),
    ((12, 12, 12), (2, 2, 2), (0.40,)),
    ((4, 512), (4, 3), (0.55, 0.62)),  # a full-height window: 1-D with q^4
]
MC_GRID_QUICK = [
    ((16, 16), (3, 3), (0.45, 0.55)),
    ((6, 6, 6), (2, 2, 2), (0.5,)),
    ((4, 64), (4, 3), (0.6, 0.7)),
]


def _mc_ops(relpoly, rng: random.Random, quick: bool) -> tuple[list[Op], Callable]:
    samples, batch = (1024, 512) if quick else (MC_SAMPLES, MC_BATCH)
    ops, groups = [], []
    for n, s, qs in MC_GRID_QUICK if quick else MC_GRID:
        shape = relpoly.validate_shape(n, s)
        seed = rng.randrange(1 << 32)
        group = []
        for q in qs:
            label = f"estimate {fmt(n, s)} q={q} seed={seed}"
            group.append(label)

            def run(shape=shape, q=q, seed=seed):
                return relpoly.estimate_failure_probability(shape, q, samples, seed, batch_size=batch)

            def check(est, shape=shape, n=n, s=s, q=q, seed=seed):
                if not est.ci95[0] <= est.p_hat <= est.ci95[1] or est.samples != samples:
                    return WRONG, f"inconsistent estimate {est}"
                status = check_mc_counts(n, s, q, samples, est.failures)
                if status[0] != OK:
                    return status
                single = relpoly.estimate_failure_probability(shape, q, samples, seed, batch_size=batch, workers=1)
                if single.failures != est.failures:
                    return WRONG, f"{single.failures} failures at 1 worker, {est.failures} at 2"
                return OK, ""

            ops.append(Op(label, run, check, key=lambda e: (e.failures, e.samples, e.p_hat), samples=samples))
        groups.append(group)

    def monotone_in_q(outputs: dict[str, list]) -> list[str]:
        # one seed draws the same uniforms at every q, so failures cannot drop as q grows
        problems = []
        for group in groups:
            counts = [outputs[label][0].failures for label in group if outputs.get(label)]
            if counts != sorted(counts):
                problems.append(f"failures {counts} decrease with q in {group}")
        return problems

    return ops, monotone_in_q


# -- cli-mix -----------------------------------------------------------------------

_TERM = re.compile(r"^(\d*)(?:q(?:\^(\d+))?)?$")


def parse_poly_text(text: str) -> dict[int, int]:
    """Coefficients of the CLI's text rendering, e.g. '1 - 4q^2 + 2q^3'."""
    coeffs: dict[int, int] = {}
    sign = 1
    for token in text.split():
        if token in "+-":
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        m = _TERM.match(token)
        if not m or not token:
            raise ValueError(f"bad term {token!r}")
        has_q = "q" in token
        mag = int(m.group(1)) if m.group(1) else 1
        exp = int(m.group(2)) if m.group(2) else (1 if has_q else 0)
        coeffs[exp] = coeffs.get(exp, 0) + sign * mag
        sign = 1
    return {e: c for e, c in coeffs.items() if c}


def _shape_args(argv: list[str]) -> tuple[tuple, tuple]:
    def extents(flag):
        return tuple(int(x) for x in argv[argv.index(flag) + 1].split(","))

    return extents("--n"), extents("--s")


def _flag(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_cli(argv: list[str], code: int, out: str) -> tuple[str, str]:
    """Check one CLI call's exit code and standard output."""
    if code != 0:
        return WRONG, f"exit code {code}"
    cmd = argv[0]
    n, s = _shape_args(argv)
    target = _flag(argv, "--target", "r")
    volume = math.prod(n)
    if cmd == "poly":
        if "--format" in argv and _flag(argv, "--format") == "json":
            coeffs = {int(e): int(c) for e, c in json.loads(out)["result"]["poly"]}
        else:
            coeffs = parse_poly_text(out.strip())
        return check_failure_poly(n, s, coeffs if target == "p" else ref.complement(coeffs))
    if cmd == "eval":
        q = Fraction(_flag(argv, "--q"))
        if "--exact" in argv:
            ok = Fraction(out.strip()) == exact_value(n, s, target, q)
            return (OK, "") if ok else (WRONG, f"{out.strip()} is not the exact value")
        return check_float(float(out), exact_value(n, s, target, float(q)), volume)
    if cmd == "count":
        counts = [int(x) for x in out.strip().split(",")]
        if "--vary" in argv:
            axis = int(_flag(argv, "--vary")) - 1
            if len(counts) != int(_flag(argv, "--to")) - n[axis] + 1:
                return WRONG, f"{len(counts)} counts"
            return _check_count_sequence(n, s, axis, counts)
        return _check_count(n, s, counts[0])
    if cmd == "curve":
        lines = out.strip().splitlines()
        if lines[0] != "q,R" or len(lines) != int(_flag(argv, "--steps", "100")) + 2:
            return WRONG, "malformed curve"
        for line in lines[1:]:
            q, r = (float(x) for x in line.split(","))
            status = check_float(r, exact_value(n, s, "r", q), volume)
            if status[0] != OK:
                return status[0], f"at q={q!r}: {status[1]}"
        return OK, ""
    if cmd == "oracle":
        f = reference_tally(n, s)
        lines = out.strip().splitlines()
        expected = [f"a={sum(f)}", f"f={f}"]
        if lines[:2] != expected or parse_poly_text(lines[2].removeprefix("P = ")) != reference_poly(n, s)[1]:
            return WRONG, "tally or polynomial differs from the reference"
        if "--check" in argv and lines[3:] != ["MATCH"]:
            return WRONG, f"check printed {lines[3:]}"
        return OK, ""
    if cmd == "mc":
        fields = dict(part.split("=", 1) for part in out.split() if "=" in part and not part.endswith(","))
        return check_mc_counts(n, s, float(_flag(argv, "--q")), int(fields["samples"]), int(fields["failures"]))
    return WRONG, f"no check for {cmd}"


def cli_argv(rng: random.Random, quick: bool) -> list[list[str]]:
    """The calls of one cli-mix round; an odd number, as in LADDER."""
    mc_seed = str(rng.randrange(1 << 32))
    if quick:
        calls = [
            ["poly", "--n", "3,4", "--s", "2,2", "--target", "p", "--format", "json"],
            ["eval", "--n", "12", "--s", "3", "--q", "1/3", "--exact"],
            ["eval", "--n", "17", "--s", "2", "--q", "0.99"],  # known tail fault
            ["count", "--n", "2,2", "--s", "2,2", "--vary", "2", "--to", "8"],
            ["oracle", "--n", "12", "--s", "3", "--check"],
            ["mc", "--n", "4,64", "--s", "4,3", "--q", "0.65", "--samples", "1000", "--seed", mc_seed],
        ]
    else:
        calls = [
            ["poly", "--n", "4,5", "--s", "2,2"],
            ["poly", "--n", "2,12", "--s", "2,3", "--target", "p", "--format", "json"],
            ["eval", "--n", "4,5", "--s", "2,2", "--q", "0.3"],
            ["eval", "--n", "16", "--s", "3", "--q", "1/3", "--exact"],
            ["eval", "--n", "25", "--s", "2", "--q", "0.99"],  # known tail fault
            ["count", "--n", "4,4", "--s", "2,2"],
            ["count", "--n", "2,2", "--s", "2,2", "--vary", "2", "--to", "16"],
            ["curve", "--n", "3,4", "--s", "2,2", "--steps", "50"],
            ["oracle", "--n", "16", "--s", "3", "--check"],
            ["oracle", "--n", "17", "--s", "4", "--check"],
            ["oracle", "--n", "4,4", "--s", "2,2", "--check"],
            ["oracle", "--n", "3,6", "--s", "2,2", "--check"],
            ["mc", "--n", "4,128", "--s", "4,3", "--q", "0.6", "--samples", "4000", "--seed", mc_seed],
        ]
    return rotate(calls, rng)


def probe_argv(rng: random.Random) -> list[list[str]]:
    """Small calls through every subcommand, so that a traced run of any
    workload reaches every layer."""
    return [
        ["poly", "--n", "3,4", "--s", "2,2", "--target", "p", "--format", "json"],
        ["eval", "--n", "12", "--s", "3", "--q", "0.3"],
        ["eval", "--n", "12", "--s", "3", "--q", "1/3", "--exact"],
        ["count", "--n", "2,2", "--s", "2,2", "--vary", "2", "--to", "8"],
        ["curve", "--n", "3,3", "--s", "2,2", "--steps", "10"],
        ["oracle", "--n", "12", "--s", "3", "--check"],
        ["mc", "--n", "16,16", "--s", "3,3", "--q", "0.4", "--samples", "1000", "--seed", str(rng.randrange(1 << 32))],
    ]


def _strip_elapsed(out: str) -> str:
    return re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', out)


def subprocess_op(argv: list[str], env: dict) -> Op:
    cmd = [sys.executable, "-m", "relpoly.cli", *argv]

    def run():
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout

    return Op("relpoly " + " ".join(argv), run, lambda r: check_cli(argv, *r),
              key=lambda r: (r[0], _strip_elapsed(r[1])))


def inprocess_op(relpoly_cli, argv: list[str]) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = relpoly_cli.main(argv)
        return code, buf.getvalue()

    return Op("cli.main " + " ".join(argv), run, lambda r: check_cli(argv, *r),
              key=lambda r: (r[0], _strip_elapsed(r[1])))


# -- assembly ------------------------------------------------------------------------


def build(name: str, seed: int, quick: bool) -> Workload:
    """Inputs, operations and checks of one workload for one seed."""
    import relpoly
    import relpoly.cli

    rng = random.Random(f"{name}:{seed}")
    probe = [inprocess_op(relpoly.cli, argv) for argv in probe_argv(rng)]
    if name == "exact-ladder":
        ops = rotate(_ladder_ops(relpoly, quick), rng)
        warmup = [
            Op("warm-up", lambda: [relpoly.failure_polynomial(relpoly.validate_shape(n, s))
                                   for n, s in [((8,), (1,)), ((4, 5), (2, 2)), ((17,), (2,))]], lambda _: (OK, "")),
            Op("warm-up", lambda: relpoly.count_sequence((2, 2), (2, 2), 1, 6), lambda _: (OK, "")),
        ]
        return Workload(name, "inclusion-exclusion subsets", ops, ops + probe, warmup)
    if name == "mc-grid":
        ops, cross = _mc_ops(relpoly, rng, quick)
        warm_shape = relpoly.validate_shape((8, 8), (2, 2))
        warmup = [Op("warm-up", lambda: relpoly.estimate_failure_probability(warm_shape, 0.5, 512, 1, batch_size=256),
                     lambda _: (OK, ""))]
        return Workload(name, "Monte Carlo configurations", ops, ops + probe, warmup, cross_check=cross)
    if name == "cli-mix":
        env = dict(os.environ)
        calls = cli_argv(rng, quick)
        ops = [subprocess_op(argv, env) for argv in calls]
        warmup = [subprocess_op(["count", "--n", "3", "--s", "2"], env)]
        return Workload(name, "CLI calls", ops, [inprocess_op(relpoly.cli, argv) for argv in calls], warmup)
    raise ValueError(f"unknown workload {name!r}")
