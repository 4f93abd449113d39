"""CLI surface: golden outputs, formats, exit codes, round-trips."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import relpoly
from relpoly import IntPolynomial, polynomial_from_json, validate_shape
from relpoly.cli import format_poly_text, main
from relpoly.engine import choose_route


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def script(*argv, **kwargs):
    """The CLI in a fresh interpreter, as the console script runs it."""
    env = dict(os.environ, PYTHONPATH=str(Path(relpoly.__file__).parents[1]))
    command = [sys.executable, "-m", "relpoly.cli", *argv]
    return subprocess.Popen(command, env=env, text=True, **kwargs)


class TestFormatPolyText:
    def test_examples(self):
        assert format_poly_text(IntPolynomial.zero()) == "0"
        assert format_poly_text(IntPolynomial({0: 1})) == "1"
        assert format_poly_text(IntPolynomial({1: 2, 2: -1})) == "2q - q^2"
        assert format_poly_text(IntPolynomial({1: -2, 3: 1})) == "-2q + q^3"
        assert (
            format_poly_text(IntPolynomial({0: 1, 1: -2, 2: 1})) == "1 - 2q + q^2"
        )


class TestPoly:
    def test_paper_text_goldens(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2", "--s", "1", "--target", "r",
                           "--format", "text")
        assert code == 0 and out.strip() == "1 - 2q + q^2"
        code, out, _ = run(capsys, "poly", "--n", "2,3", "--s", "1,2")
        assert code == 0
        assert out.strip() == "1 - 4q^2 + 2q^3 + 4q^4 - 4q^5 + q^6"

    def test_nonfailable_failure_polynomial(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2", "--s", "3", "--target", "p")
        assert code == 0 and out.strip() == "0"

    def test_json_envelope_round_trip(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2,3", "--s", "1,2",
                           "--format", "json")
        assert code == 0
        env = json.loads(out)
        assert env["command"] == "poly"
        assert env["mode"] == "exact"
        assert env["n"] == [2, 3] and env["s"] == [1, 2]
        shape, poly = polynomial_from_json(env["result"])
        assert shape.n == (2, 3)
        value = poly.eval_rational(Fraction(1, 2))

        code, out, _ = run(capsys, "eval", "--n", "2,3", "--s", "1,2",
                           "--q", "1/2", "--exact")
        assert code == 0
        assert Fraction(out.strip()) == value

    def test_invalid_shape_exit_2(self, capsys):
        code, _, err = run(capsys, "poly", "--n", "2,0", "--s", "1,1")
        assert code == 2 and "error" in err

    def test_resource_cap_exit_3_mentions_mc(self, capsys):
        code, _, err = run(capsys, "poly", "--n", "48,48", "--s", "3,3")
        assert code == 3 and "mc" in err

    def test_memory_error_exit_3_mentions_mc(self, capsys, monkeypatch):
        import relpoly.cli as cli_module

        def out_of_memory(shape, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli_module, "failure_polynomial", out_of_memory)
        code, _, err = run(capsys, "poly", "--n", "3", "--s", "2", "--target", "p")
        assert code == 3 and err.startswith("error:") and "'mc'" in err


class TestEval:
    def test_exact_values(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2", "--s", "1", "--q", "1/2",
                           "--exact")
        assert code == 0 and out.strip() == "1/4"
        code, out, _ = run(capsys, "eval", "--n", "2,3", "--s", "1,2", "--q", "0",
                           "--exact")
        assert code == 0 and out.strip() == "1"

    def test_exact_failure_probability_matches_count(self, capsys):
        # P(1/2) is the failed fraction of the 2^6 equally likely arrays
        code, out, _ = run(capsys, "eval", "--n", "2,3", "--s", "1,2", "--q", "1/2",
                           "--exact", "--target", "p")
        assert code == 0 and Fraction(out.strip()) == Fraction(39, 64)

    def test_float_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2", "--s", "1", "--q", "0.5")
        assert code == 0 and float(out) == pytest.approx(0.25)

    def test_decimal_q_is_exact_in_exact_mode(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2", "--s", "1", "--q", "0.5",
                           "--exact")
        assert code == 0 and out.strip() == "1/4"

    @pytest.mark.parametrize("bad_q", ["1.5", "-0.1", "3/2", "x", "1/0"])
    def test_bad_q_exit_2(self, capsys, bad_q):
        code, _, err = run(capsys, "eval", "--n", "2", "--s", "1", "--q", bad_q)
        assert code == 2 and "error" in err

    def test_float_in_the_upper_tail(self, capsys):
        # the power-basis coefficients cancel to -4.15e-14 in binary64
        code, out, err = run(capsys, "eval", "--n", "25", "--s", "2", "--q", "0.99")
        assert code == 0 and "Traceback" not in err
        assert out.strip() == "1.8138133807445167e-24"

    @pytest.mark.parametrize("target,value", [("r", "0.0"), ("p", "1.0")])
    def test_float_past_binary64_coefficients(self, capsys, target, value):
        # R = 2^-1100 rounds to 0; its coefficients overflow binary64
        code, out, err = run(capsys, "eval", "--n", "1100", "--s", "1", "--q",
                             "0.5", "--target", target)
        assert code == 0 and "Traceback" not in err
        assert out.strip() == value


class TestRouteInEnvelope:
    # the route is the one that ran, as choose_route prices it, with a
    # 1-based axis as --vary takes it; a scan with one value or packed
    # polynomial per state adds its states, as predicted from their bound
    # and as reached.  A count is a value at q = 1/2, and float eval a
    # value at its binary64 q

    @pytest.mark.parametrize(
        "argv,name,axis",
        [(["poly", "--n", "3,4,5", "--s", "2,2,2"], "inclusion-exclusion", 3),
         (["eval", "--n", "6,6", "--s", "2,2", "--q", "0.3"],
          "inclusion-exclusion", 1),
         (["count", "--n", "25", "--s", "2"], "inclusion-exclusion", 1),
         (["count", "--n", "4,22", "--s", "4,3"], "inclusion-exclusion", 2),
         (["poly", "--n", "4,5", "--s", "2,2"], "inclusion-exclusion", 2),
         (["eval", "--n", "200", "--s", "5", "--q", "0.3"], "inclusion-exclusion", 1),
         (["curve", "--n", "3,4", "--s", "2,2", "--steps", "10"],
          "inclusion-exclusion", 2)],
    )
    def test_route(self, capsys, argv, name, axis):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        route = choose_route(self._shape(argv), q=self._q(argv))
        reported = json.loads(out)["route"]
        states = reported.pop("states", None)
        assert reported == {
            "name": name, "axis": axis, "payload": route.payload,
            "seconds": route.seconds, "bytes": route.nbytes,
        }
        if route.payload != "polynomial":
            assert states["predicted"] == route.states
            assert 1 <= states["reached"] <= route.states
        else:
            assert states is None

    @pytest.mark.parametrize(
        "argv,q",
        [(["eval", "--n", "3,4,5", "--s", "2,2,2", "--q", "1/10", "--exact"],
          Fraction(1, 10)),
         (["count", "--n", "5,5", "--s", "3,3"], Fraction(1, 2))],
    )
    def test_polynomial_for_a_value(self, capsys, argv, q):
        # the polynomial is priced below the value scan here
        code, out, _ = run(capsys, *argv, "--format", "json")
        route = choose_route(self._shape(argv), q=q)
        assert code == 0 and route.payload == "polynomial"
        assert json.loads(out)["route"]["payload"] == "polynomial"

    @pytest.mark.parametrize(
        "argv,axis,q,reached",
        [(["count", "--n", "4,22", "--s", "4,3"], 2, Fraction(1, 2), 3),
         (["eval", "--n", "4,5", "--s", "2,2", "--q", "19/50", "--exact"], 2,
          Fraction(19, 50), 6)],
    )
    def test_value_scan(self, capsys, argv, axis, q, reached):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        route = choose_route(self._shape(argv), q=q)
        assert json.loads(out)["route"] == {
            "name": "inclusion-exclusion", "axis": axis, "payload": "value",
            "seconds": route.seconds, "bytes": route.nbytes,
            "states": {"predicted": route.states, "reached": reached},
        }

    @pytest.mark.parametrize(
        "argv,axis,reached",
        [(["poly", "--n", "4,22", "--s", "4,3", "--target", "p"], 2, 3),
         (["eval", "--n", "25", "--s", "2", "--q", "0.99"], 1, 2)],
    )
    def test_packed_scan(self, capsys, argv, axis, reached):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        route = choose_route(self._shape(argv), q=self._q(argv))
        assert json.loads(out)["route"] == {
            "name": "inclusion-exclusion", "axis": axis, "payload": "packed",
            "seconds": route.seconds, "bytes": route.nbytes,
            "states": {"predicted": route.states, "reached": reached},
        }

    def test_one_scan_sequence(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--s", "2", "--vary", "1",
                           "--to", "4", "--format", "json")
        env = json.loads(out)
        assert code == 0 and "routes" not in env
        assert env["route"]["payload"] == "value" and env["route"]["axis"] == 1

    def test_per_extent_sequence(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2,25", "--s", "2,2", "--vary",
                           "1", "--to", "3", "--format", "json")
        env = json.loads(out)
        assert code == 0 and "route" not in env
        assert [r["axis"] for r in env["routes"]] == [2, 2]

    @staticmethod
    def _shape(argv):
        return validate_shape(*(
            [int(x) for x in argv[argv.index(flag) + 1].split(",")]
            for flag in ("--n", "--s")
        ))

    @staticmethod
    def _q(argv):
        """The q that the call's route is priced at: None for a polynomial."""
        if argv[0] == "count":
            return Fraction(1, 2)
        if argv[0] != "eval":
            return None
        q = Fraction(argv[argv.index("--q") + 1])
        return q if "--exact" in argv else Fraction(float(q))


class TestCount:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3", "--s", "2")
        assert code == 0 and out.strip() == "3"
        code, out, _ = run(capsys, "count", "--n", "2,2", "--s", "2,2")
        assert code == 0 and out.strip() == "1"

    def test_sequence(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--s", "2",
                           "--vary", "1", "--to", "5")
        assert code == 0 and out.strip() == "1,3,8,19"

    def test_sequence_json(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--s", "2", "--vary", "1",
                           "--to", "4", "--format", "json")
        env = json.loads(out)
        assert code == 0 and env["result"] == ["1", "3", "8"]

    def test_vary_without_to_exit_2(self, capsys):
        code, _, _ = run(capsys, "count", "--n", "2", "--s", "2", "--vary", "1")
        assert code == 2

    def test_to_without_vary_exit_2(self, capsys):
        code, out, err = run(capsys, "count", "--n", "3", "--s", "2", "--to", "5")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--to" in err and "--vary" in err

    def test_bad_axis_exit_2(self, capsys):
        code, _, _ = run(capsys, "count", "--n", "2", "--s", "2",
                         "--vary", "2", "--to", "5")
        assert code == 2

    def test_past_the_polynomial(self, capsys):
        # the count of [10,60]x[3,3] takes the value scan along axis 2 in
        # well under a second, where its polynomial, by the packed scan,
        # takes about 100 s; no polynomial of [48,48]x[3,3] fits at all
        code, out, _ = run(capsys, "count", "--n", "10,60", "--s", "3,3")
        assert code == 0 and int(out) > 0
        code, _, _ = run(capsys, "poly", "--n", "48,48", "--s", "3,3")
        assert code == 3

    def test_no_route_exit_3_names_the_value_scan(self, capsys):
        code, out, err = run(capsys, "count", "--n", "48,48", "--s", "3,3")
        assert code == 3 and out == "" and "'mc'" in err
        assert "one value per state, predicts" in err


class TestCurve:
    def test_three_point_curve(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "2", "--s", "1",
                           "--q-min", "0", "--q-max", "1", "--steps", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,R"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert rows == [(0.0, 1.0), (0.5, 0.25), (1.0, 0.0)]

    def test_endpoint_rows(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "2,3", "--s", "1,2",
                           "--q-min", "0", "--q-max", "1", "--steps", "10")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 12
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first == [0.0, 1.0]
        assert last == [1.0, 0.0]

    def test_monotone_nonincreasing(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "2,3,4", "--s", "1,2,3",
                           "--q-min", "0", "--q-max", "1", "--steps", "100")
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert len(values) == 101
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "curve", "--n", "2", "--s", "1", "--steps", "4",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("q,R\n")

    def test_unwritable_out_exits_2_before_computing(
        self, capsys, monkeypatch, tmp_path
    ):
        import relpoly.cli as cli_module

        monkeypatch.setattr(
            cli_module, "reliability_polynomial", lambda shape: pytest.fail("computed")
        )
        code, out, err = run(capsys, "curve", "--n", "3", "--s", "2", "--steps", "2",
                             "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_out_without_a_traceback(self, tmp_path, target):
        with script("curve", "--n", "3", "--s", "2", "--steps", "2",
                    "--out", str(tmp_path / target), stderr=subprocess.PIPE) as proc:
            err = proc.stderr.read()
        assert proc.returncode == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_closed_pipe_without_a_traceback(self):
        # 20001 rows overflow the pipe, so the writes after the reader
        # closes it fail, as under ``| head -1``
        with script("curve", "--n", "3,4", "--s", "2,2", "--steps", "20000",
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == "q,R\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 1 and err == ""  # no traceback, no message

    def test_json_points(self, capsys):
        code, out, _ = run(capsys, "curve", "--n", "2", "--s", "1", "--steps", "2",
                           "--format", "json")
        env = json.loads(out)
        assert code == 0
        assert env["result"]["points"][0] == [0.0, 1.0]

    @pytest.mark.parametrize(
        "qmin,qmax,steps",
        [("0.7", "0.3", "5"), ("0", "1", "0"), ("-0.2", "0.5", "5"), ("0.5", "0.5", "5")],
    )
    def test_invalid_range_exit_2(self, capsys, qmin, qmax, steps):
        code, _, _ = run(capsys, "curve", "--n", "2", "--s", "1",
                         "--q-min", qmin, "--q-max", qmax, "--steps", steps)
        assert code == 2

    def test_long_shape_stays_in_unit_interval(self, capsys):
        code, out, err = run(capsys, "curve", "--n", "300", "--s", "5",
                             "--steps", "4")
        assert code == 0 and "Traceback" not in err
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 5 and rows[-1] == "1.0,0.0"
        assert all(0.0 <= float(row.split(",")[1]) <= 1.0 for row in rows)


class TestOracle:
    def test_check_match(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "3", "--s", "2", "--check")
        assert code == 0
        assert "a=3" in out
        assert "f=[0, 0, 2, 1]" in out
        assert "P = 2q^2 - q^3" in out
        assert "MATCH" in out

    def test_check_computes_once(self, capsys, monkeypatch):
        import relpoly.engine as engine

        calls = []
        for name in (
            "inclusion_exclusion_polynomial",
            "transfer_matrix_tally",
            "_window_layer_polynomial",
            "_packed_polynomial",
        ):
            def counted(*args, _original=getattr(engine, name), **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine, name, counted)
        code, out, _ = run(capsys, "oracle", "--n", "4,4", "--s", "2,2", "--check")
        assert code == 0 and "MATCH" in out
        assert len(calls) == 1

    def test_json(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "3", "--s", "2", "--check",
                           "--format", "json")
        env = json.loads(out)
        assert code == 0 and env["command"] == "oracle"
        assert env["n"] == [3] and env["s"] == [2]
        assert env["result"] == {
            "a": 3, "f": [0, 0, 2, 1], "poly": [[2, "2"], [3, "-1"]],
            "check": "MATCH",
        }

    def test_json_without_check(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "2,2", "--s", "2,2",
                           "--format", "json")
        env = json.loads(out)
        assert code == 0 and env["result"]["check"] is None
        assert env["result"]["a"] == 1

    def test_json_mismatch_exit_4(self, capsys, monkeypatch):
        import relpoly.cli as cli_module

        monkeypatch.setattr(
            cli_module, "failure_polynomial", lambda shape: IntPolynomial({1: 1})
        )
        code, out, _ = run(capsys, "oracle", "--n", "3", "--s", "2", "--check",
                           "--format", "json")
        assert code == 4 and json.loads(out)["result"]["check"] == "MISMATCH"

    def test_plain_report(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "2,2", "--s", "2,2")
        assert code == 0
        assert "a=1" in out and "f=[0, 0, 0, 0, 1]" in out

    def test_nonfailable(self, capsys):
        code, out, _ = run(capsys, "oracle", "--n", "2", "--s", "3")
        assert code == 0
        assert "a=0" in out and "P = 0" in out

    def test_over_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "oracle", "--n", "5,5", "--s", "2,2")
        assert code == 3 and "error" in err

    def test_mismatch_exit_4(self, capsys, monkeypatch):
        import relpoly.cli as cli_module

        monkeypatch.setattr(
            cli_module, "failure_polynomial", lambda shape: IntPolynomial({1: 1})
        )
        code, out, _ = run(capsys, "oracle", "--n", "3", "--s", "2", "--check")
        assert code == 4 and "MISMATCH" in out


class TestMc:
    def test_q_zero(self, capsys):
        code, out, _ = run(capsys, "mc", "--n", "3,3", "--s", "2,2", "--q", "0",
                           "--samples", "100", "--seed", "7")
        assert code == 0 and "p_hat=0.0 " in out

    def test_q_one(self, capsys):
        code, out, _ = run(capsys, "mc", "--n", "3,3", "--s", "2,2", "--q", "1",
                           "--samples", "100", "--seed", "7")
        assert code == 0 and "p_hat=1.0 " in out

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "mc", "--n", "3,3", "--s", "2,2", "--q", "0.3",
                           "--samples", "1000", "--seed", "11",
                           "--format", "json")
        env = json.loads(out)
        assert code == 0 and env["mode"] == "montecarlo"
        result = env["result"]
        assert result["seed"] == 11
        assert result["rng"] == "philox4x64"
        assert result["failures"] <= result["samples"] == 1000
        assert result["ci95"][0] <= result["p_hat"] <= result["ci95"][1]

    def test_bad_samples_exit_2(self, capsys):
        code, _, _ = run(capsys, "mc", "--n", "3,3", "--s", "2,2", "--q", "0.3",
                         "--samples", "0", "--seed", "7")
        assert code == 2


class TestStartUp:
    # the calls the window-layer scans with one Python int per state answer
    # (cli-mix's poly, eval, count and curve calls) load neither numpy nor
    # the thread pool; oracle and mc load numpy when they run
    SCANS = [
        ["poly", "--n", "4,5", "--s", "2,2"],
        ["poly", "--n", "2,12", "--s", "2,3", "--target", "p", "--format", "json"],
        ["eval", "--n", "4,5", "--s", "2,2", "--q", "0.3"],
        ["eval", "--n", "16", "--s", "3", "--q", "1/3", "--exact"],
        ["eval", "--n", "25", "--s", "2", "--q", "0.99"],
        ["count", "--n", "4,4", "--s", "2,2"],
        ["count", "--n", "2,2", "--s", "2,2", "--vary", "2", "--to", "16"],
        ["curve", "--n", "3,4", "--s", "2,2", "--steps", "50"],
    ]
    ARRAYS = [
        ["oracle", "--n", "3", "--s", "2", "--check"],
        ["mc", "--n", "3,3", "--s", "2,2", "--q", "0.3", "--samples", "1000",
         "--seed", "11", "--format", "json"],
    ]
    PROGRAM = textwrap.dedent("""
        import contextlib, io, json, sys
        import relpoly, relpoly.cli

        def loaded():
            return [m for m in ("numpy", "concurrent.futures") if m in sys.modules]

        report = {"import": loaded(), "runs": []}
        for argv in json.loads(sys.argv[1]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = relpoly.cli.main(argv)
            report["runs"].append([code, out.getvalue(), loaded()])
        print(json.dumps(report))
    """)

    @staticmethod
    def _comparable(out):
        if not out.startswith("{"):
            return out
        env = json.loads(out)
        del env["elapsed_ms"]
        return env

    def test_scans_load_no_numpy(self, capsys):
        env = dict(os.environ, PYTHONPATH=str(Path(relpoly.__file__).parents[1]))
        calls = json.dumps(self.SCANS + self.ARRAYS)
        done = subprocess.run([sys.executable, "-c", self.PROGRAM, calls], env=env,
                              capture_output=True, text=True, check=True)
        report = json.loads(done.stdout)
        assert report["import"] == []
        runs = report["runs"]
        for argv, (code, out, modules) in zip(self.SCANS, runs):
            assert code == 0 and modules == [], argv
            expected = run(capsys, *argv)[1]
            assert self._comparable(out) == self._comparable(expected), argv
        (code, out, modules), (mc_code, mc_out, _) = runs[len(self.SCANS):]
        assert code == 0 and "numpy" in modules
        assert "a=3" in out and "f=[0, 0, 2, 1]" in out
        assert "P = 2q^2 - q^3" in out and "MATCH" in out
        result = json.loads(mc_out)["result"]
        assert mc_code == 0 and result["seed"] == 11 and result["rng"] == "philox4x64"
        assert result["failures"] <= result["samples"] == 1000
        assert result["ci95"][0] <= result["p_hat"] <= result["ci95"][1]


@pytest.mark.parametrize(
    "argv",
    [
        ("poly", "--n", "3", "--s", "2"),
        ("mc", "--n", "3", "--s", "2", "--q", "0.5", "--samples", "10",
         "--seed", "1"),
    ],
)
def test_bad_workers_env_exit_2_names_variable(capsys, monkeypatch, argv):
    monkeypatch.setenv("RELPOLY_WORKERS", "abc")
    code, _, err = run(capsys, *argv)
    assert code == 2 and "RELPOLY_WORKERS" in err and "'abc'" in err


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_shape_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--n", "2"])
        assert exc.value.code == 2
