"""Command-line interface: grammar, formats, exit codes, idempotence."""

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agmbounds import cli, coefficients, means, verify
from test_coefficients import closed_rows

SRC = Path(__file__).resolve().parents[1] / "src"

A_TABLE_STR = [
    "1/4", "7/48", "5/48", "313/3840", "43/640", "12317/215040",
    "10751/215040", "183349/4128768", "206329/5160960", "66087019/1816657920",
]


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


def cli_process(argv, **kwargs):
    """Popen arguments of a fresh `python -m agmbounds.cli` process."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    return dict(args=[sys.executable, "-m", "agmbounds.cli", *argv], env=env, **kwargs)


# The grid points of one piece of scan's text.
SCAN_CHUNK = cli._SCAN_CHUNK


def _scan_as_one_string(points, t_min, t_max, fmt, digits):
    """scan's output built as one string, as it was before scan wrote it
    in chunks: the oracle of its chunked writes."""
    grid, ratio = means.scan_ratio(points, t_min, t_max)
    upper = math.pi / 2.0
    if fmt == "json":
        return json.dumps(
            {
                "grid": grid,
                "ratio": ratio,
                "monotone_decreasing": all(x > y for x, y in zip(ratio, ratio[1:])),
                "min_value": min(ratio),
                "max_value": max(ratio),
                "lower_bound": 1.0,
                "upper_bound": upper,
            },
            sort_keys=True,
        ) + "\n"
    bounds = f",1,{upper:.{digits}g}"
    return "t,ratio,lower_bound,upper_bound\n" + "\n".join(
        [f"{t:.{digits}g},{r:.{digits}g}{bounds}" for t, r in zip(grid, ratio)]
    ) + "\n"


def _nan_ratio_at(monkeypatch, t_nan):
    """means._mean_ratio returning NaN at t_nan, as a faulty M or L would."""
    exact = means._mean_ratio
    monkeypatch.setattr(means, "_mean_ratio", lambda t: math.nan if t == t_nan else exact(t))


class TestMean:
    def test_agm_text(self):
        code, out = run_cli(
            "mean", "--kind", "agm", "--a", "1.4142135623730951", "--b", "1"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.198140234735592, rel=1e-14)

    def test_log_json(self):
        code, out = run_cli(
            "mean", "--kind", "log", "--a", "2", "--b", "8", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "log"
        assert data["value"] == pytest.approx(6.0 / math.log(4.0), rel=1e-14)

    def test_genlog_csv(self):
        code, out = run_cli(
            "mean", "--kind", "genlog", "--p", "1", "--a", "3", "--b", "5",
            "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "kind,p,a,b,value"
        assert row.split(",")[0] == "genlog"
        assert float(row.split(",")[-1]) == pytest.approx(4.0, rel=1e-13)

    def test_identric_text(self):
        # I(2, 8) = (1/e) (8^8 / 2^2)^(1/6) = 2^(11/3) / e
        code, out = run_cli("mean", "--kind", "identric", "--a", "2", "--b", "8")
        assert code == 0
        assert float(out) == pytest.approx(2.0 ** (11.0 / 3.0) / math.e, rel=1e-14)

    def test_genlog_requires_p(self):
        code, _ = run_cli("mean", "--kind", "genlog", "--a", "3", "--b", "5")
        assert code == 2

    def test_p_rejected_elsewhere(self):
        code, _ = run_cli("mean", "--kind", "log", "--p", "1", "--a", "3", "--b", "5")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("mean", "--kind", "log", "--a", "-1", "--b", "5"),
            ("elliptic", "--method", "series", "--t", "0.99"),
            ("coeffs", "--kmax", "1", "--format", "json"),
            ("scan", "--points", "2", "--tmin", "0.1", "--tmax", "0.9", "--format", "csv"),
        ],
        ids=" ".join,
    )
    def test_domain_error(self, capsys, argv):
        # each command raises before it returns its output, so nothing
        # reaches stdout; verify takes no input that can raise
        assert run_cli(*argv) == (2, "")
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n")

    def test_digits_control(self):
        _, out15 = run_cli("mean", "--kind", "log", "--a", "2", "--b", "8")
        _, out5 = run_cli("mean", "--kind", "log", "--a", "2", "--b", "8",
                          "--digits", "5")
        assert len(out5.strip()) < len(out15.strip())
        code, _ = run_cli("mean", "--kind", "log", "--a", "2", "--b", "8",
                          "--digits", "30")
        assert code == 2


class TestElliptic:
    def test_modulus_series(self):
        code, out = run_cli("elliptic", "--method", "series", "--t", "0.5",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "series"
        assert data["value"] == pytest.approx(1.6857503548125963, rel=1e-13)

    def test_pair_agm_homogeneity(self):
        code, out = run_cli("elliptic", "--method", "agm", "--a", "2", "--b", "2",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_pair_agm_small_ratio(self):
        # 19.408 before the pair's modulus carried its exact complement
        code, out = run_cli("elliptic", "--method", "agm", "--a", "1", "--b", "1e-8",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(19.806975105072258, rel=1e-12)

    def test_quadrature_with_modulus(self):
        code, out = run_cli("elliptic", "--method", "quadrature", "--t", "0",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_quadrature_with_pair(self):
        # K(a, b) = pi / (2 M(a, b)), and K(2a, 2b) = K(a, b) / 2
        m, _ = means.agm_iterates(1.0, 0.01)
        for a, b, scale in (("1", "0.01", 1.0), ("2", "0.02", 0.5)):
            code, out = run_cli("elliptic", "--method", "quadrature", "--a", a, "--b", b,
                                "--format", "json")
            assert code == 0
            data = json.loads(out)
            assert data["method"] == "quadrature"
            assert data["value"] == pytest.approx(scale * math.pi / (2.0 * m), rel=1e-13)

    def test_csv_format(self):
        code, out = run_cli("elliptic", "--method", "series", "--t", "0.5", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "method,value,terms_or_iterations,error_estimate"
        method, value, terms, err = row.split(",")
        assert method == "series" and int(terms) > 0 and 0.0 < float(err) < 1e-15
        assert float(value) == pytest.approx(1.6857503548125963, rel=1e-14)

    def test_text_fields(self):
        code, out = run_cli("elliptic", "--method", "agm", "--t", "0.5")
        assert code == 0
        keys = [line.split(":")[0] for line in out.strip().split("\n")]
        assert keys == ["value", "method", "terms_or_iterations", "error_estimate"]

    def test_conflicting_inputs(self):
        code, _ = run_cli("elliptic", "--method", "agm", "--t", "0.5", "--a", "1",
                          "--b", "2")
        assert code == 2
        code, _ = run_cli("elliptic", "--method", "agm", "--a", "1")
        assert code == 2

    def test_series_refusal_is_domain_error(self, capsys):
        code, _ = run_cli("elliptic", "--method", "series", "--t", "0.99")
        assert code == 2
        assert "k_agm" in capsys.readouterr().err

    def test_runtime_error_propagates(self, monkeypatch):
        # a RuntimeError is a fault of the program, not of the input
        from agmbounds import elliptic

        def faulty_series(m):
            raise RuntimeError("fault")

        monkeypatch.setattr(elliptic, "k_series", faulty_series)
        with pytest.raises(RuntimeError, match="fault"):
            run_cli("elliptic", "--method", "series", "--t", "0.5")

        def faulty_rows(k_max):
            yield 0, None, (1, 1), None, None, None
            raise RuntimeError("fault")

        monkeypatch.setattr(coefficients, "_rows", faulty_rows)
        for fmt in ("text", "csv", "json"):
            with pytest.raises(RuntimeError, match="fault"):
                run_cli("coeffs", "--kmax", "5", "--format", fmt)

    def test_invalid_modulus(self):
        code, _ = run_cli("elliptic", "--method", "agm", "--t", "1.0")
        assert code == 2


def _seeded_float_argv(seed):
    """mean argv of every kind and elliptic argv of every route, on
    log-uniform pairs and uniform moduli drawn from seed; each elliptic
    pair has a modulus that the series route takes."""
    rng = random.Random(seed)
    argvs = []
    for _ in range(8):
        a, b = (10.0 ** rng.uniform(-6.0, 6.0) for _ in range(2))
        pair = ["--a", repr(a), "--b", repr(b)]
        argvs += [["mean", "--kind", kind, *pair] for kind in ("log", "identric", "agm")]
        argvs.append(["mean", "--kind", "genlog", "--p", repr(rng.uniform(-4.0, 4.0)), *pair])
        t = repr(rng.uniform(0.0, 0.95))
        near_pair = ["--a", repr(a), "--b", repr(a * rng.uniform(0.35, 1.0))]
        for method in ("series", "agm", "quadrature"):
            argvs += [["elliptic", "--method", method, "--t", t],
                      ["elliptic", "--method", method, *near_pair]]
    return argvs


class TestJsonText:
    """mean and elliptic write the text of json.dumps(sort_keys=True)
    through means._json_dumps, without loading json."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_json_dumps(self, monkeypatch, seed):
        written = [run_cli(*argv, "--format", "json")
                   for argv in _seeded_float_argv(seed)]
        assert len(written) == 80
        assert all(code == 0 and means._json_text(json.loads(text)) for code, text in written)
        # with the writer refusing every value, each text goes through json.dumps
        monkeypatch.setattr(means, "_json_text", lambda value: None)
        for argv, text in zip(_seeded_float_argv(seed), written):
            assert run_cli(*argv, "--format", "json") == text

    @pytest.mark.parametrize(
        "value",
        [[], {}, [1, -0.0, 5e-324, 1.7976931348623157e308, 10**30, None, "s"],
         {"b": [1.5, {"c": None}], "a": "x"}, [True], [math.nan], [math.inf], ["\u00e9"],
         ['"'], {1: 2}, (1, 2), {"k": (1,)}],
        ids=repr,
    )
    def test_values(self, value):
        assert means._json_dumps(value) == json.dumps(value, sort_keys=True)


def _library_floats(argv):
    """The floats that a mean or elliptic argv of _seeded_float_argv
    computes, keyed as in its JSON, from the library called directly."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "mean":
        inp = means.MeanInput(float(opts["--a"]), float(opts["--b"]))
        kind = opts["--kind"]
        if kind == "genlog":
            return {"value": means.gen_log_mean(float(opts["--p"]), inp)}
        if kind == "agm":
            return {"value": means.agm(inp).limit}
        return {"value": (means.log_mean if kind == "log" else means.identric_mean)(inp)}
    from agmbounds import elliptic

    if opts["--method"] == "quadrature":
        scale = 1.0
        if "--t" in opts:
            result = elliptic.k_quadrature(1.0, elliptic.Modulus(float(opts["--t"])).complement())
        else:
            result = elliptic.k_quadrature(float(opts["--a"]), float(opts["--b"]))
    else:
        if "--t" in opts:
            m, scale = elliptic.Modulus(float(opts["--t"])), 1.0
        else:
            m, scale = elliptic.modulus_from_pair(float(opts["--a"]), float(opts["--b"]))
        result = (elliptic.k_series if opts["--method"] == "series" else elliptic.k_agm)(m)
    return {"value": result.value / scale, "error_estimate": result.error_estimate / scale}


# The JSON argv of the commands that _seeded_float_argv does not cover.
OTHER_JSON_ARGV = [
    ["scan", "--points", "7", "--tmin", "0.1", "--tmax", "0.9"],
    ["coeffs", "--kmax", "6"],
    ["verify", "--profile", "quick", "--seed", "5"],
]


class TestJsonFloats:
    """JSON writes every float as its repr, whatever --digits is, so it
    reads back as the double the library computed."""

    @pytest.mark.parametrize(
        "argv", [*_seeded_float_argv(1), *OTHER_JSON_ARGV], ids=" ".join
    )
    def test_same_at_every_digits(self, argv):
        written = {run_cli(*argv, "--format", "json", "--digits", digits)
                   for digits in ("1", "5", "15", "17")}
        assert len(written) == 1
        (code, text), = written
        assert code == 0 and json.loads(text)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_exact_doubles(self, seed):
        for argv in _seeded_float_argv(seed):
            code, text = run_cli(*argv, "--format", "json")
            assert code == 0
            data = json.loads(text)
            for key, value in _library_floats(argv).items():
                assert float.hex(data[key]) == float.hex(value), (argv, key)


class TestCoeffs:
    def test_csv_matches_exact_table(self):
        code, out = run_cli("coeffs", "--kmax", "10", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,a,b,h,g,s"
        a_cells = [line.split(",")[1] for line in lines[2:]]
        assert a_cells == A_TABLE_STR

    def test_text_lists_a_column(self):
        code, out = run_cli("coeffs", "--kmax", "3")
        assert code == 0
        assert out.strip().split("\n") == [
            "a_1 = 1/4", "a_2 = 7/48", "a_3 = 5/48",
        ]

    def test_json_round_trip(self):
        code, out = run_cli("coeffs", "--kmax", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["k_max"] == 6
        assert [row["k"] for row in data["rows"]] == list(range(7))
        a_1 = data["rows"][1]["a"]
        assert Fraction(int(a_1["numerator"]), int(a_1["denominator"])) == Fraction(1, 4)

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("k_max", [1, 0])
    def test_kmax_too_small(self, capsys, k_max, fmt):
        # the rows stream lazily, so k_max must be checked before the first write
        code, out = run_cli("coeffs", "--kmax", str(k_max), "--format", fmt)
        assert (code, out) == (2, "")
        assert capsys.readouterr() == ("", f"error: k_max must be >= 2, got {k_max}\n")

    @pytest.mark.parametrize("k_max", [2, 3, 11, 50])
    def test_output_equals_table_export(self, k_max):
        # the expected texts are built from the oracle's closed-form rows
        values = [
            {name: c for name, c in zip("abhgs", row[1:]) if c is not None}
            for row in closed_rows(k_max)
        ]
        rows = [
            {"k": k, **{name: {"numerator": str(n), "denominator": str(d)}
                        for name, (n, d) in row.items()}}
            for k, row in enumerate(values)
        ]
        assert run_cli("coeffs", "--kmax", str(k_max), "--format", "json") == (
            0, json.dumps({"k_max": k_max, "rows": rows}, sort_keys=True) + "\n"
        )
        csv = "k,a,b,h,g,s\n" + "".join(
            f"{k}," + ",".join("/".join(map(str, row[n])) if n in row else ""
                               for n in "abhgs") + "\n"
            for k, row in enumerate(values)
        )
        assert run_cli("coeffs", "--kmax", str(k_max), "--format", "csv") == (0, csv)
        assert run_cli("coeffs", "--kmax", str(k_max)) == (
            0, "".join(f"a_{k} = {Fraction(*values[k]['a'])}\n" for k in range(1, k_max + 1))
        )

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_memory_does_not_grow_with_kmax(self, fmt):
        # Each row is written as it is computed, so neither the table nor
        # its text is held: the traced peak at k_max = 500 stays within
        # 0.25 MB of the peak at k_max = 50 (holding the table took 0.8 MB
        # more in text and 4 MB more in csv and json).
        class Sink:
            def write(self, text):
                return len(text)

        def peak(k_max):
            tracemalloc.start()
            try:
                assert cli.run(["coeffs", "--kmax", str(k_max), "--format", fmt], out=Sink()) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(50)  # imports and first-call caches are not part of either peak
        assert peak(500) - peak(50) <= 250_000


class TestScan:
    def test_csv_columns(self):
        code, out = run_cli("scan", "--points", "5", "--tmin", "0.01",
                            "--tmax", "0.9")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,ratio,lower_bound,upper_bound"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.01)
        assert 1.0 < float(first[1]) < math.pi / 2.0
        assert first[2] == "1"
        assert float(first[3]) == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_json_fields(self):
        code, out = run_cli("scan", "--points", "4", "--tmin", "0.1",
                            "--tmax", "0.5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["monotone_decreasing"] is True
        assert data["lower_bound"] == 1.0
        assert len(data["grid"]) == len(data["ratio"]) == 4

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_memory_does_not_grow_with_points(self, fmt):
        # The text is written chunk by chunk, so past the grid and ratio
        # lists that scan_ratio returns, the traced peak at 20000 points
        # stays within 0.25 MB of the peak at 2000 (writing the text as one
        # string took 3.3 MB more in text and csv and 2.3 MB more in json).
        class Sink:
            def write(self, text):
                return len(text)

        def traced(call):
            tracemalloc.start()
            try:
                result = call()
                return result, tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        def peak(points):
            argv = ["scan", "--points", str(points), "--tmin", "1e-8", "--tmax", "0.9999",
                    "--format", fmt]
            code, (_, peak) = traced(lambda: cli.run(argv, out=Sink()))
            assert code == 0
            return peak

        def lists(points):
            # the memory the returned grid and ratio lists hold, floats included
            _, (current, _) = traced(lambda: means.scan_ratio(points, 1e-8, 0.9999))
            return current

        peak(2000)  # imports and first-call caches are not part of either peak
        assert peak(20000) - peak(2000) <= lists(20000) - lists(2000) + 250_000

    @pytest.mark.parametrize("digits", ["15", "17"])
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize(
        "points", [3, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 2 * SCAN_CHUNK + 1],
        ids=["3", "C-1", "C", "C+1", "2C+1"],
    )
    def test_chunk_boundaries(self, points, fmt, digits):
        # the chunked writes give the bytes of the text written as one string
        argv = ["scan", "--points", str(points), "--tmin", "1e-8", "--tmax", "0.9999",
                "--format", fmt, "--digits", digits]
        assert run_cli(*argv) == (0, _scan_as_one_string(points, 1e-8, 0.9999, fmt, int(digits)))

    def test_invalid_window(self):
        code, _ = run_cli("scan", "--points", "5", "--tmin", "0.9", "--tmax", "0.1")
        assert code == 2

    def test_non_finite_ratio_is_a_domain_error(self, monkeypatch, capsys):
        _nan_ratio_at(monkeypatch, 0.9999)
        code, out = run_cli("scan", "--points", "5", "--tmin", "0.5", "--tmax", "0.9999")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: ratio evaluation failed at t=0.9999: nan\n"

    def test_window_too_narrow_for_its_points(self, capsys):
        # [0.5, 0.5 + 2 ulp] holds three doubles: five grid points would repeat one
        code, out = run_cli("scan", "--points", "5", "--tmin", "0.5",
                            "--tmax", "0.5000000000000002")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: the grid of 5 points")


class TestVerify:
    def test_quick_json_all_pass(self):
        code, out = run_cli("verify", "--profile", "quick", "--seed", "42",
                            "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 7
        assert all(r["status"] == "pass" for r in reports)
        parsed = [verify.VerificationReport(**obj) for obj in reports]
        assert verify.all_passed(parsed)

    def test_idempotent_output(self):
        first = run_cli("verify", "--profile", "quick", "--seed", "9",
                        "--format", "json")
        second = run_cli("verify", "--profile", "quick", "--seed", "9",
                         "--format", "json")
        assert first == second

    def test_text_format(self):
        code, out = run_cli("verify", "--profile", "quick")
        assert code == 0
        assert out.count("PASS") == 7
        assert "7/7 claims passed" in out

    def test_csv_format(self):
        code, out = run_cli("verify", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "claim_id,status,checked_points,witness"
        assert len(lines) == 8

    def test_timings_go_to_stderr_only(self, capsys):
        code, plain = run_cli("verify", "--seed", "3", "--format", "json")
        capsys.readouterr()
        code_t, timed = run_cli("verify", "--seed", "3", "--format", "json", "--timings")
        err = capsys.readouterr().err
        assert code == code_t == 0
        assert timed == plain
        lines = err.strip().split("\n")
        assert [line.split()[0] for line in lines] == [
            r["claim_id"] for r in json.loads(plain)
        ]
        assert all(float(line.split()[1]) >= 0.0 for line in lines)

    def test_non_finite_ratio_fails_its_claims(self, monkeypatch, capsys):
        # every report is written, and the run exits 1, not 2
        _nan_ratio_at(monkeypatch, 0.9999)
        code, out = run_cli("verify", "--format", "json")
        assert code == 1 and capsys.readouterr().err == ""
        reports = {r["claim_id"]: r for r in json.loads(out)}
        assert len(reports) == 7
        failed = {cid: r["witness"] for cid, r in reports.items() if r["status"] == "fail"}
        assert failed == {"ratio-scan": "ratio evaluation failed at t=0.9999: nan"}

    def test_failure_exit_code(self, monkeypatch):
        failing = verify.VerificationReport(
            claim_id="x", statement="s", status="fail", checked_points=1,
            tolerances={}, witness="w",
        )
        monkeypatch.setattr(verify, "run_all", lambda profile, seed, on_check: [failing])
        code, out = run_cli("verify")
        assert code == 1
        assert "FAIL" in out


class TestUsage:
    def test_no_command(self):
        assert cli.run([]) == 2

    def test_unknown_command(self):
        assert cli.run(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "mean" in capsys.readouterr().out


# SHA-256 of stdout for the verify, coeffs and scan commands whose cost
# sets the CLI tail, for coeffs in every format, which streams its rows in
# chunks, for scan in every format and at 17 digits, which writes its text
# in chunks, and for the JSON of mean and elliptic, whose floats are written
# in full: a faster mean chain, exact layer or writer must keep these
# outputs byte-identical.  Every quick seed passes every claim, so their
# reports are equal; scan's text and CSV share one layout.  Run as a
# script, PYTHONPATH=src python tests/test_cli.py prints one
# "sha256<TAB>argv" line per pin, with the digest of the stdout now, marks
# each digest that differs from its pin, and exits 1 if any does.
QUICK_JSON_SHA256 = "6431e8c007bb072c74249a566726cee92970b4f9e0d0c870fd4b1ec066b451eb"
SCAN_TEXT_SHA256 = "48231bf30a3b9a537a329bdd61fefc23bf419bb5d4f1a3bcdd2922eabd0a0b17"
SCAN_ARGV = ("scan", "--points", "2000", "--tmin", "1e-8", "--tmax", "0.9999")
PINNED_STDOUT_SHA256 = [
    (("verify", "--profile", "quick", "--seed", "1", "--format", "json"), QUICK_JSON_SHA256),
    (("verify", "--profile", "quick", "--seed", "2", "--format", "json"), QUICK_JSON_SHA256),
    (("verify", "--profile", "quick", "--seed", "3", "--format", "json"), QUICK_JSON_SHA256),
    (("verify", "--profile", "quick", "--seed", "4", "--format", "json"), QUICK_JSON_SHA256),
    (
        ("verify", "--profile", "full", "--format", "json"),
        "f44829e56904efa3ebf20297588b469e229e53e730e7c1ad2f467ceb2c5083bf",
    ),
    (
        ("coeffs", "--kmax", "500", "--format", "json"),
        "b8e4983f80087dfecf662721cc63d19e703a75261f642d73dbe7852771079884",
    ),
    (
        ("coeffs", "--kmax", "500", "--format", "csv"),
        "ceb992fae91ad4a1162505f144e6093300d826e3614b0e961c195a788e805299",
    ),
    (
        ("coeffs", "--kmax", "500", "--format", "text"),
        "725b3c96db4fde91a51238902728fe07ddaefcfb315c852cf0a328ae3c09ea22",
    ),
    ((*SCAN_ARGV, "--format", "text"), SCAN_TEXT_SHA256),
    ((*SCAN_ARGV, "--format", "csv"), SCAN_TEXT_SHA256),
    (
        (*SCAN_ARGV, "--format", "json"),
        "637cfe38ce8d7a910f16595ebd06319a630a5ec6de32d6caaf3d7ea494ad670b",
    ),
    (
        (*SCAN_ARGV, "--digits", "17"),
        "669ab7d00b171e5531fe4715239285f7028c48978a43fe51e71e7a463b925c6f",
    ),
    (
        ("mean", "--kind", "agm", "--a", "1.4142135623730951", "--b", "1", "--format", "json"),
        "74d1f5e42f3902bd265034389abd65421711de239ae35225d1569a834a56b2b2",
    ),
    (
        ("mean", "--kind", "genlog", "--p=-1.5", "--a", "2", "--b", "8", "--format", "json"),
        "00fa9495c9275b3bef02d5ea96484b4b118310b94e1ae65f7c98c8a8a5b53565",
    ),
    (
        ("elliptic", "--method", "series", "--t", "0.5", "--format", "json"),
        "d81ccc6028e091adeee18ba1783f3f9e0e20edf139e5d5adf198ae6ffa8c3cca",
    ),
    (
        ("elliptic", "--method", "quadrature", "--a", "1", "--b", "0.01", "--format", "json"),
        "809286535f4d339b1170ffd78b7946b7b807dc6baa114e058fb4d0b1a96d06e0",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED_STDOUT_SHA256, ids=[" ".join(a) for a, _ in PINNED_STDOUT_SHA256]
)
def test_stdout_byte_identical(argv, digest):
    code, out = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _writes(argv):
    """The texts of each out.write call of one in-process run of argv."""
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)
            return len(text)

    assert cli.run(list(argv), out=Sink()) == 0
    return writes


# `python -m agmbounds.cli ARGV`, run the way -m runs it, that writes at
# exit the count of its write syscalls (syscw in /proc/self/io) to stderr.
SYSCW_MAIN = """\
import atexit, runpy, sys
def _syscw():
    with open("/proc/self/io") as fh:
        sys.stderr.write(next(line.split()[1] for line in fh if line.startswith("syscw:")))
atexit.register(_syscw)
runpy.run_module("agmbounds.cli", run_name="__main__", alter_sys=True)
"""
COEFFS_PINS = [(argv, digest) for argv, digest in PINNED_STDOUT_SHA256 if argv[0] == "coeffs"]


# One argv of each command whose output is a few lines.
SHORT_ARGVS = [
    ("mean", "--kind", "agm", "--a", "1", "--b", "2"),
    ("elliptic", "--method", "agm", "--t", "0.5"),
    ("verify", "--profile", "quick"),
]


class TestWrites:
    """Every command's output is written by cli._write: coeffs and scan
    in writes of at least cli._OUT_CHUNK characters, mean, elliptic and
    verify as their text in one write, and every output ends with its
    final newline alone."""

    @pytest.mark.parametrize("argv,digest", COEFFS_PINS, ids=[a[-1] for a, _ in COEFFS_PINS])
    def test_coeffs_writes_chunks(self, argv, digest):
        writes = _writes(argv)
        text = "".join(writes)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        if argv[-1] == "json":
            # a row as written: its object and the separator before it
            longest = max(len(json.dumps(row, sort_keys=True)) + 2
                          for row in json.loads(text)["rows"])
        else:
            longest = max(map(len, text.splitlines(keepends=True)))
        chunk = cli._OUT_CHUNK
        assert all(chunk <= len(w) <= chunk + longest for w in writes[:-2])
        assert len(writes) <= math.ceil(len(text) / chunk) + 2

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [("coeffs", "--kmax", "2"), ("coeffs", "--kmax", "500"),
         ("scan", "--points", "3", "--tmin", "0.1", "--tmax", "0.5"), SCAN_ARGV,
         *SHORT_ARGVS],
        ids=" ".join,
    )
    def test_final_newline_is_a_lone_write(self, argv, fmt):
        # on an unbuffered stdout a reader that closes it during a write
        # cuts that write short without an error, and only a further write
        # fails: a last write that carried the end of the table would let a
        # truncated table exit 0
        writes = _writes([*argv, "--format", fmt])
        assert len(writes) >= 2 and writes[-1] == "\n"

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("argv", SHORT_ARGVS, ids=" ".join)
    def test_short_output_is_two_writes(self, argv, fmt):
        # on an unbuffered stdout each write is a syscall: a print per
        # line made two of them per line, the text and its newline
        writes = _writes([*argv, "--format", fmt])
        assert len(writes) == 2 and writes[1] == "\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="no /proc/self/io")
    def test_write_syscalls(self):
        # with PYTHONUNBUFFERED set, stdout is a raw FileIO and each write a
        # syscall: a write per row made 504 of them.  Writing bytecode
        # files would count too.
        argv = ("coeffs", "--kmax", "500", "--format", "json")
        digest = dict(PINNED_STDOUT_SHA256)[argv]
        env = dict(cli_process([])["env"], PYTHONUNBUFFERED="1", PYTHONDONTWRITEBYTECODE="1")
        r = subprocess.run([sys.executable, "-c", SYSCW_MAIN, *argv], env=env,
                           capture_output=True, timeout=60)
        assert r.returncode == 0 and hashlib.sha256(r.stdout).hexdigest() == digest
        assert int(r.stderr) <= 80


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--kmax", "500"],
            *(["coeffs", "--kmax", "500", "--format", f] for f in ("csv", "json")),
            ["scan", "--points", "2000", "--tmin", "1e-8", "--tmax", "0.9999"],
            *(["scan", "--points", "20000", "--tmin", "1e-8", "--tmax", "0.9999", "--format", f]
              for f in ("csv", "json")),
        ],
        ids=" ".join,
    )
    def test_reader_closing_early_exits_141_quietly(self, argv):
        # each output is well beyond a pipe buffer, so writes go on after
        # the reader has gone
        with subprocess.Popen(
            **cli_process(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        ) as proc:
            assert proc.stdout.read(10) in (b"a_1 = 1/4\n", b"k,a,b,h,g,", b'{"k_max": ',
                                            b"t,ratio,lo", b'{"grid": [')
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (141, b"")


# Help and diagnostics of the argparse fallback, byte for byte as the
# hand-written parser printed them with COLUMNS=80.  The layout is that
# of argparse in Python 3.11.
TOP_USAGE = "usage: agmbounds [-h] {mean,elliptic,coeffs,scan,verify} ...\n"
MEAN_USAGE = (
    "usage: agmbounds mean [-h] --kind {log,identric,genlog,agm} [--p P] --a A --b\n"
    "                      B [--format {text,csv,json}] [--digits DIGITS]\n"
)
VERIFY_USAGE = (
    "usage: agmbounds verify [-h] [--profile {quick,full}] [--seed SEED]\n"
    "                        [--timings] [--format {text,csv,json}]\n"
    "                        [--digits DIGITS]\n"
)
HELP_LINE = "  -h, --help            show this help message and exit\n"
COMMON_HELP = (
    "  --format {text,csv,json}\n"
    "  --digits DIGITS       significant digits for text and CSV floats (1..17)\n"
)
FALLBACK_PINS = [
    (
        ["--help"], 0,
        TOP_USAGE
        + "\n"
        "Bivariate means, complete elliptic integrals of the first kind, exact\n"
        "coefficient tables, and the verification suite for the sharp bounds L < M <\n"
        "(pi/2)L.\n"
        "\n"
        "positional arguments:\n"
        "  {mean,elliptic,coeffs,scan,verify}\n"
        "    mean                evaluate a bivariate mean\n"
        "    elliptic            complete elliptic integral K\n"
        "    coeffs              exact coefficient table\n"
        "    scan                scan the ratio M(1,t)/L(1,t)\n"
        "    verify              run the verification suite\n"
        "\n"
        "options:\n" + HELP_LINE,
        "",
    ),
    (
        ["mean", "--help"], 0,
        MEAN_USAGE
        + "\noptions:\n" + HELP_LINE
        + "  --kind {log,identric,genlog,agm}\n"
        "  --p P                 order for --kind genlog\n"
        "  --a A\n"
        "  --b B\n" + COMMON_HELP,
        "",
    ),
    (
        ["elliptic", "--help"], 0,
        "usage: agmbounds elliptic [-h] --method {series,agm,quadrature} [--t T]\n"
        "                          [--a A] [--b B] [--format {text,csv,json}]\n"
        "                          [--digits DIGITS]\n"
        "\noptions:\n" + HELP_LINE
        + "  --method {series,agm,quadrature}\n"
        "  --t T                 modulus in [0, 1)\n"
        "  --a A\n"
        "  --b B\n" + COMMON_HELP,
        "",
    ),
    (
        ["coeffs", "--help"], 0,
        "usage: agmbounds coeffs [-h] --kmax KMAX [--format {text,csv,json}]\n"
        "                        [--digits DIGITS]\n"
        "\noptions:\n" + HELP_LINE
        + "  --kmax KMAX\n" + COMMON_HELP,
        "",
    ),
    (
        ["scan", "--help"], 0,
        "usage: agmbounds scan [-h] --points POINTS --tmin TMIN --tmax TMAX\n"
        "                      [--format {text,csv,json}] [--digits DIGITS]\n"
        "\noptions:\n" + HELP_LINE
        + "  --points POINTS\n"
        "  --tmin TMIN\n"
        "  --tmax TMAX\n" + COMMON_HELP,
        "",
    ),
    (
        ["verify", "--help"], 0,
        VERIFY_USAGE
        + "\noptions:\n" + HELP_LINE
        + "  --profile {quick,full}\n"
        "  --seed SEED\n"
        "  --timings             write 'claim_id elapsed_s' per check to stderr\n"
        + COMMON_HELP,
        "",
    ),
    (
        [], 2, "",
        TOP_USAGE + "agmbounds: error: the following arguments are required: command\n",
    ),
    (
        ["frobnicate"], 2, "",
        TOP_USAGE + "agmbounds: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'mean', 'elliptic', 'coeffs', 'scan', 'verify')\n",
    ),
    (
        ["mean", "--a", "1", "--b", "2"], 2, "",
        MEAN_USAGE + "agmbounds mean: error: the following arguments are required: --kind\n",
    ),
    (
        ["mean", "--kind", "median", "--a", "1", "--b", "2"], 2, "",
        MEAN_USAGE + "agmbounds mean: error: argument --kind: invalid choice: 'median' "
        "(choose from 'log', 'identric', 'genlog', 'agm')\n",
    ),
    (
        ["mean", "--kind", "log", "--a", "x", "--b", "2"], 2, "",
        MEAN_USAGE + "agmbounds mean: error: argument --a: invalid float value: 'x'\n",
    ),
    (
        ["mean", "--kind", "log", "--a", "1", "--b", "2", "--digits", "18"], 2, "",
        TOP_USAGE + "agmbounds: error: --digits must lie in [1, 17], got 18\n",
    ),
    (
        ["verify", "--timings=1"], 2, "",
        VERIFY_USAGE
        + "agmbounds verify: error: argument --timings: ignored explicit argument '1'\n",
    ),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse layout of Python 3.11")
class TestFallback:
    @pytest.mark.parametrize(
        "argv,code,stdout,stderr", FALLBACK_PINS, ids=[" ".join(p[0]) or "-" for p in FALLBACK_PINS]
    )
    def test_in_process(self, argv, code, stdout, stderr, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.run(argv) == code
        assert capsys.readouterr() == (stdout, stderr)

    @pytest.mark.parametrize(
        "argv,code,stdout,stderr", FALLBACK_PINS, ids=[" ".join(p[0]) or "-" for p in FALLBACK_PINS]
    )
    def test_fresh_process(self, argv, code, stdout, stderr):
        proc = subprocess.run(**cli_process(argv, capture_output=True, text=True))
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


@pytest.mark.parametrize(
    "argv,canonical",
    [
        (
            ["mean", "--kind", "genlog", "--p", "-0.5", "--a", "2", "--b", "8"],
            ["mean", "--kind", "genlog", "--p=-0.5", "--a", "2", "--b", "8"],
        ),
        (
            ["mean", "--kind", "log", "--a", "2", "--b", "8", "--form", "json"],
            ["mean", "--kind", "log", "--a", "2", "--b", "8", "--format", "json"],
        ),
        (
            ["mean", "--kind", "log", "--a", "1", "--a", "2", "--b", "8"],
            ["mean", "--kind", "log", "--a", "2", "--b", "8"],
        ),
    ],
    ids=["negative value", "abbreviation", "repeated option"],
)
def test_fallback_spellings_equal_canonical(argv, canonical):
    assert cli._read_argv(argv) is None
    assert cli._read_argv(canonical) is not None
    assert run_cli(*argv) == run_cli(*canonical)


# Option names of the grammar, and their abbreviations and strays.
ALL_OPTIONS = [cli._COMMON, *(opts for _, opts in cli._GRAMMAR.values())]
OPTION_NAMES = sorted({name for opts in ALL_OPTIONS for name in opts})
STRAY_NAMES = ["--form", "--dig", "--ki", "--meth", "--km", "--po", "--tmi", "--pro", "--tim",
               "--x", "--help", "-h", "--", "-a", "--kind--", "format"]
CHOICES = sorted({c for opts in ALL_OPTIONS for _, choices, _, _ in opts.values() for c in choices or ()})
# values each type converts, then values some or all types refuse
GOOD = {
    float: ["1", "2.5", "0.5", "1e-8", "0.9999", "-0.5", "nan", "inf", "-inf", "1_0", " 7 ", "015"],
    int: ["1", "3", "5", "17", "015", "1_0", " 7 ", "-3"],
}
VALUES = [*GOOD[float], *GOOD[int], *CHOICES, "18", "0", "1e999", "0x1f", "1.5e", "x", "", " ",
          "--", "-", "median", "JSON", "json ", "log=1"]


@st.composite
def argvs(draw):
    """argv over the grammar: its options in random order, some missing,
    in both spellings, with good and bad values and stray tokens."""
    command = draw(st.sampled_from(list(cli._GRAMMAR)) if draw(st.integers(0, 7))
                   else st.sampled_from(["frobnicate", "mea", "-h", "--help", ""]))
    options = {**cli._GRAMMAR.get(command, ("", {}))[1], **cli._COMMON}
    argv = [command]
    for name in draw(st.permutations(list(options))):
        if draw(st.integers(0, 5)) == 0:
            continue
        kind, choices, _, _ = options[name]
        if kind is bool:
            argv += draw(st.sampled_from([[name], [name], [f"{name}=1"], [name, "1"]]))
            continue
        good = draw(st.integers(0, 3)) > 0
        value = draw(st.sampled_from((choices or GOOD[kind]) if good else VALUES))
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    # one argv in three gets one or two strays anywhere after the command
    strays = draw(st.integers(1, 2)) if draw(st.integers(0, 2)) == 0 else 0
    for _ in range(strays):
        stray = draw(st.sampled_from([*OPTION_NAMES, *STRAY_NAMES]))
        value = draw(st.sampled_from(VALUES))
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = draw(st.sampled_from([[stray], [stray, value], [f"{stray}={value}"]]))
    return argv


def _typed(namespace):
    # NaN != NaN, and 1 == 1.0 == True: compare type and repr instead
    return {k: (type(v), repr(v)) for k, v in vars(namespace).items()}


@pytest.fixture(scope="module")
def parser():
    return cli._build_parser()


@settings(max_examples=1000, deadline=None)
@given(argv=argvs())
@example(argv=["mean", "--kind", "median", "--a", "1", "--b", "2"])
@example(argv=["coeffs", "--kmax", "5", "--digits", "18"])
def test_reader_agrees_with_argparse(parser, argv):
    namespace = cli._read_argv(argv)
    if namespace is not None:
        assert _typed(namespace) == _typed(parser.parse_args(argv))
        assert 1 <= namespace.digits <= 17


if __name__ == "__main__":
    # one "sha256<TAB>argv" line per pinned command, the digest of its
    # stdout now; a digest that differs from its pin is marked with the pin
    differs = 0
    for argv, digest in PINNED_STDOUT_SHA256:
        got = hashlib.sha256(run_cli(*argv)[1].encode()).hexdigest()
        differs += got != digest
        mark = "" if got == digest else f"\tDIFFERS from pin {digest}"
        print(f"{got}\t{' '.join(argv)}{mark}")
    sys.exit(1 if differs else 0)
