"""Self-tests of the benchmark: seeded inputs, checkers, span arithmetic.

    python3 -m pytest perfbench

None of these import agmbounds; the checker tests need mpmath.
"""

import json
import math
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize(
    "gen", [wl.elliptic_inputs, wl.means_inputs, wl.cli_rotation, wl.verify_argv]
)
def test_same_seed_same_inputs(gen):
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_means_inputs_keep_item3_pairs_and_bands():
    pairs = wl.means_inputs(3)
    assert [tuple(p[1:]) for p in pairs[:3]] == list(wl.ITEM3_PAIRS)
    bands = [p[0] for p in pairs]
    assert {b: bands.count(b) for b in wl.MEAN_BANDS} == {
        "verifier": wl.PAIRS_PER_BAND,
        "near_equal": wl.PAIRS_PER_BAND,
        "whole": wl.PAIRS_PER_BAND + 3,
    }
    for band, a, b in pairs:
        assert a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)
        if band == "near_equal":
            assert 5e-16 <= abs(a - b) / min(a, b) <= 1.01e-6
    assert any(min(a, b) < 2.2250738585072014e-308 for band, a, b in pairs[3:] if band == "whole")


def test_elliptic_inputs_cover_both_regimes():
    moduli = wl.elliptic_inputs(5)
    ts = [x for kind, x, _ in moduli if kind == "t"]
    ratios = [y / x for kind, x, y in moduli if kind == "pair"]
    assert len(ts) == wl.T_MODULI and len(ratios) == wl.PAIR_MODULI
    assert all(0.0 <= t <= 0.95 for t in ts)
    assert min(ratios) < 1e-7 and all(1e-8 * 0.999 <= r <= 1.0 for r in ratios)


# ---------------------------------------------------------------------------
# checkers catch one planted defect per workload


def test_elliptic_checker_catches_perturbed_k():
    from reference import elliptic_reference

    inputs = wl.elliptic_inputs(1)[:20]
    values = [[elliptic_reference(*m)] * 3 for m in inputs]
    clean = run.Tally()
    run.check_elliptic(inputs, values, clean)
    assert clean.attempted == 60 and clean.failed == 0
    values[4][2] *= 1.0 + 1e-9
    planted = run.Tally()
    layer = run.check_elliptic(inputs, values, planted)
    assert planted.failed == 1
    assert layer["elliptic.k_quadrature.failed"] == 1
    assert layer["elliptic.k_quadrature.max_rel_err"] == pytest.approx(1e-9, rel=1e-3)


def test_series_refusal_is_not_applicable():
    from reference import elliptic_reference

    inputs = [["pair", 1.0, 1e-6]]
    ref = elliptic_reference(*inputs[0])
    tally = run.Tally()
    run.check_elliptic(inputs, [[None, ref, ref]], tally)
    assert (tally.attempted, tally.failed) == (2, 0)


def test_means_checker_catches_zeroed_mean():
    from reference import means_reference

    inputs = [p for p in wl.means_inputs(2) if p[0] == "verifier"][:10]
    values = [means_reference(a, b) for _, a, b in inputs]
    clean = run.Tally()
    run.check_means(inputs, values, clean)
    assert clean.attempted == 10 * len(wl.MEAN_SLOTS) and clean.failed == 0
    values[3][0] = 0.0
    planted = run.Tally()
    layer = run.check_means(inputs, values, planted)
    assert planted.failed == 1
    assert layer["means.log_mean.verifier.failed"] == 1


def test_failure_outside_known_defects_is_unexpected():
    from reference import elliptic_reference, means_reference

    # a zero log_mean on an underflowing whole-range pair is a known defect
    inputs = [["whole", 1e-308, 1e308], ["whole", 1.0, 4.0], ["near_equal", 1.0, 1.0 + 1e-7]]
    values = [means_reference(a, b) for _, a, b in inputs]
    values[0][0] = 0.0
    values[2][1] *= 1.0 + 1e-7  # identric_mean of a near-equal pair
    known = run.Tally()
    run.check_means(inputs, values, known)
    assert (known.failed, known.unexpected) == (2, 0)
    values[1][0] = 0.0  # the same defect on an ordinary pair is new
    values[2][0] *= 1.0 + 1e-7  # log_mean of a near-equal pair never failed
    new = run.Tally()
    run.check_means(inputs, values, new)
    assert (new.failed, new.unexpected) == (4, 2)

    moduli = [["pair", 1.0, 1e-7], ["t", 0.9, 0.0]]
    refs = [elliptic_reference(*m) for m in moduli]
    k = [[None, refs[0] * 1.01, refs[0] * 1.01], [refs[1]] * 3]
    tally = run.Tally()
    run.check_elliptic(moduli, k, tally)
    assert (tally.failed, tally.unexpected) == (2, 0)
    k[1][1] *= 1.0 + 1e-9  # k_agm of a t modulus
    tally = run.Tally()
    run.check_elliptic(moduli, k, tally)
    assert (tally.failed, tally.unexpected) == (3, 1)


def test_value_check_rejects_errors_and_non_finite():
    assert wl.check_value("OverflowError: math range error", 1.0, 1e-12)
    assert wl.check_value(math.inf, 1.0, 1e-12)
    assert wl.check_value(math.nan, 1.0, 1e-12)
    assert wl.check_value(1.0 + 1e-15, 1.0, 1e-12) is None
    # a subnormal mean is allowed the one step the format forces
    assert wl.check_value(1e-320, 1e-320 + 2e-324, 1e-12) is None


def _verify_stdout(status="pass"):
    reports = [
        {"claim_id": c, "status": status, "checked_points": d, "statement": "",
         "tolerances": {}, "witness": None}
        for c, d in wl.FULL_DEPTH.items()
    ]
    return json.dumps(reports, sort_keys=True).encode()


def test_verify_checker_catches_flipped_status_byte():
    good = _verify_stdout()
    assert wl.check_verify_output(0, good, None) is None
    assert wl.check_verify_output(0, good, good) is None
    at = good.index(b'"pass"') + 4
    flipped = good[:at] + b"t" + good[at + 1:]  # "pass" -> "past"
    assert wl.check_verify_output(0, flipped, None)
    assert wl.check_verify_output(0, flipped, good)
    assert wl.check_verify_output(1, good, None)


def test_verify_checker_catches_short_depth():
    reports = json.loads(_verify_stdout())
    reports[6]["checked_points"] = 9999
    assert wl.check_verify_output(0, json.dumps(reports).encode(), None)


def test_verify_and_cli_failures_are_never_known_defects():
    tally = run.Tally()
    tally.add("verify run 0", wl.check_verify_output(0, _verify_stdout("fail"), None))
    tally.add("command 0", wl.check_cli_output(1, "x", 0, "x"))
    assert (tally.failed, tally.unexpected) == (2, 2)


def test_cli_checker_catches_nonzero_exit():
    assert wl.check_cli_output(0, "x", 0, "x") is None
    assert wl.check_cli_output(2, "x", 2, "x")
    assert wl.check_cli_output(0, "x", 0, "y")


# ---------------------------------------------------------------------------
# spans


def _span(name, start, end, parent=-1, count=None):
    return [name, start, end, parent, None, count]


def test_self_time_subtracts_children_once():
    spans = [
        _span("verify.run_all", 0, 100),
        _span("coefficients.g_sum", 10, 30, 0),
        _span("coefficients.h_sum", 20, 50, 0),  # overlaps its sibling
        _span("kernels.log_mean", 60, 70, 0),
        _span("coefficients.wallis_ratio", 12, 18, 1),
        _span("means.agm", 90, 130, 0),  # clipped to the parent
    ]
    assert tracing.self_times(spans) == [100 - 40 - 10 - 10, 14, 30, 10, 6, 40]


def test_layer_metrics_on_synthetic_trace():
    spans = tracing.propagate_requests([
        _span("verify.coeff-identities", 0, 1000),
        _span("coefficients.a_coeff_sum", 100, 300, 0, 5),
        _span("coefficients.a_coeff_sum", 300, 500, 0, 5),
        _span("coefficients.odd_harmonic", 600, 700, 0, 5),
        _span("elliptic.k_quadrature", 1000, 2000, -1, [4, False]),
        _span("elliptic.k_quadrature", 2000, 3000, -1, [16384, True]),
    ])
    m = tracing.layer_metrics(spans)
    assert m["verify.coeff-identities.s"] == pytest.approx(1000e-9)
    assert m["verify.self_s"] == pytest.approx(500e-9)
    assert m["coefficients.self_s"] == pytest.approx(500e-9)
    assert m["coefficients.a_coeff_sum.calls"] == 2
    assert m["coefficients.distinct_call_ratio"] == pytest.approx(2 / 3)
    assert m["elliptic.quad_panels"] == 7 + 32767
    assert m["elliptic.quad_useful_ratio"] == pytest.approx(16388 / 32774)
    assert m["elliptic.quad_budget_hits"] == 1
    assert spans[1][tracing.REQUEST] == "coeff-identities"


def test_tracer_records_nesting():
    tracer = tracing.Tracer()
    inner = tracer.wrap("coefficients.wallis_ratio", lambda k: k)
    outer = tracer.wrap("coefficients.a_coeff_closed", lambda k: inner(k) + 1,
                        count=tracing._first_int_arg)
    tracer.request = 7
    assert outer(3) == 4
    (o, i) = tracer.spans
    assert i[tracing.PARENT] == 0 and o[tracing.PARENT] == -1
    assert o[tracing.COUNT] == 3 and i[tracing.REQUEST] == 7
    assert o[tracing.START] <= i[tracing.START] <= i[tracing.END] <= o[tracing.END]


# ---------------------------------------------------------------------------
# set-up time and the interpreter floor


class FakeProgram:
    """Floors of 0.2 s then 0.1 s, alternating; set-up takes three floors."""

    def __init__(self):
        self.floors = [0.1, 0.2] * 50

    def floor_sample(self):
        self.last = self.floors.pop()
        return self.last

    def setup_sample(self):
        return 3 * self.last


def test_setup_is_taken_at_the_reference_floor():
    setup = run.Setup(FakeProgram(), seconds=1e9)
    setup.tick()  # the first sample is due at once, the next not for long
    setup.tick()
    assert setup.pairs == [(pytest.approx(0.6), 0.2)]
    # each set-up sample is divided by the floor taken just before it
    assert setup.setup_s() == pytest.approx(3 * run.FLOOR_REF_S)
    assert len(setup.pairs) == run.SETUP_RUNS
    assert setup.floor_s() == 0.2  # six samples of 0.2 s, five of 0.1 s


def test_fresh_process_times_are_median_ratios_to_the_floor():
    ref_ms = 1e3 * run.FLOOR_REF_S
    runs = [("a", 100.0, 50.0), ("b", 40.0, 40.0), ("a", 300.0, 100.0),
            ("a", 60.0, 60.0), ("b", 50.0, 25.0)]
    # a: ratios 2, 3, 1; b: ratios 1, 2
    assert run.at_floor(runs) == [pytest.approx(2 * ref_ms), pytest.approx(1.5 * ref_ms)]


# ---------------------------------------------------------------------------
# the declared metrics are the reported ones


def test_benchmark_json_lists_the_reported_metrics():
    lat = run.summary([1.0, 2.0, 3.0])
    e2e, _ = run.end_to_end(run.Setup(FakeProgram(), 1.0), 20.0, 10, 1, lat)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
        (k, u) for k, (_, u) in e2e.items()
    ]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (n, run.unit_of(n)) for n in run.per_layer_names()
    ]
    # verify-full and elliptic-routes run by hand only (README.md, Steadiness)
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["means-wide", "cli-mix"]
