"""Verification layer: reports, determinism, mutation detection."""

import json
import math
import pickle
from fractions import Fraction

import pytest

from agmbounds import coefficients as co
from agmbounds import means, verify


# Column of each sequence in a table row (k, a, b, h, g, s), and the
# first k at which it is defined.
COLUMNS = {"a": (1, 1), "b": (2, 0), "h": (3, 1), "g": (4, 1), "s": (5, 2)}


def _rows(k_max):
    return tuple(co.table_rows(k_max))


def _corrupt(rows, field, k, delta=Fraction(1, 7)):
    row = list(rows[k])
    row[COLUMNS[field][0]] += delta
    return (*rows[:k], tuple(row), *rows[k + 1:])


class TestExactChecks:
    def test_identities_pass(self):
        r = verify.check_coefficient_identities(_rows(30))
        assert r.status == "pass"
        assert r.witness is None
        assert r.checked_points > 0

    def test_identities_sum_each_odd_harmonic_once(self):
        # a_coeff_closed, g_closed and s_seq at one k share one sum
        co._odd_harmonic_parts.cache_clear()
        r = verify.check_coefficient_identities(_rows(40))
        assert r.status == "pass"
        assert co._odd_harmonic_parts.cache_info().misses == 40

    def test_monotonicity_pass_small(self):
        r = verify.check_coefficient_monotonicity(_rows(2))
        assert r.status == "pass"
        # the single comparison is 7/12 > 9/16

    def test_monotonicity_pass_k10(self):
        assert verify.check_coefficient_monotonicity(_rows(10)).status == "pass"

    def test_series_ratio_inequality(self):
        r = verify.check_series_ratio_inequality(60)
        assert r.status == "pass"
        assert r.checked_points == 59

    def test_sign_change(self):
        r = verify.check_sign_change(_rows(30))
        assert r.status == "pass"

    def test_sign_change_locates_first_negative(self):
        bad = _corrupt(_rows(30), "s", 2, Fraction(-10))  # S_2 forced negative
        r = verify.check_sign_change(bad)
        assert r.status == "fail"
        assert r.witness is not None


class TestFloatingChecks:
    def test_k_consistency(self):
        r = verify.check_k_consistency(seed=1)
        assert r.status == "pass"

    def test_reciprocal(self):
        r = verify.check_reciprocal(100, seed=2)
        assert r.status == "pass"

    def test_double_inequality(self):
        r = verify.check_double_inequality(200, seed=3)
        assert r.status == "pass"
        assert r.checked_points == 200

    def test_double_inequality_example_pair(self):
        lm = means.log_mean(means.MeanInput(1.0, 2.0))
        m = means.agm(means.MeanInput(1.0, 2.0)).limit
        assert lm == pytest.approx(1.0 / math.log(2.0), rel=1e-15, abs=0)
        assert lm < m < (math.pi / 2.0) * lm

    def test_mean_order(self):
        r = verify.check_mean_order(200, seed=4)
        assert r.status == "pass"

    def test_equal_arguments_collapse(self):
        inp = means.MeanInput(5.0, 5.0)
        assert means.log_mean(inp) == means.identric_mean(inp) == 5.0
        assert means.agm(inp).limit == 5.0
        assert means.gen_log_mean(0.5, inp) == 5.0

    def test_sharpness(self):
        r = verify.check_sharpness()
        assert r.status == "pass"

    def test_sharpness_monotone_toward_limit(self):
        r4 = verify._mean_ratio(1e-4)
        r6 = verify._mean_ratio(1e-6)
        assert r4 < r6 < math.pi / 2.0


class TestCountValidation:
    """A sampled check with nothing to sample is an error, not a pass."""

    @pytest.mark.parametrize("count", [0, -1, -1000])
    @pytest.mark.parametrize(
        "check,name",
        [
            (verify.check_double_inequality, "n_samples"),
            (verify.check_reciprocal, "n_samples"),
            (verify.check_mean_order, "n_samples"),
        ],
    )
    def test_rejects_counts_below_one(self, check, name, count):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {count}"):
            check(count, 5)

    @pytest.mark.parametrize(
        "check",
        [verify.check_double_inequality, verify.check_reciprocal, verify.check_mean_order],
    )
    def test_one_sample_is_checked(self, check):
        r = check(1, 5)
        assert r.status == "pass" and r.checked_points == 1

    def test_one_modulus_and_the_probe(self):
        r = verify.check_k_consistency(5)
        assert r.status == "pass" and r.checked_points == verify.K_CONSISTENCY_MODULI + 1 == 101


class TestScan:
    def test_bounds_and_monotonicity(self):
        scan = verify.scan_ratio(50, 1e-6, 0.999)
        assert scan.monotone_decreasing
        assert 1.0 < scan.min_value < scan.max_value < math.pi / 2.0

    def test_grid_strictly_increasing_with_exact_endpoints(self):
        scan = verify.scan_ratio(20, 1e-4, 0.9)
        assert scan.grid[0] == 1e-4
        assert scan.grid[-1] == 0.9
        assert all(x < y for x, y in zip(scan.grid, scan.grid[1:]))

    def test_ratio_near_one_from_above(self):
        scan = verify.scan_ratio(3, 0.99, 0.9999)
        assert all(1.0 < r < 1.01 for r in scan.ratio)

    def test_small_t_larger_than_mid_t(self):
        assert verify._mean_ratio(1e-6) > verify._mean_ratio(1e-3)

    def test_midpoint_ratio_inside_bounds(self):
        assert 1.0 < verify._mean_ratio(0.5) < math.pi / 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            verify.scan_ratio(2, 0.1, 0.5)
        with pytest.raises(ValueError):
            verify.scan_ratio(10, 0.5, 0.1)
        with pytest.raises(ValueError):
            verify.scan_ratio(10, 0.0, 0.5)

    def test_report_wrapper(self):
        r = verify.check_ratio_scan(25)
        assert r.status == "pass"
        assert r.checked_points == 25


class TestValueTypes:
    def test_report(self):
        r = verify.VerificationReport("id", "a claim", "pass", 3, {"exact": 0.0})
        assert r.witness is None
        same = verify.VerificationReport(
            witness=None, tolerances={"exact": 0.0}, checked_points=3, status="pass",
            statement="a claim", claim_id="id",
        )
        assert r == same
        assert r != verify.VerificationReport("id", "a claim", "fail", 3, {"exact": 0.0}, "w")
        assert repr(r) == (
            "VerificationReport(claim_id='id', statement='a claim', status='pass', "
            "checked_points=3, tolerances={'exact': 0.0}, witness=None)"
        )
        assert pickle.loads(pickle.dumps(r)) == r
        assert hash(r) == hash(same)
        assert len({r, same}) == 1
        with pytest.raises(AttributeError):
            r.status = "fail"
        with pytest.raises(AttributeError):
            del r.witness
        assert r.status == "pass" and r.witness is None

    def test_report_tolerances_are_read_only(self):
        given = {"low_margin": 0.15, "high_margin": 0.01}
        r = verify.VerificationReport("id", "a claim", "pass", 3, given)
        given["low_margin"] = 9.0  # the report keeps its own copy
        tol = r.tolerances
        assert tol == {"low_margin": 0.15, "high_margin": 0.01}
        for mutate in (
            lambda: tol.__setitem__("low_margin", 9.0),
            lambda: tol.__delitem__("low_margin"),
            lambda: tol.update(low_margin=9.0),
            lambda: tol.setdefault("new", 1.0),
            lambda: tol.pop("low_margin"),
            tol.popitem,
            tol.clear,
        ):
            with pytest.raises(TypeError):
                mutate()
        with pytest.raises(TypeError):
            tol |= {"low_margin": 9.0}
        assert r.tolerances == {"low_margin": 0.15, "high_margin": 0.01}
        assert repr(tol) == "{'low_margin': 0.15, 'high_margin': 0.01}"
        assert hash(tol) == hash(verify.Tolerances({"high_margin": 0.01, "low_margin": 0.15}))
        assert type(pickle.loads(pickle.dumps(r)).tolerances) is verify.Tolerances
        blob = verify.reports_to_json([r])
        assert '"tolerances": {"high_margin": 0.01, "low_margin": 0.15}' in blob
        assert [verify.VerificationReport(**obj) for obj in json.loads(blob)] == [r]

    def test_ratio_scan(self):
        scan = verify.RatioScan((0.1, 0.5), (1.2, 1.1), True, 1.1, 1.2)
        same = verify.RatioScan(
            max_value=1.2, min_value=1.1, monotone_decreasing=True, ratio=(1.2, 1.1),
            grid=(0.1, 0.5),
        )
        assert scan == same and hash(scan) == hash(same)
        assert scan != verify.RatioScan((0.1, 0.5), (1.2, 1.1), False, 1.1, 1.2)
        assert repr(scan) == (
            "RatioScan(grid=(0.1, 0.5), ratio=(1.2, 1.1), monotone_decreasing=True, "
            "min_value=1.1, max_value=1.2)"
        )
        assert pickle.loads(pickle.dumps(scan)) == scan
        with pytest.raises(AttributeError):
            scan.min_value = 0.0
        with pytest.raises(AttributeError):
            del scan.grid
        assert scan.min_value == 1.1 and scan.grid == (0.1, 0.5)


class TestRunAll:
    def test_quick_profile_all_pass(self):
        reports = verify.run_all("quick")
        assert verify.all_passed(reports)
        assert len(reports) == 10
        assert len({r.claim_id for r in reports}) == len(reports)
        for r in reports:
            assert r.checked_points > 0
            assert r.status == "pass" and r.witness is None

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            verify.run_all("exhaustive")

    def test_exact_claims_share_one_row_stream(self, monkeypatch):
        calls = []
        stream = co.table_rows
        monkeypatch.setattr(co, "table_rows", lambda k_max: calls.append(k_max) or stream(k_max))
        assert verify.all_passed(verify.run_all("quick"))
        assert calls == [verify.PROFILES["quick"]["k_max"]]

    def test_determinism_byte_identical(self):
        first = verify.reports_to_json(verify.run_all("quick", seed=7))
        second = verify.reports_to_json(verify.run_all("quick", seed=7))
        assert first == second

    def test_json_round_trip(self):
        reports = verify.run_all("quick")
        blob = verify.reports_to_json(reports)
        assert [verify.VerificationReport(**obj) for obj in json.loads(blob)] == reports

    def test_text_rendering(self):
        reports = verify.run_all("quick")
        text = verify.reports_to_text(reports)
        assert text.count("PASS") == len(reports)
        assert "claims passed" in text


class TestMutationDetection:
    """Corrupting any stored coefficient must flip at least one report."""

    def _any_failure(self, rows):
        reports = [
            verify.check_coefficient_identities(rows),
            verify.check_coefficient_monotonicity(rows),
            verify.check_sign_change(rows),
        ]
        failing = [r for r in reports if r.status == "fail"]
        for r in failing:
            assert r.witness is not None
        return bool(failing)

    @pytest.mark.parametrize("field", ["a", "b", "h", "g", "s"])
    def test_every_entry_is_load_bearing(self, field):
        rows = _rows(12)
        for k in range(COLUMNS[field][1], len(rows)):
            corrupted = _corrupt(rows, field, k)
            assert self._any_failure(corrupted), (field, k)

    def test_tiny_corruption_detected(self):
        corrupted = _corrupt(_rows(12), "a", 8, Fraction(1, 10**40))
        assert self._any_failure(corrupted)

    @pytest.mark.parametrize(
        "name",
        ["a_coeff_sum", "h_sum", "g_sum", "a_coeff_closed", "h_closed", "g_closed", "s_seq"],
    )
    def test_corrupt_definitional_sum_detected(self, monkeypatch, name):
        # the definitional sums are the check's independent side; the closed
        # forms are built from integers, apart from the table's recurrences
        exact = getattr(co, name)
        monkeypatch.setattr(
            co, name, lambda k: exact(k) + (Fraction(1, 10**40) if k == 7 else 0)
        )
        r = verify.check_coefficient_identities(_rows(12))
        assert r.status == "fail"
        assert r.witness.startswith("k=7:")

    @pytest.mark.parametrize("index", range(len(verify.P_GRID) - 1))
    def test_chain_order_one_ulp_out_detected(self, monkeypatch, index):
        # one order's value moved one ulp past its upper neighbour, on the
        # third sampled pair
        exact = means.gen_log_mean
        calls = []  # the sampled pairs, in order

        def mutant(p, inp):
            if not calls or calls[-1] is not inp:
                calls.append(inp)
            if len(calls) == 3 and p == verify.P_GRID[index]:
                return math.nextafter(exact(verify.P_GRID[index + 1], inp), math.inf)
            return exact(p, inp)

        monkeypatch.setattr(means, "gen_log_mean", mutant)
        r = verify.check_mean_order(10, seed=4)
        assert r.status == "fail"
        assert r.checked_points == 3
        assert r.witness.startswith(f"a={calls[2].a!r} b={calls[2].b!r}:")

    def test_clean_table_passes(self):
        assert not self._any_failure(_rows(12))
