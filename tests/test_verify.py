"""Verification layer: reports, determinism, mutation detection."""

import json
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agmbounds import coefficients as co
from agmbounds import elliptic, means, verify


# Column of each sequence in a table row (k, a, b, h, g, s), and the
# first k at which it is defined.
COLUMNS = {"a": (1, 1), "b": (2, 0), "h": (3, 1), "g": (4, 1), "s": (5, 2)}


def _rows(k_max):
    return tuple(co.table_rows(k_max))


def _plus(cell, delta):
    """The reduced pair of the value of the pair cell plus delta."""
    value = Fraction(*cell) + delta
    return value.numerator, value.denominator


def _replace_closed_row(monkeypatch, k, replace):
    # coeff-identities reads its closed rows from one closed_rows sweep;
    # the sweep with row k replaced by replace(row)
    sweep = co.closed_rows
    monkeypatch.setattr(co, "closed_rows", lambda k_max: (
        replace(row) if row[0] == k else row for row in sweep(k_max)))


def _corrupt(rows, field, k, delta=Fraction(1, 7)):
    row = list(rows[k])
    row[COLUMNS[field][0]] = _plus(row[COLUMNS[field][0]], delta)
    return (*rows[:k], tuple(row), *rows[k + 1:])


ROW_CHECKS = [
    verify.check_coefficient_identities,
    verify.check_coefficient_monotonicity,
    verify.check_sign_change,
]


class TestExactChecks:
    def test_identities_pass(self):
        r = verify.check_coefficient_identities(_rows(30))
        assert r.status == "pass"
        assert r.witness is None
        assert r.checked_points > 0

    def test_identities_take_one_sweep_with_one_lcm(self, monkeypatch):
        # the closed rows come from one closed_rows sweep per call, over one
        # shared denominator, so the call takes one lcm, where a closed_row
        # per k would take one per k
        rows, sweeps, lcms = _rows(40), [], []
        sweep, exact_lcm = co.closed_rows, co.lcm
        monkeypatch.setattr(co, "closed_rows", lambda k_max: sweeps.append(k_max) or sweep(k_max))
        monkeypatch.setattr(co, "lcm", lambda *n: lcms.append(n) or exact_lcm(*n))
        r = verify.check_coefficient_identities(rows)
        assert r.status == "pass"
        assert sweeps == [40]
        assert len(lcms) == 1

    def test_identities_build_no_closed_row_past_the_witness(self, monkeypatch):
        # a row witness at k = 7 stops the sweep at closed row 7; a failed
        # certificate starts no sweep
        built, sweep = [], co.closed_rows
        monkeypatch.setattr(co, "closed_rows", lambda k_max: (
            built.append(row[0]) or row for row in sweep(k_max)))
        r = verify.check_coefficient_identities(_corrupt(_rows(40), "a", 7))
        assert r.status == "fail" and r.witness.startswith("k=7: a vs table")
        assert built == list(range(8))
        built.clear()
        monkeypatch.setattr(verify, "_H_STEP", (1, 3))
        assert verify.check_coefficient_identities(_rows(40)).status == "fail"
        assert built == []

    def test_monotonicity_pass_small(self):
        r = verify.check_coefficient_monotonicity(_rows(2))
        assert r.status == "pass"
        # the single comparison is 7/12 > 9/16

    def test_monotonicity_pass_k10(self):
        assert verify.check_coefficient_monotonicity(_rows(10)).status == "pass"

    def test_sign_change(self):
        # S_k and the series-ratio inequality at every k in [2, 60]
        r = verify.check_sign_change(_rows(60))
        assert r.status == "pass"
        assert r.checked_points == 59

    @pytest.mark.parametrize("check", ROW_CHECKS)
    @pytest.mark.parametrize("n_rows", [0, 1, 2])
    def test_rows_below_k_max_two_rejected(self, check, n_rows):
        # fewer rows than table_rows(2) gives would check nothing
        with pytest.raises(ValueError, match=f"got {n_rows} rows"):
            check(_rows(2)[:n_rows])

    @pytest.mark.parametrize("check", ROW_CHECKS)
    def test_least_table_checked(self, check):
        # s-sign-change states S_10 > 0 > S_11, so its least table is table_rows(11)
        r = check(_rows(11 if check is verify.check_sign_change else 2))
        assert r.status == "pass" and r.checked_points > 0

    @pytest.mark.parametrize("k_max", range(2, 11))
    def test_sign_change_rows_below_k_eleven_rejected(self, k_max):
        # rows that stop before S_11 cannot show the sign change
        with pytest.raises(ValueError, match=f"k_max >= 11, got {k_max + 1} rows"):
            verify.check_sign_change(_rows(k_max))

    def test_sign_change_locates_first_negative(self):
        bad = _corrupt(_rows(30), "s", 2, Fraction(-10))  # S_2 forced negative
        r = verify.check_sign_change(bad)
        assert r.status == "fail"
        assert r.witness is not None

    @pytest.mark.parametrize("delta,first", [(Fraction(-1, 20), 10), (Fraction(1, 10), None)])
    def test_sign_change_at_another_index(self, delta, first):
        # every S_k shifted by delta: still strictly decreasing, but S_10
        # turns negative, or no S_k up to k = 12 does
        rows = _rows(12)
        for k in range(2, 13):
            rows = _corrupt(rows, "s", k, delta)
        r = verify.check_sign_change(rows)
        assert r.status == "fail" and r.checked_points == 11
        assert r.witness == f"first negative S_k at k={first}, expected 11"

    @pytest.mark.parametrize("field", ["a", "b"])
    def test_ratio_to_a_zero_cell_fails(self, field):
        # a_1 or b_1 = 0: the ratio at k = 1 is undefined, so the claim
        # fails there, naming the cell
        rows = _corrupt(_rows(12), field, 1, -Fraction(*_rows(12)[1][COLUMNS[field][0]]))
        r = verify.check_coefficient_monotonicity(rows)
        assert r.status == "fail" and r.checked_points == 1
        assert r.witness == f"k=1: ratio to the zero cell {field}_1 = 0/1"


class TestFloatingChecks:
    def test_k_consistency(self):
        r = verify.check_k_consistency(seed=1)
        assert r.status == "pass"

    def test_reciprocal(self):
        r = verify.check_reciprocal(100, seed=2)
        assert r.status == "pass"

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

    def test_sharpness_monotone_toward_limit(self):
        r4 = means._mean_ratio(1e-4)
        r6 = means._mean_ratio(1e-6)
        assert r4 < r6 < math.pi / 2.0


class TestCountValidation:
    """A sampled check with nothing to sample is an error, not a pass."""

    @pytest.mark.parametrize("count", [0, -1, -1000])
    @pytest.mark.parametrize(
        "check,name",
        [
            (verify.check_reciprocal, "n_samples"),
            (verify.check_mean_order, "n_samples"),
        ],
    )
    def test_rejects_counts_below_one(self, check, name, count):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {count}"):
            check(count, 5)

    @pytest.mark.parametrize(
        "check",
        [verify.check_reciprocal, verify.check_mean_order],
    )
    def test_one_sample_is_checked(self, check):
        r = check(1, 5)
        assert r.status == "pass" and r.checked_points == 1

    def test_one_modulus_and_the_probe(self):
        r = verify.check_k_consistency(5)
        assert r.status == "pass" and r.checked_points == verify.K_CONSISTENCY_MODULI + 1 == 101


class _Draws:
    """A stand-in rng whose random() returns the given numbers in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


class TestSampler:
    def test_pair_too_close_to_order_is_drawn_again(self):
        # u = 1/2 gives 1.0; the second u gives 1 + 1e-8 up to rounding, a
        # pair whose p chain rounds to ties, so the sampler draws again
        close = (verify.SAMPLE_LOG_RANGE + math.log10(1.0 + 1e-8)) / (2 * verify.SAMPLE_LOG_RANGE)
        rng = _Draws(0.5, close, 0.5, 0.75)
        a, b = verify._sample_pair(rng)
        assert (a, b) == (1.0, 10.0 ** 1.5) and rng.draws == []
        inp = means.MeanInput(1.0, 10.0 ** (2 * verify.SAMPLE_LOG_RANGE * close
                                            - verify.SAMPLE_LOG_RANGE))
        chain = [means.gen_log_mean(p, inp) for p in verify.P_GRID]
        assert not all(x < y for x, y in zip(chain, chain[1:]))


class TestScan:
    def test_bounds_and_monotonicity(self):
        _, ratio = means.scan_ratio(50, 1e-6, 0.999)
        assert len(ratio) == 50
        assert all(x > y for x, y in zip(ratio, ratio[1:]))
        assert 1.0 < min(ratio) < max(ratio) < math.pi / 2.0

    def test_grid_strictly_increasing_with_exact_endpoints(self):
        grid, ratio = means.scan_ratio(20, 1e-4, 0.9)
        assert grid[0] == 1e-4
        assert grid[-1] == 0.9
        assert all(x < y for x, y in zip(grid, grid[1:]))
        assert ratio == [means._mean_ratio(t) for t in grid]

    def test_ratio_near_one_from_above(self):
        _, ratio = means.scan_ratio(3, 0.99, 0.9999)
        assert all(1.0 < r < 1.01 for r in ratio)

    def test_small_t_larger_than_mid_t(self):
        assert means._mean_ratio(1e-6) > means._mean_ratio(1e-3)

    def test_midpoint_ratio_inside_bounds(self):
        assert 1.0 < means._mean_ratio(0.5) < math.pi / 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            means.scan_ratio(2, 0.1, 0.5)
        with pytest.raises(ValueError):
            means.scan_ratio(10, 0.5, 0.1)
        with pytest.raises(ValueError):
            means.scan_ratio(10, 0.0, 0.5)

    @pytest.mark.parametrize("n_points,ulps", [(5, 2), (3, 1), (2000, 1000)])
    def test_grid_narrower_than_its_points_rejected(self, n_points, ulps):
        # [0.5, 0.5 + ulps ulp] holds ulps + 1 doubles, too few for n_points
        # strictly increasing grid points; the grid would repeat a point
        t_max = 0.5
        for _ in range(ulps):
            t_max = math.nextafter(t_max, 1.0)
        with pytest.raises(ValueError, match="not strictly increasing"):
            means.scan_ratio(n_points, 0.5, t_max)

    def test_narrowest_grid_with_enough_doubles(self):
        t_max = math.nextafter(math.nextafter(0.5, 1.0), 1.0)
        grid, _ = means.scan_ratio(3, 0.5, t_max)
        assert grid == [0.5, math.nextafter(0.5, 1.0), t_max]

    def test_narrow_ranges_give_an_increasing_grid_or_an_error(self):
        # ranges 1e-15 to 1e-10 wide hold from a few to about 1e6 doubles
        rng = random.Random(20)
        rejected = 0
        for _ in range(500):
            t_min = rng.uniform(1e-3, 0.99)
            t_max = t_min + 10.0 ** rng.uniform(-15.0, -10.0)
            try:
                grid, _ = means.scan_ratio(50, t_min, t_max)
            except ValueError:
                rejected += 1
                continue
            assert all(x < y for x, y in zip(grid, grid[1:])), (t_min, t_max)
        assert 0 < rejected < 500

    def test_report_wrapper(self):
        r = verify.check_ratio_scan(25)
        assert r.status == "pass"
        assert r.checked_points == 25

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_ratio_raises(self, monkeypatch, bad):
        exact = means._mean_ratio
        monkeypatch.setattr(means, "_mean_ratio", lambda t: bad if t == 0.9 else exact(t))
        with pytest.raises(ArithmeticError, match=f"^ratio evaluation failed at t=0.9: {bad}$"):
            means.scan_ratio(5, 0.1, 0.9)


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


class TestRunAll:
    def test_quick_profile_all_pass(self):
        reports = verify.run_all("quick")
        assert verify.all_passed(reports)
        assert len(reports) == 7
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

    @pytest.mark.parametrize("name,mutant,checked,witness", [
        ("_H_STEP", (1, 3), 5, "certificate h step k=1: 6 != 4"),
        ("_A_PART", (2, 1), 7, "certificate a partial fractions k=1 i=1: 2 != 4"),
        ("_G_SPLIT", 3, 11, "certificate g index shift k=1 j=1: (1, 3) != (2, 3)"),
        ("_G_STEP", (1, 3), 15, "certificate g step: 6 != 4"),
    ])
    def test_corrupt_certificate_detected(self, monkeypatch, name, mutant, checked, witness):
        # the certificates tie the closed forms to the definitional sums; a
        # wrong coefficient fails its identity before any row is read
        monkeypatch.setattr(verify, name, mutant)
        r = verify.check_coefficient_identities(_rows(12))
        assert (r.status, r.checked_points, r.witness) == ("fail", checked, witness)

    @pytest.mark.parametrize("field", ["a", "b", "h", "g", "s"])
    def test_corrupt_closed_cell_detected(self, monkeypatch, field):
        # the closed forms are built from integers, apart from the table's
        # recurrences
        column = COLUMNS[field][0]
        _replace_closed_row(monkeypatch, 7, lambda row: (
            *row[:column], _plus(row[column], Fraction(1, 10**40)), *row[column + 1:]))
        r = verify.check_coefficient_identities(_rows(12))
        assert r.status == "fail"
        assert r.witness.startswith("k=7:")

    @pytest.mark.parametrize("field,identity", [
        ("a", "2(k+1)a = 1 + w - 2g"),
        ("b", "b = w^2"),
        ("h", "b = w^2"),
        ("g", "2(k+1)a = 1 + w - 2g"),
        ("s", "S w = (2(k+1)^2/(k(2k+1)) + 1) w - 2g"),
    ])
    def test_shared_defect_breaks_a_row_identity(self, monkeypatch, field, identity):
        # one cell moved in the rows and in the closed rows alike: each row
        # still equals its closed form, so only the identities between the
        # columns of the row can catch it
        rows = _rows(12)
        corrupted = _corrupt(rows, field, 7, Fraction(1, 10**40))
        _replace_closed_row(monkeypatch, 7, lambda row: corrupted[7])
        r = verify.check_coefficient_identities(corrupted)
        assert r.status == "fail"
        assert r.witness.startswith(f"k=7: {identity}: ")

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

    @pytest.mark.parametrize("field", ["a", "b", "h", "g", "s"])
    def test_cell_not_in_lowest_terms_detected(self, field):
        # (2n, 2d) holds the same value, so only the lowest-terms
        # comparison of coeff-identities can catch it
        rows = _rows(12)
        column, first = COLUMNS[field]
        for k in range(first, len(rows)):
            row = list(rows[k])
            n, d = row[column]
            row[column] = (2 * n, 2 * d)
            corrupted = (*rows[:k], tuple(row), *rows[k + 1:])
            r = verify.check_coefficient_identities(corrupted)
            assert r.status == "fail", (field, k)
            assert r.witness.startswith(f"k={k}:"), (field, k)
            assert r.witness.endswith(f"{2 * n}/{2 * d}"), (field, k)
            assert verify.check_coefficient_monotonicity(corrupted).status == "pass"
            assert verify.check_sign_change(corrupted).status == "pass"

    def test_clean_table_passes(self):
        assert not self._any_failure(_rows(12))


class TestWitnessText:
    """Witnesses that name a computed rational print it as str(Fraction)
    does: n where the denominator is 1, else n/d in lowest terms.  Each
    expected text was taken from the Fraction-based checks on the same
    mutant."""

    def test_b_ratio(self):
        r = verify.check_coefficient_monotonicity(_corrupt(_rows(12), "b", 4))
        assert r.witness == "k=3: b ratio 24959/11200 is not ((2k+1)/(2k+2))^2"

    def test_b_ratio_integer(self):
        rows = _rows(12)
        b_3, b_4 = Fraction(*rows[3][2]), Fraction(*rows[4][2])
        r = verify.check_coefficient_monotonicity(_corrupt(rows, "b", 4, 3 * b_3 - b_4))
        assert r.witness == "k=3: b ratio 3 is not ((2k+1)/(2k+2))^2"

    def test_a_ratio(self):
        r = verify.check_coefficient_monotonicity(_corrupt(_rows(12), "a", 6, Fraction(-1, 500)))
        assert r.witness == "k=5: a ratio 6911/8400 <= b ratio 121/144"

    def test_series_ratio(self):
        # every h(k), k >= 2, moved by 21 w_k/2, so that w_k = 1 - 2h(k)
        # becomes -20 w_k (w_3 = 5/16 turns -25/4): the left side changes
        # sign, and then exceeds the right side first at k = 11
        rows = _rows(50)
        for k in range(2, 51):
            w = 1 - 2 * Fraction(*rows[k][COLUMNS["h"][0]])
            rows = _corrupt(rows, "h", k, Fraction(21, 2) * w)
        r = verify.check_sign_change(rows)
        assert r.checked_points == 10
        assert r.witness == "k=11: 1779221/339738624 >= 35/6912"

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(2, 12), h=st.fractions())
    @example(k=2, h=Fraction(-1))  # w_2 = 3 fails at k = 2
    @example(k=2, h=Fraction(5, 22))  # w_2 = 6/11: the two sides are equal
    @example(k=11, h=Fraction(0))  # w_11 = 1 passes
    def test_series_ratio_in_the_paper_form(self, k, h):
        # any h(k): the check decides and prints the paper's two sides,
        # [T_{k+1} - (2k+1)(k+2)/(2(k+1)^2) T_k] w_{k+1} and
        # 1 - (2k+1)^2 (k+2)/(4(k+1)^3), with T_k and w_k from the cells
        rows = _rows(12)
        rows = _corrupt(rows, "h", k, h - Fraction(*rows[k][COLUMNS["h"][0]]))
        s_k, w_k = Fraction(*rows[k][COLUMNS["s"][0]]), 1 - 2 * h
        t_k = Fraction(2 * (k + 1) ** 2, k * (2 * k + 1)) - s_k
        t_next, w_next = t_k + Fraction(1, 2 * k + 1), w_k * Fraction(2 * k + 1, 2 * k + 2)
        lhs = (t_next - Fraction((2 * k + 1) * (k + 2), 2 * (k + 1) ** 2) * t_k) * w_next
        rhs = 1 - Fraction((2 * k + 1) ** 2 * (k + 2), 4 * (k + 1) ** 3)
        r = verify.check_sign_change(rows)
        if lhs < rhs:
            assert r.status == "pass"
        else:
            assert r.checked_points == k - 1
            assert r.witness == f"k={k}: {lhs} >= {rhs}"

    def test_series_ratio_sides_are_identities(self):
        # the check's two sides, derived from the paper's for a symbolic k
        sp = pytest.importorskip("sympy")
        k, s, w = sp.symbols("k S_k w_k", positive=True)
        w_next = sp.combsimp(sp.binomial(2 * k + 2, k + 1) / 4 ** (k + 1)
                             / (sp.binomial(2 * k, k) / 4 ** k)) * w
        assert sp.cancel(w_next - w * (2 * k + 1) / (2 * k + 2)) == 0
        t = 2 * (k + 1) ** 2 / (k * (2 * k + 1)) - s
        t_next = t + 1 / (2 * k + 1)
        lhs = (t_next - (2 * k + 1) * (k + 2) / (2 * (k + 1) ** 2) * t) * w_next
        rhs = 1 - (2 * k + 1) ** 2 * (k + 2) / (4 * (k + 1) ** 3)
        assert sp.cancel(lhs - k * (2 * k + 1) * w * s / (4 * (k + 1) ** 3)) == 0
        assert sp.cancel(rhs - (3 * k + 2) / (4 * (k + 1) ** 3)) == 0

    @pytest.mark.parametrize(
        "mutant,expected",
        [
            (lambda w: _plus(w, Fraction(1, 2**20)), "k=5: recurrence: 63/512 != 258049/2097152"),
            (lambda w: (2, 1), "k=5: recurrence: 63/512 != 1"),
        ],
        ids=["fraction", "integer"],
    )
    def test_recurrence(self, monkeypatch, mutant, expected):
        # only the recurrence reads the Wallis quotient, so every other case passes
        exact = co.wallis_ratio
        monkeypatch.setattr(co, "wallis_ratio", lambda k: mutant(exact(k)) if k == 5 else exact(k))
        r = verify.check_coefficient_identities(_rows(12))
        assert r.checked_points == 116
        assert r.witness == expected

    def test_recurrence_at_k_max(self, monkeypatch):
        # H_12 moved in the last row and in closed row 12 alike keeps that
        # row equal to its closed form and consistent with itself, so only
        # the last step of the recurrence, k = 11, ties it to H_11
        k, delta = 12, Fraction(1, 10**40)
        rows = _rows(k)
        w = 1 - 2 * Fraction(*rows[k][COLUMNS["h"][0]])
        harmonic = 2 * Fraction(*rows[k][COLUMNS["g"][0]]) / w + delta
        a, g = (1 + w * (1 - harmonic)) / (2 * (k + 1)), w * harmonic / 2
        s = Fraction(2 * (k + 1) ** 2, k * (2 * k + 1)) + 1 - harmonic
        a, g, s = ((x.numerator, x.denominator) for x in (a, g, s))
        row = (k, a, *rows[k][2:4], g, s)
        _replace_closed_row(monkeypatch, k, lambda closed: row)
        r = verify.check_coefficient_identities((*rows[:k], row))
        assert r.checked_points == 122
        assert r.witness == (
            "k=11: recurrence: 881790000000000000000000000000000000002028117/"
            "10485760000000000000000000000000000000000000000 != 88179/1048576")


class TestCertificates:
    """coeff-identities' certificates and row identities, re-derived with
    sympy for a symbolic k from the paper's sums and closed_row's forms."""

    def test_each_grid_decides_its_identity(self):
        # each side is an integer polynomial of degree below n in each
        # variable, so the n^len(variables) grid points decide the
        # identity, and the identity holds for symbolic variables
        sp = pytest.importorskip("sympy")
        for name, variables, n, sides in verify._CERTIFICATES:
            xs = [sp.Symbol(v) for v in variables]
            lhs, rhs = sides(*xs)
            for left, right in zip(lhs, rhs) if isinstance(lhs, tuple) else [(lhs, rhs)]:
                assert sp.expand(left - right) == 0, name
                for side in (left, right):
                    assert all(sp.Poly(side, *xs).degree(x) < n for x in xs), name

    def test_certificates_from_the_sums(self):
        sp = pytest.importorskip("sympy")
        k, i, j = sp.symbols("k i j", positive=True, integer=True)

        def w(n):
            return sp.binomial(2 * n, n) / 4**n

        def coefficient(cell):
            return sp.Rational(*cell) if isinstance(cell, tuple) else sp.Integer(cell)

        def same(x, y):
            return sp.simplify(sp.combsimp(x - y)) == 0

        # the Wallis step, and each sum's i-th term as w_{i-1} times a
        # rational function: h(k), g(k), and a_k's sum as the paper writes it
        assert same(w(j) / w(j - 1), (2 * j - 1) / (2 * j))
        assert same(sp.binomial(2 * i - 2, i - 1) / (i * 4**i), w(i - 1) / (4 * i))
        assert same(sp.binomial(2 * i - 2, i - 1) / ((k + 1 - i) * 4**i),
                    w(i - 1) / (4 * (k + 1 - i)))
        assert same(w(i) / (2 * (2 * i - 1) * (k + 1 - i)), w(i - 1) / (4 * i * (k + 1 - i)))
        # h telescopes: its k-th term is (w_{k-1} - w_k) _H_STEP
        h_step = sp.combsimp(w(k - 1) / (4 * k) / (w(k - 1) - w(k)))
        assert h_step == coefficient(verify._H_STEP)
        # a by partial fractions into the terms of h(k) and g(k)
        parts = sp.apart(1 / (i * (k + 1 - i)), i)
        part = coefficient(verify._A_PART)
        assert sp.simplify(parts - part * (1 / i + 1 / (k + 1 - i)) / (k + 1)) == 0
        # g by the index shift: the split remainders, shifted by one index,
        # cancel by the Wallis step and leave _G_SPLIT w_k/4 = w_k _G_STEP
        split = verify._G_SPLIT
        assert sp.cancel(2 * (k + 1) / (k + 1 - j) - split - 2 * j / (k + 1 - j)) == 0
        assert sp.cancel((2 * k + 1) / (k - j) - split - (2 * j + 1) / (k - j)) == 0
        assert same(2 * j * w(j) / (k + 1 - j), (2 * (j - 1) + 1) * w(j - 1) / (k - (j - 1)))
        assert sp.Rational(split, 4) == coefficient(verify._G_STEP)

    def test_row_identities_from_closed_forms(self):
        # closed_row's docstring forms, with H = H_k = sum_{i<=k} 1/(2i-1)
        sp = pytest.importorskip("sympy")
        k = sp.Symbol("k", positive=True, integer=True)
        c, harmonic = sp.binomial(2 * k, k), sp.Symbol("H")
        b = c**2 / 2 ** (4 * k)
        a = (1 - c / 4**k * (harmonic - 1)) / (2 * (k + 1))
        h = sp.Rational(1, 2) - 2 * c / 4 ** (k + 1)
        g = c / 4**k * harmonic / 2
        s = 2 * (k + 1) ** 2 / (k * (2 * k + 1)) - (harmonic - 1)
        w = 1 - 2 * h
        assert sp.simplify(w - c / 4**k) == 0
        assert sp.simplify(b - w**2) == 0
        assert sp.simplify(2 * (k + 1) * a - (1 + w - 2 * g)) == 0
        assert sp.simplify(s - (2 * (k + 1) ** 2 / (k * (2 * k + 1)) + 1 - 2 * g / w)) == 0
        # the partial-fraction certificate's a_k = (1 - h(k) - g(k))/(k+1)
        assert sp.simplify(a - (1 - h - g) / (k + 1)) == 0
        # g = w_k H_k/2 meets the recurrence, and g(1) = 1/4, its step from
        # g(0) = 0: 2 g(1) - g(0) = w_0/2
        g_next = g.subs(k, k + 1).subs(harmonic, harmonic + 1 / (2 * k + 1))
        step = 2 * (k + 1) * g_next - (2 * k + 1) * g - w / 2
        assert sp.simplify(sp.combsimp(step)) == 0
        assert g.subs({k: 1, harmonic: 1}) == sp.Rational(1, 4)


def _patch_route(monkeypatch, route, when=lambda *args: True, value=lambda v: math.nan):
    # elliptic.<route> with its value replaced by value(value), by default
    # a NaN, on the calls where when(*args)
    exact = getattr(elliptic, route)

    def mutant(*args):
        r = exact(*args)
        if not when(*args):
            return r
        return elliptic.EllipticResult(value(r.value), r.method, r.terms_or_iterations,
                                       r.error_estimate)

    monkeypatch.setattr(elliptic, route, mutant)


class TestKBound:
    """Both K claims hold the routes to one bound, K_REL = 64 eps: a K
    route off by a relative 1e-13, or an AGM off by 3e-12, fails."""

    def test_one_bound_in_both_reports(self):
        assert verify.K_REL == 64 * sys.float_info.epsilon <= 6e-14
        assert verify.check_k_consistency(1).tolerances["pairwise_rel"] == verify.K_REL
        assert verify.check_reciprocal(10, 2).tolerances["rel"] == verify.K_REL

    @pytest.mark.parametrize("route", ["k_series", "k_agm", "k_quadrature"])
    def test_route_off_by_1e_13_fails_three_way(self, monkeypatch, route):
        _patch_route(monkeypatch, route, value=lambda v: v * (1 + 1e-13))
        r = verify.check_k_consistency(seed=1)
        assert r.status == "fail" and r.checked_points == 1
        assert r.witness.startswith("t=") and f" > {verify.K_REL}" in r.witness

    @pytest.mark.parametrize("scale", [1 + 3e-12, 1 - 3e-12])
    def test_agm_off_by_3e_12_fails_reciprocal(self, monkeypatch, scale):
        iterates = means.agm_iterates

        def mutant(a, b):
            limit, steps = iterates(a, b)
            return limit * scale, steps

        monkeypatch.setattr(means, "agm_iterates", mutant)
        r = verify.check_reciprocal(50, seed=2)
        assert r.status == "fail" and r.checked_points == 1
        assert r.witness.endswith(f" > {verify.K_REL}")


class TestNanFails:
    """A NaN from any K route, the AGM or any order of the p chain fails
    its claim.  Each pass condition is written positively (dev <= tol, a
    chained <), so no comparison with a NaN can pass."""

    @pytest.mark.parametrize("route", ["k_series", "k_agm", "k_quadrature"])
    def test_three_way_sweep(self, monkeypatch, route):
        _patch_route(monkeypatch, route)
        r = verify.check_k_consistency(seed=1)
        assert r.status == "fail" and r.checked_points == 1
        assert r.witness.endswith(f"max pairwise rel dev nan > {verify.K_REL}")

    @pytest.mark.parametrize("route", ["k_agm", "k_quadrature"])
    def test_near_singular_probe(self, monkeypatch, route):
        # only the last modulus, whose complement no swept modulus has; the
        # series does not take it, so the witness names two routes
        probe = elliptic.Modulus(verify.NEAR_SINGULAR_T)
        _patch_route(monkeypatch, route, lambda *args: args[-1] in (probe, probe.complement()))
        r = verify.check_k_consistency(seed=1)
        assert r.status == "fail"
        assert r.checked_points == verify.K_CONSISTENCY_MODULI + 1
        assert r.witness.startswith(f"t={verify.NEAR_SINGULAR_T}: agm=")
        assert " quadrature=" in r.witness and "series=" not in r.witness
        assert r.witness.endswith(f" max pairwise rel dev nan > {verify.K_REL}")

    @pytest.mark.parametrize("route,name", [("k_series", "series"),
                                            ("k_quadrature", "quadrature")])
    def test_reciprocal_route(self, monkeypatch, route, name):
        _patch_route(monkeypatch, route)
        r = verify.check_reciprocal(50, seed=2)
        assert r.status == "fail"
        assert r.witness.endswith(f"({name}): |M*(2/pi)*K - 1| = nan > {verify.K_REL}")

    def test_reciprocal_agm(self, monkeypatch):
        iterates = means.agm_iterates
        monkeypatch.setattr(means, "agm_iterates", lambda a, b: (math.nan, iterates(a, b)[1]))
        r = verify.check_reciprocal(50, seed=2)
        assert r.status == "fail" and r.checked_points == 1
        assert r.witness.endswith(f"= nan > {verify.K_REL}")

    @pytest.mark.parametrize("index", range(len(verify.P_GRID)))
    def test_chain_order(self, monkeypatch, index):
        # a NaN at one order, on the third sampled pair
        exact = means.gen_log_mean
        calls = []  # the sampled pairs, in order

        def mutant(p, inp):
            if not calls or calls[-1] is not inp:
                calls.append(inp)
            if len(calls) == 3 and p == verify.P_GRID[index]:
                return math.nan
            return exact(p, inp)

        monkeypatch.setattr(means, "gen_log_mean", mutant)
        r = verify.check_mean_order(10, seed=4)
        assert r.status == "fail" and r.checked_points == 3
        assert r.witness.startswith(f"a={calls[2].a!r} b={calls[2].b!r}: ")
        assert "nan" in r.witness


class TestFloatWitnesses:
    """The witness each floating claim gives on a mutant of the ratio
    M(1,t)/L(1,t) or of a mean."""

    @pytest.mark.parametrize(
        "name,text",
        [("log_mean_float", ": log_mean_float=nan differs from L="),
         ("agm_iterates", ": order violated: L=")],
    )
    def test_mean_order_nan_kernel(self, monkeypatch, name, text):
        # a NaN ratio kernel fails the bit-for-bit test of L, a NaN AGM the order
        exact = getattr(means, name)
        mutant = {"log_mean_float": lambda a, b: math.nan,
                  "agm_iterates": lambda a, b: (math.nan, exact(a, b)[1])}[name]
        monkeypatch.setattr(means, name, mutant)
        r = verify.check_mean_order(10, seed=4)
        assert r.status == "fail" and r.checked_points == 1
        assert r.witness.startswith("a=")
        assert text in r.witness and "nan" in r.witness

    def test_mean_order_upper_bound(self, monkeypatch):
        # M put at (pi/2) L: on the first pair of seed 1, (pi/2) L < I, so
        # L < M < I and the p chain still hold, and only the upper bound fails
        exact = means.agm_iterates
        monkeypatch.setattr(means, "agm_iterates", lambda a, b: (
            verify.HALF_PI * means.log_mean_float(a, b), exact(a, b)[1]))
        r = verify.check_mean_order(10, seed=1)
        a, b = verify._sample_pair(random.Random(1))
        upper = verify.HALF_PI * means.log_mean(means.MeanInput(a, b))
        assert upper < means.identric_mean(means.MeanInput(a, b))
        assert r.status == "fail" and r.checked_points == 1
        assert r.witness == f"a={a!r} b={b!r}: upper bound violated: M={upper!r} (pi/2)L={upper!r}"

    def test_ratio_kernel_scaled_fails_mean_order(self, monkeypatch):
        # log_mean_float off by a relative 0.003 passes every other claim
        # at quick; the bit-for-bit test of L catches it on the first pair
        exact = means.log_mean_float
        monkeypatch.setattr(means, "log_mean_float", lambda a, b: exact(a, b) * (1.0 - 0.003))
        reports = verify.run_all("quick")
        assert [r.claim_id for r in reports if r.status == "fail"] == ["mean-ordering"]
        r = reports[-1]
        assert r.claim_id == "mean-ordering" and r.checked_points == 1
        a, b = verify._sample_pair(random.Random(verify.DEFAULT_SEED + 3))
        lm = means.log_mean(means.MeanInput(a, b))
        assert r.witness == (f"a={a!r} b={b!r}: log_mean_float={exact(a, b) * (1.0 - 0.003)!r} "
                             f"differs from L={lm!r}")

    def _ratio_mutant(self, monkeypatch, mutant):
        exact = means._mean_ratio
        monkeypatch.setattr(means, "_mean_ratio", lambda t: mutant(t, exact(t)))
        return exact

    def test_ratio_scan_not_decreasing(self, monkeypatch):
        self._ratio_mutant(monkeypatch, lambda t, r: 1.25)
        grid, _ = means.scan_ratio(10, verify.RATIO_SCAN_T_MIN, verify.RATIO_SCAN_T_MAX)
        r = verify.check_ratio_scan(10)
        assert r.status == "fail" and r.checked_points == 10
        assert r.witness == ("not strictly decreasing between t=1e-08 (r=1.25) "
                             f"and t={grid[1]!r} (r=1.25)")

    def test_ratio_scan_min(self, monkeypatch):
        exact = self._ratio_mutant(monkeypatch, lambda t, r: r - 0.1)
        r = verify.check_ratio_scan(10)
        assert r.witness == f"min ratio {exact(verify.RATIO_SCAN_T_MAX) - 0.1!r} is not > 1"

    def test_ratio_scan_max(self, monkeypatch):
        exact = self._ratio_mutant(monkeypatch, lambda t, r: r + 0.2)
        r = verify.check_ratio_scan(10)
        assert r.witness == f"max ratio {exact(verify.RATIO_SCAN_T_MIN) + 0.2!r} is not < pi/2"

    def test_ratio_scan_non_finite(self, monkeypatch):
        # the claim fails, naming t, where scan_ratio raises
        self._ratio_mutant(monkeypatch, lambda t, r: math.nan if t == 0.9999 else r)
        r = verify.check_ratio_scan(10)
        assert r.status == "fail" and r.checked_points == 10
        assert r.witness == "ratio evaluation failed at t=0.9999: nan"

    @pytest.mark.parametrize("at", [0, 4], ids=["low", "inner"])
    def test_ratio_scan_nan_before_the_last_point(self, monkeypatch, at):
        # a NaN where the low margin reads the ratio, or inside the grid,
        # fails the claim there, before any comparison sees it
        grid, _ = means.scan_ratio(10, verify.RATIO_SCAN_T_MIN, verify.RATIO_SCAN_T_MAX)
        self._ratio_mutant(monkeypatch, lambda t, r: math.nan if t == grid[at] else r)
        r = verify.check_ratio_scan(10)
        assert r.status == "fail" and r.checked_points == 10
        assert r.witness == f"ratio evaluation failed at t={grid[at]!r}: nan"

    @pytest.mark.parametrize(
        # the scan kept decreasing inside (1, pi/2), its first ratio moved
        # to or below pi/2 - 0.15
        "mutant",
        [lambda t, r: 1.0 + 0.9 * (r - 1.0),
         lambda t, r: verify.HALF_PI - 0.15 if t == 1e-8 else 1.0 + 0.9 * (r - 1.0)],
        ids=["below", "at"],
    )
    def test_ratio_scan_low_margin(self, monkeypatch, mutant):
        exact = self._ratio_mutant(monkeypatch, mutant)
        r = verify.check_ratio_scan(10)
        assert r.status == "fail" and r.checked_points == 10
        assert r.witness == (f"t=1e-08: ratio {mutant(1e-8, exact(1e-8))!r} did not exceed "
                             "pi/2 - 0.15")

    @pytest.mark.parametrize("last", [1.01, 1.05], ids=["at", "above"])
    def test_ratio_scan_high_margin(self, monkeypatch, last):
        # the last ratio, at t = 1 - 1e-4, moved to or above 1.01 while the
        # scan still decreases inside (1, pi/2): its neighbour is about 1.07
        self._ratio_mutant(monkeypatch, lambda t, r: last if t == 1.0 - 1e-4 else r)
        r = verify.check_ratio_scan(10)
        assert r.status == "fail" and r.checked_points == 10
        assert r.witness == f"t=0.9999: ratio {last!r} is not below 1 + 0.01"

    def test_ratio_scan_margins_read_the_grid_ends(self, monkeypatch):
        # each grid point is evaluated once, and the ends are the two t the
        # margins name
        assert (verify.RATIO_SCAN_T_MIN, verify.RATIO_SCAN_T_MAX) == (1e-8, 1.0 - 1e-4)
        grid, _ = means.scan_ratio(10, 1e-8, 1.0 - 1e-4)
        assert (grid[0], grid[-1]) == (1e-8, 1.0 - 1e-4)
        calls = []
        self._ratio_mutant(monkeypatch, lambda t, r: calls.append(t) or r)
        r = verify.check_ratio_scan(10)
        assert r.status == "pass" and r.checked_points == 10
        assert calls == grid
        assert r.tolerances == {"lower_bound": 1.0, "upper_bound": verify.HALF_PI,
                                "low_margin": 0.15, "high_margin": 0.01}


def _dumps(reports):
    return json.dumps([{f: getattr(r, f) for f in r._fields} for r in reports], sort_keys=True)


def _failing(witness, claim_id="mean-ordering", tolerances=None):
    return verify.VerificationReport(claim_id, "a statement", "fail", 3,
                                     {"strict": 0.0} if tolerances is None else tolerances,
                                     witness)


class TestJsonWriter:
    """reports_to_json writes the text of json.dumps(sort_keys=True)
    itself, and hands a list whose strings need escaping to json."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_passing_reports(self, seed):
        reports = verify.run_all("quick", seed=seed)
        assert verify.reports_to_json(reports) == _dumps(reports)

    def test_failing_reports(self, monkeypatch):
        _patch_route(monkeypatch, "k_quadrature")
        reports = [verify.check_k_consistency(seed=1), verify.check_reciprocal(20, seed=2),
                   verify.check_ratio_scan(10), _failing("a=1.0 b=2.0: order violated")]
        assert [r.status for r in reports] == ["fail", "fail", "pass", "fail"]
        assert verify.reports_to_json(reports) == _dumps(reports)

    @pytest.mark.parametrize(
        "witness",
        ['say "hi"', "back\\slash", "two\nlines", "tab\there", "nul\x00", "del\x7f",
         "caf\u00e9", "clef \U0001d11e", "", None, "plain ascii ~!@#$%^&*()"],
        ids=["quote", "backslash", "newline", "tab", "nul", "del", "latin", "astral",
             "empty", "none", "plain"],
    )
    def test_witness_strings(self, witness):
        reports = [*verify.run_all("quick", seed=3)[:2], _failing(witness)]
        assert verify.reports_to_json(reports) == _dumps(reports)

    @pytest.mark.parametrize(
        "tolerances",
        [{}, {"rel": math.nan}, {"rel": math.inf}, {"rel": -math.inf}, {"rel": -0.0},
         {"rel": 5e-324, "abs": 1.7976931348623157e308}, {"n": 10**30}, {"flag": True},
         {"none": None}, {"b": 1.0, "a": 2.0, "é": 3.0}, {"x\"y": 1.0}],
        ids=repr,
    )
    def test_tolerance_values(self, tolerances):
        reports = [_failing("w", tolerances=tolerances)]
        assert verify.reports_to_json(reports) == _dumps(reports)

    def test_empty_list(self):
        assert verify.reports_to_json([]) == "[]" == json.dumps([])

    @given(st.text(), st.one_of(st.none(), st.text()), st.integers(min_value=0))
    def test_any_strings(self, claim_id, witness, checked):
        report = verify.VerificationReport(claim_id, "s", "fail", checked, {"rel": 1e-11}, witness)
        assert verify.reports_to_json([report]) == _dumps([report])
