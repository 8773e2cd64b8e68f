"""Acceptance suite: the binding exit criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s).
Exact criteria run at zero tolerance in rational arithmetic; floating
criteria carry their stated tolerances.
"""

import io
import json
import math
import time
from fractions import Fraction

import pytest

from agmbounds import cli
from agmbounds import coefficients as co
from agmbounds import verify
from agmbounds import means
from test_coefficients import a_sum_per_term

HALF_PI = math.pi / 2.0

A_TABLE = [
    Fraction(1, 4),
    Fraction(7, 48),
    Fraction(5, 48),
    Fraction(313, 3840),
    Fraction(43, 640),
    Fraction(12317, 215040),
    Fraction(10751, 215040),
    Fraction(183349, 4128768),
    Fraction(206329, 5160960),
    Fraction(66087019, 1816657920),
]

A_RATIO_TABLE = [
    Fraction(7, 12),
    Fraction(5, 7),
    Fraction(313, 400),
    Fraction(258, 313),
    Fraction(12317, 14448),
    Fraction(10751, 12317),
    Fraction(916745, 1032096),
    Fraction(825316, 916745),
    Fraction(66087019, 72627808),
]

SQUARED_RATIO_TABLE = [
    Fraction(9, 16),
    Fraction(25, 36),
    Fraction(49, 64),
    Fraction(81, 100),
    Fraction(121, 144),
    Fraction(169, 196),
    Fraction(225, 256),
    Fraction(289, 324),
    Fraction(361, 400),
]


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def rows500():
    return tuple(co.table_rows(500))


def test_criterion_1_exact_a_table():
    """coeffs --kmax 10 reproduces the ten exact fractions, under 1 s."""
    start = time.perf_counter()
    out = io.StringIO()
    code = cli.run(["coeffs", "--kmax", "10", "--format", "csv"], out=out)
    elapsed = time.perf_counter() - start
    rows = out.getvalue().strip().split("\n")[2:]
    got = [Fraction(row.split(",")[1]) for row in rows]
    ok = code == 0 and got == A_TABLE and elapsed < 1.0
    report(1, ok, f"a_1..a_10 exact via CLI, {elapsed:.3f}s")


def test_criterion_2_exact_ratio_tables():
    """a_{k+1}/a_k and ((2k+1)/(2k+2))^2 for k = 1..9, exact and strict;
    a_k also from its defining sum, term by term."""
    ok = True
    for k in range(1, 10):
        ratio = A_TABLE[k] / A_TABLE[k - 1]
        square = Fraction((2 * k + 1) ** 2, (2 * k + 2) ** 2)
        ok &= ratio == A_RATIO_TABLE[k - 1]
        ok &= square == SQUARED_RATIO_TABLE[k - 1]
        ok &= ratio > square
        ok &= a_sum_per_term(k + 1) / a_sum_per_term(k) == ratio
    report(2, ok, "ratio tables exact, strict inequality at every k")


def test_criterion_3_identity_suite(rows500):
    """Certificates prove sum = closed for a, h, g at every k; the rows
    k = 0..500 equal the closed forms and meet the row identities and the
    g recurrence; < 30 s."""
    start = time.perf_counter()
    r = verify.check_coefficient_identities(rows500)
    elapsed = time.perf_counter() - start
    ok = r.status == "pass" and elapsed < 30.0
    report(3, ok, f"{r.checked_points} exact identity checks in {elapsed:.1f}s")


def test_criterion_4_sign_change(rows500):
    """Single sign change of S_k, located by exact evaluation, S strictly
    decreasing through k = 500.

    Exact arithmetic places the change between k = 10 and k = 11:
    S_10 = 278266/14549535 ~ 0.0191, S_11 = -14233768/334639305 ~ -0.0425,
    with S_9 ~ 0.0890 also positive.
    """
    s10 = Fraction(*co.closed_row(10)[5])
    s11 = Fraction(*co.closed_row(11)[5])
    ok = s10 == Fraction(278266, 14549535)
    ok &= s11 == Fraction(-14233768, 334639305)
    ok &= s10 > 0 > s11
    ok &= Fraction(*co.closed_row(9)[5]) > 0
    ok &= abs(float(s10) - 0.0191254222) < 1e-9
    ok &= abs(float(s11) + 0.0425346568) < 1e-9
    r = verify.check_sign_change(rows500)
    ok &= r.status == "pass"
    report(4, ok, "S_10 > 0 > S_11 exactly; S_k strictly decreasing to k=500")


def test_criterion_5_three_way_consistency():
    """Series/AGM/quadrature pairwise within verify.K_REL (64 eps) of the
    AGM value on 100 random moduli, and AGM vs quadrature at t = 0.999999."""
    r = verify.check_k_consistency(seed=verify.DEFAULT_SEED)
    report(5, r.status == "pass", f"{r.checked_points} modulus points, {r.witness}")


def test_criterion_6_reciprocal_relation():
    """|M(a,b) * (2/pi) * K(a,b) - 1| <= verify.K_REL (64 eps) over 1000
    log-uniform pairs."""
    r = verify.check_reciprocal(1000, seed=verify.DEFAULT_SEED)
    report(6, r.status == "pass", f"{r.checked_points} pairs, {r.witness}")


def test_criterion_7_sharp_bounds():
    """10^4 seeded pairs satisfy L < M < (pi/2)L with zero slack; the
    200-point scan on [1e-8, 1-1e-4] is strictly decreasing inside
    (1, pi/2); r(1e-8) > pi/2 - 0.15 and r(1-1e-4) < 1.01."""
    r_pairs = verify.check_mean_order(10000, seed=verify.DEFAULT_SEED)
    _, ratio = means.scan_ratio(200, 1e-8, 1.0 - 1e-4)
    r_scan = verify.check_ratio_scan(200)
    r_low = means._mean_ratio(1e-8)
    r_high = means._mean_ratio(1.0 - 1e-4)
    ok = r_pairs.status == "pass"
    ok &= r_scan.status == "pass"
    ok &= all(x > y for x, y in zip(ratio, ratio[1:]))
    ok &= min(ratio) > 1.0 and max(ratio) < HALF_PI
    ok &= r_low > HALF_PI - 0.15
    ok &= r_high < 1.01
    report(
        7,
        ok,
        f"10^4 pairs strict; scan in ({min(ratio):.6f}, {max(ratio):.6f}); "
        f"r(1e-8)={r_low:.4f}, r(1-1e-4)={r_high:.6f}",
    )


def test_criterion_8_classical_orderings():
    """L < M < I on sampled pairs and the generalized log mean strictly
    increasing across the seven-point order grid."""
    r = verify.check_mean_order(10000, seed=verify.DEFAULT_SEED)
    report(8, r.status == "pass", f"{r.checked_points} pairs, {r.witness}")


def test_criterion_9_mutation_sanity():
    """Corrupting any single stored coefficient flips at least one
    verification report to fail, with a witness."""
    k_max = 12
    rows = tuple(co.table_rows(k_max))
    ok = True
    tried = 0
    # (column in a row (k, a, b, h, g, s), first k at which it is defined)
    for column, first in ((1, 1), (2, 0), (3, 1), (4, 1), (5, 2)):
        for k in range(first, k_max + 1):
            row = list(rows[k])
            value = Fraction(*row[column]) + Fraction(1, 9973)
            row[column] = (value.numerator, value.denominator)
            corrupted = (*rows[:k], tuple(row), *rows[k + 1:])
            reports = [
                verify.check_coefficient_identities(corrupted),
                verify.check_coefficient_monotonicity(corrupted),
                verify.check_sign_change(corrupted),
            ]
            failing = [r for r in reports if r.status == "fail"]
            ok &= bool(failing) and all(r.witness for r in failing)
            tried += 1
    report(9, ok, f"{tried} single-entry corruptions all detected with witnesses")


def test_agm_cli_example():
    """The AGM oracle value surfaces through the CLI example invocation."""
    out = io.StringIO()
    code = cli.run(
        ["mean", "--kind", "agm", "--a", "1.4142135623730951", "--b", "1"], out=out
    )
    value = float(out.getvalue())
    assert code == 0
    assert value == pytest.approx(1.198140234735592, rel=1e-14)


def test_verify_cli_quick_profile_runtime():
    """verify --profile quick --seed 42 --format json: all pass, exit 0."""
    out = io.StringIO()
    start = time.perf_counter()
    code = cli.run(
        ["verify", "--profile", "quick", "--seed", "42", "--format", "json"], out=out
    )
    elapsed = time.perf_counter() - start
    reports = json.loads(out.getvalue())
    assert code == 0
    assert all(r["status"] == "pass" for r in reports)
    assert elapsed < 5.0


def test_full_profile_passes():
    reports = verify.run_all("full", seed=verify.DEFAULT_SEED)
    assert verify.all_passed(reports)


def test_sample_rejection_excludes_equal_pairs():
    import random

    rng = random.Random(0)
    for _ in range(1000):
        a, b = verify._sample_pair(rng)
        assert abs(a - b) >= verify.MIN_REL_GAP * max(a, b)


def test_double_inequality_example_pair():
    lm = means.log_mean_float(1.0, 2.0)
    m, _ = means.agm_iterates(1.0, 2.0)
    assert lm == pytest.approx(1.4426950408889634, rel=1e-15, abs=0)
    assert lm < m < HALF_PI * lm
