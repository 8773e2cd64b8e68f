"""Kernel-level tests: the float kernels of means and elliptic, and their
low-level numerical behaviour."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agmbounds import elliptic, means
from agmbounds.elliptic import k_series_sum
from agmbounds.means import agm_iterates, agm_limit, identric_mean_float, log_mean_float

REL_TOL = means.DEFAULT_REL_TOL

PAIRS = [
    (1.0, 1.0),
    (2.0, 8.0),
    (math.sqrt(2.0), 1.0),
    (1.0, 1e-8),
    (1e-3, 1e3),
    (5.0, 7.0),
    (123.456, 123.457),
    (0.062, 941.0),
]

# pairs whose ratio min/max is below the smallest normal double
WIDE_PAIRS = [
    (1e-300, 1e300),
    (1e-308, 1e308),
    (5e-324, 1.0),
    (5e-324, 1e-10),
    (sys.float_info.max, 5e-324),
    (1e-323, 1.5e308),
    (1e-320, 1e300),
]


def test_agm_limit_fixed_point():
    assert agm_limit(5.0, 5.0, REL_TOL) == (5.0, 0)


def test_agm_limit_symmetric():
    assert agm_limit(2.0, 8.0, REL_TOL) == agm_limit(8.0, 2.0, REL_TOL)


def test_agm_iterates_match_limit():
    for a, b in PAIRS + WIDE_PAIRS:
        limit, n = agm_limit(a, b, REL_TOL)
        pairs = agm_iterates(a, b, REL_TOL)
        assert pairs[-1][0] == limit
        assert len(pairs) - 1 == n


# log-uniform over the binary exponents of every positive finite double
whole_range = st.builds(
    math.ldexp,
    st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
    st.integers(min_value=-1073, max_value=1024),
)


@given(whole_range, whole_range)
def test_whole_range_agm_bounded(a, b):
    limit, n = agm_limit(a, b, REL_TOL)
    pairs = agm_iterates(a, b, REL_TOL)
    assert pairs[-1][0] == limit
    assert len(pairs) - 1 == n <= 16
    assert math.isfinite(limit) and limit > 0.0
    assert 0.0 < log_mean_float(a, b) < math.inf
    assert 0.0 < identric_mean_float(a, b) < math.inf


def test_agm_unscaled_steps_traced():
    # (5e-324, DBL_MAX) takes two unscaled steps before its ratio is normal
    pairs = agm_iterates(5e-324, sys.float_info.max, REL_TOL)
    (h0, l0), (h1, l1), (h2, l2) = pairs[:3]
    assert (h0, l0) == (sys.float_info.max, 5e-324)
    assert (h1, l1) == (0.5 * h0 + 0.5 * l0, math.sqrt(h0) * math.sqrt(l0))
    assert (h2, l2) == (0.5 * h1 + 0.5 * l1, math.sqrt(h1) * math.sqrt(l1))
    assert l1 / h1 < sys.float_info.min <= l2 / h2


def test_agm_iteration_count_moderate():
    # ratios up to 1e8 converge within 8 steps after unit normalization
    for a, b in PAIRS:
        _, n = agm_limit(a, b, REL_TOL)
        assert n <= 8


def test_agm_tiny_tolerance_terminates():
    # below the roundoff floor the iteration must still stop
    limit, n = agm_limit(3.0, 7.0, 1e-300)
    assert math.isfinite(limit)
    assert n < 30


def test_log_mean_equal_arguments():
    assert log_mean_float(3.5, 3.5) == 3.5


def test_log_mean_known_value():
    assert log_mean_float(2.0, 8.0) == pytest.approx(6.0 / math.log(4.0), rel=1e-15, abs=0)


def test_identric_log_space_no_overflow():
    # b^b overflows for b ~ 1e3; the form through the log mean must not
    v = identric_mean_float(1e300, 1e299)
    assert math.isfinite(v)
    assert 1e299 < v < 1e300


def test_log_mean_branch_seam():
    # either side of lo/hi = DBL_MIN, log-difference and log1p forms agree
    edge = 1.0 / sys.float_info.min
    log_difference = log_mean_float(1.0, math.nextafter(edge, math.inf))
    log1p_form = log_mean_float(1.0, math.nextafter(edge, 0.0))
    assert log_difference == pytest.approx(log1p_form, rel=2e-15)
    assert log_difference == pytest.approx(edge / math.log(edge), rel=2e-15)


def test_identric_either_side_of_hi_log_hi_overflow():
    # hi * ln(hi) is finite at 2.5e305 and overflows at 2.6e305; the mean
    # must agree with the homogeneous reduction on both sides
    for hi in (2.5e305, 2.6e305):
        for lo in (1.0, 0.5 * hi):
            v = identric_mean_float(lo, hi)
            assert v == pytest.approx(hi * identric_mean_float(lo / hi, 1.0), rel=1e-12)


def test_series_sum_t_zero():
    assert k_series_sum(0.0, 500, 1e-17) == (1.0, 1, 0.0, True)


def test_series_sum_budget_flag():
    s, terms, omitted, converged = k_series_sum(0.81, 5, 1e-17)
    assert not converged
    assert terms == 5
    assert omitted > 0.0


def test_series_tail_bound():
    # the partial sum plus geometric tail bound must bracket a longer sum
    tsq = 0.25
    s_short, _, omitted, _ = k_series_sum(tsq, 500, 1e-10)
    s_long, _, _, _ = k_series_sum(tsq, 500, 1e-17)
    assert s_short <= s_long <= s_short + omitted / (1.0 - tsq)


def test_quadrature_simpson_cross_check():
    # independent composite-Simpson oracle for K(1, 0.3) in the angular form
    a, b = 1.0, 0.3
    n = 20000
    h = (math.pi / 2.0) / n

    def f(theta):
        c = math.cos(theta)
        s = math.sin(theta)
        return 1.0 / math.sqrt(a * a * c * c + b * b * s * s)

    acc = f(0.0) + f(math.pi / 2.0)
    for i in range(1, n):
        acc += (4.0 if i % 2 else 2.0) * f(i * h)
    simpson = acc * h / 3.0
    assert elliptic.k_quadrature(a, b).value == pytest.approx(simpson, rel=1e-12)
