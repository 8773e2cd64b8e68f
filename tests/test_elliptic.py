"""Elliptic integral routes: examples, errors, and cross-method agreement."""

import math
import random
import re
import sys

import pytest

from agmbounds import (
    EllipticResult,
    MeanInput,
    Modulus,
    ModulusTooLarge,
    agm,
    k_agm,
    k_quadrature,
    k_series,
)
from agmbounds import elliptic, means

HALF_PI = math.pi / 2.0


class TestModulus:
    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan, math.inf])
    def test_rejects_out_of_range(self, bad):
        message = f"modulus must satisfy 0 <= t < 1, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Modulus(bad)

    def test_accepts_boundary(self):
        assert Modulus(0.0).t == 0.0
        assert Modulus(0.999999).t == 0.999999

    def test_complement_accuracy_near_one(self):
        t = 0.999999
        c = Modulus(t).complement()
        assert c == pytest.approx(math.sqrt((1.0 - t) * (1.0 + t)), rel=0)
        assert 0.0 < c < 2e-3


class TestSeries:
    def test_t_zero_single_term(self):
        r = k_series(Modulus(0.0))
        assert r.value == HALF_PI
        assert r.terms_or_iterations == 1
        assert r.error_estimate == 0.0
        assert r.method == "series"
        same = EllipticResult(
            value=HALF_PI, method="series", terms_or_iterations=1, error_estimate=0.0
        )
        assert r == same and hash(r) == hash(same)
        assert r != EllipticResult(HALF_PI, "agm", 1, 0.0)
        assert repr(r) == (
            f"EllipticResult(value={HALF_PI!r}, method='series', "
            "terms_or_iterations=1, error_estimate=0.0)"
        )
        with pytest.raises(AttributeError):
            r.value = 0.0

    def test_agrees_with_agm_route(self):
        vs = k_series(Modulus(0.8)).value
        va = k_agm(Modulus(0.8)).value
        assert abs(vs - va) / va < 1e-13

    def test_refuses_large_modulus(self):
        with pytest.raises(ModulusTooLarge):
            k_series(Modulus(0.96))

    def test_terms_at_largest_modulus(self):
        r = k_series(Modulus(elliptic.SERIES_T_MAX))
        assert r.terms_or_iterations == 310

    def test_terms_never_decrease_in_t(self):
        # with the count at t = SERIES_T_MAX, this bounds the loop of every
        # modulus the route accepts
        ts = [i / 10000 for i in range(9501)]
        assert ts[-1] == elliptic.SERIES_T_MAX
        terms = [k_series(Modulus(t)).terms_or_iterations for t in ts]
        assert all(x <= y for x, y in zip(terms, terms[1:]))

    def test_error_estimate_bounds_truth(self):
        for t in (0.3, 0.6, 0.9):
            rs = k_series(Modulus(t))
            ra = k_agm(Modulus(t))
            assert abs(rs.value - ra.value) <= rs.error_estimate + ra.error_estimate

    @pytest.mark.parametrize("t", [0.25, 0.6, 0.9, 0.95])
    def test_tail_bound_brackets_k(self, t):
        # value <= K <= value + error_estimate, up to the rounding of value.
        # Exactly, at the double t*t that k_series sums at, the terms it
        # kept fall short of K by at most error_estimate (whose own
        # rounding is far below 1e-12); value, from +, * and / only, lies
        # within 1.8 eps of their sum on these moduli, so 4 eps of slack
        mpmath = pytest.importorskip("mpmath")
        r = k_series(Modulus(t))
        slack = 4.0 * sys.float_info.epsilon * r.value
        with mpmath.workdps(40):
            tsq = mpmath.mpf(t * t)
            kept = mpmath.pi / 2 * mpmath.fsum(
                (mpmath.binomial(2 * i, i) / mpmath.mpf(4) ** i) ** 2 * tsq**i
                for i in range(r.terms_or_iterations)
            )
            k = mpmath.ellipk(tsq)
            assert abs(r.value - kept) <= slack
            assert kept < k <= kept + r.error_estimate * (1.0 + 1e-12)


class TestAgmRoute:
    def test_t_zero(self):
        r = k_agm(Modulus(0.0))
        assert r.value == HALF_PI
        assert r.terms_or_iterations == 0

    def test_near_singular_against_quadrature(self):
        m = Modulus(0.999999)
        va = k_agm(m).value
        vq = k_quadrature(1.0, m.complement()).value
        assert va >= HALF_PI
        assert abs(va - vq) / va < 1e-9

    def test_definition_unwinding(self):
        # K(t) with t = sqrt(1 - b^2) is exactly pi / (2 M(1, b))
        m = Modulus(math.sqrt(3.0) / 2.0)
        b = m.complement()
        via_k = k_agm(m).value
        via_trace = math.pi / (2.0 * agm(MeanInput(1.0, b)).limit)
        assert via_k == via_trace
        direct = math.pi / (2.0 * agm(MeanInput(1.0, 0.5)).limit)
        assert via_k == pytest.approx(direct, rel=1e-14)


class TestQuadrature:
    def test_unit_circle(self):
        r = k_quadrature(1.0, 1.0)
        assert r.value == pytest.approx(HALF_PI, rel=1e-15, abs=0)
        assert r.method == "quadrature"

    def test_homogeneity_two_two(self):
        assert k_quadrature(2.0, 2.0).value == pytest.approx(math.pi / 4.0, rel=1e-15, abs=0)

    def test_homogeneity_random(self):
        rng = random.Random(3)
        for _ in range(20):
            a = 10.0 ** rng.uniform(-1, 1)
            b = 10.0 ** rng.uniform(-1, 1)
            lam = 10.0 ** rng.uniform(-1, 1)
            v = k_quadrature(a, b).value
            vl = k_quadrature(lam * a, lam * b).value
            assert vl == pytest.approx(v / lam, rel=1e-12)

    def test_agrees_with_agm_route(self):
        m = Modulus(math.sqrt(3.0) / 2.0)
        vq = k_quadrature(1.0, 0.5).value
        va = k_agm(m).value
        assert abs(vq - va) / va < 1e-12

    def test_simpson_cross_check(self):
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
        assert k_quadrature(a, b).value == pytest.approx(simpson, rel=1e-12)

    def test_converges_at_ratio_1e_4(self):
        # the uniform-panel route stopped at its panel budget here
        r = k_quadrature(1.0, 1e-4)
        assert r.error_estimate <= elliptic.QUAD_REL_TARGET * r.value
        m_direct = agm(MeanInput(1.0, 1e-4)).limit
        assert r.value == pytest.approx(math.pi / (2.0 * m_direct), rel=1e-13)

    @pytest.mark.parametrize(
        "a,b",
        [
            (1.0, 1.0),
            (1.0, 0.3),
            (2.0, 8.0),
            (1.0, 1e-2),
            (1.0, 1e-4),
            (1.0, 1e-8),
            (1.0, 1e-100),
            (1.0, 1e-300),
            (1e-300, 1e300),
            (5e-324, sys.float_info.max),
            # ln lo - ln hi cancelled to about 1e-14 relative on these
            (5.773504364731626e-238, 6.623201787635352e-235),
            (2.7461012486484123e+219, 5.1411429369759234e+218),
        ],
    )
    def test_against_mpmath(self, a, b):
        # the terms are added exactly; a running sum drifts past 1e-15
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = mpmath.pi / (2 * mpmath.agm(mpmath.mpf(a), mpmath.mpf(b)))
            r = k_quadrature(a, b)
            assert abs(mpmath.mpf(r.value) / ref - 1) <= 1e-15
        assert r.error_estimate <= elliptic.QUAD_REL_TARGET * r.value
        assert r.terms_or_iterations > 1

    def test_seeded_pairs_against_mpmath(self):
        # verifier band, whole double range, near-equal pairs, and pairs
        # whose first closed-form tail node sits at rho just above or
        # below e^(-QUAD_TAIL_DECAY)
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2014)
        pairs = [(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)) for _ in range(80)]
        pairs += [(2.0 ** rng.uniform(-1074, 1023), 2.0 ** rng.uniform(-1074, 1023))
                  for _ in range(80)]
        for _ in range(40):
            a = 10.0 ** rng.uniform(-300, 300)
            pairs.append((a, a * (1.0 + 10.0 ** rng.uniform(-15, -1))))
        for _ in range(100):
            log_r = (elliptic.QUAD_TAIL_DECAY - 2.0 * elliptic.QUAD_STEP * rng.randint(6, 1400)
                     + rng.choice((-1e-9, 1e-9)))
            hi = 10.0 ** rng.uniform(-10, 10)
            pairs.append((hi, hi * math.exp(log_r)))
        with mpmath.workdps(40):
            for a, b in pairs:
                ref = mpmath.pi / (2 * mpmath.agm(mpmath.mpf(a), mpmath.mpf(b)))
                r = k_quadrature(a, b)
                assert abs(mpmath.mpf(r.value) / ref - 1) <= 1e-15, (a, b)
                assert r.error_estimate <= elliptic.QUAD_REL_TARGET * r.value, (a, b)

    @pytest.mark.parametrize("ratio", [1.0, 0.99, 0.5, 1e-3])
    def test_closed_form_tail_keeps_the_count_small(self, ratio):
        # node by node the sum took 153 to 161 evaluations at these ratios
        assert k_quadrature(1.0, ratio).terms_or_iterations <= 32

    def test_validation(self):
        with pytest.raises(ValueError):
            k_quadrature(-1.0, 1.0)
        with pytest.raises(ValueError):
            k_quadrature(1.0, 0.0)


class TestCrossMethod:
    def test_three_way_consistency(self):
        rng = random.Random(11)
        worst = 0.0
        for _ in range(30):
            t = rng.uniform(0.0, 0.95)
            m = Modulus(t)
            vs = k_series(m).value
            va = k_agm(m).value
            vq = k_quadrature(1.0, m.complement()).value
            worst = max(
                worst,
                max(abs(vs - va), abs(vs - vq), abs(va - vq)) / vs,
            )
        assert worst <= 1e-11

    def test_k_increasing_in_modulus(self):
        grid = [i / 100.0 for i in range(0, 100, 5)]
        values = [k_agm(Modulus(t)).value for t in grid]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_value_at_least_half_pi_for_moduli(self):
        for t in (0.0, 0.2, 0.5, 0.8, 0.95, 0.999999):
            assert k_agm(Modulus(t)).value >= HALF_PI

    def test_reciprocal_relation_sample(self):
        rng = random.Random(5)
        for _ in range(50):
            a = 10.0 ** rng.uniform(-1.5, 1.5)
            b = 10.0 ** rng.uniform(-1.5, 1.5)
            m, _ = means.agm_iterates(a, b)
            k = k_quadrature(a, b).value
            assert abs(m * (2.0 / math.pi) * k - 1.0) <= 1e-11

    def test_agrees_with_iteration_within_estimates(self):
        for a, b in [(3.0, 0.4), (1.0, 0.05), (10.0, 11.0)]:
            r = k_quadrature(a, b)
            m_direct = agm(MeanInput(a, b)).limit
            m_recip = math.pi / (2.0 * r.value)
            budget = (r.error_estimate / r.value + 1e-13) * m_direct
            assert abs(m_direct - m_recip) <= budget + 1e-15 * m_direct


class TestModulusFromPair:
    def test_round_trip_scaling(self):
        m, scale = elliptic.modulus_from_pair(5.0, 8.0)
        assert scale == 8.0
        assert k_series(m).value / scale == pytest.approx(
            k_quadrature(5.0, 8.0).value, rel=1e-12
        )
        m2, scale2 = elliptic.modulus_from_pair(2.0, 8.0)
        assert scale2 == 8.0
        assert k_agm(m2).value / scale2 == pytest.approx(
            k_quadrature(2.0, 8.0).value, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            elliptic.modulus_from_pair(0.0, 1.0)
        # a ratio below the smallest normal double cannot be carried exactly
        with pytest.raises(ValueError):
            elliptic.modulus_from_pair(5e-324, 1.0)

    @pytest.mark.parametrize("ratio", [1e-3, 1e-8, 1e-100])
    def test_agm_route_small_ratio_against_mpmath(self, ratio):
        # t rounds towards 1, so the complement rebuilt from it would lose
        # the low bits (2% error at 1e-8); the exact complement keeps them
        mpmath = pytest.importorskip("mpmath")
        for a, b in ((1.0, ratio), (3.0 / ratio, 3.0)):
            m, scale = elliptic.modulus_from_pair(a, b)
            value = k_agm(m).value / scale
            with mpmath.workdps(40):
                ref = mpmath.pi / (2 * mpmath.agm(mpmath.mpf(a), mpmath.mpf(b)))
                assert abs(mpmath.mpf(value) / ref - 1) <= 1e-12

    def test_exact_complement_not_compared(self):
        m, _ = elliptic.modulus_from_pair(1.0, 0.5)
        assert m.complement() == 0.5
        assert m == Modulus(m.t)
        assert hash(m) == hash(Modulus(m.t))
        # t rounds to the same double on both pairs; the complements differ
        near, _ = elliptic.modulus_from_pair(1.0, 1e-9)
        nearer, _ = elliptic.modulus_from_pair(1.0, 1e-10)
        assert near.t == nearer.t and near.complement() != nearer.complement()
        assert near == nearer and hash(near) == hash(nearer)
        assert m != near
        assert repr(m) == f"Modulus(t={m.t!r}, exact_complement=0.5)"
        assert Modulus(m.t).exact_complement is None
        assert Modulus(m.t).complement() == pytest.approx(0.5, rel=1e-15, abs=0)
        for name in ("t", "exact_complement"):
            with pytest.raises(AttributeError):
                setattr(m, name, 0.25)
        assert m.complement() == 0.5

    def test_complement_only_from_a_pair(self):
        # a caller cannot give a complement that contradicts t
        with pytest.raises(TypeError):
            Modulus(0.1, exact_complement=0.5)
