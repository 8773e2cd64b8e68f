"""Complete elliptic integral of the first kind by three independent routes.

K(t) = integral_0^{pi/2} dtheta / sqrt(1 - t^2 sin^2 theta) for modulus
t in [0, 1), and the two-argument form
K(a, b) = integral_0^{pi/2} dtheta / sqrt(a^2 cos^2 theta + b^2 sin^2 theta),
linked to the arithmetic-geometric mean by 1/M(a, b) = (2/pi) K(a, b).

Routes: truncated hypergeometric-type series (fast, refuses t > 0.95),
the AGM identity (valid everywhere, treated as the reference route), and
the trapezoidal rule on Gauss's integral over the whole real line, which
is independent of the AGM.
"""

import math
import sys

from agmbounds import means

# Above this modulus the series needs hundreds of terms per digit; callers
# are pushed to the AGM route instead.
SERIES_T_MAX = 0.95

# Series truncation : stop once the next term drops below this fraction of
# the partial sum.
SERIES_REL_CUTOFF = 1e-17


def _series_coeffs(n: int) -> tuple[float, ...]:
    # [C(2i,i)/4^i]^2 for i < n, built by the exact ratio ((2i-1)/(2i))^2
    coeffs = [1.0]
    for i in range(1, n):
        r = (2.0 * i - 1.0) / (2.0 * i)
        coeffs.append(coeffs[-1] * (r * r))
    return tuple(coeffs)


# The coefficients k_series reads, for i = 0..314.  t = SERIES_T_MAX stops
# at term 310; the last four are margin, and k_series raises if it ever
# runs past them.
_SERIES_COEFFS = _series_coeffs(315)

# Trapezoidal step in u.  The integrand of k_quadrature is analytic in the
# strip |Im u| < pi/2, so the discretisation error is about
# exp(-pi^2 / QUAD_STEP) ~ 7e-18 relative (Trefethen & Weideman, SIAM
# Review 56, 2014).
QUAD_STEP = 0.25

# Summation stops at the first term below this fraction of the partial sum.
QUAD_TERM_CUTOFF = 1e-17

# k_quadrature sums its tail in closed form from the first node where
# rho = e^(-2u)/r <= e^(-QUAD_TAIL_DECAY); the tail series in rho then
# shrinks at least as fast as a geometric series of that ratio.
QUAD_TAIL_DECAY = 3.0

# The denominators 1 - e^(-(2j+1)h) of k_quadrature's tail terms, as
# -expm1(-(2j+1) QUAD_STEP), for j = 0..15.  Since rho <= e^-3, |c_j| <= 1
# and the sum is at least its first node 1/(1 + r) >= 1/2, term j is below
# 2.02 e^(-3j), under QUAD_TERM_CUTOFF of the sum from j = 14 on; the tail
# raises if it ever reads past the table.
_QUAD_TAIL_DENOMS = tuple(-math.expm1(-(2 * j + 1) * QUAD_STEP) for j in range(16))


class ModulusTooLarge(ValueError):
    """Series route refused: modulus in the slow-convergence region."""


class Modulus(means.Record):
    """Elliptic modulus t with 0 <= t < 1 (t = 1 is a log singularity).

    Each modulus stores its complement sqrt(1 - t^2) when it is built:
    Modulus(t) as sqrt((1-t)(1+t)), for accuracy near 1, and a modulus
    reduced from a pair (modulus_from_pair) as the exact lo/hi, which t
    cannot give back near t = 1, where t rounds towards 1.  Moduli
    compare, hash and print by t only.
    """

    _fields = ("t",)

    def __init__(self, t: float):
        ft = means._float(t)
        if not math.isfinite(ft) or ft < 0.0 or ft >= 1.0:
            raise ValueError(f"modulus must satisfy 0 <= t < 1, got {means.arg_text(t)}")
        means.set_fields(self, {"t": ft, "_complement": math.sqrt((1.0 - ft) * (1.0 + ft))})

    def complement(self) -> float:
        """sqrt(1 - t^2), as the modulus stored it when it was built."""
        return self._complement


class EllipticResult(means.Record):
    """A value of K with its route ("series" | "agm" | "quadrature"), the
    terms or iterations it took, and its error estimate.

    On the series route the estimate bounds the truncated tail only, not
    the rounding of value, which is about 40 times larger at t = 0.25
    (see k_series).
    """

    _fields = ("value", "method", "terms_or_iterations", "error_estimate")

    def __init__(self, value: float, method: str, terms_or_iterations: int,
                 error_estimate: float):
        means.set_fields(self, {"value": value, "method": method,
                                "terms_or_iterations": terms_or_iterations,
                                "error_estimate": error_estimate})


def k_series(m: Modulus) -> EllipticResult:
    """K(t) by the even power series (pi/2) * sum_i [C(2i,i)/4^i]^2 t^(2i).

    The coefficients come from _SERIES_COEFFS, built once at import by
    the exact ratio ((2i-1)/(2i))^2, so each term costs two products and
    every value is bit for bit what the per-term recurrence gave.
    Truncates once the next term falls below SERIES_REL_CUTOFF relative to
    the partial sum; the reported error_estimate is the geometric tail bound
    (first omitted term)/(1 - t^2).  It bounds the truncated tail only,
    not the rounding of the sum of up to 310 terms, which is larger on
    most moduli.  Against mpmath at 40 digits, the rounding puts value
    3.8e-16 relative (1.7 eps) from the exact sum of its kept terms at
    t = 0.95, where error_estimate is 9.9e-17 of the value, and 2.3e-16 at
    t = 0.25, where it is 5.6e-18.  The term count rises with t, to 310 at
    t = 0.95, inside the 315 coefficients of the table.  Raises
    ModulusTooLarge for t > 0.95, and ArithmeticError, in place of a
    truncated sum, if a modulus ever needs more coefficients than the
    table holds.
    """
    if m.t > SERIES_T_MAX:
        raise ModulusTooLarge(
            f"series route refuses t={m.t} > {SERIES_T_MAX}; use k_agm instead"
        )
    tsq = m.t * m.t
    s = 1.0
    tpow = 1.0
    coeffs = _SERIES_COEFFS
    for terms in range(1, len(coeffs)):
        tpow = tpow * tsq
        term = coeffs[terms] * tpow
        if term < SERIES_REL_CUTOFF * s:
            break
        s = s + term
    else:
        raise ArithmeticError(f"series at t={m.t!r} ran past its {len(coeffs)} coefficients")
    half_pi = math.pi / 2.0
    return EllipticResult(
        value=half_pi * s,
        method="series",
        terms_or_iterations=terms,
        error_estimate=half_pi * term / (1.0 - tsq),
    )


def k_agm(m: Modulus) -> EllipticResult:
    """K(t) = pi / (2 * M(1, sqrt(1 - t^2))) via the AGM iteration.

    Exact rewriting of the two-argument form K(1, sqrt(1-t^2)); converges
    for every valid modulus, including arbitrarily close to 1.  A modulus
    from a pair runs M(1, lo/hi) on its exact complement.  The iteration
    stops at means.DEFAULT_REL_TOL.
    """
    limit, iterations = means.agm_iterates(1.0, m.complement())
    value = math.pi / (2.0 * limit)
    return EllipticResult(
        value=value,
        method="agm",
        terms_or_iterations=iterations,
        error_estimate=value * (means.DEFAULT_REL_TOL + 4.0 * sys.float_info.epsilon),
    )


def _ordered_pair(a: float, b: float) -> tuple[float, float]:
    # (hi, lo) of a pair of positive finite reals, or ValueError
    fa = a if a.__class__ is float else means._float(a)
    fb = b if b.__class__ is float else means._float(b)
    if not (math.isfinite(fa) and math.isfinite(fb)) or fa <= 0.0 or fb <= 0.0:
        raise ValueError(
            "arguments must be positive finite reals, "
            f"got a={means.arg_text(a)}, b={means.arg_text(b)}"
        )
    return (fa, fb) if fa >= fb else (fb, fa)


def k_quadrature(a: float, b: float) -> EllipticResult:
    """K(a, b) by the trapezoidal rule on Gauss's form
    K(a, b) = integral_0^inf dt / sqrt((a^2 + t^2)(b^2 + t^2)).

    With t = sqrt(ab) e^u the integrand becomes even and analytic in u:
    K = (1/hi) integral_R f(u) du, f(u) = [(1 + r e^(2u))(1 + r e^(-2u))]^(-1/2),
    r = lo/hi, and the trapezoidal sum with step h = QUAD_STEP converges
    exponentially.  Nodes n >= 1 count twice.  They are evaluated one by
    one up to the first node N with rho = e^(-2Nh)/r <= e^(-QUAD_TAIL_DECAY).
    From there f(u) = rho^(1/2) sum_j c_j rho^j with
    c_j = (-r)^j P_j((r + 1/r)/2) (Legendre), |c_j| <= 1, so the tail of
    the sum over n >= N is, in closed form,
    2 sum_j c_j rho_N^(j+1/2) / (1 - e^(-(2j+1)h)), summed until a term
    falls below QUAD_TERM_CUTOFF of the partial sum.  The denominators
    come from _QUAD_TAIL_DENOMS, computed once at import; the sum stops by
    j = 14 (see the table), and raises ArithmeticError if it ever reads
    past the table's 16 entries.  r e^(+-2nh) is
    evaluated as exp(+-2nh + ln r), which neither overflows nor underflows
    to a wrong value anywhere in the positive doubles.  Never calls the AGM.
    terms_or_iterations counts the explicit evaluations and the tail terms
    computed; error_estimate is h/hi times the first omitted tail term.
    """
    hi, lo = _ordered_pair(a, b)
    r = lo / hi
    # ln lo - ln hi cancels, losing about |ln lo| eps; lo/hi is correctly
    # rounded while it stays normal
    log_r = math.log(r) if r >= means.DBL_MIN else math.log(lo) - math.log(hi)
    rsq = r * r
    base = 1.0 + rsq
    half_base = 0.5 * base
    h = QUAD_STEP
    n_tail = math.ceil((QUAD_TAIL_DECAY - log_r) / (2.0 * h))
    terms = [1.0 / math.sqrt(base + 2.0 * r)]
    for n in range(1, n_tail):
        x = 2.0 * h * n
        terms.append(2.0 / math.sqrt(base + math.exp(x + log_r) + math.exp(log_r - x)))
    total = sum(terms)
    log_rho = -2.0 * h * n_tail - log_r
    rho = math.exp(log_rho)
    power = 2.0 * math.exp(0.5 * log_rho)  # 2 rho^(j + 1/2)
    c_prev, c = 0.0, 1.0
    for j, denom in enumerate(_QUAD_TAIL_DENOMS):
        term = c * power / denom
        if abs(term) < QUAD_TERM_CUTOFF * total:
            break
        terms.append(term)
        total += term
        # (j+1) c_(j+1) = -(2j+1) (1+r^2)/2 c_j - j r^2 c_(j-1), the Legendre
        # recurrence scaled by (-r)^(j+1); forward it is stable
        c_prev, c = c, (-(2 * j + 1) * half_base * c - j * rsq * c_prev) / (j + 1)
        power *= rho
    else:
        raise ArithmeticError(f"quadrature tail at r={r!r} ran past its "
                              f"{len(_QUAD_TAIL_DENOMS)} terms")
    # the tail terms alternate in sign; fsum adds every term exactly
    return EllipticResult(
        value=h * math.fsum(terms) / hi,
        method="quadrature",
        terms_or_iterations=n_tail + j + 1,
        error_estimate=h * abs(term) / hi,
    )


def modulus_from_pair(a: float, b: float) -> tuple[Modulus, float]:
    """Reduce K(a, b) to the modulus form: K(a, b) = K(t)/scale.

    Returns (m, hi) with m.t = sqrt(1 - (lo/hi)^2) and
    m.complement() = lo/hi, exactly.
    Raises ValueError for non-positive or non-finite input, and for a
    ratio lo/hi below the smallest normal double, which a double cannot
    carry exactly (k_quadrature takes such pairs directly).
    """
    hi, lo = _ordered_pair(a, b)
    u = lo / hi
    if u < means.DBL_MIN:
        raise ValueError(
            f"ratio {lo}/{hi} is below the smallest normal double; "
            "use the quadrature route for this pair"
        )
    t = math.sqrt((1.0 - u) * (1.0 + u))
    if t >= 1.0:  # t rounds to 1 below u ~ 1e-8; the complement stays exact
        t = math.nextafter(1.0, 0.0)
    m = object.__new__(Modulus)
    means.set_fields(m, {"t": t, "_complement": u})
    return m, hi
