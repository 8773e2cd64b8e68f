"""Bivariate means of positive reals.

Logarithmic, identric (exponential), generalized logarithmic of order p,
and the arithmetic-geometric mean computed by the AGM iteration.  All
operations are pure functions; every mean is symmetric in its arguments
and homogeneous of degree one.
"""

import math
import sys
from dataclasses import dataclass

from agmbounds.backend import kernels

# AGM stopping tolerance: relative gap on the arithmetic iterate.
DEFAULT_REL_TOL = 4.0 * sys.float_info.epsilon

# Below this relative argument gap, means collapse to the midpoint whose
# O((gap)^2) error beats the cancellation of the direct formulas.
NEAR_EQUAL_REL = 1e-9

# Below this |p|, gen_log_mean switches to a series-corrected log form;
# the raw formula loses about |log10 p| digits to cancellation.
SMALL_ORDER = 1e-6


@dataclass(frozen=True)
class MeanInput:
    """Validated pair of positive reals; the argument of every mean."""

    a: float
    b: float

    def __post_init__(self):
        a = float(self.a)
        b = float(self.b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"mean arguments must be finite, got a={self.a}, b={self.b}")
        if a <= 0.0 or b <= 0.0:
            raise ValueError(f"mean arguments must be positive, got a={self.a}, b={self.b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def hi(self) -> float:
        return self.a if self.a >= self.b else self.b

    @property
    def lo(self) -> float:
        return self.b if self.a >= self.b else self.a

    def ordered(self) -> tuple[float, float]:
        """The pair as (hi, lo); results never depend on input order."""
        return self.hi, self.lo


@dataclass(frozen=True)
class AgmTrace:
    """AGM iterate sequence with its limit and step count.

    iterates[k] = (a_k, b_k) with a_k the arithmetic and b_k the geometric
    iterate; iterates[0] is the (ordered) input pair.  The limit is the
    final arithmetic iterate.
    """

    iterates: tuple[tuple[float, float], ...]
    limit: float
    iterations: int


def log_mean(inp: MeanInput) -> float:
    """Logarithmic mean (b - a)/(ln b - ln a), equal to a at a == b."""
    return kernels.log_mean(inp.a, inp.b)


def identric_mean(inp: MeanInput) -> float:
    """Identric (exponential) mean (1/e)(b^b/a^a)^(1/(b-a)), a at a == b.

    Evaluated in log space so large arguments cannot overflow.
    """
    return kernels.identric_mean(inp.a, inp.b)


def gen_log_mean(p: float, inp: MeanInput) -> float:
    """Generalized logarithmic mean of order p.

    [(b^(p+1) - a^(p+1)) / ((p+1)(b-a))]^(1/p) for p outside {-1, 0};
    the logarithmic mean at p = -1, the identric mean at p = 0, and a at
    a == b.  Strictly increasing in p for fixed a != b.
    """
    p = float(p)
    if not math.isfinite(p):
        raise ValueError(f"order p must be finite, got {p}")
    hi, lo = inp.ordered()
    if hi == lo:
        return hi
    if p == -1.0:
        return log_mean(inp)
    if p == 0.0:
        return identric_mean(inp)
    d = hi - lo
    if d < NEAR_EQUAL_REL * hi:
        return 0.5 * (lo + hi)
    if abs(p) < SMALL_ORDER:
        return _gen_log_small_p(p, hi, lo, d)
    return _gen_log_general(p, hi, lo, d)


def _gen_log_small_p(p: float, hi: float, lo: float, d: float) -> float:
    # exp(log1p(delta)/p) where delta = (ratio - 1) is expanded in powers
    # of p; three terms leave an O(p^3) truncation error, negligible for
    # |p| < 1e-6.
    lh = math.log(hi)
    ll = math.log(lo)
    t1 = hi * lh - lo * ll - d
    t2 = hi * lh * lh - lo * ll * ll
    t3 = hi * lh * lh * lh - lo * ll * ll * ll
    series = t1 + p * (0.5 * t2 + p * (t3 / 6.0))
    delta = p * series / ((p + 1.0) * d)
    return math.exp(math.log1p(delta) / p)


def _gen_log_general(p: float, hi: float, lo: float, d: float) -> float:
    # log-space form: anchored at the dominant power so b^(p+1) is never
    # materialized; expm1 keeps the bracket accurate for p near -1.
    q = p + 1.0
    if q > 0.0:
        bracket = -math.expm1(q * (math.log(lo) - math.log(hi)))
        log_ratio = q * math.log(hi) + math.log(bracket) - math.log(q) - math.log(d)
    else:
        bracket = -math.expm1(q * (math.log(hi) - math.log(lo)))
        log_ratio = q * math.log(lo) + math.log(bracket) - math.log(-q) - math.log(d)
    return math.exp(log_ratio / p)


def agm(inp: MeanInput, rel_tol: float = DEFAULT_REL_TOL) -> AgmTrace:
    """Arithmetic-geometric mean via a_{k+1} = (a_k+b_k)/2, b_{k+1} = sqrt(a_k b_k).

    Stops once |a_k - b_k| <= rel_tol * a_k; the iteration runs on the
    pair pre-scaled by 1/max(a, b), so quadratic convergence bounds apply
    uniformly.  A pair whose ratio min/max is below the smallest normal
    double first takes at most two steps on the unscaled values, which
    the trace records.  Ratios down to 1e-8 finish within 8 steps and
    every pair of positive finite doubles within 16 at the default
    tolerance.  Tolerances below the roundoff floor terminate at the floor.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    pairs = kernels.agm_iterates(inp.a, inp.b, rel_tol)
    return AgmTrace(
        iterates=tuple(pairs),
        limit=pairs[-1][0],
        iterations=len(pairs) - 1,
    )
