"""Bivariate means of positive reals.

Logarithmic, identric (exponential), generalized logarithmic of order p,
and the arithmetic-geometric mean computed by the AGM iteration.  All
operations are pure functions; every mean is symmetric in its arguments
and homogeneous of degree one.

A MeanInput evaluates every per-pair transcendental once, when it is
built: ln(hi/lo), the logarithmic mean L, ln((hi - lo)/hi) and the
identric mean.  The means read that state, so each order of gen_log_mean
evaluates only what depends on p, in a form anchored at hi or lo that
lands in [lo, hi] without a clamp.  Two kernels work on
plain floats, for the verifier's and the elliptic routes' hot loops:
log_mean_float, the logarithmic mean, and agm_iterates, the one AGM
loop, which returns the limit and step count.  agm runs it once and
returns the two as an AgmTrace.

scan_ratio samples M(1,t)/L(1,t) from those two kernels on a log-spaced
grid and returns it as a RatioScan, so the scan command and the
verifier's ratio checks need nothing beyond this module.
"""

import math
import sys

# AGM stopping tolerance: relative gap on the arithmetic iterate.  Every
# AGM of the package stops at it; agm_iterates reads it at each call.
DEFAULT_REL_TOL = 4.0 * sys.float_info.epsilon

# Smallest normal double.  A pair whose ratio lo/hi falls below it would
# pre-scale to a subnormal or zero ratio, and d / lo may overflow in the
# log mean.
DBL_MIN = sys.float_info.min

# Machine epsilon; below |p| g^2 = _EPS the order p leaves the identric
# mean unmoved (gen_log_mean).
_EPS = sys.float_info.epsilon

# Below this relative argument gap the log, identric and generalized
# logarithmic means collapse to the midpoint: they differ from it by
# O(gap^2), below double precision there, and the midpoint cannot leave
# [lo, hi] as the rounded formulas can on adjacent doubles.
NEAR_EQUAL_REL = 1e-9


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in _fields and sets them all in one step,
    usually in its __init__: set_fields(self, {name: value, ...})
    installs that dict as the instance's attribute dict.  Assigning or
    deleting an attribute afterwards raises AttributeError.  The dict may
    also hold attributes derived from the fields; they take no part in
    comparison, hashing or printing.  Instances compare and hash by the
    fields in _compared (all of _fields when empty) and print as
    Name(field=value, ...).
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple([getattr(self, f) for f in self._compared or self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


# set_fields(r, fields) makes the dict fields the attribute dict of r,
# a Record instance, past Record.__setattr__.
set_fields = Record.__dict__["__dict__"].__set__


def _float(x) -> float:
    # float(x), with an int too large for a double taken as inf, which the
    # caller's finiteness check then rejects
    try:
        return float(x)
    except OverflowError:
        return math.inf


def arg_text(x) -> str:
    """x as an error message shows it.  An int past the interpreter's
    int-to-str digit limit shows as its sign and bit length, where
    formatting it would raise in place of the message."""
    try:
        return f"{x}"
    except ValueError:
        return f"{'-' if x < 0 else ''}<{abs(x).bit_length()}-bit int>"


class MeanInput(Record):
    """Validated pair of positive reals; the argument of every mean.

    The state every mean of the pair reads is computed once, here: hi and
    lo, the pair ordered, and the logarithmic mean L = log_mean_float(a, b)
    in _log_mean.  At a == b, and below a relative gap of NEAR_EQUAL_REL,
    every mean of the pair is that value (hi, or the midpoint), and
    _log_gap, _ln_d_hi and _identric are None.  Otherwise the pair also
    carries d = hi - lo in _d, _log_gap = ln(hi/lo), evaluated as
    log_mean_float evaluates it, with L = d / _log_gap (unlike d / L, it
    keeps its bits where L is subnormal), ln(d/hi) in _ln_d_hi, and the
    identric mean hi * exp(lo/L - 1) in _identric.  identric_mean returns
    _identric; gen_log_mean reads it at p = 0 and for orders too small to
    move it, and reads _ln_d_hi at orders p <= -1/4.  Instances compare,
    hash and print by (a, b) only.
    """

    _fields = ("a", "b")

    def __init__(self, a: float, b: float):
        fa = _float(a)
        fb = _float(b)
        if not (math.isfinite(fa) and math.isfinite(fb)):
            raise ValueError(f"mean arguments must be finite, got a={arg_text(a)}, b={arg_text(b)}")
        if fa <= 0.0 or fb <= 0.0:
            raise ValueError(f"mean arguments must be positive, got a={a}, b={b}")
        if fa >= fb:
            hi, lo = fa, fb
        else:
            hi, lo = fb, fa
        d = hi - lo
        log_gap = ln_d_hi = identric = None
        # Equal pairs first: NEAR_EQUAL_REL * hi underflows to 0 for a
        # subnormal hi, and d / log1p(d / lo) would be 0 / 0.
        if hi == lo:
            log_mean = hi
        elif d < NEAR_EQUAL_REL * hi:
            log_mean = 0.5 * lo + 0.5 * hi
        else:
            log_gap = _log_gap(hi, lo, d)
            log_mean = d / log_gap
            ln_d_hi = math.log(d / hi)
            identric = hi * math.exp(lo / log_mean - 1.0)
        set_fields(self, {"a": fa, "b": fb, "hi": hi, "lo": lo, "_d": d, "_log_mean": log_mean,
                          "_log_gap": log_gap, "_ln_d_hi": ln_d_hi, "_identric": identric})


class AgmTrace(Record):
    """The AGM's limit and the number of steps agm_iterates took to it."""

    _fields = ("limit", "iterations")

    def __init__(self, limit: float, iterations: int):
        set_fields(self, {"limit": limit, "iterations": iterations})


def agm_iterates(a: float, b: float) -> tuple[float, int]:
    """The package's one AGM loop: the limit and the number of steps.

    The loop runs from (a_0, b_0) = (max(a, b), min(a, b)) with a_k >= b_k,
    and the limit is the final arithmetic iterate.  agm, the verifier and
    k_agm all run it.  Steps run on the pair pre-scaled by 1/max(a, b), so
    the relative stopping test |x - y| <= DEFAULT_REL_TOL * x runs on a
    unit-scale pair, and the limit is scaled back.  A pair whose ratio
    lo/hi is below DBL_MIN first takes unscaled steps, in a form that
    cannot overflow, until the ratio is normal: at most two, since each
    step takes the ratio r to about 2*sqrt(r).  The loop also stops if the
    gap stops shrinking.  That exit only guards termination: at
    DEFAULT_REL_TOL it was not reached on 2,000,000 seeded pairs spanning
    the verifier band, near-equal pairs over +-300 decades, the whole
    double range and clusters of adjacent doubles.  Raises ValueError for
    an argument that is not positive and finite.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"AGM arguments must be positive and finite, got a={a}, b={b}")
    if a == b:
        return a, 0
    if a >= b:
        hi, lo = a, b
    else:
        hi, lo = b, a
    steps = 0
    y = lo / hi
    while y < DBL_MIN:
        hi, lo = 0.5 * hi + 0.5 * lo, math.sqrt(hi) * math.sqrt(lo)
        steps += 1
        y = lo / hi
    x = 1.0
    gap = x - y
    sqrt = math.sqrt
    tol = DEFAULT_REL_TOL
    while gap > tol * x:
        x, y = 0.5 * (x + y), sqrt(x * y)
        steps += 1
        new_gap = abs(x - y)
        if new_gap >= gap:
            break
        gap = new_gap
    return hi * x, steps


def log_mean_float(a: float, b: float) -> float:
    """(b - a) / (ln b - ln a) on positive floats, continuously extended to
    a at a == b.

    Evaluated as d / log1p(d / lo), which stays accurate for nearly equal
    arguments.  Below a ratio lo/hi of DBL_MIN, where d / lo may overflow,
    the log difference is used instead; it cannot cancel there, since the
    two logarithms differ by more than 708.  Below a relative gap of
    NEAR_EQUAL_REL the midpoint is returned.
    """
    if a == b:
        return a
    if a >= b:
        hi, lo = a, b
    else:
        hi, lo = b, a
    d = hi - lo
    if d < NEAR_EQUAL_REL * hi:
        return 0.5 * lo + 0.5 * hi
    return d / _log_gap(hi, lo, d)


def _log_gap(hi: float, lo: float, d: float) -> float:
    # ln(hi/lo) for hi > lo with d = hi - lo at a relative gap of at least
    # NEAR_EQUAL_REL, in the two forms log_mean_float describes.
    if lo / hi < DBL_MIN:
        return math.log(hi) - math.log(lo)
    return math.log1p(d / lo)


def log_mean(inp: MeanInput) -> float:
    """Logarithmic mean (b - a)/(ln b - ln a), equal to a at a == b."""
    return inp._log_mean


def identric_mean(inp: MeanInput) -> float:
    """Identric (exponential) mean (1/e)(b^b/a^a)^(1/(b-a)), a at a == b.

    Evaluated once, when the MeanInput is built, as hi * exp(lo/L - 1)
    through the logarithmic mean L, so large arguments cannot overflow and
    close pairs do not cancel.
    """
    if inp._log_gap is None:
        return inp._log_mean
    return inp._identric


def gen_log_mean(p: float, inp: MeanInput) -> float:
    """Generalized logarithmic mean of order p.

    [(b^(p+1) - a^(p+1)) / ((p+1)(b-a))]^(1/p) for p outside {-1, 0};
    the logarithmic mean at p = -1, the identric mean at p = 0, and a at
    a == b.  Strictly increasing in p for fixed a != b.

    With g = ln(hi/lo), d = hi - lo and q = p + 1, each form is exact and
    anchored at hi or lo: it takes exp of ln(M_p/hi) or ln(M_p/lo), never
    of q ln x, so nothing overflows and every finite p gives a value in
    [lo, hi] without a clamp: exp of a non-positive exponent times hi, or
    of a non-negative one times lo.  Where |p| g^2 < eps the order cannot
    move the identric mean, which is returned.  For p > -1/4,
    ln(M_p/hi) = (log1p(x) - log1p(p))/p with x = -(lo/d) expm1(-p g).
    For p <= -1/4, with u = |q| g and y = ln(-expm1(-u)) - ln|q| - ln(d/hi),
    ln(M_p/hi) is y/p for -1 < p <= -1/4 and (y + u)/p for -2 <= p < -1,
    and ln(M_p/lo) = (y - g)/p below p = -2.  An exponent of 700 or more,
    met only on pairs wider than about e^1400, is taken as the cube of exp
    of a third of it, so that exp neither overflows nor rounds to a
    subnormal.
    Near-equal pairs take the midpoint at every order, which is off by more
    than an ulp beyond about |p| = 1e4, where M_p moves toward hi or lo.
    """
    p = _float(p)
    if not math.isfinite(p):
        raise ValueError(f"order p must be finite, got {p}")
    g = inp._log_gap
    if g is None or p == -1.0:
        return inp._log_mean
    if abs(p) * g * g < _EPS:
        # ln M_p - ln I = p Var(ln x)/2 + O(p^2) for x uniform on [lo, hi],
        # and Var(ln x) <= g^2/4: the identric mean is within eps/8.  This
        # covers p = 0 and every p for which p g would be subnormal.
        return inp._identric
    if p > -0.25:
        # expm1(-p g) stays finite while p > -0.488, since g <= ln(DBL_MAX/5e-324)
        x = -(inp.lo / inp._d) * math.expm1(-p * g)
        return inp.hi * math.exp((math.log1p(x) - math.log1p(p)) / p)
    q = abs(p + 1.0)
    u = q * g
    y = math.log(-math.expm1(-u)) - math.log(q) - inp._ln_d_hi
    if p < -2.0:
        anchor = inp.lo
        y -= g
    else:
        anchor = inp.hi
        if p < -1.0:
            y += u
    r = y / p
    if abs(r) < 700.0:
        return anchor * math.exp(r)
    e = math.exp(r / 3.0)
    return anchor * e * e * e


def agm(inp: MeanInput) -> AgmTrace:
    """Arithmetic-geometric mean via a_{k+1} = (a_k+b_k)/2, b_{k+1} = sqrt(a_k b_k).

    Stops once |a_k - b_k| <= DEFAULT_REL_TOL * a_k; the iteration runs on
    the pair pre-scaled by 1/max(a, b), so quadratic convergence bounds
    apply uniformly.  A pair whose ratio min/max is below the smallest
    normal double first takes at most two steps on the unscaled values.
    Ratios down to 1e-8 finish within 8 steps and every pair of positive
    finite doubles within 16.  The limit and step count come from one run
    of agm_iterates.
    """
    return AgmTrace(*agm_iterates(inp.a, inp.b))


class RatioScan(Record):
    """M(1,t)/L(1,t) sampled on a strictly increasing grid in (0, 1)."""

    _fields = ("grid", "ratio", "monotone_decreasing", "min_value", "max_value")

    def __init__(self, grid: tuple[float, ...], ratio: tuple[float, ...],
                 monotone_decreasing: bool, min_value: float, max_value: float):
        set_fields(self, {"grid": grid, "ratio": ratio,
                          "monotone_decreasing": monotone_decreasing,
                          "min_value": min_value, "max_value": max_value})


def _mean_ratio(t: float) -> float:
    """M(1, t) / L(1, t) for t in (0, 1)."""
    m, _ = agm_iterates(1.0, t)
    return m / log_mean_float(1.0, t)


def scan_ratio(n_points: int, t_min: float, t_max: float) -> RatioScan:
    """M(1,t)/L(1,t) on a log-spaced grid of n_points in [t_min, t_max].

    Raises ValueError unless 0 < t_min < t_max < 1 and n_points >= 3, and
    also when the grid is not strictly increasing, as it cannot be when
    [t_min, t_max] holds fewer doubles than n_points.
    """
    if not (0.0 < t_min < t_max < 1.0):
        raise ValueError(
            f"need 0 < t_min < t_max < 1, got t_min={t_min}, t_max={t_max}"
        )
    if n_points < 3:
        raise ValueError(f"n_points must be >= 3, got {n_points}")
    log_lo = math.log(t_min)
    log_hi = math.log(t_max)
    grid = [
        math.exp(log_lo + i * (log_hi - log_lo) / (n_points - 1))
        for i in range(n_points)
    ]
    grid[0] = t_min
    grid[-1] = t_max
    for i in range(n_points - 1):
        if not grid[i] < grid[i + 1]:
            raise ValueError(
                f"the grid of {n_points} points in [{t_min!r}, {t_max!r}] is not strictly "
                f"increasing: point {i} is {grid[i]!r} and point {i + 1} is {grid[i + 1]!r}"
            )
    ratio = [_mean_ratio(t) for t in grid]
    for t, r in zip(grid, ratio):
        if not math.isfinite(r):
            raise ArithmeticError(f"ratio evaluation failed at t={t!r}: {r!r}")
    decreasing = all(ratio[i] > ratio[i + 1] for i in range(n_points - 1))
    return RatioScan(
        grid=tuple(grid),
        ratio=tuple(ratio),
        monotone_decreasing=decreasing,
        min_value=min(ratio),
        max_value=max(ratio),
    )
