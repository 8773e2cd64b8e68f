"""Bivariate means of positive reals.

Logarithmic, identric (exponential), generalized logarithmic of order p,
and the arithmetic-geometric mean computed by the AGM iteration.  All
operations are pure functions; every mean is symmetric in its arguments
and homogeneous of degree one.

A MeanInput evaluates every per-pair transcendental once, when it is
built: ln(hi/lo), the logarithmic mean L, ln((hi - lo)/hi) and the
identric mean.  The means read that state, so each order of gen_log_mean
evaluates only what depends on p: an algebraic closed form at
p = -2, -1/2, 1/2, 1 and 2, which needs no transcendental call, and at
every other order a form anchored at hi or lo that lands in [lo, hi]
without a clamp.  Two kernels work on
plain floats, for the verifier's and the elliptic routes' hot loops:
log_mean_float, the logarithmic mean, and agm_iterates, the one AGM
loop, which returns the limit and step count.  agm runs it once and
returns the two as an AgmTrace.

scan_ratio samples M(1,t)/L(1,t) from those two kernels on a log-spaced
grid and returns the grid and the ratios, so the scan command and the
verifier's ratio checks need nothing beyond this module.

_json_dumps is the package's one JSON writer: it writes the text of
json.dumps(value, sort_keys=True) itself, and loads json only for a
value whose strings need escaping or whose floats are not finite.
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
    also hold other attributes, such as values derived from the fields;
    they take no part in comparison, hashing or printing.  Instances compare and hash by their
    fields and print as Name(field=value, ...).
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple([getattr(self, f) for f in self._fields])

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
    # caller's finiteness check then rejects.  The hot callers pass an
    # argument whose class is float through without this call.
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
        fa = a if a.__class__ is float else _float(a)
        fb = b if b.__class__ is float else _float(b)
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

    With g = ln(hi/lo), d = hi - lo and q = p + 1: where |p| g^2 < eps
    the order cannot move the identric mean, which is returned.  Five
    orders then take algebraic closed forms, with r = lo/hi and
    h = sqrt(r)/(1 + sqrt(r)): the arithmetic mean hi/2 + lo/2 at p = 1,
    the geometric mean sqrt(hi) sqrt(lo) at p = -2, the average of those
    two, hi/4 + lo/4 + sqrt(hi) sqrt(lo)/2, at p = -1/2,
    hi sqrt((1 + r(1 + r))/3) at p = 2 and hi (4/9)(1 + r + h^2) at
    p = 1/2.  Their terms are positive and none overflows.  The p = -1/2
    mean is that sum, not the square of (sqrt(hi) + sqrt(lo))/2, which
    doubles the rounding error of its base.  Every other order takes a
    form that is exact and anchored at hi or lo: it takes exp of
    ln(M_p/hi) or ln(M_p/lo), never of q ln x, so nothing overflows and
    every finite p gives a value in [lo, hi] without a clamp: exp of a
    non-positive exponent times hi, or of a non-negative one times lo.
    For p > -1/4,
    ln(M_p/hi) = (log1p(x) - log1p(p))/p with x = -(lo/d) expm1(-p g).
    For p <= -1/4, with u = |q| g and y = ln(-expm1(-u)) - ln|q| - ln(d/hi),
    ln(M_p/hi) is y/p for -1 < p <= -1/4 and (y + u)/p for -2 < p < -1,
    and ln(M_p/lo) = (y - g)/p below p = -2.  An exponent of 700 or more,
    met only on pairs wider than about e^1400, is taken as the cube of exp
    of a third of it, so that exp neither overflows nor rounds to a
    subnormal.
    Near-equal pairs take the midpoint at every order, which is off by more
    than an ulp beyond about |p| = 1e4, where M_p moves toward hi or lo.
    """
    if p.__class__ is not float:
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
        if p == 1.0:
            return 0.5 * inp.hi + 0.5 * inp.lo
        if p == 2.0:
            r = inp.lo / inp.hi
            return inp.hi * math.sqrt((1.0 + r * (1.0 + r)) / 3.0)
        if p == 0.5:
            r = inp.lo / inp.hi
            s = math.sqrt(r)
            h = s / (1.0 + s)
            return inp.hi * (4.0 * (1.0 + (r + h * h)) / 9.0)
        # expm1(-p g) stays finite while p > -0.488, since g <= ln(DBL_MAX/5e-324)
        x = -(inp.lo / inp._d) * math.expm1(-p * g)
        return inp.hi * math.exp((math.log1p(x) - math.log1p(p)) / p)
    if p == -2.0:
        return math.sqrt(inp.hi) * math.sqrt(inp.lo)
    if p == -0.5:
        return 0.25 * inp.hi + 0.25 * inp.lo + 0.5 * math.sqrt(inp.hi) * math.sqrt(inp.lo)
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


def _mean_ratio(t: float) -> float:
    """M(1, t) / L(1, t) for t in (0, 1)."""
    m, _ = agm_iterates(1.0, t)
    return m / log_mean_float(1.0, t)


def scan_ratio(n_points: int, t_min: float, t_max: float) -> tuple[list[float], list[float]]:
    """(grid, ratio): M(1,t)/L(1,t) on a log-spaced grid of n_points in
    [t_min, t_max].

    Raises ValueError unless 0 < t_min < t_max < 1 and n_points >= 3, and
    also when the grid is not strictly increasing, as it cannot be when
    [t_min, t_max] holds fewer doubles than n_points.  Raises
    ArithmeticError, naming t, at the first ratio that is not finite.
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
    return grid, ratio


def _json_text(value) -> str | None:
    # value as json.dumps(value, sort_keys=True) writes it, for a str that
    # needs no escape, None, an int, a finite float, or a list of those or
    # a dict of those under str keys, nested; None for anything else
    cls = value.__class__
    if cls is str:
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        return None
    if value is None:
        return "null"
    if cls is int or (cls is float and math.isfinite(value)):
        return repr(value)
    if cls is list:
        cells = [_json_text(item) for item in value]
        return None if None in cells else "[" + ", ".join(cells) + "]"
    if isinstance(value, dict) and all(key.__class__ is str for key in value):
        cells = []
        for key in sorted(value):
            key_text, value_text = _json_text(key), _json_text(value[key])
            if key_text is None or value_text is None:
                return None
            cells.append(f"{key_text}: {value_text}")
        return "{" + ", ".join(cells) + "}"
    return None


def _json_dumps(value) -> str:
    """json.dumps(value, sort_keys=True), the package's one JSON writer.

    _json_text writes the text itself; a value it cannot write (a string
    that needs escaping, a float that is not finite, a bool) goes whole
    through json.dumps, so json loads only for such a value."""
    text = _json_text(value)
    if text is None:
        import json

        text = json.dumps(value, sort_keys=True)
    return text
