"""Pure-Python scalar kernels.

Fallback backend used when the compiled extension (_kernels_cy) is absent.
Both backends implement the same functions with the same floating-point
operation order, so results agree bit for bit; tests assert this.
"""

import math
import sys

# A pair whose ratio lo/hi falls below the smallest normal double would
# pre-scale to a subnormal or zero ratio, and d / lo may overflow in the
# log mean; above the largest finite double, hi * ln(hi) has overflowed.
DBL_MIN = sys.float_info.min
DBL_MAX = sys.float_info.max


def agm_limit(a, b, rel_tol):
    """Common limit of the arithmetic-geometric iteration, plus step count.

    Inputs are pre-scaled by 1/max(a, b) so the relative stopping test
    |x - y| <= rel_tol * x runs on a unit-scale pair.  A pair whose ratio
    lo/hi is below DBL_MIN first takes unscaled steps, in a form that
    cannot overflow, until the ratio is normal: at most two, since each
    step takes the ratio r to about 2*sqrt(r).  Terminates early if the
    gap stops shrinking (roundoff floor for tolerances below ~2 eps).
    """
    if a == b:
        return a, 0
    if a >= b:
        hi, lo = a, b
    else:
        hi, lo = b, a
    n = 0
    y = lo / hi
    while y < DBL_MIN:
        hi, lo = 0.5 * hi + 0.5 * lo, math.sqrt(hi) * math.sqrt(lo)
        n += 1
        y = lo / hi
    x = 1.0
    gap = x - y
    while gap > rel_tol * x:
        nx = 0.5 * (x + y)
        ny = math.sqrt(x * y)
        x = nx
        y = ny
        n += 1
        new_gap = abs(x - y)
        if new_gap >= gap:
            gap = new_gap
            break
        gap = new_gap
    return hi * x, n


def agm_iterates(a, b, rel_tol):
    """Full AGM iterate sequence [(a_0, b_0), ..., (a_n, b_n)], a_k >= b_k.

    Same iteration and stopping rule as agm_limit, unscaled steps
    included; the final arithmetic iterate equals agm_limit's value bit
    for bit.
    """
    if a == b:
        return [(a, b)]
    if a >= b:
        hi, lo = a, b
    else:
        hi, lo = b, a
    out = [(hi, lo)]
    y = lo / hi
    while y < DBL_MIN:
        hi, lo = 0.5 * hi + 0.5 * lo, math.sqrt(hi) * math.sqrt(lo)
        out.append((hi, lo))
        y = lo / hi
    x = 1.0
    gap = x - y
    while gap > rel_tol * x:
        nx = 0.5 * (x + y)
        ny = math.sqrt(x * y)
        x = nx
        y = ny
        out.append((hi * x, hi * y))
        new_gap = abs(x - y)
        if new_gap >= gap:
            break
        gap = new_gap
    return out


def log_mean(a, b):
    """(b - a) / (ln b - ln a), continuously extended to a at a == b.

    Evaluated as d / log1p(d / lo), which stays accurate for nearly equal
    arguments.  Below a ratio lo/hi of DBL_MIN, where d / lo may overflow,
    the log difference is used instead; it cannot cancel there, since the
    two logarithms differ by more than 708.
    """
    if a == b:
        return a
    if a >= b:
        hi, lo = a, b
    else:
        hi, lo = b, a
    d = hi - lo
    if lo / hi < DBL_MIN:
        return d / (math.log(hi) - math.log(lo))
    return d / math.log1p(d / lo)


def identric_mean(a, b):
    """(1/e) * (b^b / a^a)^(1/(b-a)) in log space; a at a == b.

    Below a relative gap of 1e-9 the midpoint is returned: its O((d/hi)^2)
    error is smaller than the cancellation error of the direct quotient.
    Where hi * ln(hi) overflows (hi above about 2.5e305) the exponent is
    regrouped as ln(hi) + lo * (ln(hi) - ln(lo)) / d - 1.
    """
    if a == b:
        return a
    if a >= b:
        hi, lo = a, b
    else:
        hi, lo = b, a
    d = hi - lo
    if d < 1e-9 * hi:
        return 0.5 * (lo + hi)
    lh = math.log(hi)
    hl = hi * lh
    if hl > DBL_MAX:
        return math.exp(lh + lo * (lh - math.log(lo)) / d - 1.0)
    return math.exp((hl - lo * math.log(lo)) / d - 1.0)


def k_series_sum(tsq, max_terms, rel_cutoff):
    """Partial sum of sum_i [C(2i,i)/4^i]^2 * tsq^i with its truncation data.

    Term coefficients follow the exact ratio ((2i-1)/(2i))^2.  Returns
    (partial_sum, terms_used, first_omitted_term, converged); converged is
    False when max_terms terms were used before the next term dropped below
    rel_cutoff relative to the partial sum.
    """
    s = 1.0
    coeff = 1.0
    tpow = 1.0
    terms = 1
    while True:
        i = terms
        r = (2.0 * i - 1.0) / (2.0 * i)
        coeff = coeff * (r * r)
        tpow = tpow * tsq
        term = coeff * tpow
        if term < rel_cutoff * s:
            return s, terms, term, True
        if terms >= max_terms:
            return s, terms, term, False
        s = s + term
        terms += 1

