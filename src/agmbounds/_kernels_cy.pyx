# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled scalar kernels.

Cython twin of _kernels_py with identical floating-point operation order;
compiled with -ffp-contract=off so results match the pure backend bit for
bit.
"""

from libc.float cimport DBL_MAX, DBL_MIN
from libc.math cimport exp, fabs, log, log1p, sqrt


def agm_limit(double a, double b, double rel_tol):
    """Common limit of the arithmetic-geometric iteration, plus step count."""
    cdef double hi, lo, x, y, nx, ny, gap, new_gap
    cdef int n
    if a == b:
        return a, 0
    if a >= b:
        hi = a
        lo = b
    else:
        hi = b
        lo = a
    n = 0
    y = lo / hi
    while y < DBL_MIN:
        nx = 0.5 * hi + 0.5 * lo
        ny = sqrt(hi) * sqrt(lo)
        hi = nx
        lo = ny
        n += 1
        y = lo / hi
    x = 1.0
    gap = x - y
    while gap > rel_tol * x:
        nx = 0.5 * (x + y)
        ny = sqrt(x * y)
        x = nx
        y = ny
        n += 1
        new_gap = fabs(x - y)
        if new_gap >= gap:
            gap = new_gap
            break
        gap = new_gap
    return hi * x, n


def agm_iterates(double a, double b, double rel_tol):
    """Full AGM iterate sequence [(a_0, b_0), ..., (a_n, b_n)], a_k >= b_k."""
    cdef double hi, lo, x, y, nx, ny, gap, new_gap
    if a == b:
        return [(a, b)]
    if a >= b:
        hi = a
        lo = b
    else:
        hi = b
        lo = a
    out = [(hi, lo)]
    y = lo / hi
    while y < DBL_MIN:
        nx = 0.5 * hi + 0.5 * lo
        ny = sqrt(hi) * sqrt(lo)
        hi = nx
        lo = ny
        out.append((hi, lo))
        y = lo / hi
    x = 1.0
    gap = x - y
    while gap > rel_tol * x:
        nx = 0.5 * (x + y)
        ny = sqrt(x * y)
        x = nx
        y = ny
        out.append((hi * x, hi * y))
        new_gap = fabs(x - y)
        if new_gap >= gap:
            break
        gap = new_gap
    return out


def log_mean(double a, double b):
    """(b - a) / (ln b - ln a), continuously extended to a at a == b."""
    cdef double hi, lo, d
    if a == b:
        return a
    if a >= b:
        hi = a
        lo = b
    else:
        hi = b
        lo = a
    d = hi - lo
    if lo / hi < DBL_MIN:
        return d / (log(hi) - log(lo))
    return d / log1p(d / lo)


def identric_mean(double a, double b):
    """(1/e) * (b^b / a^a)^(1/(b-a)) in log space; a at a == b."""
    cdef double hi, lo, d, lh, hl
    if a == b:
        return a
    if a >= b:
        hi = a
        lo = b
    else:
        hi = b
        lo = a
    d = hi - lo
    if d < 1e-9 * hi:
        return 0.5 * (lo + hi)
    lh = log(hi)
    hl = hi * lh
    if hl > DBL_MAX:
        return exp(lh + lo * (lh - log(lo)) / d - 1.0)
    return exp((hl - lo * log(lo)) / d - 1.0)


def k_series_sum(double tsq, int max_terms, double rel_cutoff):
    """Partial sum of sum_i [C(2i,i)/4^i]^2 * tsq^i with its truncation data."""
    cdef double s = 1.0
    cdef double coeff = 1.0
    cdef double tpow = 1.0
    cdef double r, term
    cdef int terms = 1
    cdef int i
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

