"""Independent references at 40 significant digits (mpmath).

Computed in the benchmark process, outside every timed window, from the
exact binary values of the generated double inputs.
"""

import mpmath

from workloads import P_GRID

DIGITS = 40


def elliptic_reference(kind, x, y):
    """K as pi / (2 agm(1, sqrt(1 - t^2))) or pi / (2 agm(a, b))."""
    with mpmath.workdps(DIGITS):
        if kind == "t":
            t = mpmath.mpf(x)
            a, b = mpmath.mpf(1), mpmath.sqrt(1 - t * t)
        else:
            a, b = mpmath.mpf(x), mpmath.mpf(y)
        return float(mpmath.pi / (2 * mpmath.agm(a, b)))


def means_reference(a, b):
    """Reference values in workloads.MEAN_SLOTS order."""
    with mpmath.workdps(DIGITS):
        lo, hi = sorted((mpmath.mpf(a), mpmath.mpf(b)))
        if lo == hi:
            return [float(lo)] * (len(P_GRID) + 3)
        d = hi - lo
        log_lo, log_hi = mpmath.log(lo), mpmath.log(hi)
        lm = d / (log_hi - log_lo)
        im = mpmath.exp((hi * log_hi - lo * log_lo) / d - 1)
        out = [lm, im]
        for p in P_GRID:
            if p == -1.0:
                out.append(lm)
            elif p == 0.0:
                out.append(im)
            else:
                q = mpmath.mpf(p) + 1
                out.append(((hi**q - lo**q) / (q * d)) ** (1 / mpmath.mpf(p)))
        out.append(mpmath.agm(lo, hi))
        return [float(v) for v in out]
