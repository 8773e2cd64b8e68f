"""Verification suite: exact and floating checks of every claimed property.

Each check returns a VerificationReport; run_all executes the whole claim
list at a profile-dependent depth.  Exact claims (coefficient identities,
ratio monotonicity, the sign change of S_k with the paper's series-ratio
inequality) are decided in integer arithmetic with zero tolerance;
floating claims carry explicit named tolerances and a witness for the
first failing input; k-three-way and agm-k-reciprocal, the claims on
Gauss's relation 1/M(a,b) = (2/pi) K(a,b), share one empirical relative
bound, K_REL.  The paper's double inequality L < M < (pi/2) L is
sampled, with zero slack, by mean-ordering, on the pairs where it also
checks L < M < I, and by ratio-scan on the t grid of M(1,t)/L(1,t).
ratio-scan, a float cross-check of the program's M and L, also states
how close the ratio comes to both bounds: past pi/2 - 0.15 at the grid's
first t and within 0.01 of 1 at its last.  Every floating pass condition
is written positively, as dev <= tol or one chained <, so a NaN from any
route, mean or order fails its claim.  Identical seeds and profiles
reproduce byte-identical report lists.

All three exact claims read the coefficient rows (k, a, b, h, g, s)
that coefficients.table_rows streams, collected once per run; row k
holds index k, each value as a (numerator, denominator) pair of ints.
coeff-identities proves by certificates that the paper's sums meet, for
every k, relations that fix each row from the one before it, and checks
in one pass that the rows meet them from the same base, so by induction
every row holds the paper's values; the pass also checks each row's
index and shape, and, by one gcd per cell, that every cell is in lowest
terms with a positive denominator.  The exact claims compare rationals
by cross-multiplication, so no claim imports fractions.  A witness that
names a computed rational reduces it, on the failure path only, and
prints it as a Fraction prints: n where the denominator is 1, else n/d.
Each row check raises ValueError on fewer than the three rows of
table_rows(2), and s-sign-change, which names S_11, on fewer than the
twelve of table_rows(11); a zero a_k or b_k fails coeff-ratio-monotone,
with k and the cell as witness.  VerificationReport is a plain immutable
class on means.Record, and the ratio scan lives in means, so a verify
process needs no class generation at import.  reports_to_json writes the
text of json.dumps(..., sort_keys=True) through means._json_dumps, which
imports json only for a string that needs escaping, so a passing verify
process loads no json in any format.  The sampled checks draw each pair
with rng.random() in the arithmetic of rng.uniform, and pass floats,
which the means and the K routes take without conversion.
"""

import math
import random
import time
from collections.abc import Callable
from itertools import product

from agmbounds import coefficients as coeffs
from agmbounds import elliptic, means

HALF_PI = math.pi / 2.0

# The relative bound of both K claims, 64 eps = 2^-46, recorded in each
# report.  It is empirical, not derived: for the series' recursive sum of
# up to 315 positive terms, Higham's gamma_314 (2002, ch. 3) alone allows
# 157 eps, before the rounding of the terms, of up to 16 AGM steps and of
# the quadrature's nodes, which math.fsum adds exactly.  Over seeds 0-999
# the routes differ by at most 12.4 eps of the AGM value and agree bit for
# bit at NEAR_SINGULAR_T, and M (2/pi) K is within 14.5 eps of 1: a
# margin of 4.4.
K_REL = 2.0 ** -46
NEAR_SINGULAR_T = 0.999999  # the last modulus of check_k_consistency

# The t range of check_ratio_scan's grid.
RATIO_SCAN_T_MIN = 1e-8
RATIO_SCAN_T_MAX = 1.0 - 1e-4
# How close the scan's first and last ratios must come to pi/2 and 1:
# M/L converges to its limits logarithmically, so only loose margins are
# certifiable at double precision.
SHARPNESS_LOW_MARGIN = 0.15
SHARPNESS_HIGH_MARGIN = 0.01

# Sampling: log-uniform over [10^-3, 10^3] per coordinate, rejecting
# pairs closer than MIN_REL_GAP: below a relative gap of about 1e-7 the
# seven means of the p chain differ by O(gap^2), under one ulp, so no
# chain of doubles can be strictly increasing.
SAMPLE_LOG_RANGE = 3.0
MIN_REL_GAP = 1e-6

# Random moduli per check_k_consistency run, at every profile.
K_CONSISTENCY_MODULI = 100

# Columns of a coefficients.table_rows row (k, a, b, h, g, s), and each
# sequence's name, column and the first k at which it is defined.
_A, _B, _H, _G, _S = range(1, 6)
_FIRST_INDEX = (("a", _A, 1), ("b", _B, 0), ("h", _H, 1), ("g", _G, 1), ("s", _S, 2))

# The orders of mean-ordering's p chain; the second and fourth, p = -1
# and p = 0, give the logarithmic and identric means.
P_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

PROFILES = {
    "quick": {"k_max": 50, "samples": 1000, "recip_samples": 250, "scan_points": 100},
    "full": {"k_max": 500, "samples": 10000, "recip_samples": 1000, "scan_points": 200},
}

DEFAULT_SEED = 42


class Tolerances(dict):
    """Read-only dict of a report's named tolerances.

    It prints, compares and encodes to JSON as the dict it was built from,
    and hashes by its sorted items; every method that would change it
    raises TypeError.
    """

    def _read_only(self, *args, **kwargs):
        raise TypeError("report tolerances are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self):
        return hash(tuple(sorted(self.items())))

    def __reduce__(self):
        return self.__class__, (dict(self),)


class VerificationReport(means.Record):
    """Outcome of one claim: pass/fail, depth, tolerances, failure witness.

    status is "pass" or "fail"; witness is None on a pass.  tolerances is
    stored as a Tolerances, so a report is immutable and hashable.
    """

    _fields = ("claim_id", "statement", "status", "checked_points", "tolerances", "witness")

    def __init__(self, claim_id: str, statement: str, status: str, checked_points: int,
                 tolerances: dict, witness: str | None = None):
        means.set_fields(self, {"claim_id": claim_id, "statement": statement, "status": status,
                                "checked_points": checked_points,
                                "tolerances": Tolerances(tolerances), "witness": witness})


def _report(claim_id, statement, checked, tolerances, witness=None):
    return VerificationReport(
        claim_id=claim_id,
        statement=statement,
        status="pass" if witness is None else "fail",
        checked_points=checked,
        tolerances=tolerances,
        witness=witness,
    )


def _check_count(n: int, name: str) -> None:
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")


def _sample_pair(rng: random.Random) -> tuple[float, float]:
    # each exponent is -R + 2R u, u = rng.random(), which is exactly what
    # rng.uniform(-R, R) computes, without its frame
    while True:
        a = 10.0 ** (-SAMPLE_LOG_RANGE + 2.0 * SAMPLE_LOG_RANGE * rng.random())
        b = 10.0 ** (-SAMPLE_LOG_RANGE + 2.0 * SAMPLE_LOG_RANGE * rng.random())
        if abs(a - b) >= MIN_REL_GAP * max(a, b):
            return a, b


# ---------------------------------------------------------------------------
# exact claims

def _check_rows(rows, k_least: int = 2) -> int:
    # the least table_rows gives is rows for k = 0, 1, 2
    if len(rows) <= k_least:
        raise ValueError(f"need the coefficient rows for k = 0..k_max with k_max >= {k_least}, "
                         f"got {len(rows)} rows")
    return len(rows) - 1


def _cell_str(cell) -> str:
    return f"{cell[0]}/{cell[1]}"


def _rational_str(num: int, den: int) -> str:
    # num/den, den > 0, as str(Fraction(num, den)) prints it
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return f"{num}" if den == 1 else f"{num}/{den}"


# Certificates that the paper's sums meet, for every k, the relations that
# coeff-identities checks on the rows (Petkovsek, Wilf & Zeilberger, A = B,
# ch. 5-7).  With w_j = C(2j,j)/4^j, the i-th terms of h(k), g(k) and a_k's
# sum are w_{i-1} times 1/(4i), 1/(4(k+1-i)) and 1/(4i(k+1-i)), the last by
# the Wallis step w_i/w_{i-1} = 2i(2i-1)/(4i^2) = (2i-1)/(2i).  h telescopes
# to (1 - w_k)/2: h(k) - h(k-1) = (w_{k-1} - w_k) _H_STEP.
_H_STEP = (1, 2)
# a by partial fractions: 1/(i(k+1-i)) = _A_PART (1/i + 1/(k+1-i))/(k+1).
_A_PART = (1, 1)
# g by an index shift: 2(k+1)/(k+1-j) = _G_SPLIT + 2j/(k+1-j) and
# (2k+1)/(k-j) = _G_SPLIT + (2j+1)/(k-j), whose remainders cancel by the
# Wallis step, leave 2(k+1) g(k+1) - (2k+1) g(k) = w_k _G_STEP.
_G_SPLIT = 2
_G_STEP = (1, 2)
# (name, variables, n, sides): sides(*x) gives the two sides of an identity
# of integer polynomials of degree below n in each variable, so agreement
# on the grid {1..n}^len(variables) proves it for every x.
_CERTIFICATES = (
    ("Wallis step", "j", 4, lambda j: (2 * j * 2 * j * (2 * j - 1), (2 * j - 1) * 4 * j * j)),
    ("h step", "k", 2,
     lambda k: (_H_STEP[1] * 2 * k, _H_STEP[0] * 4 * k * (2 * k - (2 * k - 1)))),
    ("a partial fractions", "ki", 2,
     lambda k, i: (_A_PART[1] * (k + 1), _A_PART[0] * ((k + 1 - i) + i))),
    ("g index shift", "kj", 2,
     lambda k, j: ((2 * (k + 1) - _G_SPLIT * (k + 1 - j), 2 * k + 1 - _G_SPLIT * (k - j)),
                   (2 * j, 2 * j + 1))),
    ("g step", "", 1, lambda: (_G_SPLIT * _G_STEP[1], 4 * _G_STEP[0])),
)


def _check_certificates() -> tuple[int, str | None]:
    checked = 0
    for name, variables, n, sides in _CERTIFICATES:
        for x in product(range(1, n + 1), repeat=len(variables)):
            checked += 1
            lhs, rhs = sides(*x)
            if lhs != rhs:
                at = "".join(f" {v}={i}" for v, i in zip(variables, x))
                return checked, f"certificate {name}{at}: {lhs} != {rhs}"
    return checked, None


def check_coefficient_identities(rows) -> VerificationReport:
    """The paper's sums for a_k, h(k), g(k) and the table rows meet the
    same relations from the same base, so by induction on k each row holds
    the paper's values, for k <= len(rows) - 1.

    The certificates, checked once per call, prove the relations for the
    sums, which nothing evaluates.  One pass over the rows then checks
    each row's index and shape, each cell's lowest terms by one gcd, and
    the relations of the statement, by cross-multiplication, with w_(k-1)
    and g(k-1) read from the row before.  Given row k-1, the relations fix
    every cell of row k.
    """
    k_max = _check_rows(rows)
    statement = (
        "certificates prove the summation forms of a_k, h(k), g(k) meet the relations below "
        "for every k; row k holds index k and a cell exactly where its sequence is defined, "
        "each in lowest terms with a positive denominator; b_0 = 1, and with w_k = 1 - 2h(k), "
        "w_0 = 1 and g(0) = 0 each row k >= 1 satisfies 2k w_k = (2k-1) w_(k-1), "
        "b_k = w_k^2, 2(k+1)a_k = 1 + w_k - 2g(k), 2k g(k) - (2k-1)g(k-1) = w_(k-1)/2 and "
        "S_k = 2(k+1)^2/(k(2k+1)) + 1 - 2g(k)/w_k, so by induction every row holds the "
        "paper's values"
    )
    checked, witness = _check_certificates()
    sn, sd = _G_STEP
    # w_(k-1) = pwn/phd and g(k-1) = pgn/pgd, from w_0 = 1 and g(0) = 0
    pwn, phd, pgn, pgd = 1, 1, 0, 1
    for k in range(k_max + 1) if witness is None else ():
        row = rows[k]
        checked += 1
        witness = _row_form(k, row)
        if witness is not None:
            break
        # (name, left, right), two rationals with positive denominators
        if k == 0:
            cases = [("b_0 = 1", row[_B], (1, 1))]
        else:
            (an, ad), (bn, bd), (hn, hd), (gn, gd), s = row[1:]
            wn, kk = hd - 2 * hn, k * (2 * k + 1)  # w = wn/hd
            cases = [("Wallis step", (2 * k * wn, hd), ((2 * k - 1) * pwn, phd)),
                     ("b = w^2", (bn, bd), (wn * wn, hd * hd)),
                     ("2(k+1)a = 1 + w - 2g", (2 * (k + 1) * an, ad),
                      ((hd + wn) * gd - 2 * gn * hd, hd * gd)),
                     ("g recurrence", (2 * k * gn * pgd - (2 * k - 1) * pgn * gd, gd * pgd),
                      (sn * pwn, sd * phd))]
            if k >= 2:
                cases.append(("S w = (2(k+1)^2/(k(2k+1)) + 1) w - 2g", (s[0] * wn, s[1] * hd),
                              ((2 * (k + 1) ** 2 + kk) * wn * gd - 2 * kk * gn * hd,
                               kk * hd * gd)))
            pwn, phd, pgn, pgd = wn, hd, gn, gd
        for name, (ln, ld), (rn, rd) in cases:
            checked += 1
            if ln * rd != rn * ld:
                witness = f"k={k}: {name}: {_rational_str(ln, ld)} != {_rational_str(rn, rd)}"
                break
        if witness is not None:
            break
    return _report("coeff-identities", statement, checked, {"exact": 0.0}, witness)


def _row_form(k: int, row) -> str | None:
    # the witness against row k's index, its shape (a cell exactly where
    # its sequence is defined) or a cell that is not in lowest terms with
    # a positive denominator, by one gcd per cell; None if it has none
    if row[0] != k:
        return f"k={k}: row index {row[0]}"
    for name, col, first in _FIRST_INDEX:
        cell = row[col]
        if (cell is None) != (k < first):
            return f"k={k}: {name} cell {cell!r} where {name}_k is {'un' * (k < first)}defined"
        if cell is not None and not (cell[1] > 0 and math.gcd(*cell) == 1):
            return f"k={k}: {name} cell not reduced over d > 0: {_cell_str(cell)}"
    return None


def _ratio(upper, lower) -> tuple[int, int]:
    # upper/lower for cells (n, d) with d > 0 and n != 0 in lower, as a
    # pair with a positive denominator
    (n1, d1), (n0, d0) = upper, lower
    return (n1 * d0, d1 * n0) if n0 > 0 else (-n1 * d0, -d1 * n0)


def check_coefficient_monotonicity(rows) -> VerificationReport:
    """a_k/b_k strictly increasing for 1 <= k <= len(rows) - 1, exactly.

    The ratios of the (numerator, denominator) cells are compared by
    cross-multiplication, with no gcd.  A zero a_k or b_k has no ratio, so
    it fails the claim, naming k and the cell."""
    k_max = _check_rows(rows)
    statement = (
        "a_{k+1}/a_k > ((2k+1)/(2k+2))^2 = b_{k+1}/b_k exactly, i.e. the "
        "coefficient ratio a_k/b_k is strictly increasing"
    )
    witness = None
    checked = 0
    for k in range(1, k_max):
        checked += 1
        for name, col in (("b", _B), ("a", _A)):
            if rows[k][col][0] == 0:
                witness = f"k={k}: ratio to the zero cell {name}_{k} = {_cell_str(rows[k][col])}"
                break
        if witness is not None:
            break
        an, ad = _ratio(rows[k + 1][_A], rows[k][_A])
        bn, bd = _ratio(rows[k + 1][_B], rows[k][_B])
        if bn * (2 * k + 2) ** 2 != bd * (2 * k + 1) ** 2:
            witness = f"k={k}: b ratio {_rational_str(bn, bd)} is not ((2k+1)/(2k+2))^2"
            break
        if not an * bd > bn * ad:
            witness = (f"k={k}: a ratio {_rational_str(an, ad)} <= "
                       f"b ratio {_rational_str(bn, bd)}")
            break
    return _report(
        "coeff-ratio-monotone", statement, checked, {"exact": 0.0}, witness
    )


def check_sign_change(rows) -> VerificationReport:
    """S_k strictly decreasing on [2, k_max], k_max = len(rows) - 1, with
    its single sign change located between k = 10 and k = 11, and the
    rearranged coefficient-ratio inequality at each k, exactly.

    With T_k = sum_{i=2}^{k} 1/(2i-1) and w_k = C(2k,k)/4^k, the paper's
    inequality is [T_{k+1} - (2k+1)(k+2)/(2(k+1)^2) T_k] w_{k+1}
    < 1 - (2k+1)^2 (k+2)/(4(k+1)^3).  Row k gives T_k = 2(k+1)^2/(k(2k+1))
    - S_k and w_k = 1 - 2h(k), so its sides are, identically in the cells,
    k(2k+1) w_k S_k / (4(k+1)^3) and (3k+2)/(4(k+1)^3), compared by
    cross-multiplication.  Fewer rows than table_rows(11) raise ValueError."""
    k_max = _check_rows(rows, 11)
    statement = (
        "S_k is strictly decreasing with exactly one sign change: "
        "S_10 > 0 > S_11 (so S_k < 0 iff k >= 11), and the rearranged "
        "coefficient-ratio inequality k(2k+1) w_k S_k < 3k+2, w_k = C(2k,k)/4^k, "
        "holds exactly for every k in [2, k_max]"
    )
    witness = None
    checked = 0
    prev = None
    first_negative = None
    for k in range(2, k_max + 1):
        s = rows[k][_S]
        (sn, sd), (hn, hd) = s, rows[k][_H]
        checked += 1
        if prev is not None and not sn * prev[1] < prev[0] * sd:
            witness = f"k={k}: S_k={_cell_str(s)} is not below S_(k-1)={_cell_str(prev)}"
            break
        # k(2k+1) w_k S_k < 3k+2, with w_k = (hd - 2hn)/hd and S_k = sn/sd
        lhs = k * (2 * k + 1) * sn * (hd - 2 * hn)
        if not lhs < (3 * k + 2) * sd * hd:
            den = 4 * (k + 1) ** 3
            witness = (f"k={k}: {_rational_str(lhs, den * sd * hd)} >= "
                       f"{_rational_str(3 * k + 2, den)}")
            break
        if sn < 0 and first_negative is None:
            first_negative = k
        prev = s
    if witness is None and first_negative != 11:
        witness = f"first negative S_k at k={first_negative}, expected 11"
    return _report("s-sign-change", statement, checked, {"exact": 0.0}, witness)


# ---------------------------------------------------------------------------
# floating claims

def check_k_consistency(seed: int) -> VerificationReport:
    """Pairwise agreement within K_REL of the AGM value, on
    K_CONSISTENCY_MODULI random moduli in [0, SERIES_T_MAX] and then
    NEAR_SINGULAR_T, of the K routes that take each: the series only up
    to SERIES_T_MAX, the AGM and the quadrature everywhere."""
    statement = (
        "series (t <= 0.95), AGM and quadrature values of K agree pairwise within "
        "64 eps of the AGM value, an empirical bound, on 100 random t in [0, 0.95] "
        "and at t = 0.999999"
    )
    tolerances = {"pairwise_rel": K_REL, "series_max_modulus": elliptic.SERIES_T_MAX}
    rng = random.Random(seed)
    moduli = [rng.uniform(0.0, elliptic.SERIES_T_MAX) for _ in range(K_CONSISTENCY_MODULI)]
    moduli.append(NEAR_SINGULAR_T)
    witness = None
    checked = 0
    for t in moduli:
        m = elliptic.Modulus(t)
        vs = elliptic.k_series(m).value if t <= elliptic.SERIES_T_MAX else None
        va = elliptic.k_agm(m).value
        vq = elliptic.k_quadrature(1.0, m.complement()).value
        tol = K_REL * va
        checked += 1
        # each pair within tol, written positively: a NaN fails every
        # comparison it enters, and a NaN AGM value makes tol NaN
        if not (abs(va - vq) <= tol
                and (vs is None or (abs(vs - va) <= tol and abs(vs - vq) <= tol))):
            values = (va, vq) if vs is None else (vs, va, vq)
            names = ("series", "agm", "quadrature")[-len(values):]
            dev = math.nan if math.isnan(sum(values)) else (max(values) - min(values)) / va
            witness = (f"t={t!r}: " + " ".join(f"{n}={v!r}" for n, v in zip(names, values))
                       + f" max pairwise rel dev {dev!r} > {K_REL}")
            break
    return _report("k-three-way", statement, checked, tolerances, witness)


def check_reciprocal(n_samples: int, seed: int) -> VerificationReport:
    """|M(a,b) * (2/pi) * K(a,b) - 1| <= K_REL over log-uniform pairs.

    K route per pair, on its modulus from modulus_from_pair: series up to
    SERIES_T_MAX, otherwise quadrature on (1, lo/hi).  Neither route calls
    the AGM, so the relation is checked between independent M and K.
    """
    _check_count(n_samples, "n_samples")
    statement = (
        "the AGM limit and K satisfy M(a,b) * (2/pi) * K(a,b) = 1 within 64 eps, "
        "an empirical bound, over log-uniform pairs spanning six orders of magnitude"
    )
    tolerances = {"rel": K_REL, "series_max_modulus": elliptic.SERIES_T_MAX}
    rng = random.Random(seed)
    witness = None
    checked = 0
    for _ in range(n_samples):
        a, b = _sample_pair(rng)
        m_agm, _ = means.agm_iterates(a, b)
        mod, scale = elliptic.modulus_from_pair(a, b)
        if mod.t <= elliptic.SERIES_T_MAX:
            k_val = elliptic.k_series(mod).value / scale
            route = "series"
        else:
            k_val = elliptic.k_quadrature(1.0, mod.complement()).value / scale
            route = "quadrature"
        resid = abs(m_agm * (2.0 / math.pi) * k_val - 1.0)
        checked += 1
        if not resid <= K_REL:
            witness = f"a={a!r} b={b!r} ({route}): |M*(2/pi)*K - 1| = {resid!r} > {K_REL}"
            break
    return _report("agm-k-reciprocal", statement, checked, tolerances, witness)


def check_ratio_scan(n_points: int) -> VerificationReport:
    """Strict decrease of M(1,t)/L(1,t) along a grid of n_points in
    [RATIO_SCAN_T_MIN, RATIO_SCAN_T_MAX], all values inside the open
    interval (1, pi/2), the first above pi/2 - SHARPNESS_LOW_MARGIN and
    the last below 1 + SHARPNESS_HIGH_MARGIN: the assertable form of the
    sharp bounds, as a float cross-check of the program's M and L.

    scan_ratio pins the grid's ends to RATIO_SCAN_T_MIN and
    RATIO_SCAN_T_MAX, so each margin reads the ratio at one fixed t.  A
    ratio that is not finite fails the claim, with scan_ratio's message as
    witness."""
    statement = (
        "float cross-check of the program's M and L: M(1,t)/L(1,t) is strictly "
        "decreasing on a log-spaced grid of t in [1e-8, 1 - 1e-4], every value "
        "lies strictly inside (1, pi/2), and the ratio climbs past pi/2 - 0.15 "
        "at t = 1e-8 and drops within 0.01 of 1 at t = 1 - 1e-4"
    )
    tolerances = {
        "lower_bound": 1.0,
        "upper_bound": HALF_PI,
        "low_margin": SHARPNESS_LOW_MARGIN,
        "high_margin": SHARPNESS_HIGH_MARGIN,
    }
    try:
        grid, ratio = means.scan_ratio(n_points, RATIO_SCAN_T_MIN, RATIO_SCAN_T_MAX)
    except ArithmeticError as exc:
        return _report("ratio-scan", statement, n_points, tolerances, str(exc))
    witness = None
    for i in range(n_points - 1):
        if not ratio[i] > ratio[i + 1]:
            witness = (f"not strictly decreasing between t={grid[i]!r} (r={ratio[i]!r}) "
                       f"and t={grid[i + 1]!r} (r={ratio[i + 1]!r})")
            break
    # past the walk the ratios decrease, so the last is the least
    if witness is None and not ratio[-1] > 1.0:
        witness = f"min ratio {ratio[-1]!r} is not > 1"
    if witness is None and not ratio[0] < HALF_PI:
        witness = f"max ratio {ratio[0]!r} is not < pi/2"
    if witness is None and not ratio[0] > HALF_PI - SHARPNESS_LOW_MARGIN:
        witness = (f"t={grid[0]!r}: ratio {ratio[0]!r} did not exceed "
                   f"pi/2 - {SHARPNESS_LOW_MARGIN}")
    if witness is None and not ratio[-1] < 1.0 + SHARPNESS_HIGH_MARGIN:
        witness = (f"t={grid[-1]!r}: ratio {ratio[-1]!r} is not below "
                   f"1 + {SHARPNESS_HIGH_MARGIN}")
    return _report("ratio-scan", statement, n_points, tolerances, witness)


def check_mean_order(n_samples: int, seed: int) -> VerificationReport:
    """log mean < AGM < identric mean on sampled pairs with a != b, the
    generalized logarithmic mean strictly increasing across the p grid,
    and the paper's upper bound M < (pi/2) L, each with zero slack.

    L and I are the p = -1 and p = 0 entries of the p chain, which
    means.gen_log_mean reads from the state that MeanInput computes once
    per pair through means._log_gap.  The chain's other five entries are
    algebraic closed forms in hi and lo that take no logarithm, so the
    chain interleaves them with the _log_gap-based L and I: the forms at
    p = -2 and -1/2 bracket L, and those at -1/2 and 1/2 bracket I.  The
    ratio kernel means.log_mean_float, which ratio-scan reads, must give
    that L bit for bit, as MeanInput promises."""
    _check_count(n_samples, "n_samples")
    statement = (
        "L(a,b) < M(a,b) < I(a,b) for sampled a != b, p -> L(p;a,b) is strictly "
        "increasing across p in {-2,-1,-1/2,0,1/2,1,2}, M(a,b) < (pi/2) L(a,b), "
        "and log_mean_float(a,b) equals L(a,b) bit for bit"
    )
    tolerances = {"strict": 0.0}
    rng = random.Random(seed)
    witness = None
    checked = 0
    # the means functions are read once per call, so a mutant patched in
    # before the call still sees every sample
    mean_input, gen_log_mean = means.MeanInput, means.gen_log_mean
    agm_iterates, log_mean_float = means.agm_iterates, means.log_mean_float
    p0, p_log, p2, p_identric, p4, p5, p6 = P_GRID
    for _ in range(n_samples):
        a, b = _sample_pair(rng)
        inp = mean_input(a, b)
        c0 = gen_log_mean(p0, inp)
        lm = gen_log_mean(p_log, inp)
        c2 = gen_log_mean(p2, inp)
        im = gen_log_mean(p_identric, inp)
        c4 = gen_log_mean(p4, inp)
        c5 = gen_log_mean(p5, inp)
        c6 = gen_log_mean(p6, inp)
        m, _ = agm_iterates(a, b)
        checked += 1
        if not (lm < m < im):
            witness = f"a={a!r} b={b!r}: order violated: L={lm!r} M={m!r} I={im!r}"
            break
        # one chained < over the seven orders, false on any NaN
        if not (c0 < lm < c2 < im < c4 < c5 < c6):
            chain = [c0, lm, c2, im, c4, c5, c6]
            witness = f"a={a!r} b={b!r}: p-chain not strictly increasing: {chain!r}"
            break
        upper = HALF_PI * lm
        if not m < upper:
            witness = f"a={a!r} b={b!r}: upper bound violated: M={m!r} (pi/2)L={upper!r}"
            break
        kernel = log_mean_float(a, b)
        if not kernel == lm:
            witness = f"a={a!r} b={b!r}: log_mean_float={kernel!r} differs from L={lm!r}"
            break
    return _report("mean-ordering", statement, checked, tolerances, witness)


# ---------------------------------------------------------------------------
# aggregation

def run_all(
    profile: str = "quick",
    seed: int = DEFAULT_SEED,
    on_check: Callable[[VerificationReport, float], None] | None = None,
) -> list[VerificationReport]:
    """Every check at the profile's depth, in a fixed claim order.

    quick: k <= 50, 10^3 samples; full: k <= 500, 10^4 samples.  The
    aggregate passes iff every report passes.  on_check, if given, is
    called after each check with its report and wall time in seconds.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    p = PROFILES[profile]
    rows = tuple(coeffs.table_rows(p["k_max"]))
    checks: list[Callable[[], VerificationReport]] = [
        lambda: check_coefficient_identities(rows),
        lambda: check_coefficient_monotonicity(rows),
        lambda: check_sign_change(rows),
        lambda: check_k_consistency(seed),
        lambda: check_reciprocal(p["recip_samples"], seed + 1),
        lambda: check_ratio_scan(p["scan_points"]),
        lambda: check_mean_order(p["samples"], seed + 3),
    ]
    reports = []
    for check in checks:
        start = time.perf_counter()
        reports.append(check())
        if on_check is not None:
            on_check(reports[-1], time.perf_counter() - start)
    return reports


def all_passed(reports) -> bool:
    return all(r.status == "pass" for r in reports)


def reports_to_json(reports) -> str:
    """Lossless JSON array of reports (claim_id, status, counts, witness,
    tolerances).

    The text equals json.dumps(..., sort_keys=True) of the reports' field
    dicts.  means._json_dumps writes it, so a run whose strings need no
    escaping loads no json; a string with a quote, a backslash, a control
    or a non-ASCII character sends the whole list through json.dumps.
    """
    return means._json_dumps([{f: getattr(r, f) for f in r._fields} for r in reports])


def reports_to_text(reports) -> str:
    """One human-readable line per claim, plus witness lines on failure."""
    lines = []
    for r in reports:
        lines.append(f"{r.status.upper():4s} {r.claim_id:24s} checked={r.checked_points}")
        if r.witness is not None:
            lines.append(f"     witness: {r.witness}")
    n_fail = sum(1 for r in reports if r.status != "pass")
    lines.append(
        f"{len(reports) - n_fail}/{len(reports)} claims passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines) + "\n"
