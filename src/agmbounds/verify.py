"""Verification suite: exact and floating checks of every claimed property.

Each check returns a VerificationReport; run_all executes the whole claim
list at a profile-dependent depth.  Exact claims (coefficient identities,
ratio monotonicity, sign change) are decided in rational arithmetic with
zero tolerance; floating claims carry explicit named tolerances and a
witness for the first failing input.  Identical seeds and profiles
reproduce byte-identical report lists.

The exact claims read the coefficient rows (k, a, b, h, g, s) that
coefficients.table_rows streams, collected once per run; row k holds
index k.  VerificationReport and RatioScan are plain immutable classes
on means.Record, and json is imported only by reports_to_json, so a
verify or scan process that prints text needs neither class generation
at import nor the JSON encoder.
"""

import math
import random
import time
from collections.abc import Callable
from fractions import Fraction

from agmbounds import coefficients as coeffs
from agmbounds import elliptic, means

HALF_PI = math.pi / 2.0

# Floating tolerances (also recorded in each report).
DOUBLE_INEQ_SLACK = 1e-12
THREE_WAY_REL = 1e-11
NEAR_SINGULAR_REL = 1e-9
NEAR_SINGULAR_T = 0.999999
RECIPROCAL_REL = 1e-11

# Sharpness thresholds: convergence of M/L to its limits is logarithmic,
# so only loose margins are certifiable at double precision.
SHARPNESS_LOW_T = 1e-8
SHARPNESS_LOW_MARGIN = 0.15
SHARPNESS_HIGH_EPS = 1e-4
SHARPNESS_HIGH_MARGIN = 0.01
SHARPNESS_SEQUENCE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)

# The t range of check_ratio_scan's grid.
RATIO_SCAN_T_MIN = 1e-8
RATIO_SCAN_T_MAX = 1.0 - 1e-4

# Sampling: log-uniform over [10^-3, 10^3] per coordinate, rejecting
# near-equal pairs.
SAMPLE_LOG_RANGE = 3.0
MIN_REL_GAP = 1e-12

# Random moduli per check_k_consistency run, at every profile.
K_CONSISTENCY_MODULI = 100

# Columns of a coefficients.table_rows row (k, a, b, h, g, s).
_A, _B, _H, _G, _S = range(1, 6)

P_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
# Positions in P_GRID of the logarithmic (p = -1) and identric (p = 0) means.
_P_LOG = P_GRID.index(-1.0)
_P_IDENTRIC = P_GRID.index(0.0)

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


class RatioScan(means.Record):
    """M(1,t)/L(1,t) sampled on a strictly increasing grid in (0, 1)."""

    _fields = ("grid", "ratio", "monotone_decreasing", "min_value", "max_value")

    def __init__(self, grid: tuple[float, ...], ratio: tuple[float, ...],
                 monotone_decreasing: bool, min_value: float, max_value: float):
        means.set_fields(self, {"grid": grid, "ratio": ratio,
                                "monotone_decreasing": monotone_decreasing,
                                "min_value": min_value, "max_value": max_value})


def _report(claim_id, statement, checked, tolerances, witness=None):
    return VerificationReport(
        claim_id=claim_id,
        statement=statement,
        status="pass" if witness is None else "fail",
        checked_points=checked,
        tolerances=tolerances,
        witness=witness,
    )


def _mean_ratio(t: float) -> float:
    """M(1, t) / L(1, t) for t in (0, 1)."""
    m, _ = means.agm_iterates(1.0, t)
    return m / means.log_mean_float(1.0, t)


def _check_count(n: int, name: str) -> None:
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")


def _sample_pair(rng: random.Random) -> tuple[float, float]:
    while True:
        a = 10.0 ** rng.uniform(-SAMPLE_LOG_RANGE, SAMPLE_LOG_RANGE)
        b = 10.0 ** rng.uniform(-SAMPLE_LOG_RANGE, SAMPLE_LOG_RANGE)
        if abs(a - b) >= MIN_REL_GAP * max(a, b):
            return a, b


# ---------------------------------------------------------------------------
# exact claims

def check_coefficient_identities(rows) -> VerificationReport:
    """Exact agreement of every summation form, closed form, table row
    value, and the g recurrence, for 1 <= k <= k_max = len(rows) - 1."""
    k_max = len(rows) - 1
    statement = (
        "summation and closed forms of a_k, h(k), g(k) agree exactly and match "
        "the stored table, b_k and S_k match their definitions, and g satisfies "
        "2(k+1)g(k+1) - (2k+1)g(k) = C(2k,k)/2^(2k+1)"
    )
    checked = 0
    witness = None
    g_values: list[Fraction] = []
    if rows[0][_B] != coeffs.b_coeff(0):
        witness = f"k=0: table b={rows[0][_B]} definition={coeffs.b_coeff(0)}"
    checked += 1
    for k in range(1, k_max + 1):
        if witness is not None:
            break
        a_s = coeffs.a_coeff_sum(k)
        gs = coeffs.g_sum(k)
        g_values.append(gs)
        h_c = coeffs.h_closed(k)
        row = rows[k]
        cases = (
            ("a sum vs closed", a_s, coeffs.a_coeff_closed(k)),
            ("a vs table", a_s, row[_A]),
            ("h sum vs closed", coeffs.h_sum(k), h_c),
            ("h vs table", h_c, row[_H]),
            ("g sum vs closed", gs, coeffs.g_closed(k)),
            ("g vs table", gs, row[_G]),
            ("b vs table", coeffs.b_coeff(k), row[_B]),
        )
        for name, left, right in cases:
            checked += 1
            if left != right:
                witness = f"k={k}: {name}: {left} != {right}"
                break
        if witness is None and k >= 2:
            checked += 1
            s_k = coeffs.s_seq(k)
            if s_k != row[_S]:
                witness = f"k={k}: S_k: {s_k} != {row[_S]}"
    if witness is None:
        g_values.append(coeffs.g_sum(k_max + 1))
        for k in range(1, k_max + 1):
            checked += 1
            lhs = 2 * (k + 1) * g_values[k] - (2 * k + 1) * g_values[k - 1]
            rhs = coeffs.wallis_ratio(k) / 2
            if lhs != rhs:
                witness = f"k={k}: recurrence: {lhs} != {rhs}"
                break
    return _report("coeff-identities", statement, checked, {"exact": 0.0}, witness)


def check_coefficient_monotonicity(rows) -> VerificationReport:
    """a_k/b_k strictly increasing for 1 <= k <= len(rows) - 1, exactly."""
    k_max = len(rows) - 1
    statement = (
        "a_{k+1}/a_k > ((2k+1)/(2k+2))^2 = b_{k+1}/b_k exactly, i.e. the "
        "coefficient ratio a_k/b_k is strictly increasing"
    )
    witness = None
    checked = 0
    for k in range(1, k_max):
        checked += 1
        a_ratio = rows[k + 1][_A] / rows[k][_A]
        b_ratio = rows[k + 1][_B] / rows[k][_B]
        if b_ratio != Fraction((2 * k + 1) ** 2, (2 * k + 2) ** 2):
            witness = f"k={k}: b ratio {b_ratio} is not ((2k+1)/(2k+2))^2"
            break
        if not a_ratio > b_ratio:
            witness = f"k={k}: a ratio {a_ratio} <= b ratio {b_ratio}"
            break
    return _report(
        "coeff-ratio-monotone", statement, checked, {"exact": 0.0}, witness
    )


def check_series_ratio_inequality(k_max: int) -> VerificationReport:
    """The rearranged coefficient-ratio inequality, exactly, for 2 <= k <= k_max.

    [T_{k+1} - (2k+1)(k+2)/(2(k+1)^2) T_k] * C(2k+2,k+1)/4^(k+1)
        < 1 - (2k+1)^2 (k+2)/(4(k+1)^3),
    where T_k = sum_{i=2}^{k} 1/(2i-1).  Recomputed independently of any
    table.
    """
    statement = (
        "rearranged coefficient-ratio inequality holds exactly for every "
        "k in [2, k_max]"
    )
    witness = None
    checked = 0
    t_k = Fraction(1, 3)  # T_2
    w = coeffs.wallis_ratio(3)  # C(6,3)/4^3, i.e. w_{k+1} at k = 2
    for k in range(2, k_max + 1):
        t_k1 = t_k + Fraction(1, 2 * k + 1)
        lhs = (t_k1 - Fraction((2 * k + 1) * (k + 2), 2 * (k + 1) ** 2) * t_k) * w
        rhs = 1 - Fraction((2 * k + 1) ** 2 * (k + 2), 4 * (k + 1) ** 3)
        checked += 1
        if not lhs < rhs:
            witness = f"k={k}: {lhs} >= {rhs}"
            break
        t_k = t_k1
        w *= Fraction(2 * k + 3, 2 * k + 4)
    return _report(
        "series-ratio-inequality", statement, checked, {"exact": 0.0}, witness
    )


def check_sign_change(rows) -> VerificationReport:
    """S_k strictly decreasing on [2, k_max], k_max = len(rows) - 1, with
    its single sign change located between k = 10 and k = 11, exactly."""
    k_max = len(rows) - 1
    statement = (
        "S_k is strictly decreasing with exactly one sign change: "
        "S_10 > 0 > S_11 (so S_k < 0 iff k >= 11)"
    )
    witness = None
    checked = 0
    prev = None
    first_negative = None
    for k in range(2, k_max + 1):
        s = rows[k][_S]
        checked += 1
        if prev is not None and not s < prev:
            witness = f"k={k}: S_k={s} is not below S_(k-1)={prev}"
            break
        if s < 0 and first_negative is None:
            first_negative = k
        prev = s
    if witness is None and k_max >= 11 and first_negative != 11:
        witness = f"first negative S_k at k={first_negative}, expected 11"
    return _report("s-sign-change", statement, checked, {"exact": 0.0}, witness)


# ---------------------------------------------------------------------------
# floating claims

def check_k_consistency(seed: int = DEFAULT_SEED) -> VerificationReport:
    """Pairwise agreement of the three K routes on K_CONSISTENCY_MODULI
    random moduli in [0, 0.95], plus the near-singular AGM-vs-quadrature
    probe."""
    statement = (
        "series, AGM and quadrature values of K agree pairwise within "
        "1e-11 relative on [0, 0.95]; AGM and quadrature agree within "
        "1e-9 relative at t = 0.999999"
    )
    tolerances = {
        "pairwise_rel": THREE_WAY_REL,
        "near_singular_rel": NEAR_SINGULAR_REL,
    }
    rng = random.Random(seed)
    witness = None
    checked = 0
    for _ in range(K_CONSISTENCY_MODULI):
        t = rng.uniform(0.0, elliptic.SERIES_T_MAX)
        m = elliptic.Modulus(t)
        vs = elliptic.k_series(m).value
        va = elliptic.k_agm(m).value
        vq = elliptic.k_quadrature(1.0, m.complement()).value
        dev = max(abs(vs - va), abs(vs - vq), abs(va - vq)) / vs
        checked += 1
        if dev > THREE_WAY_REL:
            witness = (
                f"t={t!r}: series={vs!r} agm={va!r} quadrature={vq!r} "
                f"max pairwise rel dev {dev!r} > {THREE_WAY_REL}"
            )
            break
    if witness is None:
        m = elliptic.Modulus(NEAR_SINGULAR_T)
        va = elliptic.k_agm(m).value
        vq = elliptic.k_quadrature(1.0, m.complement()).value
        checked += 1
        dev = abs(va - vq) / va
        if dev > NEAR_SINGULAR_REL:
            witness = (
                f"t={NEAR_SINGULAR_T}: agm={va!r} quadrature={vq!r} "
                f"rel dev {dev!r} > {NEAR_SINGULAR_REL}"
            )
    return _report("k-three-way", statement, checked, tolerances, witness)


def check_reciprocal(n_samples: int = 1000, seed: int = DEFAULT_SEED) -> VerificationReport:
    """|M(a,b) * (2/pi) * K(a,b) - 1| <= 1e-11 over log-uniform pairs.

    K route per pair: series for modulus <= 0.95, otherwise quadrature,
    at any argument ratio.  Neither route calls the AGM, so the relation
    is checked between independent computations of M and K.
    """
    _check_count(n_samples, "n_samples")
    statement = (
        "the AGM limit and K satisfy M(a,b) * (2/pi) * K(a,b) = 1 over "
        "log-uniform pairs spanning six orders of magnitude"
    )
    tolerances = {
        "rel": RECIPROCAL_REL,
        "series_max_modulus": elliptic.SERIES_T_MAX,
    }
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
            k_val = elliptic.k_quadrature(a, b).value
            route = "quadrature"
        resid = abs(m_agm * (2.0 / math.pi) * k_val - 1.0)
        checked += 1
        if resid > RECIPROCAL_REL:
            witness = (
                f"a={a!r} b={b!r} ({route}): |M*(2/pi)*K - 1| = {resid!r} "
                f"> {RECIPROCAL_REL}"
            )
            break
    return _report("agm-k-reciprocal", statement, checked, tolerances, witness)


def check_double_inequality(n_samples: int, seed: int) -> VerificationReport:
    """L(a,b) < M(a,b) < (pi/2) L(a,b), strict up to 1e-12 relative slack,
    on reproducible log-uniform pairs with a != b."""
    _check_count(n_samples, "n_samples")
    statement = (
        "the AGM mean is strictly between the logarithmic mean and pi/2 "
        "times the logarithmic mean for all sampled a != b"
    )
    tolerances = {"rel_slack": DOUBLE_INEQ_SLACK}
    rng = random.Random(seed)
    witness = None
    checked = 0
    for _ in range(n_samples):
        a, b = _sample_pair(rng)
        lm = means.log_mean_float(a, b)
        m, _ = means.agm_iterates(a, b)
        upper = HALF_PI * lm
        checked += 1
        if not (m > lm * (1.0 - DOUBLE_INEQ_SLACK) and m < upper * (1.0 + DOUBLE_INEQ_SLACK)):
            witness = (
                f"a={a!r} b={b!r}: expected L < M < (pi/2)L, got "
                f"L={lm!r} M={m!r} (pi/2)L={upper!r}"
            )
            break
    return _report("double-inequality", statement, checked, tolerances, witness)


def scan_ratio(n_points: int, t_min: float, t_max: float) -> RatioScan:
    """M(1,t)/L(1,t) on a log-spaced grid of n_points in [t_min, t_max]."""
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


def check_ratio_scan(n_points: int = 200) -> VerificationReport:
    """Strict decrease of M(1,t)/L(1,t) along a grid of n_points in
    [RATIO_SCAN_T_MIN, RATIO_SCAN_T_MAX], all values inside the open
    interval (1, pi/2): the assertable form of the sharp bounds."""
    statement = (
        "M(1,t)/L(1,t) is strictly decreasing on a log-spaced grid and "
        "every value lies strictly inside (1, pi/2)"
    )
    tolerances = {"lower_bound": 1.0, "upper_bound": HALF_PI}
    scan = scan_ratio(n_points, RATIO_SCAN_T_MIN, RATIO_SCAN_T_MAX)
    witness = None
    if not scan.monotone_decreasing:
        for i in range(n_points - 1):
            if not scan.ratio[i] > scan.ratio[i + 1]:
                witness = (
                    f"not strictly decreasing between t={scan.grid[i]!r} "
                    f"(r={scan.ratio[i]!r}) and t={scan.grid[i+1]!r} "
                    f"(r={scan.ratio[i+1]!r})"
                )
                break
    if witness is None and not scan.min_value > 1.0:
        witness = f"min ratio {scan.min_value!r} is not > 1"
    if witness is None and not scan.max_value < HALF_PI:
        witness = f"max ratio {scan.max_value!r} is not < pi/2"
    return _report("ratio-scan", statement, n_points, tolerances, witness)


def check_sharpness() -> VerificationReport:
    """Monotone approach of M/L to its limits: the ratio increases along
    SHARPNESS_SEQUENCE, t decreasing toward 0, while staying below
    pi/2, exceeds pi/2 - 0.15 by t = 1e-8, and sits within 0.01 of 1 at
    t = 1 - 1e-4.
    Convergence to the limits is logarithmic, hence the loose margins."""
    statement = (
        "no constant below pi/2 bounds M/L from above and no constant "
        "above 1 bounds it from below: the ratio climbs past pi/2 - 0.15 "
        "as t -> 0+ and drops within 0.01 of 1 as t -> 1-"
    )
    tolerances = {
        "low_t": SHARPNESS_LOW_T,
        "low_margin": SHARPNESS_LOW_MARGIN,
        "high_eps": SHARPNESS_HIGH_EPS,
        "high_margin": SHARPNESS_HIGH_MARGIN,
    }
    witness = None
    checked = 0
    prev = None
    for t in SHARPNESS_SEQUENCE:
        r = _mean_ratio(t)
        checked += 1
        if not r < HALF_PI:
            witness = f"t={t!r}: ratio {r!r} is not < pi/2"
            break
        if prev is not None and not r > prev:
            witness = f"t={t!r}: ratio {r!r} did not increase (previous {prev!r})"
            break
        prev = r
    if witness is None:
        checked += 1
        r_low = _mean_ratio(SHARPNESS_LOW_T)
        if not r_low > HALF_PI - SHARPNESS_LOW_MARGIN:
            witness = (
                f"t={SHARPNESS_LOW_T}: ratio {r_low!r} did not exceed "
                f"pi/2 - {SHARPNESS_LOW_MARGIN}"
            )
    if witness is None:
        checked += 1
        r_high = _mean_ratio(1.0 - SHARPNESS_HIGH_EPS)
        if not (1.0 < r_high < 1.0 + SHARPNESS_HIGH_MARGIN):
            witness = (
                f"t={1.0 - SHARPNESS_HIGH_EPS}: ratio {r_high!r} not within "
                f"(1, 1 + {SHARPNESS_HIGH_MARGIN})"
            )
    return _report("sharpness", statement, checked, tolerances, witness)


def check_mean_order(n_samples: int, seed: int) -> VerificationReport:
    """log mean < AGM < identric mean on sampled pairs with a != b, and the
    generalized logarithmic mean strictly increasing across the p grid.

    L and I are the p = -1 and p = 0 entries of the p chain, which
    means.gen_log_mean reads from the state that MeanInput computes once
    per pair."""
    _check_count(n_samples, "n_samples")
    statement = (
        "L(a,b) < M(a,b) < I(a,b) for sampled a != b, and p -> L(p;a,b) "
        "is strictly increasing across p in {-2,-1,-1/2,0,1/2,1,2}"
    )
    tolerances = {"strict": 0.0}
    rng = random.Random(seed)
    witness = None
    checked = 0
    for _ in range(n_samples):
        a, b = _sample_pair(rng)
        inp = means.MeanInput(a, b)
        chain = [means.gen_log_mean(p, inp) for p in P_GRID]
        lm = chain[_P_LOG]
        im = chain[_P_IDENTRIC]
        m, _ = means.agm_iterates(a, b)
        checked += 1
        if not (lm < m < im):
            witness = f"a={a!r} b={b!r}: order violated: L={lm!r} M={m!r} I={im!r}"
            break
        if any(chain[i] >= chain[i + 1] for i in range(len(chain) - 1)):
            witness = f"a={a!r} b={b!r}: p-chain not strictly increasing: {chain!r}"
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
        lambda: check_series_ratio_inequality(p["k_max"]),
        lambda: check_sign_change(rows),
        lambda: check_k_consistency(seed),
        lambda: check_reciprocal(p["recip_samples"], seed + 1),
        lambda: check_double_inequality(p["samples"], seed + 2),
        lambda: check_ratio_scan(p["scan_points"]),
        lambda: check_sharpness(),
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
    tolerances)."""
    import json

    return json.dumps([{f: getattr(r, f) for f in r._fields} for r in reports], sort_keys=True)


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
