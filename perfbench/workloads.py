"""Seeded inputs and the output checks of the four workloads.

Every generator is a pure function of the workload seed: the same seed
gives the same inputs, and the program receives only these inputs.  The
tolerances and grids are the benchmark's own copies of the values at
the commit that defined it, so a change to the program cannot loosen
the checks that judge it.  Nothing here imports agmbounds.
"""

import json
import math
import random

WORKLOADS = ("verify-full", "elliptic-routes", "means-wide", "cli-mix")

# verify.THREE_WAY_REL and verify.DOUBLE_INEQ_SLACK
THREE_WAY_REL = 1e-11
DOUBLE_INEQ_SLACK = 1e-12

# verify.P_GRID: the orders of the generalized logarithmic mean
P_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

SMALLEST_DOUBLE = 5e-324
SMALLEST_NORMAL = 2.2250738585072014e-308

# Per pair, in this order: log_mean, identric_mean, gen_log_mean at each
# order of P_GRID, agm; MEAN_ORDERS holds the order p of each slot.
MEAN_SLOTS = ("log_mean", "identric_mean") + ("gen_log_mean",) * len(P_GRID) + ("agm",)
MEAN_ORDERS = (None, None) + P_GRID + (None,)

# The four wrong means of ROADMAP item 3 come from these three pairs:
# log_mean and identric_mean at (1e-308, 1e308), log_mean at (5e-324, 1),
# agm at (1e-300, 1e300).
ITEM3_PAIRS = ((1e-308, 1e308), (5e-324, 1.0), (1e-300, 1e300))
MEAN_BANDS = ("verifier", "near_equal", "whole")
PAIRS_PER_BAND = 1000

# elliptic-routes: three quarters moduli t in [0, 0.95], one quarter
# pairs with b/a log-uniform in [1e-8, 1].
T_MODULI = 180
PAIR_MODULI = 60
ROUTES = ("series", "agm", "quadrature")

# Smallest checked_points per claim that a full-depth verify reports
# (k_max 500, 10^4 samples, 10^3 reciprocal samples, 100 moduli,
# 200 scan points, 7 sharpness probes).
FULL_DEPTH = {
    "coeff-identities": 500,
    "coeff-ratio-monotone": 499,
    "series-ratio-inequality": 499,
    "s-sign-change": 499,
    "k-three-way": 100,
    "agm-k-reciprocal": 1000,
    "double-inequality": 10000,
    "ratio-scan": 200,
    "sharpness": 7,
    "mean-ordering": 10000,
}


def _rng(workload, seed):
    return random.Random(f"perfbench:{workload}:{seed}")


def _log_uniform(rng, lo_exp, hi_exp):
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def verify_argv(seed):
    return ["verify", "--profile", "full", "--seed", str(seed), "--format", "json"]


def _stratified(rng, n, lo, hi):
    """n uniform draws on [lo, hi), one in each of n equal strata: every
    seed then has nearly the same share of inputs in any sub-range."""
    return [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]


def elliptic_inputs(seed):
    """[kind, x, y] per modulus: ["t", t, 0.0] or ["pair", a, b]."""
    rng = _rng("elliptic-routes", seed)
    out = [["t", t, 0.0] for t in _stratified(rng, T_MODULI, 0.0, 0.95)]
    for log_ratio in _stratified(rng, PAIR_MODULI, -8.0, 0.0):
        a = _log_uniform(rng, -3.0, 3.0)
        out.append(["pair", a, a * 10.0**log_ratio])
    rng.shuffle(out)
    return out


def _whole_range(rng, n):
    """n doubles log-uniform over every positive finite double, subnormals
    included, with stratified binary exponents in random order."""
    exps = [math.floor(e) for e in _stratified(rng, n, -1073.0, 1025.0)]
    rng.shuffle(exps)
    return [math.ldexp(rng.uniform(0.5, 1.0), e) for e in exps]


def means_inputs(seed):
    """[band, a, b] per pair; the ROADMAP item-3 pairs are always first."""
    rng = _rng("means-wide", seed)
    out = [["whole", a, b] for a, b in ITEM3_PAIRS]
    for _ in range(PAIRS_PER_BAND):
        while True:
            a = _log_uniform(rng, -3.0, 3.0)
            b = _log_uniform(rng, -3.0, 3.0)
            if abs(a - b) >= 1e-12 * max(a, b):
                break
        out.append(["verifier", a, b])
    for log_gap in _stratified(rng, PAIRS_PER_BAND, -15.0, -6.0):
        a = _log_uniform(rng, -3.0, 3.0)
        b = a * (1.0 + 10.0**log_gap)
        out.append(["near_equal", a, b] if rng.random() < 0.5 else ["near_equal", b, a])
    for a, b in zip(_whole_range(rng, PAIRS_PER_BAND), _whole_range(rng, PAIRS_PER_BAND)):
        out.append(["whole", a, b])
    return out


def cli_rotation(seed):
    """The fixed rotation of CLI argv lists run as fresh processes."""
    rng = _rng("cli-mix", seed)
    a = repr(_log_uniform(rng, -3.0, 3.0))
    b = repr(_log_uniform(rng, -3.0, 3.0))
    p = repr(rng.choice(P_GRID))
    rotation = [
        ["mean", "--kind", "agm", "--a", a, "--b", b],
        ["mean", "--kind", "genlog", f"--p={p}", "--a", a, "--b", b],
    ]
    for method in ROUTES:
        rotation.append(["elliptic", "--method", method, "--t", repr(rng.uniform(0.0, 0.95))])
    rotation += [
        ["scan", "--points", "2000", "--tmin", "1e-8", "--tmax", "0.9999"],
        ["coeffs", "--kmax", "500", "--format", "json"],
        ["verify", "--profile", "quick", "--seed", str(seed), "--format", "json"],
    ]
    return rotation


# ---------------------------------------------------------------------------
# known defects: the regimes in which the program fails at the commit that
# defined this benchmark.  A failure inside one is counted but leaves the
# run correct; a failure anywhere else makes it incorrect.  Each regime
# is as narrow as the defect allows, so a new failure next to it shows.


def known_route_defect(kind, x, y, route):
    """K of a pair (a, b) = (x, y) with a small b/a: the AGM route through
    modulus_from_pair loses the low bits of the complement below about
    b/a = 1e-3, and quadrature stops at its panel budget below about
    b/a = 2e-5.  Moduli given as t never fail."""
    if kind != "pair":
        return False
    ratio = y / x
    return (route == "k_agm" and ratio < 1e-2) or (route == "k_quadrature" and ratio < 1e-4)


# identric_mean and gen_log_mean lose accuracy on pairs whose relative
# gap lies between these, whatever the band: on near-equal pairs by up
# to 1e-6, and by up to about 1e-11 on close pairs of the verifier band
# and of the whole range (gaps from 5e-5 to 0.12 seen).
CLOSE_GAP = (1e-10, 0.25)


def known_mean_defect(band, a, b, slot, p):
    """identric_mean, and gen_log_mean away from p = -1 (the log mean),
    on a pair whose relative gap lies in CLOSE_GAP; on the whole double
    range, log_mean and agm return 0 once lo/hi underflows below the
    normal range, and identric_mean overflows to inf once hi exceeds
    about 1e305 (gen_log_mean at p = -1 and p = 0 is these means).
    Every other slot and pair never fails."""
    lo, hi = sorted((a, b))  # p is None for every slot but gen_log_mean
    gap = (hi - lo) / hi
    if CLOSE_GAP[0] < gap < CLOSE_GAP[1] and (
            slot == "identric_mean" or (slot == "gen_log_mean" and p != -1.0)):
        return True
    if band == "whole":
        if slot in ("log_mean", "agm") or p == -1.0:
            return lo / hi < SMALLEST_NORMAL
        if slot == "identric_mean" or p == 0.0:
            return hi > 1e304
    return False


# ---------------------------------------------------------------------------
# checks: each returns None for a correct output, else the reason it failed


def rel_error(value, ref):
    """|value - ref| / |ref| for a finite float value, else None."""
    if not isinstance(value, float) or not math.isfinite(value):
        return None
    return abs(value - ref) / abs(ref)


def check_value(value, ref, tol):
    """A float result against its reference: a raised error (a string), a
    zero or non-finite value, or a relative error above tol fails."""
    if isinstance(value, str):
        return value
    if not math.isfinite(value) or value == 0.0:
        return f"value {value!r}"
    # one subnormal step of slack: the double format forces that much
    # error on a mean that lies in the subnormal range
    if abs(value - ref) > max(tol * abs(ref), SMALLEST_DOUBLE):
        return f"relative error {rel_error(value, ref):.3g} > {tol:g}"
    return None


def check_verify_output(returncode, stdout, first_stdout):
    """A full-profile verify process: exit 0, ten passing reports at full
    depth, and stdout bytes equal to the first run with the same seed."""
    if returncode != 0:
        return f"exit code {returncode}"
    if first_stdout is not None and stdout != first_stdout:
        return "stdout differs from another run with the same seed"
    try:
        reports = json.loads(stdout)
        by_claim = {r["claim_id"]: r for r in reports}
    except (ValueError, TypeError, KeyError) as exc:
        return f"unreadable report list: {exc}"
    if sorted(by_claim) != sorted(FULL_DEPTH) or len(reports) != len(FULL_DEPTH):
        return f"claims {sorted(by_claim)}"
    for claim, depth in FULL_DEPTH.items():
        r = by_claim[claim]
        if r.get("status") != "pass":
            return f"{claim}: status {r.get('status')!r}"
        if not isinstance(r.get("checked_points"), int) or r["checked_points"] < depth:
            return f"{claim}: checked_points {r.get('checked_points')!r} < {depth}"
    return None


def check_cli_output(returncode, stdout, ref_returncode, ref_stdout):
    """A fresh CLI process against in-process cli.run on the same argv."""
    if returncode != 0:
        return f"exit code {returncode}"
    if returncode != ref_returncode:
        return f"exit code {returncode}, in-process {ref_returncode}"
    if stdout != ref_stdout:
        return "stdout differs from in-process cli.run"
    return None
