"""Mutant matrix of the verifier: which claims fail on which defect.

Each mutant patches one function that verify reads: the AGM loop, the
ratio kernel log_mean_float, the log gap that MeanInput and the kernel
share, an order of the p chain, a K route, the scale of a pair's
modulus, or a row of the coefficient rows, its index or one cell; or it
replaces one coefficient of coeff-identities' certificates.
Each row of MATRIX names a mutant, a profile, and the claims that fail
when run_all runs at that profile with the mutant in place.  A row whose
failing set is empty is an escape: a defect no claim catches.

A change to a claim shows this table before and after it; a change that
closes an escape changes that row.  Most rows run at quick, which costs
a few tens of milliseconds.  The full rows are the ones whose failing
set depends on the profile's depth.
failing_claims computes one cell; under pytest.MonkeyPatch.context() it
also runs outside pytest, so this file, run as a script, tabulates every
mutant at one profile against the agmbounds on the path:

    PYTHONPATH=src python tests/test_mutants.py quick|full

prints one "mutant<TAB>failing claims" line per mutant, the claims
space-separated in claim order, and "raises <error>" for a mutant that
makes run_all raise.  A line that differs from the mutant's MATRIX row at
that profile is marked, and makes the script exit 1; the last line is
"escapes: N", the mutants that no claim fails.
"""

from fractions import Fraction

import pytest

from agmbounds import coefficients as co
from agmbounds import elliptic, means, verify

# Columns of a coefficient row (k, a, b, h, g, s).
CELLS = {"a": 1, "b": 2, "h": 3, "g": 4, "s": 5}


def _agm(scale):
    # the AGM limit times scale, the step count kept
    def apply(mp):
        exact = means.agm_iterates

        def mutant(a, b):
            limit, steps = exact(a, b)
            return limit * scale, steps

        mp.setattr(means, "agm_iterates", mutant)
    return apply


def _means(name, scale):
    # means.<name> times scale
    def apply(mp):
        exact = getattr(means, name)
        mp.setattr(means, name, lambda *args: exact(*args) * scale)
    return apply


def _order_scaled(q, scale):
    # gen_log_mean at order q times scale; at q = 0, the identric mean
    def apply(mp):
        exact = means.gen_log_mean
        mp.setattr(means, "gen_log_mean",
                   lambda p, inp: exact(p, inp) * scale if p == q else exact(p, inp))
    return apply


def _order_for(p, q):
    # gen_log_mean evaluated at order q where p is asked for
    def apply(mp):
        exact = means.gen_log_mean
        mp.setattr(means, "gen_log_mean", lambda r, inp: exact(q if r == p else r, inp))
    return apply


def _k_route(name, scale):
    # elliptic.<name> with its value times scale
    def apply(mp):
        exact = getattr(elliptic, name)

        def mutant(*args):
            r = exact(*args)
            return elliptic.EllipticResult(r.value * scale, r.method, r.terms_or_iterations,
                                           r.error_estimate)

        mp.setattr(elliptic, name, mutant)
    return apply


def _pair_scale(scale):
    # modulus_from_pair with its scale hi times scale
    def apply(mp):
        exact = elliptic.modulus_from_pair

        def mutant(a, b):
            m, hi = exact(a, b)
            return m, hi * scale

        mp.setattr(elliptic, "modulus_from_pair", mutant)
    return apply


def _moved(cell, rel):
    value = Fraction(*cell) * (1 + rel)
    return value.numerator, value.denominator


def _row(k, change):
    # the streamed rows with row k replaced by change(row)
    def apply(mp):
        stream = co.table_rows
        mp.setattr(co, "table_rows", lambda k_max: (
            change(row) if row[0] == k else row for row in stream(k_max)))
    return apply


def _cell(cell, change):
    # change applied to one cell of a row
    column = CELLS[cell]
    return lambda row: (*row[:column], change(row[column]), *row[column + 1:])


def _row_cell(cell, k, rel):
    # the streamed rows with one cell at index k moved by the relative rel
    return _row(k, _cell(cell, lambda c: _moved(c, rel)))


def _certificate(name, coefficient):
    # one coefficient of coeff-identities' certificates replaced
    return lambda mp: mp.setattr(verify, name, coefficient)


def _nan_agm(mp):
    exact = means.agm_iterates
    mp.setattr(means, "agm_iterates", lambda a, b: (float("nan"), exact(a, b)[1]))


def _nan_log_mean(mp):
    mp.setattr(means, "log_mean_float", lambda a, b: float("nan"))


MUTANTS = {
    **{f"agm*(1{d:+})": _agm(1 + d)
       for d in (3e-12, -3e-12, 1e-11, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, 0.2, -0.2)},
    **{f"log_mean_float*(1{d:+})": _means("log_mean_float", 1 + d)
       for d in (1e-10, -1e-10, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -0.003, 0.1, -0.05, -0.1, -0.2)},
    **{f"_log_gap*(1{d:+})": _means("_log_gap", 1 + d)
       for d in (1e-9, -1e-9, 1e-6, -1e-6, 0.05, -0.05, 0.2, -0.2)},
    **{f"gen_log_mean*(1{d:+})": _means("gen_log_mean", 1 + d) for d in (1e-9, -1e-9)},
    "identric*(1+1e-09)": _order_scaled(0.0, 1 + 1e-9),
    **{f"gen_log_mean(2)*(1{d:+})": _order_scaled(2.0, 1 + d) for d in (1e-9, -1e-3)},
    "gen_log_mean(0.4) for 0.5": _order_for(0.5, 0.4),
    "agm nan": _nan_agm,
    "log_mean_float nan": _nan_log_mean,
    **{f"{route}*(1{d:+})": _k_route(route, 1 + d)
       for route in ("k_series", "k_agm", "k_quadrature") for d in (1e-10, 1e-13)},
    "modulus_from_pair scale*(1+1e-10)": _pair_scale(1 + 1e-10),
    **{f"row {cell}[30]*(1+1e-{e})": _row_cell(cell, 30, Fraction(1, 10**e))
       for cell in CELLS for e in (6, 30)},
    "row a[1]*0": _row_cell("a", 1, -1),
    "row s[2]*(1+1/2)": _row_cell("s", 2, Fraction(1, 2)),
    "row a[300]*(1+1e-6)": _row_cell("a", 300, Fraction(1, 10**6)),
    "row 5 as k=6": _row(5, lambda row: (6, *row[1:])),
    "row s[1] = 7/3": _row(1, _cell("s", lambda c: (7, 3))),
    "row a[0] = 1/2": _row(0, _cell("a", lambda c: (1, 2))),
    "row b[0]*2": _row_cell("b", 0, 1),
    "row g[1]*(1+1e-6)": _row_cell("g", 1, Fraction(1, 10**6)),
    "row a[30] as (3n, 3d)": _row(30, _cell("a", lambda c: (3 * c[0], 3 * c[1]))),
    "row b[30] as (-n, -d)": _row(30, _cell("b", lambda c: (-c[0], -c[1]))),
    "_H_STEP = 1/3": _certificate("_H_STEP", (1, 3)),
    "_A_PART = 2": _certificate("_A_PART", (2, 1)),
    "_G_SPLIT = 3": _certificate("_G_SPLIT", 3),
    "_G_STEP = 1/3": _certificate("_G_STEP", (1, 3)),
}

# (mutant, profile, the claims that fail, in claim order).  ratio-scan
# holds the sharpness margins: log_mean_float scaled down and _log_gap
# scaled up by 0.05 keep the scan inside (1, pi/2) and fail it at
# t = 1 - 1e-4.  A zero a_1 fails coeff-ratio-monotone, which has no
# ratio to it, as well as coeff-identities.  S_2 scaled by 3/2 breaks the
# series-ratio inequality at k = 2, which s-sign-change tests, as well as
# coeff-identities.  Both K claims hold their routes to verify.K_REL,
# 64 eps, so an AGM off by a relative 3e-12 and a K route off by 1e-13
# fail; k_agm is read by k-three-way alone.  A pair's scale off by 1e-10
# fails agm-k-reciprocal alone: k-three-way takes moduli, not pairs, so
# the reciprocal claim cannot fold into it.  The escapes, 6 at quick and
# 2 at full: _log_gap, shared by MeanInput and log_mean_float, scaled up
# by 1e-9 or 1e-6, and the identric mean by 1e-9, at quick; the p = 2
# entry of the p chain, an algebraic form, scaled up by 1e-9, at both
# profiles; gen_log_mean at order 0.4 where 0.5 is asked for, at both
# profiles; and a cell at k = 300, past the quick rows.  The rows' own
# relations fix each row from row 0, so coeff-identities also fails a row
# with the wrong index, a cell where its sequence is not defined, a wrong
# base row and a cell of the right value that is not in lowest terms with
# a positive denominator; b_30 negated in both terms also fails
# coeff-ratio-monotone, whose cross-multiplication then flips its
# inequality.  Each wrong certificate coefficient fails its identity.
MATRIX = [
    ("agm*(1+3e-12)", "quick", ("k-three-way", "agm-k-reciprocal")),
    ("agm*(1-3e-12)", "quick", ("k-three-way", "agm-k-reciprocal")),
    ("agm*(1+1e-11)", "quick", ("k-three-way", "agm-k-reciprocal")),
    ("agm*(1+1e-09)", "quick", ("k-three-way", "agm-k-reciprocal")),
    ("agm*(1-1e-09)", "quick", ("k-three-way", "agm-k-reciprocal", "ratio-scan")),
    ("agm*(1+1e-06)", "quick", ("k-three-way", "agm-k-reciprocal")),
    ("agm*(1-1e-06)", "quick", ("k-three-way", "agm-k-reciprocal", "ratio-scan")),
    ("agm*(1+0.001)", "quick", ("k-three-way", "agm-k-reciprocal", "mean-ordering")),
    ("agm*(1+0.2)", "quick",
     ("k-three-way", "agm-k-reciprocal", "ratio-scan", "mean-ordering")),
    ("agm*(1-0.2)", "quick",
     ("k-three-way", "agm-k-reciprocal", "ratio-scan", "mean-ordering")),
    ("log_mean_float*(1+1e-10)", "quick", ("mean-ordering",)),
    ("log_mean_float*(1-1e-10)", "quick", ("mean-ordering",)),
    ("log_mean_float*(1+1e-09)", "quick", ("ratio-scan", "mean-ordering")),
    ("log_mean_float*(1-1e-09)", "quick", ("mean-ordering",)),
    ("log_mean_float*(1+1e-06)", "quick", ("ratio-scan", "mean-ordering")),
    ("log_mean_float*(1-1e-06)", "quick", ("mean-ordering",)),
    ("log_mean_float*(1+0.001)", "quick", ("ratio-scan", "mean-ordering")),
    ("log_mean_float*(1-0.003)", "quick", ("mean-ordering",)),
    ("log_mean_float*(1+0.1)", "quick", ("ratio-scan", "mean-ordering")),
    ("log_mean_float*(1-0.05)", "quick", ("ratio-scan", "mean-ordering")),
    ("log_mean_float*(1-0.1)", "quick", ("ratio-scan", "mean-ordering")),
    ("log_mean_float*(1-0.2)", "quick", ("ratio-scan", "mean-ordering")),
    ("_log_gap*(1+1e-09)", "quick", ()),  # escape
    ("_log_gap*(1-1e-09)", "quick", ("ratio-scan",)),
    ("_log_gap*(1+1e-06)", "quick", ()),  # escape
    ("_log_gap*(1-1e-06)", "quick", ("ratio-scan",)),
    ("_log_gap*(1+0.05)", "quick", ("ratio-scan", "mean-ordering")),
    ("_log_gap*(1-0.05)", "quick", ("ratio-scan", "mean-ordering")),
    ("_log_gap*(1+0.2)", "quick", ("ratio-scan", "mean-ordering")),
    ("_log_gap*(1-0.2)", "quick", ("ratio-scan", "mean-ordering")),
    ("gen_log_mean*(1+1e-09)", "quick", ("mean-ordering",)),
    ("gen_log_mean*(1-1e-09)", "quick", ("mean-ordering",)),
    ("identric*(1+1e-09)", "quick", ()),  # escape
    ("gen_log_mean(2)*(1+1e-09)", "quick", ()),  # escape
    ("gen_log_mean(2)*(1-0.001)", "quick", ("mean-ordering",)),
    ("gen_log_mean(0.4) for 0.5", "quick", ()),  # escape
    ("agm nan", "quick",
     ("k-three-way", "agm-k-reciprocal", "ratio-scan", "mean-ordering")),
    ("log_mean_float nan", "quick", ("ratio-scan", "mean-ordering")),
    ("k_series*(1+1e-10)", "quick", ("k-three-way", "agm-k-reciprocal")),
    ("k_agm*(1+1e-10)", "quick", ("k-three-way",)),
    ("k_quadrature*(1+1e-10)", "quick", ("k-three-way", "agm-k-reciprocal")),
    ("k_series*(1+1e-13)", "quick", ("k-three-way", "agm-k-reciprocal")),
    ("k_agm*(1+1e-13)", "quick", ("k-three-way",)),
    ("k_quadrature*(1+1e-13)", "quick", ("k-three-way", "agm-k-reciprocal")),
    ("modulus_from_pair scale*(1+1e-10)", "quick", ("agm-k-reciprocal",)),
    ("row a[30]*(1+1e-6)", "quick", ("coeff-identities",)),
    ("row a[30]*(1+1e-30)", "quick", ("coeff-identities",)),
    ("row b[30]*(1+1e-6)", "quick", ("coeff-identities", "coeff-ratio-monotone")),
    ("row b[30]*(1+1e-30)", "quick", ("coeff-identities", "coeff-ratio-monotone")),
    ("row h[30]*(1+1e-6)", "quick", ("coeff-identities",)),
    ("row h[30]*(1+1e-30)", "quick", ("coeff-identities",)),
    ("row g[30]*(1+1e-6)", "quick", ("coeff-identities",)),
    ("row g[30]*(1+1e-30)", "quick", ("coeff-identities",)),
    ("row s[30]*(1+1e-6)", "quick", ("coeff-identities",)),
    ("row s[30]*(1+1e-30)", "quick", ("coeff-identities",)),
    ("row a[1]*0", "quick", ("coeff-identities", "coeff-ratio-monotone")),
    ("row s[2]*(1+1/2)", "quick", ("coeff-identities", "s-sign-change")),
    ("row a[300]*(1+1e-6)", "quick", ()),  # escape
    ("row 5 as k=6", "quick", ("coeff-identities",)),
    ("row s[1] = 7/3", "quick", ("coeff-identities",)),
    ("row a[0] = 1/2", "quick", ("coeff-identities",)),
    ("row b[0]*2", "quick", ("coeff-identities",)),
    ("row g[1]*(1+1e-6)", "quick", ("coeff-identities",)),
    ("row a[30] as (3n, 3d)", "quick", ("coeff-identities",)),
    ("row b[30] as (-n, -d)", "quick", ("coeff-identities", "coeff-ratio-monotone")),
    ("_H_STEP = 1/3", "quick", ("coeff-identities",)),
    ("_A_PART = 2", "quick", ("coeff-identities",)),
    ("_G_SPLIT = 3", "quick", ("coeff-identities",)),
    ("_G_STEP = 1/3", "quick", ("coeff-identities",)),
    ("_log_gap*(1+1e-09)", "full", ("mean-ordering",)),
    ("row a[300]*(1+1e-6)", "full", ("coeff-identities",)),
]


def failing_claims(mp, mutant, profile):
    """The claim ids that fail at profile with the mutant patched in
    through mp, a pytest.MonkeyPatch, in claim order."""
    MUTANTS[mutant](mp)
    reports = verify.run_all(profile)
    for r in reports:
        assert (r.witness is None) == (r.status == "pass"), r
    return tuple(r.claim_id for r in reports if r.status == "fail")


@pytest.mark.parametrize("mutant,profile,failing", MATRIX,
                         ids=[f"{m}-{p}" for m, p, _ in MATRIX])
def test_matrix_row(monkeypatch, mutant, profile, failing):
    assert failing_claims(monkeypatch, mutant, profile) == failing


def test_every_mutant_has_a_quick_row():
    assert sorted(m for m, p, _ in MATRIX if p == "quick") == sorted(MUTANTS)
    assert len({(m, p) for m, p, _ in MATRIX}) == len(MATRIX)


if __name__ == "__main__":
    # one "mutant<TAB>failing claims" line per mutant at the profile; a
    # mutant that makes run_all raise prints the exception instead.  A
    # line that differs from the mutant's MATRIX row at the profile is
    # marked with the row; the last line counts the escapes
    import sys

    if sys.argv[1:] not in (["quick"], ["full"]):
        sys.exit("usage: PYTHONPATH=src python tests/test_mutants.py quick|full")
    profile = sys.argv[1]
    rows = {m: " ".join(failing) for m, p, failing in MATRIX if p == profile}
    escapes = differs = 0
    for name in MUTANTS:
        with pytest.MonkeyPatch.context() as mp:
            try:
                cell = " ".join(failing_claims(mp, name, profile))
            except Exception as exc:
                cell = f"raises {type(exc).__name__}: {exc}"
        escapes += cell == ""
        mark = ""
        if rows.get(name, cell) != cell:
            differs += 1
            mark = f"\tDIFFERS from MATRIX row: {rows[name] or '(escape)'}"
        print(f"{name}\t{cell}{mark}")
    print(f"escapes: {escapes}")
    sys.exit(1 if differs else 0)
