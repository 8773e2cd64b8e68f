"""Exact rational sequences: identities, tables, exports."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agmbounds import coefficients as co

# first ten a_k, exact
A_TABLE = [
    Fraction(1, 4),
    Fraction(7, 48),
    Fraction(5, 48),
    Fraction(313, 3840),
    Fraction(43, 640),
    Fraction(12317, 215040),
    Fraction(10751, 215040),
    Fraction(183349, 4128768),
    Fraction(206329, 5160960),
    Fraction(66087019, 1816657920),
]


def a_sum_per_term(k):
    """Oracle: a_k's defining sum with one normalised Fraction per term."""
    acc = Fraction(1, k + 1)
    w = Fraction(1)
    for i in range(1, k + 1):
        w *= Fraction(2 * i - 1, 2 * i)
        acc -= w / (2 * (2 * i - 1) * (k - i + 1))
    return acc


def h_sum_per_term(k):
    """Oracle: sum_{i=1}^{k} C(2i-2, i-1) / (i 4^i), term by term."""
    return sum(
        (Fraction(math.comb(2 * i - 2, i - 1), i * 4**i) for i in range(1, k + 1)),
        Fraction(0),
    )


def g_sum_per_term(k):
    """Oracle: sum_{i=1}^{k} C(2i-2, i-1) / ((k-i+1) 4^i), term by term."""
    acc = Fraction(0)
    w = Fraction(1)
    for i in range(1, k + 1):
        acc += w / (4 * (k - i + 1))
        w *= Fraction(2 * i - 1, 2 * i)
    return acc


def _binomial_sum(dens):
    """sum_{i=1}^{k} C(2i-2, i-1) / (dens[i-1] 4^i) with k = len(dens),
    added as integer numerators over lcm(dens) * 4^k, unreduced."""
    k = len(dens)
    base = math.lcm(*dens)
    num = 0
    c = 1  # C(2i-2, i-1), updated incrementally
    for i, d in enumerate(dens, start=1):
        num += (c << (2 * (k - i))) * (base // d)
        c = c * 2 * (2 * i - 1) // i
    return num, base << (2 * k)


def _reduced(num, den):
    g = math.gcd(num, den)
    return num // g, den // g


def a_coeff_sum(k):
    """Oracle: a_k from its defining sum over one common denominator,
    1/(k+1) - (1/2) sum_{i=1}^{k} (2i-1)!!/[(2i)!! (2i-1) (k-i+1)], whose
    term i is C(2i-2, i-1) / (i (k-i+1) 4^i), as a reduced pair."""
    num, den = _binomial_sum([i * (k - i + 1) for i in range(1, k + 1)])
    return _reduced(den - (k + 1) * num, (k + 1) * den)


def h_sum(k):
    """Oracle: h(k) = sum_{i=1}^{k} C(2i-2, i-1) / (i 4^i), as a reduced pair."""
    return _reduced(*_binomial_sum(list(range(1, k + 1))))


def g_sum(k):
    """Oracle: g(k) = sum_{i=1}^{k} C(2i-2, i-1) / ((k-i+1) 4^i), as a
    reduced pair."""
    return _reduced(*_binomial_sum([k - i + 1 for i in range(1, k + 1)]))


def pair(x):
    """The (numerator, denominator) pair that stands for the Fraction x."""
    return x.numerator, x.denominator


def value(x):
    """The Fraction that the (numerator, denominator) pair x stands for."""
    return Fraction(*x)


# Column of each sequence in a row (k, a, b, h, g, s).
COLUMN = {"a": 1, "b": 2, "h": 3, "g": 4, "s": 5}


def closed_rows(k_max):
    """Oracle: rows (k, a, b, h, g, s) for k = 0..k_max from the closed
    forms, in the shape of a table_rows row, with None where a sequence is
    not defined at k (a, h and g below 1, s below 2):

        b_k  = C(2k,k)^2 / 2^(4k);
        a_k  = (1/(2(k+1))) [1 - (C(2k,k)/4^k)(H_k - 1)];
        h(k) = 1/2 - (2/4^(k+1)) C(2k,k);
        g(k) = (C(2k,k)/4^k) H_k / 2;
        S_k  = 2(k+1)^2/(k(2k+1)) - (H_k - 1),

    with H_k = sum_{i=1}^{k} 1/(2i-1), in one sweep: H_k = num/D over one
    D = lcm(1, 3, ..., 2k_max-1), num carried from k to k, and C(2k,k) =
    C(2k-2,k-1) 2(2k-1)/k.  Each cell is built from integers over one
    common denominator and reduced by one gcd, independently of the
    recurrence of table_rows; any common multiple of 1, 3, ..., 2k-1 gives
    the same reduced cells."""
    den, c, num = math.lcm(*range(1, 2 * k_max, 2)), 1, 0
    yield _closed_cells(0, c, num, den)
    for k in range(1, k_max + 1):
        c, num = c * 2 * (2 * k - 1) // k, num + den // (2 * k - 1)
        yield _closed_cells(k, c, num, den)


def _closed_cells(k, c, num, den):
    # the closed-form cells of row k from c = C(2k,k) and H_k = num/den
    b = _reduced(c * c, 1 << (4 * k))
    if k == 0:
        return 0, None, b, None, None, None
    a = _reduced((den << (2 * k)) - c * (num - den), (k + 1) * den << (2 * k + 1))
    h = _reduced((1 << (2 * k)) - c, 1 << (2 * k + 1))
    g = _reduced(c * num, den << (2 * k + 1))
    s = None
    if k >= 2:
        kk = k * (2 * k + 1)
        s = _reduced(2 * (k + 1) ** 2 * den - kk * (num - den), kk * den)
    return k, a, b, h, g, s


CLOSED = tuple(closed_rows(300))


def closed(name, k):
    """The cell of sequence name at index k <= 300 from the oracle."""
    return CLOSED[k][COLUMN[name]]


class TestWallisRatio:
    @given(st.integers(min_value=1, max_value=40))
    def test_double_factorial_quotient(self, k):
        # w_k = 1 - 2h(k) of the rows, the quotient the verifier's Wallis
        # step holds them to
        direct = Fraction(math.prod(range(2 * k - 1, 0, -2)), math.prod(range(2 * k, 0, -2)))
        assert 1 - 2 * value(list(co.table_rows(40))[k][COLUMN["h"]]) == direct


class TestCommonDenominatorSums:
    """The package evaluates no definitional sum: the verifier proves by
    induction that the rows equal them for every k.  The sums here, the
    tests' oracle, add integer numerators over one common denominator;
    each must equal the per-term Fraction sum exactly."""

    def test_a_sum(self):
        for k in range(0, 201):
            assert value(a_coeff_sum(k)) == a_sum_per_term(k), k

    def test_h_and_g_sums(self):
        for k in range(1, 201):
            assert value(h_sum(k)) == h_sum_per_term(k), k
            assert value(g_sum(k)) == g_sum_per_term(k), k


class TestIntegerClosedForms:
    """The oracle builds each cell as one reduced pair from integers; each
    must stand for the Fraction expression it replaces, written out here."""

    def test_against_fraction_expressions(self):
        harmonic = Fraction(0)
        for k in range(0, 301):
            w = Fraction(math.comb(2 * k, k), 4**k)
            if k >= 1:
                harmonic += Fraction(1, 2 * k - 1)
            expected = [
                (1 - w * (harmonic - 1)) / (2 * (k + 1)) if k >= 1 else None,
                w * w,
                Fraction(1, 2) - w / 2 if k >= 1 else None,
                w * harmonic / 2 if k >= 1 else None,
                Fraction(2 * (k + 1) ** 2, k * (2 * k + 1)) - (harmonic - 1) if k >= 2 else None,
            ]
            assert CLOSED[k] == (k, *(None if x is None else pair(x) for x in expected)), k

    def test_results_are_reduced(self):
        # every oracle cell is the pair of ints in lowest terms with a
        # positive denominator that Fraction would hold
        for row in CLOSED:
            for n, d in [c for c in row[1:] if c is not None]:
                assert type(n) is int and type(d) is int, row[0]
                assert d > 0 and math.gcd(n, d) == 1, row[0]

    def test_undefined_cells_at_zero_and_one(self):
        # None exactly where table_rows puts it: a, h, g at k = 0, s below 2
        assert CLOSED[0] == (0, None, (1, 1), None, None, None)
        assert [c is None for c in CLOSED[1][1:]] == [False] * 4 + [True]

    @pytest.mark.parametrize("k_max", [2, 11, 50, 600])
    def test_sweep_depth_leaves_the_cells(self, k_max):
        # a deeper sweep carries H_k over a larger common denominator,
        # lcm(1, 3, ..., 2k_max-1), and reduces to the same cells
        n = min(k_max, 300) + 1
        assert tuple(closed_rows(k_max))[:n] == CLOSED[:n]

    @given(st.integers(min_value=2, max_value=60))
    def test_sweep_depth_leaves_the_cells_drawn(self, k_max):
        assert tuple(closed_rows(k_max)) == CLOSED[:k_max + 1]


class TestBCoefficients:
    def test_first_three(self):
        assert value(closed("b", 0)) == 1
        assert value(closed("b", 1)) == Fraction(1, 4)
        assert value(closed("b", 2)) == Fraction(9, 64)

    @given(st.integers(min_value=0, max_value=60))
    def test_ratio_recurrence(self, k):
        assert value(closed("b", k + 1)) / value(closed("b", k)) == Fraction(
            (2 * k + 1) ** 2, (2 * k + 2) ** 2
        )


class TestACoefficients:
    def test_empty_sum_at_zero(self):
        assert value(a_coeff_sum(0)) == 1

    def test_table_values(self):
        for k, expected in enumerate(A_TABLE, start=1):
            assert value(a_coeff_sum(k)) == expected
            assert value(closed("a", k)) == expected

    def test_sum_equals_closed(self):
        for k in range(1, 201):
            assert a_coeff_sum(k) == closed("a", k), k

    def test_strictly_decreasing(self):
        values = [value(a_coeff_sum(k)) for k in range(1, 40)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_closed_form_needs_positive_index(self):
        assert closed("a", 0) is None


class TestSummationIdentities:
    def test_h_base_case(self):
        assert value(h_sum(1)) == Fraction(1, 4)
        assert value(closed("h", 1)) == Fraction(1, 4)

    def test_h_k2(self):
        assert value(h_sum(2)) == Fraction(5, 16)
        assert value(closed("h", 2)) == Fraction(5, 16)

    def test_h_monotone_approach_to_half(self):
        values = [value(closed("h", k)) for k in range(1, 60)]
        assert all(x < y for x, y in zip(values, values[1:]))
        assert all(v < Fraction(1, 2) for v in values)
        assert float(Fraction(1, 2) - values[-1]) < 0.07

    def test_g_small(self):
        assert value(g_sum(1)) == Fraction(1, 4)
        assert value(closed("g", 1)) == Fraction(1, 4)
        assert value(g_sum(2)) == Fraction(1, 4)
        assert value(closed("g", 2)) == Fraction(1, 4)
        assert g_sum(3) == closed("g", 3)

    def test_sum_equals_closed(self):
        for k in range(1, 201):
            assert h_sum(k) == closed("h", k), k
            assert g_sum(k) == closed("g", k), k


class TestSignSequence:
    def test_k2(self):
        assert value(closed("s", 2)) == Fraction(9, 5) - Fraction(1, 3)
        assert value(closed("s", 2)) == Fraction(22, 15)

    def test_sign_change_exact(self):
        # exact fractions frozen from the rational evaluation
        assert value(closed("s", 10)) == Fraction(278266, 14549535)
        assert value(closed("s", 11)) == Fraction(-14233768, 334639305)
        assert value(closed("s", 10)) > 0 > value(closed("s", 11))

    def test_decimal_expansions(self):
        assert float(value(closed("s", 10))) == pytest.approx(0.0191254222, abs=1e-10)
        assert float(value(closed("s", 11))) == pytest.approx(-0.0425346568, abs=1e-10)

    def test_strictly_decreasing(self):
        values = [value(closed("s", k)) for k in range(2, 60)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_requires_k_at_least_two(self):
        assert closed("s", 1) is None


def column(k_max, index, first):
    """Column index of the rows up to k_max, from row first on."""
    return [row[index] for row in co.table_rows(k_max)][first:]


def csv_text(k_max):
    return "".join(co.csv_lines(co.table_rows(k_max)))


def json_text(k_max):
    return "".join(co.json_pieces(k_max, co.table_rows(k_max)))


class TestTable:
    def test_frozen_a_column(self):
        assert column(10, 1, 1) == [pair(a) for a in A_TABLE]

    def test_b_column(self):
        assert column(2, 2, 0) == [(1, 1), (1, 4), (9, 64)]

    def test_h_column(self):
        assert column(3, 3, 1) == [(1, 4), (5, 16), (11, 32)]

    def test_matches_standalone_functions(self):
        for k, a, b, h, g, s in list(co.table_rows(30))[1:]:
            assert a == a_coeff_sum(k)
            assert b == closed("b", k)
            assert h == h_sum(k)
            assert g == g_sum(k)
            if k >= 2:
                assert s == closed("s", k)

    def test_positive_entries(self):
        assert all(n > 0 for n, _ in column(50, 1, 1))
        assert all(n > 0 for n, _ in column(50, 2, 0))

    def test_entries_are_reduced(self):
        # b_k = W^2/2^(2e) and h(k) = (2^e - W)/2^(e+1) are built without a gcd
        for row in co.table_rows(120):
            for cell in row[1:]:
                if cell is not None:
                    n, d = cell
                    assert d > 0 and math.gcd(n, d) == 1

    def test_row_contract(self):
        # every row equals the oracle's row, and every cell is a pair of
        # ints in lowest terms with a positive denominator; k = 1023, 1024
        # and 1200 put popcount(k), the twos of C(2k,k), at its edges
        for row, closed in zip(co.table_rows(1200), closed_rows(1200), strict=True):
            k = row[0]
            assert row == closed, k
            for cell in row[1:]:
                if cell is not None:
                    n, d = cell
                    assert type(n) is int and type(d) is int, k
                    assert d > 0 and math.gcd(n, d) == 1, k

    def test_one_large_gcd_per_row(self, monkeypatch):
        # The rows take at most one gcd per index with both operands wider
        # than 64 bits; Fraction arithmetic takes several (through
        # math.gcd), so this guards the cost without timing it.
        exact = math.gcd
        large = []

        def counting_gcd(x, y):
            if x.bit_length() > 64 and y.bit_length() > 64:
                large.append((x, y))
            return exact(x, y)

        monkeypatch.setattr(co, "gcd", counting_gcd)
        monkeypatch.setattr(math, "gcd", counting_gcd)  # Fraction reduces through math.gcd
        for _ in co.table_rows(500):
            pass
        assert 0 < len(large) <= 500

    def test_csv_layout(self):
        lines = csv_text(3).strip().split("\n")
        assert lines[0] == "k,a,b,h,g,s"
        assert lines[1] == "0,,1/1,,,"
        assert lines[2] == "1,1/4,1/4,1/4,1/4,"
        assert lines[3].startswith("2,7/48,9/64,5/16,1/4,22/15")

    def test_json_round_trip(self):
        data = json.loads(json_text(12))
        assert data["k_max"] == 12
        parsed = [
            (row["k"], *((int(row[name]["numerator"]), int(row[name]["denominator"]))
                         if name in row else None for name in "abhgs"))
            for row in data["rows"]
        ]
        assert parsed == list(co.table_rows(12))

    @pytest.mark.parametrize("k_max", [2, 11, 50, 500])
    def test_json_text_equals_json_dumps(self, k_max):
        def cell(v):
            n, d = v
            return {"numerator": str(n), "denominator": str(d)}

        # the oracle's rows, independent of table_rows and json_pieces
        rows = []
        for closed in closed_rows(k_max):
            row = {"k": closed[0]}
            for name, c in zip("abhgs", closed[1:]):
                if c is not None:
                    row[name] = cell(c)
            rows.append(row)
        expected = json.dumps({"k_max": k_max, "rows": rows}, sort_keys=True)
        assert json_text(k_max) == expected

    @pytest.mark.parametrize("k_max", [2, 3, 11, 50])
    def test_row_layout(self, k_max):
        rows = list(co.table_rows(k_max))
        assert [row[0] for row in rows] == list(range(k_max + 1))
        # None exactly where a sequence is not defined: a, h, g at k = 0, s below 2
        assert [[v is None for v in row[1:]] for row in rows] == [
            [True, False, True, True, True],
            [False, False, False, False, True],
            *[[False] * 5] * (k_max - 1),
        ]

    @pytest.mark.parametrize("k_max", [1, 0, -1, 2.0, True])
    def test_table_rows_checks_k_max_at_the_call(self, k_max):
        # a generator would check only at the first next(); this must not
        with pytest.raises(ValueError, match="k_max must be"):
            co.table_rows(k_max)

    def test_formatters_write_once_per_row(self):
        csv_parts = list(co.csv_lines(co.table_rows(11)))
        json_parts = list(co.json_pieces(11, co.table_rows(11)))
        assert len(csv_parts) == 1 + 12  # header, then one line per row
        assert len(json_parts) == 12 + 2  # head, one part per row, tail

    def test_json_uses_decimal_strings(self):
        cell = json.loads(json_text(2))["rows"][1]["a"]
        assert cell == {"numerator": "1", "denominator": "4"}
