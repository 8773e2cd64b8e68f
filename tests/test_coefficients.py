"""Exact rational sequences: identities, tables, exports."""

import json
import math
import pickle
import random
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


def odd_harmonic_per_term(k):
    """Oracle: sum_{i=1}^{k} 1/(2i-1), term by term."""
    return sum((Fraction(1, 2 * i - 1) for i in range(1, k + 1)), Fraction(0))


class TestWallisRatio:
    @given(st.integers(min_value=0, max_value=40))
    def test_double_factorial_quotient(self, k):
        direct = Fraction(math.prod(range(2 * k - 1, 0, -2)), math.prod(range(2 * k, 0, -2)))
        assert co.wallis_ratio(k) == direct


class TestCommonDenominatorSums:
    """The definitional sums add integer numerators over one common
    denominator; each must equal the per-term Fraction sum exactly."""

    def test_a_sum(self):
        for k in range(0, 201):
            assert co.a_coeff_sum(k) == a_sum_per_term(k), k

    def test_h_and_g_sums(self):
        for k in range(1, 201):
            assert co.h_sum(k) == h_sum_per_term(k), k
            assert co.g_sum(k) == g_sum_per_term(k), k

    def test_odd_harmonic(self):
        for k in range(0, 201):
            assert co.odd_harmonic(k) == odd_harmonic_per_term(k), k


class TestIntegerClosedForms:
    """The closed forms are built as one Fraction from integers; each must
    equal the Fraction expression it replaces, written out here."""

    def test_against_fraction_expressions(self):
        harmonic = Fraction(0)
        for k in range(1, 301):
            w = Fraction(math.comb(2 * k, k), 4**k)
            harmonic += Fraction(1, 2 * k - 1)
            assert co.odd_harmonic(k) == harmonic, k
            assert co.a_coeff_closed(k) == (1 - w * (harmonic - 1)) / (2 * (k + 1)), k
            assert co.h_closed(k) == Fraction(1, 2) - w / 2, k
            assert co.g_closed(k) == w * harmonic / 2, k
            if k >= 2:
                s = Fraction(2 * (k + 1) ** 2, k * (2 * k + 1)) - (harmonic - 1)
                assert co.s_seq(k) == s, k

    def test_independent_of_call_order(self):
        # the closed forms share the odd harmonic sum of the last k asked for
        expected = {}
        harmonic = Fraction(0)
        for k in range(1, 61):
            w = Fraction(math.comb(2 * k, k), 4**k)
            harmonic += Fraction(1, 2 * k - 1)
            expected[co.odd_harmonic, k] = harmonic
            expected[co.a_coeff_closed, k] = (1 - w * (harmonic - 1)) / (2 * (k + 1))
            expected[co.g_closed, k] = w * harmonic / 2
            if k >= 2:
                expected[co.s_seq, k] = Fraction(2 * (k + 1) ** 2, k * (2 * k + 1)) - (harmonic - 1)
        calls = list(expected) * 2
        random.Random(3).shuffle(calls)
        for f, k in calls:
            assert f(k) == expected[f, k], (f.__name__, k)

    def test_odd_harmonic_at_zero(self):
        assert co.odd_harmonic(0) == 0

    def test_results_are_reduced(self):
        for k in (1, 2, 7, 64, 255, 256):
            for f in (co.a_coeff_closed, co.h_closed, co.g_closed, co.s_seq, co.odd_harmonic):
                if f is co.s_seq and k < 2:
                    continue
                v = f(k)
                assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1


class TestBCoefficients:
    def test_first_three(self):
        assert co.b_coeff(0) == 1
        assert co.b_coeff(1) == Fraction(1, 4)
        assert co.b_coeff(2) == Fraction(9, 64)

    @given(st.integers(min_value=0, max_value=60))
    def test_ratio_recurrence(self, k):
        assert co.b_coeff(k + 1) / co.b_coeff(k) == Fraction(
            (2 * k + 1) ** 2, (2 * k + 2) ** 2
        )


class TestACoefficients:
    def test_empty_sum_at_zero(self):
        assert co.a_coeff_sum(0) == 1

    def test_table_values(self):
        for k, expected in enumerate(A_TABLE, start=1):
            assert co.a_coeff_sum(k) == expected
            assert co.a_coeff_closed(k) == expected

    def test_sum_equals_closed(self):
        for k in range(1, 80):
            assert co.a_coeff_sum(k) == co.a_coeff_closed(k)

    def test_strictly_decreasing(self):
        values = [co.a_coeff_sum(k) for k in range(1, 40)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_closed_form_needs_positive_index(self):
        with pytest.raises(ValueError):
            co.a_coeff_closed(0)


class TestSummationIdentities:
    def test_h_base_case(self):
        assert co.h_sum(1) == Fraction(1, 4)
        assert co.h_closed(1) == Fraction(1, 4)

    def test_h_k2(self):
        assert co.h_sum(2) == Fraction(5, 16)
        assert co.h_closed(2) == Fraction(5, 16)

    def test_h_monotone_approach_to_half(self):
        values = [co.h_closed(k) for k in range(1, 60)]
        assert all(x < y for x, y in zip(values, values[1:]))
        assert all(v < Fraction(1, 2) for v in values)
        assert float(Fraction(1, 2) - values[-1]) < 0.07

    def test_g_small(self):
        assert co.g_sum(1) == Fraction(1, 4)
        assert co.g_closed(1) == Fraction(1, 4)
        assert co.g_sum(2) == Fraction(1, 4)
        assert co.g_closed(2) == Fraction(1, 4)
        assert co.g_sum(3) == co.g_closed(3)

    def test_sum_equals_closed(self):
        for k in range(1, 80):
            assert co.h_sum(k) == co.h_closed(k)
            assert co.g_sum(k) == co.g_closed(k)


class TestSignSequence:
    def test_k2(self):
        assert co.s_seq(2) == Fraction(9, 5) - Fraction(1, 3)
        assert co.s_seq(2) == Fraction(22, 15)

    def test_sign_change_exact(self):
        # exact fractions frozen from the rational evaluation
        assert co.s_seq(10) == Fraction(278266, 14549535)
        assert co.s_seq(11) == Fraction(-14233768, 334639305)
        assert co.s_seq(10) > 0 > co.s_seq(11)

    def test_decimal_expansions(self):
        assert float(co.s_seq(10)) == pytest.approx(0.0191254222, abs=1e-10)
        assert float(co.s_seq(11)) == pytest.approx(-0.0425346568, abs=1e-10)

    def test_strictly_decreasing(self):
        values = [co.s_seq(k) for k in range(2, 60)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            co.s_seq(1)


class TestTable:
    def test_frozen_a_column(self):
        table = co.build_table(10)
        assert list(table.a) == A_TABLE

    def test_b_column(self):
        table = co.build_table(2)
        assert list(table.b) == [Fraction(1), Fraction(1, 4), Fraction(9, 64)]

    def test_h_column(self):
        table = co.build_table(3)
        assert list(table.h) == [Fraction(1, 4), Fraction(5, 16), Fraction(11, 32)]

    def test_matches_standalone_functions(self):
        table = co.build_table(30)
        for k in range(1, 31):
            assert table.a_at(k) == co.a_coeff_sum(k)
            assert table.b_at(k) == co.b_coeff(k)
            assert table.h_at(k) == co.h_sum(k)
            assert table.g_at(k) == co.g_sum(k)
            if k >= 2:
                assert table.s_at(k) == co.s_seq(k)

    def test_positive_entries(self):
        table = co.build_table(50)
        assert all(v > 0 for v in table.a)
        assert all(v > 0 for v in table.b)

    def test_index_validation(self):
        table = co.build_table(5)
        with pytest.raises(ValueError):
            table.a_at(0)
        with pytest.raises(ValueError):
            table.s_at(1)
        with pytest.raises(ValueError):
            co.build_table(1)

    @pytest.mark.parametrize("name,minimum", [("a", 1), ("b", 0), ("h", 1), ("g", 1), ("s", 2)])
    def test_index_past_k_max(self, name, minimum):
        table = co.build_table(5)
        at = getattr(table, f"{name}_at")
        assert at(5) == getattr(table, name)[-1]
        for k in (6, 7, 10**6):
            with pytest.raises(ValueError, match=f"k must be <= k_max = 5, got {k}"):
                at(k)
        with pytest.raises(ValueError, match=f"k must be >= {minimum}"):
            at(minimum - 1)

    def test_entries_are_reduced(self):
        # b_k is w_k ** 2, which Fraction builds without a gcd
        table = co.build_table(120)
        for name in ("a", "b", "h", "g", "s"):
            for v in getattr(table, name):
                assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1

    def test_csv_layout(self):
        text = co.build_table(3).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "k,a,b,h,g,s"
        assert lines[1] == "0,,1/1,,,"
        assert lines[2] == "1,1/4,1/4,1/4,1/4,"
        assert lines[3].startswith("2,7/48,9/64,5/16,1/4,22/15")

    def test_json_round_trip(self):
        table = co.build_table(12)
        blob = table.to_json()
        parsed = co.CoefficientTable.from_json_dict(json.loads(blob))
        assert parsed == table

    def test_value_semantics(self):
        table = co.build_table(2)
        fields = (table.k_max, table.a, table.b, table.h, table.g, table.s)
        assert co.CoefficientTable(*fields) == table
        keyword = co.CoefficientTable(
            s=table.s, g=table.g, h=table.h, b=table.b, a=table.a, k_max=2
        )
        assert keyword == table and hash(keyword) == hash(table)
        assert table != co.CoefficientTable(2, table.a, table.b, table.h, table.g, table.s[:0])
        assert repr(table) == (
            "CoefficientTable(k_max=2, a=(Fraction(1, 4), Fraction(7, 48)), "
            "b=(Fraction(1, 1), Fraction(1, 4), Fraction(9, 64)), "
            "h=(Fraction(1, 4), Fraction(5, 16)), g=(Fraction(1, 4), Fraction(1, 4)), "
            "s=(Fraction(22, 15),))"
        )
        assert pickle.loads(pickle.dumps(table)) == table
        with pytest.raises(AttributeError):
            table.k_max = 3
        with pytest.raises(AttributeError):
            del table.a
        assert table.k_max == 2 and len(table.a) == 2

    @pytest.mark.parametrize("k_max", [2, 11, 50, 500])
    def test_json_text_equals_json_dumps(self, k_max):
        table = co.build_table(k_max)

        def cell(v):
            return {"numerator": str(v.numerator), "denominator": str(v.denominator)}

        rows = []
        for k in range(k_max + 1):
            row = {"k": k, "b": cell(table.b_at(k))}
            if k >= 1:
                row.update(a=cell(table.a_at(k)), h=cell(table.h_at(k)), g=cell(table.g_at(k)))
            if k >= 2:
                row["s"] = cell(table.s_at(k))
            rows.append(row)
        expected = json.dumps({"k_max": k_max, "rows": rows}, sort_keys=True)
        assert table.to_json() == expected

    @pytest.mark.parametrize("k_max", [2, 3, 11, 50])
    def test_streamed_rows_equal_stored_rows(self, k_max):
        rows = list(co.table_rows(k_max))
        assert rows == list(co.build_table(k_max).rows())
        assert [row[0] for row in rows] == list(range(k_max + 1))
        # None exactly where a sequence is not defined: a, h, g at k = 0, s below 2
        assert [[v is None for v in row[1:]] for row in rows[:3]] == [
            [True, False, True, True, True],
            [False, False, False, False, True],
            [False, False, False, False, False],
        ]

    @pytest.mark.parametrize("k_max", [1, 0, -1, 2.0, True])
    def test_table_rows_checks_k_max_at_the_call(self, k_max):
        # a generator would check only at the first next(); this must not
        with pytest.raises(ValueError, match="k_max must be"):
            co.table_rows(k_max)

    def test_formatters_write_once_per_row(self):
        table = co.build_table(11)
        csv_parts, json_parts = [], []
        co.write_csv(co.table_rows(11), csv_parts.append)
        co.write_json(11, co.table_rows(11), json_parts.append)
        assert len(csv_parts) == 1 + 12  # header, then one line per row
        assert len(json_parts) == 12 + 2  # head, one part per row, tail
        assert "".join(csv_parts) == table.to_csv()
        assert "".join(json_parts) == table.to_json()

    def test_json_uses_decimal_strings(self):
        data = json.loads(co.build_table(2).to_json())
        cell = data["rows"][1]["a"]
        assert cell == {"numerator": "1", "denominator": "4"}
