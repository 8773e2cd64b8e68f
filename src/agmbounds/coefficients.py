"""Exact rational sequences behind the mean-ratio monotonicity argument.

Everything here is computed in arbitrary-precision rational arithmetic
(fractions.Fraction over Python ints); no rounding ever occurs.  The
module provides the Wallis quotient, the series coefficients a_k and b_k,
the summation identities h(k) and g(k) with their closed forms, the
sign-changing sequence S_k, and one O(1)-per-index recurrence for all
sequences.  table_rows streams that recurrence one row at a time;
build_table collects the same rows into a CoefficientTable.  The CSV
and JSON formatters, write_csv and write_json, take any such rows and a
write callable, so the CLI prints rows as they are produced without
holding the table or its text, and CoefficientTable.to_csv and to_json
run the same formatters over the stored rows.  CoefficientTable is a
plain immutable class on means.Record, and the JSON text is written
directly, so no table output needs class generation at import or the
json module.

Double factorials enter only through the ratio
(2k-1)!!/(2k)!! = C(2k,k)/4^k, so one recurrence serves every sequence.
Gamma/digamma closed forms are pre-reduced to rationals via
Gamma(k+1/2)/(sqrt(pi) Gamma(k+1)) = C(2k,k)/4^k and
psi(k+1/2) = -gamma - 2 ln 2 + 2 sum_{i<=k} 1/(2i-1), making every
identity exactly decidable.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from agmbounds.means import Record, set_fields


def _check_index(k: int, minimum: int, name: str = "k") -> int:
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"{name} must be an integer, got {k!r}")
    if k < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {k}")
    return k


def wallis_ratio(k: int) -> Fraction:
    """(2k-1)!!/(2k)!! = C(2k, k)/4^k, the Wallis quotient."""
    _check_index(k, 0)
    return Fraction(comb(2 * k, k), 4**k)


@lru_cache(maxsize=1)
def _odd_harmonic_parts(k: int) -> tuple[int, int]:
    # sum_{i=1}^{k} 1/(2i-1) as an unreduced (numerator, denominator) pair
    # over the common denominator lcm(1, 3, ..., 2k-1); (0, 1) at k = 0.
    # The last k is kept, so a_coeff_closed, g_closed and s_seq at one k,
    # called in turn as the coeff-identities sweep calls them, share one
    # sum, whose O(k) big-integer divisions are most of the cost of each.
    den = lcm(*range(1, 2 * k, 2))
    return sum(den // (2 * i - 1) for i in range(1, k + 1)), den


def odd_harmonic(k: int) -> Fraction:
    """sum_{i=1}^{k} 1/(2i-1); zero at k = 0.

    The terms are added as integer numerators over their common
    denominator lcm(1, 3, ..., 2k-1), and reduced once at the end.
    """
    _check_index(k, 0)
    return Fraction(*_odd_harmonic_parts(k))


def b_coeff(k: int) -> Fraction:
    """b_k = [C(2k,k)]^2 / 2^(4k): coefficient of (1-t^2)^k in (2/pi)K."""
    _check_index(k, 0)
    return Fraction(comb(2 * k, k) ** 2, 16**k)


def _binomial_sum(dens: list[int]) -> Fraction:
    """sum_{i=1}^{k} C(2i-2, i-1) / (dens[i-1] 4^i) with k = len(dens),
    added as integer numerators over lcm(dens) * 4^k and reduced once at
    the end."""
    k = len(dens)
    base = lcm(*dens)
    num = 0
    c = 1  # C(2i-2, i-1), updated incrementally
    for i, d in enumerate(dens, start=1):
        num += (c << (2 * (k - i))) * (base // d)
        c = c * 2 * (2 * i - 1) // i
    return Fraction(num, base << (2 * k))


def a_coeff_sum(k: int) -> Fraction:
    """a_k from its defining sum:
    1/(k+1) - (1/2) sum_{i=1}^{k} (2i-1)!!/[(2i)!! (2i-1) (k-i+1)].

    Term i equals C(2i-2, i-1) / (i (k-i+1) 4^i), since
    (2i-1)!!/(2i)!! = C(2i,i)/4^i = 2(2i-1) C(2i-2,i-1)/(i 4^i).  The
    empty sum at k = 0 leaves a_0 = 1.
    """
    _check_index(k, 0)
    return Fraction(1, k + 1) - _binomial_sum([i * (k - i + 1) for i in range(1, k + 1)])


def a_coeff_closed(k: int) -> Fraction:
    """a_k in closed form after the digamma reduction:
    (1/(2(k+1))) [1 - (C(2k,k)/4^k)(sum_{i=1}^{k} 1/(2i-1) - 1)].

    Equals a_coeff_sum(k) exactly for every k >= 1.  Built from integers:
    with the odd harmonic sum num/den, it is
    (4^k den - C(2k,k)(num - den)) / (2(k+1) 4^k den), reduced once.
    """
    _check_index(k, 1)
    num, den = _odd_harmonic_parts(k)
    return Fraction(
        (den << (2 * k)) - comb(2 * k, k) * (num - den), (k + 1) * den << (2 * k + 1)
    )


def h_sum(k: int) -> Fraction:
    """h(k) = sum_{i=1}^{k} C(2i-2, i-1) / (i 4^i)."""
    _check_index(k, 1)
    return _binomial_sum(list(range(1, k + 1)))


def h_closed(k: int) -> Fraction:
    """h(k) = 1/2 - (2/4^(k+1)) C(2k, k) = (4^k - C(2k,k)) / (2 4^k);
    equals h_sum(k) exactly."""
    _check_index(k, 1)
    return Fraction((1 << (2 * k)) - comb(2 * k, k), 1 << (2 * k + 1))


def g_sum(k: int) -> Fraction:
    """g(k) = sum_{i=1}^{k} C(2i-2, i-1) / ((k-i+1) 4^i)."""
    _check_index(k, 1)
    return _binomial_sum([k - i + 1 for i in range(1, k + 1)])


def g_closed(k: int) -> Fraction:
    """g(k) reduced to the exact rational
    (C(2k,k)/4^k) * (1/2) * sum_{i=1}^{k} 1/(2i-1).

    The Gamma/digamma/log-2/Euler-gamma terms of the analytic form cancel
    under the standard reductions; equals g_sum(k) exactly.  With the odd
    harmonic sum num/den it is C(2k,k) num / (2 4^k den), reduced once.
    """
    _check_index(k, 1)
    num, den = _odd_harmonic_parts(k)
    return Fraction(comb(2 * k, k) * num, den << (2 * k + 1))


def s_seq(k: int) -> Fraction:
    """S_k = 2(k+1)^2/(k(2k+1)) - sum_{i=2}^{k} 1/(2i-1) for k >= 2.

    Strictly decreasing, with exactly one sign change: S_10 > 0 > S_11.
    With the odd harmonic sum num/den it is
    (2(k+1)^2 den - k(2k+1)(num - den)) / (k(2k+1) den), reduced once.
    """
    _check_index(k, 2)
    num, den = _odd_harmonic_parts(k)
    kk = k * (2 * k + 1)
    return Fraction(2 * (k + 1) ** 2 * den - kk * (num - den), kk * den)


class CoefficientTable(Record):
    """Exact values of a_k, b_k, h(k), g(k), S_k up to k_max.

    Index ranges: a, h, g cover k = 1..k_max; b covers k = 0..k_max;
    s covers k = 2..k_max.  Immutable after construction.
    """

    _fields = ("k_max", "a", "b", "h", "g", "s")

    def __init__(self, k_max: int, a: tuple[Fraction, ...], b: tuple[Fraction, ...],
                 h: tuple[Fraction, ...], g: tuple[Fraction, ...], s: tuple[Fraction, ...]):
        set_fields(self, {"k_max": k_max, "a": a, "b": b, "h": h, "g": g, "s": s})

    def _at(self, values: tuple[Fraction, ...], k: int, minimum: int) -> Fraction:
        _check_index(k, minimum)
        if k > self.k_max:
            raise ValueError(f"k must be <= k_max = {self.k_max}, got {k}")
        return values[k - minimum]

    def a_at(self, k: int) -> Fraction:
        return self._at(self.a, k, 1)

    def b_at(self, k: int) -> Fraction:
        return self._at(self.b, k, 0)

    def h_at(self, k: int) -> Fraction:
        return self._at(self.h, k, 1)

    def g_at(self, k: int) -> Fraction:
        return self._at(self.g, k, 1)

    def s_at(self, k: int) -> Fraction:
        return self._at(self.s, k, 2)

    def rows(self):
        """The stored values as rows (k, a, b, h, g, s) for k = 0..k_max,
        with None where a sequence is not defined at k."""
        return zip(range(self.k_max + 1), (None, *self.a), self.b, (None, *self.h),
                   (None, *self.g), (None, None, *self.s))

    def to_csv(self) -> str:
        """CSV rows k=0..k_max with exact "numerator/denominator" cells;
        blank where a sequence is not defined at k."""
        parts: list[str] = []
        write_csv(self.rows(), parts.append)
        return "".join(parts)

    def to_json(self) -> str:
        """Exact JSON form, with each value's numerator and denominator as
        decimal strings: {"k_max": n, "rows": [{"a": .., "b": .., "g": ..,
        "h": .., "k": k, "s": ..}, ...]}, keys sorted and each key present
        where its sequence is defined.  The text equals json.dumps of that
        object with sort_keys=True, written without the json module."""
        parts: list[str] = []
        write_json(self.k_max, self.rows(), parts.append)
        return "".join(parts)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoefficientTable":
        """Lossless inverse of to_json, applied to its parsed text."""
        k_max = data["k_max"]
        by_k = {row["k"]: row for row in data["rows"]}
        return cls(
            k_max=k_max,
            a=tuple(_frac_parse(by_k[k]["a"]) for k in range(1, k_max + 1)),
            b=tuple(_frac_parse(by_k[k]["b"]) for k in range(k_max + 1)),
            h=tuple(_frac_parse(by_k[k]["h"]) for k in range(1, k_max + 1)),
            g=tuple(_frac_parse(by_k[k]["g"]) for k in range(1, k_max + 1)),
            s=tuple(_frac_parse(by_k[k]["s"]) for k in range(2, k_max + 1)),
        )


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _frac_json(v: Fraction) -> str:
    return f'{{"denominator": "{v.denominator}", "numerator": "{v.numerator}"}}'


def _frac_parse(obj: dict) -> Fraction:
    return Fraction(int(obj["numerator"]), int(obj["denominator"]))


def write_csv(rows, write) -> None:
    """Write the CSV form of rows (k, a, b, h, g, s), with None where a
    sequence is not defined, through one write call per line."""
    write("k,a,b,h,g,s\n")
    for k, *values in rows:
        write(f"{k},{','.join('' if v is None else _frac_str(v) for v in values)}\n")


def write_json(k_max: int, rows, write) -> None:
    """Write the JSON form of CoefficientTable.to_json from rows
    (k, a, b, h, g, s), with None where a sequence is not defined, through
    one write call per row; no trailing newline."""
    write(f'{{"k_max": {k_max}, "rows": [')
    sep = ""
    for k, a, b, h, g, s in rows:
        cells = [f'"{name}": {_frac_json(v)}'
                 for name, v in (("a", a), ("b", b), ("g", g), ("h", h)) if v is not None]
        cells.append(f'"k": {k}')
        if s is not None:
            cells.append(f'"s": {_frac_json(s)}')
        write(f'{sep}{{{", ".join(cells)}}}')
        sep = ", "
    write("]}")


def table_rows(k_max: int):
    """Rows (k, a, b, h, g, s) for k = 0..k_max, with None where a
    sequence is not defined at k, computed one index at a time.

    k_max is checked at the call, before the first row, so a caller can
    stream the rows and still fail before writing anything.
    """
    _check_index(k_max, 2, "k_max")
    return _rows(k_max)


def _rows(k_max: int):
    # Shared state: w_k = C(2k,k)/4^k (ratio recurrence), the odd
    # harmonic partial sum H_k, and their product w_k H_k, which gives both
    # g_k = w_k H_k / 2 and a_k = (1 + w_k - w_k H_k) / (2(k+1)).  b_k is
    # w_k ** 2: the square of a reduced fraction is reduced, and
    # Fraction.__pow__ takes no gcd.
    w = Fraction(1)
    harmonic = Fraction(0)
    yield 0, None, w, None, None, None
    for k in range(1, k_max + 1):
        w *= Fraction(2 * k - 1, 2 * k)
        harmonic += Fraction(1, 2 * k - 1)
        wh = w * harmonic
        s = Fraction(2 * (k + 1) ** 2, k * (2 * k + 1)) - (harmonic - 1) if k >= 2 else None
        yield k, (1 + w - wh) / (2 * (k + 1)), w**2, Fraction(1, 2) - w / 2, wh / 2, s


def build_table(k_max: int) -> CoefficientTable:
    """All sequences up to k_max via O(1)-per-index recurrences: the
    rows of table_rows, collected into the table's tuples.

    Reductions of big numerators and denominators are most of the cost;
    the definitional sums are quadratic and live in the verification
    layer as the independent cross-check.
    """
    _, a, b, h, g, s = zip(*table_rows(k_max))
    return CoefficientTable(k_max=k_max, a=a[1:], b=b, h=h[1:], g=g[1:], s=s[2:])
