"""Exact rational sequences behind the mean-ratio monotonicity argument.

Everything here is exact arithmetic over Python ints; no rounding ever
occurs.  The module provides the Wallis quotient, the closed forms of
a_k, b_k, h(k), g(k) and the sign-changing sequence S_k, which
closed_row gives as one row (k, a, b, h, g, s) per index and closed_rows
as one sweep of rows, and one O(1)-per-index recurrence for all
sequences, which table_rows streams as rows of the same shape, one index
at a time.  No sum of the paper is evaluated: the verifier's
certificates tie them to the closed forms for every k.  Every value,
from a closed form or a row, is a (numerator, denominator) pair of ints
in lowest terms with a positive denominator, so Fraction(*x) is the
value; the module never imports fractions.  Each closed-form cell is
built from integers over one common denominator and reduced by one gcd;
the recurrence keeps integer state and reduces each row with at most one
gcd of two large operands.  Both the coeffs command and the verifier
read the rows.  The CSV and JSON formatters, csv_lines and json_pieces,
are generators of the text of one row at a time, so the CLI prints rows
as they are produced without holding them or their text.  The JSON text
is built directly, so no table output needs the json module, and the
module imports nothing from the floating layers.

Double factorials enter only through the ratio
(2k-1)!!/(2k)!! = C(2k,k)/4^k, so one recurrence serves every sequence.
Gamma/digamma closed forms are pre-reduced to rationals via
Gamma(k+1/2)/(sqrt(pi) Gamma(k+1)) = C(2k,k)/4^k and
psi(k+1/2) = -gamma - 2 ln 2 + 2 sum_{i<=k} 1/(2i-1), making every
identity exactly decidable.
"""

from math import comb, gcd, lcm


def _check_index(k: int, minimum: int, name: str = "k") -> int:
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"{name} must be an integer, got {k!r}")
    if k < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {k}")
    return k


def _reduced(num: int, den: int) -> tuple[int, int]:
    # num/den, den > 0, in lowest terms
    g = gcd(num, den)
    return num // g, den // g


def wallis_ratio(k: int) -> tuple[int, int]:
    """(2k-1)!!/(2k)!! = C(2k, k)/4^k, the Wallis quotient."""
    _check_index(k, 0)
    return _reduced(comb(2 * k, k), 1 << (2 * k))


def closed_row(k: int):
    """Row (k, a, b, h, g, s) of index k from the closed forms, in the
    shape of a table_rows row, with None where a sequence is not defined
    at k (a, h and g below 1, s below 2):

        b_k  = C(2k,k)^2 / 2^(4k), the coefficient of (1-t^2)^k in (2/pi)K;
        a_k  = (1/(2(k+1))) [1 - (C(2k,k)/4^k)(H_k - 1)];
        h(k) = 1/2 - (2/4^(k+1)) C(2k,k);
        g(k) = (C(2k,k)/4^k) H_k / 2;
        S_k  = 2(k+1)^2/(k(2k+1)) - (H_k - 1),

    with H_k = sum_{i=1}^{k} 1/(2i-1).  The a_k and g(k) forms are the
    digamma reductions of the analytic forms, whose Gamma, log-2 and
    Euler-gamma terms cancel; S_k is strictly decreasing, with exactly one
    sign change: S_10 > 0 > S_11.  H_k is summed per call, as num/den over
    den = lcm(1, 3, ..., 2k-1), and each cell is built from integers over
    one common denominator and reduced by one gcd, so the row is the
    reference the recurrence of table_rows is tested against.
    """
    _check_index(k, 0)
    den = lcm(*range(1, 2 * k, 2))
    return _closed_cells(k, comb(2 * k, k), sum(den // (2 * i - 1) for i in range(1, k + 1)), den)


def closed_rows(k_max: int):
    """closed_row(k) for k = 0..k_max in one sweep, with k_max checked at
    the call as in table_rows: H_k = num/D over one D = lcm(1, 3, ...,
    2k_max-1), num carried from k to k, and C(2k,k) = C(2k-2,k-1)
    2(2k-1)/k.  Any common multiple of 1, 3, ..., 2k-1 gives the same
    reduced cells, so each row equals closed_row(k).
    """
    _check_index(k_max, 2, "k_max")
    return _closed_sweep(k_max)


def _closed_sweep(k_max: int):
    den, c, num = lcm(*range(1, 2 * k_max, 2)), 1, 0
    yield _closed_cells(0, c, num, den)
    for k in range(1, k_max + 1):
        c, num = c * 2 * (2 * k - 1) // k, num + den // (2 * k - 1)
        yield _closed_cells(k, c, num, den)


def _closed_cells(k: int, c: int, num: int, den: int):
    # closed_row's cells from c = C(2k,k) and H_k = num/den
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


def _cell_json(name: str, cell, before: str = "", after: str = ", ") -> str:
    # '"name": {"denominator": "d", "numerator": "n"}' between before and
    # after, or nothing where the sequence is not defined
    if cell is None:
        return ""
    return f'{before}"{name}": {{"denominator": "{cell[1]}", "numerator": "{cell[0]}"}}{after}'


def csv_lines(rows):
    """The CSV form of rows (k, a, b, h, g, s), with None where a
    sequence is not defined, one line at a time: the header, then one
    line per row."""
    yield "k,a,b,h,g,s\n"
    for k, *cells in rows:
        yield f"{k},{','.join('' if c is None else f'{c[0]}/{c[1]}' for c in cells)}\n"


def json_pieces(k_max: int, rows):
    """The exact JSON form of rows (k, a, b, h, g, s), with None where a
    sequence is not defined, as the head, one piece per row and the tail:
    {"k_max": n, "rows": [{"a": .., "b": .., "g": .., "h": .., "k": k,
    "s": ..}, ...]}, each value as {"denominator": .., "numerator": ..}
    in decimal strings, keys sorted and each key present where its
    sequence is defined.  The pieces join to json.dumps of that object
    with sort_keys=True, built without the json module; no trailing
    newline."""
    yield f'{{"k_max": {k_max}, "rows": ['
    sep = ""
    for k, a, b, h, g, s in rows:
        yield (f'{sep}{{{_cell_json("a", a)}{_cell_json("b", b)}{_cell_json("g", g)}'
               f'{_cell_json("h", h)}"k": {k}{_cell_json("s", s, ", ", "")}}}')
        sep = ", "
    yield "]}"


def table_rows(k_max: int):
    """Rows (k, a, b, h, g, s) for k = 0..k_max, with None where a
    sequence is not defined at k, computed one index at a time by O(1)
    recurrences; the verifier checks each row against closed_rows, a
    separate computation from closed formulas, and against itself.

    Each value is a (numerator, denominator) pair of ints in lowest terms
    with a positive denominator, and row k equals closed_row(k); the pair
    is what the formatters print.  The rows keep integer state,
    the odd part W of C(2k,k) and the odd harmonic sum in lowest terms,
    take the powers of two off by shifts, and reduce each row with one
    gcd of two large operands, gcd(W, q) for the harmonic denominator q;
    every other gcd has a small operand.

    k_max is checked at the call, before the first row, so a caller can
    stream the rows and still fail before writing anything.
    """
    _check_index(k_max, 2, "k_max")
    return _rows(k_max)


def _twos(n: int) -> int:
    # the exponent of 2 in n != 0, read off its lowest set bit
    return (n & -n).bit_length() - 1


def _rows(k_max: int):
    # Integer state: the odd part W of C(2k,k), updated by the exact step
    # C(2k,k) = C(2k-2,k-1) 2(2k-1)/k with the twos left out, and the odd
    # harmonic sum H_k = p/q in lowest terms, q odd.  By Kummer the twos
    # of C(2k,k) number popcount(k), so w_k = C(2k,k)/4^k = W/2^e with
    # e = 2k - popcount(k), and every power of two comes off by shifts:
    # b_k = w_k^2 = W^2/2^(2e) and h(k) = (1 - w_k)/2 = (2^e - W)/2^(e+1)
    # have odd numerators, so they are in lowest terms as built.
    #
    # g(k) = w_k H_k/2 = W p/(2^(e+1) q) and
    # a_k = (1 + w_k (1 - H_k))/(2(k+1)) = (2^e q + W (q - p))/(2^(e+1) (k+1) q)
    # share the row's one large gcd G = gcd(W, q): gcd(p, q) = 1 makes G
    # the whole common factor of either numerator with q.  What is left
    # of a_k's denominator, 2^(e+1) (k+1), shares only twos and a factor
    # of the small k+1.  S_k = (2(k+1)^2 q - kk (p - q))/(kk q) with
    # kk = k(2k+1) shares with q only primes of kk, each at most to the
    # power it has in kk gcd(q, kk), so its gcd is taken against that
    # small number.  Adding 1/m to H_k, any common factor divides
    # d = gcd(q, m), so H_k stays reduced by gcds against small numbers.
    big_w, e = 1, 0
    p, q = 0, 1
    yield 0, None, (1, 1), None, None, None
    for k in range(1, k_max + 1):
        m = 2 * k - 1
        big_w = big_w * m // (k >> _twos(k))
        e = 2 * k - k.bit_count()
        d = gcd(q, m)
        p, q = p * (m // d) + q // d, q * (m // d)
        if d > 1:
            t = gcd(p, d)
            p, q = p // t, q // t
        big_g = gcd(big_w, q)
        w_g, q_g = big_w // big_g, q // big_g
        shift = min(_twos(p), e + 1)
        g = ((w_g * p) >> shift, q_g << (e + 1 - shift))
        num = (q_g << e) + w_g * (q - p)
        z = _twos(k + 1)
        odd = (k + 1) >> z
        t = gcd(num, odd)
        shift = min(_twos(num), e + 1 + z)
        a = ((num // t) >> shift, ((odd // t) * q_g) << (e + 1 + z - shift))
        s = None
        if k >= 2:
            kk = k * (2 * k + 1)
            num = 2 * (k + 1) ** 2 * q - kk * (p - q)
            t = gcd(num, kk * gcd(q, kk))
            s = (num // t, kk * q // t)
        yield k, a, (big_w * big_w, 1 << (2 * e)), ((1 << e) - big_w, 1 << (e + 1)), g, s
