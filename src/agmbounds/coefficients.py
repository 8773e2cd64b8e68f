"""Exact rational sequences behind the mean-ratio monotonicity argument.

Everything here is exact arithmetic over Python ints; no rounding ever
occurs.  table_rows streams rows (k, a, b, h, g, s), one index at a time,
from one O(1)-per-index recurrence, with None where a sequence is not
defined (a, h and g below k = 1, s below 2).  With the Wallis quotient
w_k = (2k-1)!!/(2k)!! = C(2k,k)/4^k and H_k = sum_{i<=k} 1/(2i-1):

    b_k  = w_k^2, the coefficient of (1-t^2)^k in (2/pi)K;
    a_k  = (1 - w_k (H_k - 1))/(2(k+1));
    h(k) = (1 - w_k)/2 and g(k) = w_k H_k/2;
    S_k  = 2(k+1)^2/(k(2k+1)) - (H_k - 1),

where a_k and g(k) are the digamma reductions of the analytic forms, via
Gamma(k+1/2)/(sqrt(pi) Gamma(k+1)) = w_k and psi(k+1/2) = -gamma - 2 ln 2
+ 2 H_k, whose Gamma, log-2 and Euler-gamma terms cancel; S_k has one
sign change, S_10 > 0 > S_11.  No sum of the paper is evaluated: the
verifier proves by induction that the rows equal them.  Every value is a
(numerator, denominator) pair of ints in lowest terms with a positive
denominator, so Fraction(*x) is the value; the module never imports
fractions.  The recurrence keeps integer state and reduces each row with
at most one gcd of two large operands.  Both the coeffs command and the
verifier read the rows.  The CSV and JSON formatters, csv_lines and
json_pieces, are generators of the text of one row at a time, so the CLI
prints rows as they are produced without holding them or their text.
The JSON text is built directly, so no table output needs the json
module, and the module imports nothing from the floating layers.
"""

from math import gcd


def _check_k_max(k_max: int) -> None:
    if not isinstance(k_max, int) or isinstance(k_max, bool):
        raise ValueError(f"k_max must be an integer, got {k_max!r}")
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")


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
    recurrences; the verifier checks, row by row, the relations that fix
    each row from the one before it, so the rows are the paper's sums by
    induction.

    Each value is a (numerator, denominator) pair of ints in lowest terms
    with a positive denominator; the pair is what the formatters print.
    The rows keep integer state, the odd part W of C(2k,k) and the odd
    harmonic sum in lowest terms, take the powers of two off by shifts,
    and reduce each row with one gcd of two large operands, gcd(W, q) for
    the harmonic denominator q; every other gcd has a small operand.

    k_max is checked at the call, before the first row, so a caller can
    stream the rows and still fail before writing anything.
    """
    _check_k_max(k_max)
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
