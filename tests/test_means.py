"""Means: worked examples, validation, and algebraic properties."""

import copy
import hashlib
import math
import pickle
import random
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from agmbounds import AgmTrace, MeanInput, agm, gen_log_mean, identric_mean, log_mean
from agmbounds import elliptic, means, verify
from agmbounds.means import agm_iterates, log_mean_float
from agmbounds.verify import P_GRID

positive = st.floats(min_value=1e-3, max_value=1e3)
separated = positive.flatmap(
    lambda a: st.tuples(st.just(a), positive.filter(lambda b: abs(a - b) > 1e-3 * max(a, b)))
)
# every positive finite double: hypothesis' own float draws, and a draw
# that is log-uniform over the binary exponents, subnormals included
whole_range = st.one_of(
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
    st.builds(
        math.ldexp,
        st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
        st.integers(min_value=-1073, max_value=1024),
    ),
)
ALL_MEANS = [
    log_mean,
    identric_mean,
    lambda inp: gen_log_mean(0.7, inp),
    lambda inp: agm(inp).limit,
]
# the orders p that take gen_log_mean's own formula (not L or I)
GEN_LOG_ORDERS = [-2.0, -0.5, 0.5, 1.0, 2.0]
DBL_MAX = sys.float_info.max

PAIRS = [
    (1.0, 1.0),
    (2.0, 8.0),
    (math.sqrt(2.0), 1.0),
    (1.0, 1e-8),
    (1e-3, 1e3),
    (5.0, 7.0),
    (123.456, 123.457),
    (0.062, 941.0),
]

# pairs whose ratio min/max is below the smallest normal double
WIDE_PAIRS = [
    (1e-300, 1e300),
    (1e-308, 1e308),
    (5e-324, 1.0),
    (5e-324, 1e-10),
    (DBL_MAX, 5e-324),
    (1e-323, 1.5e308),
    (1e-320, 1e300),
]

# equal and adjacent pairs at both ends of the double range; for a
# subnormal hi, NEAR_EQUAL_REL * hi underflows to 0
EDGE_PAIRS = [
    (5e-324, 5e-324),
    (5e-324, 1e-323),
    (DBL_MAX, DBL_MAX),
    (DBL_MAX, math.nextafter(DBL_MAX, 0.0)),
]


def simpson_log_mean(a, b, n=4000):
    """Independent oracle: integral_0^1 a^(1-s) b^s ds by composite Simpson."""
    h = 1.0 / n
    f = lambda s: a ** (1.0 - s) * b**s
    acc = f(0.0) + f(1.0)
    for i in range(1, n):
        acc += (4.0 if i % 2 else 2.0) * f(i * h)
    return acc * h / 3.0


class TestMeanInput:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=r"^mean arguments must be positive, got a=0\.0, b=1\.0$"):
            MeanInput(0.0, 1.0)
        with pytest.raises(ValueError, match=r"^mean arguments must be positive, got a=1, b=-2$"):
            MeanInput(a=1, b=-2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match=r"^mean arguments must be finite, got a=inf, b=1\.0$"):
            MeanInput(math.inf, 1.0)
        with pytest.raises(ValueError, match=r"^mean arguments must be finite, got a=1\.0, b=nan$"):
            MeanInput(1.0, math.nan)

    def test_ordered_view(self):
        for inp in (MeanInput(2.0, 5.0), MeanInput(5.0, 2.0)):
            assert (inp.hi, inp.lo) == (5.0, 2.0)

    def test_coerces_ints(self):
        inp = MeanInput(2, 8)
        assert isinstance(inp.a, float) and isinstance(inp.b, float)

    def test_value_semantics(self):
        inp = MeanInput(b=8, a=2)
        assert (inp.a, inp.b) == (2.0, 8.0)
        assert inp == MeanInput(2.0, 8.0) and hash(inp) == hash(MeanInput(2.0, 8.0))
        assert inp != MeanInput(8.0, 2.0)
        assert repr(inp) == "MeanInput(a=2.0, b=8.0)"
        with pytest.raises(AttributeError):
            inp.a = 3.0
        with pytest.raises(AttributeError):
            inp.c = 3.0
        with pytest.raises(AttributeError):
            del inp.b
        assert (inp.a, inp.b) == (2.0, 8.0)

    def test_value_type_by_a_b_only(self):
        # the state built for the means takes no part in ==, hash, repr,
        # pickle or copy
        for a, b in [(2.0, 8.0), (8.0, 2.0), (5e-324, 5e-324), (1.0, 1.0 + 1e-12),
                     (DBL_MAX, 5e-324)]:
            inp = MeanInput(a, b)
            assert repr(inp) == f"MeanInput(a={a!r}, b={b!r})"
            assert inp == MeanInput(a, b) and hash(inp) == hash((a, b))
            assert (inp == MeanInput(b, a)) is (a == b)
            for twin in (pickle.loads(pickle.dumps(inp)), copy.copy(inp), copy.deepcopy(inp)):
                assert type(twin) is MeanInput
                assert twin == inp and hash(twin) == hash(inp) and repr(twin) == repr(inp)
                assert every_mean_bits(twin) == every_mean_bits(inp)

    @pytest.mark.parametrize(
        "name",
        ["a", "b", "hi", "lo", "_d", "_log_mean", "_log_gap", "_ln_d_hi", "_identric"],
    )
    def test_state_is_read_only(self, name):
        for inp in (MeanInput(3.0, 11.0), MeanInput(2.0, 2.0)):
            before = getattr(inp, name)
            with pytest.raises(AttributeError):
                setattr(inp, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(inp, name)
            assert getattr(inp, name) is before


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: MeanInput(10**400, 2), "mean arguments must be finite"),
        (lambda: MeanInput(2.0, -(10**400)), "mean arguments must be finite"),
        (lambda: gen_log_mean(10**400, MeanInput(1, 2)), "order p must be finite"),
        (lambda: gen_log_mean(-(10**400), MeanInput(1, 2)), "order p must be finite"),
        (lambda: elliptic.Modulus(10**400), "modulus must satisfy"),
        (lambda: elliptic.k_quadrature(10**400, 1.0),
         r"arguments must be positive finite reals, got a=10{400}, b=1\.0$"),
        (lambda: elliptic.modulus_from_pair(1.0, 10**400), "arguments must be positive finite"),
        # past the int-to-str digit limit the message shows the int's bit length
        (lambda: MeanInput(10**5000, 2),
         r"mean arguments must be finite, got a=<16610-bit int>, b=2$"),
        (lambda: MeanInput(2.0, -(10**5000)),
         r"mean arguments must be finite, got a=2\.0, b=-<16610-bit int>$"),
        (lambda: gen_log_mean(10**5000, MeanInput(1, 2)), r"order p must be finite, got inf$"),
        (lambda: elliptic.Modulus(10**5000),
         r"modulus must satisfy 0 <= t < 1, got <16610-bit int>$"),
        (lambda: elliptic.k_quadrature(10**5000, 1.0),
         r"arguments must be positive finite reals, got a=<16610-bit int>, b=1\.0$"),
        (lambda: elliptic.modulus_from_pair(1.0, 10**5000),
         r"arguments must be positive finite reals, got a=1\.0, b=<16610-bit int>$"),
    ],
    ids=["MeanInput-a", "MeanInput-b", "gen_log_mean", "gen_log_mean-negative", "Modulus",
         "k_quadrature", "modulus_from_pair", "MeanInput-a-5000-digits",
         "MeanInput-b-5000-digits", "gen_log_mean-5000-digits", "Modulus-5000-digits",
         "k_quadrature-5000-digits", "modulus_from_pair-5000-digits"],
)
def test_int_beyond_doubles_rejected_as_non_finite(call, message):
    # float() raises OverflowError on such an int; each entry reports it
    # as it reports any other non-finite value, and the message is its own
    # even where the int has too many digits to print
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


class TestLogMean:
    def test_equal_arguments(self):
        assert log_mean(MeanInput(1.0, 1.0)) == 1.0

    def test_one_e(self):
        assert log_mean(MeanInput(1.0, math.e)) == pytest.approx(math.e - 1.0, rel=1e-15, abs=0)

    def test_two_eight_against_quadrature_oracle(self):
        v = log_mean(MeanInput(2.0, 8.0))
        assert v == pytest.approx(6.0 / math.log(4.0), rel=1e-15, abs=0)
        assert v == pytest.approx(simpson_log_mean(2.0, 8.0), rel=1e-11)

    @given(separated)
    def test_strictly_between(self, pair):
        a, b = pair
        v = log_mean(MeanInput(a, b))
        assert min(a, b) < v < max(a, b)


class TestIdentricMean:
    def test_equal_arguments(self):
        assert identric_mean(MeanInput(3.0, 3.0)) == 3.0

    def test_one_e(self):
        expected = math.exp(1.0 / (math.e - 1.0))
        assert identric_mean(MeanInput(1.0, math.e)) == pytest.approx(expected, rel=1e-15, abs=0)

    def test_one_two(self):
        v = identric_mean(MeanInput(1.0, 2.0))
        assert v == pytest.approx(4.0 / math.e, rel=1e-15, abs=0)
        # small-order extrapolation of the generalized log mean agrees
        assert gen_log_mean(1e-10, MeanInput(1.0, 2.0)) == pytest.approx(v, abs=1e-9)


class TestGenLogMean:
    def test_order_one_is_arithmetic(self):
        assert gen_log_mean(1.0, MeanInput(3.0, 5.0)) == pytest.approx(4.0, rel=1e-14)

    def test_order_minus_one_is_log_mean(self):
        inp = MeanInput(1.0, math.e)
        assert gen_log_mean(-1.0, inp) == log_mean(inp)

    def test_order_zero_is_identric(self):
        inp = MeanInput(2.0, 9.0)
        assert gen_log_mean(0.0, inp) == identric_mean(inp)

    def test_order_minus_two_is_geometric(self):
        assert gen_log_mean(-2.0, MeanInput(1.0, 4.0)) == pytest.approx(2.0, rel=1e-14)

    @given(separated)
    def test_order_minus_two_geometric_everywhere(self, pair):
        a, b = pair
        assert gen_log_mean(-2.0, MeanInput(a, b)) == pytest.approx(
            math.sqrt(a * b), rel=1e-12
        )

    def test_small_order_continuity(self):
        inp = MeanInput(3.0, 11.0)
        anchor = identric_mean(inp)
        # approaching p = 0 from both sides stays glued to the identric mean
        for p in (1e-7, -1e-7, 1e-9, -1e-9):
            assert gen_log_mean(p, inp) == pytest.approx(anchor, rel=1e-6)
        # and neighbouring orders agree
        below = gen_log_mean(9.999e-7, inp)
        above = gen_log_mean(1.001e-6, inp)
        assert below == pytest.approx(above, rel=1e-9)

    @pytest.mark.parametrize("p", [5e-324, -5e-324, 1e-300, -1e-300, 1e-25])
    def test_vanishing_order_is_identric(self, p):
        # p g^2 is below eps: the order-0 mean is exact to double precision
        for a, b in [(3.0, 11.0), (1.0, 1.0 + 1e-6), (5e-324, DBL_MAX)]:
            assert gen_log_mean(p, MeanInput(a, b)) == identric_mean(MeanInput(a, b))

    def test_near_equal_arguments_midpoint(self):
        a = 1.0
        b = 1.0 + 1e-12
        assert gen_log_mean(2.0, MeanInput(a, b)) == pytest.approx(
            0.5 * (a + b), rel=1e-13
        )

    @pytest.mark.parametrize("p", GEN_LOG_ORDERS)
    @pytest.mark.parametrize(
        "a,b",
        [(1.7e308, math.nextafter(1.7e308, math.inf)), (DBL_MAX, DBL_MAX * (1.0 - 1e-12))],
    )
    def test_near_equal_top_of_range_finite(self, p, a, b):
        # a + b overflows here; the midpoint must not
        v = gen_log_mean(p, MeanInput(a, b))
        assert min(a, b) <= v <= max(a, b)

    def test_rejects_nonfinite_order(self):
        with pytest.raises(ValueError):
            gen_log_mean(math.inf, MeanInput(1.0, 2.0))

    @given(separated)
    def test_strictly_increasing_in_p(self, pair):
        a, b = pair
        inp = MeanInput(a, b)
        values = [gen_log_mean(p, inp) for p in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestOrderChain:
    """gen_log_mean across a chain of orders on one pair, as the verifier
    reads it: L at p = -1 and I at p = 0, bit for bit."""

    # the verifier's grid, small and off-grid orders, and orders either
    # side of gen_log_mean's switches of form at p = -1/4 and p = -2
    ORDERS = (
        -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0,
        9.9e-7, -3e-7, 1e-9, -1e-12, 5e-324, -0.0,
        -1.3, -0.99999, 0.37, 3.7, -7.25, 1e-6, -1.000001,
        -0.25 - 1e-9, -0.25, -0.25 + 1e-9, -2.0 - 1e-9, -2.0 + 1e-9,
    )

    @staticmethod
    def pairs():
        rng = random.Random(20261018)
        out = [(2.0, 2.0), (5e-324, 5e-324), (DBL_MAX, DBL_MAX), (3.0, 11.0)]
        for _ in range(40):  # whole range, subnormals included
            out.append(tuple(math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1073, 1024))
                             for _ in range(2)))
        for _ in range(40):  # relative gaps from 1e-12 to 1e-6
            lo = 10.0 ** rng.uniform(-300.0, 300.0)
            out.append((lo, lo * (1.0 + 10.0 ** rng.uniform(-12.0, -6.0))))
        for _ in range(20):  # the verifier band
            out.append((10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)))
        return out

    def test_log_and_identric_orders_bit_for_bit(self):
        for a, b in self.pairs():
            inp = MeanInput(a, b)
            chain = gen_log_chain(self.ORDERS, inp)
            assert chain[1].hex() == log_mean(inp).hex()
            assert chain[3].hex() == identric_mean(inp).hex() == chain[12].hex()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_order(self, bad):
        # also on a pair whose means collapse to one value
        for a, b in [(1.0, 2.0), (2.0, 2.0)]:
            with pytest.raises(ValueError, match="order p must be finite"):
                gen_log_mean(bad, MeanInput(a, b))


def gen_log_chain(ps, inp):
    """[gen_log_mean(p, inp) for p in ps]."""
    return [gen_log_mean(p, inp) for p in ps]


def outcome(fn, *args):
    """fn(*args) as the hex of its value or list of values, or the name of
    the exception it raises."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc).__name__
    return [v.hex() for v in value] if isinstance(value, list) else value.hex()


def every_mean_bits(inp):
    """Every mean of inp, in a fixed order, as outcomes."""
    return (
        [outcome(log_mean, inp), outcome(identric_mean, inp), outcome(lambda i: agm(i).limit, inp)]
        + [outcome(gen_log_mean, p, inp) for p in TestOrderChain.ORDERS]
        + [outcome(gen_log_chain, TestOrderChain.ORDERS, inp)]
    )


def per_call_gen_log_mean(p, a, b):
    """M_p(a, b) evaluated per call from plain floats: order the pair,
    collapse it when equal or nearly so, take g = ln(hi/lo) and L = d / g,
    then apply the form of the order, anchored at hi, or at lo below
    p = -2, with an exponent that is cubed beyond 700."""
    hi, lo = (a, b) if a >= b else (b, a)
    if hi == lo:
        return hi
    d = hi - lo
    if d < means.NEAR_EQUAL_REL * hi:
        return 0.5 * lo + 0.5 * hi
    g = math.log(hi) - math.log(lo) if lo / hi < sys.float_info.min else math.log1p(d / lo)
    lm = d / g
    if p == -1.0:
        return lm
    if abs(p) * g * g < sys.float_info.epsilon:
        return hi * math.exp(lo / lm - 1.0)
    if p > -0.25:
        return hi * math.exp((math.log1p(-(lo / d) * math.expm1(-p * g)) - math.log1p(p)) / p)
    q = p + 1.0
    y = math.log(-math.expm1(-abs(q) * g)) - math.log(abs(q)) - math.log(d / hi)
    if p < -2.0:
        anchor, r = lo, (y - g) / p
    elif q < 0.0:
        anchor, r = hi, (y + abs(q) * g) / p
    else:
        anchor, r = hi, y / p
    if abs(r) < 700.0:
        return anchor * math.exp(r)
    third = math.exp(r / 3.0)
    return anchor * third * third * third


class TestSharedState:
    """MeanInput computes the ordered pair and its logarithmic mean once;
    every mean reads them and gives the bits of the per-call evaluation."""

    @staticmethod
    def pairs():
        rng = random.Random(20261019)
        out = TestOrderChain.pairs() + EDGE_PAIRS + PAIRS + WIDE_PAIRS
        for _ in range(20):  # both subnormal, or one subnormal and one normal
            tiny = [math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1073, -1022)) for _ in range(3)]
            out += [(tiny[0], tiny[1]), (tiny[2], math.ldexp(rng.uniform(0.5, 1.0),
                                                             rng.randint(-1021, 1024)))]
        return out

    def test_equals_kernels_and_per_call_formulas(self):
        # an exception counts as an outcome, on both sides
        orders = TestOrderChain.ORDERS
        for a, b in self.pairs():
            inp = MeanInput(a, b)
            assert log_mean(inp).hex() == log_mean_float(a, b).hex(), (a, b)
            assert identric_mean(inp).hex() == per_call_gen_log_mean(0.0, a, b).hex(), (a, b)
            per_call = [outcome(per_call_gen_log_mean, p, a, b) for p in orders]
            assert [outcome(gen_log_mean, p, inp) for p in orders] == per_call, (a, b)

    def test_independent_of_call_order_and_repetition(self):
        rng = random.Random(7)
        calls = [(log_mean,), (identric_mean,)]
        calls += [(gen_log_mean, p) for p in TestOrderChain.ORDERS]
        for a, b in self.pairs()[::3]:
            fresh = {call: outcome(*call, MeanInput(a, b)) for call in calls}
            inp = MeanInput(a, b)
            shuffled = calls * 2
            rng.shuffle(shuffled)
            for call in shuffled:
                assert outcome(*call, inp) == fresh[call], (a, b, call)

    @pytest.mark.parametrize("a,b", EDGE_PAIRS)
    def test_edge_pairs_through_every_mean(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for inp in (MeanInput(a, b), MeanInput(b, a)):
            values = [log_mean(inp), identric_mean(inp), agm(inp).limit]
            values += [gen_log_mean(p, inp) for p in P_GRID]
            assert all(lo <= v <= hi for v in values), values
            if a == b:
                assert set(values) == {a}
            assert log_mean(inp) == log_mean_float(a, b)
            assert identric_mean(inp) == per_call_gen_log_mean(0.0, a, b)

    def test_one_log_mean_per_pair(self, monkeypatch):
        calls = []
        apart = means._log_gap

        def counting(*args):
            calls.append(args)
            return apart(*args)

        monkeypatch.setattr(means, "_log_gap", counting)
        for a, b in [(3.0, 11.0), (1e-300, 1e300), (5e-324, DBL_MAX), (5e-324, 1e-323),
                     (2.0, 2.0), (1.0, 1.0 + 1e-12)]:
            calls.clear()
            inp = MeanInput(a, b)
            log_mean(inp)
            identric_mean(inp)
            for p in P_GRID:
                gen_log_mean(p, inp)
            assert len(calls) == (1 if inp._log_gap is not None else 0), (a, b)

    def test_pair_logarithms_once(self, monkeypatch):
        # MeanInput takes ln(d/hi) and the identric mean's exp once each
        # (_log_gap takes ln hi and ln lo below a ratio of DBL_MIN); no
        # later mean takes the log of hi, lo or d
        calls = []

        class RecordingMath:
            def __getattr__(self, name):
                fn = getattr(math, name)
                if name not in ("log", "log1p", "exp"):
                    return fn
                return lambda x: calls.append((name, x)) or fn(x)

        monkeypatch.setattr(means, "math", RecordingMath())
        for a, b in [(2.5, 7.25), (0.062, 941.0), (1e-320, 3e-320), (1e-300, 1e300),
                     (5e-324, DBL_MAX)]:
            calls.clear()
            inp = MeanInput(a, b)
            hi, lo, d = inp.hi, inp.lo, inp._d
            expected = [("log", d / hi), ("exp", lo / inp._log_mean - 1.0)]
            if lo / hi < sys.float_info.min:
                expected += [("log", hi), ("log", lo)]
            else:
                expected.append(("log1p", d / lo))
            assert sorted(calls) == sorted(expected), (a, b)
            calls.clear()
            identric_mean(inp)
            assert calls == [], (a, b)
            for p in P_GRID:
                gen_log_mean(p, inp)
            assert calls and not [x for name, x in calls if name == "log" and x in (hi, lo, d)]


def agm_trace_values(inp):
    """agm(inp) as floats: the limit and the step count."""
    tr = agm(inp)
    return [tr.limit, float(tr.iterations)]


def pinned_pairs():
    """Seeded pairs from the verifier band, near-equal pairs on both sides
    of NEAR_EQUAL_REL and the whole double range with subnormals, then
    PAIRS, WIDE_PAIRS and EDGE_PAIRS."""
    rng = random.Random(20261020)
    out = []
    for _ in range(300):  # the verifier band
        out.append((10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)))
    for _ in range(300):  # relative gaps from 1e-15 to 1e-6
        lo = 10.0 ** rng.uniform(-300.0, 300.0)
        out.append((lo, lo * (1.0 + 10.0 ** rng.uniform(-15.0, -6.0))))
    for _ in range(300):  # whole range, subnormals included
        out.append(tuple(math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1074, 1024))
                         for _ in range(2)))
    for _ in range(50):  # both subnormal
        out.append(tuple(math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1074, -1022))
                         for _ in range(2)))
    return out + PAIRS + WIDE_PAIRS + EDGE_PAIRS


# SHA-256 of every mean's outcome on pinned_pairs(): log_mean,
# identric_mean, gen_log_mean at TestOrderChain.ORDERS, those orders again
# as one gen_log_chain, and agm (limit and step count), raised errors
# included.  Taken from the means once AgmTrace lost its iterates, at the
# code before that change, so it shows that no limit or step count moved.
# A change to the means layer must keep it.
PINNED_MEANS_SHA256 = "7d68d50b47162f9770e8d50f54337991451cade98d690f427da322a564457825"


def test_means_bits_pinned():
    orders = TestOrderChain.ORDERS
    digest = hashlib.sha256()
    for a, b in pinned_pairs():
        inp = MeanInput(a, b)
        row = [a.hex(), b.hex(), outcome(log_mean, inp), outcome(identric_mean, inp)]
        row += [outcome(gen_log_mean, p, inp) for p in orders]
        row += [outcome(gen_log_chain, orders, inp), outcome(agm_trace_values, inp)]
        values = row[2:-2] + row[-2]
        assert all(inp.lo <= float.fromhex(v) <= inp.hi for v in values), (a, b)
        digest.update(repr(row).encode())
    assert digest.hexdigest() == PINNED_MEANS_SHA256


def test_agm_trace_is_plain_record():
    # an AgmTrace compares, hashes, prints, copies and pickles by its limit
    # and step count alone, and stays read-only
    for a, b in pinned_pairs():
        limit, n = agm_iterates(a, b)
        tr = agm(MeanInput(a, b))
        assert vars(tr) == {"limit": limit, "iterations": n}, (a, b)
        built = AgmTrace(limit, n)
        assert pickle.dumps(tr) == pickle.dumps(built)
        for other in (built, pickle.loads(pickle.dumps(tr)), copy.copy(tr), copy.deepcopy(tr)):
            assert type(other) is AgmTrace
            assert other == tr and tr == other and not other != tr
            assert hash(other) == hash(tr) == hash((limit, n))
            assert repr(other) == f"AgmTrace(limit={limit!r}, iterations={n})"
        assert tr != AgmTrace(limit, n + 1)
        for name in AgmTrace._fields:
            with pytest.raises(AttributeError):
                setattr(tr, name, None)
            with pytest.raises(AttributeError):
                delattr(tr, name)
        assert not hasattr(tr, "iterates")


class TestAgm:
    def test_fixed_point(self):
        tr = agm(MeanInput(5.0, 5.0))
        assert tr.limit == 5.0
        assert tr.iterations == 0
        assert tr == AgmTrace(limit=5.0, iterations=0)
        assert hash(tr) == hash(AgmTrace(5.0, 0))
        assert tr != AgmTrace(5.0, 1)
        assert repr(tr) == "AgmTrace(limit=5.0, iterations=0)"
        with pytest.raises(AttributeError):
            tr.limit = 4.0

    def test_sqrt2_against_extended_precision_oracle(self):
        tr = agm(MeanInput(math.sqrt(2.0), 1.0))
        assert tr.limit == pytest.approx(1.1981402347355923, rel=1e-15, abs=0)
        assert tr.iterations <= 5

    def test_extreme_ratio_within_log_mean_bounds(self):
        inp = MeanInput(1.0, 1e-8)
        limit = agm(inp).limit
        lm = log_mean(inp)
        assert lm < limit < (math.pi / 2.0) * lm

    def test_trace_length_moderate(self):
        for a, b in [(1.0, 1e-6), (1e-3, 1e3), (2.0, 8.0), (7.0, 7.0001)]:
            assert agm(MeanInput(a, b)).iterations <= 8


class TestWholeDoubleRange:
    """Means of pairs far outside the verifier band, against mpmath."""

    @pytest.fixture
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            yield mpmath

    @staticmethod
    def ref_log_mean(mp, a, b):
        a, b = mp.mpf(a), mp.mpf(b)
        return (b - a) / (mp.log(b) - mp.log(a))

    @staticmethod
    def ref_identric_mean(mp, a, b):
        a, b = mp.mpf(a), mp.mpf(b)
        return mp.exp((b * mp.log(b) - a * mp.log(a)) / (b - a) - 1)

    @pytest.mark.parametrize("a,b", [(1e-308, 1e308), (5e-324, 1.0)])
    def test_log_mean_ratio_below_normal(self, mp, a, b):
        v = log_mean(MeanInput(a, b))
        assert v == pytest.approx(float(self.ref_log_mean(mp, a, b)), rel=1e-12)

    @staticmethod
    def ref_gen_log_mean(mp, p, a, b):
        if p == -1.0:
            return TestWholeDoubleRange.ref_log_mean(mp, a, b)
        if p == 0.0:
            return TestWholeDoubleRange.ref_identric_mean(mp, a, b)
        a, b, q = mp.mpf(a), mp.mpf(b), mp.mpf(p) + 1
        return ((b ** q - a ** q) / (q * (b - a))) ** (1 / mp.mpf(p))

    @pytest.mark.parametrize("a,b", [(5e-324, 1e-323), (1e-320, 3e-320)])
    def test_subnormal_log_mean(self, mp, a, b):
        # L is subnormal and keeps few bits; ln(hi/lo) must keep all of
        # them, and every order must land within one step of the
        # subnormal grid (5e-324) of its value
        inp = MeanInput(a, b)
        assert inp._log_gap == pytest.approx(float(mp.log(mp.mpf(b) / a)), rel=1e-15, abs=0)
        for p in P_GRID + (1e-6, -1e-6, 9.9e-7, 1e-4, -1e-4, 0.3, -0.3, 3.7, -7.25):
            v = gen_log_mean(p, inp)
            assert a <= v <= b, p
            assert abs(mp.mpf(v) - self.ref_gen_log_mean(mp, p, a, b)) <= 5e-324, p

    def test_identric_mean_past_hi_log_hi_overflow(self, mp):
        v = identric_mean(MeanInput(1e-308, 1e308))
        assert v == pytest.approx(float(self.ref_identric_mean(mp, 1e-308, 1e308)), rel=1e-12)

    @pytest.mark.parametrize(
        "a,b", [(1e-300, 1e300), (5e-324, sys.float_info.max), (1e-323, 1.5e308)]
    )
    def test_agm_ratio_below_normal(self, mp, a, b):
        assert agm(MeanInput(a, b)).limit == pytest.approx(float(mp.agm(a, b)), rel=1e-12)

    @pytest.mark.parametrize(
        "a,b",
        [(9.0, 0.004), (1.0, 0.3), (2.0, 8.0), (1.0, 1e-8), (5e-324, DBL_MAX), (1e-300, 1e300)],
    )
    def test_agm_limit_and_steps(self, mp, a, b):
        # the limit is the AGM to within two ulps, and the loop takes as
        # many steps as the exact iteration from (max, min) needs to pass
        # the stopping test
        tr = agm(MeanInput(a, b))
        ref = mp.agm(a, b)
        assert abs(mp.mpf(tr.limit) / ref - 1) <= 2 * sys.float_info.epsilon
        x, y = mp.mpf(max(a, b)), mp.mpf(min(a, b))
        steps = 0
        while x - y > means.DEFAULT_REL_TOL * x:
            x, y = (x + y) / 2, mp.sqrt(x * y)
            steps += 1
        assert tr.iterations == steps <= 16
        assert min(a, b) < tr.limit < max(a, b)

    @pytest.mark.parametrize("p", [1e-7, -1e-7, 1e-9, -1e-9])
    @pytest.mark.parametrize(
        "a,b",
        [
            (1e300, 1e-300), (1.75e303, 1.98e266), (5e-324, DBL_MAX), (1e-308, 1e308),
            (1e308, 3e307), (1.0, 1.000001),
        ],
    )
    def test_gen_log_mean_small_order(self, mp, p, a, b):
        # small orders, across the whole double range and on a close pair
        q = mp.mpf(p) + 1
        ref = ((mp.mpf(b) ** q - mp.mpf(a) ** q) / (q * (mp.mpf(b) - a))) ** (1 / mp.mpf(p))
        assert gen_log_mean(p, MeanInput(a, b)) == pytest.approx(float(ref), rel=2e-15, abs=0)

    @given(whole_range, whole_range)
    def test_agm_bounded_finite_positive(self, a, b):
        tr = agm(MeanInput(a, b))
        assert tr.iterations <= 16
        assert math.isfinite(tr.limit) and tr.limit > 0.0

    @given(whole_range, whole_range)
    def test_double_inequality(self, a, b):
        # the paper's claim, and M below the identric mean, on separated
        # pairs whose means lie well above the subnormal range
        hi, lo = max(a, b), min(a, b)
        assume(hi > 1e-290 and lo < 0.99 * hi)
        inp = MeanInput(a, b)
        lm = log_mean(inp)
        m = agm(inp).limit
        assert lm < m < (math.pi / 2.0) * lm
        assert m < identric_mean(inp)


@pytest.mark.parametrize(
    "x", [1.0, 0.3, 7.77, 1e-300, 5e-324, sys.float_info.min, 1e300, 1.7e308]
)
@pytest.mark.parametrize("idx", range(4))
def test_betweenness_adjacent_doubles(x, idx):
    # the rounded formulas can land one ulp outside a pair this close
    y = math.nextafter(x, math.inf)
    fn = ALL_MEANS[idx]
    for inp in (MeanInput(x, y), MeanInput(y, x)):
        assert x <= fn(inp) <= y
    for p in GEN_LOG_ORDERS:
        assert x <= gen_log_mean(p, MeanInput(x, y)) <= y


CLOSE_GAPS = [1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.25]


class TestClosePairs:
    """Identric and generalized logarithmic means on pairs whose relative
    gap lies between 1e-10 and 0.25, against mpmath: the logarithm
    differences of the direct formulas cancel there."""

    @pytest.fixture
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            yield mpmath

    @staticmethod
    def ref_gen_log_mean(mp, p, a, b):
        a, b, q = mp.mpf(a), mp.mpf(b), mp.mpf(p) + 1
        return ((b**q - a**q) / (q * (b - a))) ** (1 / mp.mpf(p))

    @pytest.mark.parametrize("lo", [0.0123, 1.0, 731.5])
    @pytest.mark.parametrize("gap", CLOSE_GAPS)
    def test_identric_mean(self, mp, gap, lo):
        hi = lo * (1.0 + gap)
        ref = TestWholeDoubleRange.ref_identric_mean(mp, lo, hi)
        assert identric_mean(MeanInput(lo, hi)) == pytest.approx(float(ref), rel=2e-15, abs=0)

    @pytest.mark.parametrize("p", GEN_LOG_ORDERS)
    @pytest.mark.parametrize("gap", CLOSE_GAPS)
    def test_gen_log_mean(self, mp, gap, p):
        for lo in (0.0123, 1.0, 731.5):
            hi = lo * (1.0 + gap)
            ref = self.ref_gen_log_mean(mp, p, lo, hi)
            assert gen_log_mean(p, MeanInput(hi, lo)) == pytest.approx(
                float(ref), rel=5e-14, abs=0
            )


class TestHugeOrders:
    """gen_log_mean at |p| from 1e15 to DBL_MAX, where q ln x overflows or
    keeps too few bits of the result: finite, within [lo, hi], and close
    to mpmath on every pair whose means do not collapse."""

    ORDERS = [s * p for p in (1e15, 1e18, 1e20, 1e100, 1e306, DBL_MAX) for s in (1.0, -1.0)]
    PAIRS = WIDE_PAIRS + EDGE_PAIRS + [
        (lo, lo * (1.0 + gap)) for gap in CLOSE_GAPS for lo in (1e-300, 0.0123, 1.0, 731.5, 1e300)
    ]

    @staticmethod
    def ref_gen_log_mean(mp, p, lo, hi):
        # in log space, anchored at the dominant power, with q in mpmath
        lo, hi, q = mp.mpf(lo), mp.mpf(hi), mp.mpf(p) + 1
        if q > 0:
            num = q * mp.log(hi) + mp.log(-mp.expm1(q * mp.log(lo / hi)))
        else:
            num = q * mp.log(lo) + mp.log(-mp.expm1(q * mp.log(hi / lo)))
        return mp.exp((num - mp.log(abs(q)) - mp.log(hi - lo)) / p)

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_finite_and_between(self, a, b):
        for inp in (MeanInput(a, b), MeanInput(b, a)):
            values = [gen_log_mean(p, inp) for p in self.ORDERS]
            assert all(inp.lo <= v <= inp.hi for v in values), values

    @pytest.mark.parametrize("a,b", [pair for pair in PAIRS if MeanInput(*pair)._log_gap])
    def test_against_mpmath(self, a, b):
        # within 4 (1 + max |ln x|) eps relative, or one subnormal step
        # (5e-324) for a subnormal value
        mpmath = pytest.importorskip("mpmath")
        inp = MeanInput(a, b)
        tol = 4.0 * sys.float_info.epsilon * (1.0 + max(abs(math.log(a)), abs(math.log(b))))
        with mpmath.workdps(60):
            for p in self.ORDERS:
                ref = self.ref_gen_log_mean(mpmath, p, inp.lo, inp.hi)
                err = abs(mpmath.mpf(gen_log_mean(p, inp)) - ref)
                assert err <= max(tol * ref, 5e-324), (p, float(err / ref))


class TestGenLogAccuracy:
    """gen_log_mean against the defining formula in mpmath at 80 digits,
    in ulps of the reference, on seeded pairs from the verifier band, close
    pairs, the whole range and (5e-324, DBL_MAX), at orders from 1e-9 to
    1e100 in magnitude and either side of each switch of form.  Orders
    above -1/4 keep within 8 ulps; at p <= -1/4 the exponent's absolute
    error of a few eps is divided by |p| and the error is bounded by
    4 (s + 2) ulps, with s = (|ln(d/hi)| + |ln|q|| + min(|q|, 1) g + 1)/|p|,
    g = ln(hi/lo), d = hi - lo and q = p + 1."""

    MAGNITUDES = (1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 1e3, 1e6, 1e12, 1e100)
    ORDERS = sorted(
        ({s * m for m in MAGNITUDES for s in (1.0, -1.0)} - {-1.0})
        | {-0.25 - 1e-9, -0.25, -0.25 + 1e-9, -2.0 - 1e-9, -2.0 + 1e-9, -1.0 - 1e-9,
           -1.0 + 1e-9, -0.4, -0.95, -1.05}
    )

    @staticmethod
    def pairs(kind):
        rng = random.Random(f"gen-log-accuracy-{kind}")
        if kind == "verifier":
            return [(10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0))
                    for _ in range(25)]
        if kind == "close":  # relative gaps from 1.3e-9 to 0.1
            return [(lo, lo * (1.0 + 10.0 ** rng.uniform(-8.9, -1.0)))
                    for lo in [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(25)]]
        return [(5e-324, DBL_MAX)] + [
            tuple(math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1074, 1024)) for _ in range(2))
            for _ in range(40)
        ]

    @pytest.mark.parametrize("kind", ["verifier", "close", "whole"])
    def test_within_bound(self, kind):
        mpmath = pytest.importorskip("mpmath")
        over = []
        with mpmath.workdps(80):
            for a, b in self.pairs(kind):
                inp = MeanInput(a, b)
                if inp._log_gap is None:
                    continue
                lo, hi = inp.lo, inp.hi
                g = float(mpmath.log(mpmath.mpf(hi) / lo))
                mlo, mhi = mpmath.mpf(lo), mpmath.mpf(hi)
                for p in self.ORDERS:
                    v = gen_log_mean(p, inp)
                    assert lo <= v <= hi, (a, b, p)
                    mq = mpmath.mpf(p) + 1
                    ref = ((mhi ** mq - mlo ** mq) / (mq * (mhi - mlo))) ** (1 / mpmath.mpf(p))
                    ulps = float(abs(mpmath.mpf(v) - ref)) / math.ulp(float(ref))
                    if p > -0.25:
                        bound = 8.0
                    else:
                        q = p + 1.0
                        s = (abs(math.log((hi - lo) / hi)) + abs(math.log(abs(q)))
                             + min(abs(q), 1.0) * g + 1.0) / abs(p)
                        bound = 4.0 * (s + 2.0)
                    if ulps > bound:
                        over.append((a, b, p, ulps, bound))
        assert over == []


class TestSharedProperties:
    @given(separated, st.sampled_from(range(4)))
    def test_symmetry_exact(self, pair, idx):
        a, b = pair
        fn = ALL_MEANS[idx]
        assert fn(MeanInput(a, b)) == fn(MeanInput(b, a))

    @given(separated, st.floats(min_value=1e-2, max_value=1e2), st.sampled_from(range(4)))
    def test_homogeneity(self, pair, lam, idx):
        a, b = pair
        fn = ALL_MEANS[idx]
        assert fn(MeanInput(lam * a, lam * b)) == pytest.approx(
            lam * fn(MeanInput(a, b)), rel=1e-12
        )

    @given(separated, st.sampled_from(range(4)))
    def test_betweenness(self, pair, idx):
        a, b = pair
        v = ALL_MEANS[idx](MeanInput(a, b))
        assert min(a, b) * (1.0 - 1e-14) <= v <= max(a, b) * (1.0 + 1e-14)

    @given(separated)
    def test_classical_ordering(self, pair):
        a, b = pair
        assume(abs(a - b) > 1e-2 * max(a, b))
        inp = MeanInput(a, b)
        geometric = math.sqrt(a * b)
        arithmetic = 0.5 * (a + b)
        lm = log_mean(inp)
        im = identric_mean(inp)
        m = agm(inp).limit
        assert geometric < lm < im < arithmetic
        assert lm < m < im


def test_thread_safety_of_pure_functions():
    # no shared mutable state: concurrent evaluation matches serial results
    from concurrent.futures import ThreadPoolExecutor

    inputs = [(1.0 + i / 7.0, 3.0 + i / 3.0) for i in range(200)]

    def evaluate(pair):
        inp = MeanInput(*pair)
        return (
            log_mean(inp),
            identric_mean(inp),
            gen_log_mean(0.3, inp),
            agm(inp).limit,
        )

    serial = [evaluate(p) for p in inputs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(evaluate, inputs))
    assert concurrent == serial


class TestFloatKernels:
    """The kernels on plain floats that the verifier and the elliptic
    routes call directly, and the identric mean at the ends of the float
    range."""

    def test_agm_iterates_fixed_point(self):
        assert agm_iterates(5.0, 5.0) == (5.0, 0)

    def test_agm_iterates_symmetric(self):
        assert agm_iterates(2.0, 8.0) == agm_iterates(8.0, 2.0)

    def test_one_agm_loop(self, monkeypatch):
        # a verifier check on one pair, agm and k_agm each run agm_iterates
        # once, on the pair alone, and reading a trace runs nothing
        calls = []
        iterates = means.agm_iterates

        def counting(*args):
            calls.append(args)
            return iterates(*args)

        monkeypatch.setattr(means, "agm_iterates", counting)
        traces = []
        for run in (
            lambda: verify.check_double_inequality(1, 0),
            lambda: traces.append(agm(MeanInput(2.0, 8.0))),
            lambda: traces.append(agm(MeanInput(5e-324, DBL_MAX))),
            lambda: elliptic.k_agm(elliptic.Modulus(0.8)),
        ):
            calls.clear()
            run()
            assert len(calls) == 1 and len(calls[0]) == 2
        calls.clear()
        for tr in traces:
            tr.limit, tr.iterations, repr(tr), hash(tr)
        assert calls == []

    @pytest.mark.parametrize("a,b", [(1.0, math.inf), (0.0, 1.0), (math.nan, 1.0)])
    def test_agm_rejects_bad_arguments(self, a, b):
        # the one AGM loop checks its arguments
        for run in (lambda: agm_iterates(a, b), lambda: agm_iterates(b, a)):
            with pytest.raises(ValueError, match="^AGM arguments must be"):
                run()

    def test_agm_iterates_takes_no_recorder(self):
        with pytest.raises(TypeError):
            agm_iterates(1.0, 2.0, print)

    @given(whole_range, whole_range)
    def test_whole_range_agm_bounded(self, a, b):
        limit, n = agm_iterates(a, b)
        assert n <= 16
        assert math.isfinite(limit) and limit > 0.0
        assert 0.0 < log_mean_float(a, b) < math.inf
        assert 0.0 < identric_mean(MeanInput(a, b)) < math.inf

    def test_agm_unscaled_steps(self):
        # (5e-324, DBL_MAX) takes two unscaled steps before its ratio is
        # normal; from the pair they reach, the loop runs as on a fresh call
        h0, l0 = DBL_MAX, 5e-324
        h1, l1 = 0.5 * h0 + 0.5 * l0, math.sqrt(h0) * math.sqrt(l0)
        h2, l2 = 0.5 * h1 + 0.5 * l1, math.sqrt(h1) * math.sqrt(l1)
        assert l1 / h1 < sys.float_info.min <= l2 / h2
        limit, n = agm_iterates(l0, h0)
        assert agm_iterates(l2, h2) == (limit, n - 2)

    def test_agm_iteration_count_moderate(self):
        # ratios up to 1e8 converge within 8 steps after unit normalization
        for a, b in PAIRS:
            _, n = agm_iterates(a, b)
            assert n <= 8

    def test_agm_tiny_tolerance_terminates(self, monkeypatch):
        # below the roundoff floor the iteration must still stop: (3, 7)
        # reaches a zero gap, and (2, 8) stalls at a nonzero gap, so that
        # only the floor exit ends its loop, one step later than at the
        # fixed tolerance
        _, n_fixed = agm_iterates(2.0, 8.0)
        monkeypatch.setattr(means, "DEFAULT_REL_TOL", 1e-300)
        for a, b in ((3.0, 7.0), (2.0, 8.0)):
            limit, n = agm_iterates(a, b)
            assert math.isfinite(limit)
            assert n < 30
        assert n == n_fixed + 1

    def test_log_mean_equal_arguments(self):
        assert log_mean_float(3.5, 3.5) == 3.5

    def test_log_mean_known_value(self):
        assert log_mean_float(2.0, 8.0) == pytest.approx(6.0 / math.log(4.0), rel=1e-15, abs=0)

    def test_identric_log_space_no_overflow(self):
        # b^b overflows for b ~ 1e3; the form through the log mean must not
        v = identric_mean(MeanInput(1e300, 1e299))
        assert math.isfinite(v)
        assert 1e299 < v < 1e300

    def test_log_mean_branch_seam(self):
        # either side of lo/hi = DBL_MIN, log-difference and log1p forms agree
        edge = 1.0 / sys.float_info.min
        log_difference = log_mean_float(1.0, math.nextafter(edge, math.inf))
        log1p_form = log_mean_float(1.0, math.nextafter(edge, 0.0))
        assert log_difference == pytest.approx(log1p_form, rel=2e-15)
        assert log_difference == pytest.approx(edge / math.log(edge), rel=2e-15)

    def test_identric_either_side_of_hi_log_hi_overflow(self):
        # hi * ln(hi) is finite at 2.5e305 and overflows at 2.6e305; the mean
        # must agree with the homogeneous reduction on both sides
        for hi in (2.5e305, 2.6e305):
            for lo in (1.0, 0.5 * hi):
                v = identric_mean(MeanInput(lo, hi))
                assert v == pytest.approx(hi * identric_mean(MeanInput(lo / hi, 1.0)), rel=1e-12)
