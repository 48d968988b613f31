"""Hypothesis properties of the golden-ratio convergence table against a
closed form kept out of the package, so the suite does not check it against
itself, of the octagon deviations against the wide pass, and of geometry's
square root and halving of integers against decimal's own."""
import sys
from decimal import Decimal, localcontext
from itertools import islice

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hippasus.fibonacci import fib  # noqa: E402
from hippasus.geometry import (  # noqa: E402
    PrecisionConfig,
    _golden,
    _halves,
    _sqrt,
    convergence_table,
    octagon_deviations,
)
from oracles import walk  # noqa: E402
from test_geometry import ROUNDINGS, deviations_by_wide_pass  # noqa: E402


@st.composite
def table_requests(draw):
    n_max = draw(st.integers(min_value=1, max_value=1000))
    least = max(15, len(str(fib(n_max))) + 11)
    return n_max, draw(st.integers(min_value=least, max_value=least + 200))


@settings(deadline=None, max_examples=40)
@given(table_requests())
def test_error_column_matches_closed_form(request):
    # phi - F(n+1)/F(n) = (-1)**n / (phi**(n+1) * F(n)), from Binet's formula;
    # no cancellation, so a few digits past the published ones suffice
    n_max, digits = request
    rows = convergence_table(n_max, PrecisionConfig(digits))
    with localcontext() as ctx:
        ctx.prec = digits + 20
        golden = (1 + Decimal(5).sqrt()) / 2
        power = golden  # phi**(n+1)
        for row in rows:
            expected = (-1) ** row.n / (power * fib(row.n))
            ulp = Decimal(10) ** (row.error.adjusted() - digits + 1)
            assert abs(row.error - expected) <= ulp, row.n
            power *= golden


def convergence_at_uniform_precision(n_max: int, digits: int) -> list[tuple]:
    """Reference: (n, ratio, error) with every row at the last row's
    precision, rounded to digits in the caller's context."""
    rows = []
    with localcontext() as ctx:
        ctx.prec = digits + 10 + 2 * len(str(fib(n_max)))
        golden = _golden()
        for n, a, b in islice(walk(), n_max + 1):
            ratio = Decimal(b) / Decimal(a)
            error = golden - ratio
            with localcontext() as out:
                out.prec = digits
                rows.append((n, +ratio, +error))
    return rows


@st.composite
def short_table_requests(draw):
    n_max = draw(st.integers(min_value=1, max_value=600))
    least = max(15, len(str(fib(n_max))) + 11)
    return n_max, draw(st.integers(min_value=least, max_value=max(least, 200)))


@settings(deadline=None, max_examples=40)
@given(short_table_requests(), st.sampled_from(ROUNDINGS))
def test_rows_at_their_own_precision_match_the_uniform_table(request, rounding):
    # each row carries the digits its own subtraction cancels, not the last
    # row's; the printed digits, under any caller's rounding, stay the same
    n_max, digits = request
    with localcontext() as ctx:
        ctx.rounding = rounding
        rows = convergence_table(n_max, PrecisionConfig(digits))
        expected = convergence_at_uniform_precision(n_max, digits)
    assert [(row.n, repr(row.ratio), repr(row.error)) for row in rows] == [
        (n, repr(ratio), repr(error)) for n, ratio, error in expected
    ]


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=20_000), st.integers(min_value=15, max_value=300))
def test_deviations_by_the_conjugate_match_the_wide_pass(n, digits):
    # each deviation has the sign of x - phi**2 = psi**(n+1)/F(n)
    cfg = PrecisionConfig(digits)
    deviations = octagon_deviations(n, cfg)
    assert repr(deviations) == repr(deviations_by_wide_pass(n, cfg))
    assert all((deviation > 0) == (n % 2 == 1) for deviation in deviations)


# --- the square root and the rounded halves against decimal's own ----------

def _digits(rng, most: int) -> int:
    """An integer of 1..most digits, length and digits drawn evenly (the
    integers hypothesis draws itself stay short)."""
    length = rng.randint(1, most)
    return rng.randrange(10 ** (length - 1), 10**length)


@st.composite
def radicands(draw):
    """(precision, x): x of any length and a wide exponent range, including
    exact squares (with and without padding zeros) and values below 1."""
    prec = draw(st.integers(min_value=15, max_value=3000))
    rng = draw(st.randoms(use_true_random=True))
    kind = draw(st.sampled_from(["any", "square", "below_one"]))
    with localcontext() as ctx:
        ctx.prec = 2 * prec + 50  # every value below is exact
        if kind == "square":
            root = Decimal(_digits(rng, prec)).scaleb(draw(st.integers(-400, 400)))
            x = root * root
            padding = draw(st.integers(min_value=0, max_value=40))
            return prec, x.quantize(Decimal((0, (1,), x.as_tuple().exponent - padding)))
        coefficient = Decimal(_digits(rng, 2 * prec + 20))
        if kind == "below_one":
            exponent = -coefficient.adjusted() - draw(st.integers(min_value=1, max_value=2000))
        else:
            exponent = draw(st.integers(min_value=-2000, max_value=2000))
        return prec, coefficient.scaleb(exponent)


@settings(deadline=None, max_examples=150)
@given(radicands(), st.sampled_from(ROUNDINGS))
def test_sqrt_is_decimal_sqrt(case, rounding):
    # both are the correctly rounded root, ties to even, so they are equal,
    # and an exact root keeps decimal's ideal exponent
    prec, x = case
    with localcontext() as ctx:
        ctx.prec = prec
        ctx.rounding = rounding
        assert repr(_sqrt(x)) == repr(x.sqrt())


@pytest.mark.parametrize("rounding", ROUNDINGS)
def test_sqrt_ties_go_to_even(rounding):
    # x = m**2 for an m of prec + 1 digits ending in 5: the root is a midpoint;
    # a few units off m**2 at 3*prec digits, it is a hair to either side.
    # At 150 digits, between the size constant (64) and 200, a root is Newton's
    for prec in (150, 250, 1000):
        for tail in (5, 15, 25, 95, 99995):
            with localcontext() as ctx:
                ctx.prec = 3 * prec
                m = Decimal(10**prec + tail).scaleb(-prec)
                square = m * m
                unit = Decimal((0, (1,), square.adjusted() - 3 * prec + 1))
                for x in (square, square - 3 * unit, square + unit):
                    ctx.prec = prec
                    ctx.rounding = rounding
                    assert repr(_sqrt(x)) == repr(x.sqrt()), (prec, tail, x - square)


class SqrtSpy(Decimal):
    """A radicand that counts the calls to its own sqrt."""

    def sqrt(self, context=None):
        self.calls = getattr(self, "calls", 0) + 1
        return super().sqrt(context)


def _sqrt_calls(x: Decimal) -> int:
    """The Decimal.sqrt calls _sqrt makes on x in the current context,
    once its result has been checked against Decimal.sqrt's."""
    spy = SqrtSpy(x)
    assert repr(_sqrt(spy)) == repr(x.sqrt())
    return spy.calls


SQRT_PRECISIONS = (60, 124, 201, 1000, 4217, 10**4)


# the gate cases: every precision from 25 to 400 (both sides of the size
# constant, and the CLI's 60-, 86- and 124-digit roots), and 3*10**4 digits
@pytest.mark.parametrize("prec", [
    *SQRT_PRECISIONS,
    *(pytest.param(prec, marks=pytest.mark.gate)
      for prec in [*range(25, 401), 3 * 10**4] if prec not in SQRT_PRECISIONS),
])
def test_sqrt_falls_back_only_near_a_rounding_boundary(prec):
    # the start is one call and the fallback a second; a rounding test that
    # always fell back would pass every equality test above and cost 2-10
    # times as much.  At or below geometry's size constant, 64 digits (60:
    # every default-size octagon root), Decimal.sqrt is the whole answer, so
    # even an exact root takes one call; at 124 digits (phi-convergence's
    # root) the start is the only one.  The octagon's radicands: 2,
    # 2 - sqrt(2), 5, sqrt(5) and p_y**2 = (F(n+2)/2)**2 - (F(n)/2)**2
    with localcontext() as ctx:
        ctx.prec = prec
        sqrt2 = Decimal(2).sqrt()
        for n in (40, 100_000):
            half_inner, half_outer = Decimal(fib(n)) / 2, Decimal(fib(n + 2)) / 2
            p_y2 = half_outer * half_outer - half_inner * half_inner
            for x in (Decimal(2), 2 - sqrt2, Decimal(5), Decimal(5).sqrt(), p_y2):
                assert _sqrt_calls(x) == 1, (prec, n, x)
        # exact squares, padded with zeros or not, and an exact midpoint;
        # 36.00 is p_y**2 at n = 4, whose root takes the ideal exponent, 6.0
        ctx.prec = 3 * prec
        square = sqrt2 * sqrt2
        m = sqrt2 + Decimal((0, (5,), -prec))  # prec + 1 digits, the last a 5
        padded = square.quantize(Decimal((0, (1,), square.as_tuple().exponent - 7)))
        exact = (square, padded, Decimal("36.00"), m * m)
        ctx.prec = prec
        for x in exact:
            assert _sqrt_calls(x) == (1 if prec <= 64 else 2), (prec, x)


def _edge_integers(k: int) -> list[int]:
    """10**k, 5*10**k and their neighbours, and the integers from 10**k up
    to the next power of two, whose digit count the bit-length estimate
    puts one too low."""
    power, top = 10**k, 1 << (10**k).bit_length()
    return [power - 1, power, power + 1, 5 * power - 1, 5 * power, 5 * power + 1,
            top - 1, (power + top) // 2]


@st.composite
def conversions(draw):
    prec = draw(st.integers(min_value=15, max_value=3000))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=3 * prec))
        n = draw(st.sampled_from(_edge_integers(k)))
    else:
        n = _digits(draw(st.randoms(use_true_random=True)), 3 * prec)
    # a smaller value whose power of ten n shares, as F(n+2) shares F(n)'s
    return prec, n, max(1, n // draw(st.integers(min_value=1, max_value=10**6)))


@settings(deadline=None, max_examples=150)
@given(conversions(), st.sampled_from(ROUNDINGS))
def test_rounded_conversion_is_decimal_rounding(case, rounding):
    prec, n, smaller = case
    with localcontext() as ctx:
        ctx.prec = prec
        ctx.rounding = rounding
        expected = (Decimal(smaller) / 2, Decimal(n) / 2)
        assert repr(_halves(smaller, n)) == repr(expected)
        assert repr(_halves(n, n)) == repr((expected[1], expected[1]))


def test_rounded_conversion_of_a_hundred_thousand_digits():
    # near 10**100000; the limit is lifted only so that a failure can print n
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in [fib(478_000)] + _edge_integers(100_000)[:3]:
            exact = Decimal(n)  # 0.2 s: convert once
            for prec in (15, 60, 1000):
                for rounding in ROUNDINGS:
                    with localcontext() as ctx:
                        ctx.prec = prec
                        ctx.rounding = rounding
                        expected = (exact / 2, exact / 2)
                        assert repr(_halves(n, n)) == repr(expected), (prec, rounding)
    finally:
        sys.set_int_max_str_digits(before)
