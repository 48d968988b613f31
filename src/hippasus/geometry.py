"""Golden-ratio convergence of Fibonacci quotients and the near-regular
octagon cut from two concentric Fibonacci-diameter circles.

All real arithmetic runs on stdlib ``decimal`` at a configurable number of
significant digits -- binary floats would lose the ratios once F(n) grows.
Internally every computation carries ``digits + 10`` guard digits and rounds
back once at the end, so published values are correctly rounded at the
requested precision (a bare precision-``digits`` chain would double-round:
e.g. the golden ratio at 15 digits must come out 1.61803398874989, not
...90).  Only the convergence rows carry the digits their subtraction
cancels, about 2*log10(F(n)).  Precision travels explicitly in a
PrecisionConfig value; no global decimal state is touched.

The octagon's three ratios are one formula in x = F(n+2)/F(n) and
s = sqrt(x**2 - 1), two products and a division; their limits are the same
formula at x = phi**2 = phi + 1 and s = sqrt(phi**4 - 1) = sqrt(3*phi + 1),
which phi**2 = phi + 1 gives with no product, and the distances between
them come from the conjugate -1/phi.  F(n)/2 and F(n+2)/2 come from one
fast doubling, or, where F(n) is far longer than the guard digits, from
Binet's formula at a few digits more, rounded only where Ziv's test
vouches for it.  The ``octagon`` report takes one fast doubling and five
square roots, or past that switch no doubling and six.

Square roots above 64 digits run Newton's iteration on division, from a
``Decimal.sqrt`` start of 64 digits or fewer, instead of ``Decimal.sqrt``,
whose cost grows as the square of the digit count, to ten digits past the
target; ``_sqrt`` rounds once when those ten digits show no rounding
boundary near, hands the rare root that lies near one to ``Decimal.sqrt``,
and so returns the same correctly rounded value (``octagon_limits`` at
10**4 digits: 7.9 ms, best of 15 in ``BENCH_30.json``, against 175 ms with
``Decimal.sqrt``, on a 2-vCPU VM with Python 3.11).  Fibonacci operands
longer than the precision are halved and rounded on entry by ``_halves``,
not converted whole.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from decimal import ROUND_HALF_EVEN, Decimal, getcontext, localcontext

from .fibonacci import _TABLE, _as_int, _checked_make, _in_range, _pair, _shown, fib

_GUARD_DIGITS = 10

# At or below this precision _sqrt is Decimal.sqrt; above it, Decimal.sqrt
# at this precision or fewer starts the Newton ladder.  64 keeps every
# default-size octagon root (60 digits) on Decimal.sqrt; from 65 to about 100
# digits the ladder costs up to 1.6 us more, from 124 on it gains.  A larger
# value starts the ladder higher, which loses at 300 digits.  _sqrt(2) in us,
# best of 7 in three rounds, 2-vCPU VM, Python 3.11:
#
#   digits             60   66   86  100  124  150  200  300  1000
#   Decimal.sqrt      4.4  4.5  6.9  8.2 11.2 14.3 24.1 46.5  432
#   constant 50       5.7  6.1  6.8  6.4  7.0 10.3  8.4 10.5   32
#   constant 64       4.2  6.1  6.8  7.6  7.0 11.4  9.2 10.4   33
#   constant 100      4.2  4.6  7.1  8.0  8.8 10.5  8.9 12.9   33
_DECIMAL_SQRT_DIGITS = 64

_LOG10_2 = math.log10(2)

# The octagon takes F(n)/2 and F(n+2)/2 from Binet's formula (_binet_halves)
# where n > _BINET_FACTOR * (digits + 10) and n > len(_TABLE), fib's table,
# else from _pair.  Both sides cost the same near the factor: 50 to 55 at 50 and
# 1,000 digits, about 40 at 100 and 200 (us a call, best of 5, 2-vCPU VM,
# Python 3.11).  In the table the exact halves cost 2-5 us, Binet's 8 or more.
_BINET_FACTOR = 50


class PrecisionTooLow(ValueError):
    """Requested precision cannot represent the computation faithfully."""


class PrecisionConfig(namedtuple("PrecisionConfig", "digits")):
    """Number of decimal significant digits for all real-valued results."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, digits: int = 50) -> "PrecisionConfig":
        digits = _as_int(digits, "digits")
        if digits < 15:
            raise PrecisionTooLow(f"digits must be >= 15, got {_shown(digits)}")
        return super().__new__(cls, digits)


def _digit_count(value: int) -> int:
    """len(str(value)) for value >= 1, clear of the interpreter's int->str
    limit, at the cost of one power of ten.  Decimal(value) would convert
    the whole of value, which is quadratic in its length: on a 2-vCPU VM
    8 ms at F(10**5) and 0.8 s at F(10**6), against 0.6 ms and 25 ms."""
    d = _least_digits(value)
    return d + (value >= 10**d)


def _sqrt(x: Decimal) -> Decimal:
    """x.sqrt() in the current context, at the cost of a few divisions.

    libmpdec's square root (CPython 3.10-3.12) is quadratic in the precision:
    24 ms at 7,500 digits, where a division takes 1.4 ms.  Up to
    _DECIMAL_SQRT_DIGITS this is Decimal.sqrt itself.  Above, it starts from
    Decimal.sqrt at that many digits or fewer and runs Newton's iteration
    y <- (y + x/y)/2, half-even, at precisions that double up to the target
    plus ten (Brent & Zimmermann, Modern Computer Arithmetic, 3.5).  An ulp
    at precision p is here 10**(1 - p) of the value.  The start is correctly
    rounded, and each step at precision p comes from precision p//2 + 2, so
    the squared error it inherits is under 0.1 ulp at p; the step adds four
    roundings of at most half an ulp: x on entry and the division, each
    worth half as much in the sum, then the addition and the halving.  y is
    therefore within 2 ulps of the root at the target plus ten, under 20
    units of its last digit.

    Rounding y to the target then gives the correctly rounded root unless a
    rounding boundary lies that near: Ziv's rounding test (ACM TOMS 17(3),
    1991) reads the ten digits past the target's, zeros past y's end, and
    takes +y when they lie more than 100 units from 0, 5*10**9 and 10**10.
    That is Decimal.sqrt's value, ties to even whatever the caller's
    rounding, with all prec digits, as an inexact root has.  Otherwise
    (exact roots, midpoints, and about 4 in 10**8 roots whose digits are
    evenly spread) Decimal.sqrt decides.
    """
    prec = getcontext().prec
    if prec <= _DECIMAL_SQRT_DIGITS or not x > 0:
        return x.sqrt()
    with localcontext() as ctx:
        ctx.rounding = ROUND_HALF_EVEN
        ladder = []
        step = prec + 10
        while step > _DECIMAL_SQRT_DIGITS:
            ladder.append(step)
            step = step // 2 + 2  # one step takes k correct digits to about 2k
        ctx.prec = step
        y = x.sqrt()
        for step in reversed(ladder):
            ctx.prec = step
            y = (y + (+x) / y) / 2  # x rounded to the step: a shorter division
        if _rounds_safely(y, prec):
            ctx.prec = prec
            return +y
    return x.sqrt()


def _rounds_safely(y: Decimal, prec: int) -> bool:
    """Ziv's rounding test: True when every value within 100 units of the
    tenth digit past y's first prec digits rounds to prec digits as y does,
    in every rounding mode.  y carries at least prec + 10 digits, and the
    context at least y's; the ten digits past the first prec (zeros past
    y's end) must lie more than 100 units from 0, 5*10**9 and 10**10, the
    places where some mode's rounding changes."""
    tail = int(y.scaleb(prec + 9 - y.adjusted()) % 10**10)  # digits prec+1..prec+10
    return 100 < tail % (5 * 10**9) < 5 * 10**9 - 100


def _least_digits(n: int) -> int:
    """A lower bound on the digit count of n >= 1, off by at most one."""
    return int((n.bit_length() - 1) * _LOG10_2) + 1


def _halves(low: int, high: int) -> tuple[Decimal, Decimal]:
    """Decimal(low) / 2 and Decimal(high) / 2 in the current context, for
    1 <= low <= high, each rounded once.

    Decimal(n) is quadratic in n's size: 8.4-9.0 ms at 20,899 digits.  A
    value no longer than the precision is divided as it stands: its quotient
    may be exact, and decimal gives an exact quotient the exponent of the
    integer (4, not 4.0).  A longer n/2 is the rounded 5*n shifted down one
    place.  With 5*n = q*10**k + r, 10*q + (r != 0) scaled by 10**(k - 2)
    rounds exactly like n/2 while q is at least two digits longer than the
    precision: it keeps every digit the rounding reads, and its last, sticky
    digit is nonzero just when a dropped digit is.  k is taken from low, and
    is 0, which drops nothing, where low is short; so both values share one
    power of ten (0.4 ms at 20,899 digits).
    """
    prec = getcontext().prec
    k = max(_least_digits(low) - prec - 2, 0)
    unit = 10**k

    def half(n: int) -> Decimal:
        if _least_digits(n) <= prec:
            return Decimal(n) / 2
        q, r = divmod(5 * n, unit)
        return Decimal(10 * q + (r != 0)).scaleb(k - 2)

    return half(low), half(high)


def _binet_halves(n: int) -> tuple[Decimal, Decimal] | None:
    """F(n)/2 and F(n+2)/2 as ``_halves`` gives them, by Binet's formula, or
    None where the rounding test cannot vouch for them.

    F(n) = (phi**(n+1) - psi**(n+1))/sqrt(5) with psi = -1/phi, so F(n)/2 is
    phi**(n+1)/(2*sqrt(5)) and F(n+2)/2 is that times phi**2 = phi + 1, each
    up to a psi term whose share is phi**(-2n-2): below 10**(-20*p) where
    ``_octagon`` calls this, past n = 50*p.  They are taken half-even at
    w = p + 10 + len(str(n)) + 2 digits, p the context's precision, and
    u = 10**(1 - w)/2 bounds the relative error of one rounding.  sqrt(5)
    is correctly rounded and phi is within 3u.  Decimal's integer power
    works at w + len(str(n + 1)) + 2 digits and rounds once (libmpdec's
    _mpd_qpow_int), within 1.1u (0.97u at worst in 3,000 random draws of w
    and n), and it multiplies phi's error by n + 1 <= 10**len(str(n)).  With
    the division and the product by phi + 1, each value is within
    (3*10**len(str(n)) + 9)*u, which is under 2*10**(-p - 11) of it: less
    than a fifth of a unit of the tenth digit past the first p.
    ``_rounds_safely`` allows 100 such units, so when it passes on both
    values, each rounds, in the caller's rounding, to the correctly rounded
    F(n)/2 or F(n+2)/2, as ``_halves`` does.  (At p + len(str(n)) + 2
    digits the error would reach a fifth of a unit of the first digit past
    p, and the halves, not yet the published digits, would misround.)
    """
    ctx = getcontext()
    prec, rounding = ctx.prec, ctx.rounding
    with localcontext() as work:
        work.prec = prec + 10 + len(str(n)) + 2
        work.rounding = ROUND_HALF_EVEN
        root5 = _sqrt(Decimal(5))
        golden = (1 + root5) / 2
        inner = golden ** (n + 1) / (2 * root5)
        outer = inner * (golden + 1)
        if not (_rounds_safely(inner, prec) and _rounds_safely(outer, prec)):
            return None
        work.prec, work.rounding = prec, rounding
        return +inner, +outer


def _golden() -> Decimal:
    """(1 + sqrt(5)) / 2 at the precision of the current decimal context."""
    return (1 + _sqrt(Decimal(5))) / 2


def phi(cfg: PrecisionConfig) -> Decimal:
    """(1 + sqrt(5)) / 2 to cfg.digits significant digits."""
    with localcontext() as ctx:
        ctx.prec = cfg.digits + _GUARD_DIGITS
        value = _golden()
        ctx.prec = cfg.digits
        return +value


class ConvergenceRow(namedtuple("ConvergenceRow", "n ratio error")):
    """One quotient F(n+1)/F(n) and its signed distance below/above the limit.

    error = phi - ratio alternates in sign and shrinks with n.  The package
    builds this record and ``OctagonGeometry`` by ``tuple.__new__``, past
    the generated ``__new__``, as ``descent.successors`` builds its own.
    """

    __slots__ = ()


def convergence_table(n_max: int, cfg: PrecisionConfig) -> list[ConvergenceRow]:
    """Rows for n = 0..n_max: ratio F(n+1)/F(n) and error phi - ratio.

    Raises PrecisionTooLow unless cfg.digits > log10(F(n_max)) + 10, that
    is, unless cfg.digits is at least the digit count of F(n_max) plus 10,
    so every quotient keeps meaningful fractional precision.  Row n is
    computed at its own precision, the guard digits plus the 2*log10(F(n))
    digits its subtraction cancels, and rounded once to cfg.digits.  The
    F(n) are Decimals from the start, summed exactly, so no integer is
    converted.
    """
    return list(_convergence_rows(n_max, cfg))


def _convergence_rows(n_max: int, cfg: PrecisionConfig) -> Iterator[ConvergenceRow]:
    """convergence_table's rows, one at a time; the arguments are checked
    at the call, before the first row."""
    n_max = _as_int(n_max, "n_max", 1)
    max_digits = _digit_count(fib(n_max))
    if max_digits > cfg.digits - _GUARD_DIGITS:
        raise PrecisionTooLow(
            f"digits={cfg.digits} too low for F({n_max}); "
            f"need digits > log10(F(n_max)) + {_GUARD_DIGITS}"
        )
    return _rows(n_max, cfg.digits, max_digits)


def _rows(n_max: int, digits: int, max_digits: int) -> Iterator[ConvergenceRow]:
    # every operation names its context: a localcontext would stay in force
    # in the caller between rows
    out = getcontext().copy()  # the caller's rounding, at the published digits
    out.prec = digits
    ctx = out.copy()
    base = digits + _GUARD_DIGITS
    # |phi - F(n+1)/F(n)| ~ 1/(sqrt(5)*F(n)**2), so row n's subtraction
    # cancels about 2*log10(F(n)) leading digits; phi is taken once, at the
    # last row's width
    ctx.prec = base + 2 * max_digits
    with localcontext(ctx):
        golden = _golden()
    a = b = Decimal(1)  # F(n), F(n+1)
    for n in range(n_max + 1):
        ctx.prec = base + 2 * (a.adjusted() + 1)
        ratio = ctx.divide(b, a)
        error = ctx.subtract(golden, ratio)  # rounded once, at the row's precision
        yield tuple.__new__(ConvergenceRow, (n, out.plus(ratio), out.plus(error)))
        a, b = b, ctx.add(a, b)  # exact: F(n+2) is much shorter than the precision


class OctagonGeometry(
    namedtuple(
        "OctagonGeometry", "n p q d e ratio_d_over_f ratio_d_over_e ratio_e_over_f"
    )
):
    """Per-n geometry of the octagon side cut from the circle of diameter
    F(n+2) by the tangents to the concentric circle of diameter F(n).

    p and q are the first-quadrant endpoints of one side (q is p with its
    coordinates swapped); d is that side's length, e the side of the regular
    octagon inscribed in the outer circle.
    """

    __slots__ = ()


def octagon(n: int, cfg: PrecisionConfig) -> OctagonGeometry:
    """Geometry at index n: coordinates, side lengths d and e, and the three
    tracked ratios d/F(n), d/e, e/F(n), all to cfg.digits."""
    with localcontext() as ctx:
        ctx.prec = cfg.digits + _GUARD_DIGITS
        geo = _octagon(n, *_roots_of_two())[0]
        ctx.prec = cfg.digits
        return _rounded(geo)


def _roots_of_two() -> tuple[Decimal, Decimal]:
    """sqrt(2) and sqrt(2 - sqrt(2)) in the current context: the two roots
    the octagon and its limits share."""
    sqrt2 = _sqrt(Decimal(2))
    return sqrt2, _sqrt(2 - sqrt2)


def _octagon(n: int, sqrt2: Decimal, root_2m: Decimal) -> tuple[OctagonGeometry, Decimal, Decimal]:
    """The geometry at index n, every value at the current context's
    precision, given sqrt(2) and sqrt(2 - sqrt(2)) at it; then the point
    (x, s) its ratios are taken at (``_ratios``).

    F(n)/2 and F(n+2)/2 come from ``_binet_halves`` past the switch
    (``_BINET_FACTOR``), else, or where its rounding test fails, from one
    fast doubling, each halved and rounded once by ``_halves``.  s is p_y's
    own root over F(n)/2: F(n)/2 * sqrt(x**2 - 1) would not keep an exact
    root exact (n = 4, 5-12-13: 6.0, not 6.00).
    """
    n = _as_int(n, "n", 0)
    _in_range(n + 2)
    past_switch = n > max(_BINET_FACTOR * getcontext().prec, len(_TABLE))
    halves = _binet_halves(n) if past_switch else None
    if halves is None:
        f_n, f_n1 = _pair(n)
        halves = _halves(f_n, f_n + f_n1)
    half_inner, half_outer = halves
    p_y = _sqrt(half_outer * half_outer - half_inner * half_inner)
    x, s = half_outer / half_inner, p_y / half_inner
    ratios = _ratios(x, s, sqrt2, root_2m)
    d, e = sqrt2 * (p_y - half_inner), half_outer * root_2m  # e = 2R*sin(pi/8), 2R = F(n+2)
    geo = tuple.__new__(OctagonGeometry, (n, (half_inner, p_y), (p_y, half_inner), d, e, *ratios))
    return geo, x, s


def _ratios(x: Decimal, s: Decimal, sqrt2: Decimal, root_2m: Decimal) -> tuple[Decimal, ...]:
    """(d/F(n), d/e, e/F(n)) at x = F(n+2)/F(n), s = sqrt(x**2 - 1), given
    sqrt(2) and sqrt(2 - sqrt(2)): with the inner radius F(n)/2 as the unit,
    p = (1, s), d = sqrt(2)*(s - 1) and e = sqrt(2 - sqrt(2))*x.  Two
    products; d/e is the quotient of the other two."""
    d_over_f, e_over_f = sqrt2 / 2 * (s - 1), root_2m / 2 * x
    return d_over_f, d_over_f / e_over_f, e_over_f


def _rounded(geo: OctagonGeometry) -> OctagonGeometry:
    """geo with every value rounded to the current context."""
    p = (+geo.p[0], +geo.p[1])
    return tuple.__new__(OctagonGeometry, (geo.n, p, (p[1], p[0]), *(+value for value in geo[3:])))


def octagon_limits(cfg: PrecisionConfig) -> tuple[Decimal, Decimal, Decimal]:
    """Closed-form limits of (d/F(n), d/e, e/F(n)) as n grows:

        (sqrt(2)/2) * (sqrt(phi**4 - 1) - 1)                    ~ 1.00376
        (sqrt(2)/sqrt(2 - sqrt(2))) * (sqrt(1 - phi**-4) - phi**-2)  ~ 1.00187
        (sqrt(2 - sqrt(2))/2) * phi**2                          ~ 1.00188

    The first equals the product of the other two.  They are ``_ratios`` at
    x = phi**2 and s = sqrt(phi**4 - 1), and phi**2 = phi + 1 gives both
    without a product: x = phi + 1, and phi**4 = 3*phi + 2, so
    s = sqrt(3*phi + 1).  Four square roots (of 5, of 3*phi + 1, of 2 and of
    2 - sqrt(2)) and two products, the two in ``_ratios``.  The ``octagon``
    report shares the roots of two with the octagon.
    """
    with localcontext() as ctx:
        ctx.prec = cfg.digits + _GUARD_DIGITS
        limits = _ratios(*_golden_terms(), *_roots_of_two())
        ctx.prec = cfg.digits
        return tuple(+limit for limit in limits)


def _golden_terms() -> tuple[Decimal, Decimal]:
    """phi**2 = phi + 1 and sqrt(phi**4 - 1) = sqrt(3*phi + 1) in the current
    context, the point (x, s) of the limits: two roots, of 5 and of 3*phi + 1,
    and no product."""
    golden = _golden()
    return golden + 1, _sqrt(3 * golden + 1)


def octagon_deviations(n: int, cfg: PrecisionConfig) -> tuple[Decimal, Decimal, Decimal]:
    """ratio - limit for the three ratios of ``octagon(n, cfg)``, to cfg.digits.

    The ratios close on their limits like 1/F(n)**2, so ratio - limit would
    cancel about 2*log10(F(n)) digits; each deviation is instead taken from
    the conjugate psi = -1/phi, where nothing cancels.  With x = F(n+2)/F(n),
    Binet's formula gives x - phi**2 = psi**(n+1)/F(n), and
    phi**(n+1) = F(n)*phi + F(n-1) = F(n) * (x + phi**2 - 3), so

        t = x - phi**2 = (-1)**(n+1) / (F(n)**2 * (x + phi**2 - 3)).

    The ratios are ``_ratios`` at (x, s = sqrt(x**2 - 1)) and the limits at
    (phi**2, S = sqrt(phi**4 - 1)); with l1 and l3 the first and third limits,

        dev3 = (sqrt(2 - sqrt(2))/2) * t
        dev1 = (sqrt(2)/2) * (s - S) = (sqrt(2)/2) * t*(x + phi**2) / (s + S)
        dev2 = d/e - l1/l3 = (dev1*l3 - l1*dev3) / ((l3 + dev3) * l3)

    by the difference of squares.  Each value takes about a dozen roundings
    and cancels nowhere but in dev2's numerator, whose terms differ by a
    factor of about 2: it is within a few ulps at the guard digits and rounds
    once to cfg.digits.  This is the ``octagon`` report's pass: one fast
    doubling and five roots, or past Binet's switch none and six.
    """
    return _octagon_report(n, cfg)[2]


def _octagon_report(
    n: int, cfg: PrecisionConfig
) -> tuple[OctagonGeometry, tuple[Decimal, ...], tuple[Decimal, ...]]:
    """octagon(n, cfg), octagon_limits(cfg) and octagon_deviations(n, cfg)
    from one pass at the guard digits: one fast doubling and five roots (no
    doubling and six past Binet's switch), and one rounding of each value."""
    with localcontext() as ctx:
        ctx.prec = cfg.digits + _GUARD_DIGITS
        sqrt2, root_2m = _roots_of_two()
        geo, x, s = _octagon(n, sqrt2, root_2m)
        golden2, s_limit = _golden_terms()
        limits = l1, _, l3 = _ratios(golden2, s_limit, sqrt2, root_2m)
        x_sum = x + golden2
        t = (-1) ** (geo.n + 1) / (4 * geo.p[0] * geo.p[0] * (x_sum - 3))  # F(n) = 2*p[0]
        dev1 = sqrt2 / 2 * (t * x_sum) / (s + s_limit)
        dev3 = root_2m / 2 * t
        dev2 = (dev1 * l3 - l1 * dev3) / ((l3 + dev3) * l3)
        ctx.prec = cfg.digits
        return _rounded(geo), tuple(+limit for limit in limits), (+dev1, +dev2, +dev3)
