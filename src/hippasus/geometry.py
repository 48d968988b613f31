"""Golden-ratio convergence of Fibonacci quotients and the near-regular
octagon cut from two concentric Fibonacci-diameter circles.

All real arithmetic runs on stdlib ``decimal`` at a configurable number of
significant digits -- binary floats would lose the ratios once F(n) grows.
Internally every computation carries ``digits + 10`` guard digits and rounds
back once at the end, so published values are correctly rounded at the
requested precision (a bare precision-``digits`` chain would double-round:
e.g. the golden ratio at 15 digits must come out 1.61803398874989, not
...90).  A distance to a limit also carries the digits its subtraction
cancels, about 2*log10(F(n)).  Precision travels explicitly in a
PrecisionConfig value; no global decimal state is touched.

Square roots above a couple of hundred digits run Newton's iteration on
division instead of ``Decimal.sqrt``, whose cost grows as the square of the
digit count; ``_sqrt`` returns the same correctly rounded value.
"""
from __future__ import annotations

import math
from collections import namedtuple
from decimal import Decimal, getcontext, localcontext

from .fibonacci import _as_int, _checked_make, _in_range, _pair, fib

_GUARD_DIGITS = 10

# At or below this precision Decimal.sqrt is at least as fast as _sqrt's
# Newton iteration: on a 2-vCPU VM with Python 3.11 both take 21 us at 200
# digits, against 13 us (Decimal.sqrt) and 17 us at 150, 42 us and 28 us at
# 300.  Every default-size CLI call carries at most 124 digits and so keeps
# Decimal.sqrt.
_NEWTON_DIGITS = 200

_LOG10_2 = math.log10(2)


class PrecisionTooLow(ValueError):
    """Requested precision cannot represent the computation faithfully."""


class PrecisionConfig(namedtuple("PrecisionConfig", "digits")):
    """Number of decimal significant digits for all real-valued results."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, digits: int = 50) -> "PrecisionConfig":
        digits = _as_int(digits, "digits")
        if digits < 15:
            raise PrecisionTooLow(f"digits must be >= 15, got {digits}")
        return super().__new__(cls, digits)


def _round_to(value: Decimal, digits: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits
        return +value


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
    22 ms at 7,500 digits, where a division takes 1.4 ms.  Above
    _NEWTON_DIGITS this starts from Decimal.sqrt at about 50 digits and runs
    Newton's iteration y <- (y + x/y)/2 at precisions that double up to the
    target plus three (Brent & Zimmermann, Modern Computer Arithmetic, 3.5),
    rounds once, and then steps the result by one ulp until exact squares of
    the midpoints to its neighbours bracket x, ties going to the even
    neighbour.  The result is then the correctly rounded root under
    ROUND_HALF_EVEN, which is what Decimal.sqrt returns, so the two are
    equal; an exact root also gets Decimal.sqrt's exponent.
    """
    prec = getcontext().prec
    if prec <= _NEWTON_DIGITS or not x > 0:
        return x.sqrt()
    with localcontext() as ctx:
        ladder = []
        step = prec + 3
        while step > 50:
            ladder.append(step)
            step = step // 2 + 2  # one step takes k correct digits to about 2k
        ctx.prec = step
        y = x.sqrt()
        for step in reversed(ladder):
            ctx.prec = step
            y = (y + (+x) / y) / 2  # x rounded to the step: a shorter division
        ctx.prec = prec
        r = +y
        narrow = ctx.copy()
        ctx.prec = 2 * prec + 10  # squares of prec + 1 digits are exact
        # all prec digits, as an inexact Decimal.sqrt has, should an exact
        # division have left y short; the parity test reads the last of them
        r = r.quantize(Decimal((0, (1,), r.adjusted() - prec + 1)))
        while True:
            up = r.next_plus(narrow)
            mid = (r + up) / 2
            mid *= mid
            if mid < x or mid == x and r.as_tuple().digits[-1] % 2:
                r = up
                continue
            down = r.next_minus(narrow)
            mid = (down + r) / 2
            mid *= mid
            if mid > x or mid == x and r.as_tuple().digits[-1] % 2:
                r = down
                continue
            break
        if r * r == x:  # exact: the ideal exponent is half x's, as near as prec allows
            ideal = max(x.as_tuple().exponent // 2, r.adjusted() - prec + 1)
            r = r.quantize(Decimal((0, (1,), ideal)))
    return r


def _least_digits(n: int) -> int:
    """A lower bound on the digit count of n >= 1, off by at most one."""
    return int((n.bit_length() - 1) * _LOG10_2) + 1


def _to_decimal(n: int) -> Decimal:
    """+Decimal(n) in the current context, for n >= 1, converting only a few
    digits more than the precision.

    Decimal(n) is quadratic in n's size: 8.4-9.0 ms at 20,899 digits.  With
    n = q*10**k + r and q at least two digits longer than the precision,
    10*q + (r != 0), scaled by 10**(k - 1), rounds exactly like n: it keeps
    every digit the rounding reads, and its last, sticky digit is nonzero
    just when a dropped digit is, which is all the rounding needs of them.
    """
    k = _least_digits(n) - getcontext().prec - 2
    if k < 1:
        return +Decimal(n)
    q, r = divmod(n, 10**k)
    return Decimal(10 * q + (r != 0)).scaleb(k - 1)


def _half(n: int) -> Decimal:
    """Decimal(n) / 2 in the current context for n >= 1, rounded once.

    Past the precision, n/2 is the rounded 5*n shifted down one place, which
    is also rounded once.  A shorter n is divided as it stands: its quotient
    may be exact, and decimal gives an exact quotient the exponent of the
    integer (4, not the shifted 4.0).
    """
    if _least_digits(n) <= getcontext().prec:
        return Decimal(n) / 2
    return _to_decimal(5 * n).scaleb(-1)


def _golden() -> Decimal:
    """(1 + sqrt(5)) / 2 at the precision of the current decimal context."""
    return (1 + _sqrt(Decimal(5))) / 2


def phi(cfg: PrecisionConfig) -> Decimal:
    """(1 + sqrt(5)) / 2 to cfg.digits significant digits."""
    with localcontext() as ctx:
        ctx.prec = cfg.digits + _GUARD_DIGITS
        value = _golden()
    return _round_to(value, cfg.digits)


class ConvergenceRow(namedtuple("ConvergenceRow", "n ratio error")):
    """One quotient F(n+1)/F(n) and its signed distance below/above the limit.

    error = phi - ratio alternates in sign and shrinks with n.
    """

    __slots__ = ()


def convergence_table(n_max: int, cfg: PrecisionConfig) -> list[ConvergenceRow]:
    """Rows for n = 0..n_max: ratio F(n+1)/F(n) and error phi - ratio.

    Raises PrecisionTooLow unless cfg.digits exceeds the digit count of
    F(n_max) by more than 10, so every quotient keeps meaningful fractional
    precision.  Row n is computed at its own precision, the guard digits
    plus the 2*log10(F(n)) digits its subtraction cancels, and rounded once
    to cfg.digits.  The F(n) are Decimals from the start, summed exactly,
    so no integer is converted.
    """
    n_max = _as_int(n_max, "n_max", 1)
    f_max = fib(n_max)
    if 10 ** (cfg.digits - _GUARD_DIGITS) <= f_max:
        raise PrecisionTooLow(
            f"digits={cfg.digits} too low for F({n_max}); "
            f"need digits > log10(F(n_max)) + {_GUARD_DIGITS}"
        )
    rows = []
    out = getcontext().copy()  # the caller's rounding, at the published digits
    out.prec = cfg.digits
    base = cfg.digits + _GUARD_DIGITS
    with localcontext() as ctx:
        # |phi - F(n+1)/F(n)| ~ 1/(sqrt(5)*F(n)**2), so row n's subtraction
        # cancels about 2*log10(F(n)) leading digits; phi is taken once, at
        # the last row's width
        ctx.prec = base + 2 * _digit_count(f_max)
        golden = _golden()
        a = b = Decimal(1)  # F(n), F(n+1)
        for n in range(n_max + 1):
            ctx.prec = base + 2 * (a.adjusted() + 1)
            ratio = b / a
            error = golden - ratio  # rounded once, at the row's precision
            rows.append(ConvergenceRow(n, out.plus(ratio), out.plus(error)))
            a, b = b, a + b  # exact: F(n+2) is much shorter than the precision
    return rows


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
    n = _as_int(n, "n", 0)
    _in_range(n + 2)
    with localcontext() as ctx:
        ctx.prec = cfg.digits + _GUARD_DIGITS
        geo = _octagon(n, *_roots_of_two())
    return _rounded(geo, cfg.digits)


def _roots_of_two() -> tuple[Decimal, Decimal]:
    """sqrt(2) and sqrt(2 - sqrt(2)) in the current context: the two roots
    the octagon and its limits share."""
    sqrt2 = _sqrt(Decimal(2))
    return sqrt2, _sqrt(2 - sqrt2)


def _octagon(n: int, sqrt2: Decimal, root_2m: Decimal) -> OctagonGeometry:
    """The geometry at index n with every value carried at the current
    context's precision, given sqrt(2) and sqrt(2 - sqrt(2)) at it.

    F(n) and F(n+2) come from one fast doubling, and each enters the decimal
    arithmetic once, rounded to the precision: F(n)/2 and F(n+2)/2 by
    ``_half``, and F(n) as the divisor of the two ratios by ``_to_decimal``.
    """
    f_n, f_n1 = _pair(n)
    f_n2 = f_n + f_n1
    half_inner = _half(f_n)
    half_outer = _half(f_n2)
    p_y = _sqrt(half_outer * half_outer - half_inner * half_inner)
    d = sqrt2 * (p_y - half_inner)
    e = half_outer * root_2m  # 2R*sin(pi/8) for diameter F(n+2)
    f = _to_decimal(f_n)
    return OctagonGeometry(n, (half_inner, p_y), (p_y, half_inner), d, e, d / f, d / e, e / f)


def _rounded(geo: OctagonGeometry, digits: int) -> OctagonGeometry:
    """geo with every value rounded to digits."""
    p = (_round_to(geo.p[0], digits), _round_to(geo.p[1], digits))
    values = (geo.d, geo.e, geo.ratio_d_over_f, geo.ratio_d_over_e, geo.ratio_e_over_f)
    return OctagonGeometry(geo.n, p, (p[1], p[0]), *(_round_to(v, digits) for v in values))


def octagon_limits(cfg: PrecisionConfig) -> tuple[Decimal, Decimal, Decimal]:
    """Closed-form limits of (d/F(n), d/e, e/F(n)) as n grows:

        (sqrt(2)/2) * (sqrt(phi**4 - 1) - 1)                    ~ 1.00376
        (sqrt(2)/sqrt(2 - sqrt(2))) * (sqrt(1 - phi**-4) - phi**-2)  ~ 1.00187
        (sqrt(2 - sqrt(2))/2) * phi**2                          ~ 1.00188

    The first equals the product of the other two.  Since
    phi**4 - 1 = sqrt(5) * phi**2, sqrt(phi**4 - 1) = phi * 5**(1/4) and
    sqrt(1 - phi**-4) = 5**(1/4) / phi; with c = phi * 5**(1/4) - 1 the first
    is (sqrt(2)/2) * c and the second (sqrt(2)/sqrt(2 - sqrt(2))) * c / phi**2,
    which takes four square roots instead of five.
    """
    with localcontext() as ctx:
        ctx.prec = cfg.digits + _GUARD_DIGITS
        limits = _limits(*_roots_of_two())
    return tuple(_round_to(limit, cfg.digits) for limit in limits)


def _limits(sqrt2: Decimal, root_2m: Decimal) -> tuple[Decimal, Decimal, Decimal]:
    """octagon_limits at the current context's precision, given sqrt(2) and
    sqrt(2 - sqrt(2)) at it: two more roots, of 5 and of sqrt(5)."""
    sqrt5 = _sqrt(Decimal(5))
    golden = (1 + sqrt5) / 2
    golden2 = golden * golden
    c = golden * _sqrt(sqrt5) - 1
    return sqrt2 / 2 * c, sqrt2 / root_2m * (c / golden2), root_2m / 2 * golden2


def octagon_deviations(n: int, cfg: PrecisionConfig) -> tuple[Decimal, Decimal, Decimal]:
    """ratio - limit for the three ratios of ``octagon(n, cfg)``, to cfg.digits.

    The ratios close on their limits like 1/F(n)**2, so the subtraction
    cancels about 2*log10(F(n)) digits; both sides carry that many more,
    plus the guard digits.
    """
    return _octagon_report(n, cfg)[2]


def _octagon_report(
    n: int, cfg: PrecisionConfig
) -> tuple[OctagonGeometry, tuple[Decimal, Decimal, Decimal], tuple[Decimal, Decimal, Decimal]]:
    """octagon(n, cfg), octagon_limits(cfg) and octagon_deviations(n, cfg),
    all from one pass at the deviations' wide precision, rounded to cfg.digits.

    The geometry and the limits share one sqrt(2) and one sqrt(2 - sqrt(2)),
    so the pass takes five roots.  Each side is first rounded to the wide
    digits, as octagon and octagon_limits at those digits would give it.
    """
    n = _as_int(n, "n", 0)
    _in_range(n + 2)  # before the digit count, which takes a second at F(10**6)
    wide = cfg.digits + _GUARD_DIGITS + 2 * _digit_count(fib(n))
    with localcontext() as ctx:
        ctx.prec = wide + _GUARD_DIGITS
        roots = _roots_of_two()
        geo = _rounded(_octagon(n, *roots), wide)
        limits = [_round_to(limit, wide) for limit in _limits(*roots)]
        ctx.prec = wide  # exact: both sides have wide digits near 1
        ratios = (geo.ratio_d_over_f, geo.ratio_d_over_e, geo.ratio_e_over_f)
        deviations = [ratio - limit for ratio, limit in zip(ratios, limits)]
    digits = cfg.digits
    return (
        _rounded(geo, digits),
        tuple(_round_to(limit, digits) for limit in limits),
        tuple(_round_to(deviation, digits) for deviation in deviations),
    )
