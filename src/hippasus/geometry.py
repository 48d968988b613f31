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
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

from .fibonacci import _as_int, fib

_GUARD_DIGITS = 10


class PrecisionTooLow(ValueError):
    """Requested precision cannot represent the computation faithfully."""


@dataclass(frozen=True)
class PrecisionConfig:
    """Number of decimal significant digits for all real-valued results."""

    digits: int = 50

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", _as_int(self.digits, "digits"))
        if self.digits < 15:
            raise PrecisionTooLow(f"digits must be >= 15, got {self.digits}")


def _round_to(value: Decimal, digits: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits
        return +value


def _digit_count(value: int) -> int:
    """len(str(value)) for value >= 1, clear of the interpreter's int->str limit."""
    return Decimal(value).adjusted() + 1


def _golden() -> Decimal:
    """(1 + sqrt(5)) / 2 at the precision of the current decimal context."""
    return (1 + Decimal(5).sqrt()) / 2


def phi(cfg: PrecisionConfig) -> Decimal:
    """(1 + sqrt(5)) / 2 to cfg.digits significant digits."""
    with localcontext() as ctx:
        ctx.prec = cfg.digits + _GUARD_DIGITS
        value = _golden()
    return _round_to(value, cfg.digits)


@dataclass(frozen=True)
class ConvergenceRow:
    """One quotient F(n+1)/F(n) and its signed distance below/above the limit."""

    n: int
    ratio: Decimal
    error: Decimal  # phi - ratio; alternates in sign and shrinks with n


def convergence_table(n_max: int, cfg: PrecisionConfig) -> list[ConvergenceRow]:
    """Rows for n = 0..n_max: ratio F(n+1)/F(n) and error phi - ratio.

    Raises PrecisionTooLow unless cfg.digits exceeds the digit count of
    F(n_max) by more than 10, so every quotient keeps meaningful fractional
    precision.
    """
    n_max = _as_int(n_max, "n_max", 1)
    f_max = fib(n_max)
    if 10 ** (cfg.digits - _GUARD_DIGITS) <= f_max:
        raise PrecisionTooLow(
            f"digits={cfg.digits} too low for F({n_max}); "
            f"need digits > log10(F(n_max)) + {_GUARD_DIGITS}"
        )
    rows = []
    with localcontext() as ctx:
        # |phi - F(n+1)/F(n)| ~ 1/(sqrt(5)*F(n)**2), so the subtraction cancels
        # about 2*log10(F(n)) leading digits; carry them on top of the guard
        ctx.prec = cfg.digits + _GUARD_DIGITS + 2 * _digit_count(f_max)
        golden = _golden()
        a, b = 1, 1  # F(n), F(n+1)
        for n in range(n_max + 1):
            ratio = Decimal(b) / Decimal(a)
            error = golden - ratio
            rows.append(
                ConvergenceRow(n, _round_to(ratio, cfg.digits), _round_to(error, cfg.digits))
            )
            a, b = b, a + b
    return rows


@dataclass(frozen=True)
class OctagonGeometry:
    """Per-n geometry of the octagon side cut from the circle of diameter
    F(n+2) by the tangents to the concentric circle of diameter F(n).

    p and q are the first-quadrant endpoints of one side (q is p with its
    coordinates swapped); d is that side's length, e the side of the regular
    octagon inscribed in the outer circle.
    """

    n: int
    p: tuple[Decimal, Decimal]
    q: tuple[Decimal, Decimal]
    d: Decimal
    e: Decimal
    ratio_d_over_f: Decimal
    ratio_d_over_e: Decimal
    ratio_e_over_f: Decimal


def octagon(n: int, cfg: PrecisionConfig) -> OctagonGeometry:
    """Geometry at index n: coordinates, side lengths d and e, and the three
    tracked ratios d/F(n), d/e, e/F(n), all to cfg.digits."""
    n = _as_int(n, "n", 0)
    f_n = fib(n)
    f_n2 = fib(n + 2)
    with localcontext() as ctx:
        ctx.prec = cfg.digits + _GUARD_DIGITS
        half_inner = Decimal(f_n) / 2
        half_outer = Decimal(f_n2) / 2
        p_y = (half_outer * half_outer - half_inner * half_inner).sqrt()
        sqrt2 = Decimal(2).sqrt()
        d = sqrt2 * (p_y - half_inner)
        e = half_outer * (2 - sqrt2).sqrt()  # 2R*sin(pi/8) for diameter F(n+2)
        r_df = d / f_n
        r_de = d / e
        r_ef = e / f_n
    digits = cfg.digits
    p = (_round_to(half_inner, digits), _round_to(p_y, digits))
    return OctagonGeometry(
        n=n,
        p=p,
        q=(p[1], p[0]),
        d=_round_to(d, digits),
        e=_round_to(e, digits),
        ratio_d_over_f=_round_to(r_df, digits),
        ratio_d_over_e=_round_to(r_de, digits),
        ratio_e_over_f=_round_to(r_ef, digits),
    )


def octagon_limits(cfg: PrecisionConfig) -> tuple[Decimal, Decimal, Decimal]:
    """Closed-form limits of (d/F(n), d/e, e/F(n)) as n grows:

        (sqrt(2)/2) * (sqrt(phi**4 - 1) - 1)                    ~ 1.00376
        (sqrt(2)/sqrt(2 - sqrt(2))) * (sqrt(1 - phi**-4) - phi**-2)  ~ 1.00187
        (sqrt(2 - sqrt(2))/2) * phi**2                          ~ 1.00188

    The first equals the product of the other two.
    """
    with localcontext() as ctx:
        ctx.prec = cfg.digits + _GUARD_DIGITS
        golden = _golden()
        golden2 = golden * golden
        golden4 = golden2 * golden2
        sqrt2 = Decimal(2).sqrt()
        root_2m = (2 - sqrt2).sqrt()
        first = sqrt2 / 2 * ((golden4 - 1).sqrt() - 1)
        second = sqrt2 / root_2m * ((1 - 1 / golden4).sqrt() - 1 / golden2)
        third = root_2m / 2 * golden2
    digits = cfg.digits
    return (_round_to(first, digits), _round_to(second, digits), _round_to(third, digits))


def octagon_deviations(n: int, cfg: PrecisionConfig) -> tuple[Decimal, Decimal, Decimal]:
    """ratio - limit for the three ratios of ``octagon(n, cfg)``, to cfg.digits.

    The ratios close on their limits like 1/F(n)**2, so the subtraction
    cancels about 2*log10(F(n)) digits; both sides carry that many more,
    plus the guard digits.
    """
    n = _as_int(n, "n", 0)
    wide = PrecisionConfig(cfg.digits + _GUARD_DIGITS + 2 * _digit_count(fib(n)))
    geo = octagon(n, wide)
    ratios = (geo.ratio_d_over_f, geo.ratio_d_over_e, geo.ratio_e_over_f)
    with localcontext() as ctx:
        ctx.prec = wide.digits  # exact: both sides have wide.digits digits near 1
        deviations = [ratio - limit for ratio, limit in zip(ratios, octagon_limits(wide))]
    return tuple(_round_to(deviation, cfg.digits) for deviation in deviations)
