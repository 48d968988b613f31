"""Wasteels criterion: x, y > 0 with y**2 - x*y - x**2 = +/-1 are consecutive
Fibonacci numbers.  The residual here is the exact negation of the Hippasus
residual, so the two modules decide the same set from opposite directions."""
from __future__ import annotations

from collections import namedtuple

from .fibonacci import _as_int, _index_by_magnitude, is_consecutive_fib


def wasteels_residual(x: int, y: int) -> int:
    """y**2 - x*y - x**2, exact, as y*(y - x) - x*x: two products, not three."""
    x, y = _as_int(x, "x", 1), _as_int(y, "y", 1)
    return y * (y - x) - x * x


class WasteelsVerdict(namedtuple("WasteelsVerdict", "x y residual consecutive indices")):
    """Outcome of the consecutive-Fibonacci test for an ordered pair (x, y).

    ``indices`` is the pair (i, i+1) with fib(i) = x and fib(i+1) = y,
    present exactly when ``consecutive`` is true.
    """

    __slots__ = ()


def classify(x: int, y: int) -> WasteelsVerdict:
    """Decide whether (x, y) are consecutive Fibonacci numbers, in that order.

    Consecutive means x <= y and the residual is +1 or -1: that residual
    is Wasteels' certificate that x = F(i) and y = F(i+1), so no lookup is
    needed, and i is read from x's magnitude.  The duplicated value 1 maps
    (1, 1) -> indices (0, 1) and (1, 2) -> indices (1, 2).
    """
    # the calls would cost ~25 % of a small call
    if type(x) is not int or type(y) is not int or x < 1 or y < 1:
        x, y = _as_int(x, "x", 1), _as_int(y, "y", 1)
    residual = y * (y - x) - x * x  # as in wasteels_residual
    if x > y or (residual != 1 and residual != -1):
        return WasteelsVerdict(x, y, residual, False, None)
    if x == 1:
        indices = (0, 1) if y == 1 else (1, 2)
    else:
        i = _index_by_magnitude(x)
        indices = (i, i + 1)
    return WasteelsVerdict(x, y, residual, True, indices)


__all__ = ["wasteels_residual", "classify", "WasteelsVerdict", "is_consecutive_fib"]
