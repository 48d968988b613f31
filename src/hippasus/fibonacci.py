"""Fibonacci sequence under the 1,1-start indexing, plus the Cassini residual.

Throughout this package the sequence starts F(0) = 1, F(1) = 1, so
F(2) = 2, F(3) = 3, F(4) = 5, ...  Note the value 1 occurs at the two
indices 0 and 1; index-recovery helpers break the tie toward 0.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left

MAX_INDEX = 1_000_000


def _by_addition(count: int) -> tuple[int, ...]:
    values = [1, 1]
    while len(values) < count:
        values.append(values[-2] + values[-1])
    return tuple(values)


# F(0..2047), built at import in about 1 ms and 0.25 MB (10^4 entries would
# cost every process 8 ms and 5 MB); fib doubles above it.
_TABLE = _by_addition(2048)

# F(i) ~ PHI**(i+1) / sqrt(5), so log2 F(i) ~ (i+1)*_LOG2_PHI - _LOG2_SQRT5
_LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)
_LOG2_SQRT5 = math.log2(5) / 2


def _as_int(value: object, name: str, minimum: int | None = None) -> int:
    """``value`` as a plain int (numpy integers included).  ValueError for
    bools, floats and anything else without ``__index__``, and for values
    below ``minimum``; the one gate for the package's integer arguments."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)  # an exact int since Python 3.10
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number


def _checked_make(cls, fields):
    """A validating named tuple's ``_make`` (``_make = classmethod(...)``):
    through ``cls(*fields)``, so that ``_replace`` runs the checks in
    ``__new__`` too; the generated ``_make`` calls ``tuple.__new__``."""
    return cls(*fields)


def _pair(i: int) -> tuple[int, int]:
    """(F(i), F(i+1)) by fast doubling: two squarings a bit, nothing stored.

    With the conventional G(0) = 0, G(1) = 1 we have F(i) = G(i+1).  Each bit
    of i + 1, most significant first, takes (G(k-1), G(k)) to (G(2k-1), G(2k))
    or (G(2k), G(2k+1)) by G(2k-1) = G(k)**2 + G(k-1)**2,
    G(2k+1) = 4*G(k)**2 - G(k-1)**2 + 2*(-1)**k and G(2k) = G(2k+1) - G(2k-1):
    the recurrence of GMP's mpz_fib2_ui, a form of the doubling identities
    in Knuth, TAOCP vol. 2, 4.6.3.  CPython squares faster than it
    multiplies, and the classic step takes a product and two squarings.
    """
    a, b = 1, 0  # G(k-1), G(k) at k = 0
    sign = 2  # 2*(-1)**k
    for bit in bin(i + 1)[2:]:
        aa, bb = a * a, b * b
        low = aa + bb  # G(2k-1)
        high = 4 * bb - aa + sign  # G(2k+1)
        if bit == "1":
            a, b, sign = high - low, high, -2
        else:
            a, b, sign = low, high - low, 2
    return b, a + b


def fib(i: int) -> int:
    """Return F(i) exactly (F(0) = F(1) = 1, F(n) = F(n-2) + F(n-1)).

    Supports 0 <= i <= MAX_INDEX; anything else raises ValueError.
    """
    if type(i) is not int or i < 0:  # the call would cost ~6 % of a table lookup
        i = _as_int(i, "index", 0)
    if i < len(_TABLE):
        return _TABLE[i]
    return _pair(_in_range(i))[0]


def _in_range(i: int) -> int:
    """i itself, or ValueError when F(i) lies past MAX_INDEX."""
    if i > MAX_INDEX:
        raise ValueError(f"index {i} exceeds the supported range (max {MAX_INDEX})")
    return i


def _locate(n: int) -> tuple[int, int, int]:
    """(i, F(i), F(i+1)) for the smallest i with F(i) >= n, for any n >= 1.

    Up to F(2046) the index is a binary search of the table.  Above it, the
    index is estimated from n's bit length and corrected by single steps
    along the sequence; the estimate is within a step or two of the answer.
    """
    if n <= _TABLE[-2]:  # so that F(i+1) is in the table too
        i = bisect_left(_TABLE, n)
        return i, _TABLE[i], _TABLE[i + 1]
    i = int((n.bit_length() - 0.5 + _LOG2_SQRT5) / _LOG2_PHI) - 1
    a, b = _pair(i)
    while a < n:
        i, a, b = i + 1, b, a + b
    while b - a >= n:  # F(i-1) = F(i+1) - F(i)
        i, a, b = i - 1, b - a, a
    return i, a, b


def fib_index_of(n: int) -> int | None:
    """Smallest i with fib(i) == n, or None if n is not in the sequence.

    n = 1 returns 0 (the smaller of its two valid indices).  Requires n >= 1;
    values beyond F(MAX_INDEX) are answered too.
    """
    n = _as_int(n, "n", 1)
    i, value, _ = _locate(n)
    return i if value == n else None


def is_consecutive_fib(x: int, y: int) -> bool:
    """True iff x = F(i) and y = F(i+1) for some i; (1,1) and (1,2) both qualify."""
    x, y = _as_int(x, "x", 1), _as_int(y, "y", 1)
    if x == 1:
        return y in (1, 2)
    # F(i) < F(i+1) < 2*F(i) for every i >= 2
    if not x < y < 2 * x:
        return False
    _, value, following = _locate(x)
    return value == x and following == y


def cassini_residual(i: int) -> int:
    """F(i)*F(i+2) - F(i+1)^2, computed exactly; equals (-1)**i.

    F(i+2) = F(i) + F(i+1), so it is the Hippasus residual of (F(i), F(i+1)),
    the paper's link between the two, from two ``fib`` calls.
    """
    if type(i) is not int or i < 0:  # as in fib
        i = _as_int(i, "index", 0)
    _in_range(i + 2)
    a, b = fib(i), fib(i + 1)
    return a * (a + b) - b * b
