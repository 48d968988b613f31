"""Fibonacci sequence under the 1,1-start indexing, plus the Cassini residual.

Throughout this package the sequence starts F(0) = 1, F(1) = 1, so
F(2) = 2, F(3) = 3, F(4) = 5, ...  Note the value 1 occurs at the two
indices 0 and 1; index-recovery helpers break the tie toward 0.
"""
from __future__ import annotations

import math
import operator
import threading

MAX_INDEX = 1_000_000

# Indices memoized in full (~5 MB); larger indices are computed by fast
# doubling without being stored.  A memo hit is about twice as fast as
# doubling at indices in the low thousands, where repeated small calls land.
_CACHE_LIMIT = 10_000

_cache: list[int] = [1, 1]
_cache_lock = threading.Lock()

# F(i) ~ PHI**(i+1) / sqrt(5), so log2 F(i) ~ (i+1)*_LOG2_PHI - _LOG2_SQRT5
_LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)
_LOG2_SQRT5 = math.log2(5) / 2


def _as_int(value: object, name: str) -> int:
    """``value`` as an exact int (numpy integers included); ValueError for
    bools, floats and anything else without ``__index__``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _pair(i: int) -> tuple[int, int]:
    """(F(i), F(i+1)) by fast doubling: O(log i) multiplications, nothing stored.

    With the conventional G(0) = 0, G(1) = 1 we have F(i) = G(i+1).  Each bit
    of i + 1, most significant first, takes (G(k), G(k+1)) to (G(2k), G(2k+1))
    or (G(2k+1), G(2k+2)) by G(2k) = G(k)*(2*G(k+1) - G(k)) and
    G(2k+1) = G(k)**2 + G(k+1)**2 (Knuth, TAOCP vol. 2, 4.6.3).
    """
    a, b = 0, 1
    for bit in bin(i + 1)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        a, b = (d, c + d) if bit == "1" else (c, d)
    return a, b


def fib(i: int) -> int:
    """Return F(i) exactly (F(0) = F(1) = 1, F(n) = F(n-2) + F(n-1)).

    Supports 0 <= i <= MAX_INDEX; anything else raises ValueError.
    """
    if type(i) is not int:  # the call would cost ~6 % of a memo hit
        i = _as_int(i, "index")
    if i < 0:
        raise ValueError(f"index must be >= 0, got {i}")
    if i > MAX_INDEX:
        raise ValueError(f"index {i} exceeds the supported range (max {MAX_INDEX})")
    if i > _CACHE_LIMIT:
        return _pair(i)[0]
    cache = _cache
    if i >= len(cache):
        with _cache_lock:
            while len(cache) <= i:
                cache.append(cache[-1] + cache[-2])
    return cache[i]


def _locate(n: int) -> tuple[int, int, int]:
    """(i, F(i), F(i+1)) for the smallest i with F(i) >= n, for any n >= 1.

    The index is estimated from n's bit length and corrected by single steps
    along the sequence; the estimate is within a step or two of the answer.
    """
    i = max(0, int((n.bit_length() - 0.5 + _LOG2_SQRT5) / _LOG2_PHI) - 1)
    # fib's range check cannot refuse i < _CACHE_LIMIT; _pair serves any i
    a, b = (fib(i), fib(i + 1)) if i < _CACHE_LIMIT else _pair(i)
    while a < n:
        i, a, b = i + 1, b, a + b
    while b - a >= n:  # F(i-1) = F(i+1) - F(i); at i = 0 this is 0 < n
        i, a, b = i - 1, b - a, a
    return i, a, b


def fib_index_of(n: int) -> int | None:
    """Smallest i with fib(i) == n, or None if n is not in the sequence.

    n = 1 returns 0 (the smaller of its two valid indices).  Requires n >= 1;
    values beyond F(MAX_INDEX) are answered too.
    """
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    i, value, _ = _locate(n)
    return i if value == n else None


def is_consecutive_fib(x: int, y: int) -> bool:
    """True iff x = F(i) and y = F(i+1) for some i; (1,1) and (1,2) both qualify."""
    x, y = _as_int(x, "x"), _as_int(y, "y")
    if x < 1 or y < 1:
        raise ValueError(f"arguments must be >= 1, got ({x}, {y})")
    if x == 1:
        return y in (1, 2)
    # F(i) < F(i+1) < 2*F(i) for every i >= 2
    if not x < y < 2 * x:
        return False
    _, value, following = _locate(x)
    return value == x and following == y


def cassini_residual(i: int) -> int:
    """F(i)*F(i+2) - F(i+1)^2, computed exactly; equals (-1)**i."""
    return fib(i) * fib(i + 2) - fib(i + 1) ** 2
