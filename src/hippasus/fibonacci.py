"""Fibonacci sequence (1,1-start indexing), its membership decision, the Cassini residual.

Throughout this package the sequence starts F(0) = 1, F(1) = 1, so
F(2) = 2, F(3) = 3, F(4) = 5, ...  Note the value 1 occurs at the two
indices 0 and 1; index-recovery helpers break the tie toward 0.
"""
from __future__ import annotations

import math
import operator

MAX_INDEX = 1_000_000


def _by_addition(count: int) -> tuple[int, ...]:
    values = [1, 1]
    while len(values) < count:
        values.append(values[-2] + values[-1])
    return tuple(values)


# F(0..2047), built at import in about 1 ms and 0.25 MB (10^4 entries would
# cost every process 8 ms and 5 MB); fib doubles above it.
_TABLE = _by_addition(2048)
_TABLE_TOP = _TABLE[-1]

# _decide's guard on a doubled pair reads its norm modulo this prime
_MERSENNE_61 = 2**61 - 1

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
        raise ValueError(f"{name} must be >= {minimum}, got {_shown(number)}")
    return number


def _shown(n: int) -> str:
    """str(n), or n's sign and size where str() would pass the interpreter's
    int->str digit limit (4,300 digits by default) and raise ValueError:
    messages that name a value name it by this."""
    try:
        return str(n)
    except ValueError:
        return f"{'a negative' if n < 0 else 'an'} integer of {n.bit_length()} bits"


def _checked_make(cls, fields):
    """A validating named tuple's ``_make`` (``_make = classmethod(...)``):
    through ``cls(*fields)``, so that ``_replace`` runs the checks in
    ``__new__`` too; the generated ``_make`` calls ``tuple.__new__``."""
    return cls(*fields)


def _pair(i: int) -> tuple[int, int]:
    """(F(i), F(i+1)): read from the table while F(i+1) is in it, else by
    fast doubling, two squarings a level, nothing stored.

    With the conventional G(0) = 0, G(1) = 1 we have F(i) = G(i+1).  One
    step takes (G(k-1), G(k)) to (G(2k-1), G(2k)) or (G(2k), G(2k+1)) by
    G(2k-1) = G(k)**2 + G(k-1)**2, G(2k+1) = 4*G(k)**2 - G(k-1)**2 + 2*(-1)**k
    and G(2k) = G(2k+1) - G(2k-1): the recurrence of GMP's mpz_fib2_ui, a
    form of the doubling identities in Knuth, TAOCP vol. 2, 4.6.3.  CPython
    squares faster than it multiplies, and the classic step takes a product
    and two squarings.  With k = (i + 1) // 2 the step's input is
    ``_pair(k - 2)``, so the recursion halves i until the table answers:
    9 levels at MAX_INDEX, whose i + 1 has 20 bits; the table stands in for
    the top 11.
    """
    if i + 1 < len(_TABLE):
        return _TABLE[i], _TABLE[i + 1]
    a, b = _pair((i + 1) // 2 - 2)
    return _last_step(a * a, b * b, i + 1)


def _certified_pair(i: int) -> tuple[int, int]:
    """``_pair(i)``, with the input of its top doubling step checked at the
    cost of one half-size squaring; ``_locate`` runs it for ``_decide``.

    The step takes (a, b) = (G(k-1), G(k)) = ``_pair(k - 2)``, k = (i+1) // 2,
    with 2*(-1)**k = -2*eps, where eps = b**2 - a*b - a**2.  This checks
    (2b - a)**2 - 5*a**2 = 4*eps, reusing a**2, and raises RuntimeError if it
    fails.  Once it holds, the step's output, read as u + v*phi in Z[phi], is
    (a + b*phi)**2 or that times phi, and a + b*phi has norm
    a**2 + a*b - b**2 = -eps = +/-1; the norm is multiplicative, so the
    output pair has norm +/-1 too, whatever the lower levels computed.
    """
    if i + 1 < len(_TABLE):
        return _TABLE[i], _TABLE[i + 1]
    a, b = _pair((i + 1) // 2 - 2)
    aa = a * a
    if (2 * b - a) ** 2 - 5 * aa != (4 if (i + 1) & 2 else -4):
        raise RuntimeError(f"the doubling to F({i}) met a pair whose norm does not certify it")
    return _last_step(aa, b * b, i + 1)


def _last_step(aa: int, bb: int, m: int) -> tuple[int, int]:
    """(G(m), G(m+1)) from G(k-1)**2 and G(k)**2, k = m // 2: one doubling
    step, by the formulas in ``_pair``; 2*(-1)**k is -2 exactly when m & 2
    is set."""
    low, high = aa + bb, 4 * bb - aa + (-2 if m & 2 else 2)  # G(2k-1), G(2k+1)
    return (high, 2 * high - low) if m & 1 else (high - low, high)


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
        raise ValueError(f"index {_shown(i)} exceeds the supported range (max {MAX_INDEX})")
    return i


def _locate(n: int) -> tuple[int, int, int]:
    """(i, F(i), F(i+1)) for the smallest i with F(i) >= n, for any n >= 1.

    The walk starts at ``_index_by_magnitude(n)``, which is within one step
    of the answer (at every n < 20,000, at F(k) - 1, F(k) and F(k) + 1 for
    k < 3,000, and at 20,000 random n up to 2**200,000), and corrects it by
    single steps along the sequence.
    """
    i = _index_by_magnitude(n)
    a, b = _certified_pair(i)
    while a < n:
        i, a, b = i + 1, b, a + b
    while b - a >= n:  # F(i-1) = F(i+1) - F(i)
        i, a, b = i - 1, b - a, a
    return i, a, b


def _index_by_magnitude(beta: int) -> int:
    """i for a Fibonacci number beta = F(i) >= 2, from its size alone; for
    any other beta >= 1, an estimate of the index of the next member.

    Binet gives F(i) = (PHI**(i+1) - psi**(i+1)) / sqrt(5) with |psi| < 1,
    so log2 F(i) + log2 sqrt(5) is (i+1)*log2 PHI up to a term that falls
    geometrically with i (0.11 of an index at i = 2, 5e-10 at i = 22).
    math.log2 reads beta's top bits, so the float error is about i * 1e-16
    of an index: the rounding is exact for every i a machine could hold.
    A non-member gets an index too, so the index alone decides nothing:
    ``_locate`` walks from it for ``_decide``, whose callers check a
    member's index against it, and ``fib_index_of`` and
    ``is_consecutive_fib`` compare ``_pair`` at it with their arguments,
    which is their whole answer, since a member's index is exact.
    """
    return round((math.log2(beta) + _LOG2_SQRT5) / _LOG2_PHI) - 1


# If n = F(j), n mod m is F(j) mod m.  The pair map (a, b) -> (b, a + b)
# mod m has the inverse (a, b) -> (b - a, a), so its walk from (1, 1) is one
# cycle back to (1, 1) and meets every residue a Fibonacci number can have.
# The moduli, picked greedily below 2000 by how many values near F(n) and random
# values each rejects, have periods 96, 176 and 90 and 61, 87 and 67 residues.
_SIEVE_MODULI = (1692, 1841, 1991)  # 2**2 * 3**2 * 47, 7 * 263, 11 * 181
_SIEVE_PRODUCT = math.prod(_SIEVE_MODULI)  # 33 bits: one big reduction, then small ones


def _residues(m: int) -> frozenset[int]:
    seen, a, b = set(), 1, 1
    while True:
        seen.add(a)
        a, b = b, (a + b) % m
        if a == b == 1:
            return frozenset(seen)


_SIEVE = tuple((m, _residues(m)) for m in _SIEVE_MODULI)
(_M1, _R1), (_M2, _R2), (_M3, _R3) = _SIEVE


def _sieve_rejects(n: int) -> bool:
    """True when a residue certifies that n is not a Fibonacci number."""
    r = n % _SIEVE_PRODUCT
    # one expression: a loop over _SIEVE, unpacking a pair a modulus, takes
    # 110 ns at n = 150001 against 75 (2-vCPU VM, Python 3.11)
    return r % _M1 not in _R1 or r % _M2 not in _R2 or r % _M3 not in _R3


def _decide(beta: int) -> tuple[int, int] | None:
    """(i, F(i+1)) when beta = F(i), else None; every answer is certified.

    beta = 1 is F(0), below every bracket.  Otherwise a residue that no
    Fibonacci number has is a "no"; else the lookup brackets beta by
    low = F(i-1) < beta <= F(i) = high.  A pair 0 < low < high whose norm
    N = high**2 - low*high - low**2 is +/-1 is a pair of consecutive
    Fibonacci numbers, with none strictly between, so beta is a member iff
    beta = high; the step up gives (high, F(i+1)) the opposite norm, so it
    certifies the "yes" too.  The certificate covers the values, not i:
    callers that publish i check it against ``_index_by_magnitude``.

    Where the pair was doubled, past the table, its norm is +/-1 by proof,
    not by the full-size check 4*N = (2*high - low)**2 - 5*low**2, which
    would cost two squarings of the answer's size (63 of 93 ms at F(10**6)):
    ``_certified_pair`` checks the input of the doubling's top step, the
    unchecked ``_pair`` at half the index, at half size, norms multiply, and
    ``_locate``'s single steps by addition keep |N| = 1.  What the proof
    assumes is that those few lines compute what they say; a bug anywhere in
    them, or a lookup that returns other values, would still pass it.  So
    4*N is also read modulo the Mersenne prime 2**61 - 1, in O(n): a wrong
    pair passes that guard only if its 4*N is congruent to +/-4, which a
    fault has no reason to arrange.  Inside the table the exact 4*N costs
    less than the reductions and is kept.  A failed check raises
    RuntimeError.
    """
    if beta == 1:
        return 0, 1
    if _sieve_rejects(beta):
        return None
    i, high, alpha = _locate(beta)
    low = alpha - high
    if high > _TABLE_TOP:
        low_p, high_p = low % _MERSENNE_61, high % _MERSENNE_61
        norm4 = (2 * high_p - low_p) ** 2 - 5 * (low_p * low_p)
        unit = norm4 % _MERSENNE_61 in (4, _MERSENNE_61 - 4)
    else:
        unit = (2 * high - low) ** 2 - 5 * (low * low) in (4, -4)
    if not (0 < low < beta <= high and unit):
        # sizes, not values: str() of a value past 4,300 digits would raise
        raise RuntimeError(f"index lookup gave a pair at index {i} that does not certify"
                           f" beta ({beta.bit_length()} bits)")
    return (i, alpha) if beta == high else None


def fib_index_of(n: int) -> int | None:
    """Smallest i with fib(i) == n, or None if n is not in the sequence.

    n = 1 returns 0 (the smaller of its two valid indices).  Requires n >= 1;
    values beyond F(MAX_INDEX) are answered too.  The residue sieve refuses
    most non-members; past it, n is a member iff it is F(i) at the index
    its magnitude gives, which is exact for members: one doubling, no walk.
    """
    n = _as_int(n, "n", 1)
    if n == 1:
        return 0
    if _sieve_rejects(n):
        return None
    i = _index_by_magnitude(n)
    return i if _pair(i)[0] == n else None


def is_consecutive_fib(x: int, y: int) -> bool:
    """True iff x = F(i) and y = F(i+1) for some i; (1,1) and (1,2) both qualify."""
    x, y = _as_int(x, "x", 1), _as_int(y, "y", 1)
    if x == 1:
        return y in (1, 2)
    # F(i) < F(i+1) < 2*F(i) for every i >= 2; past the sieve, x's index is
    # exact if x is a member
    return x < y < 2 * x and not _sieve_rejects(x) and _pair(_index_by_magnitude(x)) == (x, y)


def cassini_residual(i: int) -> int:
    """F(i)*F(i+2) - F(i+1)^2, computed exactly; equals (-1)**i.

    F(i+2) = F(i) + F(i+1), so it is the Hippasus residual of (F(i), F(i+1)),
    the paper's link between the two, from one ``_pair`` call.  It is read as
    (5*a**2 - (2b - a)**2) / 4 with a, b = F(i), F(i+1), the identity of
    ``_decide``: two squarings in place of a product and a square.
    """
    if type(i) is not int or i < 0:  # as in fib
        i = _as_int(i, "index", 0)
    a, b = _pair(_in_range(i + 2) - 2)
    c = 2 * b - a
    return (5 * (a * a) - c * c) >> 2  # exact: the difference is 4*(-1)**i
