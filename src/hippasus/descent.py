"""Hippasus pairs and the subtractive-descent decision procedure.

A positive integer beta is a *Hippasus number* when some alpha >= beta makes
the residual beta*(beta + alpha) - alpha**2 equal to +1 or -1; that alpha is
a *Hippasus successor* of beta.  The Hippasus numbers are exactly the
Fibonacci numbers, and this module makes the equivalence executable in both
directions:

* ``successors`` finds the witnesses.  Every beta >= 2 has at most one
  successor, and it lies strictly inside the window (beta, 2*beta); beta = 1
  is the one ambiguous case, with successors {1, 2}.
* ``descend`` decides membership by the same search and returns the
  subtractive descent (beta, alpha) -> (alpha - beta, beta) from beta = F(i).
  Each step keeps the residual at magnitude 1 while flipping its sign, and
  the first components decrease strictly, so the walk visits F(i), ..., F(0)
  and ends in the terminal pattern (2, 1, 1): it is fixed by i.  The index
  comes from the lookup that certified beta and ``DescentTrace`` re-asserts
  fib(i) == beta; ``steps`` and the CLI run the paper's step.
* ``verify_no_exact_solution`` shows by the same descent that the residual
  is never exactly 0 -- the integer shadow of the incommensurability of a
  regular pentagon's side and diagonal.

Both decide by ``_decide``, which certifies every answer: up to 2**60 by the
closed form, above it sub-quadratically, by a residue sieve or by one index
lookup whose bracket F(i-1) < beta <= F(i) has a residual of +1 or -1.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import isqrt, prod

from .fibonacci import _as_int, _checked_make, _locate, _pair, fib

# Above this beta, _decide takes the sieve and one certified lookup.  A measured
# size selection: below it the two-isqrt closed form is the cheaper (0.35-0.67
# us against 0.61-0.79 us for a lookup and a bracket certificate, beta near
# 10^5, 2-vCPU VM); above it isqrt's quadratic cost grows with beta.
_BIG = 1 << 60

# If beta is a Fibonacci number, 5*beta**2 - 4 or 5*beta**2 + 4 is a square,
# so it is a square modulo every m (Cohen, A Course in Computational
# Algebraic Number Theory, 1.7.2).  Each set holds the residues r mod m for
# which 5r^2 -/+ 4 is a square mod m, built from the squares alone.
_SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
_SIEVE_PRODUCT = prod(_SIEVE_MODULI)  # 84 bits: one big reduction, then small ones


def _admissible(m: int) -> frozenset[int]:
    squares = {x * x % m for x in range(m)}
    return frozenset(
        r for r in range(m) if (5 * r * r - 4) % m in squares or (5 * r * r + 4) % m in squares
    )


_SIEVE = tuple((m, _admissible(m)) for m in _SIEVE_MODULI)


def _sieve_rejects(beta: int) -> bool:
    """True when a residue certifies that beta is not a Fibonacci number."""
    r = beta % _SIEVE_PRODUCT
    return any(r % m not in admissible for m, admissible in _SIEVE)


class NotHippasusError(ValueError):
    """Raised when a unique successor is requested for a non-Hippasus number."""


def hippasus_residual(beta: int, alpha: int) -> int:
    """beta*(beta + alpha) - alpha**2, exact."""
    beta, alpha = _as_int(beta, "beta", 1), _as_int(alpha, "alpha", 1)
    return beta * (beta + alpha) - alpha * alpha


def is_hippasus_pair(beta: int, alpha: int) -> bool:
    """True iff alpha >= beta and the residual is +1 or -1."""
    beta, alpha = _as_int(beta, "beta", 1), _as_int(alpha, "alpha")
    if alpha < beta:
        return False
    return beta * (beta + alpha) - alpha * alpha in (1, -1)


class HippasusPair(namedtuple("HippasusPair", "beta alpha sign")):
    """A certified (beta, alpha, sign) triple with residual exactly `sign`.

    It lies in the window: for beta >= 2, g(alpha) = beta**2 + beta*alpha -
    alpha**2 falls for alpha > beta/2, from g(beta) = beta**2 to g(2*beta) =
    -beta**2, so alpha >= beta and |g| = 1 give beta < alpha < 2*beta.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, beta: int, alpha: int, sign: int) -> "HippasusPair":
        beta, alpha, sign = _as_int(beta, "beta", 1), _as_int(alpha, "alpha"), _as_int(sign, "sign")
        if alpha < beta:
            raise ValueError(f"alpha must be >= beta, got ({beta}, {alpha})")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        residual = beta * (beta + alpha) - alpha * alpha
        if residual != sign:
            raise ValueError(f"residual of ({beta}, {alpha}) is {residual}, not {sign}")
        return super().__new__(cls, beta, alpha, sign)

    @classmethod
    def from_beta_alpha(cls, beta: int, alpha: int) -> "HippasusPair":
        """Build a pair from its two members, deriving the sign from the residual."""
        residual = hippasus_residual(beta, alpha)
        if residual not in (1, -1):
            raise NotHippasusError(
                f"({beta}, {alpha}) has residual {residual}; not a Hippasus pair"
            )
        return cls(beta, alpha, residual)


class SuccessorSet(namedtuple("SuccessorSet", "beta successors")):
    """All Hippasus successors of ``beta``, in ascending order (at most two)."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return bool(self.successors)


class DescentTrace(namedtuple("DescentTrace", "beta recovered_index")):
    """The walk produced by ``descend``, kept as its start and its length.

    Descent from beta = F(i) visits F(i), F(i-1), ..., F(0), so the trace is
    fixed by ``beta`` and ``recovered_index`` = i, and fib(i) == beta is all
    there is to check.  ``steps`` rebuilds the walk on each access.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, beta: int, recovered_index: int) -> "DescentTrace":
        beta, recovered_index = _as_int(beta, "beta"), _as_int(recovered_index, "recovered_index")
        if fib(recovered_index) != beta:
            raise ValueError(f"fib({recovered_index}) != starting value {beta}")
        return super().__new__(cls, beta, recovered_index)

    @property
    def steps(self) -> tuple[int, ...]:
        """(beta_1, ..., beta_{i+1}) = (F(i), ..., F(0)), so
        steps[k+2] = steps[k] - steps[k+1] and a trace of length >= 3 ends
        in (2, 1, 1)."""
        return tuple(self._walk())

    def _walk(self) -> Iterator[int]:
        """F(i), F(i-1), ..., F(0), one at a time: the descent
        (b, a) -> (a - b, b) from (F(i), F(i+1)), holding two values."""
        b, a = _pair(self.recovered_index)
        for _ in range(self.recovered_index + 1):
            yield b
            b, a = a - b, b


def _decide(beta: int) -> tuple[int, int] | None:
    """(i, F(i+1)) when beta = F(i), else None; every answer is certified.

    Up to _BIG, the closed form alpha = (beta + sqrt(5*beta**2 -/+ 4)) / 2: an
    exact root r has r >= beta and beta's parity, and a hit's +/-1 residual
    is the "yes"; the lookup then gives i (0 for beta = 1).  Above _BIG, a
    residue rejection is a "no".  Else the lookup brackets beta by
    low = F(i-1) < beta <= F(i) = high.  A +/-1 residual makes (low, high)
    consecutive Fibonacci numbers, with none strictly between, so beta is a
    member iff beta = high; the step up gives (high, F(i+1)) the opposite
    residual, so it certifies the "yes" too.  A failed check raises RuntimeError.
    """
    if beta <= _BIG:
        b5 = 5 * beta * beta
        for disc in (b5 - 4, b5 + 4):
            root = isqrt(disc)
            if root * root == disc:
                alpha = (beta + root) // 2
                if beta * (beta + alpha) - alpha * alpha in (1, -1):
                    return _locate(beta)[0], alpha
        return None
    if _sieve_rejects(beta):
        return None
    i, high, alpha = _locate(beta)
    low = alpha - high
    if not (0 < low < beta <= high and low * (low + high) - high * high in (1, -1)):
        raise RuntimeError(f"index lookup gave ({low}, {high}), which does not certify {beta}")
    return (i, alpha) if beta == high else None


def successors(beta: int) -> SuccessorSet:
    """All alpha in the search window with residual +1 or -1.

    The result is empty exactly when beta is not a Hippasus number; beta = 1
    yields {1, 2}, every other Hippasus beta yields a single successor.
    """
    if type(beta) is not int or beta < 1:  # the call would cost ~7 % of a small call
        beta = _as_int(beta, "beta", 1)
    if beta == 1:
        return SuccessorSet(1, (1, 2))
    decided = _decide(beta)
    return SuccessorSet(beta, () if decided is None else decided[1:])


def unique_successor(beta: int) -> int:
    """The single successor of a Hippasus number beta >= 2.

    Raises NotHippasusError when beta has no successor, ValueError for
    beta = 1 (ambiguous: two successors) or beta < 1.
    """
    beta = _as_int(beta, "beta", 2)
    found = successors(beta).successors
    if not found:
        raise NotHippasusError(f"{beta} is not a Hippasus number")
    return found[0]


def predecessor(pair: HippasusPair) -> HippasusPair:
    """Step down: (beta, alpha) -> (alpha - beta, beta), flipping the sign.

    Requires alpha > beta; the (1, 1) pair has no predecessor.
    """
    if pair.alpha <= pair.beta:
        raise ValueError(f"pair ({pair.beta}, {pair.alpha}) has no predecessor")
    return HippasusPair(pair.alpha - pair.beta, pair.beta, -pair.sign)


def extend(pair: HippasusPair) -> HippasusPair:
    """Step up: (beta, alpha) -> (alpha, alpha + beta), flipping the sign."""
    return HippasusPair(pair.alpha, pair.alpha + pair.beta, -pair.sign)


def descend(beta: int) -> DescentTrace | None:
    """Decide membership by the successor search; None means not Hippasus.

    A member's descent is the walk F(i), ..., F(0), fixed by i, and i comes
    from the index lookup that certified beta, so a member costs one lookup.
    DescentTrace re-asserts fib(i) == beta.  ``steps`` and the CLI run the
    paper's step from F(i).  beta = 1 returns the degenerate single-entry
    trace with index 0.
    """
    if type(beta) is not int or beta < 1:  # as in successors
        beta = _as_int(beta, "beta", 1)
    decided = _decide(beta)
    return None if decided is None else DescentTrace(beta, decided[0])


def is_fibonacci_by_descent(beta: int) -> bool:
    """True iff the descent procedure accepts beta."""
    return descend(beta) is not None


def find_exact_solution(max_beta: int) -> tuple[int, int] | None:
    """Smallest (beta, alpha) with beta <= max_beta, beta <= alpha <= 2*beta
    and beta*(beta+alpha) == alpha**2: there is none, for any bound.

    The paper's descent proves it.  Let (beta, alpha) be such an exact pair.
    At alpha = beta the residual is beta**2 and at alpha = 2*beta it is
    -beta**2, so beta < alpha < 2*beta; if 2*alpha < 3*beta the residual
    exceeds beta**2/4, so 2*alpha >= 3*beta.  The step
    (beta, alpha) -> (alpha - beta, beta) negates the residual, as for every
    pair of integers, so it gives an exact pair again, in the window again
    (alpha - beta <= beta <= 2*(alpha - beta)), with a smaller positive
    first member.  Repeated, the steps would reach beta = 1, whose window
    {1, 2} has residuals +1 and -1.  The isqrt scan over beta is the oracle
    in tests/.
    """
    _as_int(max_beta, "max_beta", 1)
    return None


def verify_no_exact_solution(max_beta: int) -> bool:
    """Check beta*(beta+alpha) != alpha**2 for every beta <= max_beta and
    alpha in [beta, 2*beta]: true for every bound, by the descent in
    ``find_exact_solution``."""
    return find_exact_solution(max_beta) is None
