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
  and ends in the terminal pattern (2, 1, 1): it is fixed by i.
* ``verify_no_exact_solution`` shows by the same descent that the residual
  is never exactly 0 -- the integer shadow of the incommensurability of a
  regular pentagon's side and diagonal.

Both decide by ``fibonacci._decide``, the one certified membership decision.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .fibonacci import _as_int, _checked_make, _decide, _index_by_magnitude, _pair, fib


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
    """All Hippasus successors of ``beta``, in ascending order (at most two).

    ``successors`` builds it by ``tuple.__new__``: the generated ``__new__``
    is a Python call, 280-300 ns against 155 (2-vCPU VM, Python 3.11).
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return bool(self.successors)


class DescentTrace(namedtuple("DescentTrace", "beta recovered_index")):
    """The walk produced by ``descend``, kept as its start and its length.

    Descent from beta = F(i) visits F(i), F(i-1), ..., F(0), so the trace is
    fixed by ``beta`` and ``recovered_index`` = i, and fib(i) == beta is all
    there is to check; ``descend`` checks i by beta's size instead (see
    ``_certified_trace``).  ``steps`` rebuilds the walk on each access.
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

    def _walk(self, alpha: int | None = None) -> Iterator[int]:
        """F(i), F(i-1), ..., F(0), one at a time: the descent
        (b, a) -> (a - b, b) from (F(i), F(i+1)), holding two values.
        ``alpha`` is F(i+1) when the caller holds it already, which saves
        the doubling."""
        b, a = _pair(self.recovered_index) if alpha is None else (self.beta, alpha)
        for _ in range(self.recovered_index + 1):
            yield b
            b, a = a - b, b


def _certified_trace(beta: int, i: int) -> DescentTrace:
    """DescentTrace(beta, i) for a beta that ``_decide`` has certified as a
    member with index i, without the trace's second doubling.

    The bracket certifies the values, so what is left to check is the index:
    a lookup that found the right values under a wrong i raises RuntimeError.
    """
    if i != (0 if beta == 1 else _index_by_magnitude(beta)):
        raise RuntimeError(f"index lookup gave {i} for {beta}, whose magnitude disagrees")
    return tuple.__new__(DescentTrace, (beta, i))


def successors(beta: int) -> SuccessorSet:
    """All alpha in the search window with residual +1 or -1.

    The result is empty exactly when beta is not a Hippasus number; beta = 1
    yields {1, 2}, every other Hippasus beta yields a single successor.
    """
    if type(beta) is not int or beta < 1:  # the call would cost ~7 % of a small call
        beta = _as_int(beta, "beta", 1)
    if beta == 1:
        return tuple.__new__(SuccessorSet, (1, (1, 2)))
    decided = _decide(beta)
    return tuple.__new__(SuccessorSet, (beta, () if decided is None else decided[1:]))


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
    from the index lookup that certified beta, checked against beta's
    magnitude: a member costs one doubling and one certificate.  ``steps``
    and the CLI run the paper's step from F(i).  beta = 1 returns the
    degenerate single-entry trace with index 0.
    """
    if type(beta) is not int or beta < 1:  # as in successors
        beta = _as_int(beta, "beta", 1)
    decided = _decide(beta)
    return None if decided is None else _certified_trace(beta, decided[0])


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
    {1, 2} has residuals +1 and -1.  A scan over beta is the oracle in tests/.
    """
    _as_int(max_beta, "max_beta", 1)
    return None


def verify_no_exact_solution(max_beta: int) -> bool:
    """Check beta*(beta+alpha) != alpha**2 for every beta <= max_beta and
    alpha in [beta, 2*beta]: true for every bound, by the descent in
    ``find_exact_solution``."""
    return find_exact_solution(max_beta) is None
