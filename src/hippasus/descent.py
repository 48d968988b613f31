"""Hippasus pairs and the subtractive-descent decision procedure.

A positive integer beta is a *Hippasus number* when some alpha >= beta makes
the residual beta*(beta + alpha) - alpha**2 equal to +1 or -1; that alpha is
a *Hippasus successor* of beta.  The Hippasus numbers are exactly the
Fibonacci numbers, and this module makes the equivalence executable in both
directions:

* ``successors`` finds the witnesses.  Every beta >= 2 has at most one
  successor, and it lies strictly inside the window (beta, 2*beta); beta = 1
  is the one ambiguous case, with successors {1, 2}.
* ``descend`` runs the subtractive descent (beta, alpha) -> (alpha - beta,
  beta).  Each step keeps the residual at magnitude 1 while flipping its
  sign, and the first components decrease strictly, so the walk is forced
  down to the terminal pattern (2, 1, 1).  Counting the steps recovers the
  Fibonacci index of the starting value.
* ``verify_no_exact_solution`` is the bounded sanity check that the residual
  is never exactly 0 -- the integer shadow of the incommensurability of a
  regular pentagon's side and diagonal.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .fibonacci import _as_int, fib


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


@dataclass(frozen=True)
class HippasusPair:
    """A certified (beta, alpha, sign) triple with residual exactly `sign`."""

    beta: int
    alpha: int
    sign: int

    def __post_init__(self) -> None:
        for name, minimum in (("beta", 1), ("alpha", None), ("sign", None)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, minimum))
        if self.alpha < self.beta:
            raise ValueError(f"alpha must be >= beta, got ({self.beta}, {self.alpha})")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        residual = self.beta * (self.beta + self.alpha) - self.alpha * self.alpha
        if residual != self.sign:
            raise ValueError(
                f"residual of ({self.beta}, {self.alpha}) is {residual}, not {self.sign}"
            )
        if self.beta > 1 and not (self.beta < self.alpha < 2 * self.beta):
            raise ValueError(
                f"alpha must lie strictly between beta and 2*beta, got ({self.beta}, {self.alpha})"
            )

    @classmethod
    def from_beta_alpha(cls, beta: int, alpha: int) -> "HippasusPair":
        """Build a pair from its two members, deriving the sign from the residual."""
        residual = hippasus_residual(beta, alpha)
        if residual not in (1, -1):
            raise NotHippasusError(
                f"({beta}, {alpha}) has residual {residual}; not a Hippasus pair"
            )
        return cls(beta, alpha, residual)


@dataclass(frozen=True)
class SuccessorSet:
    """All Hippasus successors of ``beta``, in ascending order (at most two)."""

    beta: int
    successors: tuple[int, ...]

    def __bool__(self) -> bool:
        return bool(self.successors)


@dataclass(frozen=True)
class DescentTrace:
    """The walk produced by ``descend``, kept as its start and its length.

    Descent from beta = F(i) visits F(i), F(i-1), ..., F(0), so the trace is
    fixed by ``beta`` and ``recovered_index`` = i, and fib(i) == beta is all
    there is to check.  ``steps`` rebuilds the walk on each access.
    """

    beta: int
    recovered_index: int

    def __post_init__(self) -> None:
        for name in ("beta", "recovered_index"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if fib(self.recovered_index) != self.beta:
            raise ValueError(
                f"fib({self.recovered_index}) != starting value {self.beta}"
            )

    @property
    def steps(self) -> tuple[int, ...]:
        """(beta_1, ..., beta_{i+1}) = (F(i), ..., F(0)), so
        steps[k+2] = steps[k] - steps[k+1] and a trace of length >= 3 ends
        in (2, 1, 1)."""
        a, b, rising = 1, 1, []
        for _ in range(self.recovered_index + 1):
            rising.append(a)
            a, b = b, a + b
        return tuple(reversed(rising))


def successors(beta: int) -> SuccessorSet:
    """All alpha in the search window with residual +1 or -1.

    The result is empty exactly when beta is not a Hippasus number; beta = 1
    yields {1, 2}, every other Hippasus beta yields a single successor.
    """
    if type(beta) is not int or beta < 1:  # the call would cost ~7 % of a small call
        beta = _as_int(beta, "beta", 1)
    # alpha solves alpha^2 - beta*alpha - beta^2 = -/+1, so
    # alpha = (beta + sqrt(5*beta^2 -/+ 4)) / 2 -- integral iff the
    # discriminant is a perfect square of parity matching beta.  The two
    # discriminants differ, so the roots found are distinct and ascending.
    # Differentially tested against the window scan in tests/.
    b5 = 5 * beta * beta
    found = []
    for disc in (b5 - 4, b5 + 4):
        root = isqrt(disc)
        if root * root == disc and (beta + root) % 2 == 0:
            alpha = (beta + root) // 2
            if alpha >= beta and beta * (beta + alpha) - alpha * alpha in (1, -1):
                found.append(alpha)
    return SuccessorSet(beta, tuple(found))


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
    """Decide membership by subtractive descent; None means not Hippasus.

    From the successor alpha of beta, iterate (b, a) -> (a - b, b) and count
    the steps.  The first components decrease strictly until the walk closes
    with b == a, which forces (1, 1), so a walk of two or more steps ends in
    the pattern (2, 1, 1).  The count recovers the Fibonacci index:
    beta = fib(count), which DescentTrace re-asserts against the sequence.

    beta = 1 returns the degenerate single-entry trace with index 0.
    """
    if type(beta) is not int or beta < 1:  # as in successors
        beta = _as_int(beta, "beta", 1)
    if beta == 1:
        return DescentTrace(1, 0)
    found = successors(beta).successors
    if not found:
        return None
    b, a, count = beta, found[0], 0
    while a != b:
        b, a = a - b, b
        count += 1
    return DescentTrace(beta, count)


def is_fibonacci_by_descent(beta: int) -> bool:
    """True iff the descent procedure accepts beta."""
    return descend(beta) is not None


def find_exact_solution(max_beta: int) -> tuple[int, int] | None:
    """Smallest (beta, alpha) with beta <= max_beta, beta <= alpha <= 2*beta
    and beta*(beta+alpha) == alpha**2, or None when no such pair exists."""
    max_beta = _as_int(max_beta, "max_beta", 1)
    # The only positive root is alpha = (beta + sqrt(5*beta^2)) / 2, integral
    # iff 5*beta^2 is a perfect square whose root has beta's parity.
    # Differentially tested against the window scan in tests/.
    for beta in range(1, max_beta + 1):
        disc = 5 * beta * beta
        root = isqrt(disc)
        if root * root == disc and (beta + root) % 2 == 0:
            alpha = (beta + root) // 2
            if beta <= alpha <= 2 * beta and beta * (beta + alpha) == alpha * alpha:
                return beta, alpha
    return None


def verify_no_exact_solution(max_beta: int) -> bool:
    """Check beta*(beta+alpha) != alpha**2 for every beta <= max_beta and
    alpha in [beta, 2*beta].  A bounded consequence check, not a proof."""
    return find_exact_solution(max_beta) is None
