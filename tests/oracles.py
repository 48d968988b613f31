"""The Fibonacci sequence by plain addition: the walk every test compares with.

Imports nothing from ``hippasus``, so that no test checks the package
against itself (``test_imports`` runs the import in a fresh interpreter and
asserts it).  Indices are the package's: F(0) = F(1) = 1.
"""
from itertools import islice


def walk(upto: int | None = None):
    """Yield (i, F(i), F(i+1)) for i = 0, 1, 2, ..., by addition; with
    ``upto``, stop before the first F(i) > upto."""
    i, a, b = 0, 1, 1
    while upto is None or a <= upto:
        yield i, a, b
        i, a, b = i + 1, b, a + b


def fib_by_addition(k: int) -> int:
    """Conventional F(k), F(0) = 0 and F(1) = 1: the package's F(k - 1)."""
    return 0 if k == 0 else next(islice(walk(), k - 1, None))[1]


def first_index_at_least(targets: list[int]) -> dict[int, tuple[int, int, int]]:
    """One walk for all targets: for each n >= 1, (i, F(i), F(i+1)) with i
    the smallest index having F(i) >= n."""
    found, steps = {}, walk()
    i, a, b = next(steps)
    for n in sorted(set(targets)):
        while a < n:
            i, a, b = next(steps)
        found[n] = (i, a, b)
    return found
