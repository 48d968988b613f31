"""Hypothesis properties of the descent at indices the exhaustive loops do not reach."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hippasus.descent import DescentTrace, HippasusPair, descend  # noqa: E402
from hippasus.fibonacci import fib  # noqa: E402

indices = st.integers(min_value=2, max_value=10**4)
relaxed = settings(deadline=None)


def fib_prefix_by_addition(i: int) -> list[int]:
    """Reference: [F(0), ..., F(i)] by plain iterative addition."""
    prefix = [1, 1]
    while len(prefix) <= i:
        prefix.append(prefix[-1] + prefix[-2])
    return prefix[: i + 1]


@relaxed
@given(indices)
def test_descent_recovers_index(i):
    assert descend(fib(i)).recovered_index == i


@relaxed
@given(st.integers(min_value=3, max_value=10**4))
def test_descent_rejects_successor_of_fib(i):
    assert descend(fib(i) + 1) is None


@relaxed
@given(indices)
def test_trace_refuses_wrong_index(i):
    with pytest.raises(ValueError):
        DescentTrace(fib(i), i + 1)


@relaxed
@given(indices)
def test_pair_sign_is_index_parity(i):
    assert HippasusPair.from_beta_alpha(fib(i), fib(i + 1)).sign == (-1) ** i


@relaxed
@given(st.integers(min_value=2, max_value=2000))
def test_steps_are_reversed_prefix(i):
    steps = descend(fib(i)).steps
    assert type(steps) is tuple
    assert steps == tuple(reversed(fib_prefix_by_addition(i)))
