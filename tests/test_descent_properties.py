"""Hypothesis properties of the descent, Cassini and Wasteels laws at sizes the
exhaustive loops do not reach."""
from itertools import islice

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from hippasus.descent import (  # noqa: E402
    DescentTrace,
    HippasusPair,
    NotHippasusError,
    descend,
    hippasus_residual,
    successors,
)
from hippasus.fibonacci import (  # noqa: E402
    MAX_INDEX,
    _decide,
    _index_by_magnitude,
    _locate,
    _pair,
    _sieve_rejects,
    cassini_residual,
    fib,
    fib_index_of,
    is_consecutive_fib,
)
from hippasus.wasteels import classify, wasteels_residual  # noqa: E402
from oracles import walk  # noqa: E402
from test_descent import descend_by_walk, successors_by_isqrt  # noqa: E402
from test_fibonacci import norm_by_full_size, pair_by_three_products  # noqa: E402

indices = st.integers(min_value=2, max_value=10**4)
relaxed = settings(deadline=None)


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


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=MAX_INDEX))
@example(MAX_INDEX)
def test_index_by_magnitude_to_the_largest_index(i):
    assert _index_by_magnitude(pair_by_three_products(i)[0]) == i


# (beta, alpha) with 2 <= beta <= 10**30 and beta <= alpha <= 3*beta: half the
# draws lie next to a consecutive pair (F(i), F(i+1)), which a uniform draw
# would almost never reach
window_draws = st.one_of(
    st.integers(min_value=2, max_value=10**30).flatmap(
        lambda beta: st.tuples(st.just(beta), st.integers(min_value=beta, max_value=3 * beta))
    ),
    st.builds(
        lambda i, d: (fib(i), fib(i + 1) + d),
        st.integers(min_value=3, max_value=144),  # F(144) < 10**30 < F(145)
        st.integers(min_value=-2, max_value=2),
    ),
)


@relaxed
@given(window_draws)
def test_pair_lies_inside_the_window(draw):
    # HippasusPair needs no window check: alpha >= beta and a +/-1 residual
    # force beta < alpha < 2*beta
    beta, alpha = draw
    try:
        pair = HippasusPair.from_beta_alpha(beta, alpha)
    except NotHippasusError:
        return
    assert pair.beta < pair.alpha < 2 * pair.beta


@relaxed
@given(st.integers(min_value=2, max_value=2000))
def test_steps_are_reversed_prefix(i):
    steps = descend(fib(i)).steps
    assert type(steps) is tuple
    assert steps == tuple(reversed([a for _, a, _ in islice(walk(), i + 1)]))


@relaxed
@given(st.integers(min_value=0, max_value=5000))
def test_cassini_residual_is_index_parity(i):
    # draws fall on both sides of the end of fib's table
    assert cassini_residual(i) == (-1) ** i


@relaxed
@given(st.integers(min_value=1, max_value=10**30), st.integers(min_value=1, max_value=10**30))
def test_wasteels_residual_negates_hippasus(x, y):
    assert wasteels_residual(x, y) == -hippasus_residual(x, y)


@relaxed
@given(st.integers(min_value=2048, max_value=2 * 10**5))
def test_pair_matches_three_product_doubling(i):
    assert _pair(i) == pair_by_three_products(i)


@relaxed
@given(st.integers(min_value=2048, max_value=2 * 10**5), st.sampled_from((-1, 0, 1)))
# about one F(i) +/- 1 in a thousand here passes the sieve, too few for the
# draws to meet: these do, at the two ends of the range
@example(2112, -1)
@example(4221, 1)
@example(197999, -1)
@example(197999, 1)
def test_decide_against_the_full_size_norm(i, d):
    # past the table, where the doubling's last step carries the certificate;
    # the value callers read the pair at the index by magnitude, unwalked
    f, following = pair_by_three_products(i)
    beta = f + d
    assert _decide(beta) == ((i, following) if d == 0 else None)
    if not _sieve_rejects(beta):
        _, high, alpha = _locate(beta)
        assert 0 < alpha - high < beta <= high
        assert norm_by_full_size(alpha - high, high) in (4, -4)
    assert fib_index_of(beta) == (i if d == 0 else None)
    assert is_consecutive_fib(f, following + d) is (d == 0)


# operands up to 2**70000, about F(10**5), drawn by bit length so that long
# ones are as likely as short ones
big_operands = st.integers(min_value=1, max_value=70_000).flatmap(
    lambda bits: st.integers(min_value=1, max_value=2**bits)
)


@relaxed
@given(big_operands, big_operands)
def test_wasteels_residual_is_the_definition(x, y):
    # two products, y*(y - x) - x*x, for the three of the definition; x > y too
    expected = y * y - x * y - x * x
    assert classify(x, y).residual == wasteels_residual(x, y) == expected


@relaxed
@given(indices)
def test_fib_has_one_successor(i):
    assert successors(fib(i)).successors == (fib(i + 1),)


# F(i) + d above 2**60, where the sieve, the lookup and its bracket
# work on multi-word integers
near_big_fibs = st.builds(
    lambda i, d: fib(i) + d,
    st.integers(min_value=90, max_value=3000),
    st.integers(min_value=-50, max_value=50),
)


@relaxed
@given(near_big_fibs)
def test_successors_match_closed_form(beta):
    assert successors(beta).successors == successors_by_isqrt(beta)


@relaxed
@given(near_big_fibs)
def test_descend_matches_walk(beta):
    assert descend(beta) == descend_by_walk(beta)


# beta in [2**30, 2**64], one to two machine words: members and their
# neighbours (F(43) < 2**30 < F(44), F(92) < 2**64 < F(93)) and plain values
word_sized = st.one_of(
    st.builds(
        lambda i, d: fib(i) + d,
        st.integers(min_value=44, max_value=92),
        st.integers(min_value=-50, max_value=50),
    ),
    st.integers(min_value=2**30, max_value=2**64),
)


@relaxed
@given(word_sized)
def test_word_sized_betas_match_closed_form_and_walk(beta):
    assert successors(beta).successors == successors_by_isqrt(beta)
    assert descend(beta) == descend_by_walk(beta)


# the lemmas of find_exact_solution's proof, over integers of up to 10**4
# digits, drawn by length so that long ones are as likely as short ones
lengths = st.integers(min_value=1, max_value=10**4)
signed_operands = lengths.flatmap(lambda d: st.integers(min_value=-(10**d), max_value=10**d))
positive_operands = lengths.flatmap(lambda d: st.integers(min_value=1, max_value=10**d))


def _residual(beta, alpha):
    return beta * (beta + alpha) - alpha * alpha


@relaxed
@given(signed_operands, signed_operands)
def test_step_negates_the_residual(beta, alpha):
    # (beta, alpha) -> (alpha - beta, beta), for every pair of integers
    assert _residual(alpha - beta, beta) == -_residual(beta, alpha)
    if beta >= 1 and alpha >= 1:
        assert hippasus_residual(beta, alpha) == _residual(beta, alpha)
        if alpha > beta:
            assert hippasus_residual(alpha - beta, beta) == -hippasus_residual(beta, alpha)


@relaxed
@given(positive_operands, st.data())
def test_window_edges_and_lower_third_miss_zero(beta, data):
    # alpha = beta, alpha = 2*beta and beta <= alpha with 2*alpha < 3*beta
    # leave residuals beta**2, -beta**2 and more than beta**2/4
    assert hippasus_residual(beta, beta) == beta * beta
    assert hippasus_residual(beta, 2 * beta) == -beta * beta
    alpha = data.draw(st.integers(min_value=beta, max_value=(3 * beta - 1) // 2))
    assert 4 * hippasus_residual(beta, alpha) > beta * beta


@relaxed
@given(positive_operands.map(lambda beta: beta + 1), st.data())
def test_step_stays_in_the_window(beta, data):
    # beta < alpha < 2*beta and 2*alpha >= 3*beta put (alpha - beta, beta)
    # in its window, with a smaller positive first member
    alpha = data.draw(st.integers(min_value=(3 * beta + 1) // 2, max_value=2 * beta - 1))
    low, high = alpha - beta, beta
    assert 0 < low < beta and low <= high <= 2 * low
