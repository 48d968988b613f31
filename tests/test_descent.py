import os
import random
import subprocess
import sys
from dataclasses import fields

import pytest

from hippasus.descent import (
    DescentTrace,
    HippasusPair,
    NotHippasusError,
    descend,
    extend,
    find_exact_solution,
    hippasus_residual,
    is_fibonacci_by_descent,
    is_hippasus_pair,
    predecessor,
    successors,
    unique_successor,
    verify_no_exact_solution,
)
from hippasus.fibonacci import MAX_INDEX, fib, fib_index_of

# prints the VmHWM raise (kB) across descend(F(10^5)), then the index found
RSS_CHECK = """
from hippasus import descend, fib

def hwm_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

beta = fib(10**5)
before = hwm_kb()
trace = descend(beta)
print(hwm_kb() - before, trace.recovered_index)
"""


def successors_by_scan(beta: int) -> tuple[int, ...]:
    """Reference: test every alpha the window bounds allow.

    For beta = 1 only alpha in {1, 2} can work (1*(1+n) - n^2 <= -5 for n > 2);
    for beta >= 2 the window is the closed interval [beta+1, 2*beta-1].
    """
    candidates = (1, 2) if beta == 1 else range(beta + 1, 2 * beta)
    return tuple(
        alpha
        for alpha in candidates
        if beta * (beta + alpha) - alpha * alpha in (1, -1)
    )


def exact_solutions_by_scan(max_beta: int) -> dict[int, int]:
    """Reference: {beta: smallest alpha in [beta, 2*beta] with
    beta*(beta+alpha) == alpha**2}, for every beta <= max_beta that has one."""
    found = {}
    for beta in range(1, max_beta + 1):
        for alpha in range(beta, 2 * beta + 1):
            if beta * (beta + alpha) == alpha * alpha:
                found[beta] = alpha
                break
    return found


class TestResidual:
    def test_table_pairs(self):
        assert hippasus_residual(5, 8) == 1     # 5*13 - 64
        assert hippasus_residual(8, 13) == -1   # 8*21 - 169

    def test_plain_value(self):
        assert hippasus_residual(2, 4) == -4    # 2*6 - 16

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            hippasus_residual(0, 1)
        with pytest.raises(ValueError):
            hippasus_residual(1, 0)


class TestIsHippasusPair:
    def test_members(self):
        assert is_hippasus_pair(1, 2)
        assert is_hippasus_pair(21, 34)

    def test_non_members(self):
        assert not is_hippasus_pair(4, 6)    # residual 4*10 - 36 = 4
        assert not is_hippasus_pair(5, 3)    # alpha < beta

    def test_requires_positive_beta(self):
        with pytest.raises(ValueError):
            is_hippasus_pair(0, 1)


class TestHippasusPair:
    def test_valid_construction(self):
        p = HippasusPair(5, 8, 1)
        assert (p.beta, p.alpha, p.sign) == (5, 8, 1)

    def test_from_beta_alpha(self):
        assert HippasusPair.from_beta_alpha(8, 13).sign == -1
        with pytest.raises(NotHippasusError):
            HippasusPair.from_beta_alpha(4, 6)

    def test_rejects_wrong_sign(self):
        with pytest.raises(ValueError):
            HippasusPair(5, 8, -1)

    def test_rejects_non_unit_residual(self):
        with pytest.raises(ValueError):
            HippasusPair(2, 4, -1)

    def test_rejects_alpha_below_beta(self):
        with pytest.raises(ValueError):
            HippasusPair(8, 5, -1)


class TestSuccessors:
    def test_one_is_ambiguous(self):
        assert successors(1).successors == (1, 2)

    def test_table_value(self):
        assert successors(13).successors == (21,)

    def test_empty_window(self):
        # beta = 4 scans alpha in {5, 6, 7}: residuals 11, 4, -5
        assert successors_by_scan(4) == ()
        assert successors(4).successors == ()

    def test_matches_scan_exhaustively(self):
        for beta in range(1, 2001):
            assert successors(beta).successors == successors_by_scan(beta), beta

    def test_matches_scan_sampled(self):
        rng = random.Random(20260809)
        for beta in rng.sample(range(2001, 60_000), 12):
            assert successors(beta).successors == successors_by_scan(beta), beta

    def test_uniqueness_window(self):
        for beta in range(2, 3000):
            found = successors(beta).successors
            assert len(found) <= 1
            present = fib_index_of(beta) is not None
            assert (len(found) == 1) == present
            for alpha in found:
                assert beta < alpha < 2 * beta

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            successors(0)


class TestUniqueSuccessor:
    def test_known_values(self):
        assert unique_successor(2) == 3
        assert unique_successor(144) == 233

    def test_not_hippasus(self):
        with pytest.raises(NotHippasusError):
            unique_successor(7)

    def test_beta_one_refused(self):
        with pytest.raises(ValueError):
            unique_successor(1)


class TestPredecessorExtend:
    def test_predecessor_examples(self):
        assert predecessor(HippasusPair(5, 8, 1)) == HippasusPair(3, 5, -1)
        assert predecessor(HippasusPair(1, 2, -1)) == HippasusPair(1, 1, 1)
        assert predecessor(HippasusPair(89, 144, 1)) == HippasusPair(55, 89, -1)

    def test_predecessor_of_root_refused(self):
        with pytest.raises(ValueError):
            predecessor(HippasusPair(1, 1, 1))

    def test_extend_examples(self):
        assert extend(HippasusPair(1, 1, 1)) == HippasusPair(1, 2, -1)
        assert extend(HippasusPair(5, 8, 1)) == HippasusPair(8, 13, -1)
        assert extend(HippasusPair(233, 377, 1)) == HippasusPair(377, 610, -1)

    def test_sign_algebra_along_chain(self):
        pair = HippasusPair(1, 1, 1)
        for _ in range(300):
            nxt = extend(pair)
            assert nxt.sign == -pair.sign
            back = predecessor(nxt)
            assert back == pair
            assert extend(back) == nxt
            pair = nxt


class TestDescend:
    def test_thirteen(self):
        trace = descend(13)
        assert trace is not None
        assert trace.steps == (13, 8, 5, 3, 2, 1, 1)
        assert trace.recovered_index == 6
        assert fib(6) == 13

    def test_two(self):
        trace = descend(2)
        assert trace is not None
        assert trace.steps == (2, 1, 1)
        assert trace.recovered_index == 2

    def test_degenerate_one(self):
        trace = descend(1)
        assert trace is not None
        assert trace.steps == (1,)
        assert trace.recovered_index == 0

    def test_non_member(self):
        assert descend(12) is None

    def test_strictly_decreasing_until_tail(self):
        for i in range(2, 60):
            trace = descend(fib(i))
            assert trace is not None
            steps = trace.steps
            for k in range(len(steps) - 2):
                assert steps[k] > steps[k + 1]
            assert steps[-1] == steps[-2] == 1
            assert len(steps) <= trace.recovered_index + 1

    def test_index_recovery_matches_sequence(self):
        for i in range(2, 91):
            trace = descend(fib(i))
            assert trace is not None
            assert trace.recovered_index == i

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            DescentTrace(13, 5)  # wrong index
        with pytest.raises(ValueError):
            DescentTrace(12, 5)  # not a Fibonacci number

    def test_trace_holds_start_and_index(self):
        assert [f.name for f in fields(DescentTrace)] == ["beta", "recovered_index"]
        assert DescentTrace(13, 6) == descend(13)
        assert DescentTrace(1, 0).steps == (1,)
        assert DescentTrace(1, 1).steps == (1, 1)
        for bad_index in (-1, MAX_INDEX + 1, 6.0):
            with pytest.raises(ValueError):
                DescentTrace(13, bad_index)

    def test_descent_memory_is_bounded(self):
        # the walk holds two values at a time; a stored trace of F(10^5)
        # would hold about 0.35 * (10^5)^2 bits
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status for VmHWM")
        run = subprocess.run(
            [sys.executable, "-c", RSS_CHECK], capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        raised_kb, index = map(int, run.stdout.split())
        assert index == 10**5
        assert raised_kb < 10 * 1024


class TestCassiniCorrespondence:
    def test_successor_of_fib_is_next_fib(self):
        for i in range(2, 91):
            assert unique_successor(fib(i)) == fib(i + 1)

    def test_pair_sign_follows_parity(self):
        for i in range(2, 91):
            pair = HippasusPair.from_beta_alpha(fib(i), fib(i + 1))
            assert pair.sign == (-1) ** i


class TestEquivalence:
    def test_three_routes_agree_on_range(self):
        members = set()
        a, b = 1, 1
        while a <= 20_000:
            members.add(a)
            a, b = b, a + b
        for beta in range(1, 20_001):
            expected = beta in members
            assert is_fibonacci_by_descent(beta) == expected
            assert bool(successors(beta).successors) == expected
            assert (fib_index_of(beta) is not None) == expected

    def test_examples(self):
        assert is_fibonacci_by_descent(987)
        assert is_fibonacci_by_descent(1)
        assert not is_fibonacci_by_descent(100)


class TestNoExactSolution:
    def test_small_bounds(self):
        assert verify_no_exact_solution(1)
        assert verify_no_exact_solution(3)
        assert verify_no_exact_solution(1000)

    def test_finder_returns_nothing(self):
        assert find_exact_solution(2000) is None

    def test_matches_window_scan(self):
        scan = exact_solutions_by_scan(3000)
        first = None
        for b in range(1, 3001):
            if first is None and b in scan:
                first = (b, scan[b])
            assert find_exact_solution(b) == first, b

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            verify_no_exact_solution(0)


class TestIntegerBoundary:
    def test_accepts_numpy_integers(self):
        np = pytest.importorskip("numpy")
        f50, f51 = fib(50), fib(51)
        beta, alpha = np.int64(f50), np.int64(f51)
        assert successors(beta).successors == (f51,)
        assert descend(beta).recovered_index == 50
        assert hippasus_residual(beta, alpha) == 1  # (-1)**50
        # -beta**2 is below int64's range, so fixed-width arithmetic would wrap
        assert hippasus_residual(beta, np.int64(2 * f50)) == -(f50**2)
        assert is_hippasus_pair(beta, alpha)
        assert type(HippasusPair(beta, alpha, 1).beta) is int
        assert {type(v) for v in vars(DescentTrace(beta, np.int64(50))).values()} == {int}
        # stored as int64, 2*beta would wrap for beta = F(90) and refuse this pair
        pair = extend(HippasusPair.from_beta_alpha(np.int64(fib(89)), np.int64(fib(90))))
        assert (pair.beta, pair.alpha) == (fib(90), fib(91))
        assert {type(v) for v in vars(pair).values()} == {int}

    @pytest.mark.parametrize("bad", [2.0, True, 1.5])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError):
            successors(bad)
        with pytest.raises(ValueError):
            descend(bad)
        with pytest.raises(ValueError):
            hippasus_residual(bad, 3)
        with pytest.raises(ValueError):
            hippasus_residual(2, bad)
        with pytest.raises(ValueError):
            is_hippasus_pair(bad, 3)
        with pytest.raises(ValueError):
            is_hippasus_pair(2, bad)
        for fields_ in ((bad, 3, 1), (2, bad, 1), (2, 3, bad)):  # (2, 3, 1) is valid
            with pytest.raises(ValueError):
                HippasusPair(*fields_)
        with pytest.raises(ValueError):
            DescentTrace(bad, 2)
        with pytest.raises(ValueError):
            unique_successor(bad)
        with pytest.raises(ValueError):
            find_exact_solution(bad)
        with pytest.raises(ValueError):
            verify_no_exact_solution(bad)
