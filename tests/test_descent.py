import os
import random
import subprocess
import sys
from math import isqrt

import pytest

from hippasus import descent, fibonacci
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
from hippasus.fibonacci import MAX_INDEX, fib, fib_index_of, is_consecutive_fib

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


# the first value above F(100) that every sieve residue admits
SIEVE_PASS_101 = next(b for b in range(fib(100) + 1, fib(101)) if not fibonacci._sieve_rejects(b))


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


# prints the first offset d past F(10^6) that the sieve admits, then
# descend's answer on F(10^6) + d and its wall time; d is found from beta's
# residue, since one sieve call on the full value per d would take seconds
SIEVE_PASS_TIMING = """
import time
from hippasus import descend, fib, fibonacci

beta = fib(10**6)
r = beta % fibonacci._SIEVE_PRODUCT
d = next(d for d in range(1, 10**6) if not fibonacci._sieve_rejects(r + d))
start = time.perf_counter()
missing = descend(beta + d)
print(d, missing is None, time.perf_counter() - start)
"""


# prints descend's wall time on F(10^6) and on F(10^6) + 1, with its answers
BIG_DESCENT_TIMING = """
import time
from hippasus import descend, fib

beta = fib(10**6)
start = time.perf_counter()
trace = descend(beta)
member_s = time.perf_counter() - start
start = time.perf_counter()
missing = descend(beta + 1)
non_member_s = time.perf_counter() - start
print(trace.recovered_index, missing is None, member_s, non_member_s)
"""


def successors_by_isqrt(beta: int) -> tuple[int, ...]:
    """Reference: the two-isqrt closed form.  alpha = (beta + r) / 2 where r
    is an integer root of 5*beta^2 - 4 or 5*beta^2 + 4 with beta's parity."""
    found = []
    for disc in (5 * beta * beta - 4, 5 * beta * beta + 4):
        root = isqrt(disc)
        if root * root == disc and (beta + root) % 2 == 0:
            alpha = (beta + root) // 2
            if alpha >= beta and beta * (beta + alpha) - alpha * alpha in (1, -1):
                found.append(alpha)
    return tuple(found)


def descend_by_walk(beta: int) -> DescentTrace | None:
    """Reference: the plain descent, one step (b, a) -> (a - b, b) at a time
    from the closed-form successor, counted down to b == a."""
    found = successors_by_isqrt(beta)
    if not found:
        return None
    b, a, count = beta, found[0], 0
    while a != b:
        b, a = a - b, b
        count += 1
    return DescentTrace(beta, count)


def pisano_residues(m: int) -> set[int]:
    """Reference: every F(i) mod m, from one full period of the sequence mod m."""
    seen, a, b = set(), 1 % m, 1 % m
    while True:
        seen.add(a)
        a, b = b, (a + b) % m
        if (a, b) == (1 % m, 1 % m):
            return seen


def square_residues(m: int) -> set[int]:
    """Reference: the residues r mod m for which 5*r**2 - 4 or 5*r**2 + 4
    is a square mod m.  5*F(i)**2 + 4*(-1)**i is the square of the Lucas
    number L(i), so it is a square modulo every m, and every F(i) mod m is
    among these."""
    squares = {x * x % m for x in range(m)}
    return {r for r in range(m) if (5 * r * r - 4) % m in squares or (5 * r * r + 4) % m in squares}


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


def exact_solution_by_isqrt(max_beta: int) -> tuple[int, int] | None:
    """Reference: the per-beta isqrt scan.  The only positive root is
    alpha = (beta + sqrt(5*beta^2)) / 2, integral iff 5*beta^2 is a perfect
    square whose root has beta's parity."""
    for beta in range(1, max_beta + 1):
        disc = 5 * beta * beta
        root = isqrt(disc)
        if root * root == disc and (beta + root) % 2 == 0:
            alpha = (beta + root) // 2
            if beta <= alpha <= 2 * beta and beta * (beta + alpha) == alpha * alpha:
                return beta, alpha
    return None


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
        # the record the validating constructor builds, and alpha < beta is
        # refused by its residual, not by the constructor's order check
        for beta, alpha, sign in ((1, 1, 1), (1, 2, -1), (8, 13, -1), (fib(300), fib(301), 1)):
            pair = HippasusPair.from_beta_alpha(beta, alpha)
            assert pair == HippasusPair(beta, alpha, sign) and type(pair) is HippasusPair
        with pytest.raises(NotHippasusError, match="residual 31"):
            HippasusPair.from_beta_alpha(5, 3)
        # each argument is converted first, beta before alpha
        with pytest.raises(ValueError, match="beta must be >= 1"):
            HippasusPair.from_beta_alpha(0, 1.5)
        with pytest.raises(ValueError, match="alpha must be an integer"):
            HippasusPair.from_beta_alpha(1, 1.5)
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            HippasusPair.from_beta_alpha(1, 0)

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

    def test_matches_closed_form_across_threshold(self):
        for i in list(range(80, 100)) + [2045, 2046, 2047, 2048, 5000]:
            for beta in (fib(i) - 1, fib(i), fib(i) + 1, fib(i) + 2):
                assert successors(beta).successors == successors_by_isqrt(beta), (i, beta)

    def test_matches_closed_form_and_walk_on_every_small_beta(self):
        index = {}
        a, b, i = 1, 1, 0
        while a <= 2 * 10**5:
            index.setdefault(a, i)
            a, b, i = b, a + b, i + 1
        for beta in range(1, 2 * 10**5 + 1):
            assert successors(beta).successors == successors_by_isqrt(beta), beta
            trace = descend(beta)
            assert (None if trace is None else trace.recovered_index) == index.get(beta), beta

    def test_sieve_pass_below_a_fib_is_refused(self):
        # a non-member just below F(100) that the sieve lets through, with
        # F(101) inside its window: the bracket (F(99), F(100)) refuses it
        top = fib(100)
        beta = next(b for b in range(top - 1, top - 10**5, -1) if not fibonacci._sieve_rejects(b))
        assert beta < fib(101) < 2 * beta
        assert successors(beta).successors == ()
        assert descend(beta) is None


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
        for i in range(2, 5001):
            trace = descend(fib(i))
            assert trace is not None
            assert trace.recovered_index == i

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            DescentTrace(13, 5)  # wrong index
        with pytest.raises(ValueError):
            DescentTrace(12, 5)  # not a Fibonacci number

    def test_trace_holds_start_and_index(self):
        assert DescentTrace._fields == ("beta", "recovered_index")
        assert DescentTrace(13, 6) == descend(13)
        assert DescentTrace(1, 0).steps == (1,)
        assert DescentTrace(1, 1).steps == (1, 1)
        for bad_index in (-1, MAX_INDEX + 1, 6.0):
            with pytest.raises(ValueError):
                DescentTrace(13, bad_index)

    def test_matches_walk_across_threshold(self):
        # every i to 2100 and two far beyond: the index lookup's bit-length
        # estimate and its single steps against the walk
        for i in list(range(2, 2101)) + [5000, 10**4]:
            for beta in (fib(i) - 1, fib(i), fib(i) + 1):
                assert descend(beta) == descend_by_walk(beta), (i, beta)

    def test_big_operands_are_fast(self):
        # the walk would take about 21 s at F(10^6)
        run = subprocess.run(
            [sys.executable, "-c", BIG_DESCENT_TIMING], capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        index, missing, member_s, non_member_s = run.stdout.split()
        assert (int(index), missing) == (10**6, "True")
        assert float(member_s) < 5.0
        assert float(non_member_s) < 0.1

    def test_big_non_member_past_the_sieve_is_fast(self):
        # one lookup and the bracket's residual; an isqrt test of 5*beta**2 +/- 4
        # takes about 1.6 s at this size
        run = subprocess.run(
            [sys.executable, "-c", SIEVE_PASS_TIMING], capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        offset, missing, seconds = run.stdout.split()
        assert (int(offset), missing) == (49_665, "True")
        assert float(seconds) < 0.8

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


class TestJump:
    def test_one_jump_suffices(self, monkeypatch):
        # the index comes from the one lookup of beta itself, which also
        # finds the certified successor; no walk, no second lookup
        lookups = []

        def spy(b):
            found = locate(b)
            lookups.append((b, found[0]))
            return found

        locate = fibonacci._locate
        monkeypatch.setattr(fibonacci, "_locate", spy)
        for i in range(2, 5001):
            lookups.clear()
            assert descend(fib(i)).recovered_index == i
            assert lookups == [(fib(i), i)], i

    def test_sieve_rejection_is_the_whole_answer(self, monkeypatch):
        # one residue test and no lookup or doubling for a non-member the
        # sieve rejects, by every entry point that decides membership
        sieved = []

        def sieve(b):
            sieved.append(b)
            return rejects(b)

        def forbidden(name):
            def call(n):
                raise AssertionError(f"{name}({n}) called")

            return call

        members = {i: fib(i) for i in (90, 91, 1000, 1001, 5000, 5001)}  # before the spies
        rejects = fibonacci._sieve_rejects
        monkeypatch.setattr(fibonacci, "_sieve_rejects", sieve)
        for name in ("_locate", "_pair"):
            monkeypatch.setattr(fibonacci, name, forbidden(name))
        for i in (90, 1000, 5000):
            beta = members[i] + 1
            for answer, refusal in (
                (lambda: descend(beta), None),
                (lambda: fib_index_of(beta), None),
                (lambda: is_consecutive_fib(beta, members[i + 1]), False),
            ):
                sieved.clear()
                assert answer() is refusal
                assert sieved == [beta]

    def test_non_member_past_the_sieve_is_refused_by_its_bracket(self, monkeypatch):
        # a value strictly between two Fibonacci numbers that every residue
        # admits: descend's certified lookup brackets it by (F(100), F(101))
        # for the "no"; the two value callers compare it with the pair at
        # its magnitude's index, one table read, and neither walks nor
        # certifies
        beta = SIEVE_PASS_101
        index = fibonacci._index_by_magnitude(beta)
        calls = {"_sieve_rejects": [], "_locate": [], "_pair": []}

        def spy(name):
            real = getattr(fibonacci, name)

            def call(n):
                calls[name].append(n)
                return real(n)

            return call

        for name in calls:
            monkeypatch.setattr(fibonacci, name, spy(name))
        certified = {"_sieve_rejects": [beta], "_locate": [beta], "_pair": []}
        by_value = {"_sieve_rejects": [beta], "_locate": [], "_pair": [index]}
        for answer, refusal, expected in (
            (lambda: descend(beta), None, certified),
            (lambda: fib_index_of(beta), None, by_value),
            (lambda: is_consecutive_fib(beta, fib(101)), False, by_value),
        ):
            for called in calls.values():
                called.clear()
            assert answer() is refusal
            assert calls == expected

    @pytest.mark.parametrize(
        "beta, lookup",
        [
            # a member whose successor is off by one
            (fib(100), (100, fib(100), fib(101) + 1)),
            # a non-member past the sieve: a bracket whose low end is off
            (SIEVE_PASS_101, (101, fib(101), fib(102) + 1)),
            # a non-member past the sieve: a consecutive pair above beta
            (SIEVE_PASS_101, (102, fib(102), fib(103))),
            # a member given the pair below it
            (fib(100), (99, fib(99), fib(100))),
            # a member given the pair above it, whose low end is beta itself
            (fib(100), (101, fib(101), fib(102))),
            # the certificate guards small values too: a member given the
            # pair above it, and a non-member past the sieve whose low end is off
            (13, (7, 21, 34)),
            (1836, (17, 2584, 4182)),
        ],
    )
    def test_lookup_that_fails_its_certificate_raises(self, monkeypatch, beta, lookup):
        assert not fibonacci._sieve_rejects(beta)
        monkeypatch.setattr(fibonacci, "_locate", lambda b: lookup)
        with pytest.raises(RuntimeError, match="does not certify"):
            descend(beta)
        with pytest.raises(RuntimeError, match="does not certify"):
            successors(beta)

    @pytest.mark.parametrize(
        "beta, lookup",
        [
            # the right values under the index one below or above
            (13, (5, 13, 21)),
            (13, (7, 13, 21)),
            (fib(100), (99, fib(100), fib(101))),
            (fib(5000), (5001, fib(5000), fib(5001))),
        ],
    )
    def test_lookup_with_a_wrong_index_raises(self, monkeypatch, beta, lookup):
        # the bracket certifies the values; the magnitude checks the index,
        # in _decide, for every entry point that reads a member's lookup
        monkeypatch.setattr(fibonacci, "_locate", lambda b: lookup)
        for answer in (descend, successors, unique_successor):
            with pytest.raises(RuntimeError, match="magnitude disagrees"):
                answer(beta)

    def test_one_doubling_per_member(self, monkeypatch):
        # the lookup's doubling, to F(5000) = G(5001), is the only one: one
        # step from the table to G(2499), one to G(5001); the trace does not
        # re-run fib(i), and the certificate squares at half size inside it
        steps = []

        def spy(aa, bb, m):
            steps.append(m)
            return last_step(aa, bb, m)

        last_step = fibonacci._last_step
        beta = fib(5000)
        monkeypatch.setattr(fibonacci, "_last_step", spy)
        assert descend(beta).recovered_index == 5000
        assert steps == [2499, 5001]

    def test_small_descent_builds_no_successor_set(self, monkeypatch):
        # descend reads _decide's answer directly
        def no_successors(b):
            raise AssertionError(f"successors({b}) called")

        monkeypatch.setattr(descent, "successors", no_successors)
        assert descend(14) is None
        assert descend(100_003) is None
        assert descend(13) == DescentTrace(13, 6)
        assert descend(121_393) == DescentTrace(121_393, 25)


def sieve_rejects_by_loop(n: int) -> bool:
    """Oracle: the sieve as a loop over ``fibonacci._SIEVE``, in its order."""
    r = n % fibonacci._SIEVE_PRODUCT
    for m, residues in fibonacci._SIEVE:
        if r % m not in residues:
            return True
    return False


class TestSieve:
    def test_expression_is_the_loop_on_every_n_to_two_million(self):
        rejects = fibonacci._sieve_rejects
        disagree = [n for n in range(1, 2 * 10**6 + 1) if rejects(n) != sieve_rejects_by_loop(n)]
        assert disagree == []

    def test_expression_is_the_loop_near_fibonacci_numbers(self):
        a, b = 1, 1  # F(k), F(k+1)
        for k in range(3000):
            for n in range(max(a - 2, 1), a + 3):
                assert fibonacci._sieve_rejects(n) == sieve_rejects_by_loop(n), (k, n - a)
            a, b = b, a + b

    def test_expression_is_the_loop_on_large_random_values(self):
        rng = random.Random(25)
        for k in range(10**4):
            n = rng.getrandbits(70_000)
            assert fibonacci._sieve_rejects(n) == sieve_rejects_by_loop(n), k

    def test_admits_every_fibonacci_residue(self):
        for m, residues in fibonacci._SIEVE:
            assert residues == pisano_residues(m), m
            assert residues <= square_residues(m), m
        # many periods of each modulus, whatever _SIEVE holds
        for j in range(5001):
            assert not fibonacci._sieve_rejects(fib(j)), j

    def test_rejects_most_non_members(self):
        passed = sum(not fibonacci._sieve_rejects(beta) for beta in range(1, 10**5 + 1))
        assert passed <= 30  # 27: the 24 Fibonacci values, 1836, 11789 and 81237
        assert fibonacci._sieve_rejects(fib(10**5) + 1)

    def test_rejects_values_near_fibonacci_numbers(self):
        # the values a near miss produces; about 1.7 % of them pass a sieve
        # on 5*beta**2 +/- 4 being a square modulo 16 moduli
        near = [fib(n) + d for n in range(1000, 1100) for d in range(-40, 41) if d]
        passed = sum(not fibonacci._sieve_rejects(beta) for beta in near)
        assert passed <= len(near) // 1000


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
        assert find_exact_solution(10**6) == exact_solution_by_isqrt(10**6)

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
        assert {type(v) for v in DescentTrace(beta, np.int64(50))} == {int}
        # stored as int64, 2*beta would wrap for beta = F(90) and refuse this pair
        pair = extend(HippasusPair.from_beta_alpha(np.int64(fib(89)), np.int64(fib(90))))
        assert (pair.beta, pair.alpha) == (fib(90), fib(91))
        assert {type(v) for v in pair} == {int}

    def test_numpy_integers_near_the_int64_top(self):
        np = pytest.importorskip("numpy")
        for i in range(88, 92):  # F(91) is the largest Fibonacci int64
            beta = np.int64(fib(i))
            assert successors(beta).successors == (fib(i + 1),)
            assert descend(beta).recovered_index == i
            assert successors(beta + 1).successors == ()
            assert descend(beta + 1) is None
        beta = np.int64(2**60 + 1)
        assert successors(beta).successors == successors_by_isqrt(int(beta))

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
