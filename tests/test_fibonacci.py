import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from hippasus import fibonacci
from hippasus.fibonacci import (
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


def fib_by_addition(k: int) -> int:
    """Independent oracle: conventional F(0)=0, F(1)=1 by plain iterative addition."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def first_index_at_least(targets: list[int]) -> dict[int, tuple[int, int, int]]:
    """Independent oracle, one plain walk for all targets: for each n >= 1,
    (i, F(i), F(i+1)) with i the smallest index having F(i) >= n."""
    found = {}
    i, a, b = 0, 1, 1
    for n in sorted(set(targets)):
        while a < n:
            i, a, b = i + 1, b, a + b
        found[n] = (i, a, b)
    return found


def pair_by_three_products(i: int) -> tuple[int, int]:
    """Oracle: (F(i), F(i+1)) by the classic fast doubling, one product and
    two squarings a bit of i + 1 on (G(k), G(k+1)), G(0) = 0, G(1) = 1:
    G(2k) = G(k)*(2*G(k+1) - G(k)), G(2k+1) = G(k)**2 + G(k+1)**2."""
    a, b = 0, 1
    for bit in bin(i + 1)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        a, b = (d, c + d) if bit == "1" else (c, d)
    return a, b


def halving_chain(i: int) -> list[int]:
    """The indices _pair(i) asks for, i first: each level's step takes its
    input from (i + 1) // 2 - 2, until F(i + 1) is in the table of F(0..2047)."""
    chain = [i]
    while chain[-1] + 1 >= 2048:
        chain.append((chain[-1] + 1) // 2 - 2)
    return chain


def norm_by_full_size(low: int, high: int) -> int:
    """Oracle: 4*N(low, high) = (2*high - low)**2 - 5*low**2, squared at the
    pair's own size, the check _decide made on every bracket before its
    certificate moved to the doubling's last step."""
    return (2 * high - low) ** 2 - 5 * (low * low)


class TestPair:
    def test_matches_one_addition_walk(self):
        a, b = 1, 1  # F(i), F(i+1)
        for i in range(5001):
            assert _pair(i) == (a, b), i
            # the certified lookup of F(i) starts from the same pair;
            # F(1) = 1 is F(0), the smaller index
            assert i == 1 or _locate(a) == (i, a, b), i
            a, b = b, a + b

    def test_bit_patterns_of_i_plus_one(self):
        # i + 1 = 2**k - 1 is all ones and 2**k a single one, so the sign
        # 2*(-1)**k of every doubling step comes from either kind of bit
        for k in range(1, 21):
            for j in (2**k - 1, 2**k, 2**k + 1):
                assert _pair(j - 1) == pair_by_three_products(j - 1), j

    def test_at_the_largest_index(self):
        assert _pair(MAX_INDEX) == pair_by_three_products(MAX_INDEX)


class TestCertificate:
    """_decide's bracket is certified at half size inside the doubling and
    guarded modulo 2**61 - 1; the full-size norm is the oracle."""

    def test_decide_against_the_full_size_norm_to_20000(self):
        a, b = 5, 8  # F(4), F(5), by addition; F(3) - 1 = 2 and F(3) + 1 = 5 are members
        for i in range(4, 20_001):
            for beta in (a - 1, a, a + 1):
                assert _decide(beta) == ((i, b) if beta == a else None), (i, beta - a)
                if not _sieve_rejects(beta):
                    _, high, alpha = _locate(beta)
                    low = alpha - high
                    assert 0 < low < beta <= high and norm_by_full_size(low, high) in (4, -4)
            a, b = b, a + b

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda a, b: (b - a, a),  # the pair below, of the other norm
            lambda a, b: (b, a + b),  # the pair above, of the other norm
            lambda a, b: (a, b + 1),  # a pair of no unit norm
        ],
    )
    def test_a_wrong_norm_into_the_last_step_raises(self, monkeypatch, mutation):
        # the top step's input is _pair at (i + 1) // 2 - 2; only that call
        # is wrong, so the lower levels are right and the half-size check
        # alone can fail
        members = {i: fib(i) for i in (2047, 2048, 5000, 100_000)}
        for i, beta in members.items():
            half, injected = (i + 1) // 2 - 2, []

            def faulty(j, half=half, injected=injected):
                if j != half:
                    return pair(j)
                injected.append(j)
                return mutation(*pair(j))

            monkeypatch.setattr(fibonacci, "_pair", faulty)
            with pytest.raises(RuntimeError, match=f"doubling to F\\({i}\\) .* does not certify"):
                _decide(beta)
            assert injected == [half], i

    @pytest.mark.parametrize(
        "mutation",
        [
            # the step's sign subtracted, not added
            lambda aa, bb, m: step_with_sign(aa, bb, m, -step_sign(m)),
            # the step's sign dropped
            lambda aa, bb, m: step_with_sign(aa, bb, m, 0),
            # the second value one off
            lambda aa, bb, m: (lambda x, y: (x, y + 1))(*last_step(aa, bb, m)),
        ],
    )
    def test_a_wrong_last_step_fails_the_guard(self, monkeypatch, mutation):
        # only the top step, m = i + 1, is wrong: its input is right, so the
        # half-size check passes, and the norm modulo 2**61 - 1 catches it
        members = {i: fib(i) for i in (2047, 2048, 5000, 100_000)}
        for i, beta in members.items():
            mutated = []

            def faulty(aa, bb, m, top=i + 1, mutated=mutated):
                if m != top:
                    return last_step(aa, bb, m)
                mutated.append(m)
                return mutation(aa, bb, m)

            monkeypatch.setattr(fibonacci, "_last_step", faulty)
            with pytest.raises(RuntimeError, match="lookup gave a pair at index .* does not certify"):
                _decide(beta)
            assert mutated == [i + 1], i

    def test_the_mutations_differ_from_the_step_by_their_sign_alone(self):
        # step_with_sign at the true sign is the step the guard test mutates
        for m in range(2, 200):
            aa, bb = fib_by_addition(m // 2 - 1) ** 2, fib_by_addition(m // 2) ** 2
            assert step_with_sign(aa, bb, m, step_sign(m)) == last_step(aa, bb, m)
            assert last_step(aa, bb, m) == (fib_by_addition(m), fib_by_addition(m + 1)), m


pair = fibonacci._pair
last_step = fibonacci._last_step


def step_sign(m: int) -> int:
    """2*(-1)**k, k = m // 2: the sign term of the doubling step to G(m)."""
    return 2 * (-1) ** (m // 2)


def step_with_sign(aa: int, bb: int, m: int, sign: int) -> tuple[int, int]:
    """The doubling step to (G(m), G(m+1)) with ``sign`` for its sign term."""
    low, high = aa + bb, 4 * bb - aa + sign
    return (high, 2 * high - low) if m & 1 else (high - low, high)


class TestFib:
    def test_base_values(self):
        assert fib(0) == 1
        assert fib(1) == 1
        assert fib(2) == 2
        assert fib(3) == 3

    def test_table_values(self):
        # the 1,1-start indexing: F(10) = 89, F(15) = 987, F(16) = 1597
        assert fib(10) == 89
        assert fib(15) == 987
        assert fib(16) == 1597
        assert fib(17) == 2584

    def test_recurrence(self):
        for i in range(0, 301):
            assert fib(i) + fib(i + 1) == fib(i + 2)

    @pytest.mark.parametrize(
        "i",
        [0, 1, 7, 30, 89, 300, 2046, 2047, 2048, 2049, 2500, 9_999, 10_000, 10_001,
         12_345, 100_000],
    )
    def test_against_fast_doubling_oracle(self, i):
        # 1,1-start F(i) equals conventional F(i+1); the oracle adds, so it
        # shares no algorithm with fib's table or its fast doubling
        assert fib(i) == fib_by_addition(i + 1)

    def test_index_range_errors(self):
        with pytest.raises(ValueError):
            fib(-1)
        with pytest.raises(ValueError):
            fib(MAX_INDEX + 1)
        with pytest.raises(ValueError):
            fib(1.5)

    def test_deterministic_across_threads(self):
        results: list[list[int]] = []

        def worker():
            results.append([fib(i) for i in range(0, 400, 7)])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)


class TestFibIndexOf:
    def test_tie_break_for_one(self):
        assert fib_index_of(1) == 0

    def test_known_member(self):
        assert fib_index_of(34) == 8
        assert fib_index_of(987) == 15

    def test_non_member(self):
        # 12 lies strictly between fib(5) = 8 and fib(6) = 13
        assert fib(5) < 12 < fib(6)
        assert fib_index_of(12) is None

    def test_roundtrip(self):
        assert fib_index_of(fib(0)) == 0
        assert fib_index_of(fib(1)) == 0  # duplicated value 1 maps to index 0
        # past the table and across many periods of every sieve modulus
        for i in range(2, 5001):
            assert fib_index_of(fib(i)) == i

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            fib_index_of(0)

    def test_matches_walk_on_small_range(self):
        walk = first_index_at_least(list(range(1, 20_001)))
        for n in range(1, 20_001):
            i, value, _ = walk[n]
            assert fib_index_of(n) == (i if value == n else None), n

    def test_matches_walk_near_memo_limit_and_beyond(self):
        indices = [2_046, 2_047, 2_048, 2_049, 9_998, 9_999, 10_000, 10_001, 10_002, 100_000]
        values = {i: fib_by_addition(i + 1) for i in indices}
        targets = [v + d for v in values.values() for d in (-1, 0, 1)]
        walk = first_index_at_least(targets)
        for n in targets:
            i, value, _ = walk[n]
            assert fib_index_of(n) == (i if value == n else None)
        for i, value in values.items():
            assert fib_index_of(value) == i

    def test_locate_matches_walk_through_the_table(self):
        # the magnitude estimate and its single steps, from n = 1 to F(2050) + 1:
        # its start is read from the table up to F(2047) and doubled past it
        values = [fib_by_addition(i + 1) for i in range(2051)]
        targets = [v + d for v in values for d in (-1, 0, 1) if v + d >= 1]
        walk = first_index_at_least(targets)
        for n in targets:
            assert _locate(n) == walk[n], n

    def test_accepts_values_beyond_max_index(self):
        beyond = fib(MAX_INDEX) + fib(MAX_INDEX - 1)  # F(MAX_INDEX + 1)
        assert fib_index_of(beyond) == MAX_INDEX + 1
        assert fib_index_of(beyond + 1) is None


class TestIndexByMagnitude:
    def test_every_member_to_index_20000(self):
        # from F(2) = 2: the value 1 is F(0) and F(1), which no magnitude splits
        a, b = 2, 3
        for i in range(2, 20_001):
            assert _index_by_magnitude(a) == i, i
            a, b = b, a + b


class TestIsConsecutiveFib:
    def test_base_pairs(self):
        assert is_consecutive_fib(1, 1)
        assert is_consecutive_fib(1, 2)

    def test_table_pair(self):
        assert is_consecutive_fib(13, 21)

    def test_non_pairs(self):
        assert not is_consecutive_fib(8, 12)
        assert not is_consecutive_fib(21, 13)  # order matters
        assert not is_consecutive_fib(2, 2)

    def test_all_generated_pairs(self):
        for i in range(0, 5001):
            assert is_consecutive_fib(fib(i), fib(i + 1))

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            is_consecutive_fib(0, 1)
        with pytest.raises(ValueError):
            is_consecutive_fib(1, 0)

    def test_matches_pair_set(self):
        pairs = set()
        a, b = 1, 1
        while a <= 5_000:
            pairs.add((a, b))
            a, b = b, a + b
        pairs.add((1, 2))
        for x in range(1, 5_001):
            successor = next((q for p, q in pairs if p == x and q != 1), None)
            ys = {1, x - 1, x, x + 1, 2 * x - 1, 2 * x, 2 * x + 1, 3 * x}
            if successor is not None:
                ys |= {successor - 1, successor, successor + 1}
            for y in ys - {0}:
                assert is_consecutive_fib(x, y) == ((x, y) in pairs), (x, y)

    def test_matches_walk_near_memo_limit_and_beyond(self):
        indices = [2_046, 2_047, 2_048, 2_049, 9_998, 9_999, 10_000, 10_001, 10_002, 100_000]
        for i in indices:
            x, y = fib_by_addition(i + 1), fib_by_addition(i + 2)
            assert is_consecutive_fib(x, y)
            for bad in (y - 1, y + 1, x, 2 * x, x - 1):
                assert not is_consecutive_fib(x, bad)
            assert not is_consecutive_fib(x + 1, y)
            assert not is_consecutive_fib(x - 1, y)


class TestIntegerBoundary:
    def test_accepts_numpy_integers(self):
        np = pytest.importorskip("numpy")
        f50, f51 = fib(50), fib(51)
        assert fib(np.int64(50)) == f50
        assert fib_index_of(np.int64(f50)) == 50
        assert is_consecutive_fib(np.int64(f50), np.int64(f51))

    @pytest.mark.parametrize("bad", [2.0, True, 1.5])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError):
            fib(bad)
        with pytest.raises(ValueError):
            fib_index_of(bad)
        with pytest.raises(ValueError):
            is_consecutive_fib(bad, 3)
        with pytest.raises(ValueError):
            is_consecutive_fib(2, bad)


def test_import_does_not_load_numpy():
    # -S: without site, nothing but hippasus itself can load these modules;
    # typing alone costs 5-8 ms of every CLI call's start-up, and dataclasses
    # (which loads inspect) more; the package never needs csv, and json only
    # the JSON table rendering
    modules = "{'numpy', 'typing', 'dataclasses', 'inspect', 'csv', 'json'}"
    code = f"import sys, hippasus.cli; print(*sorted({modules} & set(sys.modules)))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [], f"importing hippasus loaded {run.stdout.strip()}"


class TestCassini:
    def test_examples(self):
        assert cassini_residual(0) == 1    # 1*2 - 1
        assert cassini_residual(1) == -1   # 1*3 - 4
        assert cassini_residual(4) == 1    # 5*13 - 64

    def test_alternating_identity(self):
        for i in range(0, 301):
            assert cassini_residual(i) == (-1) ** i

    def test_one_pair_a_call_across_the_table_edge(self, monkeypatch):
        # the table ends at F(2047); one _pair call gives both values on
        # either side of it, and past it the only further calls are its own
        # recursion, halving the index down into the table
        calls = []

        def spy(i):
            calls.append(i)
            return _pair(i)

        monkeypatch.setattr(fibonacci, "_pair", spy)
        for i in [*range(2040, 2061), 10**5]:
            calls.clear()
            assert cassini_residual(i) == (-1) ** i, i
            assert calls == halving_chain(i), i
        assert halving_chain(2046) == [2046] and halving_chain(2047) == [2047, 1022]
        assert halving_chain(10**5) == [10**5, 49_998, 24_997, 12_497, 6_247, 3_122, 1_559]
        calls.clear()
        assert spy(MAX_INDEX) == pair_by_three_products(MAX_INDEX)
        assert calls == halving_chain(MAX_INDEX) and len(calls) == 10  # 9 doubling levels

    def test_refuses_past_the_range_before_any_fib(self):
        # F(i + 2) lies past MAX_INDEX: refused before a fast doubling runs
        start = time.perf_counter()
        refusal = r"^index 1000001 exceeds the supported range \(max 1000000\)$"
        with pytest.raises(ValueError, match=refusal):
            cassini_residual(MAX_INDEX - 1)
        assert time.perf_counter() - start < 0.1
        assert cassini_residual(MAX_INDEX - 2) == 1
