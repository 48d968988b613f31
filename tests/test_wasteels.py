import random

import pytest

from hippasus.descent import hippasus_residual
from hippasus.fibonacci import fib, is_consecutive_fib
from hippasus import fibonacci
from hippasus.wasteels import classify, wasteels_residual


class TestResidual:
    def test_examples(self):
        assert wasteels_residual(1, 1) == -1
        assert wasteels_residual(5, 8) == -1    # 64 - 40 - 25
        assert wasteels_residual(4, 6) == -4    # 36 - 24 - 16

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            wasteels_residual(0, 1)

    def test_negates_hippasus_residual(self):
        # y^2 - xy - x^2 == -(x*(x+y) - y^2), identically
        rng = random.Random(987)
        for _ in range(10_000):
            x = rng.randint(1, 10**6)
            y = rng.randint(1, 10**6)
            assert wasteels_residual(x, y) == -hippasus_residual(x, y)


class TestClassify:
    def test_consecutive_with_indices(self):
        v = classify(2, 3)
        assert v.consecutive and v.indices == (2, 3)
        v = classify(34, 55)
        assert v.consecutive and v.indices == (8, 9)

    def test_duplicated_one(self):
        assert classify(1, 1).indices == (0, 1)
        assert classify(1, 2).indices == (1, 2)

    def test_not_consecutive(self):
        v = classify(6, 10)
        assert v.residual == 4 and not v.consecutive and v.indices is None

    def test_reversed_order_rejected(self):
        assert not classify(3, 2).consecutive

    def test_indices_name_the_pair(self):
        for i in range(0, 60):
            v = classify(fib(i), fib(i + 1))
            assert v.consecutive
            lo, hi = v.indices
            assert hi == lo + 1
            assert fib(lo) == v.x and fib(hi) == v.y

    def test_sign_pattern(self):
        for i in range(0, 60):
            assert wasteels_residual(fib(i), fib(i + 1)) == (-1) ** (i + 1)

    def test_agrees_with_sequence_scan(self):
        for x in range(1, 301):
            for y in range(1, 301):
                assert classify(x, y).consecutive == is_consecutive_fib(x, y), (x, y)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            classify(1, 0)

    def test_indices_of_every_pair_to_index_5000(self):
        # the index comes from x's magnitude, not a lookup; the pairs by addition
        x, y = 1, 2
        for i in range(1, 5001):
            assert classify(x, y).indices == (i, i + 1), i
            x, y = y, x + y

    def test_makes_no_lookup(self, monkeypatch):
        # the +/-1 residual certifies the pair, so no doubling runs
        def no_doubling(i):
            raise AssertionError(f"_pair({i}) called")

        x, y = fib(5000), fib(5001)
        monkeypatch.setattr(fibonacci, "_pair", no_doubling)
        assert classify(x, y).indices == (5000, 5001)


class TestIntegerBoundary:
    def test_accepts_numpy_integers(self):
        np = pytest.importorskip("numpy")
        x, y = np.int64(fib(50)), np.int64(fib(51))
        v = classify(x, y)
        assert v.consecutive and v.indices == (50, 51)
        assert v.residual == wasteels_residual(x, y) == -1  # (-1)**51
        # 5*x**2 exceeds int64, so fixed-width arithmetic would wrap
        far = np.int64(3 * fib(50))
        assert classify(x, far).residual == wasteels_residual(x, far) == 5 * fib(50) ** 2

    @pytest.mark.parametrize("bad", [2.0, True, 1.5])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError):
            classify(bad, 3)
        with pytest.raises(ValueError):
            classify(2, bad)
        with pytest.raises(ValueError):
            wasteels_residual(bad, 3)
        with pytest.raises(ValueError):
            wasteels_residual(2, bad)
