from decimal import Decimal, localcontext

import mpmath
import pytest

from hippasus.fibonacci import fib
from hippasus.geometry import (
    PrecisionConfig,
    PrecisionTooLow,
    convergence_table,
    octagon,
    octagon_deviations,
    octagon_limits,
    phi,
)

# Limits recomputed independently with mpmath at 60 digits (oracle for the
# decimal implementation); first = second * third.
ORACLE_LIMIT_1 = "1.00375586178770430199379428777"
ORACLE_LIMIT_2 = "1.00187410891148081774000528039"
ORACLE_LIMIT_3 = "1.00187823286327658148009901196"


def mp_decimal(x: mpmath.mpf, digits: int = 55) -> Decimal:
    return Decimal(mpmath.nstr(x, digits, strip_zeros=False))


@pytest.fixture(scope="module")
def mp():
    old = mpmath.mp.dps
    mpmath.mp.dps = 70
    yield mpmath
    mpmath.mp.dps = old


class TestPrecisionConfig:
    def test_default(self):
        assert PrecisionConfig().digits == 50

    def test_floor(self):
        assert PrecisionConfig(digits=15).digits == 15
        with pytest.raises(PrecisionTooLow):
            PrecisionConfig(digits=14)
        with pytest.raises(PrecisionTooLow):
            PrecisionConfig(digits=5)
        with pytest.raises(PrecisionTooLow):
            PrecisionConfig(10)


class TestIntegerBoundary:
    def test_accepts_numpy_integers(self):
        np = pytest.importorskip("numpy")
        assert type(PrecisionConfig(np.int64(20)).digits) is int
        assert octagon(np.int64(10), PrecisionConfig(20)).n == 10

    @pytest.mark.parametrize("bad", [2.0, True, 1.5])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValueError, match="digits must be an integer"):
            PrecisionConfig(bad)  # not PrecisionTooLow: the value is no integer at all
        cfg = PrecisionConfig()
        with pytest.raises(ValueError):
            octagon(bad, cfg)
        with pytest.raises(ValueError):
            convergence_table(bad, cfg)


class TestPhi:
    def test_fifteen_digits_correctly_rounded(self):
        assert phi(PrecisionConfig(digits=15)) == Decimal("1.61803398874989")

    def test_defining_equation(self):
        g = phi(PrecisionConfig(digits=50))
        with localcontext() as ctx:
            ctx.prec = 60
            assert abs(g * g - g - 1) < Decimal("1e-48")

    def test_against_mpmath(self, mp):
        g = phi(PrecisionConfig(digits=50))
        oracle = (1 + mp.sqrt(5)) / 2
        assert abs(g - mp_decimal(oracle)) < Decimal("1e-49")

    def test_deterministic(self):
        cfg = PrecisionConfig(digits=40)
        assert phi(cfg) == phi(cfg)


class TestConvergenceTable:
    def test_first_rows(self):
        rows = convergence_table(5, PrecisionConfig(digits=20))
        assert rows[0].ratio == 1
        assert rows[1].ratio == 2
        # error = phi - 2 ~ -0.382
        assert Decimal("-0.383") < rows[1].error < Decimal("-0.381")
        assert rows[0].error > 0

    def test_row_fifteen_ratio(self):
        # F(16)/F(15) = 1597/987
        rows = convergence_table(16, PrecisionConfig(digits=50))
        with localcontext() as ctx:
            ctx.prec = 50
            assert rows[15].ratio == Decimal(1597) / Decimal(987)
        assert str(rows[15].ratio).startswith("1.61803")

    def test_strictly_decreasing_and_alternating(self):
        rows = convergence_table(60, PrecisionConfig(digits=50))
        for n in range(1, 61):
            assert abs(rows[n].error) < abs(rows[n - 1].error)
            assert (rows[n].error > 0) != (rows[n - 1].error > 0)

    def test_error_against_mpmath(self, mp):
        rows = convergence_table(40, PrecisionConfig(digits=45))
        oracle = (1 + mp.sqrt(5)) / 2 - mp.mpf(fib(31)) / fib(30)
        assert abs(rows[30].error - mp_decimal(oracle)) < Decimal("1e-40")

    def test_digit_guard(self):
        with pytest.raises(PrecisionTooLow):
            convergence_table(200, PrecisionConfig(digits=20))
        # loosening the precision clears the guard
        assert len(convergence_table(200, PrecisionConfig(digits=60))) == 201

    def test_requires_positive_n_max(self):
        with pytest.raises(ValueError):
            convergence_table(0, PrecisionConfig())


class TestOctagon:
    def test_degenerate_n0(self):
        geo = octagon(0, PrecisionConfig(digits=30))
        assert geo.p[0] == Decimal("0.5")
        with localcontext() as ctx:
            ctx.prec = 40
            assert abs(geo.p[1] - Decimal("0.75").sqrt()) < Decimal("1e-28")
        assert geo.q == (geo.p[1], geo.p[0])

    def test_chord_equals_point_distance(self):
        # relative tolerance: digits are significant figures, and d grows
        # like F(n+2), so the published value's ulp scales with it
        cfg = PrecisionConfig(digits=50)
        for n in (0, 1, 5, 17, 40):
            geo = octagon(n, cfg)
            with localcontext() as ctx:
                ctx.prec = 60
                dx = geo.q[0] - geo.p[0]
                dy = geo.q[1] - geo.p[1]
                dist = (dx * dx + dy * dy).sqrt()
                assert abs(dist - geo.d) / geo.d < Decimal("1e-45"), n

    def test_regular_side_formula(self, mp):
        geo = octagon(3, PrecisionConfig(digits=40))
        # e = (F(5)/2) * sqrt(2 - sqrt(2)) with F(5) = 8
        oracle = mp.mpf(fib(5)) / 2 * mp.sqrt(2 - mp.sqrt(2))
        assert abs(geo.e - mp_decimal(oracle)) < Decimal("1e-35")

    def test_ratios_near_limits_at_n40(self):
        cfg = PrecisionConfig(digits=50)
        geo = octagon(40, cfg)
        lim1, lim2, lim3 = octagon_limits(cfg)
        assert abs(geo.ratio_d_over_f - lim1) < Decimal("1e-10")
        assert abs(geo.ratio_d_over_e - lim2) < Decimal("1e-10")
        assert abs(geo.ratio_e_over_f - lim3) < Decimal("1e-10")

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            octagon(-1, PrecisionConfig())


class TestOctagonLimits:
    def test_against_frozen_oracle(self):
        lim1, lim2, lim3 = octagon_limits(PrecisionConfig(digits=40))
        assert abs(lim1 - Decimal(ORACLE_LIMIT_1)) < Decimal("1e-29")
        assert abs(lim2 - Decimal(ORACLE_LIMIT_2)) < Decimal("1e-29")
        assert abs(lim3 - Decimal(ORACLE_LIMIT_3)) < Decimal("1e-29")

    def test_against_live_mpmath(self, mp):
        golden = (1 + mp.sqrt(5)) / 2
        expected = (
            mp.sqrt(2) / 2 * (mp.sqrt(golden**4 - 1) - 1),
            mp.sqrt(2) / mp.sqrt(2 - mp.sqrt(2)) * (mp.sqrt(1 - golden**-4) - golden**-2),
            mp.sqrt(2 - mp.sqrt(2)) / 2 * golden**2,
        )
        for got, want in zip(octagon_limits(PrecisionConfig(digits=50)), expected):
            assert abs(got - mp_decimal(want)) < Decimal("1e-45")

    def test_product_identity(self):
        lim1, lim2, lim3 = octagon_limits(PrecisionConfig(digits=50))
        with localcontext() as ctx:
            ctx.prec = 60
            assert abs(lim1 - lim2 * lim3) < Decimal("1e-48")


class TestOctagonDeviations:
    @pytest.mark.parametrize("n", [0, 1, 5, 40, 100, 200, 500])
    def test_against_mpmath(self, n):
        mp = mpmath
        with mp.workdps(400):
            half_inner, half_outer = mp.mpf(fib(n)) / 2, mp.mpf(fib(n + 2)) / 2
            p_y = mp.sqrt(half_outer**2 - half_inner**2)
            d = mp.sqrt(2) * (p_y - half_inner)
            e = half_outer * mp.sqrt(2 - mp.sqrt(2))
            golden = (1 + mp.sqrt(5)) / 2
            expected = (
                d / fib(n) - mp.sqrt(2) / 2 * (mp.sqrt(golden**4 - 1) - 1),
                d / e - mp.sqrt(2) / mp.sqrt(2 - mp.sqrt(2))
                * (mp.sqrt(1 - golden**-4) - golden**-2),
                e / fib(n) - mp.sqrt(2 - mp.sqrt(2)) / 2 * golden**2,
            )
            wanted = [mp_decimal(want, 60) for want in expected]
        got = octagon_deviations(n, PrecisionConfig(digits=50))
        for value, want in zip(got, wanted):
            assert abs((value - want) / value) < Decimal("1e-49"), n

    def test_operands_past_the_int_str_limit(self):
        # F(21000) has 4389 digits, past the interpreter's default int->str
        # limit of 4300; the digit count must not come from str()
        for value in octagon_deviations(21000, PrecisionConfig(digits=15)):
            assert value < 0 and value.adjusted() == -8778

    @pytest.mark.parametrize("n", [40, 200, 500])
    def test_all_digits_survive_the_cancellation(self, n):
        # near 1e-17, 1e-84 and 1e-209: each still shows 50 significant digits
        for value in octagon_deviations(n, PrecisionConfig(digits=50)):
            assert len(value.as_tuple().digits) == 50
