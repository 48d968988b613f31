import random
import sys
import time
from decimal import Decimal, localcontext

import mpmath
import pytest

from hippasus import geometry
from hippasus.fibonacci import fib
from hippasus.geometry import (
    OctagonGeometry,
    PrecisionConfig,
    PrecisionTooLow,
    _digit_count,
    _octagon_report,
    _round_to,
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


def test_digit_count_is_the_length_of_the_decimal_string():
    # powers of ten and their neighbours sit where a bit-length estimate
    # is one short or exact; F(478000) has 99,896 digits
    ks = list(range(1, 400)) + [999, 1000, 4299, 4300, 4301, 10**4, 54_321, 10**5]
    values = [v for k in ks for v in (10**k - 1, 10**k, 10**k + 1)] + [fib(478_000)]
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for v in values:
            assert _digit_count(v) == len(str(v)), v.bit_length()
    finally:
        sys.set_int_max_str_digits(before)
    assert _digit_count(1) == 1 and _digit_count(9) == 1


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


# The package's former chain, kept as the oracle: every root by Decimal.sqrt,
# every Fibonacci operand converted whole, five roots for the limits.

def octagon_by_chain(n: int, cfg: PrecisionConfig) -> OctagonGeometry:
    f_n, f_n2 = fib(n), fib(n + 2)
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        half_inner = Decimal(f_n) / 2
        half_outer = Decimal(f_n2) / 2
        p_y = (half_outer * half_outer - half_inner * half_inner).sqrt()
        sqrt2 = Decimal(2).sqrt()
        d = sqrt2 * (p_y - half_inner)
        e = half_outer * (2 - sqrt2).sqrt()
        r_df, r_de, r_ef = d / f_n, d / e, e / f_n
    p = (_round_to(half_inner, cfg.digits), _round_to(p_y, cfg.digits))
    rest = (_round_to(v, cfg.digits) for v in (d, e, r_df, r_de, r_ef))
    return OctagonGeometry(n, p, (p[1], p[0]), *rest)


def limits_by_chain(cfg: PrecisionConfig) -> tuple[Decimal, Decimal, Decimal]:
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        golden = (1 + Decimal(5).sqrt()) / 2
        golden2 = golden * golden
        golden4 = golden2 * golden2
        sqrt2 = Decimal(2).sqrt()
        root_2m = (2 - sqrt2).sqrt()
        first = sqrt2 / 2 * ((golden4 - 1).sqrt() - 1)
        second = sqrt2 / root_2m * ((1 - 1 / golden4).sqrt() - 1 / golden2)
        third = root_2m / 2 * golden2
    return tuple(_round_to(v, cfg.digits) for v in (first, second, third))


class TestAgainstTheDecimalSqrtChain:
    """Newton roots, rounded operands and the four-root limits give the
    digits of the plain chain, below and above the Newton threshold."""

    def test_limits_at_every_digit_count(self):
        for digits in range(15, 401):
            cfg = PrecisionConfig(digits)
            assert repr(octagon_limits(cfg)) == repr(limits_by_chain(cfg)), digits

    def test_octagon_on_a_sample(self):
        rng = random.Random(8)
        for digits in range(15, 401):
            cfg = PrecisionConfig(digits)
            sample = [rng.randrange(0, 200), rng.randrange(200, 2000)]
            if digits % 10 == 0:
                sample.append(rng.randrange(2000, 21001))
            for n in sample:
                assert repr(octagon(n, cfg)) == repr(octagon_by_chain(n, cfg)), (n, digits)

    @pytest.mark.parametrize("digits", [15, 50, 1000])
    def test_operands_longer_than_the_precision(self, digits):
        # F(10**5) has 20,899 digits: rounded on entry, not converted whole
        cfg = PrecisionConfig(digits)
        assert repr(octagon(100_000, cfg)) == repr(octagon_by_chain(100_000, cfg))


class TestOctagonReport:
    def test_one_wide_pass_rounds_like_the_narrow_one(self):
        for digits in (15, 20, 35, 50, 60, 124):
            cfg = PrecisionConfig(digits)
            for n in (0, 1, 2, 3, 9, 40, 41, 100, 199, 500, 1000, 5000):
                geo, limits, deviations = _octagon_report(n, cfg)
                assert repr(geo) == repr(octagon(n, cfg)), (n, digits)
                assert repr(limits) == repr(octagon_limits(cfg))
                assert repr(deviations) == repr(octagon_deviations(n, cfg))

    @pytest.mark.parametrize("n, digits", [(0, 15), (40, 50), (1000, 200), (3000, 60)])
    def test_takes_five_square_roots(self, monkeypatch, n, digits):
        # sqrt(2) and sqrt(2 - sqrt(2)) are shared by the geometry and the
        # limits: p_y, those two, sqrt(5) and its root
        roots = []

        def spy(x):
            roots.append(x)
            return sqrt(x)

        sqrt = geometry._sqrt
        monkeypatch.setattr(geometry, "_sqrt", spy)
        _octagon_report(n, PrecisionConfig(digits))
        assert len(roots) == 5

    def test_refuses_an_index_past_the_range_at_once(self):
        # the digit count of F(999,999) alone would take about a second
        for call in (octagon, octagon_deviations, _octagon_report):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match="index 1000001 exceeds"):
                call(999_999, PrecisionConfig())
            assert time.perf_counter() - t0 < 0.5


def test_limits_at_ten_thousand_digits_take_under_a_tenth_of_a_second():
    # 236 ms with Decimal.sqrt and five roots, on a 2-vCPU VM
    cfg = PrecisionConfig(10**4)
    elapsed = min(_timed(octagon_limits, cfg) for _ in range(3))
    assert elapsed < 0.1, elapsed


def _timed(call, *args) -> float:
    t0 = time.perf_counter()
    call(*args)
    return time.perf_counter() - t0
