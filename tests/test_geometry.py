import re
import sys
import time
from decimal import (
    ROUND_05UP,
    ROUND_CEILING,
    ROUND_DOWN,
    ROUND_FLOOR,
    ROUND_HALF_DOWN,
    ROUND_HALF_EVEN,
    ROUND_HALF_UP,
    ROUND_UP,
    Decimal,
    localcontext,
)

import mpmath
import pytest

from hippasus import geometry
from hippasus.cli import main
from hippasus.fibonacci import _pair, fib
from hippasus.geometry import (
    OctagonGeometry,
    PrecisionConfig,
    PrecisionTooLow,
    _binet_halves,
    _convergence_rows,
    _digit_count,
    _halves,
    _octagon_report,
    _roots_of_two,
    _rounds_safely,
    _sqrt,
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

# Decimal.sqrt rounds half-even whatever the context's rounding; _sqrt runs
# its Newton steps and the final rounding half-even in a context of its own,
# so the caller's mode reaches neither the rounding test nor its result.
# Every other operation rounds in the caller's mode.
ROUNDINGS = (ROUND_HALF_EVEN, ROUND_DOWN, ROUND_UP, ROUND_CEILING, ROUND_FLOOR,
             ROUND_HALF_UP, ROUND_HALF_DOWN, ROUND_05UP)

# Past n = 50 * (digits + 10), 3,000 at 50 digits, the octagon takes F(n)/2
# and F(n+2)/2 by Binet's formula; the gate cases meet both sides of that
# switch and run to the largest index (about 10 s, almost all of it the
# wide pass)
SWITCH_AT_50 = geometry._BINET_FACTOR * (50 + 10)
GATE_INDICES_AT_50 = (SWITCH_AT_50 - 1, SWITCH_AT_50, SWITCH_AT_50 + 1, 3 * 10**5, 999_998)


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
        # digits > log10(F(n_max)) + 10 holds from len(str(F(n_max))) + 10
        # on: one digit fewer is refused.  The rows are not built, so F(40000)
        # (8,360 digits) costs nothing past the check
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            lengths = {n_max: len(str(fib(n_max))) for n_max in (30, 200, 4780, 40_000)}
        finally:
            sys.set_int_max_str_digits(before)
        for n_max, length in lengths.items():
            message = (f"digits={length + 9} too low for F({n_max}); "
                       f"need digits > log10(F(n_max)) + 10")
            with pytest.raises(PrecisionTooLow, match=f"^{re.escape(message)}$"):
                _convergence_rows(n_max, PrecisionConfig(length + 9))
            _convergence_rows(n_max, PrecisionConfig(length + 10))

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

def _round_to(value: Decimal, digits: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits
        return +value


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


def limits_by_six_products(cfg: PrecisionConfig) -> tuple[Decimal, Decimal, Decimal]:
    """The limits as the package took them before phi's identities: phi**2
    and phi * 5**(1/4) by two products, the ratios by four more."""
    with localcontext() as ctx:
        ctx.prec = cfg.digits + 10
        sqrt2, root_2m = _roots_of_two()
        sqrt5 = _sqrt(Decimal(5))
        golden = (1 + sqrt5) / 2
        x, s = golden * golden, golden * _sqrt(sqrt5)
        limits = sqrt2 / 2 * (s - 1), sqrt2 * (s - 1) / (root_2m * x), root_2m / 2 * x
        ctx.prec = cfg.digits
        return tuple(+limit for limit in limits)


def test_limits_equal_the_six_product_form():
    for digits in [*range(15, 401, 7), 1000, 1333, 2371, 3000, 4217]:
        cfg = PrecisionConfig(digits)
        assert repr(octagon_limits(cfg)) == repr(limits_by_six_products(cfg)), digits
    for rounding in ROUNDINGS:
        for digits in (15, 16, 50, 64, 65, 101, 300, 1000):
            cfg = PrecisionConfig(digits)
            with localcontext() as ctx:
                ctx.rounding = rounding
                assert repr(octagon_limits(cfg)) == repr(limits_by_six_products(cfg)), (
                    digits, rounding)


class TestBinetHalves:
    """F(n)/2 and F(n+2)/2 by Binet's formula past the crossover, against
    the exact halves of one doubling."""

    def test_equal_the_exact_halves_across_the_crossover(self):
        for prec in (25, 26, 60, 110, 210):
            start = geometry._BINET_FACTOR * prec
            cases = [*range(start - 120, start + 121), 10**4, 31_415]
            pairs = {n: _pair(n) for n in cases}
            for rounding in ROUNDINGS:
                with localcontext() as ctx:
                    ctx.prec, ctx.rounding = prec, rounding
                    for n, (f_n, f_n1) in pairs.items():
                        got = _binet_halves(n)
                        assert got is not None, (prec, rounding, n)
                        assert repr(got) == repr(_halves(f_n, f_n + f_n1)), (prec, rounding, n)

    def test_equal_the_exact_halves_at_the_largest_index(self):
        f_n, f_n1 = _pair(999_998)
        for rounding in ROUNDINGS:
            with localcontext() as ctx:
                ctx.prec, ctx.rounding = 60, rounding
                assert repr(_binet_halves(999_998)) == repr(_halves(f_n, f_n + f_n1)), rounding

    def test_octagon_equals_the_chain_across_the_crossover(self):
        for rounding in ROUNDINGS:
            with localcontext() as ctx:
                ctx.rounding = rounding
                for digits in (15, 50):
                    cfg = PrecisionConfig(digits)
                    start = max(geometry._BINET_FACTOR * (digits + 10), 2047)
                    for n in range(start - 2, start + 3):
                        assert repr(octagon(n, cfg)) == repr(octagon_by_chain(n, cfg)), (
                            n, digits, rounding)

    @pytest.mark.parametrize("n", [3001, 10**5])
    def test_a_failed_rounding_test_falls_back_to_the_doubling(self, monkeypatch, n):
        # every test fails: Binet's halves are refused, and _sqrt hands each
        # root to Decimal.sqrt, which gives the same digits
        cfg = PrecisionConfig()
        expected = repr(_octagon_report(n, cfg))
        tested = []

        def refuse(y, prec):
            tested.append(prec)
            return False

        monkeypatch.setattr(geometry, "_rounds_safely", refuse)
        calls = _spy(monkeypatch)
        assert repr(_octagon_report(n, cfg)) == expected
        assert calls["_pair"] == [n] and 60 in tested

    def test_rounding_test_reads_ten_digits_past_the_precision(self):
        # digits 6..15 of a 20-digit value, against prec = 5
        with localcontext() as ctx:
            ctx.prec = 20
            for tail, safe in (("0000000000", False), ("0000000100", False),
                               ("0000000101", True), ("4999999899", True),
                               ("4999999900", False), ("5000000000", False),
                               ("5000000100", False), ("5000000101", True),
                               ("9999999899", True), ("9999999900", False)):
                assert _rounds_safely(Decimal(f"1.2345{tail}99999"), 5) is safe, tail
                assert _rounds_safely(Decimal(f"-1.2345{tail}99999E+40"), 5) is safe, tail


class TestAgainstTheDecimalSqrtChain:
    """Newton roots, rounded operands and the four-root limits give the
    digits of the plain chain, below and above the Newton threshold."""

    def test_limits_at_every_digit_count(self):
        for digits in range(15, 401):
            cfg = PrecisionConfig(digits)
            assert repr(octagon_limits(cfg)) == repr(limits_by_chain(cfg)), digits
        # the limits and the chain both round in a copy of the caller's context
        for rounding in ROUNDINGS:
            for digits in (15, 50, 64, 101, 300):
                cfg = PrecisionConfig(digits)
                with localcontext() as ctx:
                    ctx.rounding = rounding
                    assert repr(octagon_limits(cfg)) == repr(limits_by_chain(cfg)), (
                        digits, rounding)

    def test_octagon_on_a_sample(self):
        for digits in (15, 16, 20, 50, 101, 200):
            cfg = PrecisionConfig(digits)
            for n in [*range(400), 1000, 2047, 5000, 20_000]:
                assert repr(octagon(n, cfg)) == repr(octagon_by_chain(n, cfg)), (n, digits)
        # the octagon and the chain both round in a copy of the caller's context
        for rounding in ROUNDINGS:
            for digits in (15, 50, 101, 300):
                cfg = PrecisionConfig(digits)
                with localcontext() as ctx:
                    ctx.rounding = rounding
                    for n in (0, 1, 4, 5, 40, 119, 1000, 5000, 100_000):
                        assert repr(octagon(n, cfg)) == repr(octagon_by_chain(n, cfg)), (
                            n, digits, rounding)

    @pytest.mark.parametrize("digits, n", [
        *(pytest.param(digits, 100_000, id=str(digits)) for digits in (15, 50, 1000)),
        *(pytest.param(50, n, marks=pytest.mark.gate) for n in GATE_INDICES_AT_50),
    ])
    def test_operands_longer_than_the_precision(self, digits, n):
        # F(10**5) has 20,899 digits: rounded on entry, not converted whole
        cfg = PrecisionConfig(digits)
        assert repr(octagon(n, cfg)) == repr(octagon_by_chain(n, cfg))


def deviations_by_wide_pass(n: int, cfg: PrecisionConfig) -> tuple[Decimal, Decimal, Decimal]:
    """Reference for octagon_deviations: ratio - limit, with both sides
    carried at the digits the subtraction cancels.

    The published formulas at wide = digits + 10 + 2*len(F(n)), ten digits
    past it, with F(n) and F(n+2) converted whole and the limits in their
    five-root form: each ratio and limit rounded to wide digits, the
    subtraction exact at wide digits, then one rounding to cfg.digits.
    _sqrt is Decimal.sqrt's value (test_geometry_properties) at a fraction
    of its cost past a few thousand digits.
    """
    wide = cfg.digits + 10 + 2 * _digit_count(fib(n))
    f_n, f_n2 = Decimal(fib(n)), Decimal(fib(n + 2))
    with localcontext() as ctx:
        ctx.prec = wide + 10
        half_inner, half_outer = f_n / 2, f_n2 / 2
        p_y = _sqrt(half_outer * half_outer - half_inner * half_inner)
        sqrt2 = _sqrt(Decimal(2))
        root_2m = _sqrt(2 - sqrt2)
        d, e = sqrt2 * (p_y - half_inner), half_outer * root_2m
        golden2 = ((1 + _sqrt(Decimal(5))) / 2) ** 2
        golden4 = golden2 * golden2
        ratios = (d / f_n, d / e, e / f_n)
        limits = (
            sqrt2 / 2 * (_sqrt(golden4 - 1) - 1),
            sqrt2 / root_2m * (_sqrt(1 - 1 / golden4) - 1 / golden2),
            root_2m / 2 * golden2,
        )
        ratios = [_round_to(ratio, wide) for ratio in ratios]
        limits = [_round_to(limit, wide) for limit in limits]
        ctx.prec = wide  # exact: both sides have wide digits near 1
        deviations = [ratio - limit for ratio, limit in zip(ratios, limits)]
    return tuple(_round_to(deviation, cfg.digits) for deviation in deviations)


class TestOctagonReport:
    """octagon_deviations, the part of the `octagon` command's report that
    is not a rounded octagon or octagon_limits value."""

    def test_deviations_equal_the_wide_pass(self):
        for digits in (15, 16, 20, 50, 101, 200):
            cfg = PrecisionConfig(digits)
            for n in [*range(400), 1000, 2047, 5000, 20_000]:
                assert repr(octagon_deviations(n, cfg)) == repr(deviations_by_wide_pass(n, cfg)), (
                    n, digits)
        # both round in a copy of the caller's context
        for rounding in ROUNDINGS:
            for digits in (15, 50, 300):
                cfg = PrecisionConfig(digits)
                with localcontext() as ctx:
                    ctx.rounding = rounding
                    for n in (0, 1, 4, 5, 40, 119, 1000, 5000):
                        assert repr(octagon_deviations(n, cfg)) == repr(
                            deviations_by_wide_pass(n, cfg)), (n, digits, rounding)

    @pytest.mark.parametrize(
        "n", [100_000, *(pytest.param(n, marks=pytest.mark.gate) for n in GATE_INDICES_AT_50)])
    def test_deviations_equal_the_wide_pass_at_fifty_digits(self, n):
        # at 10**5 the wide pass carries 41,858 digits, the conjugate 60
        cfg = PrecisionConfig(50)
        assert repr(octagon_deviations(n, cfg)) == repr(deviations_by_wide_pass(n, cfg))

    def test_report_equals_the_three_public_calls(self):
        for digits in (15, 50, 200):
            cfg = PrecisionConfig(digits)
            for n in range(400):
                public = (octagon(n, cfg), octagon_limits(cfg), octagon_deviations(n, cfg))
                assert repr(_octagon_report(n, cfg)) == repr(public), (n, digits)

    def test_exact_root_at_the_5_12_13_triangle(self):
        # F(4) = 5 and F(6) = 13: p_y = sqrt(6.5**2 - 2.5**2) = 6 exactly,
        # with Decimal.sqrt's exponent (equal as numbers to 6.00, not in repr)
        geo = octagon(4, PrecisionConfig())
        assert repr(geo.p) == repr((Decimal("2.5"), Decimal("6.0")))
        assert repr(geo.q) == repr((Decimal("6.0"), Decimal("2.5")))

    @pytest.mark.parametrize("n", [0, 40, 1000, 100_000])
    def test_the_command_makes_one_doubling_and_five_roots(self, monkeypatch, capsys, n):
        # below Binet's crossover, 50 * 2010 = 100,500 at 2,000 digits:
        # sqrt(2), sqrt(2 - sqrt(2)), p_y, sqrt(5) and sqrt(3*phi + 1)
        assert n <= geometry._BINET_FACTOR * 2010
        calls = _spy(monkeypatch)
        assert main(["octagon", "--n", str(n), "--digits", "2000"]) == 0
        assert calls["_pair"] == [n]
        assert len(calls["_sqrt"]) == 5
        assert calls["fib"] == calls["_digit_count"] == []

    @pytest.mark.parametrize("n, digits", [(0, 15), (40, 50), (1000, 200), (3000, 60)])
    def test_takes_five_square_roots(self, monkeypatch, n, digits):
        calls = _spy(monkeypatch)
        octagon_deviations(n, PrecisionConfig(digits))
        assert len(calls["_sqrt"]) == 5

    @pytest.mark.parametrize("n", [0, 40, 100_000])
    def test_one_doubling_and_no_digit_count(self, monkeypatch, n):
        # below Binet's crossover at 2,000 digits, as above
        calls = _spy(monkeypatch)
        octagon_deviations(n, PrecisionConfig(2000))
        assert calls["_pair"] == [n]
        assert calls["fib"] == calls["_digit_count"] == []

    @pytest.mark.parametrize(
        "n, digits", [(3001, 50), (100_000, 50), (999_998, 50), (10**4, 15), (5001, 90)]
    )
    def test_past_the_crossover_no_doubling_and_a_sixth_root(self, monkeypatch, capsys, n, digits):
        # F(n)/2 and F(n+2)/2 by Binet's formula, whose sqrt(5) at the working
        # precision is the one root more: the command takes six, the octagon
        # four, and none of them doubles
        assert n > max(geometry._BINET_FACTOR * (digits + 10), 2048)
        calls = _spy(monkeypatch)
        assert main(["octagon", "--n", str(n), "--digits", str(digits)]) == 0
        assert (len(calls["_sqrt"]), calls["_pair"]) == (6, [])
        calls = _spy(monkeypatch)
        octagon(n, PrecisionConfig(digits))
        assert (len(calls["_sqrt"]), calls["_pair"]) == (4, [])
        assert calls["fib"] == calls["_digit_count"] == []

    @pytest.mark.parametrize("n, digits", [(0, 15), (40, 50), (1000, 200), (3000, 60), (2047, 15)])
    def test_octagon_and_its_limits_take_only_their_roots(self, monkeypatch, n, digits):
        # octagon: sqrt(2), sqrt(2 - sqrt(2)) and p_y, from one doubling
        # (2047: past 50 * (15 + 10), but not past the 2,048 values of fib's table);
        # octagon_limits: the roots of two, sqrt(5) and sqrt(3*phi + 1), no
        # doubling
        calls = _spy(monkeypatch)
        octagon(n, PrecisionConfig(digits))
        assert (len(calls["_sqrt"]), calls["_pair"]) == (3, [n])
        calls = _spy(monkeypatch)
        octagon_limits(PrecisionConfig(digits))
        assert (len(calls["_sqrt"]), calls["_pair"]) == (4, [])
        assert calls["fib"] == calls["_digit_count"] == []

    def test_refuses_an_index_past_the_range_at_once(self):
        for call in (octagon, octagon_deviations):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match="index 1000001 exceeds"):
                call(999_999, PrecisionConfig())
            assert time.perf_counter() - t0 < 0.5


def _spy(monkeypatch) -> dict[str, list]:
    """The arguments of every call the geometry module makes to _sqrt,
    _pair, fib and _digit_count, by name."""
    calls = {}

    def spy(name):
        real = getattr(geometry, name)
        calls[name] = []

        def call(x):
            calls[name].append(x)
            return real(x)

        return call

    for name in ("_sqrt", "_pair", "fib", "_digit_count"):
        monkeypatch.setattr(geometry, name, spy(name))
    return calls


def test_limits_at_ten_thousand_digits_take_under_a_tenth_of_a_second():
    # 236 ms with Decimal.sqrt and five roots, on a 2-vCPU VM
    cfg = PrecisionConfig(10**4)
    elapsed = min(_timed(octagon_limits, cfg) for _ in range(3))
    assert elapsed < 0.1, elapsed


def _timed(call, *args) -> float:
    t0 = time.perf_counter()
    call(*args)
    return time.perf_counter() - t0
