"""Hypothesis properties of the golden-ratio convergence table against a
closed form kept out of the package, so the suite does not check it against
itself."""
from decimal import Decimal, localcontext

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hippasus.fibonacci import fib  # noqa: E402
from hippasus.geometry import PrecisionConfig, convergence_table  # noqa: E402


@st.composite
def table_requests(draw):
    n_max = draw(st.integers(min_value=1, max_value=1000))
    least = max(15, len(str(fib(n_max))) + 11)
    return n_max, draw(st.integers(min_value=least, max_value=least + 200))


@settings(deadline=None, max_examples=40)
@given(table_requests())
def test_error_column_matches_closed_form(request):
    # phi - F(n+1)/F(n) = (-1)**n / (phi**(n+1) * F(n)), from Binet's formula;
    # no cancellation, so a few digits past the published ones suffice
    n_max, digits = request
    rows = convergence_table(n_max, PrecisionConfig(digits))
    with localcontext() as ctx:
        ctx.prec = digits + 20
        golden = (1 + Decimal(5).sqrt()) / 2
        power = golden  # phi**(n+1)
        for row in rows:
            expected = (-1) ** row.n / (power * fib(row.n))
            ulp = Decimal(10) ** (row.error.adjusted() - digits + 1)
            assert abs(row.error - expected) <= ulp, row.n
            power *= golden
