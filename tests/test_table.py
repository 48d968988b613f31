import csv
import io
import json
from pathlib import Path

import pytest

from hippasus.descent import successors
from hippasus.table import TableRow, build_rows, render, render_aligned, render_csv, render_json

GOLDEN = Path(__file__).parent / "golden" / "table_max_beta_1000.txt"

# The sixteen rows the search must find for beta <= 1000, frozen as
# (beta, alpha, alpha+beta, sign); beta*(alpha+beta) == alpha**2 + sign holds
# for every row and the signs alternate starting at +1.
EXPECTED_ROWS = [
    (1, 1, 2, 1),
    (1, 2, 3, -1),
    (2, 3, 5, 1),
    (3, 5, 8, -1),
    (5, 8, 13, 1),
    (8, 13, 21, -1),
    (13, 21, 34, 1),
    (21, 34, 55, -1),
    (34, 55, 89, 1),
    (55, 89, 144, -1),
    (89, 144, 233, 1),
    (144, 233, 377, -1),
    (233, 377, 610, 1),
    (377, 610, 987, -1),
    (610, 987, 1597, 1),
    (987, 1597, 2584, -1),
]


def rows_by_scan(max_beta: int) -> list[tuple[int, int, int, int, int]]:
    """Reference: every (beta, alpha, sum, sign, alpha_squared) found by trying
    each beta in 1..max_beta, independent of the extension law."""
    rows = []
    for beta in range(1, max_beta + 1):
        for alpha in successors(beta).successors:
            residual = beta * (beta + alpha) - alpha * alpha
            rows.append((beta, alpha, beta + alpha, residual, alpha * alpha))
    return rows


@pytest.fixture(scope="module")
def scanned():
    return rows_by_scan(832041)  # F(30) = 832040: the bound on both sides of a member


@pytest.mark.parametrize("max_beta", [1, 2, 3, 1000, 10**5, 832040, 832041])
def test_build_rows_matches_scan(max_beta, scanned):
    walked = [(r.beta, r.alpha, r.sum, r.sign, r.alpha_squared) for r in build_rows(max_beta)]
    assert walked == [row for row in scanned if row[0] <= max_beta]


def test_expected_rows_are_self_consistent():
    for beta, alpha, total, sign in EXPECTED_ROWS:
        assert total == beta + alpha
        assert beta * total == alpha * alpha + sign


def test_build_rows_matches_expected():
    rows = build_rows(1000)
    assert [(r.beta, r.alpha, r.sum, r.sign) for r in rows] == EXPECTED_ROWS


def test_beta_one_contributes_two_rows():
    rows = build_rows(1)
    assert [(r.beta, r.alpha) for r in rows] == [(1, 1), (1, 2)]


def test_annotation_rendering():
    rows = build_rows(1000)
    assert rows[0].annotation == "1^2+1"
    assert rows[-1].annotation == "1597^2-1"
    assert rows[-1].alpha_squared == 1597**2


def test_row_validation():
    with pytest.raises(ValueError):
        TableRow(2, 3, 6, 1, 9)       # wrong sum
    with pytest.raises(ValueError):
        TableRow(2, 3, 5, -1, 9)      # wrong sign
    with pytest.raises(ValueError):
        TableRow(2, 3, 5, 1, 10)      # wrong square
    with pytest.raises(ValueError):
        TableRow(2, 4, 6, -4, 16)     # sign not +1 or -1
    with pytest.raises(ValueError):
        TableRow(0, 1, 1, -1, 1)      # beta below 1


def test_aligned_matches_golden_file():
    assert render_aligned(build_rows(1000)) == GOLDEN.read_text()


def test_csv_and_json_information_equivalent():
    rows = build_rows(1000)
    parsed_csv = [
        {k: int(v) for k, v in rec.items()}
        for rec in csv.DictReader(io.StringIO(render_csv(rows)))
    ]
    parsed_json = json.loads(render_json(rows))
    assert parsed_csv == parsed_json
    assert parsed_json[4] == {
        "beta": 5, "alpha": 8, "sum": 13, "product": 65, "sign": 1, "alpha_squared": 64,
    }


def test_render_dispatch():
    rows = build_rows(2)
    assert render(rows, "aligned") == render_aligned(rows)
    assert render(rows, "csv") == render_csv(rows)
    assert render(rows, "json") == render_json(rows)
    with pytest.raises(ValueError) as refused:
        render(rows, "yaml")
    assert str(refused.value) == "unknown format 'yaml'; expected one of ('aligned', 'csv', 'json')"


def test_requires_positive_bound():
    with pytest.raises(ValueError):
        build_rows(0)


class TestIntegerBoundary:
    def test_accepts_numpy_integers(self):
        np = pytest.importorskip("numpy")
        row = TableRow(*(np.int64(v) for v in (2, 3, 5, 1, 9)))
        assert {type(v) for v in row} == {int}
        assert render_csv([row]).splitlines()[1] == "2,3,5,10,1,9"

    @pytest.mark.parametrize("bad", [2.0, True, 1.5])
    def test_rejects_non_integers(self, bad):
        valid = (2, 3, 5, 1, 9)
        for k in range(len(valid)):
            with pytest.raises(ValueError):
                TableRow(*valid[:k], bad, *valid[k + 1:])
        with pytest.raises(ValueError):
            build_rows(bad)
