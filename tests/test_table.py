import csv
import io
import json
import sys
import time
from itertools import zip_longest
from pathlib import Path

import pytest

from hippasus import table
from hippasus.descent import HippasusPair, extend, successors
from hippasus.table import (
    FORMATS, TableRow, build_rows, render, render_aligned, render_csv, render_json,
)

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


def rows_by_validated_walk(max_beta: int) -> list[TableRow]:
    """Reference: the orbit of (1, 1, +1) under ``extend``, every pair and
    every row built through its checking constructor."""
    rows, pair = [], HippasusPair(1, 1, 1)
    while pair.beta <= max_beta:
        beta, alpha = pair.beta, pair.alpha
        rows.append(TableRow(beta, alpha, beta + alpha, pair.sign, alpha * alpha))
        pair = extend(pair)
    return rows


FIELDS = ("beta", "alpha", "sum", "product", "sign", "alpha_squared")


def aligned_by_cells(rows: list[TableRow]) -> str:
    """Reference: every cell as a string, each width from the header and
    every row's cell, then a second list of the padded lines."""
    headers = ("beta", "alpha", "sum", "product", "alpha_squared")
    cells = [
        (str(r.beta), str(r.alpha), str(r.sum), r.annotation, str(r.alpha_squared))
        for r in rows
    ]
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in cells)) if cells else len(headers[c])
        for c in range(len(headers))
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def csv_by_writer(rows: list[TableRow]) -> str:
    """Reference: the standard library's csv.writer into a StringIO."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FIELDS)
    writer.writerows([getattr(r, field) for field in FIELDS] for r in rows)
    return buf.getvalue()


def json_by_getattr(rows: list[TableRow]) -> str:
    """Reference: one dict of the fields, by name, for each row."""
    payload = [{field: getattr(r, field) for field in FIELDS} for r in rows]
    return json.dumps(payload, indent=2) + "\n"


ORACLES = {"aligned": aligned_by_cells, "csv": csv_by_writer, "json": json_by_getattr}


def first_difference(got: str, expected: str) -> tuple[int, str, str] | None:
    """None if the texts are equal, else the first differing line's number
    and both lines, cut to 200 characters: pytest's own diff of two
    megabyte texts takes minutes."""
    if got == expected:
        return None
    pairs = zip_longest(got.splitlines(True), expected.splitlines(True), fillvalue="")
    return next((k, a[:200], b[:200]) for k, (a, b) in enumerate(pairs) if a != b)


@pytest.fixture(scope="module")
def scanned():
    return rows_by_scan(832041)  # F(30) = 832040: the bound on both sides of a member


@pytest.mark.parametrize("max_beta", [1, 2, 3, 1000, 10**5, 832040, 832041])
def test_build_rows_matches_scan(max_beta, scanned):
    walked = [(r.beta, r.alpha, r.sum, r.sign, r.alpha_squared) for r in build_rows(max_beta)]
    assert walked == [row for row in scanned if row[0] <= max_beta]


def test_build_rows_matches_validated_walk():
    walked = rows_by_validated_walk(10**4)
    for max_beta in range(1, 10**4 + 1):
        assert build_rows(max_beta) == [r for r in walked if r.beta <= max_beta], max_beta
    assert build_rows(10**300) == rows_by_validated_walk(10**300)


def test_one_certificate_covers_the_table(monkeypatch):
    # rows built with the wrong sign fail the top row's residual
    flipped = table._unchecked_row
    monkeypatch.setattr(table, "_unchecked_row", lambda v: flipped((*v[:3], -v[3], v[4])))
    with pytest.raises(RuntimeError, match="certificate"):
        build_rows(1000)


def test_ten_to_the_3000_in_under_six_tenths_of_a_second():
    # 14,356 rows; checking every row took about 2.8 s on a 2-vCPU VM, and
    # the best of three runs keeps a busy host's pauses out of the gate
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        rows = build_rows(10**3000)
        seconds.append(time.perf_counter() - start)
    assert len(rows) == 14_356
    assert min(seconds) < 0.6


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


def numpy_row() -> list[TableRow]:
    np = pytest.importorskip("numpy")
    return [TableRow(*(np.int64(v) for v in (2, 3, 5, 1, 9)))]


# the reversed table puts its widest cells first, so widths taken from the
# last row alone would fail it
RENDER_CASES = {
    "1": lambda: build_rows(1),
    "1000": lambda: build_rows(1000),
    "10**300": lambda: build_rows(10**300),
    "empty": list,
    "numpy": numpy_row,
    "reversed": lambda: build_rows(10**300)[::-1],
}
RENDERERS = {"aligned": render_aligned, "csv": render_csv, "json": render_json}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", RENDER_CASES)
def test_render_matches_oracle(case, fmt):
    rows = RENDER_CASES[case]()
    expected = ORACLES[fmt](rows)
    assert first_difference(RENDERERS[fmt](rows), expected) is None
    assert first_difference(render(rows, fmt), expected) is None


@pytest.fixture(scope="module")
def rows_at_the_digit_limit():
    # alpha_squared of 4,296 to 4,305 digits: both sides of the interpreter's
    # default int->str limit of 4,300 digits, reached near beta = 10**2150
    rows = [r for r in build_rows(10**2200) if 10**4295 <= r.alpha_squared < 10**4305]
    assert len(rows) > 20
    return rows


@pytest.mark.parametrize("fmt", FORMATS)
def test_render_past_the_int_str_limit(fmt, rows_at_the_digit_limit):
    # the library never lifts the limit, which is process-wide; the caller
    # does, as the console entry point does for its own process
    rows, before = rows_at_the_digit_limit, sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError, match="Exceeds the limit"):
            render(rows, fmt)
        sys.set_int_max_str_digits(0)
        assert first_difference(render(rows, fmt), ORACLES[fmt](rows)) is None
    finally:
        sys.set_int_max_str_digits(before)


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
