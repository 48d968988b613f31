"""Table of Hippasus pairs and its aligned / CSV / JSON renderings."""
from __future__ import annotations

import csv
import io
import json
from collections import namedtuple

from .descent import HippasusPair, extend
from .fibonacci import _as_int, _checked_make

_CSV_FIELDS = ("beta", "alpha", "sum", "product", "sign", "alpha_squared")


class TableRow(namedtuple("TableRow", "beta alpha sum sign alpha_squared")):
    """One Hippasus pair: beta * (alpha + beta) lands next to alpha**2."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, beta: int, alpha: int, sum: int, sign: int, alpha_squared: int) -> "TableRow":
        values = (beta, alpha, sum, sign, alpha_squared)
        self = super().__new__(cls, *map(_as_int, values, cls._fields))
        if self.sum != self.beta + self.alpha:
            raise ValueError(f"sum must be beta + alpha, got {self}")
        if self.alpha_squared != self.alpha * self.alpha:
            raise ValueError(f"alpha_squared must be alpha**2, got {self}")
        HippasusPair(self.beta, self.alpha, self.sign)
        return self

    @property
    def product(self) -> int:
        return self.beta * self.sum

    @property
    def annotation(self) -> str:
        return f"{self.alpha}^2{'+' if self.sign > 0 else '-'}1"


def build_rows(max_beta: int) -> list[TableRow]:
    """All rows with beta <= max_beta, ascending in beta (beta = 1 twice).

    The rows are the orbit of (1, 1, +1) under ``extend``: O(log max_beta)
    rows and no search.  The walk relies on the paper's theorem that this
    orbit holds every Hippasus pair; acceptance criteria 3 and 4, ``verify
    equivalence`` and the beta-scan oracle in tests/test_table.py check it.
    """
    max_beta = _as_int(max_beta, "max_beta", 1)
    rows, pair = [], HippasusPair(1, 1, 1)
    while pair.beta <= max_beta:
        beta, alpha = pair.beta, pair.alpha
        rows.append(TableRow(beta, alpha, beta + alpha, pair.sign, alpha * alpha))
        pair = extend(pair)
    return rows


def render_aligned(rows: list[TableRow]) -> str:
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


def render_csv(rows: list[TableRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    writer.writerows([getattr(r, field) for field in _CSV_FIELDS] for r in rows)
    return buf.getvalue()


def render_json(rows: list[TableRow]) -> str:
    payload = [{field: getattr(r, field) for field in _CSV_FIELDS} for r in rows]
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {"aligned": render_aligned, "csv": render_csv, "json": render_json}
FORMATS = tuple(_RENDERERS)


def render(rows: list[TableRow], fmt: str) -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return _RENDERERS[fmt](rows)
