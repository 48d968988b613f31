"""Search table of Hippasus pairs and its aligned / CSV / JSON renderings."""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields

from .descent import successors
from .fibonacci import _as_int

_CSV_FIELDS = ("beta", "alpha", "sum", "product", "sign", "alpha_squared")


@dataclass(frozen=True)
class TableRow:
    """One Hippasus pair: beta * (alpha + beta) lands next to alpha**2."""

    beta: int
    alpha: int
    sum: int
    sign: int
    alpha_squared: int

    def __post_init__(self) -> None:
        for field in fields(self):
            object.__setattr__(self, field.name, _as_int(getattr(self, field.name), field.name))
        if self.sum != self.beta + self.alpha:
            raise ValueError(f"sum must be beta + alpha, got {self}")
        if self.alpha_squared != self.alpha * self.alpha:
            raise ValueError(f"alpha_squared must be alpha**2, got {self}")
        if self.beta * self.sum != self.alpha_squared + self.sign:
            raise ValueError(f"beta*(alpha+beta) != alpha**2 + sign in {self}")

    @property
    def product(self) -> int:
        return self.beta * self.sum

    @property
    def annotation(self) -> str:
        return f"{self.alpha}^2{'+' if self.sign > 0 else '-'}1"


def build_rows(max_beta: int) -> list[TableRow]:
    """All rows with beta <= max_beta, ascending in beta (beta = 1 twice)."""
    max_beta = _as_int(max_beta, "max_beta", 1)
    rows = []
    for beta in range(1, max_beta + 1):
        for alpha in successors(beta).successors:
            residual = beta * (beta + alpha) - alpha * alpha
            rows.append(TableRow(beta, alpha, beta + alpha, residual, alpha * alpha))
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
    for r in rows:
        writer.writerow([r.beta, r.alpha, r.sum, r.product, r.sign, r.alpha_squared])
    return buf.getvalue()


def render_json(rows: list[TableRow]) -> str:
    payload = [
        {
            "beta": r.beta,
            "alpha": r.alpha,
            "sum": r.sum,
            "product": r.product,
            "sign": r.sign,
            "alpha_squared": r.alpha_squared,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {"aligned": render_aligned, "csv": render_csv, "json": render_json}
FORMATS = tuple(_RENDERERS)


def render(rows: list[TableRow], fmt: str) -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return _RENDERERS[fmt](rows)
