"""Table of Hippasus pairs and its aligned / CSV / JSON renderings."""
from __future__ import annotations

from collections import namedtuple
from functools import partial
from operator import attrgetter

from .descent import HippasusPair
from .fibonacci import _as_int, _checked_make, _shown

_CSV_FIELDS = ("beta", "alpha", "sum", "product", "sign", "alpha_squared")
_values = attrgetter(*_CSV_FIELDS)  # a row's CSV / JSON fields, in that order


class TableRow(namedtuple("TableRow", "beta alpha sum sign alpha_squared")):
    """One Hippasus pair: beta * (alpha + beta) lands next to alpha**2."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, beta: int, alpha: int, sum: int, sign: int, alpha_squared: int) -> "TableRow":
        values = (beta, alpha, sum, sign, alpha_squared)
        self = super().__new__(cls, *map(_as_int, values, cls._fields))
        if self.sum != self.beta + self.alpha:
            raise ValueError(f"sum must be beta + alpha, got {_row_text(self)}")
        if self.alpha_squared != self.alpha * self.alpha:
            raise ValueError(f"alpha_squared must be alpha**2, got {_row_text(self)}")
        HippasusPair(self.beta, self.alpha, self.sign)
        return self

    @property
    def product(self) -> int:
        # beta * sum, which is alpha**2 + sign for every checked or certified row
        return self.alpha_squared + self.sign

    @property
    def annotation(self) -> str:
        return f"{self.alpha}^2{'+' if self.sign > 0 else '-'}1"


def _row_text(row: TableRow) -> str:
    """repr(row), each value as ``_shown`` gives it: a check's message names a
    row past the int->str limit without raising on the way."""
    return f"TableRow({', '.join(f'{k}={_shown(v)}' for k, v in zip(row._fields, row))})"


# TableRow without its checks, for the rows of one certified walk
_unchecked_row = partial(tuple.__new__, TableRow)


def build_rows(max_beta: int) -> list[TableRow]:
    """All rows with beta <= max_beta, ascending in beta (beta = 1 twice).

    The rows are the orbit of (1, 1, +1) under ``extend``, walked by bare
    addition: O(log max_beta) rows and no search.  One certificate covers
    them all: the top row's residual, beta * sum - alpha_squared, must be its
    sign (else RuntimeError), and by the paper's descent lemma each step
    down, to the row before, negates the residual.  The walk relies on the
    paper's theorem that this orbit holds every Hippasus pair; acceptance
    criteria 3 and 4, ``verify equivalence`` and the beta-scan oracle in
    tests/test_table.py check it.
    """
    max_beta = _as_int(max_beta, "max_beta", 1)
    rows, beta, alpha, sign = [], 1, 1, 1
    while beta <= max_beta:
        rows.append(_unchecked_row((beta, alpha, beta + alpha, sign, alpha * alpha)))
        beta, alpha, sign = alpha, beta + alpha, -sign
    top = rows[-1]
    if top.beta * top.sum - top.alpha_squared != top.sign:
        raise RuntimeError(f"the table's top row {top} fails its certificate")
    return rows


def render_aligned(rows: list[TableRow]) -> str:
    lines = [("beta", "alpha", "sum", "product", "alpha_squared")]
    lines += [
        (str(r.beta), str(r.alpha), str(r.sum), r.annotation, str(r.alpha_squared))
        for r in rows
    ]
    widths = [max(map(len, column)) for column in zip(*lines)]
    # the empty last item ends the last line, with no copy of the whole text
    return "\n".join([*("  ".join(map(str.rjust, line, widths)) for line in lines), ""])


def render_csv(rows: list[TableRow]) -> str:
    # every field is an int, so no cell needs quoting
    lines = [",".join(_CSV_FIELDS)]
    lines += [",".join(map(str, _values(r))) for r in rows]
    return "\n".join([*lines, ""])


# one object of json.dumps(rows, indent=2), written directly: every value
# is an int, and the pure-Python encoder that indent selects took most of a
# small render's time
_JSON_OBJECT = "  {{\n" + ",\n".join(f'    "{field}": {{}}' for field in _CSV_FIELDS) + "\n  }}"


def render_json(rows: list[TableRow]) -> str:
    if not rows:
        return "[]\n"
    return "\n".join(["[", ",\n".join([_JSON_OBJECT.format(*_values(r)) for r in rows]), "]", ""])


_RENDERERS = {"aligned": render_aligned, "csv": render_csv, "json": render_json}
FORMATS = tuple(_RENDERERS)


def render(rows: list[TableRow], fmt: str) -> str:
    """The rows as text in ``fmt``, one of FORMATS; every line ends in a newline.

    Each value is written in full by int -> str, which the interpreter limits
    to 4,300 digits by default (``sys.int_info.default_max_str_digits``).
    Past about beta = 10**2150, where alpha_squared passes that limit, this
    and each ``render_*`` raise ValueError, and ``main(["table", ...])``
    called in-process returns 2.  Only the console entry point, ``entry()``,
    lifts the limit, for its own process; the library leaves it alone, since
    it is process-wide.  A caller lifts it with ``sys.set_int_max_str_digits(0)``.
    """
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return _RENDERERS[fmt](rows)
