"""Minimal tabular reporting for experiment output.

A :class:`Table` accumulates *raw* cells and renders them on demand:
aligned ASCII for terminals (:meth:`Table.render`), CSV for spreadsheets
(:meth:`Table.to_csv`).  Both share one formatting pipeline; the raw
cells (:attr:`Table.rows`) are what an artifact's JSON carries.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

__all__ = ["Table"]


def _plain(cell: object) -> object:
    """Coerce a cell to a JSON-serialisable scalar.

    numpy scalars expose ``.item()``; everything non-scalar degrades to
    ``str`` so a table can always serialise.
    """
    if isinstance(cell, (bool, int, float, str)) or cell is None:
        return cell
    item = getattr(cell, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(cell)


class Table:
    """Accumulate rows, render aligned columns.

    >>> t = Table(["name", "value"])
    >>> t.add_row(["alpha", 1.5])
    >>> print(t.render())
    name  | value
    ------+------
    alpha | 1.5
    """

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        self.title = title
        self._headers = [str(h) for h in headers]
        self._rows: list[list[object]] = []

    @property
    def headers(self) -> list[str]:
        return list(self._headers)

    @property
    def rows(self) -> list[list[object]]:
        """The raw (unformatted) cells, one list per row."""
        return [list(row) for row in self._rows]

    def add_row(self, cells: Sequence[object]) -> None:
        row = [_plain(c) for c in cells]
        if len(row) != len(self._headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self._headers)} columns"
            )
        self._rows.append(row)

    @staticmethod
    def _format(cell: object) -> str:
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) < 1e-3 or abs(cell) >= 1e5:
                return f"{cell:.3g}"
            return f"{cell:.4f}".rstrip("0").rstrip(".")
        return str(cell)

    def render(self) -> str:
        formatted = [[self._format(c) for c in row] for row in self._rows]
        widths = [len(h) for h in self._headers]
        for row in formatted:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt(self._headers))
        lines.append("-+-".join("-" * w for w in widths))
        lines.extend(fmt(r) for r in formatted)
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Serialise as CSV, cells formatted exactly like :meth:`render`.

        >>> t = Table(["name", "value"])
        >>> t.add_row(["alpha", 0.00001234])
        >>> print(t.to_csv(), end="")
        name,value
        alpha,1.23e-05
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self._headers)
        for row in self._rows:
            writer.writerow([self._format(c) for c in row])
        return buffer.getvalue()

    def __str__(self) -> str:
        return self.render()
