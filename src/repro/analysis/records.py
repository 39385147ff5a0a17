"""Result records: the row format shared by experiments, tables, and CSV output.

An experiment produces a list of :class:`ResultRow` objects — ordered
mappings from column name to value — which the table and CSV
helpers render without knowing anything about the experiment itself.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = ["ResultRow", "ResultTable"]


@dataclass
class ResultRow:
    """One row of experiment output."""

    values: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Dictionary-style get."""
        return self.values.get(key, default)

    def columns(self) -> list[str]:
        """Column names in insertion order."""
        return list(self.values)


@dataclass
class ResultTable:
    """A titled collection of result rows with homogeneous columns."""

    title: str
    rows: list[ResultRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> ResultRow:
        """Append a row built from keyword arguments."""
        row = ResultRow(values=dict(values))
        self.rows.append(row)
        return row

    def add_note(self, note: str) -> None:
        """Attach a free-form note (printed under the table)."""
        self.notes.append(note)

    def columns(self) -> list[str]:
        """Union of all row columns, in first-seen order."""
        seen: dict[str, None] = {}
        for row in self.rows:
            for column in row.columns():
                seen.setdefault(column, None)
        return list(seen)

    def column(self, name: str) -> list[Any]:
        """Extract one column as a list (missing cells become None)."""
        return [row.get(name) for row in self.rows]

    def to_csv(self) -> str:
        """Render the table as CSV text."""
        columns = self.columns()
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({column: row.get(column, "") for column in columns})
        return buffer.getvalue()

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)
