"""Experiment table: accumulate rows, print, and compare to claims.

Bench files build one :class:`ExperimentTable` per experiment ID; the
table prints in a stable aligned format and exposes simple assertions
for the claim checks the benches make.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.reporting import render_markdown_table


@dataclass
class ExperimentTable:
    """Rows of one experiment, keyed by column name."""

    experiment_id: str
    title: str
    rows: list = field(default_factory=list)

    def add(self, **row) -> None:
        self.rows.append(row)

    @property
    def columns(self) -> list:
        cols: list = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def render(self) -> str:
        header = f"== {self.experiment_id}: {self.title} =="
        return header + "\n" + render_markdown_table(self.rows, self.columns)

    def emit(self) -> None:
        """Print the table (pytest -s / benchmark logs pick this up)."""
        print("\n" + self.render())

    def column(self, name: str) -> list:
        return [row.get(name) for row in self.rows]
