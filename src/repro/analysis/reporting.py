"""Uniform result container for the figure drivers.

Every experiment driver returns a :class:`FigureTable`: the figure/table id, the column
headers, the data rows, and free-form notes (e.g. which knobs were scaled down).  The
benchmark harnesses print and persist these tables; EXPERIMENTS.md quotes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.utils.tables import format_table


@dataclass
class FigureTable:
    """A reproduced table or figure, in row form."""

    figure_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence]
    notes: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)
    #: Columns measured in host wall-clock time.  :meth:`format` prints them;
    #: :meth:`save` leaves them out, so a persisted table is the same on every run.
    host_timed: Sequence[str] = ()

    def format(self, float_fmt: str = ".3f", *, host_timed: bool = True) -> str:
        """Render the table (plus notes) as ASCII text, optionally without the
        host-timed columns."""
        keep = [
            i for i, h in enumerate(self.headers) if host_timed or h not in self.host_timed
        ]
        body = format_table(
            [self.headers[i] for i in keep],
            [[row[i] for i in keep] for row in self.rows],
            float_fmt=float_fmt,
            title=f"{self.figure_id}: {self.title}",
        )
        if self.notes:
            body += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return body

    def save(self, path: Union[str, Path], float_fmt: str = ".3f") -> Path:
        """Write the formatted table, minus its host-timed columns, to ``path``
        (parent directories are created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.format(float_fmt=float_fmt, host_timed=False) + "\n")
        return path

    def column(self, name: str) -> List:
        """Extract one column by header name."""
        try:
            idx = list(self.headers).index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}; headers are {list(self.headers)}") from None
        return [row[idx] for row in self.rows]

    def row_map(self, key_column: str, value_column: str) -> Dict:
        """Build a ``{key_column: value_column}`` mapping from the rows."""
        keys = self.column(key_column)
        values = self.column(value_column)
        return dict(zip(keys, values))
