"""Record base class and plain-text table rendering for reports and benches."""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Mapping, Sequence


class Record:
    """Mixin for dataclass records providing dict conversion and stable repr.

    Results that cross module boundaries (diagnosis reports, timing
    breakdowns, coverage rows) are dataclasses inheriting from this mixin so
    that benchmarks and examples can serialize them uniformly.
    """

    def to_dict(self) -> dict[str, Any]:
        """Return a shallow ``dict`` of the dataclass fields."""
        if not dataclasses.is_dataclass(self):
            raise TypeError(f"{type(self).__name__} is not a dataclass")
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def summary(self) -> str:
        """One-line ``key=value`` rendering, useful in logs and examples."""
        pairs = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items())
        return f"{type(self).__name__}({pairs})"


def format_table(
    rows: Iterable[Mapping[str, Any] | Sequence[Any]],
    headers: Sequence[str] | None = None,
) -> str:
    """Render rows as an aligned plain-text table.

    Accepts either mappings (headers default to the first row's keys) or
    sequences (headers required).  Used by the benches under
    ``benchmarks/`` to print their paper-vs-measured rows.
    """
    materialized = list(rows)
    if not materialized:
        return "(empty table)"
    first = materialized[0]
    if isinstance(first, Mapping):
        if headers is None:
            headers = list(first.keys())
        cells = [[str(row.get(h, "")) for h in headers] for row in materialized]
    else:
        if headers is None:
            raise ValueError("headers are required when rows are sequences")
        cells = [[str(v) for v in row] for row in materialized]

    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render(values: Sequence[str]) -> str:
        return "  ".join(v.ljust(widths[i]) for i, v in enumerate(values)).rstrip()

    separator = "  ".join("-" * w for w in widths)
    lines = [render(list(headers)), separator]
    lines.extend(render(row) for row in cells)
    return "\n".join(lines)
