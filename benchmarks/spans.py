"""In-memory spans and counters recorded around calls into the package.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span in ``Tracer.spans`` (-1 for an op's root span) and ``op``
is the index of the benchmark operation that caused it. Counters are
recorded at the same boundaries as (name, op, value). Nothing is written
until the benchmark ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.op = -1
        self.spans: list[list] = []
        self.counts: list[tuple[str, int, float]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, self.op, value))

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for name, start, end, parent, op in self.spans:
                fp.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
            for name, op, value in self.counts:
                fp.write(json.dumps({"count": name, "op": op, "value": value}) + "\n")
