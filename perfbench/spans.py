"""In-memory spans for the traced run.

A span records (name, start, end, parent, operation id).  Spans stay in a
list until the run ends and are then written out as one gzipped JSON file.
A span's self time is its duration minus the part of it that its children
cover; children never overlap here (one caller, one operation at a time), so
that is the duration minus the children's durations.

``Tracer.patched`` wraps functions under the names where the program looks
them up, so the spans come from the program's own execution.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

FIELDS = ("name", "start", "end", "parent", "op")
NAME, START, END, PARENT, OP = range(len(FIELDS))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # one [name, start, end, parent, op] per span
        self._stack: list[int] = []
        self.op: str = ""
        self.kept: dict[str, list[tuple[str, object]]] = defaultdict(list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, keep: bool = False):
        """``fn`` inside a span ``name``; with ``keep`` each result goes to
        ``kept[name]`` as (operation id, result)."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if keep:
                self.kept[name].append((self.op, out))
            return out
        return traced

    @contextmanager
    def patched(self, targets, keep=()):
        """Replace each ``(owner, attribute, span name)`` by its wrapped
        version for the duration of the block, then restore it."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        for (owner, attr, name), (_, _, fn) in zip(targets, saved):
            setattr(owner, attr, self.wrap(name, fn, name in keep))
        try:
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Self time (s) of every span, in recording order."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def self_by_op(self) -> dict[str, dict[str, float]]:
        """{op id: {span name: summed self time (s)}}."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, t in zip(self.spans, self.self_times()):
            out[s[OP]][s[NAME]] += t
        return out

    def totals_by_op(self) -> dict[str, dict[str, float]]:
        """{op id: {span name: summed duration (s)}}, counting a span only
        when no enclosing span has the same name, so nested calls of one
        layer are not counted twice."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            parent = s[PARENT]
            while parent is not None and self.spans[parent][NAME] != s[NAME]:
                parent = self.spans[parent][PARENT]
            if parent is None:
                out[s[OP]][s[NAME]] += s[END] - s[START]
        return out

    def count_by_op(self) -> dict[str, dict[str, int]]:
        """{op id: {span name: number of spans}}."""
        out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for s in self.spans:
            out[s[OP]][s[NAME]] += 1
        return out

    def durations(self, name: str, op: str | None = None) -> list[float]:
        return [s[END] - s[START] for s in self.spans
                if s[NAME] == name and (op is None or s[OP] == op)]

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)
