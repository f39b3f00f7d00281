"""In-memory spans around the calls the benchmark makes into the library.

A span is named ``<layer>.<function>``, where the layer is the library
module (``cosets.build_table``) or ``bench`` for the harness's own
per-round, per-pass and per-query spans.  Spans are kept in memory and
written out once, when the run ends.
"""

import json
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class NullTracer:
    """Records nothing; the untraced runs that give end-to-end metrics use it."""

    _scope = nullcontext()

    def span(self, name: str):
        return self._scope

    def call(self, name: str, fn, *args):
        return fn(*args)


class Tracer:
    """Records one span per ``span`` scope and per ``call``."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []

    def _begin(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        return sid, parent

    def _end(self, sid: int, parent: int | None, name: str, start: float) -> None:
        end = perf_counter()
        self._open.pop()
        self.spans[sid] = Span(sid, name, start, end, parent)

    def span(self, name: str):
        return _Scope(self, name)

    def call(self, name: str, fn, *args):
        sid, parent = self._begin()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._end(sid, parent, name, start)

    def write(self, path, workload: str, run_id: str, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds since ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = asdict(s)
                row["start"] -= origin
                row["end"] -= origin
                row.update(workload=workload, run=run_id)
                fh.write(json.dumps(row) + "\n")


class _Scope:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent = self.tracer._begin()
        self.start = perf_counter()

    def __exit__(self, *exc):
        self.tracer._end(self.sid, self.parent, self.name, self.start)
        return False


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def round_tables(spans: list[Span], root_name: str) -> list[dict[str, float]]:
    """Per root span named ``root_name``: time by span name and by layer.

    For each root, the table holds ``<span name>`` -> summed duration,
    ``<layer>.total`` -> time inside the layer's outermost spans, and
    ``<layer>.self`` -> that time minus the part its child spans cover.
    """
    children_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children_time[s.parent] += s.end - s.start
    roots: list[int] = []
    tables: dict[int, dict[str, float]] = {}
    root_of: list[int] = [0] * len(spans)
    for s in spans:  # parents precede children, so root_of[parent] is set
        root_of[s.id] = s.id if s.parent is None else root_of[s.parent]
        if s.parent is None and s.name == root_name:
            roots.append(s.id)
            tables[s.id] = {}
        table = tables.get(root_of[s.id])
        if table is None:
            continue
        dur = s.end - s.start
        layer = layer_of(s.name)
        table[s.name] = table.get(s.name, 0.0) + dur
        table[f"{layer}.self"] = table.get(f"{layer}.self", 0.0) + dur - children_time[s.id]
        if s.parent is None or layer_of(spans[s.parent].name) != layer:
            table[f"{layer}.total"] = table.get(f"{layer}.total", 0.0) + dur
    return [tables[r] for r in roots]
