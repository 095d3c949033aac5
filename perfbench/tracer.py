"""In-memory spans around calls into medcorr's layers, recorded from outside.

Each wrapped function is patched at every binding its callers look up:
``pipelines`` imports ``run``, ``query`` and ``rouge_l_f`` by name and
``optimize`` reads ``rouge_l_f`` from its own globals, so wrapping only the
defining module would miss those calls. Methods are wrapped on the class.
``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable

# The ladder ``.tail`` picks from: the highest percentile with at least ten
# samples beyond it.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


class Span:
    __slots__ = ("name", "layer", "parent", "record", "start", "end", "error", "note")

    def __init__(self, name: str, layer: str, parent: "Span | None", record: str | None):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.record = record
        self.start = self.end = 0.0
        self.error: str | None = None
        self.note: object = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        # Parent for spans opened on pool threads, whose own stack is empty.
        self.pool_parent: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, record: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.pool_parent
        if record is None and parent is not None:
            record = parent.record
        span = Span(name, layer, parent, record)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(
        self,
        owners: list[object],
        attr: str,
        name: str,
        record_of: Callable | None = None,
        note_of: Callable | None = None,
        pool_root: bool = False,
    ) -> None:
        """Replace ``attr`` on every owner with one traced wrapper of the original."""
        original = getattr(owners[0], attr)
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer, record_of(args) if record_of else None)
            saved = tracer.pool_parent
            if pool_root:
                tracer.pool_parent = span
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                if pool_root:
                    tracer.pool_parent = saved
                tracer.close(span)
            if note_of is not None:
                span.note = note_of(args, result)
            return result

        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the same function as {owners[0]!r}.{attr}")
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- analysis ------------------------------------------------------------

    def self_times(self, roots: tuple[Span, ...]) -> dict[str, float]:
        """Per-layer sum, over spans inside ``roots``, of span duration minus
        the part of it that its child spans cover."""
        inside = [s for s in self.spans if any(self.under(s, root) for root in roots)]
        children: dict[int, list[Span]] = defaultdict(list)
        for span in inside:
            children[id(span.parent)].append(span)
        totals: dict[str, float] = defaultdict(float)
        for span in inside:
            covered = union_length(
                (max(c.start, span.start), min(c.end, span.end)) for c in children.get(id(span), ())
            )
            totals[span.layer] += (span.end - span.start) - covered
        return totals

    def named(self, name: str, root: Span | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (root is None or self.under(s, root))]

    def durations(self, name: str, root: Span | None = None) -> list[float]:
        return [s.end - s.start for s in self.named(name, root)]

    @staticmethod
    def ancestors(span: Span):
        parent = span.parent
        while parent is not None:
            yield parent
            parent = parent.parent

    def under(self, span: Span, ancestor: Span | str) -> bool:
        """Whether ``ancestor`` (a span, or any span of that name) encloses ``span``."""
        return any(p is ancestor or p.name == ancestor for p in self.ancestors(span))

    def dump(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "start_s": round(s.start - origin, 7),
                    "end_s": round(s.end - origin, 7),
                    "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                    "record": s.record,
                    "error": s.error,
                }) + "\n")


def union_length(intervals) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    covered = 0.0
    cursor = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def distribution(values: list[float]) -> dict[str, float]:
    """Median, tail value, which percentile the tail is, and the sample count."""
    if not values:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "samples": 0}
    ordered = sorted(values)
    n = len(ordered)

    def pct(p: float) -> float:
        return ordered[min(n - 1, int(p / 100.0 * n))]

    tail_pct = next((p for p in _TAIL_LADDER if n * (1 - p / 100.0) >= 10), 50.0)
    return {"p50": pct(50.0), "tail": pct(tail_pct), "tail_pct": tail_pct, "samples": n}
