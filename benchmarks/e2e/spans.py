"""The benchmark's own span recorder.

Layers are timed *from outside*: the harness wraps a span around each call
it makes into a layer's public function.  Spans stay in memory and are
written out once, when the traced run ends.  Nothing here touches
``repro.obs`` — new names there would need ``obs/NAMES`` entries (RA13),
and spans inside the program are a later issue.

A span is ``(id, name, op, parent, count, start, end)``: ``op`` is the
operation (batch / request / join) it belongs to, so the spans of one
operation share an identifier; ``parent`` is the id of the span that caused
it; ``count`` is how many units of work (queries, ints, calls) the timed
call covered, so per-unit costs divide by it.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from typing import Dict, List, Optional


class _Span:
    __slots__ = ("recorder", "id", "name", "op", "parent", "count", "start")

    def __init__(self, recorder, name, op, parent, count) -> None:
        self.recorder = recorder
        self.id = next(recorder.ids)
        self.name = name
        self.op = op
        self.parent = parent
        self.count = count

    def __enter__(self) -> "_Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        # list.append is atomic under the GIL: the two client threads of
        # serve_http record into one list without a lock
        self.recorder.spans.append(
            (
                self.id,
                self.name,
                self.op,
                self.parent,
                self.count,
                self.start,
                end,
            )
        )


class _NullSpan:
    id = None
    count = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Recorder:
    """In-memory span sink; a disabled recorder hands out no-op spans."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[tuple] = []
        self.ids = itertools.count(1)

    def span(self, name: str, op, parent: Optional[int] = None, count: int = 1):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, op, parent, count)

    # ------------------------------------------------------------------ #
    # derivations
    # ------------------------------------------------------------------ #
    def per_op(self, name: str) -> Dict[object, float]:
        """Seconds spent in ``name`` spans, totalled per operation."""
        totals: Dict[object, float] = {}
        for _, span_name, op, _, _, start, end in self.spans:
            if span_name == name:
                totals[op] = totals.get(op, 0.0) + (end - start)
        return totals

    def total(self, name: str) -> float:
        return sum(self.per_op(name).values())

    def count(self, name: str) -> int:
        return sum(span[4] for span in self.spans if span[1] == name)

    def median(self, name: str) -> float:
        """Median over operations of the seconds spent in ``name``."""
        totals = self.per_op(name)
        return statistics.median(totals.values()) if totals else 0.0

    def per_unit(self, name: str) -> float:
        """Seconds per unit of work: total time over total ``count``."""
        units = self.count(name)
        return self.total(name) / units if units else 0.0

    def durations(self, name: str) -> List[float]:
        """Seconds of every ``name`` span, one entry per span."""
        return [span[6] - span[5] for span in self.spans if span[1] == name]

    def write(self, path, header: dict) -> None:
        """One JSON document per line: the run's summary, then every span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "summary", **header}) + "\n")
            for span_id, name, op, parent, count, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "id": span_id,
                            "name": name,
                            "op": op,
                            "parent": parent,
                            "count": count,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


#: the recorder of every untraced run
SILENT = Recorder(enabled=False)
