"""Process-wide metrics registry: counters, timers, histograms, spans.

The paper's argument is operational — CSS wins because random access, seeks
and seal decisions run *directly on compressed bits* — so the reproduction
needs per-operation accounting (blocks decoded, elements decoded, cursor
seeks, seal events, per-stage wall time) to show that the operations behave
as claimed.  Pibiri & Venturini's inverted-index survey makes the same
point: codec comparisons are meaningless without decoded-ints / bits-touched
counters next to the timings.

Design constraints:

* **Near-zero overhead when disabled.**  Instrumented hot paths guard every
  record with ``if METRICS.enabled:`` — one attribute load and a branch —
  and tight loops accumulate into local variables, flushing once at the end.
  ``span()`` returns a shared no-op context manager when disabled.
* **Process-global default.**  All library instrumentation records into the
  module-level :data:`METRICS` singleton; isolated registries can be
  instantiated for tests, but the singleton is what the CLI ``--profile``
  flag enables and snapshots.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "get_metrics",
    "enabled_metrics",
]


class Histogram:
    """Streaming distribution summary: moments plus log2 buckets.

    Holds running count/total/sum-of-squares/min/max and 64 power-of-two
    buckets, which is enough to report a mean, a variance and approximate
    quantiles without retaining the observations (seal-occupancy and
    candidate-set-size distributions can have millions of samples).

    All state is plain sums, so two histograms recorded independently (for
    instance in two pool workers) fold together exactly with :meth:`merge`
    — the operation is associative and commutative.
    """

    __slots__ = ("count", "total", "sumsq", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets = [0] * 64

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = max(0, int(value)).bit_length()  # value in [2^(b-1), 2^b)
        self._buckets[min(bucket, 63)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than two samples)."""
        if self.count < 2:
            return 0.0
        # clamp: float cancellation can push E[x^2] - E[x]^2 slightly < 0
        return max(0.0, self.sumsq / self.count - self.mean**2)

    # ------------------------------------------------------------------ #
    # cross-process state: ship, restore, fold
    # ------------------------------------------------------------------ #
    def state(self) -> Dict:
        """Lossless JSON-ready state (what a pool worker ships back).

        ``buckets`` is trimmed of trailing zeros; ``min``/``max`` are
        ``None`` while empty (JSON has no infinities).
        """
        buckets = self._buckets
        highest = 0
        for index, occupancy in enumerate(buckets):
            if occupancy:
                highest = index + 1
        return {
            "count": self.count,
            "total": self.total,
            "sumsq": self.sumsq,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": buckets[:highest],
        }

    @classmethod
    def from_state(cls, state: Dict) -> "Histogram":
        """Rebuild a histogram from a :meth:`state` dict."""
        histogram = cls()
        histogram.merge(state)
        return histogram

    def merge(self, other: Union["Histogram", Dict]) -> "Histogram":
        """Fold another histogram (or a :meth:`state` dict) into this one.

        Moments sum, min/max extremize, log2 buckets add element-wise; the
        result is exactly the histogram that observing both sample streams
        into one instance would have produced.  Returns ``self``.
        """
        if isinstance(other, Histogram):
            other = other.state()
        count = int(other["count"])
        if count == 0:
            return self
        self.count += count
        self.total += float(other["total"])
        self.sumsq += float(other.get("sumsq", 0.0))
        self.min = min(self.min, float(other["min"]))
        self.max = max(self.max, float(other["max"]))
        buckets = other["buckets"]
        if len(buckets) > len(self._buckets):
            raise ValueError(
                f"histogram state has {len(buckets)} buckets; expected "
                f"at most {len(self._buckets)}"
            )
        for index, occupancy in enumerate(buckets):
            self._buckets[index] += int(occupancy)
        return self

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the log2 buckets (upper bound)."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for bucket, occupancy in enumerate(self._buckets):
            running += occupancy
            if running >= rank:
                return float(2**bucket - 1) if bucket else 0.0
        return float(self.max)

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "std": math.sqrt(self.variance),
            "min": self.min,
            "max": self.max,
            "p50": min(self.quantile(0.5), self.max),
            "p99": min(self.quantile(0.99), self.max),
        }


class Gauge:
    """Point-in-time value: a level, not a rate.

    Counters and timers only ever grow; a gauge answers "how much right
    now" — queue depth, resident memory.  It holds a zero-argument
    callable and reads the live value at snapshot time, so nothing has to
    remember to update it on every transition.
    """

    __slots__ = ("_callback",)

    def __init__(self, callback: Callable[[], float]) -> None:
        self._callback = callback

    def resolve(self) -> float:
        """The current value, read from the source (0.0 if it fails)."""
        try:
            return float(self._callback())
        # a dead source (closed engine, vanished /proc entry) must never
        # take /metrics down
        # repro: noqa RA07 -- degraded reading, not a hidden failure
        except Exception:
            return 0.0


class _NullSpan:
    """Reusable do-nothing context manager (the disabled-span fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """Stage-scoped wall-time measurement feeding a registry timer.

    When a per-query trace is active on the registry's tracer, the same
    enter/exit pair also opens/closes a node of the trace tree — the
    instrumented code keeps calling plain ``METRICS.span(name)`` and gets
    trace spans for free.
    """

    __slots__ = ("_registry", "_name", "_start", "_tracer", "_trace_span")

    def __init__(
        self, registry: "MetricsRegistry", name: str, tracer: Optional[Any] = None
    ) -> None:
        self._registry = registry
        self._name = name
        self._tracer = tracer

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        if self._tracer is not None:
            self._trace_span = self._tracer.open_span(self._name, self._start)
        return self

    def __exit__(self, *exc_info: object) -> None:
        ended = time.perf_counter()
        if self._tracer is not None:
            self._tracer.close_span(self._trace_span, ended)
        if self._registry.enabled:
            self._registry.record_time(self._name, ended - self._start)


class MetricsRegistry:
    """Named counters, timers and histograms with an enable switch.

    Counters are plain ints, timers are ``(total_seconds, count)`` pairs,
    histograms are :class:`Histogram` instances, gauges are :class:`Gauge`
    instances — all keyed by dotted names (``"twolayer.blocks_decoded"``,
    ``"search.filter"``, ``"serve.queue.depth"``).  Recording into a
    disabled registry is a no-op, and hot paths are expected to check
    :attr:`enabled` themselves before even computing what to record.
    """

    __slots__ = (
        "enabled",
        "counters",
        "timers",
        "histograms",
        "gauges",
        "tracer",
    )

    def __init__(self, enabled: bool = False, tracer: Optional[Any] = None) -> None:
        self.enabled = enabled
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, List[float]] = {}  # name -> [seconds, count]
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, Gauge] = {}
        #: optional :class:`repro.obs.trace.Tracer`; when a trace is active
        #: on it, :meth:`span` nodes also land in the trace tree
        self.tracer = tracer

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (no-op while disabled)."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def record_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into timer ``name`` (no-op while disabled)."""
        if self.enabled:
            cell = self.timers.get(name)
            if cell is None:
                self.timers[name] = [seconds, 1]
            else:
                cell[0] += seconds
                cell[1] += 1

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (no-op while disabled)."""
        if self.enabled:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(value)

    def register_gauge(
        self, name: str, callback: Callable[[], float]
    ) -> None:
        """Bind gauge ``name`` to ``callback``, read live at snapshot time.

        Registration is wiring, not hot-path recording, so it applies even
        while the registry is disabled (like :meth:`merge`); whether the
        value is *reported* still follows :attr:`enabled` through the
        snapshot/export paths.
        """
        self.gauges[name] = Gauge(callback)

    def span(self, name: str) -> Union["_Span", "_NullSpan"]:
        """Context manager timing a pipeline stage into timer ``name``.

        Live when the registry is enabled *or* a per-query trace is active
        (so trace trees fill in even without ``--profile``); the fully-off
        fast path is still one shared no-op object.
        """
        tracer = self.tracer
        # a disabled tracer opens no trace: skip the thread-local probe
        tracing = tracer is not None and tracer.enabled and tracer.is_tracing()
        if not self.enabled and not tracing:
            return _NULL_SPAN
        return _Span(self, name, tracer if tracing else None)

    # ------------------------------------------------------------------ #
    # lifecycle / reporting
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Drop every recorded value (the enable switch is left untouched).

        Gauges survive a reset: they are wiring to a live source, not
        accumulated data, and a ``--profile`` reset must not silently
        unhook the serving layer's queue-depth/RSS gauges.
        """
        self.counters.clear()
        self.timers.clear()
        self.histograms.clear()

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self.counters.get(name, 0)

    def timer_seconds(self, name: str) -> float:
        cell = self.timers.get(name)
        return cell[0] if cell else 0.0

    def snapshot(self, full: bool = False) -> Dict[str, Dict]:
        """Plain-dict view of everything recorded so far (JSON-ready).

        With ``full=True`` histograms are rendered as their lossless
        :meth:`Histogram.state` instead of the human-oriented summary —
        the delta form a pool worker ships back for :meth:`merge` (a
        summary cannot be folded; the buckets are gone).  Keys are sorted
        either way, so snapshots of identical runs compare equal.
        """
        snapshot: Dict[str, Dict] = {
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                name: {"seconds": cell[0], "count": cell[1]}
                for name, cell in sorted(self.timers.items())
            },
            "histograms": {
                name: histogram.state() if full else histogram.summary()
                for name, histogram in sorted(self.histograms.items())
            },
        }
        if self.gauges:
            # callbacks resolve here, so a snapshot is a point-in-time
            # reading of live levels (queue depth, RSS) as well as data
            snapshot["gauges"] = {
                name: gauge.resolve()
                for name, gauge in sorted(self.gauges.items())
            }
        return snapshot

    def merge(self, other: Union["MetricsRegistry", Dict, None]) -> None:
        """Fold another registry — or a ``snapshot(full=True)`` dict — in.

        Counters sum, timers sum seconds and counts, histograms merge
        moments and log2 buckets (:meth:`Histogram.merge`).  This is the
        parent-side half of cross-process telemetry: each pool worker
        records into its own (fork-inherited) registry, ships the full
        snapshot back with its chunk result, and the parent folds every
        delta here, so ``--profile`` totals are identical to a serial run.
        Gauges are not folded: each process's callbacks are authoritative
        for its own levels.

        An explicit aggregation step, not hot-path recording: it applies
        even while ``self.enabled`` is False.  ``None`` is a no-op (the
        shape unprofiled workers ship).
        """
        if other is None:
            return
        if isinstance(other, MetricsRegistry):
            other = other.snapshot(full=True)
        for name, amount in other.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + int(amount)
        for name, timer in other.get("timers", {}).items():
            if isinstance(timer, dict):
                seconds, count = timer["seconds"], timer["count"]
            else:
                seconds, count = timer
            cell = self.timers.get(name)
            if cell is None:
                self.timers[name] = [float(seconds), int(count)]
            else:
                cell[0] += float(seconds)
                cell[1] += int(count)
        for name, state in other.get("histograms", {}).items():
            if "buckets" not in state:
                raise ValueError(
                    f"histogram {name!r} has no bucket state; merge needs "
                    "a snapshot(full=True) delta, not a summary"
                )
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.merge(state)


#: the process-global registry every instrumentation point records into.
METRICS = MetricsRegistry(enabled=False)


def get_metrics() -> MetricsRegistry:
    """The process-global registry (what ``--profile`` enables)."""
    return METRICS


class enabled_metrics:
    """Context manager: reset + enable :data:`METRICS`, restore on exit.

    The workhorse of profiled CLI runs and instrumentation tests::

        with enabled_metrics() as registry:
            searcher.search("query", 0.8)
        report = registry.snapshot()
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry if registry is not None else METRICS
        self._was_enabled = False

    def __enter__(self) -> MetricsRegistry:
        self._was_enabled = self._registry.enabled
        self._registry.reset()
        self._registry.enabled = True
        return self._registry

    def __exit__(self, *exc_info: object) -> None:
        self._registry.enabled = self._was_enabled
