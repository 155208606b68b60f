"""``repro top``: dashboard frames over a serving process's ``/metrics``.

:func:`render_top` turns the samples :func:`~repro.obs.export.parse_prometheus`
reads off an exposition into one text frame — runtime gauges, the
coalescing line, and per-route RED rows whose p50/p99 come from the
cumulative log2 latency buckets :func:`~repro.obs.export.to_prometheus`
wrote.  :func:`top_frames` produces the frames for a target (one for a saved
exposition file, one per poll for a live URL), so the CLI only prints.
"""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .export import parse_prometheus

__all__ = ["render_top", "top_frames"]

_ROUTE_REQUESTS = re.compile(
    r"^repro_serve_route_(?P<route>.+)_requests_total$"
)
_BUCKET_SAMPLE = re.compile(r'^(?P<family>.+)_bucket\{le="(?P<le>[^"]+)"\}$')


def _histogram_quantile(
    samples: Dict[str, float], family: str, quantile: float
) -> Optional[float]:
    """A quantile's bucket upper bound from cumulative ``le`` buckets.

    The serve histograms are log2-bucketed, so the answer is the upper
    bound of the bucket the quantile falls in (the same estimate
    Prometheus's ``histogram_quantile`` would snap to); ``None`` when the
    family is absent or empty.
    """
    buckets: List[Tuple[float, float]] = []
    for key, value in samples.items():
        match = _BUCKET_SAMPLE.match(key)
        if match and match.group("family") == family:
            buckets.append((float(match.group("le")), value))
    if not buckets:
        return None
    buckets.sort()
    total = buckets[-1][1]
    if total <= 0:
        return None
    target = quantile * total
    for upper, cumulative in buckets:
        if cumulative >= target:
            return upper
    return buckets[-1][0]


def _route_rows(
    samples: Dict[str, float],
    previous: Optional[Dict[str, float]],
    dt: Optional[float],
) -> List[tuple]:
    """Per-route RED rows: (route, total, rate, 5xx, p50, p99)."""
    rows = []
    for key in sorted(samples):
        match = _ROUTE_REQUESTS.match(key)
        if match is None:
            continue
        route = match.group("route")
        total = samples[key]
        rate = None
        if previous is not None and dt:
            rate = max(0.0, (total - previous.get(key, 0.0)) / dt)
        errors = sum(
            value
            for name, value in samples.items()
            if name.startswith(f"repro_serve_route_{route}_status_5")
        )
        family = f"repro_serve_route_{route}_latency_ms"
        rows.append(
            (
                route,
                total,
                rate,
                errors,
                _histogram_quantile(samples, family, 0.50),
                _histogram_quantile(samples, family, 0.99),
            )
        )
    return rows


def _format_ms(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == float("inf"):
        return ">2^63"
    return f"{value:.0f}"


def render_top(
    samples: Dict[str, float],
    previous: Optional[Dict[str, float]],
    dt: Optional[float],
    target: str,
) -> str:
    """One dashboard frame from parsed ``/metrics`` samples.

    ``previous`` and ``dt`` (the last poll's samples and the seconds since)
    feed the rate column; a first or one-off frame passes ``None``.
    """
    lines = [f"repro top — {target}"]
    uptime = samples.get("repro_serve_uptime_seconds")
    rss = samples.get("repro_process_rss_bytes")
    summary = []
    if uptime is not None:
        summary.append(f"up {uptime:.0f}s")
    if rss:
        summary.append(f"rss {rss / (1 << 20):.1f} MiB")
    cache_entries = samples.get("repro_engine_cache_entries")
    if cache_entries is not None:
        cache_bytes = samples.get("repro_engine_cache_bytes", 0.0)
        summary.append(
            f"cache {cache_entries:.0f} lists / {cache_bytes / 1024:.0f} KiB"
        )
    if summary:
        lines.append("  " + " · ".join(summary))
    requests = samples.get("repro_serve_requests_total", 0.0)
    batches = samples.get("repro_serve_batches_total", 0.0)
    ratio = requests / batches if batches else 0.0
    lines.append(
        f"  coalescing: {requests:.0f} requests in {batches:.0f} batches "
        f"(ratio {ratio:.2f}) · queue "
        f"{samples.get('repro_serve_queue_depth', 0.0):.0f} · in-flight "
        f"{samples.get('repro_serve_batch_inflight', 0.0):.0f} · shed "
        f"{samples.get('repro_serve_shed_total', 0.0):.0f}"
    )
    lines.append("")
    lines.append(
        f"  {'route':<14} {'req':>10} {'rate/s':>8} {'5xx':>6} "
        f"{'p50ms':>7} {'p99ms':>7}"
    )
    rows = _route_rows(samples, previous, dt)
    if not rows:
        lines.append("  (no per-route series yet — send a request)")
    for route, total, rate, errors, p50, p99 in rows:
        rate_text = f"{rate:.1f}" if rate is not None else "-"
        lines.append(
            f"  {route:<14} {total:>10.0f} {rate_text:>8} {errors:>6.0f} "
            f"{_format_ms(p50):>7} {_format_ms(p99):>7}"
        )
    return "\n".join(lines) + "\n"


def top_frames(
    target: str, interval: float = 2.0, count: int = 0
) -> Iterator[str]:
    """The frames ``repro top TARGET`` prints.

    A file target (a saved exposition) yields one frame.  An ``http(s)``
    base URL is polled at ``/metrics`` every ``interval`` seconds, each
    frame rating its counters against the previous scrape, until ``count``
    frames were produced (``0``: forever).  A failed scrape raises the
    ``OSError`` ``urllib`` reports.
    """
    if not target.startswith(("http://", "https://")):
        samples = parse_prometheus(Path(target).read_text())
        yield render_top(samples, None, None, target)
        return

    import urllib.request

    url = target.rstrip("/") + "/metrics"
    previous: Optional[Dict[str, float]] = None
    previous_at = 0.0
    renders = 0
    while True:
        with urllib.request.urlopen(url, timeout=10) as response:
            samples = parse_prometheus(response.read().decode())
        now = time.monotonic()
        dt = now - previous_at if previous is not None else None
        yield render_top(samples, previous, dt, target)
        renders += 1
        if count and renders >= count:
            return
        previous, previous_at = samples, now
        time.sleep(interval)
