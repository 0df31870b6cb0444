"""Shared latency summary statistics for serving reports.

One definition of "percentiles in milliseconds from raw seconds", used
by every latency consumer — the traffic simulator's per-request
breakdown (:func:`repro.serving.traffic.latency_percentiles`), the
:class:`~repro.serving.service.ServiceStats` wall-clock summary, and the
async front's queueing-latency report — instead of three parallel copies
of the same ``np.percentile`` arithmetic.  Percentile semantics are
numpy's default linear interpolation; the hand-computed fixture test in
``tests/test_serving_metrics.py`` pins them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RECENT_SAMPLES", "percentile_summary", "push_recent", "summarize_latencies"]

#: The tail percentiles serving reports quote by default.
DEFAULT_PERCENTILES = (50, 95, 99)

#: Per-request samples a long-running service keeps for its percentiles
#: (and injection ids its bus keeps); the totals beside them stay exact.
RECENT_SAMPLES = 4096


def _key(template: str, percentile: float) -> str:
    return template.format(p=f"{percentile:g}")


def percentile_summary(
    values_s,
    percentiles=DEFAULT_PERCENTILES,
    scale: float = 1e3,
    key_format: str = "p{p}_ms",
) -> dict[str, float]:
    """Percentiles of ``values_s`` (seconds) scaled to ms, as a flat dict.

    Empty input yields zeros for every requested percentile (reports stay
    shape-stable whether or not any request completed).  ``key_format``
    lets callers keep their historical key names (e.g. ``p{p}_wall_ms``);
    ``scale`` converts units (1e3 = seconds to milliseconds).
    """
    values = np.asarray(values_s, dtype=np.float64)
    if values.size == 0:
        return {_key(key_format, p): 0.0 for p in percentiles}
    points = np.percentile(values, percentiles)
    return {
        _key(key_format, p): float(point * scale)
        for p, point in zip(percentiles, points)
    }


def push_recent(window: list, cursor: int, value) -> int:
    """Keep ``value`` in a ring of the latest :data:`RECENT_SAMPLES` values.

    Appends until the ring is full, then overwrites the oldest entry at
    ``cursor``; returns the cursor for the next call.  The ring holds the
    most recent samples in rotated order, which percentiles ignore.
    """
    if len(window) < RECENT_SAMPLES:
        window.append(value)
        return cursor
    window[cursor] = value
    return (cursor + 1) % RECENT_SAMPLES


def summarize_latencies(values_s) -> dict[str, float]:
    """Extended summary: p50/p95/p99 plus count, mean, and max (all ms)."""
    values = np.asarray(values_s, dtype=np.float64)
    out = percentile_summary(values)
    out["n"] = float(values.size)
    out["mean_ms"] = float(values.mean() * 1e3) if values.size else 0.0
    out["max_ms"] = float(values.max() * 1e3) if values.size else 0.0
    return out
