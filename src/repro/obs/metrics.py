"""Process-local metrics: counters and gauges.

The registry complements the telemetry stream: where the stream
records *events* for offline inspection, the registry keeps cheap
*aggregates* that live code can read back — cache hit/miss counts,
engine self-profiling counters, high-water marks.  A single ambient
registry (:func:`get_metrics`) is always on; its operations are dict
updates, so even untraced runs can afford them on non-simulation paths
(never call these from the per-cycle simulator hot loop).

Cross-process aggregation: pool workers each accumulate into their own
child-process registry, which the parent can never see directly.  The
stream collector (:mod:`repro.obs.live`) therefore ships worker
snapshots over the event queue and folds them into the parent's ambient
registry with :meth:`MetricsRegistry.merge` — counters fold additively
(merge is associative and commutative over them), and gauges are
namespaced by the worker label (``name@label``) so two workers' values
never silently clobber each other.
"""

from __future__ import annotations

__all__ = ["MetricsRegistry", "get_metrics", "set_metrics"]


class MetricsRegistry:
    """Named counters and gauges."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    def inc(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def snapshot(self) -> dict:
        """A JSON-serializable snapshot of every aggregate."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def merge(self, snapshot: dict, label: str | None = None) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Semantics, chosen so merging worker registries into the parent
        is order-insensitive where it can be:

        * counters fold additively — associative and commutative, so any
          merge order yields the same totals;
        * gauges are last-write-wins *per name*; with ``label`` the name
          becomes ``name@label``, so distinct workers' gauges coexist
          instead of colliding (merging the same label twice still
          overwrites — one worker, one slot).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(f"{name}@{label}" if label else name, value)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()


_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The ambient process-local registry."""
    return _METRICS


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the ambient registry (tests isolate themselves with this)."""
    global _METRICS
    previous = _METRICS
    _METRICS = registry
    return previous
