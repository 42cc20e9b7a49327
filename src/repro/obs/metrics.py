"""Labeled metrics registry built on the :mod:`repro.sim.stats` accumulators.

A :class:`MetricsRegistry` holds named, labeled series of four kinds:

``counter``
    Monotonically increasing integer (events dispatched, flits moved).
``gauge``
    A last-write-wins float (bus utilization, speedup).
``series``
    Streaming moments over samples — a labeled
    :class:`~repro.sim.stats.RunningStats` (packet latency, queue depth).
``histogram``
    Fixed-bin distribution — a labeled :class:`~repro.sim.stats.Histogram`.
``timeweighted``
    Time-weighted average of a piecewise-constant level — a labeled
    :class:`~repro.sim.stats.TimeWeightedStat` (flits in flight).

Series are identified by ``(name, labels)``; the first access creates
them (Prometheus-style).  ``to_dict``/``registry_from_dict`` round-trip
the full accumulator state through JSON, which is what
``python -m repro obs`` writes as ``metrics.json``.
"""

from __future__ import annotations

import json
import math
from typing import Any

from ..sim.stats import Histogram, RunningStats, TimeWeightedStat
from ..util.errors import ConfigError

__all__ = ["MetricsRegistry", "registry_from_dict", "registry_from_json"]

SCHEMA_VERSION = 1

_Key = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, Any]) -> _Key:
    if not name:
        raise ConfigError("metric name must be non-empty")
    if not labels:
        return name, ()
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _num(value: float) -> float | None:
    """JSON-strict encoding: map non-finite floats to None."""
    return value if math.isfinite(value) else None


def _denum(value: float | None, default: float) -> float:
    return default if value is None else float(value)


class _Counter:
    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, by: int = 1) -> None:
        if by < 0:
            raise ConfigError(f"counters only go up; got inc({by})")
        self.value += by

    def _state(self) -> dict[str, Any]:
        return {"value": self.value}

    def _restore(self, state: dict[str, Any]) -> None:
        self.value = int(state["value"])


class _Gauge:
    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def _state(self) -> dict[str, Any]:
        return {"value": _num(self.value)}

    def _restore(self, state: dict[str, Any]) -> None:
        self.value = _denum(state["value"], math.nan)


class MetricsRegistry:
    """Named, labeled metric series with JSON round-trip export."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[_Key, Any] = {}

    # -- accessors (get-or-create) -----------------------------------------

    def _get(self, name: str, labels: dict[str, Any], factory: Any) -> Any:
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> _Counter:
        """The counter ``name``/``labels`` (created at 0 on first use)."""
        metric = self._get(name, labels, _Counter)
        if not isinstance(metric, _Counter):
            raise ConfigError(f"metric {name!r} already exists with kind {metric.kind!r}")
        return metric

    def gauge(self, name: str, **labels: Any) -> _Gauge:
        """The gauge ``name``/``labels``."""
        metric = self._get(name, labels, _Gauge)
        if not isinstance(metric, _Gauge):
            raise ConfigError(f"metric {name!r} already exists with kind {metric.kind!r}")
        return metric

    def series(self, name: str, **labels: Any) -> RunningStats:
        """The :class:`RunningStats` series ``name``/``labels``."""
        metric = self._get(name, labels, RunningStats)
        if not isinstance(metric, RunningStats):
            raise ConfigError(f"metric {name!r} already exists with another kind")
        return metric

    def histogram(
        self, name: str, lo: float = 0.0, hi: float = 1.0, bins: int = 20, **labels: Any
    ) -> Histogram:
        """The :class:`Histogram` ``name``/``labels`` (shape fixed at creation)."""
        metric = self._get(name, labels, lambda: Histogram(lo, hi, bins))
        if not isinstance(metric, Histogram):
            raise ConfigError(f"metric {name!r} already exists with another kind")
        return metric

    def timeweighted(self, name: str, **labels: Any) -> TimeWeightedStat:
        """The :class:`TimeWeightedStat` ``name``/``labels``."""
        metric = self._get(name, labels, TimeWeightedStat)
        if not isinstance(metric, TimeWeightedStat):
            raise ConfigError(f"metric {name!r} already exists with another kind")
        return metric

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        """Distinct metric names, sorted."""
        return sorted({name for name, _labels in self._metrics})

    def get(self, name: str, **labels: Any) -> Any | None:
        """The metric object, or None if it was never touched."""
        return self._metrics.get(_key(name, labels))

    # -- serialization -------------------------------------------------------

    @staticmethod
    def _metric_state(metric: Any) -> tuple[str, dict[str, Any]]:
        if isinstance(metric, (_Counter, _Gauge)):
            return metric.kind, metric._state()
        if isinstance(metric, RunningStats):
            return "series", {
                "count": metric.count,
                "mean": _num(metric._mean),
                "m2": _num(metric._m2),
                "min": _num(metric.minimum),
                "max": _num(metric.maximum),
            }
        if isinstance(metric, Histogram):
            return "histogram", {
                "lo": metric.lo,
                "hi": metric.hi,
                "bins": metric.bins,
                "counts": list(metric.counts),
                "underflow": metric.underflow,
                "overflow": metric.overflow,
                "total": metric.total,
            }
        if isinstance(metric, TimeWeightedStat):
            return "timeweighted", {
                "start": metric._start,
                "last_time": metric._last_time,
                "level": metric._level,
                "area": metric._area,
            }
        raise ConfigError(f"unserializable metric type {type(metric).__name__}")

    def to_dict(self) -> dict[str, Any]:
        """Full registry state as a JSON-ready dict (stable ordering)."""
        out = []
        for (name, labels), metric in sorted(self._metrics.items()):
            kind, state = self._metric_state(metric)
            out.append(
                {
                    "name": name,
                    "labels": dict(labels),
                    "kind": kind,
                    "state": state,
                }
            )
        return {"schema": SCHEMA_VERSION, "metrics": out}

    def to_json(self, indent: int | None = 2) -> str:
        """Strict-JSON serialization of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, allow_nan=False)


def registry_from_dict(payload: dict[str, Any]) -> MetricsRegistry:
    """Rebuild a registry whose :meth:`~MetricsRegistry.to_dict` equals ``payload``."""
    if payload.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported metrics schema {payload.get('schema')!r}; "
            f"this build reads schema {SCHEMA_VERSION}"
        )
    reg = MetricsRegistry()
    for entry in payload["metrics"]:
        name = entry["name"]
        labels = entry["labels"]
        kind = entry["kind"]
        state = entry["state"]
        if kind == "counter":
            reg.counter(name, **labels)._restore(state)
        elif kind == "gauge":
            reg.gauge(name, **labels)._restore(state)
        elif kind == "series":
            s = reg.series(name, **labels)
            s.count = int(state["count"])
            s._mean = _denum(state["mean"], 0.0)
            s._m2 = _denum(state["m2"], 0.0)
            s.minimum = _denum(state["min"], math.inf)
            s.maximum = _denum(state["max"], -math.inf)
        elif kind == "histogram":
            h = reg.histogram(
                name, lo=state["lo"], hi=state["hi"], bins=state["bins"], **labels
            )
            h.counts = [int(c) for c in state["counts"]]
            h.underflow = int(state["underflow"])
            h.overflow = int(state["overflow"])
            h.total = int(state["total"])
        elif kind == "timeweighted":
            tw = reg.timeweighted(name, **labels)
            tw._start = float(state["start"])
            tw._last_time = float(state["last_time"])
            tw._level = float(state["level"])
            tw._area = float(state["area"])
        else:
            raise ConfigError(f"unknown metric kind {kind!r} in payload")
    return reg


def registry_from_json(text: str) -> MetricsRegistry:
    """Parse :meth:`MetricsRegistry.to_json` output back into a registry."""
    return registry_from_dict(json.loads(text))
