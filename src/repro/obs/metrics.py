"""Process-wide metrics registry: counters, gauges, histograms, memo tables.

Every perf PR so far had to hand-instrument the hot path to find its wins;
this registry makes the counters permanent and machine-readable.  Three
kinds of metric sources coexist:

* **owned metrics** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  objects created through :func:`counter` / :func:`gauge` /
  :func:`histogram` and incremented at the instrumentation site (the
  relaxation loop's attempts and II bumps, the oracle pass/fail/crash
  tallies, the sweep session's full/delta split);
* **memo tables** — every process-wide :class:`LRUTable` (the analysis
  cache's four tables, the budgeting and span templates, the library
  characterisation memo) registers itself with :func:`register_table`
  under a section/table name, so :func:`cache_stats` lists them without
  naming any and :func:`clear_caches` empties them all;
* **probes** — callables registered with
  :meth:`MetricsRegistry.register_probe` that *pull* an external counter
  source at snapshot time.

:func:`snapshot` renders everything as one JSON-safe dict;
:func:`cache_stats` is the unified cache-introspection call.

Determinism: metrics are observation-only.  Nothing reads a metric to make
a scheduling/budgeting/binding decision, so results with a hot registry are
identical to results with a cold one.

Thread-safety: metric creation, table lookups and snapshots are
lock-protected; the counter increment fast paths are plain ``+=`` on the
owning object — atomic enough under the GIL for monitoring counters, and
free of locks on the hot path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LRUTable",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "register_table",
    "snapshot",
    "reset",
    "cache_stats",
    "clear_caches",
]


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Streaming summary statistics (count/total/min/max; no buckets).

    Designed for wall-time observations: the snapshot exposes count, total,
    mean and the extremes, which is what the per-oracle timing report and
    the phase profiles need, without per-observation storage.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": (self.total / self.count) if self.count else 0.0,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None


class LRUTable:
    """A thread-safe bounded memo table with hit/miss/eviction counters.

    ``summarize``, when given, maps the cached values to extra
    :meth:`info` fields (the span templates report their rule-memo size).
    """

    def __init__(self, name: str, maxsize: int,
                 summarize: Optional[Callable[[Iterable[object]],
                                              Dict[str, int]]] = None):
        self.name = name
        self.maxsize = maxsize
        self._summarize = summarize
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, key, build: Callable[[], object]):
        with self._lock:
            if key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self.misses += 1
        # Build outside the lock: concurrent misses may duplicate work but
        # every build is pure, so whichever result lands last is identical.
        value = build()
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
        return value

    def clear(self) -> None:
        """Drop every entry; the counters are kept."""
        with self._lock:
            self._data.clear()

    def info(self) -> Dict[str, int]:
        with self._lock:
            info = {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }
            if self._summarize is not None:
                info.update(self._summarize(list(self._data.values())))
            return info


class MetricsRegistry:
    """A named collection of metrics, memo tables and snapshot-time probes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._tables: Dict[Tuple[Optional[str], str], LRUTable] = {}
        self._probes: Dict[str, Callable[[], Dict[str, object]]] = {}

    # -- creation (idempotent; returns the shared instance) ----------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name)
            return metric

    def register_probe(self, name: str,
                       probe: Callable[[], Dict[str, object]]) -> None:
        """Adopt an external counter source; called once per probe name.

        The probe runs at snapshot time only, so it adds nothing to the
        owning subsystem's hot path.  A probe that raises reports its error
        string instead of breaking the snapshot.
        """
        with self._lock:
            self._probes[name] = probe

    def register_table(self, table: LRUTable,
                       section: Optional[str] = None) -> LRUTable:
        """Adopt a memo table, listed as ``section.<table name>`` (or as
        ``<table name>`` without a section); returns the table."""
        with self._lock:
            self._tables[(section, table.name)] = table
        return table

    def tables(self) -> Dict[Tuple[Optional[str], str], LRUTable]:
        """Every registered table, keyed by ``(section, table name)``."""
        with self._lock:
            return dict(self._tables)

    def table_stats(self) -> Dict[str, Dict[str, object]]:
        """:meth:`LRUTable.info` of every table, nested by section."""
        stats: Dict[str, Dict[str, object]] = {}
        for (section, name), table in sorted(
                self.tables().items(), key=lambda item: (item[0][0] or "",
                                                         item[0][1])):
            if section is None:
                stats[name] = table.info()
            else:
                stats.setdefault(section, {})[name] = table.info()
        return stats

    def clear_tables(self) -> None:
        """Empty every registered table; the hit/miss counters are kept."""
        for table in self.tables().values():
            table.clear()

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe dict of every metric, probe and table, sorted by name.

        Memo tables report under ``probes`` next to the probe values.
        """
        with self._lock:
            counters = {name: metric.value
                        for name, metric in sorted(self._counters.items())}
            gauges = {name: metric.value
                      for name, metric in sorted(self._gauges.items())}
            histograms = {name: metric.summary()
                          for name, metric in sorted(self._histograms.items())}
            probes = dict(self._probes)
        probe_values: Dict[str, object] = dict(self.table_stats())
        for name, probe in probes.items():
            try:
                probe_values[name] = probe()
            except Exception as exc:  # noqa: BLE001 — snapshots must not fail
                probe_values[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "probes": dict(sorted(probe_values.items())),
        }

    def reset(self) -> None:
        """Zero every owned metric (probes reflect their live sources)."""
        with self._lock:
            for table in (self._counters, self._gauges, self._histograms):
                for metric in table.values():
                    metric.reset()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry (one per process; pool workers get their
    own copy, exactly like the analysis cache)."""
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return _REGISTRY.histogram(name)


def register_table(table: LRUTable, section: Optional[str] = None) -> LRUTable:
    return _REGISTRY.register_table(table, section)


def snapshot() -> Dict[str, object]:
    return _REGISTRY.snapshot()


def reset() -> None:
    _REGISTRY.reset()


def clear_caches() -> None:
    """Empty every registered memo table, keeping its hit/miss counters.

    The next analysis after this call runs cold, which is what a cold
    measurement in an already warm process needs.
    """
    _REGISTRY.clear_tables()


#: Owned counters :func:`cache_stats` reports, as section -> (counter-name
#: prefix, fields): the budgeting kernel's delta-slack evaluations, the
#: per-graph delta-slack seed caches, the JSONL stores and the serve layer's
#: memo tier.
_COUNTER_SECTIONS = {
    "analysis_cache": ("analysis_cache.", ("delta_evaluators", "delta_updates")),
    "delta_seeds": ("delta_seeds.", ("hits", "misses", "inserts", "patched")),
    "jsonl_stores": ("jsonl.", ("skipped_lines", "appended_records")),
    "serve": ("serve.cache.", ("hits", "misses", "puts", "compactions")),
}


def cache_stats() -> Dict[str, Dict[str, object]]:
    """One call covering every cache layer in the process.

    * every registered :class:`LRUTable`, nested by section: the
      ``analysis_cache`` tables (artifacts, timed structures, spans,
      sequential slack, budgeting and span templates) and the
      ``characterization`` memo;
    * ``analysis_cache.delta_evaluators``/``delta_updates`` — delta-slack
      evaluations run by the budgeting kernel and the incremental updates
      they absorbed;
    * ``delta_seeds`` — hit/miss/insert tallies of the per-graph seed cache
      in :mod:`repro.core.delta_slack`, plus ``patched``: evaluators started
      from the nearest cached seed instead of the full kernels;
    * ``jsonl_stores`` — lines the append-only JSONL loaders
      (:mod:`repro.core.jsonl`: result stores, corpora, trend histories)
      tolerated and dropped, plus records written through the locked
      append path.  A non-zero ``skipped_lines`` means some store on disk
      is corrupt or truncated — the per-store ``skipped_lines`` attributes
      and the campaign merge reports say which;
    * ``serve`` — the serve layer's shared memo tier
      (:class:`repro.serve.cache.MemoCache`): process-wide cache
      hit/miss/put tallies and the number of stale-line compactions its
      policy triggered.

    A table appears once its owning module is imported.  This is the single
    entry point behind the profile reports' cache-efficiency summary.
    """
    stats = _REGISTRY.table_stats()
    for section, (prefix, fields) in _COUNTER_SECTIONS.items():
        target = stats.setdefault(section, {})
        for field in fields:
            target[field] = counter(prefix + field).value
    return stats
