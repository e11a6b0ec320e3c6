"""Parallel, resumable design-space exploration engine.

:func:`repro.flows.dse.run_dse` walks the design points one after another in
the calling process.  That is fine for two points and painful for the paper's
15-point Table 4 sweep (two full HLS flows per point) or for the kernel
sweeps standing in for the "over 100 customer designs" of Section VII.  The
:class:`DSEEngine` treats the sweep as a first-class subsystem:

* **parallel** — design points fan out over a ``concurrent.futures`` process
  pool (threads and serial execution are also available), with results
  reassembled in deterministic input order regardless of completion order;
* **isolated** — a failing design point records an error outcome instead of
  killing the sweep;
* **resumable** — an optional JSON checkpoint persists per-point metrics as
  they complete, so an interrupted sweep restarts where it left off;
* **observable** — a progress callback fires for every restored, completed
  and failed point.

Every worker runs the same :func:`repro.flows.dse.evaluate_point` per-point
pipeline stage as the serial harness, so a parallel sweep produces entries
identical to ``run_dse``.

The engine is workload-agnostic: any picklable ``design_factory`` works (see
:mod:`repro.workloads.factories`), and :func:`scenario_sweep` builds a
scenario-diverse suite over the public-style kernels and seeded random
layered designs at several sizes.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import tempfile
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, field, is_dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import InputError, ReproError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.flows.dse import DesignPoint, DSEEntry, DSEResult, evaluate_point
from repro.flows.sweep import SweepSession
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import active_tracer as _active_tracer
from repro.obs.trace import is_enabled as _tracing_enabled
from repro.obs.trace import tracing as _obs_tracing

CHECKPOINT_VERSION = 1

#: Observer failures isolated by :meth:`DSEEngine._emit` (see repro.obs).
_PROGRESS_ERRORS = _obs_counter("engine.progress_errors")


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification from a running sweep."""

    point: DesignPoint
    status: str  # "ok" | "error" | "restored"
    done: int
    total: int
    error: Optional[str] = None


@dataclass
class PointOutcome:
    """What happened to one design point in an engine sweep.

    ``status`` is ``"ok"`` (evaluated in this run; ``entry`` is the full
    :class:`DSEEntry`), ``"restored"`` (skipped because the checkpoint
    already had its metrics; ``entry`` is ``None``) or ``"error"`` (the
    point raised; ``error``/``traceback`` describe the failure, and
    ``input_error`` says whether it was an :class:`~repro.errors.InputError`,
    which the same point raises again).
    """

    point: DesignPoint
    status: str
    entry: Optional[DSEEntry] = None
    metrics: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    worker_seconds: float = 0.0
    input_error: bool = False

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "restored")


@dataclass
class EngineResult:
    """Outcome of a full engine sweep, in design-point input order.

    ``progress_errors`` counts exceptions raised by the caller's progress
    callback during this run; they are isolated (recorded and warned about
    once, never propagated), so a buggy observer cannot abort a sweep.
    """

    outcomes: List[PointOutcome] = field(default_factory=list)
    wall_time_seconds: float = 0.0
    executor: str = "serial"
    max_workers: int = 1
    progress_errors: int = 0
    progress_last_error: Optional[str] = None

    @property
    def entries(self) -> List[DSEEntry]:
        """Full entries of the points evaluated in this run, in input order."""
        return [o.entry for o in self.outcomes if o.entry is not None]

    @property
    def restored(self) -> List[PointOutcome]:
        return [o for o in self.outcomes if o.status == "restored"]

    @property
    def errors(self) -> List[PointOutcome]:
        return [o for o in self.outcomes if o.status == "error"]

    def metrics(self) -> List[Dict[str, object]]:
        """JSON-safe metrics of every successful point (live or restored)."""
        return [o.metrics for o in self.outcomes if o.ok and o.metrics is not None]

    def average_saving_percent(self) -> float:
        """Average area saving over all successful points, restored included.

        Unlike ``to_dse_result().average_saving_percent()`` this also counts
        checkpoint-restored points, whose metrics survive even though their
        full flow results were computed in an earlier run.
        """
        savings = [m["saving_percent"] for m in self.metrics()]
        if not savings:
            raise ReproError("average saving of an empty sweep is undefined")
        return sum(savings) / len(savings)

    def to_dse_result(self) -> DSEResult:
        """A :class:`DSEResult` over the live entries (report/table helpers)."""
        return DSEResult(entries=self.entries,
                         wall_time_seconds=self.wall_time_seconds)

    def raise_on_errors(self) -> None:
        """Raise if any point failed: :class:`~repro.errors.InputError` when
        every failure was one (rerunning the sweep fails the same way),
        plain :class:`~repro.errors.ReproError` otherwise."""
        errors = self.errors
        if errors:
            names = ", ".join(o.point.name for o in errors)
            error_cls = InputError if all(o.input_error for o in errors) \
                else ReproError
            raise error_cls(f"{len(errors)} design point(s) failed: {names}")


def _error_result(index: int, exc: Exception, start: float):
    """The result tuple of a point that raised ``exc``."""
    return (index, "error", None, f"{type(exc).__name__}: {exc}",
            traceback.format_exc(), time.perf_counter() - start, None,
            isinstance(exc, InputError))


def _evaluate_payload(payload):
    """Process-pool entry point: evaluate one design point, never raise.

    ``trace`` (the payload's last element) asks the worker to record spans
    locally — the parent's tracer does not cross the process boundary — and
    ship the serialised trees back in the result tuple's spans slot, where
    the parent :meth:`~repro.obs.trace.Tracer.adopt`\\ s them.  Thread and
    serial paths share the parent's tracer directly and ship ``None``.  The
    tuple's last element says whether the point failed with an
    :class:`~repro.errors.InputError`.
    """
    (index, factory, library, point, margin_fraction, use_cache, scheduling,
     trace) = payload
    start = time.perf_counter()
    scope = _obs_tracing() if trace else nullcontext(None)
    try:
        with scope as tracer:
            entry = evaluate_point(factory, library, point,
                                   margin_fraction=margin_fraction,
                                   use_cache=use_cache,
                                   scheduling=scheduling)
        spans = tracer.export() if tracer is not None else None
        return (index, "ok", entry, None, None,
                time.perf_counter() - start, spans, False)
    except Exception as exc:  # noqa: BLE001 — per-point isolation is the point
        return _error_result(index, exc, start)


def _evaluate_in_session(session: SweepSession, index: int, point: DesignPoint):
    """Serial-path twin of :func:`_evaluate_payload` over a shared session.

    Same result tuple, same never-raise isolation; the session keeps its
    interned designs and artifact bundles warm across the whole sweep,
    which is what the pool paths cannot share between workers.  Spans (when
    tracing is on) land on the parent's tracer directly, so the shipped
    span slot is always ``None`` here.
    """
    start = time.perf_counter()
    try:
        entry = session.evaluate(point)
        return (index, "ok", entry, None, None,
                time.perf_counter() - start, None, False)
    except Exception as exc:  # noqa: BLE001 — per-point isolation is the point
        return _error_result(index, exc, start)


class DSEEngine:
    """Parallel, cache-aware, resumable driver for design-space sweeps.

    Parameters
    ----------
    design_factory:
        Maps a :class:`DesignPoint` to a :class:`Design`.  Must be picklable
        for process-pool execution (see :mod:`repro.workloads.factories`);
        lambdas still work with ``executor="serial"`` or ``"thread"``.
    library:
        The resource library shared by all points.
    points:
        The design points to sweep.  Names must be unique — they key the
        checkpoint records.
    margin_fraction:
        Slack-binning margin forwarded to the slack-based flow.
    executor:
        ``"process"``, ``"thread"``, ``"serial"`` or ``"auto"`` (default).
        ``"auto"`` picks processes when the factory/library pickle and more
        than one worker is useful, and falls back to serial otherwise.
    max_workers:
        Worker count (default: ``os.cpu_count()``, capped to the number of
        pending points).
    checkpoint_path:
        Optional JSON checkpoint file.  Completed points are appended as
        they finish; a rerun with the same sweep skips them ("restored").
        A checkpoint written by a *different* sweep is ignored.
    precomputed:
        Optional mapping of point *name* to an already-known metrics dict
        (e.g. a :meth:`repro.explore.store.ResultStore.precomputed_for`
        lookup).  Matching points are restored without evaluation, exactly
        like checkpoint hits; explicit precomputed metrics win over the
        checkpoint.  Unlike checkpoint records they are trusted as given —
        the caller is responsible for keying them correctly (the result
        store keys by design fingerprint + clock/II/margin, which is
        sufficient).
    progress:
        Optional callable receiving a :class:`ProgressEvent` per point.
        Exceptions it raises are isolated: the engine records them (a
        ``RuntimeWarning`` on the first, a count on
        :attr:`EngineResult.progress_errors`) and the sweep continues — an
        observer can never abort or corrupt a run.
    use_analysis_cache:
        Forwarded to :func:`repro.flows.dse.evaluate_point` as ``use_cache``
        (default True).  ``False`` makes every point compute a private
        artifact bundle instead of sharing the process-wide analysis cache —
        slower, but a bit-for-bit-equal execution mode by the cache
        contract.  The differential fuzzing layer (:mod:`repro.verify`)
        sweeps scenarios in both modes and asserts metric equality.
    session:
        Optional :class:`repro.flows.sweep.SweepSession` backing the
        *serial* execution path (pool workers cannot share one).  When
        omitted, a serial run creates its own session; passing one lets a
        driver (e.g. :class:`repro.explore.adaptive.AdaptiveExplorer`) keep
        interned designs and artifact bundles warm across several engine
        runs.  Session evaluation is bit-for-bit identical to the per-point
        path, so serial and pool sweeps still agree entry for entry.
    """

    def __init__(
        self,
        design_factory: Callable[[DesignPoint], Design],
        library: Library,
        points: Sequence[DesignPoint],
        margin_fraction: float = 0.05,
        executor: str = "auto",
        max_workers: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        precomputed: Optional[Dict[str, Dict[str, object]]] = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        use_analysis_cache: bool = True,
        session: Optional[SweepSession] = None,
        scheduling: str = "block",
    ):
        if executor not in ("auto", "process", "thread", "serial"):
            raise ReproError(f"unknown executor {executor!r}")
        if scheduling not in ("block", "pipeline"):
            raise ReproError(f"unknown scheduling mode {scheduling!r} "
                             "(expected 'block' or 'pipeline')")
        names = [point.name for point in points]
        if len(set(names)) != len(names):
            raise ReproError("design point names must be unique within a sweep")
        self.design_factory = design_factory
        self.library = library
        self.points = list(points)
        self.margin_fraction = margin_fraction
        self.executor = executor
        self.max_workers = max_workers
        self.checkpoint_path = checkpoint_path
        self.precomputed = dict(precomputed) if precomputed else {}
        self.progress = progress
        self.use_analysis_cache = use_analysis_cache
        self.session = session
        self.scheduling = scheduling
        self._progress_error_count = 0
        self._progress_last_error: Optional[str] = None
        self._progress_warned = False

    # -- checkpointing -----------------------------------------------------------

    @staticmethod
    def _fingerprint(obj) -> str:
        """A stable textual identity for the factory/library.

        Dataclass factories (the picklable ones in
        :mod:`repro.workloads.factories`) fingerprint as their full repr, so a
        checkpoint from ``IDCTPointFactory(rows=1)`` is not restored into a
        ``rows=8`` sweep.  ``functools.partial`` objects fingerprint as their
        wrapped callable plus the bound arguments — previously they fell
        through to the bare class qualname (``functools.partial``), so two
        partials over different workloads silently shared a checkpoint
        signature and a resume could restore the wrong sweep's metrics.
        Plain functions and lambdas fingerprint as ``module.qualname`` (their
        repr embeds a memory address that changes every run, which would
        break resume); that is deliberately coarse — two different lambdas
        with the same qualname are indistinguishable.
        """
        if is_dataclass(obj) and not isinstance(obj, type):
            return f"{type(obj).__module__}.{repr(obj)}"
        if isinstance(obj, functools.partial):
            func = DSEEngine._fingerprint(obj.func)
            args = ", ".join(DSEEngine._fingerprint(a) if callable(a) else repr(a)
                             for a in obj.args)
            kwargs = ", ".join(
                f"{key}={DSEEngine._fingerprint(value) if callable(value) else repr(value)}"
                for key, value in sorted(obj.keywords.items())
            )
            return f"functools.partial({func}, args=[{args}], kwargs=[{kwargs}])"
        qualname = getattr(obj, "__qualname__", None)
        if qualname is not None:
            return f"{getattr(obj, '__module__', '?')}.{qualname}"
        cls = type(obj)
        return f"{cls.__module__}.{cls.__qualname__}"

    def _sweep_signature(self) -> Dict[str, object]:
        library_id = (f"{self._fingerprint(self.library)}:"
                      f"{getattr(self.library, 'name', '?')}/"
                      f"{len(getattr(self.library, 'classes', []))}")
        signature = {
            "factory": self._fingerprint(self.design_factory),
            "library": library_id,
            "margin_fraction": self.margin_fraction,
            "points": [
                [p.name, p.latency, p.pipeline_ii, p.clock_period]
                for p in self.points
            ],
        }
        # Only non-default modes enter the signature, so checkpoints written
        # before the scheduling knob existed keep restoring block sweeps.
        if self.scheduling != "block":
            signature["scheduling"] = self.scheduling
        return signature

    def _load_checkpoint(self) -> Dict[str, Dict[str, object]]:
        """Per-point records of a matching checkpoint, else empty.

        A checkpoint that is not a JSON object, and any point record that is
        not one, holds no usable record: those points are evaluated afresh.
        """
        if not self.checkpoint_path or not os.path.exists(self.checkpoint_path):
            return {}
        try:
            with open(self.checkpoint_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return {}
        if (not isinstance(data, dict)
                or data.get("version") != CHECKPOINT_VERSION
                or data.get("signature") != self._sweep_signature()):
            return {}
        records = data.get("points", {})
        if not isinstance(records, dict):
            return {}
        return {name: record for name, record in records.items()
                if isinstance(record, dict)}

    def _write_checkpoint(self, records: Dict[str, Dict[str, object]]) -> None:
        if not self.checkpoint_path:
            return
        payload = {
            "version": CHECKPOINT_VERSION,
            "signature": self._sweep_signature(),
            "points": records,
        }
        directory = os.path.dirname(os.path.abspath(self.checkpoint_path))
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            os.replace(tmp_path, self.checkpoint_path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    # -- execution ----------------------------------------------------------------

    def _emit(self, point: DesignPoint, status: str, done: int, total: int,
              error: Optional[str] = None) -> None:
        if self.progress is None:
            return
        try:
            self.progress(ProgressEvent(point=point, status=status, done=done,
                                        total=total, error=error))
        except Exception as exc:  # noqa: BLE001 — observers must not kill a sweep
            self._progress_error_count += 1
            self._progress_last_error = f"{type(exc).__name__}: {exc}"
            _PROGRESS_ERRORS.inc()
            if not self._progress_warned:
                self._progress_warned = True
                warnings.warn(
                    f"progress callback raised {self._progress_last_error}; "
                    "the sweep continues and further observer errors in this "
                    "run are counted silently (see "
                    "EngineResult.progress_errors)",
                    RuntimeWarning, stacklevel=3)

    def _resolve_executor(self, pending: int) -> Tuple[str, int]:
        workers = self.max_workers or os.cpu_count() or 1
        workers = max(1, min(workers, max(pending, 1)))
        mode = self.executor
        if mode == "auto":
            if pending <= 1 or workers <= 1:
                return "serial", 1
            try:
                pickle.dumps((self.design_factory, self.library))
                return "process", workers
            except Exception:
                return "serial", 1
        if mode == "serial":
            return "serial", 1
        if mode == "process":
            try:
                pickle.dumps((self.design_factory, self.library))
            except Exception as exc:
                raise ReproError(
                    "executor='process' needs a picklable design_factory and "
                    "library (use the factories in repro.workloads.factories "
                    f"instead of lambdas/closures): {exc}"
                )
            return "process", workers
        return "thread", workers

    def _outcome_from_result(self, result, records) -> PointOutcome:
        index, status, entry, error, tb, seconds, spans, input_error = result
        point = self.points[index]
        if spans:
            tracer = _active_tracer()
            if tracer is not None:
                tracer.adopt(spans, track=f"worker:{point.name}")
        if status == "ok":
            outcome = PointOutcome(point=point, status="ok", entry=entry,
                                   metrics=entry.metrics(),
                                   worker_seconds=seconds)
            records[point.name] = {
                "status": "ok",
                "metrics": outcome.metrics,
                "worker_seconds": seconds,
            }
        else:
            outcome = PointOutcome(point=point, status="error", error=error,
                                   traceback=tb, worker_seconds=seconds,
                                   input_error=input_error)
            records[point.name] = {
                "status": "error",
                "error": error,
                "worker_seconds": seconds,
            }
        return outcome

    def run(self) -> EngineResult:
        """Run (or resume) the sweep and return its :class:`EngineResult`."""
        start = time.perf_counter()
        total = len(self.points)
        outcomes: Dict[int, PointOutcome] = {}
        records = self._load_checkpoint()
        done = 0
        self._progress_error_count = 0
        self._progress_last_error: Optional[str] = None
        self._progress_warned = False

        for index, point in enumerate(self.points):
            known = self.precomputed.get(point.name)
            worker_seconds = 0.0
            if known is None:
                record = records.get(point.name)
                if record and record.get("status") == "ok":
                    known = record.get("metrics")
                    # Timing is only meaningful for the record the metrics
                    # actually came from; precomputed restores supersede any
                    # checkpoint record, stale timing included.
                    worker_seconds = float(record.get("worker_seconds", 0.0))
            if known is not None:
                outcomes[index] = PointOutcome(
                    point=point, status="restored", metrics=known,
                    worker_seconds=worker_seconds,
                )
                done += 1
                self._emit(point, "restored", done, total)

        pending = [(i, p) for i, p in enumerate(self.points) if i not in outcomes]
        mode, workers = self._resolve_executor(len(pending))
        # Pool processes cannot see the parent's tracer; ask them to record
        # locally and ship their trees back.  Threads (and serial) share the
        # parent's tracer directly — per-thread stacks keep them untangled.
        trace_workers = mode == "process" and _tracing_enabled()

        def payload(index: int, point: DesignPoint):
            return (index, self.design_factory, self.library, point,
                    self.margin_fraction, self.use_analysis_cache,
                    self.scheduling, trace_workers)

        if mode == "serial" or not pending:
            session = self.session if self.session is not None else SweepSession(
                self.design_factory, self.library,
                margin_fraction=self.margin_fraction,
                use_cache=self.use_analysis_cache,
                scheduling=self.scheduling)
            for index, point in pending:
                outcome = self._outcome_from_result(
                    _evaluate_in_session(session, index, point), records)
                outcomes[index] = outcome
                done += 1
                self._write_checkpoint(records)
                self._emit(point, outcome.status, done, total, outcome.error)
        else:
            pool_cls = ProcessPoolExecutor if mode == "process" \
                else ThreadPoolExecutor
            with pool_cls(max_workers=workers) as pool:
                futures = {
                    pool.submit(_evaluate_payload, payload(index, point)): index
                    for index, point in pending
                }
                for future in as_completed(futures):
                    outcome = self._outcome_from_result(future.result(), records)
                    outcomes[futures[future]] = outcome
                    done += 1
                    self._write_checkpoint(records)
                    self._emit(outcome.point, outcome.status, done, total,
                               outcome.error)

        return EngineResult(
            outcomes=[outcomes[index] for index in range(total)],
            wall_time_seconds=time.perf_counter() - start,
            executor=mode if pending else "restored",
            max_workers=workers if pending else 0,
            progress_errors=self._progress_error_count,
            progress_last_error=self._progress_last_error,
        )


# -- scenario sweeps ------------------------------------------------------------


@dataclass(frozen=True)
class SweepScenario:
    """One workload scenario: a picklable factory plus its design points."""

    name: str
    factory: Callable[[DesignPoint], Design]
    points: Tuple[DesignPoint, ...]

    def run(self, library: Library, **engine_kwargs) -> EngineResult:
        return DSEEngine(self.factory, library, list(self.points),
                         **engine_kwargs).run()


def scenario_sweep(
    clock_period: float = 1500.0,
    random_sizes: Sequence[Tuple[int, int]] = ((3, 4), (4, 6), (5, 8)),
    random_seeds: Sequence[int] = (7, 23),
) -> List[SweepScenario]:
    """A scenario-diverse sweep: public-style kernels plus random designs.

    Generalizes the DSE harness beyond the paper's IDCT: each scenario
    sweeps one workload over several latencies, and the random scenarios
    add seeded layered designs at several sizes (``(layers, ops_per_layer)``
    pairs), standing in for the paper's "over 100 customer designs".
    """
    from repro.workloads.factories import KernelPointFactory, RandomPointFactory

    def points(prefix: str, latencies: Sequence[int]) -> Tuple[DesignPoint, ...]:
        return tuple(
            DesignPoint(name=f"{prefix}_L{latency}", latency=latency,
                        clock_period=clock_period)
            for latency in latencies
        )

    scenarios = [
        SweepScenario("fir8", KernelPointFactory("fir", params=(("taps", 8),)),
                      points("fir8", (6, 8, 10))),
        SweepScenario("matmul3",
                      KernelPointFactory("matmul", params=(("size", 3),)),
                      points("matmul3", (6, 8, 10))),
        SweepScenario("dct_butterfly", KernelPointFactory("dct_butterfly"),
                      points("dct", (5, 6, 8))),
        SweepScenario("fft8",
                      KernelPointFactory("fft_stage", params=(("points", 8),)),
                      points("fft8", (5, 6, 8))),
        SweepScenario("sobel", KernelPointFactory("sobel"),
                      points("sobel", (5, 6, 8))),
    ]
    for layers, ops in random_sizes:
        for seed in random_seeds:
            name = f"random_s{seed}_{layers}x{ops}"
            scenarios.append(SweepScenario(
                name,
                RandomPointFactory(seed=seed, layers=layers, ops_per_layer=ops),
                points(name, (layers + 2, layers + 4)),
            ))
    return scenarios
