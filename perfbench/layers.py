"""Per-layer timing taken from outside the program.

The traced run of the benchmark wraps the public functions of each layer
from here, without adding a single span or counter inside ``src/``:

* every wrapped function gets a call count, an inclusive time and a *self*
  time (inclusive time minus the time spent in nested wrapped calls), so
  the self times of all layers are disjoint and add up to at most the wall
  time of the run; what no layer claims is reported as
  ``unattributed.self_s``;
* a name imported with ``from x import f`` is a separate binding in every
  importing module, so :meth:`LayerTracer.install` rebinds *every* module
  attribute that holds the original function to one shared wrapper (one
  wrapper per function keeps identity tests such as ``scheduler is not
  try_list_schedule`` in the relaxation loop intact) and
  :meth:`LayerTracer.stale_references` proves no binding was missed;
* the program's own counters (:func:`repro.obs.metrics.counter` values,
  :func:`repro.obs.metrics.cache_stats` and the analysis-cache tables) are
  read as deltas around the traced region and cross-checked against the
  wrapped call counts where both exist.

The ``delta.seed_kernels`` region is an existing span inside
:class:`repro.core.delta_slack.DeltaSlackEvaluator`; its self time is read
from the recorded spans, and a frame is opened around it (by rebinding
``_obs_span`` in that module only) so that its time is not also counted as
self time of the wrapped function that encloses it.

Which end-to-end metric each layer should move, and where:

* per-edge re-budgeting (``budget_slack``, ``pinned_spans_and_timed``,
  ``sequential_slack``, ``seed_kernels``, ``SlackScheduler.run``,
  ``try_list_schedule``, the sweep's full/delta split): ``sweep_cold_s``
  and ``sweep_warm_s`` on ``idct_block``; no change on ``idct_pipeline``;
* area recovery, binding, state timing, modulo scheduling and relaxation:
  ``sweep_*_s`` on ``idct_pipeline``;
* ``artifacts`` and library characterisation misses: ``sweep_cold_s`` and
  ``setup_s``;
* ``evaluate_point``, the memo tier, the queue and the JSONL appends:
  ``jobs_per_s`` on ``serve_mix``; retries, their backoff sleep and the
  infeasible jobs: ``job_p95_ms`` and ``jobs_per_s`` on ``serve_mix``.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, Iterator, List, Tuple

#: (module, attribute) of every wrapped function; a dotted attribute names a
#: method, which is wrapped once on its class.  The metric prefix is the
#: module path below ``repro`` plus the function name.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.core.budgeting", "budget_slack"),
    ("repro.core.analysis_cache", "AnalysisCache.artifacts"),
    ("repro.core.analysis_cache", "AnalysisCache.pinned_spans_and_timed"),
    ("repro.core.analysis_cache", "AnalysisCache.sequential_slack"),
    ("repro.core.slack_scheduler", "SlackScheduler.run"),
    ("repro.sched.list_scheduler", "try_list_schedule"),
    ("repro.sched.modulo_scheduler", "try_modulo_schedule"),
    ("repro.rtl.datapath", "build_datapath"),
    ("repro.rtl.area_recovery", "recover_area"),
    ("repro.rtl.timing", "analyze_state_timing"),
    ("repro.flows.dse", "evaluate_point"),
    ("repro.serve.cache", "MemoCache.lookup"),
    ("repro.serve.cache", "MemoCache.record"),
    ("repro.serve.queue", "JobQueue.submit"),
    ("repro.serve.queue", "JobQueue.claim"),
    ("repro.serve.queue", "JobQueue.finish"),
    ("repro.core.jsonl", "append_records"),
)

SEED_SPAN = "delta.seed_kernels"
SEED_LAYER = "core.delta_slack.seed_kernels"

#: Program counters read as deltas around the traced region.
COUNTERS = (
    "budgeting.runs", "budgeting.iterations",
    "delta_seeds.hits", "delta_seeds.misses",
    "sweep.full_evaluations", "sweep.delta_points",
    "relaxation.attempts", "relaxation.ii_bumps",
    "relaxation.resources_added", "relaxation.upgrades",
    "serve.cache.hits", "serve.cache.misses", "serve.cache.puts",
    "serve.retry.retries", "jsonl.appended_records",
)

#: The analysis-cache tables behind the three memoized AnalysisCache methods.
CACHE_TABLES = {
    "core.analysis_cache.artifacts": "artifacts",
    "core.analysis_cache.pinned_spans_and_timed": "spans",
    "core.analysis_cache.sequential_slack": "sequential_slack",
}


def layer_name(module: str, attribute: str) -> str:
    return f"{module[len('repro.'):]}.{attribute.rsplit('.', 1)[-1]}"


class LayerStat:
    """Calls, self time and a per-layer tally taken from results or args."""

    __slots__ = ("calls", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class LayerTracer:
    """Wraps the :data:`TARGETS` and accounts their calls and self times.

    ``clock`` is the time source of the accounting: CPU time for the IDCT
    workloads and wall time for ``serve_mix``, like their end-to-end
    figures.

    Single-threaded by design: the benchmark drives the sweep session and
    the serve loop in the calling thread (the default retry policy has no
    deadline, so attempts run inline).
    """

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.stats: Dict[str, LayerStat] = {
            layer_name(module, attr): LayerStat() for module, attr in TARGETS}
        self.stats[SEED_LAYER] = LayerStat()
        self._stack: List[float] = []
        self._originals: Dict[str, Callable] = {}
        self._wrappers: Dict[str, Callable] = {}
        self._patches: List[Tuple[object, str, object]] = []
        for module, attr in TARGETS:
            name = layer_name(module, attr)
            owner, leaf = _resolve(module, attr)
            original = owner.__dict__[leaf]
            self._originals[name] = original
            self._wrappers[name] = self._wrap(name, original)

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, name: str, func: Callable) -> Callable:
        stat = self.stats[name]
        stack = self._stack
        perf = self.clock
        on_result = _RESULT_HOOKS.get(name)
        on_args = _ARG_HOOKS.get(name)

        close = self._close

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                close(stat, perf() - start)
            if on_result is not None:
                stat.extra += on_result(result)
            if on_args is not None:
                stat.extra += on_args(args, kwargs)
            return result

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    def _close(self, stat: LayerStat, elapsed: float) -> None:
        """Pop the innermost frame and charge it to ``stat`` and its parent."""
        stack = self._stack
        child = stack.pop()
        stat.calls += 1
        stat.self_s += elapsed - child
        if stack:
            stack[-1] += elapsed

    def _seed_span(self, real_span: Callable) -> Callable:
        """A stand-in for ``delta_slack._obs_span`` that frames one span."""
        stat = self.stats[SEED_LAYER]
        stack = self._stack
        clock = self.clock
        close = self._close

        class _Framed:
            __slots__ = ("inner", "start")

            def __init__(self, inner):
                self.inner = inner

            def __enter__(self):
                stack.append(0.0)
                self.start = clock()
                return self.inner.__enter__()

            def __exit__(self, *exc_info):
                try:
                    return self.inner.__exit__(*exc_info)
                finally:
                    close(stat, clock() - self.start)

        def span(name, **attrs):
            inner = real_span(name, **attrs)
            return _Framed(inner) if name == SEED_SPAN else inner

        return span

    def install(self) -> None:
        """Rebind every loaded binding of every target to its wrapper."""
        if self._patches:
            return
        targets = {id(func): name for name, func in self._originals.items()}
        for module, attr in TARGETS:
            if "." in attr:
                owner, leaf = _resolve(module, attr)
                self._patch(owner, leaf, self._wrappers[layer_name(module, attr)])
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                name = targets.get(id(value))
                if name is not None and value is self._originals[name]:
                    self._patch(module, key, self._wrappers[name])
        delta = sys.modules["repro.core.delta_slack"]
        self._patch(delta, "_obs_span", self._seed_span(delta._obs_span))

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches = []

    def stale_references(self) -> List[str]:
        """Bindings that still hold an unwrapped target while installed.

        Scans the globals of every loaded ``repro`` module, the attributes
        of the classes they define and the defaults of their functions and
        methods; an empty list means every call into a target goes through
        its wrapper.
        """
        originals = {id(func) for func in self._originals.values()}
        stale = []
        for module in _repro_modules():
            for key, value in vars(module).items():
                if id(value) in originals:
                    stale.append(f"{module.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == module.__name__:
                    stale.extend(f"{module.__name__}.{key}.{member}"
                                 for member, attr in vars(value).items()
                                 if id(attr) in originals)
                for func in _functions_of(value, module.__name__):
                    defaults = (func.__defaults__ or ()) + tuple(
                        (func.__kwdefaults__ or {}).values())
                    if any(id(default) in originals for default in defaults):
                        stale.append(f"{func.__module__}.{func.__qualname__}"
                                     " (default argument)")
        return sorted(set(stale))


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _repro_modules() -> List[types.ModuleType]:
    return [module for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and isinstance(module, types.ModuleType)]


def _functions_of(value, module_name: str) -> Iterator[types.FunctionType]:
    if isinstance(value, types.FunctionType) and value.__module__ == module_name:
        yield value
    elif isinstance(value, type) and value.__module__ == module_name:
        for member in vars(value).values():
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if isinstance(member, types.FunctionType):
                yield member


def _rebudgets(result) -> int:
    return result.rebudget_count


def _downgrades(result) -> int:
    return result.downgrades


def _records(args, kwargs) -> int:
    records = kwargs["records"] if "records" in kwargs else args[1]
    return len(records)


_RESULT_HOOKS = {
    "core.slack_scheduler.run": _rebudgets,
    "rtl.area_recovery.recover_area": _downgrades,
}
_ARG_HOOKS = {"core.jsonl.append_records": _records}
