"""Batched cross-point sweep evaluation behind one session object.

:func:`repro.flows.dse.evaluate_point` treats every design point as an
island: the factory builds a fresh design, the analyses are resolved from
scratch (or from the process-wide cache) and the two flows run.  A sweep,
however, is a *sequence* of closely related points — the same structure at
several clock periods, neighboring latencies, pipelined variants — and the
delta-evaluation kernels underneath the slack flow (the
:class:`repro.core.delta_slack.DeltaSlackEvaluator`, the budget and span
templates, the per-graph seed vectors) only amortize when consecutive
evaluations actually share their design objects and artifact bundles.

:class:`SweepSession` is the object that makes the sharing deliberate:

* **interning** — every point's design is fingerprinted
  (:func:`repro.core.analysis_cache.design_fingerprint`) and interned by
  ``(fingerprint, name, pipeline_ii)``; later points that rebuild the same
  structure are swapped onto the *original* design object, so every
  identity-keyed template and seed cache downstream hits instead of
  re-deriving;
* **shared artifacts** — one :class:`~repro.flows.pipeline.PointArtifacts`
  bundle per structure, resolved once per session (through the analysis
  cache by default, session-privately with ``use_cache=False``);
* **delta ordering** — :meth:`run` visits points in the
  :func:`~repro.flows.sweep.ordering.sweep_plan` order (grouped by
  structure, clock swept within a group) so neighbors differ in one knob,
  then reports results in the caller's original order;
* **full-evaluation fallback** — a point whose schedule structure diverges
  (a fingerprint the session has not seen) cannot reuse anything and is
  evaluated from scratch; the session counts these so callers can see how
  much of a sweep rode the delta path.

Exactness contract: a session evaluation is bit-for-bit identical to a
standalone :func:`~repro.flows.dse.evaluate_point` on the same point — the
interning only substitutes structurally identical objects, and the analysis
cache guarantees bundle equality by construction.  The ``sweep-session``
oracle of :mod:`repro.verify.oracles` fuzzes exactly this equivalence on
generated scenarios, and the Table-4 golden-metrics file pins it on the
paper's IDCT sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.analysis_cache import AnalysisCache, default_cache, design_fingerprint
from repro.errors import ReproError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.flows.conventional import conventional_flow
from repro.flows.dse import DesignPoint, DSEEntry, DSEResult
from repro.flows.pipeline import PointArtifacts
from repro.flows.slack_based import slack_based_flow
from repro.flows.sweep.ordering import sweep_plan
from repro.obs.metrics import counter as _obs_counter
from repro.obs.trace import span as _obs_span

#: Registry twins of the :class:`SweepStats` counters — the ad-hoc per-session
#: stats stay the public accessor; these accumulate process-wide so a metrics
#: snapshot sees every session's reuse behaviour without holding the objects.
_POINTS = _obs_counter("sweep.points_evaluated")
_FULL = _obs_counter("sweep.full_evaluations")
_DELTA = _obs_counter("sweep.delta_points")
_INTERNED = _obs_counter("sweep.interned_reuses")
#: Delta-slack evaluations counted by the budgeting kernel, diffed per session.
_DELTA_EVALUATORS = _obs_counter("analysis_cache.delta_evaluators")
_DELTA_UPDATES = _obs_counter("analysis_cache.delta_updates")


@dataclass
class SweepStats:
    """What a session reused versus recomputed, for reporting and tests.

    ``full_evaluations`` counts points whose structure was new to the
    session (the fallback path: nothing to delta against).
    ``delta_points`` counts points that shared a previously seen structure
    and therefore rode the interned designs, shared bundles and warm
    delta-evaluation caches.  ``delta_evaluators``/``delta_updates`` are the
    growth of the ``analysis_cache.delta_evaluators``/``delta_updates``
    registry counters while this session ran (incremental slack
    re-evaluations inside the budgeting kernel, and how many node updates
    they needed).
    """

    points_evaluated: int = 0
    full_evaluations: int = 0
    delta_points: int = 0
    interned_reuses: int = 0
    artifacts_built: int = 0
    artifacts_shared: int = 0
    delta_evaluators: int = 0
    delta_updates: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "points_evaluated": self.points_evaluated,
            "full_evaluations": self.full_evaluations,
            "delta_points": self.delta_points,
            "interned_reuses": self.interned_reuses,
            "artifacts_built": self.artifacts_built,
            "artifacts_shared": self.artifacts_shared,
            "delta_evaluators": self.delta_evaluators,
            "delta_updates": self.delta_updates,
        }


class SweepSession:
    """Evaluate a sweep of design points with cross-point sharing.

    Parameters
    ----------
    design_factory:
        Maps a :class:`~repro.flows.dse.DesignPoint` to a
        :class:`~repro.ir.design.Design` (see
        :mod:`repro.workloads.factories`).
    library:
        The resource library shared by every point.
    margin_fraction:
        Slack-binning margin forwarded to the slack-based flow.
    cache:
        The :class:`~repro.core.analysis_cache.AnalysisCache` backing the
        session (default: the process-wide :func:`default_cache`).  Pass a
        fresh ``AnalysisCache()`` for a fully isolated session.
    use_cache:
        With ``False`` the session never touches ``cache`` for artifact
        bundles: each *structure* still gets exactly one session-private
        bundle (built via :meth:`PointArtifacts.build`), which the cache
        contract guarantees is bit-for-bit equivalent.  This mirrors the
        ``use_cache`` switch of :func:`~repro.flows.dse.evaluate_point`.
    scheduling:
        ``"block"`` (default) or ``"pipeline"``, forwarded to both flows for
        every point.  In pipeline mode each point's ``pipeline_ii`` is the
        target initiation interval (``None`` lets the flows start from the
        computed MII), making II a first-class sweep knob next to latency
        and clock period.

    A session is a per-sweep object: its intern tables grow with the number
    of distinct structures evaluated and are only released with the session.
    It is not thread-safe — share work across processes with
    :class:`repro.flows.engine.DSEEngine` instead, which routes its serial
    path through a session and its pool paths through per-worker evaluation.
    """

    def __init__(
        self,
        design_factory: Callable[[DesignPoint], Design],
        library: Library,
        margin_fraction: float = 0.05,
        cache: Optional[AnalysisCache] = None,
        use_cache: bool = True,
        scheduling: str = "block",
    ):
        if scheduling not in ("block", "pipeline"):
            raise ReproError(f"unknown scheduling mode {scheduling!r} "
                             f"(expected 'block' or 'pipeline')")
        self.design_factory = design_factory
        self.library = library
        self.margin_fraction = margin_fraction
        self.scheduling = scheduling
        self.cache = cache if cache is not None else default_cache()
        self.use_cache = use_cache
        self.stats = SweepStats()
        self._designs: Dict[Tuple[str, str, Optional[int]], Design] = {}
        self._structures: set = set()
        self._bundles: Dict[str, PointArtifacts] = {}
        # The budgeting kernel counts its incremental re-evaluations on
        # process-wide counters, so the session's delta counters diff them —
        # exact for single-threaded sweeps, which is what a session is (see
        # the class docstring).
        self._delta_base = (_DELTA_EVALUATORS.value, _DELTA_UPDATES.value)

    # -- interning ---------------------------------------------------------------

    def _intern(self, point: DesignPoint) -> Tuple[Design, str]:
        """The session's canonical design for ``point`` plus its fingerprint.

        The probe design is always built (the fingerprint needs it); when an
        earlier point produced an identical structure under the same name
        and initiation interval, the earlier *object* wins so identity-keyed
        caches (budget/span templates, delta seeds) keep hitting.
        """
        probe = self.design_factory(point)
        fingerprint = design_fingerprint(probe)
        key = (fingerprint, probe.name, probe.pipeline_ii)
        design = self._designs.get(key)
        if design is None:
            self._designs[key] = design = probe
        else:
            self.stats.interned_reuses += 1
            _INTERNED.inc()
        if fingerprint in self._structures:
            self.stats.delta_points += 1
            _DELTA.inc()
        else:
            self._structures.add(fingerprint)
            self.stats.full_evaluations += 1
            _FULL.inc()
        return design, fingerprint

    def _artifacts(self, design: Design, fingerprint: str) -> PointArtifacts:
        bundle = self._bundles.get(fingerprint)
        if bundle is not None:
            self.stats.artifacts_shared += 1
            return bundle
        if self.use_cache:
            bundle = PointArtifacts.of(design, cache=self.cache)
        else:
            bundle = PointArtifacts.build(design)
        self._bundles[fingerprint] = bundle
        self.stats.artifacts_built += 1
        return bundle

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, point: DesignPoint) -> DSEEntry:
        """Run both flows on one point, reusing everything the session holds."""
        with _obs_span("sweep.point", point=point.name,
                       latency=point.latency, pipeline_ii=point.pipeline_ii,
                       clock_period=point.clock_period):
            design, fingerprint = self._intern(point)
            artifacts = self._artifacts(design, fingerprint)
            conventional = conventional_flow(
                design, self.library, clock_period=point.clock_period,
                pipeline_ii=point.pipeline_ii, artifacts=artifacts,
                scheduling=self.scheduling,
            )
            slack = slack_based_flow(
                design, self.library, clock_period=point.clock_period,
                pipeline_ii=point.pipeline_ii,
                margin_fraction=self.margin_fraction, artifacts=artifacts,
                scheduling=self.scheduling,
            )
        self.stats.points_evaluated += 1
        _POINTS.inc()
        self._refresh_delta_counters()
        return DSEEntry(point=point, conventional=conventional, slack_based=slack)

    def run(self, points: Sequence[DesignPoint]) -> DSEResult:
        """Evaluate every point, batched in delta-friendly order.

        Points are *visited* in :func:`~repro.flows.sweep.ordering.sweep_plan`
        order (structure-grouped, clock-adjacent) but the returned
        :class:`~repro.flows.dse.DSEResult` lists entries in the caller's
        input order — per-point results are order-independent, so the two
        views are interchangeable and the golden-metrics tests pin that.
        """
        start = time.perf_counter()
        entries: List[Optional[DSEEntry]] = [None] * len(points)
        with _obs_span("sweep.run", points=len(points),
                       scheduling=self.scheduling):
            for index in sweep_plan(points):
                entries[index] = self.evaluate(points[index])
        return DSEResult(entries=list(entries),
                         wall_time_seconds=time.perf_counter() - start)

    # -- reporting ---------------------------------------------------------------

    def _refresh_delta_counters(self) -> None:
        base_evaluators, base_updates = self._delta_base
        self.stats.delta_evaluators = _DELTA_EVALUATORS.value - base_evaluators
        self.stats.delta_updates = _DELTA_UPDATES.value - base_updates
