"""Shared per-point pipeline stage for the HLS flows.

Both flows need the same per-design pre-analysis — a :class:`LatencyAnalysis`
of the CFG, the :class:`OperationSpans` and the timed DFG — and both end with
the same back-end sequence (datapath construction, within-state area
recovery, state timing, area/power reports).  Before this module existed each
flow recomputed the analyses from scratch, so a DSE sweep paid for every
design point twice.  :class:`PointArtifacts` computes them once per design
point and hands the precomputed artifacts to whichever flows run on the
point; :func:`finalize_flow` is the shared back end.

Caching and invalidation
------------------------

:meth:`PointArtifacts.of` memoizes artifact bundles in the process-wide
:class:`repro.core.analysis_cache.AnalysisCache`, keyed by
:func:`repro.core.analysis_cache.design_fingerprint`.  The rules that make
this sound:

* **What the key covers.** The fingerprint hashes the CFG and DFG structure
  (nodes, edges, operation attributes, insertion order).  Everything inside
  an artifact bundle is a pure function of that structure.
* **What the key ignores — deliberately.** The clock period, ``pipeline_ii``
  and the free-form ``design.attrs`` do not influence latency analysis,
  opSpans or the timed DFG, so one bundle serves the same design swept over
  clock periods and initiation intervals (that is the point of the cache).
* **Invalidation.** There is none by design: cached bundles are never
  mutated, and a *structurally* changed design produces a new fingerprint
  and therefore a new bundle.  The corollary is that designs must not be
  mutated structurally after first use — run the IR transforms
  (:mod:`repro.ir.transforms`) *before* handing a design to a flow.  Use
  :func:`repro.obs.metrics.clear_caches` to drop every bundle together
  with every other process-wide memo table (budgeting and span templates,
  library characterisation) — between unrelated sweeps in a long-lived
  process, or to measure a cold run; hit/miss counters are kept.
* **Mutable state stays out.** Schedules, bindings and datapaths are built
  per flow run and are never cached here; area recovery mutates instance
  variants on the per-run datapath only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.analysis_cache import AnalysisCache, default_cache
from repro.core.latency import LatencyAnalysis
from repro.obs.trace import span as _obs_span
from repro.core.opspan import OperationSpans
from repro.core.timed_dfg import TimedDFG, build_timed_dfg
from repro.ir.design import Design
from repro.lib.library import Library
from repro.rtl.area import area_report
from repro.rtl.area_recovery import recover_area
from repro.rtl.datapath import build_datapath
from repro.rtl.power import power_report
from repro.rtl.timing import analyze_state_timing
from repro.flows.result import FlowResult
from repro.sched.allocation import Allocation
from repro.sched.schedule import Schedule


@dataclass
class PointArtifacts:
    """Per-design analyses shared by every flow run on one design point.

    The latency analysis and operation spans are deterministic functions of
    the design, so computing them once and sharing them across flows is
    bit-for-bit equivalent to recomputing them inside each flow.  The timed
    DFG is built lazily because the conventional flow does not need it.

    Treat a bundle as immutable: it may be shared across flows, design
    points and engine sweeps via the analysis cache (see the module
    docstring for the invalidation rules).
    """

    design: Design
    latency: LatencyAnalysis
    spans: OperationSpans
    _timed: Optional[TimedDFG] = field(default=None, repr=False)

    @classmethod
    def build(cls, design: Design) -> "PointArtifacts":
        """Compute a fresh bundle, bypassing the analysis cache."""
        latency = LatencyAnalysis(design.cfg)
        spans = OperationSpans(design, latency=latency)
        return cls(design=design, latency=latency, spans=spans)

    @classmethod
    def of(cls, design: Design,
           cache: Optional[AnalysisCache] = None) -> "PointArtifacts":
        """The (possibly shared) bundle of ``design`` from the analysis cache.

        Structurally identical designs — e.g. the same kernel rebuilt by a
        factory for several clock periods — resolve to one bundle.
        """
        cache = cache if cache is not None else default_cache()
        return cache.artifacts(design)

    @property
    def timed(self) -> TimedDFG:
        if self._timed is None:
            self._timed = build_timed_dfg(self.design, spans=self.spans,
                                          latency=self.latency)
        return self._timed


def finalize_flow(
    flow: str,
    design: Design,
    library: Library,
    schedule: Schedule,
    allocation: Allocation,
    clock_period: float,
    pipeline_ii: Optional[int],
    start_time: float,
    scheduling_seconds: float,
    details: Dict[str, object],
    area_recovery: bool = True,
    register_margin: float = 0.0,
) -> FlowResult:
    """The shared flow back end: datapath, recovery, reports, result object.

    ``details`` gains ``area_recovery_downgrades`` / ``area_recovery_saved``
    plus ``area_recovery_seconds`` (wall time of the recovery pass, tracked
    by the benchmark smoke job; wall-clock fields never enter
    ``DSEEntry.metrics()``).
    """
    with _obs_span("flow.bind", flow=flow, design=design.name):
        datapath = build_datapath(design, library, schedule,
                                  pipeline_ii=pipeline_ii)
    if area_recovery:
        with _obs_span("flow.area_recovery", flow=flow, design=design.name):
            recovery_start = time.perf_counter()
            recovery = recover_area(datapath, register_margin=register_margin)
            details["area_recovery_seconds"] = \
                time.perf_counter() - recovery_start
            datapath.refresh_interconnect()
        details["area_recovery_downgrades"] = recovery.downgrades
        details["area_recovery_saved"] = recovery.area_saved

    with _obs_span("flow.timing", flow=flow, design=design.name):
        timing = analyze_state_timing(datapath, register_margin=register_margin)
    with _obs_span("flow.report", flow=flow, design=design.name):
        area = area_report(datapath)
        power = power_report(datapath)
    runtime = time.perf_counter() - start_time

    return FlowResult(
        flow=flow,
        design_name=design.name,
        clock_period=clock_period,
        schedule=schedule,
        datapath=datapath,
        area=area,
        power=power,
        timing=timing,
        allocation=allocation,
        runtime_seconds=runtime,
        scheduling_seconds=scheduling_seconds,
        latency_steps=schedule.latency_steps(),
        meets_timing=timing.meets_timing(),
        details=details,
    )
