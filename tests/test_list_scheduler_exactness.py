"""The worklist list scheduler against its frozen reference.

``try_list_schedule`` evaluates every ready operation once per CFG edge and
keeps pending-predecessor counters instead of rescanning; the reference in
``scheduling_reference`` is the straightforward round-based pass it
replaced.  Both must return identical attempts — the same items in the same
assignment order, with the same edges, steps, start and finish floats and
variants, or the same failure fields — with and without a post-edge hook,
upgrade on last chance and pipelining.
"""

from itertools import product

import pytest

from repro.core.analysis_cache import AnalysisCache
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.errors import ReproError, TimingError
from repro.ir.operations import OpKind
from repro.sched.allocation import minimal_allocation
from repro.sched.list_scheduler import try_list_schedule
from repro.sched.priorities import mobility_priority
from repro.verify.scenarios import scenario_stream
from repro.workloads import idct_design
from scheduling_reference import try_list_schedule_reference

SEEDS = (3, 11)
SCENARIOS_PER_SEED = 8


def _designs():
    for seed in SEEDS:
        for _, spec in scenario_stream(seed, count=SCENARIOS_PER_SEED):
            yield pytest.param(spec.design(), spec.clock_period, id=spec.name)
    yield pytest.param(idct_design(latency=10, rows=1, clock_period=1500.0),
                       1500.0, id="idct_rows1_lat10")


def _all_tied(name):
    """Equal keys everywhere: the order falls back to the stable sort."""
    return 0


def signature(attempt):
    if attempt.success:
        return ("scheduled", [
            (item.op, item.edge, item.step, item.start, item.finish,
             item.variant) for item in attempt.schedule.items])
    return ("failed", attempt.failure)


def _grades(design, library, pick):
    grades = {}
    for op in design.dfg.operations:
        if op.kind is OpKind.CONST or not op.is_synthesizable:
            continue
        variants = library.class_for_op(op).variants
        grades[op.name] = variants[0] if pick == "fastest" else variants[-1]
    return grades


def _hook(design, library, latency):
    """A deterministic re-budgeting stand-in: pinned spans, mobility
    priorities and, on every other edge, the pending ops' fastest grades."""
    edges = latency.forward_edge_names
    fastest = _grades(design, library, "fastest")
    calls = []

    def hook(edge_name, schedule, pending):
        calls.append(edge_name)
        index = edges.index(edge_name)
        if index + 1 >= len(edges):
            return None
        try:
            spans = OperationSpans(design, latency=latency,
                                   pinned=schedule.as_sched_map(),
                                   not_before=edges[index + 1])
        except TimingError:
            return None
        variants = None
        if len(calls) % 2 == 0:
            variants = dict(schedule.variant_map())
            variants.update((name, fastest[name]) for name in pending
                            if name in fastest)
        return spans, variants, mobility_priority(spans)

    return hook


@pytest.mark.parametrize("design, clock", list(_designs()))
@pytest.mark.parametrize("pick", ["slowest", "fastest"])
def test_worklist_scheduler_matches_reference(design, clock, pick, library):
    latency = LatencyAnalysis(design.cfg)
    spans = OperationSpans(design, latency=latency)
    compared = 0
    for pipeline_ii in (None, 2):
        allocation = minimal_allocation(design, library, spans=spans,
                                        pipeline_ii=pipeline_ii)
        for upgrade, with_hook, priority in product(
                (False, True), (False, True), (None, _all_tied)):
            results = []
            for scheduler in (try_list_schedule,
                              try_list_schedule_reference):
                variants = _grades(design, library, pick)
                attempt = scheduler(
                    design, library, clock, variants, allocation,
                    spans=spans, latency=latency, priority=priority,
                    pipeline_ii=pipeline_ii,
                    post_edge_hook=(_hook(design, library, latency)
                                    if with_hook else None),
                    upgrade_on_last_chance=upgrade)
                results.append((signature(attempt), variants))
            assert results[0] == results[1]
            compared += 1
    assert compared == 16


@pytest.mark.parametrize("design, clock", list(_designs()))
def test_slack_scheduler_attempts_match_reference(design, clock, library,
                                                  monkeypatch):
    """The real per-edge re-budgeting hook, through every relaxation."""
    import repro.core.slack_scheduler as slack_scheduler

    runs = []
    for scheduler in (try_list_schedule, try_list_schedule_reference):
        attempts = []

        def recording(*args, _scheduler=scheduler, _attempts=attempts,
                      **kwargs):
            attempt = _scheduler(*args, **kwargs)
            _attempts.append(signature(attempt))
            return attempt

        monkeypatch.setattr(slack_scheduler, "try_list_schedule", recording)
        try:
            result = slack_scheduler.SlackScheduler(
                design, library, clock, cache=AnalysisCache()).run()
            outcome = (result.rebudget_count, sorted(
                (name, variant) for name, variant in result.variants.items()
                if variant is not None))
        except ReproError as exc:
            outcome = repr(exc)
        runs.append((attempts, outcome))
    assert runs[0][0], "the slack scheduler made no scheduling attempt"
    assert runs[0] == runs[1]
