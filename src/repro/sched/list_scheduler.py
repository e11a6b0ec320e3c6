"""Resource- and timing-constrained list scheduling over CFG edges.

This is the ``Schedule_pass`` of the paper's Fig. 8 (without the re-budgeting
steps, which the slack-guided scheduler adds on top):

* CFG edges are visited in topological order;
* on each edge, *ready* operations (all data predecessors scheduled, edge
  inside the operation's span) are scheduled in priority order as long as
  both the per-state resource limits and the clock period (with operation
  chaining) allow it;
* an operation that reaches the last edge of its span without being
  scheduled makes the pass fail, with a structured diagnostic (which
  operation, which edge, whether resources or timing were the bottleneck)
  that the relaxation "expert system" uses to decide how to relax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import SchedulingError
from repro.ir.design import Design
from repro.ir.operations import OpKind
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.sched.allocation import Allocation, ClassKey, resource_class_key
from repro.sched.priorities import PriorityFn, mobility_priority
from repro.sched.schedule import Schedule

_EPS = 1e-6
_MISSING = object()


@dataclass
class SchedulingFailure:
    """Structured diagnostic of a failed scheduling pass.

    ``blocking_class_key`` names the resource class of the same-state chain
    predecessor that pushed the failing operation past the clock period (the
    class whose shortage deferred the chain this late); the relaxation loop
    adds an instance of that class when grade upgrades cannot help.
    """

    op: str
    edge: str
    reason: str  # "resource" | "timing" | "unreachable"
    class_key: Optional[ClassKey] = None
    blocking_class_key: Optional[ClassKey] = None
    detail: str = ""

    def __str__(self):  # pragma: no cover - cosmetic
        return (f"cannot schedule {self.op!r} on edge {self.edge!r} "
                f"({self.reason}): {self.detail}")


@dataclass
class SchedulingAttempt:
    """Result of one scheduling pass: either a schedule or a failure."""

    success: bool
    schedule: Optional[Schedule] = None
    failure: Optional[SchedulingFailure] = None

    def require_schedule(self) -> Schedule:
        if not self.success or self.schedule is None:
            raise SchedulingError(str(self.failure) if self.failure
                                  else "scheduling failed")
        return self.schedule


def try_list_schedule(
    design: Design,
    library: Library,
    clock_period: float,
    variant_map: Mapping[str, Optional[ResourceVariant]],
    allocation: Allocation,
    spans: Optional[OperationSpans] = None,
    latency: Optional[LatencyAnalysis] = None,
    priority: Optional[PriorityFn] = None,
    pipeline_ii: Optional[int] = None,
    timing_margin: float = 0.0,
    post_edge_hook=None,
    upgrade_on_last_chance: bool = False,
) -> SchedulingAttempt:
    """One resource-constrained list-scheduling pass.

    ``variant_map`` fixes the speed grade of every synthesizable operation
    (fastest grades for the conventional flow, budgeted grades for the
    slack-based flow).  ``allocation`` limits how many operations of a class
    may execute in the same state (or the same II-congruent state group).

    ``post_edge_hook(edge_name, schedule, pending)`` is called after every
    CFG edge has been processed.  It may return ``None`` (no change) or a
    ``(spans, variant_map, priority)`` triple that replaces the analyses used
    for the remaining edges — this is how the slack-guided scheduler injects
    its re-budgeting step (the bold steps of the paper's Fig. 8) without
    duplicating the scheduling engine.

    ``upgrade_on_last_chance`` enables the "upgrade on the fly" move: when an
    operation reaches the last edge of its span and its chained delay does
    not fit, its own speed grade is raised just enough to fit before giving
    up.  When ``variant_map`` is a mutable dict the upgrade is recorded in it
    so callers see the final grades.
    """
    latency = latency or LatencyAnalysis(design.cfg)
    spans = spans or OperationSpans(design, latency=latency)
    priority = priority or mobility_priority(spans)
    pipeline_ii = pipeline_ii or design.pipeline_ii

    dfg = design.dfg
    schedule = Schedule(design, clock_period)
    budget = clock_period - timing_margin

    # Per-pass tables.  Constants are never scheduled, so every consumer
    # below — readiness, chained starts, the chain-driver walk — only sees
    # the non-constant predecessors.
    ops = {op.name: op for op in dfg.operations if op.kind is not OpKind.CONST}
    pending = set(ops)
    # Operations only ever leave ``pending``, so one up-front sort fixes the
    # deterministic scan order for the whole pass.
    pending_order = sorted(pending)
    preds_map = {name: tuple(p for p in dfg.predecessors(name) if p in ops)
                 for name in pending_order}
    succs_map: Dict[str, List[str]] = {name: [] for name in pending_order}
    for name in pending_order:
        for pred in preds_map[name]:
            succs_map[pred].append(name)
    # Predecessors still pending, per operation: ready means zero.
    waiting = {name: len(preds) for name, preds in preds_map.items()}
    class_keys: Dict[str, Optional[ClassKey]] = {}
    delays: Dict[str, Tuple[Optional[ResourceVariant], float]] = {}
    usage: Dict[Tuple[int, ClassKey], int] = {}
    edge_order = latency.forward_edge_names
    mod_ii = pipeline_ii if pipeline_ii is not None and pipeline_ii >= 1 else None

    def class_key_of(name: str) -> Optional[ClassKey]:
        key = class_keys.get(name, _MISSING)
        if key is _MISSING:
            key = resource_class_key(ops[name], library)
            class_keys[name] = key
        return key

    def delay_of(name: str, variant: Optional[ResourceVariant]) -> float:
        cached = delays.get(name)
        if cached is None or cached[0] is not variant:
            cached = (variant, library.operation_delay(ops[name], variant))
            delays[name] = cached
        return cached[1]

    for step, edge_name in enumerate(edge_order):
        slot_step = step % mod_ii if mod_ii is not None else step
        pending_order = [n for n in pending_order if n in pending]
        # Spans only change in the post-edge hook, so which pending operations
        # may sit on this edge, and which of them are on their last chance,
        # is fixed for the whole edge.
        span_map = spans.all_spans()
        eligible: Dict[str, int] = {}
        last_chance_of: Dict[str, bool] = {}
        for name in pending_order:
            info = span_map[name]
            if edge_name in info.edges:
                eligible[name] = len(eligible)
                last_chance_of[name] = info.late == edge_name
        # Worklist rounds.  An operation is evaluated once per edge: within
        # an edge its chained start is fixed (its predecessors are all
        # scheduled) and ``usage`` only grows, so one that fails while not
        # on its last chance fails again in every later round — and one
        # that fails on its last chance ends the pass.  Round ``r + 1``
        # therefore holds exactly the operations whose last pending
        # predecessor was scheduled in round ``r``, and each operation's
        # priority is computed once per edge.
        ready = [name for name in eligible if waiting[name] == 0]
        finish_on_edge: Dict[str, float] = {}
        while ready:
            # Operations on the last edge of their span must go first:
            # deferring them is impossible, so they get priority over movable
            # ones.  The eligible position last makes this the stable sort of
            # the name-ordered ready list.
            ready.sort(key=lambda name: (0 if last_chance_of[name] else 1,
                                         priority(name), eligible[name]))
            next_ready: List[str] = []
            for name in ready:
                op = ops[name]
                variant = variant_map.get(name)
                delay = delay_of(name, variant)
                start = 0.0
                for pred in preds_map[name]:
                    pred_finish = finish_on_edge.get(pred)
                    if pred_finish is not None and pred_finish > start:
                        start = pred_finish
                finish = start + delay
                fits_timing = finish <= budget + _EPS
                last_chance = last_chance_of[name]
                if (not fits_timing and last_chance and upgrade_on_last_chance
                        and variant is not None and op.is_synthesizable):
                    # Upgrade on the fly: take the cheapest grade that fits.
                    resource_class = library.class_for_op(op)
                    faster = resource_class.cheapest_within(budget - start)
                    if faster.delay < variant.delay:
                        variant = faster
                        delay = faster.delay
                        finish = start + delay
                        fits_timing = finish <= budget + _EPS
                        if isinstance(variant_map, dict):
                            variant_map[name] = faster
                key = class_key_of(name)
                slot = (slot_step, key) if key is not None else None
                fits_resource = (key is None or
                                 usage.get(slot, 0) < allocation.limit(key))
                if fits_timing and fits_resource:
                    schedule.assign(name, edge_name, step, start, finish, variant)
                    pending.discard(name)
                    finish_on_edge[name] = finish
                    if slot is not None:
                        usage[slot] = usage.get(slot, 0) + 1
                    for succ in succs_map[name]:
                        waiting[succ] -= 1
                        if waiting[succ] == 0 and succ in eligible:
                            next_ready.append(succ)
                elif last_chance:
                    return SchedulingAttempt(
                        success=False,
                        failure=_failure(design, library, allocation, schedule,
                                         preds_map, name, edge_name, step, key,
                                         fits_resource, start, delay, budget),
                    )
            ready = next_ready
        if post_edge_hook is not None and pending:
            update = post_edge_hook(edge_name, schedule, frozenset(pending))
            if update is not None:
                new_spans, new_variants, new_priority = update
                if new_spans is not None:
                    spans = new_spans
                    span_map = spans.all_spans()
                if new_variants is not None:
                    variant_map = new_variants
                if new_priority is not None:
                    priority = new_priority
                    span_map = spans.all_spans()
        # Any pending operation whose span ends here but never became ready
        # (its predecessors are stuck) is a hard failure.
        for name in pending_order:
            if name in pending and span_map[name].late == edge_name:
                return SchedulingAttempt(
                    success=False,
                    failure=SchedulingFailure(
                        op=name, edge=edge_name, reason="unreachable",
                        class_key=resource_class_key(dfg.op(name), library),
                        detail="operation never became ready before the end of "
                               "its span (a predecessor could not be scheduled)",
                    ),
                )

    if pending:
        name = sorted(pending)[0]
        return SchedulingAttempt(
            success=False,
            failure=SchedulingFailure(
                op=name, edge=spans.span(name).late, reason="unreachable",
                class_key=resource_class_key(dfg.op(name), library),
                detail="operation left unscheduled after visiting every edge",
            ),
        )
    return SchedulingAttempt(success=True, schedule=schedule)


def _failure(design, library, allocation, schedule, preds_map, name,
             edge_name, step, key, fits_resource, start, delay,
             budget) -> SchedulingFailure:
    """The diagnostic of an operation that cannot go on its last edge."""
    blocking_key = None
    if not fits_resource:
        reason, detail = "resource", (
            f"all {allocation.limit(key)} instance(s) of "
            f"{key[0]}/{key[1]} are busy in step {step}"
        )
    else:
        reason, detail = "timing", (
            f"chained start {start:.1f} ps + delay {delay:.1f} ps "
            f"exceeds the {budget:.1f} ps budget"
        )
        # Identify the chain driver: walk up the same-state combinational
        # chain to its head — the operation that was deferred onto this
        # state by resource scarcity — and report its class so relaxation
        # can add one.
        current = name
        while True:
            chain_pred = None
            latest_finish = -1.0
            for pred in preds_map.get(current, ()):
                pred_item = schedule.get(pred)
                if (pred_item is not None
                        and pred_item.edge == edge_name
                        and pred_item.finish > latest_finish):
                    latest_finish = pred_item.finish
                    chain_pred = pred
            if chain_pred is None:
                break
            current = chain_pred
        if current != name:
            blocking_key = resource_class_key(design.dfg.op(current), library)
    return SchedulingFailure(op=name, edge=edge_name, reason=reason,
                             class_key=key, blocking_class_key=blocking_key,
                             detail=detail)


def list_schedule(
    design: Design,
    library: Library,
    clock_period: float,
    variant_map: Mapping[str, Optional[ResourceVariant]],
    allocation: Allocation,
    **kwargs,
) -> Schedule:
    """Like :func:`try_list_schedule` but raises :class:`SchedulingError` on failure."""
    attempt = try_list_schedule(design, library, clock_period, variant_map,
                                allocation, **kwargs)
    return attempt.require_schedule()
