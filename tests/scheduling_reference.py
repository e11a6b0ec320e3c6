"""Frozen reference implementations of the scheduling hot paths.

These are the straightforward versions of the span computation and the list
scheduler that the optimised code in ``src/`` replaced.  The exactness tests
run both on the same inputs and require identical results; nothing outside
the tests imports this module.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans, SpanInfo
from repro.errors import TimingError
from repro.ir.design import Design
from repro.ir.operations import OpKind
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.sched.allocation import Allocation, ClassKey, resource_class_key
from repro.sched.list_scheduler import SchedulingAttempt, SchedulingFailure
from repro.sched.priorities import mobility_priority
from repro.sched.schedule import Schedule

_EPS = 1e-6
_MISSING = object()


def reference_spans(
    design: Design,
    latency: LatencyAnalysis,
    pinned: Optional[Mapping[str, str]] = None,
    not_before: Optional[str] = None,
    strict_io_successors: bool = False,
) -> Dict[str, SpanInfo]:
    """Every operation's span, by the unmemoized early/late/edges rules."""
    dfg, cfg = design.dfg, design.cfg
    pinned = dict(pinned or {})
    reach = latency._reach_set
    floor = latency.edge_order(not_before) if not_before is not None else None
    order = dfg.topological_order()

    def candidate_edges(birth: str, respect_floor: bool):
        edges = [edge for edge in latency._forward_edges_ordered()
                 if latency.control_compatible(edge, birth)]
        if respect_floor and floor is not None:
            edges = [edge for edge in edges if latency.edge_order(edge) >= floor]
        return edges

    records = {}
    for name in order:
        op = dfg.op(name)
        birth = op.birth_edge
        if birth is None or not cfg.has_edge(birth):
            raise TimingError(f"operation {name!r} has a bad birth edge")
        preds = tuple(p for p in dfg.predecessors(name)
                      if dfg.op(p).kind is not OpKind.CONST)
        succs = tuple((s, dfg.op(s).is_fixed) for s in dfg.successors(name))
        late_fixed = op.is_fixed or bool(op.attrs.get("branch_condition"))
        records[name] = (birth, op.is_fixed, late_fixed, preds, succs)

    early: Dict[str, str] = {}
    late: Dict[str, str] = {}
    for name in order:
        birth, early_fixed, _, preds, _ = records[name]
        if name in pinned:
            early[name] = pinned[name]
            continue
        if early_fixed:
            early[name] = birth
            continue
        chosen = None
        for edge in candidate_edges(birth, respect_floor=True):
            if all(edge in reach(early[pred]) for pred in preds):
                chosen = edge
                break
        if chosen is None:
            raise TimingError(
                f"operation {name!r} has no feasible early edge "
                f"(birth {birth!r}); the design is structurally infeasible")
        early[name] = chosen

    for name in reversed(order):
        birth, _, late_fixed, _, succs = records[name]
        if name in pinned:
            late[name] = pinned[name]
            continue
        if late_fixed:
            late[name] = birth
            continue
        early_reach = reach(early[name])
        chosen = None
        for edge in reversed(candidate_edges(birth, respect_floor=False)):
            if edge not in early_reach:
                continue
            ok = True
            for succ_name, succ_fixed in succs:
                succ_late = late[succ_name]
                if succ_fixed and strict_io_successors:
                    if edge == succ_late or succ_late not in reach(edge):
                        ok = False
                        break
                elif succ_late not in reach(edge):
                    ok = False
                    break
            if ok:
                chosen = edge
                break
        late[name] = chosen if chosen is not None else early[name]

    spans = {}
    for name in order:
        if name in pinned:
            edges = (pinned[name],)
        else:
            early_reach = reach(early[name])
            edges = tuple(
                edge for edge in candidate_edges(records[name][0], False)
                if edge in early_reach and late[name] in reach(edge)
            ) or (early[name],)
        spans[name] = SpanInfo(op=name, early=early[name], late=late[name],
                               edges=edges)
    return spans


def try_list_schedule_reference(
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
    """The list scheduler as it was before the worklist rewrite."""
    latency = latency or LatencyAnalysis(design.cfg)
    spans = spans or OperationSpans(design, latency=latency)
    priority = priority or mobility_priority(spans)
    pipeline_ii = pipeline_ii or design.pipeline_ii

    dfg = design.dfg
    schedule = Schedule(design, clock_period)
    budget = clock_period - timing_margin

    pending = {op.name for op in dfg.operations if op.kind is not OpKind.CONST}
    # Operations are only ever removed from ``pending`` during a pass, so one
    # up-front sort fixes the deterministic scan order for the whole pass:
    # filtering the sorted list by membership yields exactly ``sorted(pending)``.
    pending_order = sorted(pending)
    # Non-constant data predecessors, resolved once per pass.  Constant
    # predecessors are never scheduled (they are excluded from ``pending``),
    # so every consumer below — the ready check, the chained-start scan and
    # the chain-driver walk — only ever observes the non-constant ones.
    preds_map = {
        name: tuple(p for p in dfg.predecessors(name)
                    if dfg.op(p).kind is not OpKind.CONST)
        for name in pending_order
    }
    class_keys: Dict[str, Optional[ClassKey]] = {}
    usage: Dict[Tuple[int, ClassKey], int] = {}
    edge_order = latency.forward_edge_names
    edge_step = {name: index for index, name in enumerate(edge_order)}
    mod_ii = pipeline_ii if pipeline_ii is not None and pipeline_ii >= 1 else None

    def class_key_of(name: str) -> Optional[ClassKey]:
        key = class_keys.get(name, _MISSING)
        if key is _MISSING:
            key = resource_class_key(dfg.op(name), library)
            class_keys[name] = key
        return key

    for edge_name in edge_order:
        step = edge_step[edge_name]
        slot_step = step % mod_ii if mod_ii is not None else step
        # Drop already-scheduled names; membership filtering preserves the
        # deterministic sorted order.
        pending_order = [n for n in pending_order if n in pending]
        # Spans only change in the post-edge hook, so which pending operations
        # may sit on this edge is fixed for the whole edge — only readiness
        # (predecessors leaving ``pending``) evolves between rounds.
        span_of = spans.span
        eligible = []
        for name in pending_order:
            info = span_of(name)
            if edge_name in info.edges:
                eligible.append((name, info))
        progressed = bool(eligible)
        while progressed:
            progressed = False
            ready = []
            for name, info in eligible:
                if name not in pending:
                    continue
                if any(p in pending for p in preds_map[name]):
                    continue
                ready.append((name, info))
            # Operations on the last edge of their span must go first: deferring
            # them is impossible, so they get priority over movable ones.
            ready.sort(key=lambda item: (0 if item[1].late == edge_name else 1,
                                         priority(item[0])))
            for name, info in ready:
                op = dfg.op(name)
                variant = variant_map.get(name)
                delay = library.operation_delay(op, variant)
                start = 0.0
                for pred in preds_map[name]:
                    pred_item = schedule.get(pred)
                    if (pred_item is not None and pred_item.edge == edge_name
                            and pred_item.finish > start):
                        start = pred_item.finish
                finish = start + delay
                fits_timing = finish <= budget + _EPS
                last_chance = (edge_name == info.late)
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
                    if slot is not None:
                        usage[slot] = usage.get(slot, 0) + 1
                    progressed = True
                elif last_chance:
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
                        # Identify the chain driver: walk up the same-state
                        # combinational chain to its head — the operation that
                        # was deferred onto this state by resource scarcity —
                        # and report its class so relaxation can add one.
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
                            blocking_key = resource_class_key(dfg.op(current),
                                                              library)
                    return SchedulingAttempt(
                        success=False,
                        failure=SchedulingFailure(op=name, edge=edge_name,
                                                  reason=reason, class_key=key,
                                                  blocking_class_key=blocking_key,
                                                  detail=detail),
                    )
        if post_edge_hook is not None and pending:
            update = post_edge_hook(edge_name, schedule, frozenset(pending))
            if update is not None:
                new_spans, new_variants, new_priority = update
                if new_spans is not None:
                    spans = new_spans
                if new_variants is not None:
                    variant_map = new_variants
                if new_priority is not None:
                    priority = new_priority
        # Any pending operation whose span ends here but never became ready
        # (its predecessors are stuck) is a hard failure.
        span_of = spans.span
        for name in pending_order:
            if name in pending and span_of(name).late == edge_name:
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
