"""Frozen reference of the round-based incremental area-recovery pass.

This is ``recover_area`` as it stood before candidates were carried across
rounds: every round rescans every instance for slack-covered downgrades,
and every trial snapshots the rows of the instance's states, patches the
cached report in place, checks those states' critical paths and restores the
snapshot on failure.  The exactness tests run it and the production pass on
identical datapaths and require identical results — including the *order*
of ``changed_instances``.  Nothing outside the tests imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.operations import OpKind
from repro.rtl.area_recovery import AreaRecoveryResult
from repro.rtl.datapath import Datapath
from repro.rtl.timing import StateTimingKernel

_EPS = 1e-6


class SnapshotStateTiming:
    """The patch-in-place report with snapshot/restore trial support."""

    def __init__(self, datapath: Datapath, register_margin: float = 0.0):
        self.datapath = datapath
        self._kernel = StateTimingKernel(datapath, register_margin)
        self.report = self._kernel.full_report()

    def recompute_edges(self, edges) -> None:
        report = self.report
        for edge in edges:
            starts, finishes, slacks, critical = self._kernel.state(edge)
            report.op_start.update(starts)
            report.op_finish.update(finishes)
            report.op_slack.update(slacks)
            report.state_critical_path[edge] = critical

    def snapshot(self, edges) -> Dict[str, tuple]:
        report = self.report
        saved = {}
        for edge in edges:
            edge_ops = self._kernel.ops_of(edge)
            saved[edge] = (
                {op: report.op_start[op] for op in edge_ops},
                {op: report.op_finish[op] for op in edge_ops},
                {op: report.op_slack[op] for op in edge_ops},
                report.state_critical_path[edge],
            )
        return saved

    def restore(self, saved: Dict[str, tuple]) -> None:
        report = self.report
        for edge, (starts, finishes, slacks, critical) in saved.items():
            report.op_start.update(starts)
            report.op_finish.update(finishes)
            report.op_slack.update(slacks)
            report.state_critical_path[edge] = critical

    def edges_meet_timing(self, edges, margin: float = 0.0) -> bool:
        limit = self.report.clock_period + abs(margin) + _EPS
        critical = self.report.state_critical_path
        return all(critical.get(edge, 0.0) <= limit for edge in edges)


def reference_candidates(datapath: Datapath, op_slack: Dict[str, float]):
    """Profitable, slack-covered one-grade downgrades, best saving first."""
    library = datapath.library
    candidates = []
    for instance in datapath.binding.instances:
        if not instance.ops:
            continue
        resource_class = library.class_for(
            OpKind(instance.class_key[0]), instance.class_key[1])
        slower = resource_class.next_slower(instance.variant)
        if slower is None:
            continue
        saving = instance.variant.area - slower.area
        if saving <= _EPS:
            continue
        delay_increase = slower.delay - instance.variant.delay
        worst_op_slack = min(op_slack.get(op, 0.0) for op in instance.ops)
        if delay_increase > worst_op_slack + _EPS:
            continue
        candidates.append((saving, instance.name, slower))
    candidates.sort(key=lambda item: (-item[0], item[1]))
    return candidates


def reference_components(datapath: Datapath) -> Dict[str, int]:
    """Connected components of the instance state-sharing graph."""
    parent: Dict[str, str] = {}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:
            parent[name], name = root, parent[name]
        return root

    edge_owner: Dict[str, str] = {}
    for instance in datapath.binding.instances:
        parent[instance.name] = instance.name
        for edge in datapath.instance_edges(instance.name):
            owner = edge_owner.setdefault(edge, instance.name)
            if owner != instance.name:
                parent[find(owner)] = find(instance.name)

    labels: Dict[str, int] = {}
    components: Dict[str, int] = {}
    for instance in datapath.binding.instances:
        root = find(instance.name)
        components[instance.name] = labels.setdefault(root, len(labels))
    return components


def reference_recover_area(datapath: Datapath, register_margin: float = 0.0,
                           max_rounds: int = 1000) -> AreaRecoveryResult:
    """Round-based recovery with a full candidate rescan per round."""
    area_before = datapath.binding.total_fu_area()
    downgrades = 0
    changed: List[str] = []

    analyzer = SnapshotStateTiming(datapath, register_margin=register_margin)
    if analyzer.report.meets_timing():
        components = reference_components(datapath)
        failed_trials: Set[Tuple[str, str]] = set()
        for _ in range(max_rounds):
            candidates = reference_candidates(datapath,
                                              analyzer.report.op_slack)
            touched: Set[int] = set()
            accepted_any = False
            for saving, instance_name, slower in candidates:
                component = components[instance_name]
                if component in touched:
                    continue
                if (instance_name, slower.name) in failed_trials:
                    continue
                instance = datapath.binding.instance_by_name(instance_name)
                edges = datapath.instance_edges(instance_name)
                saved = analyzer.snapshot(edges)
                previous = instance.variant
                instance.variant = slower
                analyzer.recompute_edges(edges)
                if analyzer.edges_meet_timing(edges):
                    downgrades += 1
                    if instance_name not in changed:
                        changed.append(instance_name)
                    touched.add(component)
                    accepted_any = True
                else:
                    instance.variant = previous
                    analyzer.restore(saved)
                    failed_trials.add((instance_name, slower.name))
            if not accepted_any:
                break

    return AreaRecoveryResult(
        downgrades=downgrades,
        area_before=area_before,
        area_after=datapath.binding.total_fu_area(),
        changed_instances=changed,
    )
