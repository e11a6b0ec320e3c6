"""Incrementally patchable per-state timing analysis.

:func:`repro.rtl.timing.analyze_state_timing` recomputes the combinational
chains of *every* state.  During area recovery that is wasteful: a trial
downgrade of one functional-unit instance only changes the delays of the
operations bound to that instance, and combinational chains never cross a
state boundary, so only the states the instance participates in can change.
:class:`IncrementalStateTiming` exploits that: it holds a cached
:class:`~repro.rtl.timing.StateTimingReport` and re-runs the shared interned
per-state kernel (:class:`repro.rtl.timing.StateTimingKernel`) over exactly
those states — looked up via the
:meth:`repro.rtl.datapath.Datapath.instance_edges` index.

:meth:`~IncrementalStateTiming.evaluate` returns fresh rows of some states
without touching the report and :meth:`~IncrementalStateTiming.commit`
splices rows in, so a trial commits only on success and a rejected trial
leaves nothing to revert.

Because the full analysis and the patch path execute the same kernel (same
float operations, same order) over per-state op lists that are disjoint
between states, a patched report is *bit-for-bit equal* to a full recompute
— asserted against :func:`analyze_state_timing` in the test suite.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.rtl.datapath import Datapath
from repro.rtl.timing import StateTimingKernel, StateTimingReport

#: edge -> (op_start, op_finish, op_slack, critical_path), per kernel state.
StateRows = Dict[str, Tuple[Dict[str, float], Dict[str, float],
                            Dict[str, float], float]]


class IncrementalStateTiming:
    """A state-timing report that can be patched per FU-instance change.

    Parameters
    ----------
    datapath:
        The datapath to analyse.  The schedule and the binding structure
        (which operations live on which instance) must not change for the
        lifetime of this object; instance *variants* may change freely as
        long as every committed change is reported via :meth:`patch_instance`
        (or the affected edges are re-synced via :meth:`recompute_edges`).
    register_margin:
        Same meaning as in :func:`analyze_state_timing`.
    """

    def __init__(self, datapath: Datapath, register_margin: float = 0.0):
        self.datapath = datapath
        self.register_margin = register_margin
        self._kernel = StateTimingKernel(datapath, register_margin)
        self.report: StateTimingReport = self._kernel.full_report()

    def instance_edges(self, instance_name: str) -> FrozenSet[str]:
        """The states a variant change of ``instance_name`` can affect."""
        return self.datapath.instance_edges(instance_name)

    def evaluate(self, edges: Iterable[str]) -> StateRows:
        """Fresh rows of ``edges`` under the current variants.

        The report is left untouched.  Unknown edges raise
        :class:`~repro.errors.TimingError`.
        """
        state = self._kernel.state
        return {edge: state(edge) for edge in edges}

    def commit(self, rows: StateRows) -> List[str]:
        """Splice ``rows`` into the report; returns the operations whose
        slack changed (float ``!=``)."""
        report = self.report
        op_slack = report.op_slack
        changed: List[str] = []
        for edge, (starts, finishes, slacks, critical) in rows.items():
            changed.extend(op for op, slack in slacks.items()
                           if op_slack[op] != slack)
            report.op_start.update(starts)
            report.op_finish.update(finishes)
            op_slack.update(slacks)
            report.state_critical_path[edge] = critical
        return changed

    def recompute_edges(self, edges: Iterable[str]) -> None:
        """Re-run the per-state kernel over ``edges`` and patch the report."""
        self.commit(self.evaluate(edges))

    def patch_instance(self, instance_name: str) -> FrozenSet[str]:
        """Resync the report after ``instance_name`` changed variant.

        Returns the set of edges that were recomputed.
        """
        edges = self.instance_edges(instance_name)
        self.recompute_edges(edges)
        return edges
