"""Operation spans (paper Section IV, Definition 4).

The *opSpan* of an operation is the topologically ordered set of CFG edges it
may legally be scheduled on.  Its first element is the *early* edge, its last
the *late* edge.  The rules implemented here (and spelled out in DESIGN.md)
are:

* Fixed operations (port I/O, or anything marked ``fixed``) may only be
  scheduled on their birth edge.
* An operation may be *hoisted* above a branch (speculation) — to an edge
  that dominates its birth edge — or *sunk* below a join — to an edge that
  post-dominates its birth edge — but never moved sideways into a different
  branch.
* The early edge is the first control-compatible edge reachable from the
  early edge of every (non-constant) data predecessor.
* The late edge is the last control-compatible edge from which the late edge
  of every data successor is still reachable.  With
  ``strict_io_successors=True`` reachability is strict when the successor is
  a fixed I/O operation (the operation's result must be registered before
  the protocol-fixed cycle instead of chaining combinationally into it).
* Operations flagged ``branch_condition`` resolve a CFG branch and therefore
  cannot be postponed past their birth edge.

The paper is not fully self-consistent about chaining into fixed I/O
operations: its Fig. 2 schedules chain the final addition into the state of
the output write, while its Table 3 requires ``late(mux) = e6`` (one state
before the write).  Both behaviours are supported; the default
(``strict_io_successors=False``) matches the scheduling figures and the
flows, while the strict setting reproduces every Table 3 recurrence
verbatim (see ``tests/test_table3_closed_forms.py``).  Early edges —
``span(div)`` starting at ``e1``, ``early(mul) = e5``, ``early(mux) = e6``,
``span(wr) = {e7}`` — are reproduced in both modes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import TimingError
from repro.ir.design import Design
from repro.ir.operations import OpKind
from repro.core.latency import LatencyAnalysis

_MISSING = object()


@dataclass(frozen=True)
class SpanInfo:
    """The opSpan of one operation."""

    op: str
    early: str
    late: str
    edges: tuple

    @property
    def is_fixed(self) -> bool:
        """True when the operation has a single legal edge."""
        return len(self.edges) == 1

    def __contains__(self, edge_name: str) -> bool:
        return edge_name in self.edges

    def __len__(self) -> int:
        return len(self.edges)


class _SpanTemplate:
    """Interned pinned-independent skeleton of the span computation.

    The slack-guided scheduler rebuilds ``OperationSpans(pinned=...)`` after
    every scheduled edge, but the DFG topological order, the per-operation
    birth/fixedness/predecessor/successor records and the control-compatible
    candidate-edge lists only depend on the design and its latency analysis —
    so they are resolved once here and shared by every pinned rebuild.

    Each rule of the span computation is a pure function of a small key,
    so the template also memoizes all three across rebuilds:

    * the early edge of ``(birth, floor, predecessor earlies)``;
    * the late edge of ``(strict flag, birth, early, successor fixedness,
      successor lates)``;
    * the whole :class:`SpanInfo` (span edges included) of ``(operation,
      early, late)``.

    The memos are bounded: when their total size reaches
    :data:`_MAX_SPAN_MEMO` entries all three are emptied.
    """

    __slots__ = ("shape", "order", "records", "nofloor",
                 "early_memo", "late_memo", "info_memo")

    def __init__(self, design: Design, latency: LatencyAnalysis):
        dfg = design.dfg
        cfg = design.cfg
        self.shape = (cfg.num_nodes, cfg.num_edges,
                      dfg.num_operations, dfg.num_edges)
        self.order: List[str] = dfg.topological_order()
        # name -> (birth, early_fixed, late_fixed, pred_names, succ_names,
        #          succ_fixedness)
        self.records: Dict[str, tuple] = {}
        # birth edge -> control-compatible forward edges in topological order
        # (no not_before floor applied).
        self.nofloor: Dict[str, List[str]] = {}
        self.early_memo: Dict[tuple, Optional[str]] = {}
        self.late_memo: Dict[tuple, str] = {}
        self.info_memo: Dict[tuple, SpanInfo] = {}
        ordered_edges = latency._forward_edges_ordered()
        compatible = latency.control_compatible
        for name in self.order:
            op = dfg.op(name)
            birth = op.birth_edge
            if birth is None:
                raise TimingError(f"operation {name!r} has no birth edge")
            if not cfg.has_edge(birth):
                raise TimingError(
                    f"operation {name!r} born on unknown edge {birth!r}"
                )
            if birth not in self.nofloor:
                self.nofloor[birth] = [
                    edge for edge in ordered_edges if compatible(edge, birth)
                ]
            preds = tuple(
                pred_name for pred_name in dfg.predecessors(name)
                if dfg.op(pred_name).kind is not OpKind.CONST
            )
            succs = tuple(dfg.successors(name))
            succ_fixed = tuple(dfg.op(succ).is_fixed for succ in succs)
            late_fixed = op.is_fixed or bool(op.attrs.get("branch_condition"))
            self.records[name] = (birth, op.is_fixed, late_fixed,
                                  preds, succs, succ_fixed)

    def memo_entries(self) -> int:
        return (len(self.early_memo) + len(self.late_memo)
                + len(self.info_memo))

    def trim(self) -> None:
        """Empty the rule memos once they reach their bound."""
        if self.memo_entries() >= _MAX_SPAN_MEMO:
            self.early_memo.clear()
            self.late_memo.clear()
            self.info_memo.clear()


_SPAN_TEMPLATE_LOCK = threading.Lock()
_SPAN_TEMPLATES: "OrderedDict" = OrderedDict()
_MAX_SPAN_TEMPLATES = 128
#: Bound on the rule-memo entries of one template (all three memos).
_MAX_SPAN_MEMO = 32768
_span_template_hits = 0
_span_template_misses = 0


def _span_template(design: Design, latency: LatencyAnalysis) -> _SpanTemplate:
    """The interned :class:`_SpanTemplate` of ``(design, latency)``.

    Keyed by object identity tokens with an O(1) shape guard (same contract
    as :func:`repro.core.analysis_cache.design_fingerprint`): structural
    growth or shrinkage after first use is detected and re-interned, but
    count-preserving in-place edits are not — run IR transforms before
    handing a design to the analyses.
    """
    global _span_template_hits, _span_template_misses
    from repro.core.analysis_cache import _object_token

    key = (_object_token(design), _object_token(latency))
    shape = (design.cfg.num_nodes, design.cfg.num_edges,
             design.dfg.num_operations, design.dfg.num_edges)
    with _SPAN_TEMPLATE_LOCK:
        template = _SPAN_TEMPLATES.get(key)
        if template is not None and template.shape == shape:
            _SPAN_TEMPLATES.move_to_end(key)
            _span_template_hits += 1
            return template
        _span_template_misses += 1
    template = _SpanTemplate(design, latency)
    with _SPAN_TEMPLATE_LOCK:
        _SPAN_TEMPLATES[key] = template
        _SPAN_TEMPLATES.move_to_end(key)
        while len(_SPAN_TEMPLATES) > _MAX_SPAN_TEMPLATES:
            _SPAN_TEMPLATES.popitem(last=False)
    return template


def span_template_info() -> Dict[str, int]:
    """Hit/miss/size counters of the template LRU and its rule memos."""
    with _SPAN_TEMPLATE_LOCK:
        return {
            "hits": _span_template_hits,
            "misses": _span_template_misses,
            "size": len(_SPAN_TEMPLATES),
            "maxsize": _MAX_SPAN_TEMPLATES,
            "memo_entries": sum(template.memo_entries()
                                for template in _SPAN_TEMPLATES.values()),
            "memo_maxsize": _MAX_SPAN_MEMO,
        }


class OperationSpans:
    """Computes and stores the opSpan of every operation of a design.

    Parameters
    ----------
    design:
        The design to analyse.
    latency:
        Optional pre-built :class:`LatencyAnalysis` (shared across passes).
    pinned:
        Optional mapping ``op name -> CFG edge`` of operations already
        scheduled; their span collapses to that single edge.  Used by the
        slack-guided scheduler when it recomputes spans after every edge.
    not_before:
        Optional CFG edge name; unscheduled operations may not be placed on
        edges that precede it in topological order (the scheduler has already
        passed those edges).
    strict_io_successors:
        When True, an operation feeding a fixed I/O operation must complete
        in an earlier state (no combinational chaining into the I/O edge).
    """

    def __init__(
        self,
        design: Design,
        latency: Optional[LatencyAnalysis] = None,
        pinned: Optional[Dict[str, str]] = None,
        not_before: Optional[str] = None,
        strict_io_successors: bool = False,
    ):
        self.design = design
        self.latency = latency or LatencyAnalysis(design.cfg)
        self.strict_io_successors = strict_io_successors
        self._pinned = dict(pinned or {})
        self._not_before_pos = (
            self.latency.edge_order(not_before) if not_before is not None else None
        )
        self._spans: Dict[str, SpanInfo] = {}
        self._candidate_memo: Dict[Tuple[str, bool], List[str]] = {}
        self._template = _span_template(design, self.latency)
        self._compute()

    # -- computation -------------------------------------------------------------

    def _candidate_edges(self, birth_edge: str, respect_floor: bool) -> List[str]:
        """Control-compatible edges for an op born on ``birth_edge``.

        The floor-free lists come from the interned :class:`_SpanTemplate`;
        only the ``not_before`` filter is per-instance, memoized here.  The
        cached lists are shared; callers must not mutate them.
        """
        key = (birth_edge, respect_floor)
        cached = self._candidate_memo.get(key)
        if cached is not None:
            return cached
        edges = self._template.nofloor.get(birth_edge)
        if edges is None:
            edges = [
                edge for edge in self.latency._forward_edges_ordered()
                if self.latency.control_compatible(edge, birth_edge)
            ]
        if respect_floor and self._not_before_pos is not None:
            floor = self._not_before_pos
            order = self.latency.edge_order
            edges = [edge for edge in edges if order(edge) >= floor]
        self._candidate_memo[key] = edges
        return edges

    def _compute(self) -> None:
        # The reach sets make every reachability question a set-membership
        # test (each set contains its own source edge, so the non-strict
        # queries need no equality special case).
        reach = self.latency._reach_set
        pinned = self._pinned
        template = self._template
        template.trim()
        records = template.records
        order = template.order
        early_memo = template.early_memo
        late_memo = template.late_memo
        info_memo = template.info_memo
        floor = self._not_before_pos
        strict_io = self.strict_io_successors
        candidate_edges = self._candidate_edges
        early: Dict[str, str] = {}
        late: Dict[str, str] = {}

        # Forward pass: early edges.
        for name in order:
            birth, early_fixed, _, preds, _, _ = records[name]
            pinned_edge = pinned.get(name)
            if pinned_edge is not None:
                early[name] = pinned_edge
                continue
            if early_fixed:
                early[name] = birth
                continue
            pred_earlies = tuple([early[pred] for pred in preds])
            key = (birth, floor, pred_earlies)
            chosen = early_memo.get(key, _MISSING)
            if chosen is _MISSING:
                chosen = self._early_rule(birth, pred_earlies)
                early_memo[key] = chosen
            if chosen is None:
                raise TimingError(
                    f"operation {name!r} has no feasible early edge "
                    f"(birth {birth!r}); the design is structurally infeasible"
                )
            early[name] = chosen

        # Backward pass: late edges.
        for name in reversed(order):
            birth, _, late_fixed, _, succs, succ_fixed = records[name]
            pinned_edge = pinned.get(name)
            if pinned_edge is not None:
                late[name] = pinned_edge
                continue
            if late_fixed:
                late[name] = birth
                continue
            early_name = early[name]
            succ_lates = tuple([late[succ] for succ in succs])
            key = (strict_io, birth, early_name, succ_fixed, succ_lates)
            chosen = late_memo.get(key)
            if chosen is None:
                chosen = self._late_rule(birth, early_name, succ_lates,
                                         succ_fixed)
                late_memo[key] = chosen
            late[name] = chosen

        # Assemble span sets.  A pinned span is the one-edge span of an
        # operation whose early and late edges coincide, so it shares the
        # memo.
        spans = self._spans
        for name in order:
            key = (name, early[name], late[name])
            info = info_memo.get(key)
            if info is None:
                early_name, late_name = key[1], key[2]
                early_reach = reach(early_name)
                edges = tuple(
                    edge for edge in candidate_edges(records[name][0],
                                                     respect_floor=False)
                    if edge in early_reach and late_name in reach(edge)
                ) or (early_name,)
                info = SpanInfo(op=name, early=early_name, late=late_name,
                                edges=edges)
                info_memo[key] = info
            spans[name] = info

    def _early_rule(self, birth: str, pred_earlies: tuple) -> Optional[str]:
        """The first floor-respecting candidate edge reachable from every
        predecessor's early edge, or None when there is none."""
        pred_reach = [self.latency._reach_set(edge) for edge in pred_earlies]
        for edge in self._candidate_edges(birth, respect_floor=True):
            if all(edge in reachable for reachable in pred_reach):
                return edge
        return None

    def _late_rule(self, birth: str, early_name: str, succ_lates: tuple,
                   succ_fixed: tuple) -> str:
        """The last candidate edge after ``early_name`` from which every
        successor's late edge is still reachable (strictly, for fixed I/O
        successors under ``strict_io_successors``); the early edge if none."""
        reach = self.latency._reach_set
        strict_io = self.strict_io_successors
        early_reach = reach(early_name)
        for edge in reversed(self._candidate_edges(birth, respect_floor=False)):
            if edge not in early_reach:
                continue
            edge_reach = reach(edge)
            ok = True
            for succ_late, fixed in zip(succ_lates, succ_fixed):
                if succ_late not in edge_reach or (
                        fixed and strict_io and edge == succ_late):
                    ok = False
                    break
            if ok:
                return edge
        # Fall back to the early edge: the operation has no mobility.
        return early_name

    # -- queries --------------------------------------------------------------------

    def span(self, op_name: str) -> SpanInfo:
        try:
            return self._spans[op_name]
        except KeyError:
            raise TimingError(f"no span computed for operation {op_name!r}") from None

    def early(self, op_name: str) -> str:
        return self.span(op_name).early

    def late(self, op_name: str) -> str:
        return self.span(op_name).late

    def edges(self, op_name: str) -> List[str]:
        return list(self.span(op_name).edges)

    def all_spans(self) -> Dict[str, SpanInfo]:
        return dict(self._spans)

    def mobility(self, op_name: str) -> int:
        """Number of states the operation can move across (span latency)."""
        info = self.span(op_name)
        value = self.latency.latency(info.early, info.late)
        return 0 if value is None else value

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"OperationSpans({len(self._spans)} operations)"
