"""Exactness of the cheap per-edge re-budgeting paths.

The slack-guided scheduler re-budgets after every scheduled CFG edge.  Three
shortcuts make that cheap, and each must be exact, not merely close:

* pinned timed DFGs borrow one per-design :class:`TimedStructure` and only
  compute their weights — the graph must equal ``build_timed_dfg(...)``
  node for node, arc for arc, and give the same arrival and required floats;
* the span rules are memoized on the interned span template — the spans
  must equal an unmemoized computation (``scheduling_reference``);
* a slack evaluator may start from the nearest cached seed of its graph and
  replay the differing delays — its vectors must equal a fresh kernel run.

The designs come from the differential fuzzer's scenario generator (branchy
CFGs, wait states, mixed widths, pipelined draws), and the pinned states are
exactly those the slack scheduler visits, recorded through an injected cache.
``perfbench``'s serve mix compares served results against ``evaluate_point``
from the same build, so it cannot catch a behaviour change; these tests can.
"""

import random

import pytest

from repro.core.analysis_cache import AnalysisCache
from repro.core.delta_slack import DeltaSlackEvaluator, arrival_effective_kernel
from repro.core.graphkit import CompactTimedGraph, arrival_kernel, required_kernel
from repro.core.latency import LatencyAnalysis
from repro.core.opspan import OperationSpans
from repro.core.slack_scheduler import SlackScheduler
from repro.core.timed_dfg import TimedStructure, build_timed_dfg
from repro.errors import ReproError, TimingError
from repro.ir.operations import OpKind
from repro.obs.metrics import counter
from repro.verify.scenarios import scenario_stream
from scheduling_reference import reference_spans

SEEDS = (3, 11)
SCENARIOS_PER_SEED = 10
MAX_STATES = 40


class RecordingCache(AnalysisCache):
    """An analysis cache that remembers every pinned state it is asked for."""

    def __init__(self):
        super().__init__()
        self.states = []

    def pinned_spans_and_timed(self, design, latency, pinned, not_before):
        self.states.append((dict(pinned), not_before))
        return super().pinned_spans_and_timed(design, latency, pinned,
                                              not_before)


def test_scenarios_visit_pinned_states(library):
    visited = [len(_visited_states(param.values[0], library)[3])
               for param in _scenarios()]
    assert sum(1 for count in visited if count) >= len(visited) - 2


def _scenarios():
    for seed in SEEDS:
        for _, spec in scenario_stream(seed, count=SCENARIOS_PER_SEED):
            yield pytest.param(spec, id=f"{spec.name}")


def _visited_states(spec, library):
    """Design, latency and the pinned states the slack scheduler visits."""
    design = spec.design()
    cache = RecordingCache()
    try:
        SlackScheduler(design, library, spec.clock_period,
                       margin_fraction=spec.margin_fraction,
                       pipeline_ii=spec.pipeline_ii, cache=cache).run()
    except ReproError:
        pass  # infeasible draws still visit pinned states first
    latency = cache.artifacts(design).latency
    # Relaxation replays repeat most states; keep the distinct ones, and at
    # most MAX_STATES of them spread over the whole run.
    distinct = {}
    for pinned, not_before in cache.states:
        distinct.setdefault((tuple(sorted(pinned.items())), not_before),
                            (pinned, not_before))
    states = list(distinct.values())
    stride = max(1, len(states) // MAX_STATES)
    return design, latency, cache, states[::stride][:MAX_STATES]


def _delay_vectors(graph, design, library, seed):
    """A few delay vectors: slowest, fastest and random grades per op."""
    ops = {op.name: op for op in design.dfg.operations
           if op.kind is not OpKind.CONST}
    rng = random.Random(seed)
    vectors = []
    for pick in ("slowest", "fastest", "random"):
        delays = {}
        for name, op in ops.items():
            if not op.is_synthesizable:
                delays[name] = library.operation_delay(op)
                continue
            grades = library.class_for_op(op).variants
            variant = {"slowest": grades[-1], "fastest": grades[0]}.get(
                pick) or rng.choice(grades)
            delays[name] = variant.delay
        vectors.append(graph.delay_vector(delays))
    return vectors


def _csr(graph):
    return (list(graph.names), list(graph.succ_indptr), list(graph.succ_dst),
            list(graph.succ_weight), list(graph.pred_indptr),
            list(graph.pred_src), list(graph.pred_weight),
            list(graph.op_indices), list(graph.topo))


@pytest.mark.parametrize("spec", list(_scenarios()))
def test_shared_structure_and_memoized_spans_match_fresh_builds(spec, library):
    design, latency, cache, states = _visited_states(spec, library)
    structure = TimedStructure(design)
    for pinned, not_before in states:
        spans, timed = cache.pinned_spans_and_timed(design, latency, pinned,
                                                    not_before)
        expected = reference_spans(design, latency, pinned, not_before)
        assert list(spans.all_spans().items()) == list(expected.items())

        fresh = build_timed_dfg(design, spans=spans, latency=latency)
        assert timed.node_names() == fresh.node_names()
        assert list(timed.edge_triples()) == list(fresh.edge_triples())
        assert timed.topological_order() == fresh.topological_order()
        assert _csr(timed.compact()) == _csr(fresh.compact())

        for delays in _delay_vectors(fresh.compact(), design, library,
                                     len(pinned)):
            for aligned in (False, True):
                for kernel in (arrival_kernel, required_kernel):
                    assert (kernel(timed.compact(), delays, spec.clock_period,
                                   aligned=aligned)
                            == kernel(fresh.compact(), delays,
                                      spec.clock_period, aligned=aligned))

        # The strict-I/O rule shares the template memos with the default
        # rule; both must still match their unmemoized computation.
        for strict in (True, False):
            try:
                expected = reference_spans(design, latency, pinned,
                                           not_before, strict)
            except TimingError as exc:
                with pytest.raises(TimingError, match=str(exc)[:40]):
                    OperationSpans(design, latency=latency, pinned=pinned,
                                   not_before=not_before,
                                   strict_io_successors=strict)
                continue
            spans = OperationSpans(design, latency=latency, pinned=pinned,
                                   not_before=not_before,
                                   strict_io_successors=strict)
            assert list(spans.all_spans().items()) == list(expected.items())
            try:
                fresh = build_timed_dfg(design, spans=spans, latency=latency)
            except TimingError as exc:
                with pytest.raises(TimingError) as raised:
                    structure.timed("t", spans, latency)
                assert str(raised.value) == str(exc)
                continue
            shared = structure.timed("t", spans, latency)
            assert list(shared.edge_triples()) == list(fresh.edge_triples())
            assert _csr(shared.compact()) == _csr(fresh.compact())


@pytest.mark.parametrize("spec", list(_scenarios()))
def test_nearest_seeded_evaluator_equals_fresh_kernels(spec, library):
    design, latency, cache, states = _visited_states(spec, library)
    patched = counter("delta_seeds.patched")
    rng = random.Random(spec.seed)
    for pinned, not_before in states[:12]:
        _, timed = cache.pinned_spans_and_timed(design, latency, pinned,
                                                not_before)
        # A private reweighted copy, so the seeds start empty.
        graph = timed.compact()
        graph = graph.reweighted([w for _, _, w in timed.edge_triples()])
        base = _delay_vectors(graph, design, library, rng.random())[2]
        ops = list(graph.op_indices)
        DeltaSlackEvaluator(graph, base, spec.clock_period)
        for edits in (1, 2, 5):
            delays = list(base)
            for node in rng.sample(ops, min(edits, len(ops))):
                delays[node] = delays[node] * 0.5 + 7.0
            before = patched.value
            evaluator = DeltaSlackEvaluator(graph, delays, spec.clock_period)
            assert patched.value == before + 1
            assert evaluator.updates == 0
            fresh = CompactTimedGraph(graph.names, [
                (src, graph.succ_dst[slot], graph.succ_weight[slot])
                for src in range(graph.num_nodes)
                for slot in range(graph.succ_indptr[src],
                                  graph.succ_indptr[src + 1])],
                op_indices=graph.op_indices)
            arrival, effective = arrival_effective_kernel(
                fresh, delays, spec.clock_period, True)
            required = required_kernel(fresh, delays, spec.clock_period,
                                       aligned=True)
            assert evaluator.delays == delays
            assert evaluator.arrival == arrival
            assert evaluator.effective == effective
            assert evaluator.required == required


def test_reweighted_graph_shares_structure_and_checks_weights():
    graph = CompactTimedGraph(("a", "b", "c"), [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    other = graph.reweighted([2, 1, 0])
    assert other.succ_dst is graph.succ_dst and other.topo is graph.topo
    assert list(other.succ_weight) == [2, 0, 1]
    assert list(other.pred_weight) == [2, 1, 0]
    with pytest.raises(TimingError):
        graph.reweighted([1, 1])
    with pytest.raises(TimingError):
        graph.reweighted([1, -1, 0])


def test_shared_timed_dfg_copies_on_write(small_fir):
    latency = LatencyAnalysis(small_fir.cfg)
    spans = OperationSpans(small_fir, latency=latency)
    structure = TimedStructure(small_fir)
    first = structure.timed("one", spans, latency)
    second = structure.timed("two", spans, latency)
    first.add_node("extra")
    assert first.has_node("extra")
    assert not second.has_node("extra")
    assert len(second.node_names()) == len(structure.nodes)
    assert "extra" not in structure.node_index


def test_cache_stats_report_structures_templates_and_patched_seeds(library):
    from repro.core.analysis_cache import default_cache
    from repro.obs.metrics import cache_stats

    from repro.workloads import idct_design

    design = idct_design(latency=10, rows=1, clock_period=1500.0)
    SlackScheduler(design, library, 1500.0).run()
    stats = cache_stats()
    analysis = stats["analysis_cache"]
    assert analysis["timed_structures"]["size"] >= 1
    for table in ("timed_structures", "budget_templates", "span_templates"):
        info = analysis[table]
        assert {"hits", "misses"} <= set(info)
        assert 1 <= info["size"] <= info["maxsize"]
    assert analysis["span_templates"]["memo_entries"] > 0
    assert stats["delta_seeds"]["patched"] > 0

    cache = AnalysisCache()
    SlackScheduler(design, library, 1500.0, cache=cache).run()
    assert cache.cache_info()["timed_structures"]["size"] == 1
    cache.clear()
    assert cache.cache_info()["timed_structures"]["size"] == 0
    assert default_cache().cache_info()["timed_structures"]["size"] >= 1


def test_span_rule_memos_stay_bounded(monkeypatch):
    import repro.core.opspan as opspan
    from repro.workloads import idct_design

    monkeypatch.setattr(opspan, "_MAX_SPAN_MEMO", 50)
    design = idct_design(latency=10, rows=1, clock_period=1500.0)
    latency = LatencyAnalysis(design.cfg)
    edges = latency.forward_edge_names
    operations = design.dfg.num_operations
    template = None
    for floor in edges:
        spans = OperationSpans(design, latency=latency, not_before=floor)
        template = spans._template
        # Trimmed before every computation, so one computation's worth of
        # entries (three rules per operation) is the most the bound allows.
        assert template.memo_entries() < 50 + 3 * operations
    assert template.memo_entries() > 0
