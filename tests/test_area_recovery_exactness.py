"""Exactness of the carried-candidate area-recovery pass.

``recover_area`` keeps one candidate entry per instance across rounds and
recomputes only the entries whose inputs changed, and its trials evaluate
fresh state rows before committing them.  Neither shortcut may change a
result, so the pass is compared against the frozen round-based pass in
``area_recovery_reference`` (full candidate rescan per round, snapshot /
restore trials) on identical datapaths: same downgrade count, bit-equal
areas, the same ``changed_instances`` *in the same order*, the same final
variants, and a final incremental report equal to a fresh full analysis.

The datapaths are every ``recover_area`` input of the Table-4 IDCT sweep
(pipelined at ``rows=8`` and block at ``rows=2``) and seeded scenario
designs from the differential fuzzer in both scheduling modes.  The reject
path, which complete bindings never reach, is driven by a hand-built
binding that chains two operations of one instance inside one state.
"""

import pytest

import repro.flows.pipeline as pipeline_mod
import repro.rtl.area_recovery as area_recovery_mod
from repro.errors import ReproError
from repro.flows import conventional_flow, idct_design_points
from repro.flows.sweep import SweepSession
from repro.ir.builder import LinearDesignBuilder
from repro.ir.operations import OpKind
from repro.rtl.area_recovery import recover_area, recover_area_reference
from repro.rtl.incremental_timing import IncrementalStateTiming
from repro.rtl.timing import analyze_state_timing
from repro.verify.scenarios import scenario_stream
from repro.workloads.factories import IDCTPointFactory
from area_recovery_reference import reference_recover_area

SEEDS = (3, 11)
SCENARIOS_PER_SEED = 64
MARGINS = (0.0, 150.0)


class RecordingTiming(IncrementalStateTiming):
    """Remembers every analyzer, so a test can read its final report."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        RecordingTiming.made.append(self)


@pytest.fixture
def recording(monkeypatch):
    RecordingTiming.made = []
    monkeypatch.setattr(area_recovery_mod, "IncrementalStateTiming",
                        RecordingTiming)
    return RecordingTiming


def _variants(datapath):
    return {i.name: i.variant for i in datapath.binding.instances}


def _reset(datapath, variants):
    for instance in datapath.binding.instances:
        instance.variant = variants[instance.name]


def _assert_matches_frozen(datapath, register_margin, recording):
    """Run both passes from the same variants and compare everything."""
    start = _variants(datapath)
    expected = reference_recover_area(datapath, register_margin)
    expected_variants = _variants(datapath)
    _reset(datapath, start)

    actual = recover_area(datapath, register_margin)
    assert actual.downgrades == expected.downgrades
    assert actual.area_before == expected.area_before
    assert actual.area_after == expected.area_after
    assert actual.changed_instances == expected.changed_instances
    assert _variants(datapath) == expected_variants

    report = recording.made[-1].report
    fresh = analyze_state_timing(datapath, register_margin=register_margin)
    assert report.state_critical_path == fresh.state_critical_path
    assert report.op_start == fresh.op_start
    assert report.op_finish == fresh.op_finish
    assert report.op_slack == fresh.op_slack
    return actual


def _sweep_inputs(scheduling, rows, library, monkeypatch):
    """Every ``recover_area`` input of one IDCT Table-4 sweep, unrecovered."""
    captured = []
    original = pipeline_mod.recover_area

    def capture(datapath, register_margin=0.0):
        captured.append((datapath, _variants(datapath), register_margin))
        return original(datapath, register_margin=register_margin)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline_mod, "recover_area", capture)
        SweepSession(IDCTPointFactory(rows=rows), library,
                     scheduling=scheduling).run(idct_design_points())
    for datapath, variants, _ in captured:
        _reset(datapath, variants)
    return captured


@pytest.mark.parametrize("scheduling, rows", [("pipeline", 8), ("block", 2)])
def test_idct_sweep_recovery_matches_frozen_pass(scheduling, rows, library,
                                                 recording, monkeypatch):
    inputs = _sweep_inputs(scheduling, rows, library, monkeypatch)
    assert len(inputs) == 2 * len(idct_design_points())
    downgrades = sum(
        _assert_matches_frozen(datapath, margin, recording).downgrades
        for datapath, _, margin in inputs)
    assert downgrades > 0


def _scenario_datapaths(seed, scheduling, library):
    for _, spec in scenario_stream(seed, count=SCENARIOS_PER_SEED):
        try:
            flow = conventional_flow(
                spec.design(), library, clock_period=spec.clock_period,
                pipeline_ii=spec.pipeline_ii, area_recovery=False,
                scheduling=scheduling)
        except ReproError:
            continue  # an infeasible draw has no datapath to recover
        yield flow.datapath


@pytest.mark.parametrize("scheduling", ["block", "pipeline"])
@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_recovery_matches_frozen_pass(seed, scheduling, library,
                                               recording):
    recovered = {margin: 0 for margin in MARGINS}
    datapaths = list(_scenario_datapaths(seed, scheduling, library))
    assert len(datapaths) >= 50  # >= 100 designs per mode over both seeds
    for datapath in datapaths:
        start = _variants(datapath)
        for margin in MARGINS:
            _reset(datapath, start)
            result = _assert_matches_frozen(datapath, margin, recording)
            recovered[margin] += result.downgrades > 0
    assert all(recovered.values())


# -- the reject path ---------------------------------------------------------------


def _chained_instance_datapath(library):
    """One state, ``s1 = (x0 + x1) + x2`` chained on one adder instance.

    A third adder ``t = x3 + x4`` runs beside the chain with ample slack, so
    recovery keeps accepting downgrades after the chain's trial fails.  The
    clock leaves the chain 1.5 one-grade delay steps of slack: each chained
    op alone covers a downgrade, the two together do not.
    """
    builder = LinearDesignBuilder("chained", 1)
    edge = builder.edge_for_step(1)
    reads = [builder.read(f"x{i}", edge, width=16, name=f"rd_x{i}").name
             for i in range(5)]
    s0 = builder.binary(OpKind.ADD, reads[0], reads[1], edge, width=16,
                        name="s0").name
    s1 = builder.binary(OpKind.ADD, s0, reads[2], edge, width=16,
                        name="s1").name
    t = builder.binary(OpKind.ADD, reads[3], reads[4], edge, width=16,
                       name="t").name
    builder.write("y", edge, s1, width=16, name="wr_y")
    builder.write("z", edge, t, width=16, name="wr_z")
    datapath = conventional_flow(builder.build(), library,
                                 clock_period=3000.0,
                                 area_recovery=False).datapath

    binding = datapath.binding
    chained = binding.instance_of(s0)
    donor = binding.instance_of(s1)
    assert donor is not chained and binding.instance_of(t) not in (
        chained, donor)
    donor.ops.remove(s1)
    chained.ops.append(s1)
    binding.op_to_instance[s1] = chained.name
    datapath._instance_edges = None  # rebuilt for the hand-made binding

    kind_value, width = chained.class_key
    slower = library.class_for(OpKind(kind_value), width).next_slower(
        chained.variant)
    step = slower.delay - chained.variant.delay
    slack = min(analyze_state_timing(datapath).op_slack[op]
                for op in chained.ops)
    datapath.clock_period += 1.5 * step - slack
    datapath.schedule.clock_period = datapath.clock_period
    return datapath, chained, slower


def test_slack_covered_downgrade_that_fails_timing_is_rejected(
        library, recording, monkeypatch):
    datapath, chained, slower = _chained_instance_datapath(library)
    start = _variants(datapath)
    assert analyze_state_timing(datapath).meets_timing()
    seen = []  # the chained instance's grade at every evaluate() call
    evaluate = RecordingTiming.evaluate

    def watched(self, edges):
        seen.append(chained.variant.name)
        return evaluate(self, edges)

    monkeypatch.setattr(RecordingTiming, "evaluate", watched)

    result = recover_area(datapath)
    analyzer = recording.made[-1]
    assert chained.variant is start[chained.name]  # reverted
    assert seen.count(slower.name) == 1  # memoized, not retried
    assert len(seen) > 2  # recovery went on after the reject
    assert result.downgrades > 0 and chained.name not in \
        result.changed_instances
    fresh = analyze_state_timing(datapath)
    assert analyzer.report.op_slack == fresh.op_slack
    assert analyzer.report.state_critical_path == fresh.state_critical_path
    assert analyzer.report.op_start == fresh.op_start
    assert analyzer.report.op_finish == fresh.op_finish
    final = _variants(datapath)

    for other in (recover_area_reference, reference_recover_area):
        _reset(datapath, start)
        expected = other(datapath)
        assert result.downgrades == expected.downgrades
        assert result.area_before == expected.area_before
        assert result.area_after == expected.area_after
        assert result.changed_instances == expected.changed_instances
        assert _variants(datapath) == final
