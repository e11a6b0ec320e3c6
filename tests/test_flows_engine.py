"""Tests of the parallel, resumable DSE engine and the DSEResult range fixes."""

import functools
import json
import os
import pickle
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.errors import InputError, ReproError
from repro.flows import (
    DesignPoint,
    DSEEngine,
    DSEEntry,
    DSEResult,
    idct_design_points,
    run_dse,
    scenario_sweep,
)
from repro.workloads import IDCTPointFactory, KernelPointFactory, RandomPointFactory


def sweep_points():
    return [
        DesignPoint(name="P0", latency=8, clock_period=1500.0),
        DesignPoint(name="P1", latency=12, clock_period=1500.0),
        DesignPoint(name="P2", latency=16, clock_period=1500.0),
    ]


class FailingFactory(IDCTPointFactory):
    """Raises on one named point; builds the IDCT everywhere else."""

    def __call__(self, point):
        if point.name == "P1":
            raise ValueError("injected failure on P1")
        return super().__call__(point)


CALL_LOG = []


class LoggingFactory(IDCTPointFactory):
    """Records which points it builds (resume regression guard)."""

    def __call__(self, point):
        CALL_LOG.append(point.name)
        return super().__call__(point)


@dataclass(frozen=True)
class MarkerFailFactory(IDCTPointFactory):
    """Fails on P1 while ``marker`` exists — a repairable transient fault."""

    marker: str = ""

    def __call__(self, point):
        if point.name == "P1" and os.path.exists(self.marker):
            raise ValueError("injected failure on P1")
        return super().__call__(point)


# -- parallel vs serial ------------------------------------------------------------


def test_parallel_engine_matches_serial_run_dse(library):
    """The acceptance criterion: a >=2-worker parallel run of the full
    15-point IDCT sweep is entry-for-entry identical to the serial baseline."""
    points = idct_design_points(clock_period=1500.0)
    factory = IDCTPointFactory(rows=1)

    serial = run_dse(factory, library, points)
    engine = DSEEngine(factory, library, points, executor="process",
                       max_workers=2)
    parallel = engine.run()

    assert not parallel.errors
    assert parallel.max_workers == 2
    assert [o.status for o in parallel.outcomes] == ["ok"] * len(points)
    # Deterministic input ordering regardless of completion order.
    assert [e.point.name for e in parallel.entries] == [p.name for p in points]
    # Identical metrics (areas, powers, throughput, latency, FU/reg counts).
    assert ([e.metrics() for e in parallel.entries]
            == [e.metrics() for e in serial.entries])
    # And identical schedules, operation for operation.
    for par, ser in zip(parallel.entries, serial.entries):
        assert (par.conventional.schedule.as_sched_map()
                == ser.conventional.schedule.as_sched_map())
        assert (par.slack_based.schedule.as_sched_map()
                == ser.slack_based.schedule.as_sched_map())
    # The DSEResult view exposes the same report surface as run_dse.
    assert (parallel.to_dse_result().average_saving_percent()
            == pytest.approx(serial.average_saving_percent()))


def test_engine_thread_and_serial_executors_agree(library):
    points = sweep_points()
    factory = IDCTPointFactory(rows=1)
    serial = DSEEngine(factory, library, points, executor="serial").run()
    threaded = DSEEngine(factory, library, points, executor="thread",
                         max_workers=2).run()
    assert ([e.metrics() for e in serial.entries]
            == [e.metrics() for e in threaded.entries])


def test_auto_executor_falls_back_to_serial_for_lambdas(library):
    points = sweep_points()[:2]
    result = DSEEngine(
        lambda point: IDCTPointFactory(rows=1)(point),
        library, points, executor="auto",
    ).run()
    assert result.executor == "serial"
    assert len(result.entries) == 2


def test_process_executor_rejects_unpicklable_factory(library):
    with pytest.raises(ReproError, match="picklable"):
        DSEEngine(lambda point: None, library, sweep_points(),
                  executor="process").run()


# -- error isolation ----------------------------------------------------------------


def test_failing_point_is_isolated(library):
    result = DSEEngine(FailingFactory(rows=1), library, sweep_points(),
                       executor="serial").run()
    assert [o.status for o in result.outcomes] == ["ok", "error", "ok"]
    failed = result.outcomes[1]
    assert "injected failure on P1" in failed.error
    assert failed.traceback and "ValueError" in failed.traceback
    # The sweep's good entries are still fully usable.
    assert len(result.entries) == 2
    assert result.to_dse_result().area_range() >= 1.0
    with pytest.raises(ReproError, match="P1"):
        result.raise_on_errors()


def test_failing_point_is_isolated_in_process_pool(library):
    result = DSEEngine(FailingFactory(rows=1), library, sweep_points(),
                       executor="process", max_workers=2).run()
    assert [o.status for o in result.outcomes] == ["ok", "error", "ok"]
    assert "injected failure on P1" in result.outcomes[1].error


def _infeasible_points():
    # 100 ps is below the fastest adder grade: InfeasibleDesignError.
    return [DesignPoint(name="P0", latency=8, clock_period=1500.0),
            DesignPoint(name="P1", latency=8, clock_period=100.0)]


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_input_error_points_raise_input_error(library, executor):
    result = DSEEngine(IDCTPointFactory(rows=1), library, _infeasible_points(),
                       executor=executor, max_workers=2).run()
    assert [o.status for o in result.outcomes] == ["ok", "error"]
    assert [o.input_error for o in result.outcomes] == [False, True]
    assert result.outcomes[1].error.startswith("InfeasibleDesignError: ")
    with pytest.raises(InputError, match="P1"):
        result.raise_on_errors()


def test_one_transient_failure_keeps_raise_on_errors_transient(library):
    points = sweep_points() + [DesignPoint(name="P3", latency=8,
                                           clock_period=100.0)]
    result = DSEEngine(FailingFactory(rows=1), library, points,
                       executor="serial").run()
    assert [o.input_error for o in result.errors] == [False, True]
    with pytest.raises(ReproError) as raised:
        result.raise_on_errors()
    assert not isinstance(raised.value, InputError)


# -- checkpoint / resume -----------------------------------------------------------


def test_checkpoint_resume_skips_completed_points(library, tmp_path):
    points = sweep_points()
    checkpoint = str(tmp_path / "sweep.json")
    factory = LoggingFactory(rows=1)
    first = DSEEngine(factory, library, points,
                      executor="serial", checkpoint_path=checkpoint).run()
    assert [o.status for o in first.outcomes] == ["ok"] * 3
    calls_after_first = len(CALL_LOG)

    resumed = DSEEngine(factory, library, points,
                        executor="serial", checkpoint_path=checkpoint).run()
    assert [o.status for o in resumed.outcomes] == ["restored"] * 3
    # The factory was never re-invoked for a restored point.
    assert len(CALL_LOG) == calls_after_first
    assert resumed.metrics() == [e.metrics() for e in first.entries]
    # Restored points keep contributing to sweep statistics ...
    assert (resumed.average_saving_percent()
            == pytest.approx(first.average_saving_percent()))
    # ... while the entry-based view refuses to average nothing silently.
    with pytest.raises(ReproError, match="empty sweep"):
        resumed.to_dse_result().average_saving_percent()


def test_checkpoint_resumes_partially_after_failures(library, tmp_path):
    points = sweep_points()
    checkpoint = str(tmp_path / "sweep.json")
    marker = tmp_path / "fail-marker"
    marker.write_text("fail P1")
    factory = MarkerFailFactory(rows=1, marker=str(marker))
    first = DSEEngine(factory, library, points,
                      executor="serial", checkpoint_path=checkpoint).run()
    assert [o.status for o in first.outcomes] == ["ok", "error", "ok"]

    # After the transient fault clears, the rerun retries only the failed
    # point; the good ones are restored.
    marker.unlink()
    second = DSEEngine(factory, library, points,
                       executor="serial", checkpoint_path=checkpoint).run()
    assert [o.status for o in second.outcomes] == ["restored", "ok", "restored"]
    assert len(second.metrics()) == 3


def test_checkpoint_of_a_different_sweep_is_ignored(library, tmp_path):
    checkpoint = str(tmp_path / "sweep.json")
    DSEEngine(IDCTPointFactory(rows=1), library, sweep_points(),
              executor="serial", checkpoint_path=checkpoint).run()
    other_points = sweep_points() + [DesignPoint(name="P3", latency=20,
                                                 clock_period=1500.0)]
    rerun = DSEEngine(IDCTPointFactory(rows=1), library, other_points,
                      executor="serial", checkpoint_path=checkpoint).run()
    assert [o.status for o in rerun.outcomes] == ["ok"] * 4


def test_checkpoint_of_a_different_factory_is_ignored(library, tmp_path):
    """A checkpoint must not be restored into a sweep whose workload differs
    (e.g. the same 15 points but rows=1 vs rows=2 IDCT designs)."""
    checkpoint = str(tmp_path / "sweep.json")
    points = sweep_points()
    DSEEngine(IDCTPointFactory(rows=1), library, points,
              executor="serial", checkpoint_path=checkpoint).run()
    rerun = DSEEngine(IDCTPointFactory(rows=2), library, points,
                      executor="serial", checkpoint_path=checkpoint).run()
    assert [o.status for o in rerun.outcomes] == ["ok"] * 3


def test_checkpoint_that_is_not_an_object_is_ignored(library, tmp_path):
    """Valid JSON whose top level is not an object is a corrupt checkpoint:
    the sweep starts fresh instead of crashing."""
    checkpoint = tmp_path / "sweep.json"
    checkpoint.write_text("[]")
    result = DSEEngine(IDCTPointFactory(rows=1), library, sweep_points(),
                       executor="serial", checkpoint_path=str(checkpoint)).run()
    assert [o.status for o in result.outcomes] == ["ok"] * 3


def test_checkpoint_point_record_that_is_not_an_object_is_ignored(
        library, tmp_path):
    """A matching checkpoint with a junk point record re-evaluates that
    point and still restores the others."""
    checkpoint = tmp_path / "sweep.json"
    points = sweep_points()
    DSEEngine(IDCTPointFactory(rows=1), library, points,
              executor="serial", checkpoint_path=str(checkpoint)).run()
    data = json.loads(checkpoint.read_text())
    data["points"]["P0"] = "junk"
    checkpoint.write_text(json.dumps(data))
    rerun = DSEEngine(IDCTPointFactory(rows=1), library, points,
                      executor="serial", checkpoint_path=str(checkpoint)).run()
    assert [o.status for o in rerun.outcomes] == ["ok", "restored", "restored"]


def _build_idct_point(point, rows=1):
    return IDCTPointFactory(rows=rows)(point)


def test_partial_factories_fingerprint_their_arguments(library, tmp_path):
    """Regression: ``functools.partial`` has no ``__qualname__``, so every
    partial used to fingerprint as the bare class ``functools.partial`` —
    letting a checkpoint from one workload silently resume a different one.
    Partials over different arguments must not share a signature; the same
    partial rebuilt identically must still resume."""
    checkpoint = str(tmp_path / "sweep.json")
    points = sweep_points()
    DSEEngine(functools.partial(_build_idct_point, rows=1), library, points,
              executor="serial", checkpoint_path=checkpoint).run()

    mismatched = DSEEngine(functools.partial(_build_idct_point, rows=2),
                           library, points, executor="serial",
                           checkpoint_path=checkpoint).run()
    assert [o.status for o in mismatched.outcomes] == ["ok"] * 3

    resumed = DSEEngine(functools.partial(_build_idct_point, rows=2),
                        library, points, executor="serial",
                        checkpoint_path=checkpoint).run()
    assert [o.status for o in resumed.outcomes] == ["restored"] * 3


def test_partial_fingerprints_cover_func_args_and_kwargs():
    base = DSEEngine._fingerprint(functools.partial(_build_idct_point, rows=1))
    assert "functools.partial" in base
    assert "_build_idct_point" in base
    assert DSEEngine._fingerprint(
        functools.partial(_build_idct_point, rows=2)) != base
    assert DSEEngine._fingerprint(functools.partial(sweep_points)) != base
    # Positional vs keyword binding is distinguished too.
    assert DSEEngine._fingerprint(functools.partial(_build_idct_point, 1)) != base
    # Rebuilding the same partial yields the same signature (resume works).
    assert DSEEngine._fingerprint(
        functools.partial(_build_idct_point, rows=1)) == base


# -- progress + validation ---------------------------------------------------------


def test_progress_callback_sees_every_point(library):
    events = []
    DSEEngine(IDCTPointFactory(rows=1), library, sweep_points(),
              executor="serial", progress=events.append).run()
    assert [event.done for event in events] == [1, 2, 3]
    assert all(event.total == 3 for event in events)
    assert {event.point.name for event in events} == {"P0", "P1", "P2"}
    assert all(event.status == "ok" for event in events)


def test_progress_callback_exceptions_do_not_abort_the_sweep(library):
    """Regression: a raising progress observer used to propagate out of the
    engine loop and kill the sweep.  Observer failures must be isolated."""
    events = []

    def flaky_observer(event):
        events.append(event.point.name)
        if event.point.name == "P1":
            raise RuntimeError("observer fell over")

    with pytest.warns(RuntimeWarning, match="observer fell over"):
        result = DSEEngine(IDCTPointFactory(rows=1), library, sweep_points(),
                           executor="serial", progress=flaky_observer).run()
    # Every point was still evaluated and reported to the observer.
    assert [o.status for o in result.outcomes] == ["ok"] * 3
    assert events == ["P0", "P1", "P2"]
    assert result.progress_errors == 1
    assert "RuntimeError: observer fell over" == result.progress_last_error


def test_progress_callback_warns_once_for_repeated_failures(library):
    def always_raises(event):
        raise ValueError("every time")

    with pytest.warns(RuntimeWarning) as warned:
        result = DSEEngine(IDCTPointFactory(rows=1), library, sweep_points(),
                           executor="serial", progress=always_raises).run()
    runtime = [w for w in warned if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1  # one warning, not one per point
    assert result.progress_errors == 3
    assert result.progress_last_error == "ValueError: every time"
    assert len(result.entries) == 3


def test_healthy_progress_reports_zero_errors(library):
    result = DSEEngine(IDCTPointFactory(rows=1), library, sweep_points(),
                       executor="serial", progress=lambda event: None).run()
    assert result.progress_errors == 0
    assert result.progress_last_error is None


def test_process_workers_ship_spans_back_to_the_parent_tracer(library):
    from repro.obs.trace import tracing

    points = sweep_points()[:2]
    with tracing() as tracer:
        result = DSEEngine(IDCTPointFactory(rows=1), library, points,
                           executor="process", max_workers=2).run()
    assert not result.errors
    adopted = [root for root in tracer.roots
               if root.track.startswith("worker:")]
    assert {root.track for root in adopted} == {"worker:P0", "worker:P1"}
    # Worker trees carry the full per-point phase structure.
    names = {span.name for root in adopted for span in root.walk()}
    assert "flow.schedule" in names
    # Tracing observes; it must not perturb the sweep result.
    untraced = DSEEngine(IDCTPointFactory(rows=1), library, points,
                         executor="process", max_workers=2).run()
    assert result.metrics() == untraced.metrics()


def test_duplicate_point_names_are_rejected(library):
    points = [DesignPoint(name="P", latency=8), DesignPoint(name="P", latency=12)]
    with pytest.raises(ReproError, match="unique"):
        DSEEngine(IDCTPointFactory(rows=1), library, points)


def test_unknown_executor_is_rejected(library):
    with pytest.raises(ReproError, match="executor"):
        DSEEngine(IDCTPointFactory(rows=1), library, sweep_points(),
                  executor="fleet")


# -- scenario sweeps ---------------------------------------------------------------


def test_scenario_sweep_is_diverse_and_picklable():
    scenarios = scenario_sweep()
    names = [scenario.name for scenario in scenarios]
    assert len(names) == len(set(names))
    # Kernels and random designs at several sizes are both represented.
    assert sum(1 for s in scenarios if isinstance(s.factory, KernelPointFactory)) >= 5
    randoms = [s.factory for s in scenarios
               if isinstance(s.factory, RandomPointFactory)]
    assert len({(f.layers, f.ops_per_layer) for f in randoms}) >= 3
    for scenario in scenarios:
        assert len(scenario.points) >= 2
        pickle.dumps(scenario.factory)  # process-pool ready


def test_scenario_runs_through_the_engine(library):
    scenario = scenario_sweep()[0]
    result = scenario.run(library, executor="serial")
    result.raise_on_errors()
    assert len(result.entries) == len(scenario.points)
    assert all(entry.conventional.meets_timing and entry.slack_based.meets_timing
               for entry in result.entries)


# -- DSEResult range semantics ------------------------------------------------------


def fake_entry(area: float, power: float, throughput: float) -> DSEEntry:
    flow = SimpleNamespace(total_area=area, total_power=power,
                           throughput=throughput)
    return DSEEntry(point=DesignPoint(name=f"F{id(flow)}", latency=8),
                    conventional=flow, slack_based=flow)


def test_ranges_of_an_empty_sweep_raise():
    empty = DSEResult()
    for method in (empty.area_range, empty.power_range, empty.throughput_range,
                   empty.average_saving_percent):
        with pytest.raises(ReproError, match="empty sweep"):
            method()


def test_ranges_with_zero_valued_entries_raise_distinctly():
    broken = DSEResult(entries=[fake_entry(100.0, 1.0, 2.0),
                                fake_entry(0.0, 0.0, 0.0)])
    for method in (broken.area_range, broken.power_range,
                   broken.throughput_range):
        with pytest.raises(ReproError, match="non-positive"):
            method()


def test_ranges_of_a_healthy_sweep_are_ratios():
    healthy = DSEResult(entries=[fake_entry(100.0, 2.0, 5.0),
                                 fake_entry(50.0, 1.0, 10.0)])
    assert healthy.area_range() == pytest.approx(2.0)
    assert healthy.power_range() == pytest.approx(2.0)
    assert healthy.throughput_range() == pytest.approx(2.0)


# -- cache-off evaluation hook (the pipeline-cache oracle's substrate) --------------


def test_engine_cache_off_mode_matches_cached_metrics(library):
    """`use_analysis_cache=False` must be observably identical to the
    default: private artifact bundles are bit-for-bit equal to shared ones
    by the analysis-cache contract."""
    import json

    factory = IDCTPointFactory(rows=1)
    points = [DesignPoint(name="P0", latency=10, clock_period=1500.0),
              DesignPoint(name="P1", latency=12, clock_period=1500.0)]
    cached = DSEEngine(factory, library, points, executor="serial").run()
    fresh = DSEEngine(factory, library, points, executor="serial",
                      use_analysis_cache=False).run()
    assert json.dumps(cached.metrics(), sort_keys=True) \
        == json.dumps(fresh.metrics(), sort_keys=True)


def test_evaluate_point_use_cache_false_builds_private_artifacts(library,
                                                                 monkeypatch):
    import repro.flows.dse as dse_mod
    from repro.flows.pipeline import PointArtifacts

    calls = {"build": 0, "of": 0}
    real_build, real_of = PointArtifacts.build, PointArtifacts.of
    monkeypatch.setattr(
        PointArtifacts, "build",
        classmethod(lambda cls, design: calls.__setitem__(
            "build", calls["build"] + 1) or real_build.__func__(cls, design)))
    monkeypatch.setattr(
        PointArtifacts, "of",
        classmethod(lambda cls, design, cache=None: calls.__setitem__(
            "of", calls["of"] + 1) or real_of.__func__(cls, design, cache)))

    point = DesignPoint(name="P0", latency=10, clock_period=1500.0)
    dse_mod.evaluate_point(IDCTPointFactory(rows=1), library, point,
                           use_cache=False)
    assert calls["build"] >= 1 and calls["of"] == 0
