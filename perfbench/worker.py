"""One measurement process of the benchmark (started by ``run.py``).

Every cold figure needs a fresh interpreter, so ``run.py`` starts this
script once per sample with ``PYTHONPATH=src`` and reads the one JSON line
it prints.  Modes:

``setup <workload>``
    Import the workload's entry modules and build ``tsmc90_library()``;
    report the CPU seconds from the start of this script to the built
    library.
``idct <block|pipeline> <rows> <warm>``
    Set up, then one cold Table-4 sweep and ``warm`` repeats in the same
    process.  The cold sweep's flow results are rechecked with the
    reference timing analysis after its timer stops; run.py checks that
    every sweep's metrics are byte-identical to the expected ones.
``serve-prepare <seed> <mix.json>``
    Build the ``serve_mix`` job list and its expected outputs
    (:mod:`mix`).
``serve <mix.json> <passes>``
    Set up, then drive ``passes`` passes of the job mix through a
    :class:`repro.serve.service.DSEService`, each over a fresh store and
    queue.  The first pass is the cold one.

With ``--traced`` the first sweep or pass runs with the layer wrappers of
:mod:`layers` installed and ``repro.obs`` tracing on, and yields the
per-layer metrics; then one untraced and one traced warm repeat, twice,
give the tracing overhead ratio.
"""

_START = __import__("time").process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

CLOCK = 1500.0


def setup(workload: str):
    """Import the workload's entry points and build the library."""
    if workload == "serve_mix":
        import repro.serve.service  # noqa: F401
        import repro.verify.scenarios  # noqa: F401
    else:
        import repro.flows.sweep  # noqa: F401
        import repro.workloads  # noqa: F401
    from repro.lib.tsmc90 import tsmc90_library

    library = tsmc90_library()
    return library, time.process_time() - _START


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- idct ----------------------------------------------------------------------


def idct_sweep(library, scheduling: str, rows: int):
    """One timed 15-point sweep: result, seconds, per-point seconds.

    Sweeps are single-threaded computation, timed in CPU seconds of this
    process: on an unshared core that equals wall time, and on a shared
    machine it leaves out the time other tenants take from the core.
    """
    from repro.flows import idct_design_points
    from repro.flows.sweep import SweepSession
    from repro.workloads import IDCTPointFactory

    points = idct_design_points(clock_period=CLOCK)
    session = SweepSession(IDCTPointFactory(rows=rows), library,
                           scheduling=scheduling)
    evaluate = session.evaluate
    per_point = []

    def timed_evaluate(point):
        start = time.process_time()
        entry = evaluate(point)
        per_point.append(time.process_time() - start)
        return entry

    session.evaluate = timed_evaluate
    start = time.process_time()
    result = session.run(points)
    return result, time.process_time() - start, per_point


def recheck_timing(result) -> int:
    """Flow results that fail the reference state-timing analysis."""
    from repro.rtl.timing import analyze_state_timing_reference

    failures = 0
    for entry in result.entries:
        for flow in (entry.conventional, entry.slack_based):
            report = analyze_state_timing_reference(flow.datapath)
            if not (report.meets_timing() and flow.meets_timing):
                failures += 1
    return failures


def sweep_record(result, seconds: float, per_point,
                 recheck: bool = True) -> dict:
    return {"seconds": seconds, "per_point_s": per_point,
            "metrics": [entry.metrics() for entry in result.entries],
            "avg_saving_pct": result.average_saving_percent(),
            "timing_failures": recheck_timing(result) if recheck else 0}


def run_idct(args) -> dict:
    library, setup_s = setup(f"idct_{args.scheduling}")
    if args.traced:
        return traced_run(
            setup_s, lambda: idct_sweep(library, args.scheduling, args.rows),
            lambda run: sweep_record(*run), time.process_time)
    # The reference timing recheck runs on the cold sweep; every warm sweep
    # must reproduce its metrics byte for byte, which run.py checks.
    sweeps = [sweep_record(*idct_sweep(library, args.scheduling, args.rows),
                           recheck=index == 0)
              for index in range(1 + args.warm)]
    return {"setup_s": setup_s, "sweeps": sweeps, "peak_rss_mb": peak_rss_mb()}


# -- serve ---------------------------------------------------------------------


def serve_pass(library, mix: dict, root: str):
    """One closed-loop pass of the job mix over a fresh store and queue.

    Returns the outputs, the pass wall time, the per-job seconds from
    submit to the result (or the failure) being available, and the backoff
    slept by the retry policy as recorded in the jobs' attempt ledgers.
    """
    from repro.serve.service import DSEService

    directory = tempfile.mkdtemp(dir=root)
    service = DSEService(library=library,
                         store_path=os.path.join(directory, "store.jsonl"),
                         queue_path=os.path.join(directory, "queue.jsonl"))
    designs = mix["designs"]
    outputs, per_job, job_ids = [], [], []
    start = time.perf_counter()
    for job in mix["jobs"]:
        begin = time.perf_counter()
        job_id = service.submit({"kind": "submit-design",
                                 "payload": designs[job["design"]],
                                 "tenant": job["tenant"]})["job_id"]
        service.run_pending()
        status = service.status(job_id)
        if status["state"] == "done":
            body = service.result(job_id)["result"]
            output = {"state": "done", "metrics": body["points"][0]}
        else:
            output = {"state": status["state"],
                      "error": (status["failure"] or {}).get("error")}
        per_job.append(time.perf_counter() - begin)
        outputs.append(output)
        job_ids.append(job_id)
    wall = time.perf_counter() - start
    backoff = sum(attempt.get("backoff_seconds", 0.0)
                  for job_id in job_ids
                  for attempt in service.queue.get(job_id).attempts)
    shutil.rmtree(directory)
    return outputs, wall, per_job, backoff


def pass_record(outputs, wall: float, per_job, backoff: float) -> dict:
    # Serve passes are timed in wall seconds: the retry backoff sleeps and
    # the store's fsync waits are part of what a client waits for.
    return {"seconds": wall, "per_job_s": per_job, "outputs": outputs,
            "backoff_s": backoff,
            "infeasible": sum(1 for output in outputs
                              if output["state"] == "failed")}


def run_serve(args) -> dict:
    library, setup_s = setup("serve_mix")
    with open(args.mix, encoding="utf-8") as handle:
        mix = json.load(handle)
    root = os.path.dirname(os.path.abspath(args.mix))
    if args.traced:
        return traced_run(setup_s, lambda: serve_pass(library, mix, root),
                          lambda run: pass_record(*run), time.perf_counter)
    passes = [pass_record(*serve_pass(library, mix, root))
              for _ in range(args.passes)]
    return {"setup_s": setup_s, "passes": passes, "peak_rss_mb": peak_rss_mb()}


def run_serve_prepare(args) -> dict:
    from mix import build_mix

    library, _ = setup("serve_mix")
    mix = build_mix(args.seed, library)
    with open(args.mix, "w", encoding="utf-8") as handle:
        json.dump(mix, handle)
    return {"designs": len(mix["designs"]), "jobs": len(mix["jobs"]),
            "draws": mix["draws"]}


# -- traced run ----------------------------------------------------------------


def traced_run(setup_s: float, run_once, record, clock) -> dict:
    """Per-layer metrics of one cold traced run, plus the overhead ratio."""
    from layers import (CACHE_TABLES, COUNTERS, SEED_LAYER, SEED_SPAN,
                        LayerTracer)
    from repro import obs
    from repro.core.analysis_cache import default_cache
    from repro.lib.characterize import characterization_cache_info

    def program_counts():
        counts = {name: obs.counter(name).value for name in COUNTERS}
        for table, info in default_cache().cache_info().items():
            counts[f"{table}.hits"] = info["hits"]
            counts[f"{table}.misses"] = info["misses"]
        return counts

    tracer = LayerTracer(clock)
    before = program_counts()
    tracer.install()
    with obs.tracing() as spans:
        start = clock()
        run = run_once()
        wall = clock() - start
    stale = tracer.stale_references()
    tracer.uninstall()
    after = program_counts()
    delta = {name: after[name] - before[name] for name in after}
    first = record(run)

    metrics = {}
    for name, stat in tracer.stats.items():
        if name != SEED_LAYER:
            metrics[f"{name}.calls"] = stat.calls
            metrics[f"{name}.self_s"] = stat.self_s
    seed_spans = [span for root in spans.roots for span in root.walk()
                  if span.name == SEED_SPAN]
    metrics[f"{SEED_LAYER}.self_s"] = sum(span.self_time for span in seed_spans)

    def ratio(hits, total):
        return hits / total if total else 0.0

    for layer, table in CACHE_TABLES.items():
        metrics[f"{layer}.hit_ratio"] = ratio(
            delta[f"{table}.hits"],
            delta[f"{table}.hits"] + delta[f"{table}.misses"])
    metrics["core.budgeting.iterations"] = delta["budgeting.iterations"]
    metrics["core.delta_slack.seed_hit_ratio"] = ratio(
        delta["delta_seeds.hits"],
        delta["delta_seeds.hits"] + delta["delta_seeds.misses"])
    stats = tracer.stats
    metrics["core.slack_scheduler.rebudgets"] = \
        stats["core.slack_scheduler.run"].extra
    metrics["flows.sweep.full_evaluations"] = delta["sweep.full_evaluations"]
    metrics["flows.sweep.delta_points"] = delta["sweep.delta_points"]
    metrics["rtl.area_recovery.downgrades"] = \
        stats["rtl.area_recovery.recover_area"].extra
    for name in ("attempts", "ii_bumps", "resources_added", "upgrades"):
        metrics[f"sched.relaxation.{name}"] = delta[f"relaxation.{name}"]
    metrics["lib.characterize.misses"] = \
        characterization_cache_info()["misses"]
    metrics["serve.cache.hit_ratio"] = ratio(
        delta["serve.cache.hits"],
        delta["serve.cache.hits"] + delta["serve.cache.misses"])
    metrics["core.jsonl.records_appended"] = delta["jsonl.appended_records"]
    metrics["serve.retry.retries"] = delta["serve.retry.retries"]
    metrics["serve.retry.backoff_s"] = first.get("backoff_s", 0.0)
    metrics["serve.jobs.infeasible"] = first.get("infeasible", 0)
    claimed = sum(stat.self_s for stat in stats.values())
    metrics["unattributed.self_s"] = wall - claimed
    metrics["trace.run_s"] = wall

    # The wrappers must see every call the program counts itself.
    checks = {
        "core.budgeting.budget_slack.calls == budgeting.runs":
            (stats["core.budgeting.budget_slack"].calls,
             delta["budgeting.runs"]),
        "seed_kernels frames == delta_seeds.misses":
            (stats[SEED_LAYER].calls, delta["delta_seeds.misses"]),
        "delta.seed_kernels spans == delta_seeds.misses":
            (len(seed_spans), delta["delta_seeds.misses"]),
        "serve.cache.lookup.calls == serve.cache hits + misses":
            (stats["serve.cache.lookup"].calls,
             delta["serve.cache.hits"] + delta["serve.cache.misses"]),
        "serve.cache.record.calls == serve.cache.puts":
            (stats["serve.cache.record"].calls, delta["serve.cache.puts"]),
        "core.jsonl.append_records records == jsonl.appended_records":
            (stats["core.jsonl.append_records"].extra,
             delta["jsonl.appended_records"]),
    }
    for layer, table in CACHE_TABLES.items():
        checks[f"{layer}.calls == {table} hits + misses"] = (
            stats[layer].calls,
            delta[f"{table}.hits"] + delta[f"{table}.misses"])
    problems = [f"{name}: {left} != {right}"
                for name, (left, right) in checks.items() if left != right]
    problems.extend(f"unwrapped binding: {name}" for name in stale)

    # Tracing overhead on equal (warm) cache state: untraced, then traced.
    untraced, traced = [], []
    for _ in range(2):
        start = clock()
        run_once()
        untraced.append(clock() - start)
        tracer.install()
        with obs.tracing():
            start = clock()
            run_once()
            traced.append(clock() - start)
        tracer.uninstall()
    metrics["obs.trace.overhead_ratio"] = \
        statistics.median(traced) / statistics.median(untraced)
    return {"setup_s": setup_s, "first": first, "per_layer": metrics,
            "problems": problems, "peak_rss_mb": peak_rss_mb()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("workload")
    p_idct = sub.add_parser("idct")
    p_idct.add_argument("scheduling", choices=("block", "pipeline"))
    p_idct.add_argument("rows", type=int)
    p_idct.add_argument("warm", type=int)
    p_idct.add_argument("--traced", action="store_true")
    p_prep = sub.add_parser("serve-prepare")
    p_prep.add_argument("seed", type=int)
    p_prep.add_argument("mix")
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("mix")
    p_serve.add_argument("passes", type=int)
    p_serve.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        _, setup_s = setup(args.workload)
        out = {"setup_s": setup_s}
    elif args.mode == "idct":
        out = run_idct(args)
    elif args.mode == "serve-prepare":
        out = run_serve_prepare(args)
    else:
        out = run_serve(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
