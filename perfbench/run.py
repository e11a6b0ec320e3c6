"""The repository benchmark: Table-4 sweeps and a memoized serve mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload idct_block --seed 1 --seconds 32 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``idct_block``
    The paper's Table-4 sweep: ``IDCTPointFactory(rows=2)``,
    ``idct_design_points(1500.0)``, one ``SweepSession`` in block mode.
``idct_pipeline``
    The same 15 points with ``scheduling="pipeline"`` at ``rows=8``.
``serve_mix``
    One closed-loop client driving ``DSEService`` (submit, run_pending,
    status, result) with 240 ``submit-design`` jobs built from
    ``scenario_stream(seed)`` by :mod:`mix`.

The two IDCT workloads have fixed inputs; their seed is accepted and
ignored.  Every sample that needs a fresh process runs in one
(:mod:`worker`), so ``run.py`` itself never imports the program.  With
``--trace 0`` the run reports the end-to-end metrics, with tracing off;
with ``--trace 1`` it reports the per-layer metrics of one traced run
(:mod:`layers`).  Outputs are checked in both: ``idct_block`` against
``benchmarks/golden_table4_metrics.json`` byte for byte, ``idct_pipeline``
against the digests in ``perfbench/pinned.json``, every IDCT flow result
against the reference state-timing analysis, and every served job against
a direct ``evaluate_point``.  Any mismatch makes the run print
``"correct": false`` and exit with code 1.

A run starts fresh measuring processes until ``--seconds`` would be
exceeded (at least two, so a cold figure is never a single sample), plus
:data:`SETUP_PROBES` processes that only set up.  IDCT sweeps are timed in
CPU seconds of the measuring process (single-threaded work; this leaves out
time other tenants of a shared machine take), serve passes and jobs in wall
seconds (the retry sleep and the store's fsync waits are what a client
waits for).  ``error_share``, ``avg_saving_pct``, ``job_p50_ms`` and the
sample counts are printed in the report but are not among the metrics of
the JSON line: the first two are fixed by the output checks, and the
median job (a 2 ms memo hit on ``serve_mix``) moved by 43% between runs on
a shared machine, more than any bound allows.

The pytest-benchmark gate (``benchmarks/check_timings.py`` with
``benchmarks/baseline_timings.json``) is separate and unchanged.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  ``--pin`` rewrites ``pinned.json`` from a fresh
``idct_pipeline`` sweep, for a deliberate change of the flows' results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from mix import check_outputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "benchmarks", "golden_table4_metrics.json")
PINNED = os.path.join(HERE, "pinned.json")
WORKER = os.path.join(HERE, "worker.py")

#: Worker invocation per IDCT workload: scheduling, IDCT rows, warm sweeps
#: after the cold one in each process.
IDCT = {
    "idct_block": ("block", 2, 2),
    "idct_pipeline": ("pipeline", 8, 1),
}
#: Passes of the job mix per serve process (the first one is cold).
SERVE_PASSES = 2
#: Fresh processes that only set up, per run, on top of the measuring ones.
SETUP_PROBES = 5
#: At least this many measuring processes per run, so a cold figure is
#: never a single sample.
MIN_PROCESSES = 2
WORKER_TIMEOUT = 150.0


class WorkerError(RuntimeError):
    pass


def run_worker(args: List[str], deadline: float) -> dict:
    """Run one worker process to completion and parse its JSON line."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    timeout = max(1.0, min(WORKER_TIMEOUT, deadline - time.monotonic()))
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(args)} timed out after "
                          f"{timeout:.0f}s")
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} failed "
                          f"({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args_for_worker: List[str], seconds: float,
            deadline: float) -> List[dict]:
    """Measuring processes until ``seconds`` (or the deadline) would be
    exceeded by one more."""
    results, started = [], time.monotonic()
    while True:
        begin = time.monotonic()
        results.append(run_worker(args_for_worker, deadline))
        now = time.monotonic()
        took = now - begin
        if len(results) >= MIN_PROCESSES and (
                now - started + took > seconds or now + took > deadline):
            return results


def quantile(values: List[float], fraction: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(fraction * len(ordered)))
                                      - 1))
    return ordered[index]


def point_texts(metrics: List[dict]) -> List[str]:
    return [json.dumps(entry, indent=1, sort_keys=True) for entry in metrics]


# -- correctness ---------------------------------------------------------------


def idct_failures(workload: str, sweep: dict) -> List[str]:
    """Mismatches of one sweep record; empty when the sweep is correct."""
    problems = []
    if workload == "idct_block":
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = handle.read()
        if json.dumps(sweep["metrics"], indent=1, sort_keys=True) != golden:
            want = point_texts(json.loads(golden))
            got = point_texts(sweep["metrics"])
            differing = [index for index in range(max(len(want), len(got)))
                         if index >= len(want) or index >= len(got)
                         or want[index] != got[index]]
            problems.extend(f"point {index}: differs from the golden file"
                            for index in differing or [0])
    else:
        with open(PINNED, encoding="utf-8") as handle:
            pinned = json.load(handle)["idct_pipeline"]
        got = [hashlib.sha256(text.encode()).hexdigest()
               for text in point_texts(sweep["metrics"])]
        if got != pinned["points"]:
            problems.extend(
                f"point {index}: differs from the pinned digest"
                for index in range(max(len(got), len(pinned["points"])))
                if index >= len(got) or index >= len(pinned["points"])
                or got[index] != pinned["points"][index])
    if sweep["timing_failures"]:
        problems.append(f"{sweep['timing_failures']} flow results fail the "
                        "reference timing recheck")
    return problems


# -- workloads -----------------------------------------------------------------


def end_to_end(setups, colds, warms, units, walls, latencies, rss) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "sweep_cold_s": statistics.median(colds),
        "sweep_warm_s": statistics.median(warms),
        "jobs_per_s": units / sum(walls),
        "job_p95_ms": 1000.0 * quantile(latencies, 0.95),
        "peak_rss_mb": statistics.median(rss),
    }


def run_idct(workload: str, seconds: float, trace: bool, deadline: float):
    scheduling, rows, warm = IDCT[workload]
    if trace:
        out = run_worker(["idct", scheduling, str(rows), "0", "--traced"],
                         deadline)
        problems = idct_failures(workload, out["first"]) + out["problems"]
        return traced_result(out, len(out["first"]["metrics"]), problems,
                             avg_saving_pct=out["first"]["avg_saving_pct"])
    setups = [run_worker(["setup", workload], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    runs = measure(["idct", scheduling, str(rows), str(warm)], seconds,
                   deadline)
    sweeps = [sweep for run in runs for sweep in run["sweeps"]]
    problems = [problem for sweep in sweeps
                for problem in idct_failures(workload, sweep)]
    latencies = [value for sweep in sweeps for value in sweep["per_point_s"]]
    metrics = end_to_end(
        setups + [run["setup_s"] for run in runs],
        [run["sweeps"][0]["seconds"] for run in runs],
        [sweep["seconds"] for run in runs for sweep in run["sweeps"][1:]],
        len(latencies), [sweep["seconds"] for sweep in sweeps], latencies,
        [run["peak_rss_mb"] for run in runs])
    notes = {"avg_saving_pct": sweeps[0]["avg_saving_pct"],
             "job_p50_ms": 1000.0 * quantile(latencies, 0.50),
             "processes": len(runs), "sweeps": len(sweeps),
             "job_samples": len(latencies)}
    return metrics, len(latencies), problems, notes


def run_serve(seed: int, seconds: float, trace: bool, deadline: float):
    work = tempfile.mkdtemp(prefix="run-", dir=ensure_dir(
        os.path.join(ROOT, ".perfbench_tmp")))
    try:
        mix_path = os.path.join(work, "mix.json")
        run_worker(["serve-prepare", str(seed), mix_path], deadline)
        with open(mix_path, encoding="utf-8") as handle:
            mix = json.load(handle)
        if trace:
            out = run_worker(["serve", mix_path, "0", "--traced"], deadline)
            problems = (check_outputs(mix, out["first"]["outputs"])
                        + out["problems"])
            return traced_result(out, len(mix["jobs"]), problems)
        setups = [run_worker(["setup", "serve_mix"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        runs = measure(["serve", mix_path, str(SERVE_PASSES)], seconds,
                       deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = [record for run in runs for record in run["passes"]]
    problems = [problem for record in passes
                for problem in check_outputs(mix, record["outputs"])]
    latencies = [value for record in passes for value in record["per_job_s"]]
    metrics = end_to_end(
        setups + [run["setup_s"] for run in runs],
        [run["passes"][0]["seconds"] for run in runs],
        [record["seconds"] for run in runs for record in run["passes"][1:]],
        len(latencies), [record["seconds"] for record in passes], latencies,
        [run["peak_rss_mb"] for run in runs])
    notes = {"job_p50_ms": 1000.0 * quantile(latencies, 0.50),
             "processes": len(runs), "passes": len(passes),
             "job_samples": len(latencies),
             "infeasible_jobs_per_pass": passes[0]["infeasible"],
             "designs": len(mix["designs"]), "draws": mix["draws"]}
    return metrics, len(latencies), problems, notes


def traced_result(out: dict, attempted: int, problems: List[str], **notes):
    notes.update(setup_s=out["setup_s"], peak_rss_mb=out["peak_rss_mb"])
    return out["per_layer"], attempted, problems, notes


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


# -- pinning -------------------------------------------------------------------


def pin(deadline: float) -> None:
    scheduling, rows, _ = IDCT["idct_pipeline"]
    sweep = run_worker(["idct", scheduling, str(rows), "0"],
                       deadline)["sweeps"][0]
    texts = point_texts(sweep["metrics"])
    pinned = {"idct_pipeline": {
        "rows": rows,
        "avg_saving_pct": sweep["avg_saving_pct"],
        "points": [hashlib.sha256(text.encode()).hexdigest()
                   for text in texts],
    }}
    with open(PINNED, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(texts)} idct_pipeline points to {PINNED}")


# -- main ----------------------------------------------------------------------

NOTE_UNITS = {"avg_saving_pct": "%", "job_p50_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in bench["per_layer" if trace else "end_to_end"]}


def report(workload: str, seed: int, trace: bool, metrics: Dict[str, float],
           units: Dict[str, str], attempted: int, problems: List[str],
           notes: dict) -> None:
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for name, value in notes.items():
        print(f"  {name:<50} {value} {NOTE_UNITS.get(name, '')}")
    for name, value in metrics.items():
        print(f"  {name:<50} {value:.6g} {units[name]}")
    print(f"  {'error_share':<50} {min(len(problems), attempted) / attempted}"
          f" share of {attempted}")
    for problem in problems[:20]:
        print(f"  ! {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(IDCT) + ["serve_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pinned.json and exit")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources at {os.path.join(ROOT, 'src')}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 170.0
    if args.pin:
        pin(deadline)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    trace = bool(args.trace)
    try:
        if args.workload == "serve_mix":
            measured = run_serve(args.seed, args.seconds, trace, deadline)
        else:
            measured = run_idct(args.workload, args.seconds, trace, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, attempted, problems, notes = measured
    units = declared_metrics(trace)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(set(metrics) ^ set(units))} "
              "differently from BENCHMARK.json", file=sys.stderr)
        return 1
    report(args.workload, args.seed, trace, metrics, units, attempted,
           problems, notes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
