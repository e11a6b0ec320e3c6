"""The ``serve_mix`` job list and its expected outputs.

The mix is built from :func:`repro.verify.scenarios.scenario_stream` and
the seed alone.  Every draw is evaluated directly with
:func:`repro.flows.dse.evaluate_point`, in the process that builds the mix
and never in the one that is measured, which both classifies it and gives
the output the served job must reproduce:

* a feasible draw must come back as a done job whose metrics equal the
  direct ``evaluate_point(...).metrics()``;
* a draw that raises :class:`repro.errors.InfeasibleDesignError` at its
  drawn clock must come back as a failed job with that error.

The infeasible draws are the generator's own and stay in the mix: the
service retries each of them with real backoff sleep, the cost a later
change to the retry policy should remove.  Their share is fixed rather than
left to the draw (the first :data:`INFEASIBLE` infeasible and the first
:data:`FEASIBLE` feasible draws, in stream order; later draws of a full
class are skipped), because the sleep dominates the pass time and a
binomial count of infeasible draws would make throughput differ by seed
more than by code.  8 of 120 designs, each submitted twice, is the share
measured on seed 11 of the unfiltered stream: 16 of 240 jobs.

Each design is submitted :data:`SUBMISSIONS` times, each time by another
tenant, so half of the jobs can be answered from the shared memo tier
(except the repeats of infeasible designs, whose failures are not
memoized).  The interleaving of first submissions and repeats is drawn from
the seed.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List

FEASIBLE = 112
INFEASIBLE = 8
SUBMISSIONS = 2
TENANTS = 4


def build_mix(seed: int, library) -> Dict[str, object]:
    """The job list plus the expected outcome of every design."""
    from repro.errors import InfeasibleDesignError
    from repro.flows.dse import evaluate_point
    from repro.verify.scenarios import ScenarioSpec, scenario_stream

    designs: List[Dict[str, object]] = []
    expected: List[Dict[str, object]] = []
    counts = {True: 0, False: 0}
    quota = {True: FEASIBLE, False: INFEASIBLE}
    draws = 0
    for _, drawn in scenario_stream(seed):
        draws += 1
        # The service parses the job payload back into a spec; evaluate
        # that same round-tripped spec.
        spec = ScenarioSpec.from_dict(json.loads(json.dumps(drawn.to_dict())))
        scheduling = "pipeline" if spec.pipeline_ii is not None else "block"
        try:
            metrics = evaluate_point(
                spec.factory(), library, spec.point(name=spec.name),
                margin_fraction=spec.margin_fraction,
                scheduling=scheduling).metrics()
            outcome = {"state": "done",
                       "metrics": json.loads(json.dumps(metrics))}
        except InfeasibleDesignError as exc:
            outcome = {"state": "failed",
                       "error": f"{type(exc).__name__}: {exc}"}
        feasible = outcome["state"] == "done"
        if counts[feasible] < quota[feasible]:
            counts[feasible] += 1
            designs.append(spec.to_dict())
            expected.append(outcome)
        if counts[True] == FEASIBLE and counts[False] == INFEASIBLE:
            break

    rng = random.Random(seed)
    jobs: List[Dict[str, object]] = []
    waiting: List[Dict[str, object]] = []
    for index in range(len(designs)):
        first, *others = rng.sample(range(TENANTS), SUBMISSIONS)
        jobs.append({"design": index, "tenant": f"tenant-{first}"})
        waiting.extend({"design": index, "tenant": f"tenant-{tenant}"}
                       for tenant in others)
        while waiting and rng.random() < 0.5:
            jobs.append(waiting.pop(rng.randrange(len(waiting))))
    rng.shuffle(waiting)
    jobs.extend(waiting)
    return {"seed": seed, "draws": draws, "designs": designs,
            "expected": expected, "jobs": jobs}


def check_outputs(mix: Dict[str, object],
                  outputs: List[Dict[str, object]]) -> List[str]:
    """Mismatches between served outputs and the direct evaluations."""
    problems = []
    jobs = mix["jobs"]
    if len(outputs) != len(jobs):
        return [f"{len(outputs)} outputs for {len(jobs)} jobs"]
    for position, (job, output) in enumerate(zip(jobs, outputs)):
        want = mix["expected"][job["design"]]
        if output["state"] != want["state"]:
            problems.append(f"job {position}: {output['state']}, "
                            f"expected {want['state']}")
        elif want["state"] == "done" and output["metrics"] != want["metrics"]:
            problems.append(f"job {position}: metrics differ from "
                            "evaluate_point")
        elif want["state"] == "failed" and output["error"] != want["error"]:
            problems.append(f"job {position}: error {output['error']!r}, "
                            f"expected {want['error']!r}")
    return problems
