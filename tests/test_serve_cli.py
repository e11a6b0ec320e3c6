"""Tests of the ``repro serve`` command line (in-process, via ``main``)."""

import json

import pytest

from repro.serve.cli import build_parser, main
from repro.serve.fakes import sweep_payload


def _write_job(tmp_path, payload=None, tenant="cli"):
    job = {"kind": "sweep",
           "payload": payload or sweep_payload(latencies=(6,)),
           "tenant": tenant}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return str(path)


def _paths(tmp_path):
    return str(tmp_path / "queue.jsonl"), str(tmp_path / "store.jsonl")


class TestSubmitRunStatusResult:
    def test_full_cli_round_trip(self, tmp_path, capsys):
        queue, store = _paths(tmp_path)
        job = _write_job(tmp_path)

        assert main(["submit", "--queue", queue, "--job", job]) == 0
        receipt = json.loads(capsys.readouterr().out)
        assert receipt["state"] == "pending"
        job_id = receipt["job_id"]

        assert main(["run", "--queue", queue, "--store", store]) == 0
        assert "executed 1 job(s)" in capsys.readouterr().out

        assert main(["status", job_id, "--queue", queue]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "done"

        assert main(["result", job_id, "--queue", queue]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["evaluations"] == 1
        assert result["points"][0]["point"]["latency"] == 6

        assert main(["stats", "--queue", queue, "--store", store]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["jobs"] == {"done": 1}

    def test_warm_rerun_uses_the_store(self, tmp_path, capsys):
        queue, store = _paths(tmp_path)
        job = _write_job(tmp_path)
        main(["submit", "--queue", queue, "--job", job])
        main(["run", "--queue", queue, "--store", store])
        capsys.readouterr()

        main(["submit", "--queue", queue, "--job", job])
        warm_id = json.loads(capsys.readouterr().out)["job_id"]
        main(["run", "--queue", queue, "--store", store])
        capsys.readouterr()
        main(["result", warm_id, "--queue", queue])
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["evaluations"] == 0 and result["cache_hits"] == 1

    def test_malformed_job_file_exits_2(self, tmp_path, capsys):
        queue, _ = _paths(tmp_path)
        bad = _write_job(tmp_path,
                         payload={"workload": "no-such-kernel",
                                  "latencies": [6]})
        assert main(["submit", "--queue", queue, "--job", bad]) == 2
        assert "repro serve:" in capsys.readouterr().err

    def test_status_of_unknown_job_exits_2(self, tmp_path, capsys):
        queue, _ = _paths(tmp_path)
        job = _write_job(tmp_path)
        main(["submit", "--queue", queue, "--job", job])
        capsys.readouterr()
        assert main(["status", "job-999999", "--queue", queue]) == 2

    def test_run_reports_failures_with_exit_1(self, tmp_path, capsys,
                                              monkeypatch):
        # Force the job body to fail: deadline of 0 is rejected by the
        # policy, so instead inject an evaluator failure via a store path
        # that is a directory (ReproError inside the job -> failed state).
        from repro.serve import cli as serve_cli
        from repro.serve.fakes import FakeEvaluator

        queue, store = _paths(tmp_path)
        job = _write_job(tmp_path)
        main(["submit", "--queue", queue, "--job", job])
        capsys.readouterr()

        original = serve_cli._service

        def failing_service(args, evaluator=None, retry=None):
            return original(args, evaluator=FakeEvaluator(fail_times=99),
                            retry=retry)

        monkeypatch.setattr(serve_cli, "_service", failing_service)
        assert main(["run", "--queue", queue, "--store", store]) == 1
        assert "failed=1" in capsys.readouterr().out


class TestSmoke:
    def test_smoke_passes_and_keeps_artifacts(self, tmp_path, capsys):
        keep = str(tmp_path / "smoke")
        assert main(["smoke", "--keep", keep]) == 0
        out = capsys.readouterr().out
        assert "serve smoke ok" in out
        assert "infeasible failed after 1 attempt" in out
        assert (tmp_path / "smoke" / "store.jsonl").exists()
        assert (tmp_path / "smoke" / "queue.jsonl").exists()

        # The input-fault leg left one failed job behind: one attempt, no
        # backoff, the flow's InfeasibleDesignError verdict.
        from repro.serve.queue import JobQueue

        queue = JobQueue(path=str(tmp_path / "smoke" / "queue.jsonl"))
        assert queue.counts() == {"done": 2, "failed": 1}
        [failed] = [record for record in queue.jobs()
                    if record.state == "failed"]
        assert [attempt["backoff_seconds"]
                for attempt in failed.attempts] == [0.0]
        assert failed.failure["error"].startswith("InfeasibleDesignError: ")


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_top_level_cli_routes_serve(self, capsys):
        from repro.cli import main as repro_main

        with pytest.raises(SystemExit):
            repro_main(["serve", "--help"])
        assert "submit-design" in capsys.readouterr().out
