"""Tests of the HTTP front end — all through :func:`route_request`.

No sockets: the whole protocol is the pure ``(service, method, path,
body) -> (status, payload)`` function, so the tests drive it directly
against a fake-backed service.  The socket shell is covered by a single
bind-and-close sanity check.
"""

import json

from repro.serve.fakes import FakeEvaluator, sweep_payload
from repro.serve.http import make_server, route_request
from repro.serve.service import DSEService


def _service(**kwargs):
    kwargs.setdefault("evaluator", FakeEvaluator())
    kwargs.setdefault("library", object())
    return DSEService(**kwargs)


def _spec_body(latencies=(6, 8)):
    return {"kind": "sweep", "payload": sweep_payload(latencies=latencies)}


class TestRoutes:
    def test_submit_status_result_round_trip(self):
        service = _service()
        status, receipt = route_request(service, "POST", "/submit",
                                        _spec_body())
        assert status == 200 and receipt["state"] == "pending"
        job_id = receipt["job_id"]
        service.run_pending()

        status, payload = route_request(service, "GET", f"/status/{job_id}")
        assert status == 200 and payload["state"] == "done"

        status, payload = route_request(service, "GET", f"/result/{job_id}")
        assert status == 200
        assert payload["result"]["evaluations"] == 2
        json.dumps(payload)  # every response body is JSON-safe

    def test_cancel_pending_job(self):
        service = _service()
        _, receipt = route_request(service, "POST", "/submit", _spec_body())
        status, payload = route_request(service, "POST",
                                        f"/cancel/{receipt['job_id']}")
        assert status == 200 and payload["state"] == "cancelled"

    def test_stats_and_healthz(self):
        service = _service()
        status, payload = route_request(service, "GET", "/stats")
        assert status == 200 and "jobs" in payload and "cache" in payload
        status, payload = route_request(service, "GET", "/healthz")
        assert status == 200 and payload == {"ok": True}

    def test_trailing_slash_and_case_are_tolerated(self):
        service = _service()
        assert route_request(service, "get", "/healthz/")[0] == 200


class TestErrorMapping:
    def test_unknown_job_is_404(self):
        service = _service()
        for method, path in [("GET", "/status/job-999999"),
                             ("GET", "/result/job-999999"),
                             ("POST", "/cancel/job-999999")]:
            status, payload = route_request(service, method, path)
            assert status == 404 and "error" in payload

    def test_wrong_state_is_409(self):
        service = _service()
        _, receipt = route_request(service, "POST", "/submit", _spec_body())
        status, _ = route_request(service, "GET",
                                  f"/result/{receipt['job_id']}")
        assert status == 409  # result of a pending job

        service.run_pending()
        status, _ = route_request(service, "POST",
                                  f"/cancel/{receipt['job_id']}")
        assert status == 409  # cancel of a done job

    def test_malformed_spec_is_400(self):
        service = _service()
        status, payload = route_request(
            service, "POST", "/submit",
            {"kind": "sweep", "payload": {"workload": "no-such-kernel",
                                          "latencies": [6]}})
        assert status == 400 and "error" in payload

    def test_unbuildable_sweep_point_is_400(self):
        service = _service()
        status, payload = route_request(service, "POST", "/submit",
                                        _spec_body(latencies=(1,)))
        assert status == 400 and "at least two states" in payload["error"]
        assert service.queue.counts() == {}

    def test_missing_body_is_400(self):
        status, _ = route_request(_service(), "POST", "/submit", None)
        assert status == 400

    def test_unknown_route_is_404(self):
        service = _service()
        assert route_request(service, "GET", "/nope")[0] == 404
        assert route_request(service, "DELETE", "/submit")[0] == 404
        assert route_request(service, "GET", "/status")[0] == 404


class TestServerShell:
    def test_make_server_binds_a_free_port_and_owns_the_service(self):
        service = _service()
        server = make_server(service, port=0)
        try:
            host, port = server.server_address[:2]
            assert host == "127.0.0.1" and port > 0
            assert server.service is service
        finally:
            server.server_close()
