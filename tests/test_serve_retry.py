"""Unit tests of the serve layer's retry/timeout/backoff policy.

Everything here runs on the fake clock — no real sleeping — except the
deadline tests, which exercise the real thread-based cutoff with
sub-second budgets, and the traffic check, which runs the real flows on
generated scenarios.
"""

import itertools
import time

import pytest

from repro.errors import (
    BindingError,
    ElaborationError,
    InfeasibleDesignError,
    InputError,
    IRError,
    LibraryError,
    ParseError,
    ReproError,
    SchedulingError,
    TimingError,
)
from repro.serve.fakes import FakeClock
from repro.serve.retry import AttemptRecord, RetryPolicy, run_with_retry


class TestPolicyValidation:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)

    def test_rejects_negative_backoff_and_jitter(self):
        with pytest.raises(ReproError):
            RetryPolicy(backoff_seconds=-1.0)
        with pytest.raises(ReproError):
            RetryPolicy(jitter_fraction=-0.1)

    def test_to_dict_is_json_safe(self):
        import json

        json.dumps(RetryPolicy(deadline_seconds=5.0).to_dict())


class TestBackoffSequence:
    def test_deterministic_under_seeded_jitter(self):
        policy = RetryPolicy(max_attempts=5, jitter_seed=42)
        assert policy.backoff_sequence() == policy.backoff_sequence()

    def test_different_seeds_decorrelate(self):
        a = RetryPolicy(max_attempts=5, jitter_seed=1).backoff_sequence()
        b = RetryPolicy(max_attempts=5, jitter_seed=2).backoff_sequence()
        assert a != b

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(max_attempts=10, backoff_seconds=1.0,
                             backoff_multiplier=2.0, max_backoff_seconds=4.0,
                             jitter_fraction=0.0)
        assert policy.backoff_sequence() == [1.0, 2.0, 4.0, 4.0, 4.0,
                                             4.0, 4.0, 4.0, 4.0]

    def test_jitter_stretches_within_fraction(self):
        policy = RetryPolicy(max_attempts=6, backoff_seconds=1.0,
                             backoff_multiplier=1.0, jitter_fraction=0.5)
        for delay in policy.backoff_sequence():
            assert 1.0 <= delay <= 1.5

    def test_single_attempt_has_no_backoff(self):
        assert RetryPolicy(max_attempts=1).backoff_sequence() == []


class TestRunWithRetry:
    def test_first_try_success_records_one_ok_attempt(self):
        clock = FakeClock()
        outcome = run_with_retry(lambda: 42, RetryPolicy(),
                                 clock=clock, sleep=clock.sleep)
        assert outcome.ok and outcome.value == 42
        assert [a.outcome for a in outcome.attempts] == ["ok"]
        assert outcome.failure is None
        assert clock.sleeps == []

    def test_errors_retry_with_the_policy_backoff_schedule(self):
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=3, backoff_seconds=0.5,
                             jitter_seed=7)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ReproError(f"transient {len(calls)}")
            return "done"

        outcome = run_with_retry(flaky, policy, clock=clock,
                                 sleep=clock.sleep)
        assert outcome.ok and outcome.value == "done"
        assert [a.outcome for a in outcome.attempts] == ["error", "error",
                                                         "ok"]
        # The exact sleeps are the policy's first two backoff entries.
        assert clock.sleeps == policy.backoff_sequence()[:2]
        assert [a.backoff_seconds for a in outcome.attempts[:-1]] \
            == clock.sleeps

    def test_max_retries_produces_structured_error_failure(self):
        clock = FakeClock()

        def always_fails():
            raise ValueError("permanently broken")

        outcome = run_with_retry(always_fails,
                                 RetryPolicy(max_attempts=3), what="job j1",
                                 clock=clock, sleep=clock.sleep)
        assert not outcome.ok and not outcome.timed_out
        assert outcome.failure["kind"] == "error"
        assert outcome.failure["what"] == "job j1"
        assert "permanently broken" in outcome.failure["error"]
        assert len(outcome.failure["attempts"]) == 3
        assert all(a["outcome"] == "error"
                   for a in outcome.failure["attempts"])

    def test_deadline_exceeded_is_terminal_not_retried(self):
        calls = []

        def hangs():
            calls.append(1)
            time.sleep(30)

        outcome = run_with_retry(
            hangs, RetryPolicy(max_attempts=5, deadline_seconds=0.05),
            what="hung job")
        assert not outcome.ok and outcome.timed_out
        assert outcome.failure["kind"] == "timeout"
        assert len(calls) == 1  # no retry after a timeout
        assert [a.outcome for a in outcome.attempts] == ["timeout"]

    def test_deadline_consumed_by_earlier_attempts_fails_fast(self):
        # The fake clock's tick consumes the whole deadline before the
        # second attempt starts; call_with_deadline must fail it without
        # even invoking the body again.
        clock = FakeClock(tick=0.0)
        calls = []

        def fails_once():
            calls.append(1)
            if len(calls) == 1:
                clock.advance(10.0)  # the attempt "took" 10 virtual seconds
                raise ReproError("slow failure")
            return "never reached in time"

        outcome = run_with_retry(
            fails_once,
            RetryPolicy(max_attempts=3, deadline_seconds=5.0,
                        backoff_seconds=0.0),
            clock=clock, sleep=clock.sleep)
        assert not outcome.ok and outcome.timed_out
        assert len(calls) == 1
        assert [a.outcome for a in outcome.attempts] == ["error", "timeout"]

    def test_no_deadline_runs_inline(self):
        # Inline execution: the body sees the caller's thread (the
        # deadline-off configuration must add zero threading).
        import threading

        caller = threading.current_thread()
        seen = []
        outcome = run_with_retry(
            lambda: seen.append(threading.current_thread()),
            RetryPolicy(deadline_seconds=None))
        assert outcome.ok
        assert seen == [caller]

    def test_attempt_records_are_json_safe(self):
        import json

        record = AttemptRecord(index=0, outcome="error", error="boom",
                               elapsed_seconds=0.5, backoff_seconds=0.1)
        json.dumps(record.as_dict())


class TestInputErrorsAreTerminal:
    @pytest.mark.parametrize("error_cls", [
        InfeasibleDesignError, IRError, ElaborationError, ParseError,
        LibraryError, TimingError, SchedulingError, BindingError, InputError,
    ])
    def test_input_error_ends_the_job_on_its_first_attempt(self, error_cls):
        clock = FakeClock()
        calls = []

        def broken_input():
            calls.append(1)
            raise error_cls("the inputs are at fault")

        outcome = run_with_retry(broken_input, RetryPolicy(max_attempts=5),
                                 what="job j1", clock=clock,
                                 sleep=clock.sleep)
        assert len(calls) == 1
        assert clock.sleeps == []
        assert not outcome.ok and not outcome.timed_out
        assert [a.as_dict() for a in outcome.attempts] == [
            AttemptRecord(index=0, outcome="error",
                          error=f"{error_cls.__name__}: "
                                "the inputs are at fault").as_dict()]
        assert outcome.failure["kind"] == "error"
        assert outcome.failure["error"] == outcome.attempts[0].error

    def test_input_error_after_a_transient_one_stops_retrying(self):
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=5, jitter_seed=3)
        calls = []

        def transient_then_infeasible():
            calls.append(1)
            if len(calls) == 1:
                raise ReproError("transient")
            raise InfeasibleDesignError("overconstrained")

        outcome = run_with_retry(transient_then_infeasible, policy,
                                 clock=clock, sleep=clock.sleep)
        assert len(calls) == 2
        assert clock.sleeps == policy.backoff_sequence()[:1]
        assert [a.backoff_seconds for a in outcome.attempts] \
            == clock.sleeps + [0.0]
        assert outcome.failure["error"] \
            == "InfeasibleDesignError: overconstrained"


class TestScenarioTrafficFailures:
    """The failures generated traffic really produces are input errors.

    Served ``submit-design`` jobs come from the scenario generator; if it
    starts producing a failure class outside :class:`InputError`, that
    class falls back into the retry path (three attempts and real backoff
    sleep per job), and this test names it.
    """

    @pytest.mark.parametrize("seed", [1, 11])
    def test_every_failure_of_200_draws_is_an_input_error(self, seed,
                                                          library):
        from repro.flows.dse import evaluate_point
        from repro.verify.scenarios import scenario_stream

        failures = []
        for _, spec in itertools.islice(scenario_stream(seed), 200):
            scheduling = "pipeline" if spec.pipeline_ii is not None \
                else "block"
            try:
                evaluate_point(spec.factory(), library,
                               spec.point(name=spec.name),
                               margin_fraction=spec.margin_fraction,
                               scheduling=scheduling)
            except Exception as exc:  # noqa: BLE001 — classified below
                failures.append(exc)
        assert failures, "the stream is expected to contain failing draws"
        assert [type(exc).__name__ for exc in failures
                if not isinstance(exc, InputError)] == []
