"""Tests for the supervised process fleet (deadlines, respawn, retry).

Runs under the ``chaos`` marker: every test here injects a worker-level
fault (crash, hang, exception, corrupt payload) and asserts the
fleet's recovery behavior.
"""

import os
import time

import pytest

from repro.errors import PoisonBatchError, ResilienceError
from repro.resilience import (
    FailureLedger,
    NodesBackend,
    RetryPolicy,
    Supervisor,
)
from repro.resilience.supervisor import SupervisedTask

pytestmark = pytest.mark.chaos

#: The fleet under each multiprocess backend name.
FLEETS = {"pool": Supervisor, "nodes": NodesBackend}

#: Fast retry policy so fault tests stay sub-second per retry round.
FAST = RetryPolicy(max_retries=2, base_delay_s=0.01, max_delay_s=0.05,
                   seed=0)


def _work(payload, attempt):
    """Picklable worker body driven by its payload: (index, mode)."""
    index, mode = payload
    if mode == "crash" and attempt == 0:
        os._exit(7)
    if mode == "hang" and attempt == 0:
        time.sleep(60.0)
    if mode == "error" and attempt == 0:
        raise ValueError("injected failure")
    if mode == "always-bad":
        time.sleep(0.2)  # let healthy siblings land first
        return None
    return f"done-{index}"


def _validate(value):
    return None if isinstance(value, str) else "not a string"


def _tasks(modes, timeout_s=10.0):
    return [
        SupervisedTask(task_id=i, index=i, payload=(i, mode),
                       timeout_s=timeout_s)
        for i, mode in enumerate(modes)
    ]


def _run(modes, timeout_s=10.0, fleet=Supervisor, **kwargs):
    kwargs.setdefault("policy", FAST)
    supervisor = fleet(_work, n_processes=2, **kwargs)
    outcomes = list(supervisor.stream(_tasks(modes, timeout_s)))
    return supervisor, outcomes


class TestHappyPath:
    def test_results_stream_in_task_order(self):
        supervisor, outcomes = _run(["ok"] * 6)
        assert outcomes == [f"done-{i}" for i in range(6)]
        assert supervisor.worker_respawns == 0
        assert supervisor.ledger.build_report().clean

    def test_non_contiguous_task_ids_rejected(self):
        supervisor = Supervisor(_work, n_processes=1, policy=FAST)
        bad = [SupervisedTask(task_id=5, index=0, payload=(0, "ok"),
                              timeout_s=1.0)]
        with pytest.raises(ResilienceError):
            list(supervisor.stream(bad))


class TestFaultRecovery:
    @pytest.mark.parametrize("backend", sorted(FLEETS))
    def test_crash_is_retried_on_a_fresh_worker(self, backend):
        # A plain worker death (exit 7, no chaos exit code) is a crash
        # on every fleet configuration, never a node fault.
        supervisor, outcomes = _run(["crash", "ok"], fleet=FLEETS[backend])
        assert outcomes == ["done-0", "done-1"]
        assert supervisor.worker_respawns >= 1
        report = supervisor.ledger.build_report()
        attempt = report.batches[0].attempts[0]
        assert attempt.kind == "crash"
        assert attempt.cause == "worker exited with code 7"
        assert report.batches[0].recovered

    def test_hang_blows_deadline_and_recovers(self):
        supervisor, outcomes = _run(["hang", "ok"], timeout_s=0.5)
        assert outcomes == ["done-0", "done-1"]
        report = supervisor.ledger.build_report()
        assert report.batches[0].attempts[0].kind == "timeout"
        assert report.batches[0].recovered

    def test_worker_exception_recorded_and_retried(self):
        supervisor, outcomes = _run(["error", "ok"])
        assert outcomes == ["done-0", "done-1"]
        attempt = supervisor.ledger.build_report().batches[0].attempts[0]
        assert attempt.kind == "error"
        assert "injected failure" in attempt.cause

    def test_corrupt_payload_caught_by_validation(self):
        supervisor, outcomes = _run(["ok", "ok"], validate=_validate)
        assert outcomes == ["done-0", "done-1"]
        # Now one batch that always returns garbage: every attempt is a
        # corrupt-result failure, so the batch must be quarantined.
        supervisor, outcomes = _run(["always-bad", "ok"],
                                    validate=_validate)
        assert outcomes == [None, "done-1"]
        failure = supervisor.ledger.build_report().batches[0]
        assert failure.quarantined
        assert {a.kind for a in failure.attempts} == {"corrupt-result"}


class TestPoisonHandling:
    def test_degrade_yields_none_for_poison(self):
        supervisor, outcomes = _run(["always-bad", "ok", "ok"],
                                    validate=_validate, fail_fast=False)
        assert outcomes == [None, "done-1", "done-2"]
        report = supervisor.ledger.build_report()
        assert report.n_quarantined == 1
        # Retry budget: 1 + max_retries attempts, all failed.
        assert len(report.batches[0].attempts) == 1 + FAST.max_retries

    def test_fail_fast_raises_poison_batch_error(self):
        supervisor = Supervisor(_work, n_processes=2, policy=FAST,
                                validate=_validate, fail_fast=True)
        with pytest.raises(PoisonBatchError):
            list(supervisor.stream(_tasks(["always-bad", "ok"])))

    def test_completed_results_survive_fail_fast(self):
        """Work that landed before the poison verdict stays retrievable,
        so an interrupted sweep can flush it to its cache."""
        supervisor = Supervisor(_work, n_processes=2, policy=FAST,
                                validate=_validate, fail_fast=True)
        with pytest.raises(PoisonBatchError):
            list(supervisor.stream(_tasks(["always-bad", "ok"])))
        landed = dict(supervisor.completed_unyielded())
        assert landed.get(1) == "done-1"


class TestRespawnBudget:
    def test_crash_loop_exhausts_budget(self):
        supervisor = Supervisor(_work, n_processes=1, policy=FAST,
                                max_respawns=0)
        with pytest.raises(ResilienceError, match="respawn budget"):
            list(supervisor.stream(_tasks(["crash"])))


class TestLedgerSharing:
    def test_external_ledger_is_used(self):
        ledger = FailureLedger(FAST, "degrade")
        supervisor = Supervisor(_work, n_processes=2, policy=FAST)
        outcomes = list(supervisor.stream(_tasks(["error", "ok"]),
                                          ledger=ledger))
        assert outcomes == ["done-0", "done-1"]
        assert supervisor.ledger is ledger
        assert ledger.build_report().n_failed_batches == 1

    def test_close_is_idempotent(self):
        supervisor, _ = _run(["ok"])
        supervisor.close()
        supervisor.close()
