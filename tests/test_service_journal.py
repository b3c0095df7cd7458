"""Tests for the crash-safe SQLite job journal and its scheduler wiring.

The unit half drives :class:`JobJournal` directly — atomic transitions,
duplicate-digest refusal, bounded-retry requeues, orphan recovery, the
single-owner lease.  The integration half runs journal-backed
:class:`JobScheduler` instances through submit/retry/restart flows,
including the "pretend this process just crashed" path: write rows into a
journal, open a *new* scheduler on it, and watch the work come back.  The
last part drives ``repro jobs`` over a journal, live and offline.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import cli
from repro.core.result import SynthesisReport
from repro.service import (
    JobJournal,
    JobScheduler,
    JobState,
    JournalBusy,
    LiftRequest,
    LiftingService,
    ResultStore,
    backoff_seconds,
    resolve_journal_path,
)
from repro.service import faults
from repro.service.journal import BACKOFF_CAP_SECONDS, JournalError

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _report(name: str = "t", success: bool = True) -> SynthesisReport:
    return SynthesisReport(task_name=name, method="test", success=success)


def _echo(payload, budget=None, observer=None) -> SynthesisReport:
    return _report(str(payload))


def _dead_pid() -> int:
    """A pid that provably belonged to a process that has exited."""
    process = subprocess.Popen(["true"])
    process.wait()
    return process.pid


@pytest.fixture()
def journal(tmp_path):
    journal = JobJournal(tmp_path / "jobs.journal.sqlite3")
    yield journal
    journal.close()


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.reset()


# ---------------------------------------------------------------------- #
# Unit: backoff and path resolution
# ---------------------------------------------------------------------- #
def test_backoff_is_deterministic_exponential_and_capped():
    assert backoff_seconds("job-a", 1) == backoff_seconds("job-a", 1)
    assert backoff_seconds("job-a", 1) != backoff_seconds("job-b", 1)
    assert backoff_seconds("job-a", 2) > backoff_seconds("job-a", 1)
    assert backoff_seconds("job-a", 50) == BACKOFF_CAP_SECONDS


def test_resolve_journal_path(tmp_path):
    directory = tmp_path / "data"
    directory.mkdir()
    assert resolve_journal_path(directory).name == "jobs.journal.sqlite3"
    explicit = tmp_path / "custom.journal.sqlite3"
    assert resolve_journal_path(explicit) == explicit
    # A not-yet-existing extensionless path is treated as a directory.
    assert (resolve_journal_path(tmp_path / "fresh")).name == "jobs.journal.sqlite3"


# ---------------------------------------------------------------------- #
# Unit: transitions
# ---------------------------------------------------------------------- #
class TestTransitions:
    def test_insert_and_row_round_trip(self, journal):
        journal.insert("j1", "d1" * 8, '{"x": 1}', priority=2, timeout=30.0)
        row = journal.row("j1")
        assert row.state == "queued"
        assert row.priority == 2
        assert row.timeout == 30.0
        assert row.attempts == 0
        assert not row.terminal
        assert journal.counts() == {"queued": 1}

    def test_duplicate_active_digest_is_refused(self, journal):
        journal.insert("j1", "dup" * 4, "{}")
        with pytest.raises(JournalError):
            journal.insert("j2", "dup" * 4, "{}")
        # Once the first row is terminal, the digest is free again.
        assert journal.claim("j1")
        assert journal.finish("j1", "succeeded")
        journal.insert("j2", "dup" * 4, "{}")

    def test_claim_is_single_winner(self, journal):
        journal.insert("j1", "d1", "{}")
        assert journal.claim("j1", "worker-a")
        assert not journal.claim("j1", "worker-b")  # already running
        row = journal.row("j1")
        assert row.state == "running"
        assert row.owner == "worker-a"
        assert row.attempts == 1

    def test_claim_respects_backoff_window(self, journal):
        journal.insert("j1", "d1", "{}")
        assert journal.claim("j1")
        assert journal.requeue("j1", error="flake") is not None
        # not_before is in the future, so an immediate claim loses.
        assert not journal.claim("j1")
        assert journal.row("j1").state == "queued"

    def test_finish_is_guarded_by_state(self, journal):
        journal.insert("j1", "d1", "{}")
        assert journal.claim("j1")
        assert journal.finish("j1", "succeeded")
        assert not journal.finish("j1", "failed")  # already terminal
        assert journal.row("j1").state == "succeeded"
        with pytest.raises(ValueError):
            journal.finish("j1", "queued")

    def test_requeue_respects_max_attempts(self, journal):
        journal.insert("j1", "d1", "{}", max_attempts=2)
        assert journal.claim("j1")
        not_before = journal.requeue("j1", error="flake 1")
        assert not_before is not None and not_before > time.time()
        time.sleep(max(0.0, not_before - time.time()) + 0.01)
        assert journal.claim("j1")
        # Second requeue would exceed max_attempts=2: refused.
        assert journal.requeue("j1", error="flake 2") is None
        assert journal.row("j1").attempts == 2

    def test_requeue_terminal_resets_the_attempt_budget(self, journal):
        journal.insert("j1", "d1", "{}", max_attempts=1)
        assert journal.claim("j1")
        assert journal.finish("j1", "failed", error="boom")
        assert journal.requeue_terminal("j1")
        row = journal.row("j1")
        assert row.state == "queued"
        assert row.attempts == 0
        assert row.error == ""
        # Active (queued/running) rows cannot be operator-requeued.
        assert not journal.requeue_terminal("j1")

    def test_counts_and_meta(self, journal):
        journal.insert("j1", "d1", "{}")
        journal.insert("j2", "d2", "{}")
        assert journal.claim("j2")
        assert journal.counts() == {"queued": 1, "running": 1}
        assert journal.meta_get("rejected_total") == 0
        journal.meta_set("rejected_total", 7)
        assert journal.meta_get("rejected_total") == 7


# ---------------------------------------------------------------------- #
# Unit: crash recovery
# ---------------------------------------------------------------------- #
class TestRecovery:
    def test_recover_requeues_orphans_of_dead_processes(self, journal):
        journal.insert("j1", "d1", "{}")
        dead_owner = f"{socket.gethostname()}:{_dead_pid()}"
        assert journal.claim("j1", dead_owner)
        runnable, failed = journal.recover()
        assert failed == []
        assert [row.id for row in runnable] == ["j1"]
        row = journal.row("j1")
        assert row.state == "queued"
        assert row.not_before > time.time()  # backoff applied
        assert "interrupted by a crash" in row.error

    def test_recover_under_the_lease_requeues_every_running_row(self, journal):
        # Whoever the owner column names — this very process, another host,
        # nobody — the lease proves it is gone, so every RUNNING row is an
        # orphan.
        owners = [f"{socket.gethostname()}:{os.getpid()}", "elsewhere:12345", ""]
        for number, owner in enumerate(owners):
            journal.insert(f"j{number}", f"d{number}", "{}", timeout=3600.0)
            assert journal.claim(f"j{number}", owner)
        lease = journal.lease()
        try:
            runnable, failed = journal.recover()
        finally:
            lease.release()
        assert failed == []
        assert sorted(row.id for row in runnable) == ["j0", "j1", "j2"]
        for number in range(len(owners)):
            row = journal.row(f"j{number}")
            assert row.state == "queued"
            assert row.owner == ""
            assert "interrupted by a crash" in row.error

    def test_recover_fails_orphans_past_their_attempt_budget(self, journal):
        journal.insert("j1", "d1", "{}", max_attempts=1)
        dead_owner = f"{socket.gethostname()}:{_dead_pid()}"
        assert journal.claim("j1", dead_owner)
        runnable, failed = journal.recover()
        assert runnable == []
        assert [row.id for row in failed] == ["j1"]
        row = journal.row("j1")
        assert row.state == "failed"
        assert "max_attempts=1 exhausted" in row.error



# ---------------------------------------------------------------------- #
# Integration: journal-backed scheduler
# ---------------------------------------------------------------------- #
class TestJournalScheduler:
    def test_submission_is_journaled_through_to_terminal(self, tmp_path):
        journal = JobJournal(tmp_path)
        scheduler = JobScheduler(
            lambda payload, **_: _report(str(payload)), workers=1, journal=journal
        )
        try:
            job = scheduler.submit("x", digest="d1" * 8)
            assert job.wait(10)
            assert job.state is JobState.SUCCEEDED
            row = journal.row(job.id)
            assert row.state == "succeeded"
            assert row.attempts == 1
        finally:
            scheduler.shutdown()
            journal.close()

    def test_transient_failures_retry_with_backoff_then_succeed(self, tmp_path):
        journal = JobJournal(tmp_path)
        calls = []

        def flaky(payload, budget=None, observer=None):
            calls.append(payload)
            if len(calls) < 3:
                raise OSError("oracle connection reset")
            return _report(str(payload))

        scheduler = JobScheduler(flaky, workers=1, journal=journal)
        try:
            job = scheduler.submit("x", digest="df" * 8)
            assert job.wait(30)
            assert job.state is JobState.SUCCEEDED
            assert len(calls) == 3
            assert job.attempts == 3
            assert scheduler.stats()["retried"] == 2
            assert journal.row(job.id).attempts == 3
        finally:
            scheduler.shutdown()
            journal.close()

    def test_deterministic_failures_do_not_retry(self, tmp_path):
        journal = JobJournal(tmp_path)
        calls = []

        def broken(payload, budget=None, observer=None):
            calls.append(payload)
            raise ValueError("bad grammar")

        scheduler = JobScheduler(broken, workers=1, journal=journal)
        try:
            job = scheduler.submit("x", digest="db" * 8)
            assert job.wait(10)
            assert job.state is JobState.FAILED
            assert len(calls) == 1
            assert scheduler.stats()["retried"] == 0
            assert journal.row(job.id).state == "failed"
        finally:
            scheduler.shutdown()
            journal.close()

    def test_attempts_are_bounded(self, tmp_path):
        journal = JobJournal(tmp_path)
        calls = []

        def always_flaky(payload, budget=None, observer=None):
            calls.append(payload)
            raise OSError("still down")

        scheduler = JobScheduler(
            always_flaky, workers=1, journal=journal, max_attempts=2
        )
        try:
            job = scheduler.submit("x", digest="da" * 8)
            assert job.wait(30)
            assert job.state is JobState.FAILED
            assert len(calls) == 2
            assert journal.row(job.id).attempts == 2
        finally:
            scheduler.shutdown()
            journal.close()

    def test_new_scheduler_adopts_journaled_work(self, tmp_path):
        # A row journaled by a previous (crashed) process, never claimed.
        setup = JobJournal(tmp_path)
        setup.insert("job-prior-1", "dq" * 8, json.dumps("carried-over"))
        setup.close()
        journal = JobJournal(tmp_path)
        calls = []

        def executor(payload, budget=None, observer=None):
            calls.append(payload)
            return _report(str(payload))

        scheduler = JobScheduler(executor, workers=1, journal=journal)
        try:
            assert scheduler.stats()["recovered"] == 1
            deadline = time.time() + 10
            while time.time() < deadline:
                if journal.row("job-prior-1").state == "succeeded":
                    break
                time.sleep(0.05)
            assert journal.row("job-prior-1").state == "succeeded"
            assert calls == ["carried-over"]
            assert journal.meta_get("recovered_total") == 1
        finally:
            scheduler.shutdown()
            journal.close()

    def test_new_scheduler_recovers_interrupted_running_work(self, tmp_path):
        setup = JobJournal(tmp_path)
        setup.insert("job-prior-2", "dr" * 8, json.dumps("interrupted"))
        dead_owner = f"{socket.gethostname()}:{_dead_pid()}"
        assert setup.claim("job-prior-2", dead_owner)
        setup.close()
        journal = JobJournal(tmp_path)
        scheduler = JobScheduler(
            lambda payload, **_: _report(str(payload)), workers=1, journal=journal
        )
        try:
            deadline = time.time() + 10
            while time.time() < deadline:
                if journal.row("job-prior-2").state == "succeeded":
                    break
                time.sleep(0.05)
            row = journal.row("job-prior-2")
            assert row.state == "succeeded"
            assert row.attempts == 2  # the pre-crash run counted
        finally:
            scheduler.shutdown()
            journal.close()

    def test_recovered_work_with_stored_digest_is_not_resynthesized(self, tmp_path):
        digest = "ds" * 8
        store = ResultStore(tmp_path / "store")
        store.put(digest, _report("already-answered"))
        setup = JobJournal(tmp_path / "data")
        setup.insert("job-prior-3", digest, json.dumps("x"))
        setup.close()
        journal = JobJournal(tmp_path / "data")
        calls = []

        def executor(payload, budget=None, observer=None):  # pragma: no cover - must not run
            calls.append(payload)
            return _report(str(payload))

        scheduler = JobScheduler(executor, store=store, workers=1, journal=journal)
        try:
            deadline = time.time() + 10
            while time.time() < deadline:
                row = journal.row("job-prior-3")
                if row.state == "succeeded":
                    break
                time.sleep(0.05)
            row = journal.row("job-prior-3")
            assert row.state == "succeeded"
            assert bool(row.cached)
            assert calls == []
        finally:
            scheduler.shutdown()
            journal.close()

    def test_local_dedup_records_attach_in_journal(self, tmp_path):
        journal = JobJournal(tmp_path)
        release = threading.Event()

        def gated(payload, budget=None, observer=None):
            assert release.wait(10)
            return _report(str(payload))

        scheduler = JobScheduler(gated, workers=1, journal=journal)
        try:
            first = scheduler.submit("x", digest="dd" * 8)
            second = scheduler.submit("x", digest="dd" * 8)
            assert second is first
            release.set()
            assert first.wait(10)
            assert journal.row(first.id).submissions == 2
        finally:
            scheduler.shutdown()
            journal.close()


    def test_retry_under_negative_clock_skew_keeps_the_submitted_job(self, tmp_path):
        # With the journal clock behind the wall clock, a retried job looked
        # due to the scheduler before the journal let it be claimed.  The
        # refused claim used to drop the job: a second Job object then ran
        # the row while the one submit() returned stayed queued forever.
        faults.configure({"clock": "skew-5"})
        journal = JobJournal(tmp_path)
        calls = []

        def flaky_once(payload, budget=None, observer=None):
            calls.append(payload)
            if len(calls) == 1:
                raise OSError("oracle connection reset")
            return _report(str(payload))

        scheduler = JobScheduler(flaky_once, workers=1, journal=journal)
        try:
            job = scheduler.submit("x", digest="dk" * 8)
            assert job.wait(12)
            assert job.state is JobState.SUCCEEDED
            assert scheduler.job(job.id) is job
            assert len(calls) == 2
        finally:
            scheduler.shutdown()
            journal.close()

    def test_a_refused_claim_defers_the_job_instead_of_dropping_it(self, tmp_path):
        journal = JobJournal(tmp_path)
        claim = journal.claim
        refusals = []

        def refuse_once(job_id, owner=None):
            if not refusals:
                refusals.append(job_id)
                return False
            return claim(job_id, owner)

        journal.claim = refuse_once
        scheduler = JobScheduler(_echo, workers=1, journal=journal)
        try:
            job = scheduler.submit("x", digest="dc" * 8)
            assert job.wait(10)
            assert refusals == [job.id]
            assert job.state is JobState.SUCCEEDED
            assert scheduler.job(job.id) is job
            assert journal.row(job.id).state == "succeeded"
        finally:
            scheduler.shutdown()
            journal.close()


# ---------------------------------------------------------------------- #
# Integration: LiftingService across a simulated restart
# ---------------------------------------------------------------------- #
class TestServiceRestart:
    def test_status_and_result_survive_a_service_restart(self, tmp_path):
        request = LiftRequest(benchmark="darknet.copy_cpu", timeout=30.0)
        service = LiftingService(
            cache_dir=tmp_path / "store", workers=1, journal=tmp_path / "data"
        )
        job = service.submit(request)
        assert job.wait(60)
        assert job.state is JobState.SUCCEEDED
        service.close()

        reborn = LiftingService(
            cache_dir=tmp_path / "store", workers=1, journal=tmp_path / "data"
        )
        try:
            status = reborn.status(job.id)
            assert status is not None
            assert status["state"] == "succeeded"
            result = reborn.result(job.id)
            assert result["report"] is not None
            assert result["report"]["success"] is True
            # Resubmitting the same request is a store answer, not a rerun.
            again = reborn.submit(request)
            assert again.cached
        finally:
            reborn.close()

    def test_queued_jobs_survive_a_non_draining_shutdown(self, tmp_path):
        journal = JobJournal(tmp_path)
        release = threading.Event()
        started = threading.Event()

        def gated(payload, budget=None, observer=None):
            started.set()
            assert release.wait(10)
            return _report(str(payload))

        scheduler = JobScheduler(gated, workers=1, journal=journal)
        blocked = scheduler.submit("a", digest="d1" * 8)
        assert started.wait(10)
        queued = scheduler.submit("b", digest="d2" * 8)
        # Journal-backed default: stop without draining the queue.  The
        # shutdown flag is raised before the running job is released, so
        # the worker finishes "a" but must not pick up "b".
        scheduler.shutdown(wait=False)
        release.set()
        assert blocked.wait(10)
        scheduler.shutdown()
        assert journal.row(queued.id).state == "queued"
        journal.close()

        # The queued row is adopted by the next scheduler on this journal.
        journal2 = JobJournal(tmp_path)
        scheduler2 = JobScheduler(
            lambda payload, **_: _report(str(payload)), workers=1, journal=journal2
        )
        try:
            assert scheduler2.stats()["recovered"] == 1
            deadline = time.time() + 10
            while time.time() < deadline:
                if journal2.row(queued.id).state == "succeeded":
                    break
                time.sleep(0.05)
            assert journal2.row(queued.id).state == "succeeded"
        finally:
            scheduler2.shutdown()
            journal2.close()


# ---------------------------------------------------------------------- #
# The single-owner lease
# ---------------------------------------------------------------------- #
#: Takes the lease on argv[1], optionally forks a child that outlives it
#: (argv[2] == "fork"), prints the child's pid (0 when none) and sleeps.
_LEASE_HOLDER = """
import os, sys, time
from repro.service import JobJournal
lease = JobJournal(sys.argv[1]).lease()
child = 0
if sys.argv[2] == "fork":
    child = os.fork()
    if child == 0:
        time.sleep(60)
        os._exit(0)
print(child, flush=True)
time.sleep(60)
"""


class TestLease:
    def _hold_in_subprocess(self, path, mode: str = "plain"):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        holder = subprocess.Popen(
            [sys.executable, "-c", _LEASE_HOLDER, str(path), mode],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = holder.stdout.readline()
        holder.stdout.close()
        assert line.strip().isdigit(), f"lease holder failed to start: {line!r}"
        return holder, int(line)

    def _assert_busy(self, path) -> None:
        journal = JobJournal(path)
        try:
            with pytest.raises(JournalBusy, match=str(journal.path)):
                JobScheduler(_echo, workers=1, journal=journal)
        finally:
            journal.close()

    def _assert_free(self, path) -> None:
        journal = JobJournal(path)
        scheduler = JobScheduler(_echo, workers=1, journal=journal)
        scheduler.shutdown()
        journal.close()

    def test_second_scheduler_in_process_is_refused(self, tmp_path):
        journal = JobJournal(tmp_path)
        # More workers than cores and a short switch interval: a lost update
        # of the live-worker count would leave the lease held below.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            scheduler = JobScheduler(_echo, workers=8, journal=journal)
            try:
                self._assert_busy(tmp_path)
            finally:
                scheduler.shutdown(timeout=10)
                journal.close()
            assert not any(worker.is_alive() for worker in scheduler._workers)
        finally:
            sys.setswitchinterval(interval)
        # The last worker out released the lease.
        self._assert_free(tmp_path)

    def test_second_service_on_a_leased_journal_is_refused(self, tmp_path):
        service = LiftingService(workers=1, journal=tmp_path)
        try:
            with pytest.raises(JournalBusy):
                LiftingService(workers=1, journal=tmp_path)
        finally:
            service.close()

    def test_scheduler_is_refused_while_a_subprocess_holds_the_lease(self, tmp_path):
        holder, _ = self._hold_in_subprocess(tmp_path)
        try:
            self._assert_busy(tmp_path)
        finally:
            holder.kill()
            holder.wait(10)

    def test_lease_is_free_at_once_after_the_holder_is_sigkilled(self, tmp_path):
        holder, _ = self._hold_in_subprocess(tmp_path)
        holder.send_signal(signal.SIGKILL)
        holder.wait(10)
        self._assert_free(tmp_path)

    def test_a_forked_child_of_a_killed_holder_does_not_keep_the_lease(
        self, tmp_path
    ):
        holder, child = self._hold_in_subprocess(tmp_path, "fork")
        try:
            assert child > 0
            holder.send_signal(signal.SIGKILL)
            holder.wait(10)
            os.kill(child, 0)  # the child still runs (raises if it does not)
            self._assert_free(tmp_path)
        finally:
            holder.kill()
            holder.wait(10)
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass


# ---------------------------------------------------------------------- #
# `repro jobs`: listing (live or offline) and offline --requeue
# ---------------------------------------------------------------------- #
class TestJobsCommand:
    @pytest.fixture()
    def path(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.insert("job-failed", "df" * 8, "{}", max_attempts=1)
        assert journal.claim("job-failed")
        assert journal.finish("job-failed", "failed", error="boom")
        journal.insert("job-ok", "d0" * 8, "{}")
        assert journal.claim("job-ok")
        assert journal.finish("job-ok", "succeeded")
        path = journal.path
        journal.close()
        return path

    def _jobs(self, capsys, path, *args):
        status = cli.main(["jobs", "--journal", str(path), *args])
        out, err = capsys.readouterr()
        return status, out, err

    def test_listing_and_counts(self, capsys, path):
        status, out, _ = self._jobs(capsys, path)
        assert status == 0
        assert "job-failed" in out and "job-ok" in out
        assert "boom" in out
        assert out.splitlines()[-1] == "(2 shown; failed=1, succeeded=1)"

    def test_state_filter(self, capsys, path):
        status, out, _ = self._jobs(capsys, path, "--state", "failed")
        assert status == 0
        assert "job-failed" in out and "job-ok" not in out
        assert out.splitlines()[-1] == "(1 shown; failed=1, succeeded=1)"

    def test_requeue_of_a_failed_job(self, capsys, path):
        status, out, _ = self._jobs(capsys, path, "--requeue", "job-failed")
        assert status == 0
        assert "requeued job-failed (was failed)" in out
        journal = JobJournal(path)
        try:
            row = journal.row("job-failed")
            assert row.state == "queued"
            assert row.attempts == 0
        finally:
            journal.close()

    @pytest.mark.parametrize("job_id", ["job-ok", "job-never-existed"])
    def test_requeue_of_a_succeeded_or_unknown_job_fails(self, capsys, path, job_id):
        status, _, err = self._jobs(capsys, path, "--requeue", job_id)
        assert status == 1
        assert job_id in err

    def test_requeue_is_refused_while_a_scheduler_holds_the_lease(
        self, capsys, path
    ):
        journal = JobJournal(path)
        scheduler = JobScheduler(_echo, workers=1, journal=journal)
        try:
            status, out, err = self._jobs(capsys, path, "--requeue", "job-failed")
            assert status == 1
            assert "requeue refused" in err and str(path) in err
            # Listing needs no lease: it still works on the live journal.
            assert out.splitlines()[-1] == "(2 shown; failed=1, succeeded=1)"
            status, out, _ = self._jobs(capsys, path)
            assert status == 0
            assert "job-failed" in out
            assert journal.row("job-failed").state == "failed"
        finally:
            scheduler.shutdown()
            journal.close()
