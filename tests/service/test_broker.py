"""Broker contract: FIFO order, one terminal message, backpressure, drain."""

import threading

import pytest

from repro.core.events import TestbenchReady
from repro.service.broker import Broker, BrokerClosed, BrokerFull


def _drain(job):
    """Collect (events, outcome) from one job's messages."""
    events, outcome = [], None
    for kind, payload in job:
        if kind == "event":
            events.append(payload)
        else:
            outcome = (kind, payload)
    return events, outcome


def _terminal_messages(job) -> list:
    """Every terminal message waiting in a settled job's queue."""
    terminal = []
    while not job.messages.empty():
        kind, payload = job.messages.get_nowait()
        if kind != "event":
            terminal.append((kind, payload))
    return terminal


class TestOrder:
    def test_jobs_pop_in_submission_order(self):
        broker = Broker()
        for name in ("c", "a", "b", "a2"):
            broker.submit("s", name, 0)
        assert [broker.next_job().problem for _ in range(4)] == [
            "c",
            "a",
            "b",
            "a2",
        ]
        assert broker.next_job(timeout=0.01) is None

    def test_identical_submits_are_separate_jobs(self):
        """No in-flight sharing: the same cell twice is two queued jobs,
        each read by its own subscriber."""
        broker = Broker()
        first = broker.submit("mage", "cb_mux2", 3)
        second = broker.submit("mage", "cb_mux2", 3)
        assert first is not second
        assert len(broker) == 2
        assert broker.next_job() is first
        assert broker.next_job() is second
        assert broker.stats.submitted == 2


class TestMessages:
    def test_events_then_one_outcome(self):
        broker = Broker()
        job = broker.submit("s", "p", 0)
        event = TestbenchReady(total_checks=4)
        assert broker.next_job() is job
        job.publish(event)
        broker.finish(job, "result")
        assert _drain(job) == ([event], ("done", "result"))
        assert broker.stats.completed == 1

    def test_failure_is_a_terminal_error(self):
        broker = Broker()
        job = broker.submit("s", "p", 0)
        broker.next_job()
        broker.fail(job, "boom")
        assert _drain(job) == ([], ("error", "boom"))
        assert broker.stats.failed == 1

    @pytest.mark.parametrize("attempt", range(5))
    def test_abort_racing_a_finishing_worker(self, attempt):
        """A worker finishes the jobs it popped while the server aborts
        the queue: every job gets exactly one terminal message, and the
        broker counts each job once."""
        broker = Broker()
        jobs = [broker.submit("s", f"p{i}", attempt) for i in range(200)]
        popped = threading.Event()

        def work():
            while (job := broker.next_job(timeout=1)) is not None:
                popped.set()
                job.publish(TestbenchReady(total_checks=1))
                broker.finish(job, job.problem)

        worker = threading.Thread(target=work)
        worker.start()
        popped.wait(timeout=10)
        aborted = broker.abort("server killed")
        worker.join(timeout=10)
        assert not worker.is_alive()
        outcomes = [_terminal_messages(job) for job in jobs]
        assert all(len(terminal) == 1 for terminal in outcomes)
        done = [t for (t,) in outcomes if t[0] == "done"]
        errors = [t for (t,) in outcomes if t[0] == "error"]
        assert len(errors) == aborted
        assert all(message == "server killed" for _, message in errors)
        assert broker.stats.completed == len(done)
        assert broker.stats.failed == aborted
        assert len(done) + aborted == broker.stats.submitted == len(jobs)
        # Aborting ran FIFO too: the finished jobs are a prefix.
        finished = {payload for _, payload in done}
        assert finished == {job.problem for job in jobs[: len(done)]}


class TestBackpressure:
    def test_queue_ceiling_rejects(self):
        broker = Broker(max_pending=2)
        broker.submit("s", "a", 0)
        broker.submit("s", "b", 0)
        with pytest.raises(BrokerFull):
            broker.submit("s", "c", 0)
        # A duplicate of queued work needs its own slot as well.
        with pytest.raises(BrokerFull):
            broker.submit("s", "a", 0)
        assert broker.stats.rejected == 2
        assert broker.stats.submitted == 2

    def test_popping_frees_a_slot(self):
        broker = Broker(max_pending=1)
        broker.submit("s", "a", 0)
        broker.next_job()
        broker.submit("s", "b", 0)  # no raise


class TestDrain:
    def test_close_refuses_new_work(self):
        broker = Broker()
        broker.close()
        with pytest.raises(BrokerClosed):
            broker.submit("s", "p", 0)

    def test_queued_jobs_drain_after_close(self):
        broker = Broker()
        broker.submit("s", "a", 0)
        broker.submit("s", "b", 0)
        broker.close()
        assert broker.next_job().problem == "a"
        assert broker.next_job().problem == "b"
        assert broker.next_job() is None

    def test_abort_fails_only_queued_jobs(self):
        broker = Broker()
        running = broker.submit("s", "a", 0)
        queued = broker.submit("s", "b", 0)
        assert broker.next_job() is running
        assert broker.abort("server killed") == 1
        assert _drain(queued) == ([], ("error", "server killed"))
        assert len(broker) == 0
        assert broker.next_job() is None
        with pytest.raises(BrokerClosed):
            broker.submit("s", "c", 0)
        broker.finish(running, "r")  # a popped job still finishes
        assert _drain(running) == ([], ("done", "r"))

    def test_close_wakes_blocked_workers(self):
        broker = Broker()
        results = []

        def wait_for_work():
            results.append(broker.next_job())

        thread = threading.Thread(target=wait_for_work)
        thread.start()
        broker.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert results == [None]

    def test_timeout_returns_none(self):
        broker = Broker()
        assert broker.next_job(timeout=0.01) is None
