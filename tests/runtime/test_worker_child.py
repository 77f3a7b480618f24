"""The worker process behind the local pool: a child that dies fails its
cell with a typed error and is respawned, and a killed parent leaves no
children behind."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.evalsets import get_problem
from repro.runtime import ProcessExecutor, WorkerError, evaluate_many

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def square(x):
    return x * x


def worker_pid(_x):
    return os.getpid()


def self_killing_system():
    """A system factory whose cell SIGKILLs the process running it."""
    os.kill(os.getpid(), signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid: int) -> list[int]:
    """Live processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return found


def _wait_until(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _start_eval(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_JOBS", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "eval", "mage", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


class TestDispatch:
    def test_every_call_runs_once_with_more_workers_than_cores(self):
        """Four dispatcher threads share one job queue: a job taken
        twice fails its future's second result, one never taken times
        out."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ProcessExecutor(4) as executor:
                futures = [executor.submit(square, i) for i in range(400)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [i * i for i in range(400)]


class TestChildDeath:
    def test_killed_child_fails_its_cell_and_is_respawned(self):
        with ProcessExecutor(1) as executor:
            before = executor.submit(worker_pid, 0).result(timeout=60)
            with pytest.raises(
                WorkerError, match=r"^worker process died mid-job \(exit code -9\)$"
            ):
                evaluate_many(
                    self_killing_system,
                    "verilogeval-v2",
                    problems=[get_problem("cb_mux2")],
                    name="doomed",
                    executor=executor,
                    cache=False,
                    solve_cache=False,
                )
            after = executor.submit(worker_pid, 0).result(timeout=60)
        assert after not in (before, os.getpid())
        assert not _alive(before)

    def test_eval_reports_a_dead_child_and_exits_2(self):
        proc = _start_eval("--runs", "4", "--jobs", "2")
        try:
            assert _wait_until(lambda: len(_children(proc.pid)) >= 2)
            os.kill(_children(proc.pid)[0], signal.SIGKILL)
            output, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == 2, output
        assert "error: worker process died mid-job (exit code -9)" in output
        assert "Traceback" not in output


class TestNoOrphans:
    def test_sigkilled_eval_leaves_no_live_children(self):
        proc = _start_eval("--runs", "4", "--jobs", "2")
        try:
            assert _wait_until(lambda: len(_children(proc.pid)) >= 2)
            children = _children(proc.pid)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert _wait_until(lambda: not any(map(_alive, children))), children
