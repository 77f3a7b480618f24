"""CLI smoke tests (python -m repro)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime import runtime_session

SRC = Path(__file__).resolve().parents[1] / "src"


class TestCli:
    def test_problems_lists_all(self, capsys):
        assert main(["problems"]) == 0
        out = capsys.readouterr().out
        assert "cb_kmap_mux" in out and "me_fifo4" in out

    def test_lint_clean_file(self, tmp_path, capsys):
        path = tmp_path / "ok.v"
        path.write_text("module m (input a, output y); assign y = a; endmodule\n")
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_broken_file(self, tmp_path, capsys):
        path = tmp_path / "bad.v"
        path.write_text("module m (input a, output y); assign y = b; endmodule\n")
        assert main(["lint", str(path)]) == 1
        assert "error" in capsys.readouterr().out

    def test_tb_run_with_vcd(self, tmp_path, capsys):
        design = tmp_path / "mux.v"
        design.write_text(
            "module mux (input [3:0] a, input [3:0] b, input s, "
            "output [3:0] y); assign y = s ? b : a; endmodule\n"
        )
        bench = tmp_path / "mux.tb"
        bench.write_text(
            "TESTBENCH comb\nINPUTS a b s\nOUTPUTS y\n"
            "STEP a=3 b=12 s=0 ; EXPECT y=3\nSTEP s=1 ; EXPECT y=12\n"
        )
        vcd = tmp_path / "mux.vcd"
        assert main(["tb", str(design), str(bench), "--vcd", str(vcd)]) == 0
        assert "score 1.000" in capsys.readouterr().out
        assert vcd.read_text().startswith("$date")

    def test_solve_easy_problem(self, capsys):
        assert main(["solve", "cb_and_or_gate", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "golden testbench: PASS" in out

    def test_eval_unknown_system(self, capsys):
        assert main(["eval", "martian"]) == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliRuntime:
    def test_eval_jobs_parity(self, capsys):
        argv = ["eval", "vanilla-claude", "--runs", "2", "--limit", "3"]
        assert main(argv + ["--jobs", "1"]) in (0,)
        serial_row = capsys.readouterr().out.splitlines()[0]
        assert main(argv + ["--jobs", "4"]) in (0,)
        parallel_row = capsys.readouterr().out.splitlines()[0]
        assert serial_row == parallel_row

    def test_eval_runs_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_RUNS", "2")
        assert main(["eval", "vanilla-claude", "--limit", "1", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "0/2 passed" in out or "2/2 passed" in out

    def test_eval_seed0_flag(self, capsys):
        argv = ["eval", "mage", "--runs", "1", "--limit", "2"]
        assert main(argv + ["--seed0", "5"]) == 0
        capsys.readouterr()

    def test_eval_verbose_reports_cache(self, capsys):
        argv = [
            "eval", "vanilla-claude", "--runs", "2", "--limit", "2", "--verbose"
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache lookups" in out
        assert "executor" in out

    def test_eval_no_cache(self, capsys):
        argv = [
            "eval", "vanilla-claude", "--runs", "1", "--limit", "1",
            "--no-cache", "--verbose",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "hits 0, misses 0" in out  # cache fully bypassed
        assert "simulations" in out

    def test_eval_bad_jobs_clean_error(self, capsys):
        assert main(["eval", "mage", "--jobs", "0", "--limit", "1"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().out

    def test_eval_unknown_suite_clean_error(self, capsys):
        assert main(["eval", "mage", "nosuchsuite"]) == 2
        assert "unknown suite" in capsys.readouterr().out

    def test_eval_malformed_runs_env_falls_back(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_RUNS", "twenty")
        assert main(["eval", "vanilla-claude", "--limit", "1"]) == 0
        capsys.readouterr()

    def test_run_streams_events(self, capsys):
        assert main(["run", "cb_and_or_gate", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "run started: mage[" in out
        assert "stage step1 started" in out
        assert "run finished: PASS" in out
        assert "golden testbench: PASS" in out

    def test_run_registered_system(self, capsys):
        assert main(["run", "cb_mux2", "--system", "aivril"]) == 0
        out = capsys.readouterr().out
        assert "run started: two-agent[" in out
        assert "stage testbench started" in out

    def test_run_unknown_system(self, capsys):
        assert main(["run", "cb_mux2", "--system", "martian"]) == 2
        assert "unknown system" in capsys.readouterr().out

    def test_run_unknown_problem(self, capsys):
        assert main(["run", "no_such_problem"]) == 2
        assert "error" in capsys.readouterr().out

    def test_eval_progress_streams_cells(self, capsys):
        argv = [
            "eval", "vanilla-claude", "--runs", "2", "--limit", "2",
            "--progress",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run 0:" in out and "run 1:" in out
        assert "batch finished:" in out

    def test_eval_solve_cache_flag(self, capsys):
        argv = [
            "eval", "vanilla-claude", "--runs", "1", "--limit", "2",
            "--solve-cache", "--verbose",
        ]
        assert main(argv) == 0
        capsys.readouterr()

    def test_cache_unconfigured(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_SOLVE_CACHE_DIR", raising=False)
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "no disk directory configured" in out
        assert "hint:" in out

    def test_cache_distinguishes_layers(self, capsys, monkeypatch):
        """Both cache layers report separately: disk line + counters."""
        monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_SOLVE_CACHE_DIR", raising=False)
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        sim_at = out.index("simulation cache")
        solve_at = out.index("solve-cell cache")
        assert sim_at < solve_at
        sim_section = out[sim_at:solve_at]
        solve_section = out[solve_at:]
        for section in (sim_section, solve_section):
            assert "disk:" in section
            assert "this process:" in section

    def test_cache_reports_directories(self, capsys, tmp_path, monkeypatch):
        sim_dir, solve_dir = _populate_disk_caches(tmp_path, monkeypatch)
        capsys.readouterr()
        argv = ["cache", "--sim-dir", str(sim_dir), "--solve-dir", str(solve_dir)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "simulation cache" in out and "solve-cell cache" in out
        assert "entries" in out and "0 entries" not in out

    def test_eval_solve_cache_replays_from_env_dir(
        self, capsys, tmp_path, monkeypatch
    ):
        """``--solve-cache`` keeps its disk tier in REPRO_SOLVE_CACHE_DIR
        even when REPRO_SOLVE_CACHE leaves the layer off by default."""
        monkeypatch.delenv("REPRO_SOLVE_CACHE", raising=False)
        monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", str(tmp_path / "solve"))
        argv = [
            "eval", "mage", "--runs", "2", "--limit", "2", "--jobs", "1",
            "--solve-cache", "--verbose",
        ]
        rows, solve_lines = [], []
        for _ in range(2):
            with runtime_session():
                assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            rows.append(next(line for line in lines if "Pass@1" in line))
            solve_lines.append(
                next(line for line in lines if "solve cells" in line)
            )
        assert rows[0] == rows[1]
        assert "hit-rate 0.0%" in solve_lines[0]
        assert "hit-rate 100.0%" in solve_lines[1]

    def test_eval_warm_pass_replays_sim_cache(self, capsys):
        """A second serial pass in one runtime is served by the in-memory
        simulation cache and prints the same row (process workers share
        only a cache directory: see the process-pool disk test below)."""
        argv = [
            "eval", "vanilla-claude", "--runs", "2", "--limit", "3",
            "--jobs", "1", "--verbose",
        ]
        rows, cache_lines = [], []
        with runtime_session():
            for _ in range(2):
                assert main(argv) == 0
                lines = capsys.readouterr().out.splitlines()
                rows.append(lines[0])
                cache_lines.append(
                    next(line for line in lines if "cache lookups" in line)
                )
        assert rows[0] == rows[1]
        assert "hit-rate 100.0%" not in cache_lines[0]
        assert "hit-rate 100.0%" in cache_lines[1]

    def test_stats_reports_disk_caches(self, capsys, tmp_path, monkeypatch):
        sim_dir, solve_dir = _populate_disk_caches(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "disk caches" in out
        assert f"simulation: {sim_dir}" in out
        assert f"solve-cell: {solve_dir}" in out
        assert " 0 entries" not in out

    def test_stats_without_disk_caches(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_SOLVE_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CASSETTE_DIR", raising=False)
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "stages" in out
        assert "none configured" in out

    def test_broken_pipe_returns_failure(self, tmp_path, monkeypatch):
        """A command whose reader went away fails with exit 1 instead of
        raising, and leaves stdout pointing at devnull."""
        import repro.cli as cli

        def closed_reader(_args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_cmd_problems", closed_reader)
        with open(tmp_path / "stdout.txt", "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["problems"]) == 1
            print("after the pipe broke", file=stdout, flush=True)
        assert (tmp_path / "stdout.txt").read_text() == ""

    def test_closed_stdout_exits_without_traceback(self):
        """``repro eval ... | head`` with the reader gone: a nonzero exit
        and no BrokenPipeError traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro", "eval", "vanilla-itertl",
                    "--runs", "1", "--jobs", "1", "--limit", "3", "--verbose",
                ],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr


def _populate_disk_caches(tmp_path, monkeypatch):
    """Fill on-disk simulation and solve-cell caches with one small eval.

    The runtime is rebuilt from the patched environment, as a fresh
    ``repro eval`` process builds it."""
    sim_dir = tmp_path / "sim"
    solve_dir = tmp_path / "solve"
    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(sim_dir))
    monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", str(solve_dir))
    argv = [
        "eval", "vanilla-itertl", "--runs", "1", "--limit", "2",
        "--jobs", "1", "--solve-cache",
    ]
    with runtime_session():
        assert main(argv) == 0
    return sim_dir, solve_dir


def _event_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("  | ")]


class TestCliGridPaths:
    def test_eval_pool_row_matches_serial(self, capsys):
        argv = ["eval", "mage", "--runs", "2", "--limit", "3"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial_row = capsys.readouterr().out.splitlines()[0]
        assert main(argv + ["--jobs", "2"]) == 0
        pool_row = capsys.readouterr().out.splitlines()[0]
        assert pool_row == serial_row

    def test_eval_verbose_reports_process_executor(self, capsys):
        argv = [
            "eval", "mage", "--runs", "1", "--limit", "2",
            "--jobs", "2", "--verbose",
        ]
        assert main(argv) == 0
        assert "process[2]" in capsys.readouterr().out

    def test_eval_one_job_runs_serially(self, capsys):
        argv = [
            "eval", "mage", "--runs", "1", "--limit", "2",
            "--jobs", "1", "--verbose",
        ]
        assert main(argv) == 0
        assert "serial[1]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("env_jobs", "described"), [("1", "serial[1]"), ("2", "process[2]")]
    )
    def test_eval_without_jobs_flag_reads_env(
        self, capsys, monkeypatch, env_jobs, described
    ):
        monkeypatch.setenv("REPRO_JOBS", env_jobs)
        argv = ["eval", "mage", "--runs", "1", "--limit", "2", "--verbose"]
        assert main(argv) == 0
        assert described in capsys.readouterr().out

    def test_eval_zero_env_jobs_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert main(["eval", "mage", "--limit", "1"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().out

    def test_eval_process_pool_warm_pass_replays_disk_cache(
        self, capsys, tmp_path, monkeypatch
    ):
        """Process workers cannot see the parent's memory tier; a warm
        pass still replays every simulation from the shared disk tier."""
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path / "sim"))
        argv = [
            "eval", "vanilla-itertl", "--runs", "1", "--limit", "2",
            "--jobs", "2", "--verbose",
        ]
        rows, cache_lines = [], []
        for _ in range(2):
            with runtime_session():
                assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            rows.append(lines[0])
            cache_lines.append(
                next(line for line in lines if "cache lookups" in line)
            )
        assert rows[0] == rows[1]
        assert "hit-rate 0.0%" in cache_lines[0]
        assert "hit-rate 100.0%" in cache_lines[1]

    @pytest.mark.parametrize(
        ("argv", "error"),
        [
            (["eval", "mage", "--rollout-batch", "4"], "unrecognized arguments"),
            (["serve", "--rollout-batch", "3"], "unrecognized arguments"),
            (["serve", "--steal-peer", "127.0.0.1:1"], "unrecognized arguments"),
            (["eval", "mage", "--ring"], "unrecognized arguments"),
            (["serve", "--join", "127.0.0.1:1"], "unrecognized arguments"),
            (["serve", "--advertise", "127.0.0.1:1"], "unrecognized arguments"),
            (["eval", "mage", "--cache-peer", "127.0.0.1:1"], "unrecognized arguments"),
            (["serve", "--cache-peer", "127.0.0.1:1"], "unrecognized arguments"),
            (["bench", "mage"], "invalid choice: 'bench'"),
            (["eval", "mage", "--executor", "thread"], "unrecognized arguments"),
        ],
        ids=[
            "eval-rollout-batch",
            "serve-rollout-batch",
            "serve-steal-peer",
            "eval-ring",
            "serve-join",
            "serve-advertise",
            "eval-cache-peer",
            "serve-cache-peer",
            "bench",
            "eval-executor",
        ],
    )
    def test_scheduler_flags_are_unrecognized(self, capsys, argv, error):
        """The grid runs only on the serial/pool/service paths, over
        static shards and one cache directory per layer; the
        rollout-scheduler, ring and peer-cache flags, the executor
        choice (``--jobs`` alone picks it) and the old ``bench``
        subcommand are not part of the CLI."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert error in capsys.readouterr().err


class TestCliServiceMode:
    @pytest.fixture()
    def server_addr(self):
        from repro.service import SolveServer

        with SolveServer(workers=2) as server:
            yield server.address

    def test_run_warm_solve_cache(self, capsys, tmp_path):
        """Second `run` over a warm solve-cell cache replays the same
        event stream and reports the hit."""
        argv = [
            "run", "cb_kmap_mux", "--seed", "0",
            "--solve-cache-dir", str(tmp_path / "solve"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "solve-cell cache: miss" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "solve-cell cache: hit" in warm
        assert _event_lines(warm) == _event_lines(cold)
        assert _event_lines(warm)  # the stream actually replayed
        assert "golden testbench: PASS" in warm

    def test_run_solve_cache_in_memory_flag(self, capsys):
        assert main(["run", "cb_mux2", "--solve-cache"]) == 0
        assert "solve-cell cache: miss" in capsys.readouterr().out

    def test_submit_cold_then_warm(self, capsys, server_addr):
        argv = ["submit", "mage", "cb_and_or_gate", "--addr", server_addr]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "cache: miss" in cold
        assert "run started: mage[" in cold  # events streamed
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache: hit" in warm
        assert _event_lines(warm) == _event_lines(cold)

    def test_submit_quiet_suppresses_events(self, capsys, server_addr):
        argv = [
            "submit", "mage", "cb_mux2", "--addr", server_addr, "--quiet"
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert not _event_lines(out)
        assert "PASS" in out

    def test_submit_unreachable_server(self, capsys):
        argv = ["submit", "mage", "cb_mux2", "--addr", "127.0.0.1:1"]
        assert main(argv) == 2
        assert "error" in capsys.readouterr().out

    def test_eval_service_matches_local_row(self, capsys, server_addr):
        argv = ["eval", "mage", "--runs", "1", "--limit", "3"]
        assert main(argv) == 0
        local_row = capsys.readouterr().out.splitlines()[0]
        assert main(argv + ["--service", server_addr]) == 0
        service_row = capsys.readouterr().out.splitlines()[0]
        assert service_row == local_row

    def test_eval_service_verbose_and_progress(self, capsys, server_addr):
        argv = [
            "eval", "mage", "--runs", "1", "--limit", "2",
            "--service", server_addr, "--verbose", "--progress",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "shards" in out
        assert "cells" in out
        assert "batch finished:" in out

    def test_eval_service_bad_address(self, capsys):
        argv = ["eval", "mage", "--limit", "1", "--service", "nonsense"]
        assert main(argv) == 2
        assert "error" in capsys.readouterr().out

    def test_eval_service_rejects_local_executor_flags(self, capsys):
        argv = [
            "eval", "mage", "--limit", "1", "--jobs", "4",
            "--service", "127.0.0.1:7341",
        ]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "--jobs" in out and "cannot be combined with --service" in out

    def test_cache_service_reports_layers(self, capsys, server_addr):
        assert main(["submit", "mage", "cb_mux2", "--addr", server_addr,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["cache", "--service", server_addr]) == 0
        out = capsys.readouterr().out
        assert "simulation cache" in out and "solve-cell cache" in out
        assert "executed 1" in out

    def test_eval_service_warm_pass_is_cache_served(self, capsys, server_addr):
        argv = [
            "eval", "mage", "--runs", "1", "--limit", "2",
            "--service", server_addr, "--verbose",
        ]
        rows, counts = [], []
        for _ in range(2):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            rows.append(lines[0])
            out = "\n".join(lines)
            counts.append((
                int(re.search(r"^grid cells +(\d+)", out, re.M).group(1)),
                int(re.search(r"^cache-served +(\d+)", out, re.M).group(1)),
            ))
        assert rows[0] == rows[1]
        assert counts[0] == (2, 0)
        assert counts[1] == (2, 2)

    def test_stats_service_reports_layers(self, capsys, server_addr):
        assert main(["submit", "mage", "cb_mux2", "--addr", server_addr,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["stats", "--service", server_addr]) == 0
        out = capsys.readouterr().out
        assert f"service {server_addr}" in out
        assert "stages\n  no stage executions yet" not in out
        caches = out.split("caches\n", 1)[1].splitlines()
        labels = [line.split(":")[0].strip() for line in caches if ":" in line
                  and not line.startswith("      tier")]
        assert labels == ["simulation", "solve-cell", "cassette"]

    def test_stats_service_prometheus(self, capsys, server_addr):
        assert main(["stats", "--service", server_addr, "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_workers gauge" in out
        assert "repro_workers 2" in out

    def test_stats_service_unreachable(self, capsys):
        assert main(["stats", "--service", "127.0.0.1:1"]) == 2
        assert "cannot reach service" in capsys.readouterr().out

    def test_cache_service_unreachable(self, capsys):
        assert main(["cache", "--service", "127.0.0.1:1"]) == 2
        assert "cannot reach service" in capsys.readouterr().out

    def test_serve_stop_drains_server(self, capsys):
        from repro.service import SolveServer

        server = SolveServer(workers=1).start()
        assert main(["serve", "--stop", server.address]) == 0
        assert "draining" in capsys.readouterr().out
        assert server.wait(timeout=30)

    def test_serve_stop_unreachable(self, capsys):
        assert main(["serve", "--stop", "127.0.0.1:1"]) == 2
        assert "error" in capsys.readouterr().out



def _fail_disk_writes(monkeypatch):
    """Make every cache disk write fail as a full disk would."""
    import errno

    from repro.runtime import cache as cache_module

    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cache_module.pickle, "dump", full)


class TestCliCacheFabric:
    def test_failed_disk_write_reaches_cache_errors(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.runtime import get_runtime

        with runtime_session(cache_dir=str(tmp_path / "sim")):
            with monkeypatch.context() as patched:
                _fail_disk_writes(patched)
                get_runtime().cache.put("k", "v")
            assert main(["cache", "--sim-dir", str(tmp_path / "sim")]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if "this process" in line)
        assert row.endswith("stores 1, hit-rate 0.0%, errors 1")
        assert os.listdir(tmp_path / "sim") == []

    def test_memory_evictions_reach_cache(self, capsys, monkeypatch):
        from repro.runtime import cache as cache_module
        from repro.runtime import get_runtime

        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 1)
        with runtime_session(cache_dir=None):
            for key in ("a", "b", "c"):
                get_runtime().cache.put(key, key)
            assert main(["cache"]) == 0
        row = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if "this process" in line
        )
        assert row.endswith("stores 3, hit-rate 0.0%, evictions 2")

    def test_failed_disk_write_reaches_stats_reply_and_prometheus(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.runtime.cache import SimulationCache
        from repro.service import SolveServer, fetch_stats, render_prometheus

        sim_cache = SimulationCache(str(tmp_path / "sim"))
        with SolveServer(workers=1, sim_cache=sim_cache) as server:
            with monkeypatch.context() as patched:
                _fail_disk_writes(patched)
                sim_cache.put("k", "v")
            stats = fetch_stats(server.address)
            assert main(["cache", "--service", server.address]) == 0
        assert stats["caches"]["simulation"]["errors"] == 1
        assert 'repro_cache_errors{layer="simulation"} 1' in (
            render_prometheus(stats).splitlines()
        )
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if "simulation" in line)
        assert row.endswith(", errors 1")

    def test_cache_clear_one_layer(self, capsys, tmp_path, monkeypatch):
        sim_dir, solve_dir = _populate_disk_caches(tmp_path, monkeypatch)
        capsys.readouterr()
        argv = [
            "cache", "--clear", "--layer", "solve",
            "--sim-dir", str(sim_dir), "--solve-dir", str(solve_dir),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "solve: cleared" in out and "sim:" not in out
        assert not list(solve_dir.glob("*.pkl"))
        assert list(sim_dir.glob("*.pkl"))  # the other layer untouched

    def test_cache_clear_both_layers(self, capsys, tmp_path, monkeypatch):
        sim_dir, solve_dir = _populate_disk_caches(tmp_path, monkeypatch)
        capsys.readouterr()
        argv = [
            "cache", "--clear",
            "--sim-dir", str(sim_dir), "--solve-dir", str(solve_dir),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sim: cleared" in out and "solve: cleared" in out
        assert not list(sim_dir.glob("*.pkl"))
        assert not list(solve_dir.glob("*.pkl"))

    def test_cache_clear_unconfigured_errors(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_SOLVE_CACHE_DIR", raising=False)
        assert main(["cache", "--clear"]) == 2
        assert "nothing to clear" in capsys.readouterr().out

    def test_cache_reports_one_row_per_layer(
        self, capsys, tmp_path, monkeypatch
    ):
        sim_dir, solve_dir = _populate_disk_caches(tmp_path, monkeypatch)
        capsys.readouterr()
        argv = ["cache", "--sim-dir", str(sim_dir), "--solve-dir", str(solve_dir)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "this process: lookups" in out
        assert "tier" not in out
        assert "peer" not in out  # one host: no peer attribution

    def test_eval_service_rejects_a_repeated_shard(self, capsys):
        argv = [
            "eval", "mage", "--limit", "1",
            "--service", "127.0.0.1:1,127.0.0.1:1",
        ]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "'127.0.0.1:1' given twice" in out

    @pytest.mark.parametrize("via", ["flags", "env"])
    def test_serve_cache_directories_reach_the_server(
        self, capsys, tmp_path, via
    ):
        """``serve`` takes its sharing directories from
        ``--sim-cache-dir``/``--solve-cache-dir`` or the environment,
        stores solved cells there, and names them in ``cache --service``."""
        sim_dir, solve_dir = tmp_path / "sim", tmp_path / "solve"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        argv = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", "1",
        ]
        if via == "flags":
            argv += [
                "--sim-cache-dir", str(sim_dir),
                "--solve-cache-dir", str(solve_dir),
            ]
        else:
            env["REPRO_SIM_CACHE_DIR"] = str(sim_dir)
            env["REPRO_SOLVE_CACHE_DIR"] = str(solve_dir)
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("listening on "), line
            address = line.removeprefix("listening on ")
            assert main(["submit", "mage", "cb_mux2", "--addr", address,
                         "--quiet"]) == 0
            capsys.readouterr()
            assert main(["cache", "--service", address]) == 0
            out = capsys.readouterr().out
            assert main(["serve", "--stop", address]) == 0
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert f"(disk {sim_dir})" in out
        assert f"(disk {solve_dir})" in out
        assert len(list(solve_dir.glob("*.pkl"))) == 1

    def test_eval_over_a_servers_cache_directory_matches_local_row(
        self, capsys, tmp_path, monkeypatch
    ):
        """serve on directories D/S -> warm it -> cold local eval on the
        same directories: identical row, every solve cell replayed."""
        from repro.runtime.cache import SimulationCache, SolveCellCache
        from repro.service import SolveServer

        argv = ["eval", "mage", "--runs", "1", "--limit", "2"]
        assert main(argv + ["--jobs", "1"]) == 0
        local_row = capsys.readouterr().out.splitlines()[0]
        sim_dir, solve_dir = str(tmp_path / "sim"), str(tmp_path / "solve")
        with SolveServer(
            workers=2,
            sim_cache=SimulationCache(sim_dir),
            solve_cache=SolveCellCache(solve_dir),
        ) as server:
            assert main(argv + ["--service", server.address]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", sim_dir)
        monkeypatch.setenv("REPRO_SOLVE_CACHE_DIR", solve_dir)
        with runtime_session():
            assert main(argv + ["--jobs", "1", "--solve-cache", "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert next(line for line in lines if "Pass@1" in line) == local_row
        solve_line = next(line for line in lines if "solve cells" in line)
        assert "hit-rate 100.0%" in solve_line


class TestCliDocs:
    @pytest.mark.parametrize("doc", ["README.md", ".github/workflows/ci.yml"])
    def test_documented_subcommands_exist(self, doc):
        """Every ``python -m repro <command>`` the docs or CI run names a
        subcommand the parser accepts."""
        import argparse

        from repro.cli import build_parser

        text = (SRC.parent / doc).read_text()
        used = set(re.findall(r"-m repro ([a-z][a-z-]*)", text))
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert used
        assert used <= set(subparsers.choices), used - set(subparsers.choices)

    def test_service_cache_lines_cover_every_layer(self):
        """``cache --service`` and ``stats --service`` share one renderer:
        one counter line per layer, disabled layers named."""
        from repro.cli import _render_service_caches

        caches = {
            "simulation": {
                "entries": 3, "lookups": 4, "hits": 1, "misses": 3,
                "stores": 3, "directory": "/d", "evictions": 2,
            },
            "solve_cell": {"entries": 0, "lookups": 0},
        }
        lines = _render_service_caches(caches, " cache")
        assert lines[0].startswith(
            "  simulation cache: 3 entries (disk /d), lookups 4"
        )
        assert lines[0].endswith("hit-rate 25.0%, evictions 2")
        assert lines[1].startswith("  solve-cell cache: 0 entries, lookups 0")
        assert lines[2] == "  cassette cache: disabled"
        assert len(lines) == 3
