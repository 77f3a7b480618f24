"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``problems``                    list the benchmark problems
- ``solve <problem_id>``          run MAGE on one problem
- ``run <problem_id>``            solve one task with a live event stream
- ``eval <system> <suite>``       evaluate a registered system
- ``cache``                       per-layer cache stats
                                  (``--clear [--layer sim|solve|llm]``
                                  wipes a disk directory)
- ``stats``                       gateway / per-stage / cache metrics
                                  (local process or ``--service``)
- ``serve``                       start a long-lived solve service
- ``submit <system> <problem>``   submit one cell to a running service
- ``lint <file.v>``               lint a Verilog file
- ``tb <file.v> <bench.tb>``      run a testbench against a design

``eval`` accepts ``--jobs N`` (parallel workers; results are
bit-identical at any worker count for fixed seeds), ``--cache/--no-cache``
(content-addressed simulation memoization), and ``--solve-cache`` (whole
solve-cell memoization: repeated sweeps over the same
``config x problem x seed`` grid re-run near-free).
``eval --runs`` defaults to the ``REPRO_EVAL_RUNS`` environment
override, falling back to 1; ``eval --progress`` streams typed
per-cell events as they finish.

Service mode: ``serve`` binds a localhost TCP solve service (broker +
long-lived worker pool over both cache layers); ``submit`` streams one
cell's typed events from it; ``eval --service HOST:PORT`` runs the
evaluation grid through a running server with a deterministic merge
(bit-identical to local ``--jobs 1``); ``cache --service`` and
``serve --stop`` query and drain a running server.

LLM gateway: ``eval``/``run``/``serve`` accept ``--gateway`` (route
every LLM call through the multi-backend gateway), ``--backends
CHAIN`` (ordered fallback chain, e.g. ``openai,anthropic,sim``;
``flaky@N`` and ``down`` exist for failure drills), ``--stage-model
role=model`` (per-agent-role routing for tb/rtl/judge/debug), and the
cassette pair ``--record``/``--replay`` with ``--cassette-dir DIR``:
record writes every completion into a content-addressed cassette
store (shared by every process on that directory), replay
serves from it with zero network and fails loudly on a miss.  Replay
rows and event streams are bit-identical to the recording run.  The
``stats`` command reports gateway call/retry/fallback/token counters
and per-stage wall-clock.

Caches: each cache layer is an in-memory LRU over an optional disk
directory.  Processes share warm cells through one directory: a
``serve`` and a local ``eval --solve-cache`` started with the same
``REPRO_SOLVE_CACHE_DIR`` / ``REPRO_SIM_CACHE_DIR`` replay each other's
cells (rows and event streams stay bit-identical), because the disk
tier writes atomically.

Throughput and latency are measured by ``perfbench/run.py`` (see
``perfbench/README.md``), not by this CLI.
"""

from __future__ import annotations

import argparse
import os
import sys


def _cmd_problems(_args) -> int:
    from repro.evalsets import all_problems

    print(f"{'id':22s} {'category':14s} {'diff':>5s} title")
    print("-" * 72)
    for problem in all_problems():
        print(
            f"{problem.id:22s} {problem.category:14s} "
            f"{problem.difficulty:5.2f} {problem.title}"
        )
    return 0


def _cmd_solve(args) -> int:
    from repro import MAGE, DesignTask, MAGEConfig
    from repro.evalsets import get_problem, golden_testbench
    from repro.tb.runner import run_testbench

    problem = get_problem(args.problem)
    config = (
        MAGEConfig.low_temperature()
        if args.low_temperature
        else MAGEConfig.high_temperature()
    )
    result = MAGE(config).solve(DesignTask.from_problem(problem), seed=args.seed)
    print(result.transcript.render())
    print()
    print(result.source)
    golden = run_testbench(result.source, golden_testbench(problem), problem.top)
    print(f"golden testbench: {'PASS' if golden.passed else 'FAIL'}")
    return 0 if golden.passed else 1


def _cmd_run(args) -> int:
    """Solve one named task with the typed event stream printed live."""
    from functools import partial

    from repro import MAGEConfig
    from repro.baselines.registry import MAGESystem, SYSTEMS, system_names
    from repro.core.events import StreamSink
    from repro.evalsets import get_problem, golden_testbench
    from repro.runtime.cache import (
        SolveCellCache,
        cached_run_testbench,
        system_fingerprint,
    )
    from repro.runtime.workers import solve_streaming

    try:
        problem = get_problem(args.problem)
    except KeyError as exc:
        print(f"error: {exc}")
        return 2
    failed = _activate_gateway(args)
    if failed is not None:
        return failed
    sink = StreamSink(write=lambda line: print(f"  | {line}"))
    if args.system == "mage":
        config = (
            MAGEConfig.low_temperature()
            if args.low_temperature
            else MAGEConfig.high_temperature()
        )
        factory = partial(MAGESystem, config)
    else:
        if args.system not in SYSTEMS:
            print(f"unknown system; choose from: mage, {', '.join(system_names())}")
            return 2
        if args.low_temperature:
            print(
                "error: --low-temperature only applies to --system mage "
                "(registered systems carry their own sampling settings)"
            )
            return 2
        factory = SYSTEMS[args.system].factory
    solve_cache = None
    if args.solve_cache or args.solve_cache_dir:
        solve_cache = SolveCellCache(
            args.solve_cache_dir or os.environ.get("REPRO_SOLVE_CACHE_DIR")
        )
    fingerprint = (
        system_fingerprint(factory) if solve_cache is not None else None
    )
    record, cached = solve_streaming(
        factory,
        problem,
        args.seed,
        sink=sink,
        solve_cache=solve_cache,
        fingerprint=fingerprint,
        score=lambda source: cached_run_testbench(
            source, golden_testbench(problem), problem.top
        ),
    )
    if solve_cache is not None:
        print(f"solve-cell cache: {'hit' if cached else 'miss'}")
    print()
    print(record.source)
    print(f"golden testbench: {'PASS' if record.passed else 'FAIL'}")
    return 0 if record.passed else 1


def _add_gateway_flags(parser) -> None:
    """The LLM-gateway flag family shared by eval/run/serve."""
    parser.add_argument(
        "--gateway",
        action="store_true",
        help="route LLM calls through the multi-backend gateway "
        "(retry/backoff, fallback chains, call accounting)",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="gateway record mode: write every completion into the "
        "cassette store (implies --gateway)",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="gateway replay mode: serve completions from the cassette "
        "store with zero network; a miss is an error (implies --gateway)",
    )
    parser.add_argument(
        "--cassette-dir",
        default=None,
        help="cassette store directory (default: $REPRO_CASSETTE_DIR)",
    )
    parser.add_argument(
        "--backends",
        default=None,
        metavar="CHAIN",
        help="ordered gateway fallback chain, comma-separated "
        "(sim, openai[:URL], anthropic[:URL], flaky@N, down; "
        "default: $REPRO_GATEWAY_BACKENDS or sim)",
    )
    parser.add_argument(
        "--stage-model",
        action="append",
        default=None,
        metavar="ROLE=MODEL",
        help="route one agent role (tb|rtl|judge|debug) to a model; "
        "repeatable (default: $REPRO_STAGE_MODELS)",
    )


def _gateway_from_args(args):
    """(settings, error): gateway settings from flags over env, or
    (None, None) when no gateway flag was given."""
    flagged = any(
        (
            args.gateway,
            args.record,
            args.replay,
            args.cassette_dir,
            args.backends,
            args.stage_model,
        )
    )
    if not flagged:
        return None, None
    if args.record and args.replay:
        return None, "error: --record and --replay are mutually exclusive"
    from repro.llm.gateway import (
        GatewaySettings,
        parse_backends,
        parse_stage_models,
    )

    overrides: dict = {"enabled": True}
    if args.record:
        overrides["mode"] = "record"
    if args.replay:
        overrides["mode"] = "replay"
    if args.cassette_dir:
        overrides["cassette_dir"] = args.cassette_dir
    if args.backends:
        overrides["backends"] = parse_backends(args.backends)
    if args.stage_model:
        try:
            overrides["stage_models"] = parse_stage_models(
                ",".join(args.stage_model)
            )
        except ValueError as exc:
            return None, f"error: {exc}"
    try:
        settings = GatewaySettings.from_env(**overrides)
    except ValueError as exc:
        return None, f"error: {exc}"
    if settings.mode in ("record", "replay") and not settings.cassette_dir:
        return None, (
            "error: --record/--replay need --cassette-dir "
            "(or REPRO_CASSETTE_DIR)"
        )
    return settings, None


def _activate_gateway(args) -> int | None:
    """Materialise gateway flags into the environment; error code or None.

    Writing ``settings.to_env()`` through ``os.environ`` is the one
    propagation path that reaches everything downstream -- lazily built
    runtime contexts, pool worker processes, and a ``serve`` server's
    construction-time resolution -- without threading a settings object
    through every call site.
    """
    settings, error = _gateway_from_args(args)
    if error is not None:
        print(error)
        return 2
    if settings is not None:
        os.environ.update(settings.to_env())
    return None


def _render_gateway_lines(gw: dict, mode: str | None = None) -> list[str]:
    """Human-readable gateway counter block (CLI stats surface)."""
    suffix = f" (mode: {mode})" if mode else ""
    lines = [
        f"  calls {gw.get('calls', 0)}, "
        f"completions {gw.get('completions', 0)}, "
        f"retries {gw.get('retries', 0)}, "
        f"fallbacks {gw.get('fallbacks', 0)}, "
        f"failures {gw.get('failures', 0)}{suffix}",
        f"  tokens: {gw.get('prompt_tokens', 0)} prompt + "
        f"{gw.get('completion_tokens', 0)} completion "
        f"(est. cost ${gw.get('cost', 0.0):.4f})",
        f"  cassette: {gw.get('cassette_hits', 0)} hits, "
        f"{gw.get('cassette_misses', 0)} misses, "
        f"{gw.get('recorded', 0)} recorded, "
        f"{gw.get('replayed', 0)} replayed; "
        f"rate-limit waits {gw.get('rate_limit_waits', 0)}",
    ]
    return lines


def _render_stage_lines(stages: dict) -> list[str]:
    """One line per pipeline stage from a StageClock snapshot."""
    lines = []
    for name, entry in stages.items():
        runs = entry.get("runs", 0)
        seconds = entry.get("seconds", 0.0)
        mean = seconds / runs if runs else 0.0
        lines.append(
            f"  {name:40s} runs {runs:>5d}  total {seconds:8.3f}s  "
            f"mean {mean:7.4f}s"
        )
    return lines


def _render_counter_line(stats: dict) -> str:
    lookups = stats.get("lookups", 0)
    hits = stats.get("hits", 0)
    rate = 100.0 * hits / lookups if lookups else 0.0
    line = (
        f"lookups {lookups}, hits {hits} "
        f"(disk {stats.get('disk_hits', 0)}), "
        f"misses {stats.get('misses', 0)}, "
        f"stores {stats.get('stores', 0)}, hit-rate {rate:.1f}%"
    )
    for key in ("corrupt", "errors", "evictions"):
        if stats.get(key):
            line += f", {key} {stats[key]}"
    return line


def _render_service_caches(caches: dict, suffix: str = "") -> list[str]:
    """One counter line for each cache layer of a StatsReply."""
    lines = []
    for label, key in (
        ("simulation", "simulation"),
        ("solve-cell", "solve_cell"),
        ("cassette", "cassette"),
    ):
        layer = caches.get(key)
        if layer is None:
            lines.append(f"  {label}{suffix}: disabled")
            continue
        directory = layer.get("directory")
        lines.append(
            f"  {label}{suffix}: {layer.get('entries', 0)} entries"
            + (f" (disk {directory})" if directory else "")
            + ", "
            + _render_counter_line(layer)
        )
    return lines


def _cmd_cache_clear(args) -> int:
    """``cache --clear``: wipe the selected disk directories."""
    from repro.runtime.cache import clear_disk_cache

    layers = [
        ("sim", args.sim_dir or os.environ.get("REPRO_SIM_CACHE_DIR")),
        ("solve", args.solve_dir or os.environ.get("REPRO_SOLVE_CACHE_DIR")),
        ("llm", args.cassette_dir or os.environ.get("REPRO_CASSETTE_DIR")),
    ]
    if args.layer:
        layers = [(name, directory) for name, directory in layers if name == args.layer]
    cleared = False
    for name, directory in layers:
        if not directory:
            print(f"{name}: no disk directory configured, nothing to clear")
            continue
        removed = clear_disk_cache(directory)
        print(
            f"{name}: cleared {removed.entries} entries "
            f"({removed.megabytes:.2f} MiB) from {directory}"
        )
        cleared = True
    if not cleared:
        print(
            "error: nothing to clear; pass --sim-dir/--solve-dir/"
            "--cassette-dir or set REPRO_SIM_CACHE_DIR / "
            "REPRO_SOLVE_CACHE_DIR / REPRO_CASSETTE_DIR"
        )
        return 2
    return 0


def _cmd_cache(args) -> int:
    """Per-layer cache report: disk size plus the layer's counters.

    Each layer (simulation, solve-cell, cassette) gets the entry count
    and bytes of its disk directory and, when live in this process, one
    counter line (lookups, hits, misses, stores, and any corrupt reads,
    failed disk writes or LRU evictions); ``--service`` queries a
    running solve server's live counters instead of this process's, and
    ``--clear`` wipes the selected disk directories instead of
    reporting.
    """
    from dataclasses import asdict

    from repro.runtime.cache import disk_cache_info
    from repro.runtime.context import get_runtime

    if args.clear:
        return _cmd_cache_clear(args)
    if args.service:
        from repro.service import ProtocolError, ServiceError, fetch_stats

        try:
            stats = fetch_stats(args.service)
        except (OSError, ValueError, ServiceError, ProtocolError) as exc:
            print(f"error: cannot reach service at {args.service}: {exc}")
            return 2
        broker = stats.get("broker", {})
        workers = stats.get("service", {})
        print(
            f"service {stats.get('address', args.service)}: "
            f"{stats.get('workers', 0)} workers, "
            f"{stats.get('pending', 0)} pending"
        )
        print(
            f"  requests: submitted {broker.get('submitted', 0)}, "
            f"deduped {broker.get('deduped', 0)}, "
            f"completed {broker.get('completed', 0)}, "
            f"failed {broker.get('failed', 0)}, "
            f"rejected {broker.get('rejected', 0)}"
        )
        print(
            f"  workers: executed {workers.get('executed', 0)}, "
            f"cache-served {workers.get('cache_served', 0)}, "
            f"errors {workers.get('errors', 0)}"
        )
        for line in _render_service_caches(stats.get("caches", {}), " cache"):
            print(line)
        return 0

    runtime = get_runtime()
    layers = [
        (
            "simulation cache",
            args.sim_dir or os.environ.get("REPRO_SIM_CACHE_DIR"),
            runtime.cache,
            "REPRO_SIM_CACHE=1",
        ),
        (
            "solve-cell cache",
            args.solve_dir or os.environ.get("REPRO_SOLVE_CACHE_DIR"),
            runtime.solve_cache,
            "REPRO_SOLVE_CACHE=1",
        ),
        (
            "cassette cache",
            args.cassette_dir or os.environ.get("REPRO_CASSETTE_DIR"),
            None,
            "REPRO_GATEWAY=1 with a cassette dir",
        ),
    ]
    reported = False
    for label, directory, live, enable_hint in layers:
        print(label)
        if not directory:
            print("  disk: no disk directory configured")
        else:
            info = disk_cache_info(directory)
            print(
                f"  disk: {info.directory}: {info.entries} entries, "
                f"{info.megabytes:.2f} MiB"
            )
            reported = True
        if live is None:
            print(f"  this process: layer not active (set {enable_hint})")
        else:
            stats = live.stats
            print(
                "  this process: "
                + _render_counter_line(
                    {"lookups": stats.lookups, **asdict(stats)}
                )
            )
    if not reported:
        print(
            "hint: set REPRO_SIM_CACHE_DIR / REPRO_SOLVE_CACHE_DIR (or pass "
            "--sim-dir / --solve-dir) to persist caches across processes; "
            "--service HOST:PORT reports a running solve server instead"
        )
    return 0


def _cmd_stats(args) -> int:
    """Runtime metrics report: gateway, per-stage wall-clock, caches.

    Local mode reports this process's counters -- mostly useful after
    an in-process run or under test; ``--service HOST:PORT`` renders a
    running solve server's live :class:`StatsReply` instead, which is
    the normal way to watch a long-lived deployment.  ``--prometheus``
    renders either snapshot in the Prometheus text exposition format
    (scrape-by-cron / textfile-collector friendly).
    """
    if args.service:
        from repro.service import ProtocolError, ServiceError, fetch_stats

        try:
            stats = fetch_stats(args.service)
        except (OSError, ValueError, ServiceError, ProtocolError) as exc:
            print(f"error: cannot reach service at {args.service}: {exc}")
            return 2
        if args.prometheus:
            from repro.service import render_prometheus

            print(render_prometheus(stats), end="")
            return 0
        print(
            f"service {stats.get('address', args.service)}: "
            f"{stats.get('workers', 0)} workers, "
            f"{stats.get('pending', 0)} pending"
        )
        print("gateway")
        for line in _render_gateway_lines(
            stats.get("gateway", {}), stats.get("gateway_mode")
        ):
            print(line)
        stages = stats.get("stages", {})
        print("stages")
        if stages:
            for line in _render_stage_lines(stages):
                print(line)
        else:
            print("  no stage executions yet")
        print("caches")
        for line in _render_service_caches(stats.get("caches", {})):
            print(line)
        return 0

    from repro.core.pipeline import STAGE_CLOCK
    from repro.llm.gateway import GATEWAY_STATS, resolve_gateway_settings
    from repro.runtime.cache import disk_cache_info

    settings = resolve_gateway_settings()
    if args.prometheus:
        from repro.service import render_prometheus

        snapshot = {
            "gateway": GATEWAY_STATS.snapshot(),
            "gateway_mode": settings.mode if settings.enabled else None,
            "stages": STAGE_CLOCK.snapshot(),
        }
        print(render_prometheus(snapshot), end="")
        return 0
    print("gateway" + ("" if settings.enabled else " (not enabled)"))
    for line in _render_gateway_lines(
        GATEWAY_STATS.snapshot(), settings.mode if settings.enabled else None
    ):
        print(line)
    stages = STAGE_CLOCK.snapshot()
    print("stages")
    if stages:
        for line in _render_stage_lines(stages):
            print(line)
    else:
        print("  no stage executions in this process")
    print("disk caches")
    reported = False
    for label, directory in (
        ("simulation", os.environ.get("REPRO_SIM_CACHE_DIR")),
        ("solve-cell", os.environ.get("REPRO_SOLVE_CACHE_DIR")),
        ("cassette", settings.cassette_dir),
    ):
        if not directory:
            continue
        info = disk_cache_info(directory)
        print(
            f"  {label}: {info.directory}: {info.entries} entries, "
            f"{info.megabytes:.2f} MiB"
        )
        reported = True
    if not reported:
        print("  none configured")
    return 0


def _choose_problems(suite: str, limit: int | None):
    if limit is None:
        return None
    from repro.evalsets.suites import get_suite

    return get_suite(suite)[:limit]


def _cmd_eval(args) -> int:
    from repro.baselines.registry import SYSTEMS, system_names
    from repro.core.events import StreamSink
    from repro.evaluation.harness import default_runs
    from repro.runtime import WorkerError, create_executor, evaluate_many

    if args.system not in SYSTEMS:
        print(f"unknown system; choose from: {', '.join(system_names())}")
        return 2
    spec = SYSTEMS[args.system]
    runs = args.runs if args.runs is not None else default_runs(1)
    events = (
        StreamSink(write=lambda line: print("  ~ " + line))
        if args.progress
        else None
    )
    gateway_settings, gateway_error = _gateway_from_args(args)
    if gateway_error is not None:
        print(gateway_error)
        return 2
    if args.service:
        # Execution happens server-side; local-executor flags would be
        # silently meaningless, so reject the combination outright.
        conflicting = [
            flag
            for flag, value in (
                ("--jobs", args.jobs),
                ("--cache/--no-cache", args.cache),
                ("--solve-cache/--no-solve-cache", args.solve_cache),
                ("--gateway/--record/--replay", gateway_settings),
            )
            if value is not None
        ]
        if conflicting:
            print(
                "error: "
                + ", ".join(conflicting)
                + " cannot be combined with --service "
                "(execution and caching are configured on the server)"
            )
            return 2
        return _eval_via_service(args, runs, events)
    if gateway_settings is not None:
        os.environ.update(gateway_settings.to_env())
    from repro.runtime.config import default_jobs

    jobs = args.jobs if args.jobs is not None else default_jobs()
    try:
        executor = create_executor(jobs=jobs)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    try:
        result, report = evaluate_many(
            spec.factory,
            args.suite,
            runs=runs,
            seed0=args.seed0,
            problems=_choose_problems(args.suite, args.limit),
            executor=executor,
            cache=args.cache,
            solve_cache=args.solve_cache,
            progress=(lambda line: print("  " + line)) if args.verbose else None,
            events=events,
        )
        _print_eval_result(result, report, verbose=args.verbose)
    except (KeyError, ValueError, WorkerError) as exc:
        # Bad suite name, zero runs, an empty problem slice, a worker
        # process that died mid-cell, ...
        print(f"error: {exc}")
        return 2
    finally:
        executor.shutdown()
    return 0


def _print_eval_result(result, report, verbose: bool) -> None:
    """One output path for local and service eval (CI diffs the rows)."""
    print(result.render_row())
    if verbose:
        print(report.render())
    if result.failures():
        print("failures:", ", ".join(result.failures()))


def _eval_via_service(args, runs: int, events) -> int:
    """Route one evaluation grid through a running server."""
    from repro.service import ProtocolError, ServiceError, solve_grid

    try:
        result, report = solve_grid(
            args.system,
            args.suite,
            runs=runs,
            seed0=args.seed0,
            problems=_choose_problems(args.suite, args.limit),
            address=args.service,
            progress=(lambda line: print("  " + line)) if args.verbose else None,
            events=events,
        )
    except (KeyError, ValueError, OSError, ServiceError, ProtocolError) as exc:
        print(f"error: {exc}")
        return 2
    _print_eval_result(result, report, verbose=args.verbose)
    return 0


def _cmd_serve(args) -> int:
    """Run (or stop) a long-lived solve service on localhost."""
    if args.stop:
        from repro.service import ProtocolError, ServiceError, stop_server

        try:
            stop_server(args.stop)
        except (OSError, ValueError, ServiceError, ProtocolError) as exc:
            print(f"error: cannot stop {args.stop}: {exc}")
            return 2
        print(f"server at {args.stop} draining")
        return 0
    failed = _activate_gateway(args)
    if failed is not None:
        return failed
    from repro.runtime import SimulationCache, SolveCellCache
    from repro.service import SolveServer

    sim_dir = args.sim_cache_dir or os.environ.get("REPRO_SIM_CACHE_DIR") or None
    solve_dir = (
        args.solve_cache_dir or os.environ.get("REPRO_SOLVE_CACHE_DIR") or None
    )
    try:
        server = SolveServer(
            host=args.host,
            port=args.port,
            workers=args.workers,
            sim_cache=SimulationCache(sim_dir),
            solve_cache=SolveCellCache(solve_dir),
            max_pending=args.max_pending,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    server.start()
    if server.gateway is not None:
        print(
            f"gateway: mode {server.gateway.mode}, "
            f"backends {','.join(server.gateway.backends)}"
        )
    print(f"listening on {server.address}", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        print("draining...")
        server.shutdown()
    return 0


def _cmd_submit(args) -> int:
    """Submit one solve cell to a running service, streaming its events."""
    from repro.core.events import StreamSink
    from repro.service import MultiplexedClient, ProtocolError, ServiceError

    sink = (
        None
        if args.quiet
        else StreamSink(write=lambda line: print(f"  | {line}"))
    )
    try:
        with MultiplexedClient(args.addr) as client:
            outcome = client.solve(
                args.system,
                args.problem,
                seed=args.seed,
                priority=args.priority,
                events=sink,
            )
    except (OSError, ValueError, ServiceError, ProtocolError) as exc:
        print(f"error: {exc}")
        return 2
    if args.source:
        print(outcome.source)
    flags = " [dedup]" if outcome.dedup else ""
    print(
        f"{outcome.system} {args.problem}: "
        f"{'PASS' if outcome.passed else 'FAIL'} "
        f"score {outcome.score:.3f} ({outcome.seconds:.2f}s) "
        f"cache: {'hit' if outcome.cached else 'miss'}{flags}"
    )
    return 0 if outcome.passed else 1


def _cmd_lint(args) -> int:
    from repro.hdl.lint import lint

    with open(args.file) as handle:
        report = lint(handle.read())
    print(report.render())
    return 0 if report.ok else 1


def _cmd_tb(args) -> int:
    from repro.tb.runner import run_testbench
    from repro.tb.stimulus import parse_testbench
    from repro.tb.textlog import render_textlog

    with open(args.design) as handle:
        source = handle.read()
    with open(args.testbench) as handle:
        tb = parse_testbench(handle.read())
    report = run_testbench(source, tb)
    print(render_textlog(report))
    print(
        f"\nscore {report.score:.3f} "
        f"({report.mismatches}/{report.total_checks} mismatches)"
    )
    if args.vcd:
        from repro.hdl.vcd import VcdRecorder

        recorder = VcdRecorder.for_runner()
        run_testbench(source, tb, on_step=recorder.on_step)
        recorder.write(args.vcd)
        print(f"waveform written to {args.vcd}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAGE reproduction: multi-agent RTL generation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("problems", help="list benchmark problems").set_defaults(
        fn=_cmd_problems
    )

    solve = sub.add_parser("solve", help="run MAGE on one problem")
    solve.add_argument("problem")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--low-temperature", action="store_true")
    solve.set_defaults(fn=_cmd_solve)

    run = sub.add_parser(
        "run", help="solve one problem with a live typed event stream"
    )
    run.add_argument("problem")
    run.add_argument(
        "--system",
        default="mage",
        help="mage (default) or any registered system key",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--low-temperature", action="store_true")
    run.add_argument(
        "--solve-cache",
        action="store_true",
        help="memoize the whole solve cell (in-memory unless a dir is set)",
    )
    run.add_argument(
        "--solve-cache-dir",
        default=None,
        help="on-disk solve-cell cache; a warm second run replays its "
        "event stream from cache",
    )
    _add_gateway_flags(run)
    run.set_defaults(fn=_cmd_run)

    evaluate = sub.add_parser("eval", help="evaluate a system on a suite")
    evaluate.add_argument("system")
    evaluate.add_argument("suite", nargs="?", default="verilogeval-v2")
    evaluate.add_argument(
        "--runs",
        type=int,
        default=None,
        help="evaluation runs per problem (default: $REPRO_EVAL_RUNS or 1)",
    )
    evaluate.add_argument(
        "--seed0", type=int, default=0, help="base seed; run r uses seed0+r"
    )
    evaluate.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="1 = serial in this process, more = that many worker "
        "processes (default: $REPRO_JOBS or every core)",
    )
    evaluate.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="content-addressed simulation cache (default: on)",
    )
    evaluate.add_argument(
        "--solve-cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="whole solve-cell memoization (default: $REPRO_SOLVE_CACHE or off)",
    )
    evaluate.add_argument(
        "--limit", type=int, default=None, help="use only the first N problems"
    )
    evaluate.add_argument("--verbose", action="store_true")
    evaluate.add_argument(
        "--progress",
        action="store_true",
        help="stream typed per-cell events as they finish",
    )
    evaluate.add_argument(
        "--service",
        default=None,
        metavar="HOST:PORT",
        help="route the grid through a running solve server "
        "(deterministic merge, bit-identical to local --jobs 1)",
    )
    _add_gateway_flags(evaluate)
    evaluate.set_defaults(fn=_cmd_eval)

    cache_cmd = sub.add_parser(
        "cache", help="report per-layer cache sizes and hit/miss counters"
    )
    cache_cmd.add_argument(
        "--sim-dir",
        default=None,
        help="simulation cache directory (default: $REPRO_SIM_CACHE_DIR)",
    )
    cache_cmd.add_argument(
        "--solve-dir",
        default=None,
        help="solve-cell cache directory (default: $REPRO_SOLVE_CACHE_DIR)",
    )
    cache_cmd.add_argument(
        "--cassette-dir",
        default=None,
        help="LLM cassette directory (default: $REPRO_CASSETTE_DIR)",
    )
    cache_cmd.add_argument(
        "--service",
        default=None,
        metavar="HOST:PORT",
        help="report a running solve server's live counters instead",
    )
    cache_cmd.add_argument(
        "--clear",
        action="store_true",
        help="wipe the cache disk directories instead of reporting",
    )
    cache_cmd.add_argument(
        "--layer",
        choices=["sim", "solve", "llm"],
        default=None,
        help="restrict --clear to one cache layer (default: all)",
    )
    cache_cmd.set_defaults(fn=_cmd_cache)

    stats_cmd = sub.add_parser(
        "stats",
        help="gateway, per-stage, and cache metrics (local or --service)",
    )
    stats_cmd.add_argument(
        "--service",
        default=None,
        metavar="HOST:PORT",
        help="report a running solve server's live metrics instead of "
        "this process's",
    )
    stats_cmd.add_argument(
        "--prometheus",
        action="store_true",
        help="render the metrics in Prometheus text exposition format "
        "(works locally and with --service)",
    )
    stats_cmd.set_defaults(fn=_cmd_stats)

    serve = sub.add_parser(
        "serve", help="start a long-lived solve service on localhost"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = pick a free one)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="long-lived solve workers"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="queued-job ceiling before submits are rejected (backpressure)",
    )
    serve.add_argument(
        "--sim-cache-dir",
        default=None,
        help="on-disk simulation cache (default: $REPRO_SIM_CACHE_DIR); "
        "processes on one directory share its entries",
    )
    serve.add_argument(
        "--solve-cache-dir",
        default=None,
        help="on-disk solve-cell cache (default: $REPRO_SOLVE_CACHE_DIR); "
        "a local eval --solve-cache on the same directory replays the "
        "cells this server solved",
    )
    serve.add_argument(
        "--stop",
        default=None,
        metavar="HOST:PORT",
        help="gracefully drain and stop a running server instead of starting",
    )
    _add_gateway_flags(serve)
    serve.set_defaults(fn=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit one solve cell to a running service"
    )
    submit.add_argument("system")
    submit.add_argument("problem")
    submit.add_argument(
        "--addr",
        default=os.environ.get("REPRO_SERVICE_ADDR", "127.0.0.1:7341"),
        help="service address (default: $REPRO_SERVICE_ADDR or "
        "127.0.0.1:7341)",
    )
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--priority", type=int, default=0, help="higher runs sooner"
    )
    submit.add_argument(
        "--quiet", action="store_true", help="suppress the event stream"
    )
    submit.add_argument(
        "--source", action="store_true", help="also print the final RTL"
    )
    submit.set_defaults(fn=_cmd_submit)

    lint_cmd = sub.add_parser("lint", help="lint a Verilog file")
    lint_cmd.add_argument("file")
    lint_cmd.set_defaults(fn=_cmd_lint)

    tb = sub.add_parser("tb", help="run a testbench against a design")
    tb.add_argument("design")
    tb.add_argument("testbench")
    tb.add_argument("--vcd", help="also dump a VCD waveform")
    tb.set_defaults(fn=_cmd_tb)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro eval ... | head``).  Point stdout
        # at devnull so the interpreter's exit-time flush cannot raise a
        # second time, and fail without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
