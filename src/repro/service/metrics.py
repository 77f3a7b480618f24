"""Prometheus text exposition of a server's ``StatsReply`` snapshot.

:func:`render_prometheus` turns the dict :meth:`SolveServer.stats_snapshot`
returns (and :class:`~repro.service.protocol.StatsReply` carries) into
the Prometheus text exposition format (version 0.0.4): ``# HELP`` /
``# TYPE`` headers followed by ``name{labels} value`` samples.  The
``repro stats --prometheus`` CLI mode prints it for scrape-by-cron or
textfile-collector setups -- no HTTP endpoint, no client library, just
the counters the service already keeps:

- broker and service request totals,
- per-layer cache stats,
- gateway call/retry/fallback/token/cost counters,
- per-stage wall-clock from the process-wide StageClock.

Every section is optional: the renderer skips what a snapshot does not
carry (old servers), so it never fails on a sparse dict.  Metric names are stable API -- dashboards depend on them.
"""

from __future__ import annotations


def _escape(value: str) -> str:
    """Label-value escaping per the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(pairs: dict) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in pairs.items()
    )
    return "{" + inner + "}"


def _number(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Exposition:
    """Accumulates families in first-use order, one block per family."""

    def __init__(self) -> None:
        self._order: list[str] = []
        self._help: dict[str, tuple[str, str]] = {}
        self._samples: dict[str, list[str]] = {}

    def add(
        self,
        name: str,
        value,
        labels: dict | None = None,
        help_text: str = "",
        kind: str = "counter",
    ) -> None:
        if value is None:
            return
        if name not in self._help:
            self._order.append(name)
            self._help[name] = (help_text, kind)
            self._samples[name] = []
        self._samples[name].append(
            f"{name}{_labels(labels or {})} {_number(value)}"
        )

    def render(self) -> str:
        blocks = []
        for name in self._order:
            help_text, kind = self._help[name]
            lines = []
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(self._samples[name])
            blocks.append("\n".join(lines))
        return "\n".join(blocks) + "\n"


def _add_flat(
    exp: _Exposition,
    prefix: str,
    section: dict,
    help_prefix: str,
) -> None:
    """One metric per numeric key of a flat counter dict."""
    for key, value in section.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        exp.add(
            f"{prefix}_{key}",
            value,
            help_text=f"{help_prefix}: {key}.",
        )


def render_prometheus(stats: dict) -> str:
    """Render one stats snapshot in Prometheus text exposition format."""
    exp = _Exposition()

    info_labels = {}
    if stats.get("address"):
        info_labels["address"] = stats["address"]
    if stats.get("gateway_mode"):
        info_labels["gateway_mode"] = stats["gateway_mode"]
    exp.add(
        "repro_info",
        1,
        labels=info_labels,
        help_text="Server identity (labels carry the details).",
        kind="gauge",
    )
    exp.add(
        "repro_workers",
        stats.get("workers"),
        help_text="Worker processes in the pool.",
        kind="gauge",
    )
    exp.add(
        "repro_pending_jobs",
        stats.get("pending"),
        help_text="Jobs queued or running in the broker.",
        kind="gauge",
    )

    if isinstance(stats.get("broker"), dict):
        _add_flat(exp, "repro_broker", stats["broker"], "Broker counter")
    if isinstance(stats.get("service"), dict):
        _add_flat(exp, "repro_service", stats["service"], "Service counter")
    if isinstance(stats.get("gateway"), dict):
        _add_flat(exp, "repro_gateway", stats["gateway"], "LLM gateway counter")

    for name, row in (stats.get("stages") or {}).items():
        if not isinstance(row, dict):
            continue
        labels = {"stage": name}
        exp.add(
            "repro_stage_runs_total",
            row.get("runs"),
            labels=labels,
            help_text="Stage executions recorded by the StageClock.",
        )
        exp.add(
            "repro_stage_seconds_total",
            row.get("seconds"),
            labels=labels,
            help_text="Cumulative stage wall-clock seconds.",
        )

    for layer, cache in (stats.get("caches") or {}).items():
        if not isinstance(cache, dict):
            continue
        layer_labels = {"layer": layer}
        for key in (
            "entries",
            "lookups",
            "hits",
            "misses",
            "stores",
            "disk_hits",
            "corrupt",
            "errors",
            "evictions",
        ):
            exp.add(
                f"repro_cache_{key}",
                cache.get(key),
                labels=layer_labels,
                help_text=f"Cache counter: {key}.",
                kind="gauge" if key == "entries" else "counter",
            )

    return exp.render()
