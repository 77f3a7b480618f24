"""Prometheus text-exposition rendering of stats snapshots.

Metric names are stable API, so these tests pin exact lines: HELP/TYPE
headers, label escaping, counter-vs-gauge kinds, and the sparse-dict
contract (a snapshot without a section renders no metrics for it,
never an error).
"""

import pytest

from repro.service import SolveServer, render_prometheus


def _lines(text):
    return text.splitlines()


class TestRenderPrometheus:
    def test_full_snapshot_renders_expected_families(self):
        stats = {
            "address": "127.0.0.1:7777",
            "workers": 2,
            "pending": 3,
            "broker": {"submitted": 10, "completed": 9},
            "service": {"requests": 10, "executed": 2},
            "gateway": {"calls": 5, "retries": 1},
            "gateway_mode": "live",
            "stages": {"spec": {"runs": 4, "seconds": 1.25}},
            "caches": {
                "simulation": {
                    "entries": 12,
                    "hits": 30,
                    "errors": 2,
                    "evictions": 1,
                },
            },
        }
        text = render_prometheus(stats)
        lines = _lines(text)
        assert (
            'repro_info{address="127.0.0.1:7777",gateway_mode="live"} 1'
            in lines
        )
        assert "# TYPE repro_info gauge" in lines
        assert "repro_workers 2" in lines
        assert "repro_pending_jobs 3" in lines
        assert "# TYPE repro_broker_submitted counter" in lines
        assert "repro_broker_submitted 10" in lines
        assert "repro_service_executed 2" in lines
        assert "repro_gateway_calls 5" in lines
        assert 'repro_stage_runs_total{stage="spec"} 4' in lines
        assert 'repro_stage_seconds_total{stage="spec"} 1.25' in lines
        assert 'repro_cache_entries{layer="simulation"} 12' in lines
        assert "# TYPE repro_cache_entries gauge" in lines
        assert "# TYPE repro_cache_hits counter" in lines
        assert 'repro_cache_errors{layer="simulation"} 2' in lines
        assert 'repro_cache_evictions{layer="simulation"} 1' in lines
        assert not [line for line in lines if "repro_cache_tier" in line]
        assert text.endswith("\n")

    def test_every_cache_counter_is_a_counter_family(self):
        row = {
            key: 1
            for key in (
                "lookups", "hits", "misses", "stores", "disk_hits",
                "corrupt", "errors", "evictions",
            )
        }
        lines = _lines(render_prometheus({"caches": {"solve_cell": row}}))
        for key in row:
            assert f"# TYPE repro_cache_{key} counter" in lines
            assert f'repro_cache_{key}{{layer="solve_cell"}} 1' in lines

    def test_help_precedes_type_precedes_samples(self):
        text = render_prometheus({"workers": 1})
        lines = _lines(text)
        idx = lines.index("# TYPE repro_workers gauge")
        assert lines[idx - 1].startswith("# HELP repro_workers ")
        assert lines[idx + 1] == "repro_workers 1"

    def test_label_values_are_escaped(self):
        text = render_prometheus(
            {"stages": {'we"ird\nstage\\': {"runs": 1, "seconds": 0.5}}}
        )
        assert (
            'repro_stage_runs_total{stage="we\\"ird\\nstage\\\\"} 1'
            in _lines(text)
        )

    def test_sparse_snapshot_skips_absent_sections(self):
        text = render_prometheus({})
        assert "repro_info 1" in _lines(text)  # identity always renders
        for family in (
            "repro_broker_",
            "repro_gateway_",
            "repro_cache_",
            "repro_stage_",
        ):
            assert family not in text

    @pytest.mark.parametrize(
        "legacy, dropped",
        [
            ({"ring": {"members": 2, "moves": 1}}, "repro_ring_"),
            (
                {
                    "caches": {
                        "solve_cell": {
                            "hits": 1,
                            "remote_hits": 3,
                            "gossip": {"queued": 1, "sent": 2},
                        }
                    }
                },
                "repro_cache_remote_hits",
            ),
        ],
        ids=["ring-section", "peer-cache-keys"],
    )
    def test_legacy_peer_sections_render_nothing(self, legacy, dropped):
        """A snapshot from a server that still carried ring or peer
        cache sections renders without those families."""
        text = render_prometheus(legacy)
        assert dropped not in text
        assert "repro_cache_gossip" not in text
        if "caches" in legacy:
            assert 'repro_cache_hits{layer="solve_cell"} 1' in _lines(text)

    def test_non_numeric_and_bool_values_are_skipped(self):
        text = render_prometheus(
            {"service": {"requests": 1, "name": "solver", "busy": True}}
        )
        lines = _lines(text)
        assert "repro_service_requests 1" in lines
        assert "repro_service_name" not in text
        assert "repro_service_busy" not in text

    def test_live_server_snapshot_round_trips(self):
        """The renderer consumes a real ``stats_snapshot()`` as-is."""
        with SolveServer(workers=1) as server:
            text = render_prometheus(server.stats_snapshot())
        lines = _lines(text)
        assert "repro_workers 1" in lines
        assert any(line.startswith("repro_service_executed") for line in lines)
        # One host, one cache directory: no ring, gossip or peer families.
        for family in (
            "repro_ring_",
            "repro_cache_gossip",
            "repro_cache_remote_hits",
            "repro_service_peer_",
        ):
            assert family not in text
