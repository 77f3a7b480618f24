"""Gateway failure modes: retry exhaustion, mid-chain fallback,
rate-limit queueing, cassette replay misses -- plus the determinism
anchors (gateway-over-sim == bare SimLLM, record/replay round trips,
per-role routing, pickling)."""

import pickle

import pytest

from repro.core.events import GatewayCall, ListSink, ambient_sink
from repro.llm.gateway import (
    GATEWAY_STATS,
    CassetteMiss,
    Gateway,
    GatewayExhausted,
    GatewaySettings,
    TokenBucket,
    parse_stage_models,
)
from repro.llm.gateway.backends import (
    BackendError,
    DownBackend,
    FlakyBackend,
    build_backend,
)
from repro.llm.interface import (
    HIGH_TEMPERATURE,
    LOW_TEMPERATURE,
    ChatMessage,
)
from repro.llm.simllm import SimLLM

MESSAGES = (
    ChatMessage("system", "You are an RTL engineer."),
    ChatMessage("user", "Write a 2:1 mux."),
)


@pytest.fixture(autouse=True)
def clean_stats():
    GATEWAY_STATS.reset()
    yield
    GATEWAY_STATS.reset()


def make_gateway(sleep=None, **overrides):
    settings = GatewaySettings(enabled=True, **overrides)
    kwargs = {"sleep": sleep} if sleep is not None else {}
    return Gateway(
        model="claude-3.5-sonnet", settings=settings, **kwargs
    )


class TestSimEquivalence:
    def test_gateway_over_sim_is_bit_identical(self):
        bare = SimLLM()
        gateway = make_gateway()
        assert gateway.complete(MESSAGES, LOW_TEMPERATURE) == bare.complete(
            MESSAGES, LOW_TEMPERATURE
        )
        assert gateway.sample(MESSAGES, HIGH_TEMPERATURE) == bare.sample(
            MESSAGES, HIGH_TEMPERATURE
        )
        assert gateway.model_name == bare.model_name

    def test_calls_emit_accounting_events(self):
        gateway = make_gateway()
        sink = ListSink()
        with ambient_sink(sink):
            gateway.sample(MESSAGES, HIGH_TEMPERATURE)
        calls = [e for e in sink.events if isinstance(e, GatewayCall)]
        assert len(calls) == 1
        assert calls[0].backend == "sim"
        assert calls[0].n == HIGH_TEMPERATURE.n
        assert calls[0].completion_tokens > 0


class TestRetryAndFallback:
    def test_all_backends_down_exhausts_with_retries(self):
        sleeps = []
        gateway = make_gateway(
            sleep=sleeps.append, backends=("down",), retries=3
        )
        with pytest.raises(GatewayExhausted):
            gateway.complete(MESSAGES, LOW_TEMPERATURE)
        down = gateway._backends[0]
        assert isinstance(down, DownBackend)
        assert down.calls == 3  # every retry reached the backend
        # Exponential backoff before attempts 2 and 3.
        assert sleeps == [0.05, 0.1]
        stats = GATEWAY_STATS.snapshot()
        assert stats["retries"] == 2
        assert stats["failures"] == 1

    def test_mid_chain_fallback_preserves_sim_output(self):
        """A chain that falls over to sim produces the exact completions
        a bare SimLLM would -- the flaky backend fails before touching
        the wrapped client, so no RNG state is consumed."""
        bare = SimLLM()
        gateway = make_gateway(
            sleep=lambda _s: None,
            backends=("flaky@5", "sim"),
            retries=2,
        )
        assert gateway.sample(MESSAGES, HIGH_TEMPERATURE) == bare.sample(
            MESSAGES, HIGH_TEMPERATURE
        )
        stats = GATEWAY_STATS.snapshot()
        assert stats["fallbacks"] == 1
        assert stats["retries"] == 1

    def test_flaky_backend_recovers_within_retries(self):
        bare = SimLLM()
        gateway = make_gateway(
            sleep=lambda _s: None, backends=("flaky@2",), retries=3
        )
        assert gateway.complete(MESSAGES, LOW_TEMPERATURE) == bare.complete(
            MESSAGES, LOW_TEMPERATURE
        )
        flaky = gateway._backends[0]
        assert isinstance(flaky, FlakyBackend)
        assert flaky.failures_dealt == 2
        assert GATEWAY_STATS.snapshot()["fallbacks"] == 0

    def test_permanent_error_aborts_the_chain(self):
        """A BackendError (bad auth, bad request) must not be retried
        or failed over -- the sim backend after it stays untouched."""

        class Rejecting(DownBackend):
            def sample(self, model, messages, params):
                self.calls += 1
                raise BackendError("401 unauthorized")

            complete = sample

        gateway = make_gateway(backends=("sim", "sim"), retries=3)
        rejecting = Rejecting()
        gateway._backends[0] = rejecting
        with pytest.raises(BackendError):
            gateway.complete(MESSAGES, LOW_TEMPERATURE)
        assert rejecting.calls == 1


class TestRateLimit:
    def test_token_bucket_queues_past_the_burst(self):
        clock = [0.0]
        waits = []

        def sleep(seconds):
            waits.append(seconds)
            clock[0] += seconds

        bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: clock[0], sleep=sleep)
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        waited = bucket.acquire()  # burst spent: must wait 1/rate
        assert waited == pytest.approx(0.5)
        assert waits == [pytest.approx(0.5)]

    def test_gateway_counts_rate_limit_waits(self):
        clock = [0.0]
        bucket = TokenBucket(
            rate=1.0,
            burst=1,
            clock=lambda: clock[0],
            sleep=lambda s: clock.__setitem__(0, clock[0] + s),
        )
        settings = GatewaySettings(enabled=True)
        gateway = Gateway(
            model="claude-3.5-sonnet", settings=settings, limiter=bucket
        )
        gateway.complete(MESSAGES, LOW_TEMPERATURE)
        gateway.complete(MESSAGES, LOW_TEMPERATURE)
        assert GATEWAY_STATS.snapshot()["rate_limit_waits"] == 1

    def test_zero_rate_disables_the_limiter(self):
        bucket = TokenBucket(rate=0.0)
        assert all(bucket.acquire() == 0.0 for _ in range(100))


class TestCassette:
    def test_record_then_replay_round_trips(self, tmp_path):
        recorder = make_gateway(mode="record", cassette_dir=str(tmp_path))
        recorded = recorder.sample(MESSAGES, HIGH_TEMPERATURE)
        replayer = make_gateway(
            mode="replay", cassette_dir=str(tmp_path), backends=("down",)
        )
        assert replayer.sample(MESSAGES, HIGH_TEMPERATURE) == recorded
        # Zero network: the down backend was never consulted.
        assert replayer._backends[0].calls == 0

    def test_replay_emits_the_recorded_accounting_event(self, tmp_path):
        recorder = make_gateway(mode="record", cassette_dir=str(tmp_path))
        record_sink = ListSink()
        with ambient_sink(record_sink):
            recorder.sample(MESSAGES, HIGH_TEMPERATURE)
        replayer = make_gateway(
            mode="replay", cassette_dir=str(tmp_path), backends=("down",)
        )
        replay_sink = ListSink()
        with ambient_sink(replay_sink):
            replayer.sample(MESSAGES, HIGH_TEMPERATURE)
        assert [e.to_json() for e in record_sink.events] == [
            e.to_json() for e in replay_sink.events
        ]

    def test_replay_miss_raises(self, tmp_path):
        replayer = make_gateway(
            mode="replay", cassette_dir=str(tmp_path), backends=("down",)
        )
        with pytest.raises(CassetteMiss):
            replayer.complete(MESSAGES, LOW_TEMPERATURE)
        assert GATEWAY_STATS.snapshot()["cassette_misses"] == 1

    def test_repeated_identical_requests_get_their_own_slots(self, tmp_path):
        """The Nth identical request records (and replays) the Nth
        answer -- high-temperature resampling must not collapse."""
        recorder = make_gateway(mode="record", cassette_dir=str(tmp_path))
        first = recorder.sample(MESSAGES, HIGH_TEMPERATURE)
        second = recorder.sample(MESSAGES, HIGH_TEMPERATURE)
        # Two distinct cassette entries, not one overwritten slot.
        assert len(list(tmp_path.glob("*.rec"))) == 2
        replayer = make_gateway(
            mode="replay", cassette_dir=str(tmp_path), backends=("down",)
        )
        # If ordinals collapsed, the second replay would miss.
        assert replayer.sample(MESSAGES, HIGH_TEMPERATURE) == first
        assert replayer.sample(MESSAGES, HIGH_TEMPERATURE) == second


class TestRouting:
    def test_no_routing_shares_one_instance(self):
        gateway = make_gateway()
        assert gateway.for_role("rtl") is gateway
        assert gateway.for_role("tb") is gateway

    def test_stage_models_route_roles_to_models(self):
        gateway = make_gateway(
            stage_models=parse_stage_models("rtl=gpt-4o")
        )
        routed = gateway.for_role("rtl")
        assert routed is not gateway
        assert routed.model == "gpt-4o"
        assert routed.role == "rtl"
        # Unrouted roles keep the default model but still get a sibling
        # carrying their role tag for cassette identity.
        assert gateway.for_role("tb").model == "claude-3.5-sonnet"

    def test_siblings_share_registry_and_limiter(self):
        gateway = make_gateway(
            stage_models=parse_stage_models("rtl=gpt-4o")
        )
        routed = gateway.for_role("rtl")
        assert routed.registry is gateway.registry
        assert routed._limiter is gateway._limiter

    def test_unknown_role_in_stage_models_rejected(self):
        with pytest.raises(ValueError):
            parse_stage_models("compiler=gpt-4o")


class TestPickling:
    def test_gateway_round_trips_through_pickle(self):
        gateway = make_gateway()
        gateway.complete(MESSAGES, LOW_TEMPERATURE)
        clone = pickle.loads(pickle.dumps(gateway))
        assert clone.settings == gateway.settings
        assert clone._lock is not None and clone._limiter is not None
        # The clone continues the identical sim stream: a bare SimLLM
        # with one call consumed produces the clone's next completion.
        bare = SimLLM()
        bare.complete(MESSAGES, LOW_TEMPERATURE)
        assert clone.complete(MESSAGES, LOW_TEMPERATURE) == bare.complete(
            MESSAGES, LOW_TEMPERATURE
        )


class TestBackendParsing:
    def test_build_backend_specs(self):
        sim = SimLLM()
        assert build_backend("sim", sim).name == "sim"
        assert build_backend("down", None).name == "down"
        flaky = build_backend("flaky@7", sim)
        assert isinstance(flaky, FlakyBackend)
        assert flaky.fail_first == 7
        openai = build_backend("openai:http://localhost:9", None)
        assert openai.name == "openai"
        anthropic = build_backend("anthropic", None)
        assert anthropic.name == "anthropic"

    def test_unknown_backend_spec_rejected(self):
        with pytest.raises(ValueError):
            build_backend("telepathy", None)

    def test_sim_spec_requires_a_sim_client(self):
        with pytest.raises(ValueError):
            build_backend("sim", None)
