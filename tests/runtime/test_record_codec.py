"""Disk record codecs: hostile bytes are a counted ``corrupt`` miss, every
value round-trips, and nothing on disk is unpickled.

Each of the three cached value types (a simulation ``TestReport``, a
``SolveCellRecord``, a cassette ``CassetteRecord``) is written by its
cache's codec and read back by a fresh cache over the same directory,
as another process would.  The adversarial axes mirror
``tests/service/test_protocol_fuzz.py``: truncations, bit flips,
foreign JSON (bare and well-framed), version skew, well-framed fields
of the wrong JSON type, and raw pickle bytes.  Runs under hypothesis
when it is installed (``derandomize=True`` keeps examples
reproducible) and falls back to a seeded-random sweep with the
identical checks where it is not.
"""

import dataclasses
import json
import os
import pickle
import random
import tempfile
import zlib

import pytest

from repro.baselines.registry import SYSTEMS
from repro.core import events as events_module
from repro.evalsets import get_problem, golden_testbench
from repro.hdl.values import LogicVec
from repro.llm.gateway.cassette import CassetteRecord, CassetteStore
from repro.runtime.cache import (
    EncodedEvents,
    SimulationCache,
    SolveCellCache,
    SolveCellRecord,
    clear_disk_cache,
    disk_cache_info,
    solve_cell_key,
)
from repro.runtime.workers import solve_streaming
from repro.tb.runner import CheckRecord, TestReport, run_testbench
from repro.tb.stimulus import TbStep, Testbench

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # CI fallback: seeded random, same checks
    HAVE_HYPOTHESIS = False


# -- value builders, driven by either hypothesis or random -------------


class RandomDraw:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def integer(self, low: int, high: int) -> int:
        return self.rng.randint(low, high)

    def floating(self) -> float:
        return self.rng.choice([0.0, -0.0, 1.0, float("inf"), self.rng.random()])

    def text(self) -> str:
        alphabet = "ab z_\"\\\n{}[]é☃\ud800"
        return "".join(
            self.rng.choice(alphabet) for _ in range(self.rng.randint(0, 12))
        )

    def boolean(self) -> bool:
        return self.rng.random() < 0.5

    def choice(self, options):
        return self.rng.choice(options)


if HAVE_HYPOTHESIS:

    class HypothesisDraw:
        def __init__(self, data):
            self.data = data

        def integer(self, low: int, high: int) -> int:
            return self.data.draw(st.integers(low, high))

        def floating(self) -> float:
            return self.data.draw(st.floats(allow_nan=False))

        def text(self) -> str:
            return self.data.draw(st.text(max_size=12))

        def boolean(self) -> bool:
            return self.data.draw(st.booleans())

        def choice(self, options):
            return self.data.draw(st.sampled_from(options))


def draw_many(draw, build, most: int = 4) -> list:
    return [build(draw) for _ in range(draw.integer(0, most))]


# Event fields by annotation: the events module uses only these.
FIELD_BUILDERS = {
    "str": lambda d: d.text(),
    "int": lambda d: d.integer(-(2**40), 2**40),
    "float": lambda d: d.floating(),
    "bool": lambda d: d.boolean(),
    "tuple[float, ...]": lambda d: tuple(draw_many(d, lambda d: d.floating())),
}
EVENT_CLASSES = sorted(events_module.EVENT_TYPES.values(), key=lambda c: c.kind)


def make_event(draw) -> events_module.Event:
    cls = draw.choice(EVENT_CLASSES)
    return cls(
        **{
            f.name: FIELD_BUILDERS[f.type](draw)
            for f in dataclasses.fields(cls)
        }
    )


def make_record(draw) -> SolveCellRecord:
    unscored = draw.boolean()
    return SolveCellRecord(
        source=draw.text(),
        system=draw.text(),
        events=tuple(draw_many(draw, make_event, 6)),
        passed=None if unscored else draw.boolean(),
        score=None if unscored else draw.floating(),
    )


def make_vec(draw) -> LogicVec:
    width = draw.integer(1, 80)
    return LogicVec(
        width,
        draw.integer(0, 2**width - 1),
        draw.integer(0, 2**width - 1) if draw.boolean() else 0,
        draw.boolean(),
    )


def make_ints(draw) -> dict:
    return {draw.text(): draw.integer(-(2**70), 2**70) for _ in range(2)}


def make_report(draw) -> TestReport:
    clocked = draw.boolean()
    steps = draw_many(
        draw,
        lambda d: TbStep(
            inputs=make_ints(d), checks={d.text(): make_vec(d) for _ in range(2)}
        ),
    )
    records = draw_many(
        draw,
        lambda d: CheckRecord(
            step=d.integer(0, 99),
            time=d.integer(0, 10_000),
            signal=d.text(),
            expected=make_vec(d),
            actual=make_vec(d),
            ok=d.boolean(),
            inputs=make_ints(d),
        ),
    )
    return TestReport(
        testbench=Testbench(
            kind="clocked" if clocked else "comb",
            inputs=tuple(draw_many(draw, lambda d: d.text())),
            outputs=tuple(draw_many(draw, lambda d: d.text())),
            steps=tuple(steps),
            clock="clk" if clocked else None,
            name=draw.text(),
        ),
        records=records,
        error=draw.choice([None, draw.text()]),
    )


def make_cassette(draw) -> CassetteRecord:
    return CassetteRecord(
        completions=tuple(draw_many(draw, lambda d: d.text())),
        backend=draw.text(),
        prompt_tokens=draw.integer(0, 10**6),
        completion_tokens=draw.integer(0, 10**6),
    )


# -- fixed samples: real values from a real solve and simulation -------


def _samples() -> dict:
    problem = get_problem("cb_mux2")
    record, _ = solve_streaming(
        SYSTEMS["mage"].factory,
        problem,
        0,
        solve_cache=SolveCellCache(),
        fingerprint="codec-test",
    )
    golden = golden_testbench(problem)
    return {
        "sim": (SimulationCache, run_testbench(problem.golden, golden, problem.top)),
        "solve": (SolveCellCache, dataclasses.replace(record, passed=True, score=1.0)),
        "llm": (
            CassetteStore,
            CassetteRecord(completions=("x", "y\n"), backend="mock"),
        ),
    }


SAMPLES = _samples()
LAYERS = sorted(SAMPLES)


def encoded(layer: str) -> bytes:
    cls, value = SAMPLES[layer]
    return cls.codec.dumps(value)


def framed(cls, body: bytes, version: int | None = None) -> bytes:
    """``body`` under a valid frame line: right tag and checksum."""
    codec = cls.codec
    version = codec.version if version is None else version
    return b"%s/%d %08x\n" % (codec.tag.encode(), version, zlib.crc32(body)) + body


def read_back(cls, blob: bytes):
    """Plant ``blob`` as an entry and look it up from a fresh cache."""
    with tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, "k.rec"), "wb") as handle:
            handle.write(blob)
        cache = cls(directory)
        value = cache.get("k")  # must never raise
        return value, cache.stats


def check_refused(cls, blob: bytes) -> None:
    value, stats = read_back(cls, blob)
    assert value is None
    assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)


def check_round_trip(cls, value) -> None:
    got, stats = read_back(cls, cls.codec.dumps(value))
    assert (stats.disk_hits, stats.corrupt) == (1, 0)
    assert type(got) is type(value)
    assert got == value
    if isinstance(value, SolveCellRecord):
        assert len(got.events) == len(value.events)
        assert list(got.events) == list(value.events)


# -- the adversarial checks --------------------------------------------


def check_truncation(layer: str, cut: int) -> None:
    blob = encoded(layer)
    check_refused(SAMPLES[layer][0], blob[: cut % len(blob)])


def check_bit_flip(layer: str, offset: int, bit: int) -> None:
    blob = bytearray(encoded(layer))
    blob[offset % len(blob)] ^= 1 << bit
    check_refused(SAMPLES[layer][0], bytes(blob))


def check_foreign_json(layer: str, value) -> None:
    cls = SAMPLES[layer][0]
    body = json.dumps(value).encode()
    check_refused(cls, body)  # bare: no frame line at all
    check_refused(cls, framed(cls, body))  # framed: the wrong shape


def check_version_skew(layer: str, version: int) -> None:
    cls, value = SAMPLES[layer]
    body = cls.codec.encode(value)
    check_refused(cls, framed(cls, body, version))


def _paths(node, path=()):
    """Every (path, node) in a JSON tree except nulls, whose field may
    legitimately hold another type."""
    if node is None:
        return
    yield path, node
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


# One value per JSON type; a replacement always changes the type.
REPLACEMENTS = [True, 7, 2.5, "s", [], {}]


def check_wrong_field_type(layer: str, pick: int, replace: int) -> None:
    cls, value = SAMPLES[layer]
    body = cls.codec.encode(value)
    # A solve record's typed fields are its header line; the events
    # after it are covered by the checksum and decoded on use.
    head, newline, tail = body.partition(b"\n")
    tree = json.loads(head)
    paths = list(_paths(tree))
    path, node = paths[pick % len(paths)]
    others = [r for r in REPLACEMENTS if type(r) is not type(node)]
    replacement = others[replace % len(others)]
    if not path:
        tree = replacement
    else:
        parent = tree
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = replacement
    check_refused(cls, framed(cls, json.dumps(tree).encode() + newline + tail))


def check_pickle_bytes(layer: str) -> None:
    cls, value = SAMPLES[layer]
    check_refused(cls, pickle.dumps(value))


# -- drivers -----------------------------------------------------------

if HAVE_HYPOTHESIS:
    common = settings(max_examples=60, deadline=None, derandomize=True)
    layers = st.sampled_from(LAYERS)
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=12,
    )

    @common
    @given(layer=layers, cut=st.integers(min_value=0))
    def test_truncated_entries_are_corrupt_misses(layer, cut):
        check_truncation(layer, cut)

    @common
    @given(
        layer=layers,
        offset=st.integers(min_value=0),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_bit_flipped_entries_are_corrupt_misses(layer, offset, bit):
        check_bit_flip(layer, offset, bit)

    @common
    @given(layer=layers, value=json_values)
    def test_foreign_json_is_a_corrupt_miss(layer, value):
        check_foreign_json(layer, value)

    @common
    @given(
        layer=layers,
        version=st.integers(min_value=-5, max_value=10**6).filter(
            lambda v: v != 1
        ),
    )
    def test_other_versions_are_corrupt_misses(layer, version):
        check_version_skew(layer, version)

    @common
    @given(
        layer=layers,
        pick=st.integers(min_value=0),
        replace=st.integers(min_value=0, max_value=len(REPLACEMENTS)),
    )
    def test_wrong_field_types_are_corrupt_misses(layer, pick, replace):
        check_wrong_field_type(layer, pick, replace)

    @common
    @given(data=st.data())
    def test_solve_records_round_trip(data):
        check_round_trip(SolveCellCache, make_record(HypothesisDraw(data)))

    @common
    @given(data=st.data())
    def test_test_reports_round_trip(data):
        check_round_trip(SimulationCache, make_report(HypothesisDraw(data)))

    @common
    @given(data=st.data())
    def test_cassette_records_round_trip(data):
        check_round_trip(CassetteStore, make_cassette(HypothesisDraw(data)))

else:

    @pytest.mark.parametrize("layer", LAYERS)
    def test_truncated_entries_are_corrupt_misses(layer):
        rng = random.Random(0xC0)
        for _ in range(40):
            check_truncation(layer, rng.randrange(2**20))

    @pytest.mark.parametrize("layer", LAYERS)
    def test_bit_flipped_entries_are_corrupt_misses(layer):
        rng = random.Random(0xC1)
        for _ in range(40):
            check_bit_flip(layer, rng.randrange(2**20), rng.randrange(8))

    @pytest.mark.parametrize("layer", LAYERS)
    def test_foreign_json_is_a_corrupt_miss(layer):
        for value in (None, 0, "x", [], {}, {"source": "m"}, [[1, 2], {"a": 1}]):
            check_foreign_json(layer, value)

    @pytest.mark.parametrize("layer", LAYERS)
    def test_other_versions_are_corrupt_misses(layer):
        for version in (-1, 0, 2, 3, 99):
            check_version_skew(layer, version)

    @pytest.mark.parametrize("layer", LAYERS)
    def test_wrong_field_types_are_corrupt_misses(layer):
        rng = random.Random(0xC2)
        for _ in range(40):
            check_wrong_field_type(layer, rng.randrange(2**20), rng.randrange(8))

    @pytest.mark.parametrize("seed", range(20))
    def test_solve_records_round_trip(seed):
        check_round_trip(SolveCellCache, make_record(RandomDraw(random.Random(seed))))

    @pytest.mark.parametrize("seed", range(20))
    def test_test_reports_round_trip(seed):
        check_round_trip(SimulationCache, make_report(RandomDraw(random.Random(seed))))

    @pytest.mark.parametrize("seed", range(20))
    def test_cassette_records_round_trip(seed):
        check_round_trip(CassetteStore, make_cassette(RandomDraw(random.Random(seed))))


@pytest.mark.parametrize("layer", LAYERS)
def test_raw_pickle_bytes_are_a_corrupt_miss(layer):
    check_pickle_bytes(layer)


@pytest.mark.parametrize("layer", LAYERS)
def test_real_values_round_trip(layer):
    check_round_trip(*SAMPLES[layer])


def test_every_field_kind_of_every_event_has_a_builder():
    for cls in EVENT_CLASSES:
        for field in dataclasses.fields(cls):
            assert field.type in FIELD_BUILDERS, (cls, field.name, field.type)


class TestLazyEvents:
    """A solve record read from disk decodes its events only when
    something iterates them; source, verdict and ``len()`` never do."""

    def test_serving_and_counting_decode_no_event(self, tmp_path, monkeypatch):
        _, record = SAMPLES["solve"]
        directory = str(tmp_path / "solve")
        SolveCellCache(directory).put("k", record)

        def refuse(payload):
            raise AssertionError("an event was decoded")

        monkeypatch.setattr(events_module.Event, "from_json", staticmethod(refuse))
        got = SolveCellCache(directory).get("k")
        assert isinstance(got.events, EncodedEvents)
        assert (got.source, got.passed, got.score) == (
            record.source,
            True,
            1.0,
        )
        assert len(got.events) == len(record.events) > 0
        monkeypatch.undo()
        assert tuple(got.events) == record.events
        assert got.events[0] == record.events[0]
        assert got == record and hash(got.events) == hash(record.events)

    def test_a_replay_streams_the_recorded_events(self, tmp_path):
        _, record = SAMPLES["solve"]
        problem = get_problem("cb_mux2")
        directory = str(tmp_path / "solve")
        key = solve_cell_key("codec-test", problem, 0)
        SolveCellCache(directory).put(key, record)
        seen = []
        replayed, cached = solve_streaming(
            SYSTEMS["mage"].factory,
            problem,
            0,
            sink=seen.append,
            solve_cache=SolveCellCache(directory),
            fingerprint="codec-test",
        )
        assert cached and replayed == record
        assert tuple(seen) == record.events


class TestLegacyPickles:
    """``*.pkl`` entries an older version wrote are plain misses and are
    never opened; ``cache --clear`` unlinks them unread."""

    @staticmethod
    def plant(directory: str, marker: str) -> None:
        os.makedirs(directory, exist_ok=True)
        # Unpickling this calls open(marker, "w"): a file proves a load.
        blob = pickle.dumps(_Trap(marker))
        with open(os.path.join(directory, "k.pkl"), "wb") as handle:
            handle.write(blob)

    def test_the_trap_is_live(self, tmp_path):
        marker = str(tmp_path / "marker")
        pickle.loads(pickle.dumps(_Trap(marker))).close()
        assert os.path.exists(marker)

    @pytest.mark.parametrize("layer", LAYERS)
    def test_a_legacy_entry_is_a_plain_miss_never_opened(self, tmp_path, layer):
        cls, _ = SAMPLES[layer]
        directory = str(tmp_path / layer)
        marker = str(tmp_path / "marker")
        self.plant(directory, marker)
        cache = cls(directory)
        assert cache.peek("k") is None
        assert cache.get("k") is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)
        assert disk_cache_info(directory).entries == 0
        assert not os.path.exists(marker)

    def test_clearing_unlinks_legacy_entries_unread(self, tmp_path):
        directory = str(tmp_path / "solve")
        marker = str(tmp_path / "marker")
        self.plant(directory, marker)
        SolveCellCache(directory).put("fresh", SAMPLES["solve"][1])
        assert clear_disk_cache(directory).entries == 1
        assert os.listdir(directory) == []
        assert not os.path.exists(marker)


class _Trap:
    def __init__(self, marker: str):
        self.marker = marker

    def __reduce__(self):
        return open, (self.marker, "w")
