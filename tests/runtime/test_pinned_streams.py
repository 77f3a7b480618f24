"""Pinned event streams: one SHA-256 per (system, problem) at seed 2.

The parity matrices compare one execution path against another on the
same tree, so a change that alters every path alike passes them.  This
test pins the absolute outcome instead: for every registered system, the
digest covers the returned source plus the canonical event stream (JSON
payloads with wall-clock ``seconds`` zeroed, see
:func:`test_path_parity.canonical`).  A digest may only change together
with a deliberate, documented change of behaviour.
"""

import hashlib
import json

import pytest
from test_path_parity import canonical

from repro.baselines.registry import SYSTEMS
from repro.core.events import ListSink
from repro.core.task import DesignTask
from repro.evalsets import get_problem

SEED = 2

PINNED = {
    ("vanilla-gpt-4o", "cb_kmap_mux"): "fd7a610eb7ececaee86e2d855afe899aa3f3d570db2b611c0374289617019067",
    ("vanilla-gpt-4o", "fs_vending"): "e256aece980046372f439d1098d650931a6e57992ed1cf3d7d50b01736eb2a2e",
    ("vanilla-gpt-4o", "ar_addsub8"): "e0760ac296ba97f51388ef6135bb572b5cf2e6551771770a68ecb18bdd8f13c8",
    ("vanilla-claude", "cb_kmap_mux"): "6c93e1fd1186c991ae80cdaec7d87509f671213acbbd3557e92ee65a3883f2ff",
    ("vanilla-claude", "fs_vending"): "3928da22aaf947febe13e1bcad388474888bc8596723b298acafb5727d222a70",
    ("vanilla-claude", "ar_addsub8"): "11794568d3149c4803541cf268200352f89b7815e648c234bf452162bfc99af7",
    ("vanilla-itertl", "cb_kmap_mux"): "6e8473586c0766cdeeb07a9dc2ab4a34a6ddf069a3d87ae9d5c14f794b2ec2b2",
    ("vanilla-itertl", "fs_vending"): "fe9b407cb2968ce104aa9b78d42cf78d8ac969d0e3f48d11efedfb399d2376e1",
    ("vanilla-itertl", "ar_addsub8"): "d66ad7d4a1a5e08b8c273e319a4f4e9fa91878c9116c64236057e5adb3788973",
    ("vanilla-codev", "cb_kmap_mux"): "6092f08e590ca26b5978922342b5181d7910edaf153770c16a483005891eed26",
    ("vanilla-codev", "fs_vending"): "d222c6629c5457c1116a80da21d42990fe56fd388f16151a0423032f0d104b28",
    ("vanilla-codev", "ar_addsub8"): "03db57bb86bf67675adbd0b651545cdbd362964d64bf15fecdf8994849e9a2fe",
    ("origen", "cb_kmap_mux"): "9c28b10b2aa5e564428f050c9f22d65c144e7baefb6cf4ca12daf1409109dced",
    ("origen", "fs_vending"): "5b258de851953193cf768fae1febbd3cb2e7d227b998afa94936503798b98b04",
    ("origen", "ar_addsub8"): "90c4cf66d9c5e9e028ff826f12a5137e09cc0c18c94704554825a301680c1b79",
    ("veriassist", "cb_kmap_mux"): "63db456c71ffa0c97e961b603025d032489520951fc16c98d11cd77280b82d73",
    ("veriassist", "fs_vending"): "317ccc291dad091360581b820b68e05c4de2d3f1bf733cef2958c0b7a428e2dd",
    ("veriassist", "ar_addsub8"): "18c5a0f5996552a71a00875ec7198c6ec1048122333fa7a9a8a3bbf340ceec1a",
    ("autovcoder", "cb_kmap_mux"): "bfb22dd79ac6b1eb7d141a3aa0f53bb19f9bc37a2ece2058ebaff3d6d91da964",
    ("autovcoder", "fs_vending"): "3580570cecea5678c715cdae29ebb4fbd39156f2f1056eff1125a2f9aadce8af",
    ("autovcoder", "ar_addsub8"): "74bb77eb5e0dc45bbbd73d6af8af95355be9451fdb05ae9ec8b31d66ca8bb09f",
    ("verilogcoder", "cb_kmap_mux"): "bf96914455b5dae35300694f5f6c752d7c66c03bc9f995cfe0223edd8076b7eb",
    ("verilogcoder", "fs_vending"): "acb1e17c3fb193a56ff9e070b1f6979d02eae4d94da4aa0495462b3117faeb28",
    ("verilogcoder", "ar_addsub8"): "8f6ca44d0a4c4e87519afd4aaac60f4b3c3b769a6f04224f6dfb719e1dc7a51c",
    ("aivril", "cb_kmap_mux"): "a7b5f16412618388bc527d4e418b52419a690f4dbb988d0ef6a0c6d71017acd0",
    ("aivril", "fs_vending"): "39847afa9e3465b6de071b7cbc800f6aaf6e1e6c2104ab3bb0a90dc34e04a2de",
    ("aivril", "ar_addsub8"): "c27898596b4c5f3bb32f6e2c537882ff063e098fb2442f97ccaf2a9ecb97b347",
    ("single-agent", "cb_kmap_mux"): "daddd4b5211e7b518635973440c0d9c2b0b8e7ef662aa791ae3aa0a525c78e00",
    ("single-agent", "fs_vending"): "ca09a5e4f7647ece156e8df2d175da25ac7ebdd589662d0b54f355e6de9bcfa5",
    ("single-agent", "ar_addsub8"): "223a948b7098184b674744c02a2ff2bf4e523b540882f747124326637b2d654e",
    ("mage", "cb_kmap_mux"): "557a9e1928e131d09a8829f2cf9243f1701cf8f2ca40b95fff71dfadb518bf4f",
    ("mage", "fs_vending"): "364345df0ce284681503ec7a03def8c6dbde2762ef0525929c982939f769fbd9",
    ("mage", "ar_addsub8"): "67396c5d974a87ad84e8f1a09dd0f5edfbd83d728452ba1a2b8722644086077a",
}


def stream_digest(key: str, problem_id: str) -> str:
    sink = ListSink()
    source = SYSTEMS[key].factory().solve(
        DesignTask.from_problem(get_problem(problem_id)), seed=SEED, sink=sink
    )
    blob = json.dumps(
        {"source": source, "events": canonical(sink.events)}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def test_every_registered_system_is_pinned():
    assert {key for key, _ in PINNED} == set(SYSTEMS)


@pytest.mark.parametrize("key,problem_id", sorted(PINNED))
def test_source_and_event_stream_match_pin(key, problem_id):
    assert stream_digest(key, problem_id) == PINNED[(key, problem_id)]
