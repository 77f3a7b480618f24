"""The content-keyed compile cache behind ``compile_design``."""

import pickle

import pytest

import repro.hdl.compile as compile_mod
from repro.evalsets.problem import all_problems
from repro.hdl.compile import compile_design
from repro.hdl.errors import HdlError
from repro.hdl.simulator import Simulation

ADDER = (
    "// {tag}\n"
    "module add #(parameter W = 4, parameter K = 1)\n"
    "  (input [W-1:0] a, output [W-1:0] y);\n"
    "assign y = a + K;\nendmodule"
)


@pytest.fixture
def parses(monkeypatch):
    """Count the parses ``compile_design`` runs (through its module global)."""
    calls = []
    original = compile_mod.parse_source

    def counting(source):
        calls.append(source)
        return original(source)

    monkeypatch.setattr(compile_mod, "parse_source", counting)
    return calls


def test_same_key_returns_the_identical_design(parses):
    src = ADDER.format(tag="same-key")
    first = compile_design(src, "add", {"W": 8, "K": 3})
    again = compile_design(src, "add", {"K": 3, "W": 8})
    assert again is first
    assert len(parses) == 1


def test_no_overrides_and_empty_overrides_share_a_design():
    src = ADDER.format(tag="empty-overrides")
    assert compile_design(src, "add") is compile_design(src, "add", {})


def test_different_overrides_give_different_designs():
    src = ADDER.format(tag="overrides")
    narrow = compile_design(src, "add", {"W": 4})
    wide = compile_design(src, "add", {"W": 16})
    assert narrow is not wide
    assert narrow.signals["a"].width == 4
    assert wide.signals["a"].width == 16


def test_simulations_on_one_design_keep_separate_state():
    src = ADDER.format(tag="separate-state")
    design = compile_design(src, "add", {"W": 8})
    one, two = Simulation(design), Simulation(design)
    two.poke("a", 1)
    two.settle()
    one.poke("a", 41)
    one.settle()
    assert one.peek("y").to_uint() == 42
    assert two.peek("y").to_uint() == 2
    fresh = Simulation(design)
    assert fresh.peek("a").has_x


def test_a_design_is_lowered_once_on_its_first_simulation():
    """Compiling lowers nothing; the first simulation lowers the design
    and every later simulation of it reuses that lowered form."""
    design = compile_design(ADDER.format(tag="lowered-once"), "add")
    assert design._lowered is None
    Simulation(design)
    lowered = design._lowered
    assert lowered is not None
    Simulation(design)
    assert design._lowered is lowered


def test_a_lowered_design_pickles_without_its_closures():
    design = compile_design(ADDER.format(tag="pickled"), "add", {"W": 6})
    Simulation(design)
    copy = pickle.loads(pickle.dumps(design))
    assert copy == design
    assert copy._lowered is None
    sim = Simulation(copy)
    sim.step({"a": 5})
    assert sim.peek("y").to_uint() == 6


def test_failing_source_raises_on_every_call(parses):
    src = "// failing\nmodule m (input a, output y); assign y = ghost; endmodule"
    for _ in range(3):
        with pytest.raises(HdlError):
            compile_design(src)
    assert len(parses) == 3


def test_problem_design_is_the_cached_golden_compile():
    for problem in all_problems()[:5]:
        assert problem.design() is compile_design(problem.golden, problem.top)
