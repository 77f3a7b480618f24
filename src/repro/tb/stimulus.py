"""Testbench representation and its textual exchange format.

A :class:`Testbench` is what MAGE's testbench agent produces: a stimulus
program plus per-step expected outputs, rendered in a line-oriented text
format an LLM can emit and a parser can load back.  Expected values may
contain ``x`` bits, which act as per-bit don't-cares (like ``casez``).

Text format (one directive per line, ``#`` comments)::

    TESTBENCH clocked clock=clk
    INPUTS rst_n en
    OUTPUTS q carry
    STEP rst_n=0 en=0 ; EXPECT q=0 carry=0
    STEP rst_n=1 en=1 ; EXPECT q=1
    STEP ; EXPECT q=2 carry=x

Inputs are sparse: a step only lists inputs that change; the rest hold.
For clocked testbenches each STEP is one full clock cycle (inputs are
applied while the clock is low, expectations are checked after the
rising edge).  For combinational testbenches each STEP applies inputs,
settles, and checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdl.values import LogicVec


class TestbenchFormatError(ValueError):
    """Raised when testbench text cannot be parsed."""

    __test__ = False  # a project type, not a pytest test class


@dataclass(frozen=True)
class TbStep:
    """One stimulus/check step.

    ``inputs`` maps input names to integer drive values; ``checks`` maps
    output names to expected :class:`LogicVec` patterns (x = don't care).
    An empty ``checks`` dict means the step drives but does not check.
    """

    inputs: dict[str, int] = field(default_factory=dict)
    checks: dict[str, LogicVec] = field(default_factory=dict)


@dataclass(frozen=True)
class Testbench:
    """A complete testbench program."""

    __test__ = False  # a project type, not a pytest test class

    kind: str  # "clocked" | "comb"
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    steps: tuple[TbStep, ...]
    clock: str | None = None
    name: str = "tb"

    def __post_init__(self) -> None:
        if self.kind not in ("clocked", "comb"):
            raise ValueError(f"bad testbench kind {self.kind!r}")
        if self.kind == "clocked" and not self.clock:
            raise ValueError("clocked testbench needs a clock input name")

    @property
    def total_checks(self) -> int:
        """Number of (step, output) comparisons this testbench performs."""
        return sum(len(step.checks) for step in self.steps)

    def with_steps(self, steps: tuple[TbStep, ...]) -> "Testbench":
        return Testbench(
            kind=self.kind,
            inputs=self.inputs,
            outputs=self.outputs,
            steps=steps,
            clock=self.clock,
            name=self.name,
        )


def _parse_value(text: str) -> int:
    if text.startswith(("0x", "0X")):
        return int(text, 16)
    if text.startswith(("0b", "0B")):
        return int(text, 2)
    return int(text, 10)


def _parse_expected(text: str) -> LogicVec | None:
    """Parse an EXPECT value: int literal or binary pattern with x bits.

    Returns None for a bare ``x`` (whole signal don't-care, equivalent to
    omitting the check, but kept so rendered testbenches stay explicit).
    """
    if text.lower() == "x":
        return None
    if any(c in "xX" for c in text):
        body = text[2:] if text.startswith(("0b", "0B")) else text
        return LogicVec.from_bits(body)
    value = _parse_value(text)
    width = max(value.bit_length(), 1)
    return LogicVec.from_int(value, width)


def parse_testbench(text: str, name: str = "tb") -> Testbench:
    """Parse the textual format back into a :class:`Testbench`."""
    kind: str | None = None
    clock: str | None = None
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    steps: list[TbStep] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        word, _, rest = line.partition(" ")
        word = word.upper()
        if word == "TESTBENCH":
            fields = rest.split()
            if not fields:
                raise TestbenchFormatError("TESTBENCH line needs a kind")
            kind = fields[0]
            for extra in fields[1:]:
                key, _, value = extra.partition("=")
                if key == "clock":
                    clock = value
        elif word == "INPUTS":
            inputs = tuple(rest.split())
        elif word == "OUTPUTS":
            outputs = tuple(rest.split())
        elif word == "STEP":
            drive_part, _, expect_part = rest.partition(";")
            step_inputs: dict[str, int] = {}
            for token in drive_part.split():
                key, eq, value = token.partition("=")
                if not eq:
                    raise TestbenchFormatError(f"bad drive token {token!r}")
                step_inputs[key] = _parse_value(value)
            checks: dict[str, LogicVec] = {}
            expect_part = expect_part.strip()
            if expect_part:
                head, _, body = expect_part.partition(" ")
                if head.upper() != "EXPECT":
                    raise TestbenchFormatError(
                        f"expected 'EXPECT', found {head!r}"
                    )
                for token in body.split():
                    key, eq, value = token.partition("=")
                    if not eq:
                        raise TestbenchFormatError(f"bad expect token {token!r}")
                    pattern = _parse_expected(value)
                    if pattern is not None:
                        checks[key] = pattern
            steps.append(TbStep(inputs=step_inputs, checks=checks))
        else:
            raise TestbenchFormatError(f"unknown directive {word!r}")
    if kind is None:
        raise TestbenchFormatError("missing TESTBENCH line")
    return Testbench(
        kind=kind,
        inputs=inputs,
        outputs=outputs,
        steps=tuple(steps),
        clock=clock,
        name=name,
    )


def render_testbench(tb: Testbench) -> str:
    """Render a testbench in the textual exchange format.

    The rendering is memoized on the (immutable) instance: the runtime's
    simulation cache renders the same testbench once per scored
    candidate to compute content keys.
    """
    memo = getattr(tb, "_rendered", None)
    if memo is not None:
        return memo
    header = f"TESTBENCH {tb.kind}"
    if tb.clock:
        header += f" clock={tb.clock}"
    lines = [header, "INPUTS " + " ".join(tb.inputs), "OUTPUTS " + " ".join(tb.outputs)]
    for step in tb.steps:
        drives = " ".join([f"{k}={v}" for k, v in step.inputs.items()])
        line = f"STEP {drives}".rstrip()
        if step.checks:
            # An expectation with x bits renders as a bit pattern, any
            # other as its unsigned value.
            expects = " ".join(
                [
                    f"{k}={v.to_bits() if v.xmask else v.val}"
                    for k, v in step.checks.items()
                ]
            )
            line += f" ; EXPECT {expects}"
        lines.append(line)
    text = "\n".join(lines) + "\n"
    object.__setattr__(tb, "_rendered", text)  # frozen-dataclass memo slot
    return text
