"""Differential test: the regex lexer against the character stepper.

``repro.hdl.lexer.tokenize`` recognises tokens with one compiled master
regex; ``reference_lexer.reference_tokenize`` steps one character at a
time the way the package did before.  On every input both must yield the
same tokens (kind, text, location and number value), or raise the same
``LexError`` (message and location).  Any other exception (``int()`` of
a non-decimal Unicode digit) must match by type and message.

Inputs:

- every registered golden design and mutants of it
  (``sample_faults`` + ``apply_faults``);
- ``corrupt_syntax`` outputs of those sources under several seeds, whose
  lint reports must also render byte-identically with either lexer
  (they are what the syntax-fix prompts quote);
- modules built around ``test_parser_properties``'s generated
  expressions;
- hand-written malformed inputs, and generated text over an alphabet
  of token fragments, trivia, quotes and non-ASCII characters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_lexer import reference_tokenize
from test_parser_properties import expressions

import repro.hdl.compile as compile_module
import repro.hdl.parser as parser_module
from repro.evalsets import all_problems
from repro.hdl.errors import LexError
from repro.hdl.lexer import tokenize
from repro.hdl.lint import _lint_uncached
from repro.hdl.parser import parse_source
from repro.hdl.unparse import unparse_expr, unparse_module
from repro.llm.mutation import apply_faults, corrupt_syntax, sample_faults

PROBLEMS = all_problems()


def outcome(lex, source: str):
    """Tokens as comparable tuples, or the error ``lex`` raised."""
    try:
        tokens = lex(source)
    except LexError as exc:
        return ("LexError", exc.message, exc.loc)
    except Exception as exc:  # compared, type and message, with the other side
        return (type(exc).__name__, str(exc))
    return [(t.kind, t.text, t.loc, t.value) for t in tokens]


def assert_same(source: str) -> None:
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


def _mutants(problem, seeds=(0, 1, 2)) -> list[str]:
    module = parse_source(problem.golden).module(problem.top)
    sources = []
    for seed in seeds:
        rng = np.random.default_rng(problem.seed_for(seed))
        faults = sample_faults(module, 1 + seed, rng)
        sources.append(unparse_module(apply_faults(module, faults)))
    return sources


def _corrupted(problem) -> list[str]:
    sources = [problem.golden, *_mutants(problem)]
    return [
        corrupt_syntax(source, np.random.default_rng(seed))[0]
        for seed in (3, 17, 29)
        for source in sources
    ]


# ----------------------------------------------------------------------
# Goldens, mutants and their syntax-corrupted variants
# ----------------------------------------------------------------------


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.id)
def test_golden_and_mutants(problem):
    for source in [problem.golden, *_mutants(problem)]:
        assert_same(source)


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.id)
def test_corrupted_sources_and_their_lint(problem, monkeypatch):
    sources = _corrupted(problem)
    for source in sources:
        assert_same(source)
    # Compile uncached on both sides, so each lint really lexes.
    monkeypatch.setattr(compile_module, "_compile", compile_module._compile.__wrapped__)
    ours = [_lint_uncached(source, None, None).render() for source in sources]
    monkeypatch.setattr(parser_module, "tokenize", reference_tokenize)
    theirs = [_lint_uncached(source, None, None).render() for source in sources]
    assert ours == theirs


# ----------------------------------------------------------------------
# Generated modules and generated text
# ----------------------------------------------------------------------


@given(expressions())
@settings(max_examples=80, deadline=None)
def test_generated_modules(expr):
    source = (
        "module t (input [7:0] a, input [7:0] b, output wire [15:0] y);\n"
        f"    assign y = {unparse_expr(expr)};\nendmodule\n"
    )
    assert_same(source)


_FRAGMENTS = [
    "a", "Z", "_", "$", "$x", "0", "9", "1_0", "'", "'b", "'sh", "8'd", "4'b",
    "x", "z", "?", " ", "\t", "\r", "\n", "//", "/*", "*/", "/", "*", "`",
    '"', "\\", "<<<", "===", "!", "~^", "(", ";", "é", "²", "٣", "\x00",
    "module", "endmodule",
]  # fmt: skip


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join))
@settings(max_examples=400, deadline=None)
def test_generated_fragments(source):
    assert_same(source)


# ----------------------------------------------------------------------
# Hand-written malformed and edge inputs
# ----------------------------------------------------------------------

MALFORMED = [
    "",
    "a /* never ends",
    "a /* one */ b /* two\n */ c",
    "a /* never\n ends",
    "x = 8'hFF /*",
    '$display("never ends',
    '$display("line\nbreak")',
    '"escaped \\" quote" "escaped \\\nnewline" y',
    '"trailing backslash\\',
    "8'q1",
    "'",
    "a = ';",
    "'q",
    "$",
    "$ display",
    "4'b",
    "4'b;",
    "4'b ;",
    "'h",
    "8 'hFF",
    "8\t'hFF;",
    "8 // size\n 'h FF",
    "8/* a */'/* b */h/* c */FF",
    "8 '/* open",
    "8'h /* open",
    "4 'b\n  1010",
    "4'sb1010 'sd5 'SHff 8'shz?",
    "4'ss1",
    "'s",
    "0'b1",
    "12'd1x",
    "12'dx",
    "4'b102",
    "8'o9",
    "8'h_F_F_ 1_000 1__",
    "16'hXz?_0",
    "a = 3 / 2;",
    "a = 3 ;",
    "a=3`define X\n;",
    "é = 1;",
    "aé1 = 2;",
    "ключ",
    "x = ²;",
    "x = 1²;",
    "x = ٣;",
    "x = 4'b١٠;",
    "a ¬ b",
    "\x00",
    "a\r\nb\r\n",
    "`timescale 1ns/1ps\nmodule m; endmodule",
    "module",
    "8'h",
    "8",
    "a <<< b >>> c === d !== e ~& f ~| g ~^ h ^~ i",
    "a\\b",
]


@pytest.mark.parametrize("source", MALFORMED)
def test_malformed_and_edge_inputs(source):
    assert_same(source)


def test_locations_after_multiline_trivia_and_tokens():
    source = (
        "/* one\n two */ a\n"
        '  "x\\\ny" b // tail\n'
        "  4 /*\n*/ 'b\n 1 c\n"
        "\r d"
    )
    assert_same(source)
    locs = {t.text: (t.loc.line, t.loc.col) for t in tokenize(source)}
    assert locs["a"] == (2, 9)
    assert locs["b"] == (4, 4)
    assert locs["c"] == (7, 4)
    assert locs["d"] == (8, 3)
