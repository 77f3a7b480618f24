"""Tokenizer for the synthesizable Verilog subset.

Produces a flat list of :class:`Token` with precise source locations.
One compiled master regex recognises each token at its position (trivia,
identifiers and keywords, numbers, strings, system names, longest-match
operators); only rare shapes fall back to a few lines of python.
Based number literals (``8'hFF``, ``4'b10x0``) are converted to
:class:`~repro.hdl.values.LogicVec` here; unsized decimals follow the
Verilog convention of a 32-bit self-determined size.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from repro.hdl.errors import LexError, SourceLoc
from repro.hdl.values import LogicVec

KEYWORDS = frozenset(
    {
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "reg",
        "integer",
        "parameter",
        "localparam",
        "assign",
        "always",
        "initial",
        "begin",
        "end",
        "if",
        "else",
        "case",
        "casez",
        "casex",
        "endcase",
        "default",
        "for",
        "posedge",
        "negedge",
        "or",
        "signed",
        "function",
        "endfunction",
        "generate",
        "endgenerate",
        "genvar",
    }
)

# Longest-match first.
_OPERATORS = [
    "<<<",
    ">>>",
    "===",
    "!==",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "**",
    "~&",
    "~|",
    "~^",
    "^~",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "<",
    ">",
    "=",
    "?",
    ":",
    ",",
    ";",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ".",
    "@",
    "#",
]


class TokKind(Enum):
    """Lexical categories."""

    IDENT = auto()
    KEYWORD = auto()
    NUMBER = auto()
    OP = auto()
    STRING = auto()
    SYSNAME = auto()  # $display, $signed, ...
    EOF = auto()


class Token(NamedTuple):
    """One lexical token (a named tuple: the lexer builds one per token).

    ``value`` holds a :class:`LogicVec` for NUMBER tokens and None
    otherwise.
    """

    kind: TokKind
    text: str
    loc: SourceLoc
    value: LogicVec | None = None

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.loc})"


_BASE_BITS = {"b": 1, "o": 3, "h": 4}
_HEX_DIGITS = "0123456789abcdef"


def _parse_based_digits(
    digits: str, base: str, width: int, signed: bool, loc: SourceLoc
) -> LogicVec:
    """Parse the digit body of a based literal into a LogicVec."""
    digits = digits.replace("_", "")
    if not digits:
        raise LexError("empty number literal", loc)
    if base == "d":
        if any(c in "xXzZ?" for c in digits):
            if len(digits) != 1:
                raise LexError(f"bad decimal literal digits {digits!r}", loc)
            return LogicVec.all_x(width, signed)
        try:
            value = int(digits, 10)
        except ValueError:
            raise LexError(f"bad decimal literal digits {digits!r}", loc) from None
        return LogicVec.from_int(value, width, signed)
    bits_per = _BASE_BITS[base]
    val = 0
    xmask = 0
    for ch in digits.lower():
        val <<= bits_per
        xmask <<= bits_per
        if ch in "xz?":
            xmask |= (1 << bits_per) - 1
        else:
            d = _HEX_DIGITS.find(ch)
            if d < 0 or d >= (1 << bits_per):
                raise LexError(f"digit {ch!r} invalid for base '{base}'", loc)
            val |= d
    return LogicVec(width, val, xmask, signed)


# Whitespace, // and /* */ comments, and compiler directives (`timescale,
# `default_nettype, ...: skipped to end of line, the subset does not
# interpret them).
_TRIVIA = r"(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/|`[^\n]*)"
_TRIVIA_RE = re.compile(_TRIVIA + "*")
_IDENT_TAIL_RE = re.compile(r"[\w$]*")
_BASED_DIGITS_RE = re.compile(r"[\w?]*")

# Each match is the trivia before one token (group 1), then the token:
# one alternative per token shape, tried in order.  ``\w`` is exactly
# ``str.isalnum()`` plus ``_``, the classes the language uses.  The
# number alternatives are fast paths: a literal with trivia inside it
# (``8 'h FF``), an unsized decimal followed by anything that could
# start trivia or a quote, and any non-ASCII character fall through to
# ``other`` and are lexed by :func:`_lex_other`.  A block comment left in
# front of a token never ends: trivia takes every closed one.
_TOKEN_RE = re.compile(
    rf"({_TRIVIA}*)(?:"
    r"(?P<ident>[A-Za-z_][\w$]*)"
    r"|(?P<comment>/\*)"
    rf"|(?P<op>{'|'.join(map(re.escape, _OPERATORS))})"
    r"|(?P<based>(?P<size>[0-9][0-9_]*)?'(?P<signed>[sS]?)"
    r"(?P<base>[bBoOdDhH])(?P<digits>[\w?]+))"
    r"|(?P<decimal>[0-9][0-9_]*)(?![0-9_'\s/`]|[^\x00-\x7f])"
    r"|(?P<sysname>\$\w*)"
    r'|"(?P<string>(?:[^"\\\n]|\\[\s\S])*)"'
    r"|(?P<other>[\s\S])"
    r"|(?P<eof>\Z))"
)


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` into a token list that always ends with EOF."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos = 0
    line = 1
    line_start = 0  # offset of the current line's first character
    while True:
        m = match(source, pos)
        start = m.end(1)
        if start != pos:
            newlines = source.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, start) + 1
        loc = SourceLoc(line, start - line_start + 1)
        pos = m.end()
        group = m.lastgroup
        if group == "ident":
            text = m.group(group)
            kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
            append(Token(kind, text, loc))
        elif group == "op":
            append(Token(TokKind.OP, m.group(group), loc))
        elif group == "decimal":
            text = m.group(group)
            value = LogicVec.from_int(int(text.replace("_", "")), 32, signed=True)
            append(Token(TokKind.NUMBER, text, loc, value))
        elif group == "based":
            size_digits = m.group("size")
            width = int(size_digits.replace("_", "")) if size_digits else 32
            if width < 1:
                raise LexError("literal width must be >= 1", loc)
            value = _parse_based_digits(
                m.group("digits"),
                m.group("base").lower(),
                width,
                bool(m.group("signed")),
                loc,
            )
            append(Token(TokKind.NUMBER, m.group(group), loc, value))
        elif group == "sysname":
            append(Token(TokKind.SYSNAME, m.group(group), loc))
        elif group == "eof":
            append(Token(TokKind.EOF, "", loc))
            return tokens
        elif group == "comment":
            raise LexError("unterminated block comment", loc)
        else:
            if group == "string":
                token = Token(TokKind.STRING, m.group(group), loc)
            else:
                token, pos = _lex_other(source, start, loc)
            append(token)
            # The only tokens that can span lines: a string with an
            # escaped newline, a number with trivia inside it.
            newlines = source.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", start, pos) + 1


def _lex_other(source: str, start: int, loc: SourceLoc) -> tuple[Token, int]:
    """The token at ``start`` that no fast path took, and its end."""
    ch = source[start]
    following = source[start + 1] if start + 1 < len(source) else "\0"
    if ch.isalpha():  # a non-ASCII letter starts an identifier
        end = _IDENT_TAIL_RE.match(source, start + 1).end()
        text = source[start:end]
        kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
        return Token(kind, text, loc), end
    if ch.isdigit() or (ch == "'" and following.lower() in "sbodh"):
        return _lex_number(source, start, loc)
    if ch == '"':
        raise LexError("unterminated string literal", loc)
    raise LexError(f"unexpected character {ch!r}", loc)


def _lex_number(source: str, start: int, loc: SourceLoc) -> tuple[Token, int]:
    """The number at ``start`` in full generality, and its end.

    Size digits are ``str.isdigit()`` characters or ``_``; trivia may sit
    between the size and the quote and between the base and its digits,
    and is part of the token's text.
    """
    end = len(source)
    pos = start
    while pos < end and (source[pos].isdigit() or source[pos] == "_"):
        pos += 1
    size_digits = source[start:pos]
    after = _after_trivia(source, pos)
    if not source.startswith("'", after):
        # Unsized decimal: 32-bit signed per Verilog convention.  The
        # token ends before the trivia, which the caller skips again.
        text = size_digits.replace("_", "")
        if not text:
            raise LexError("malformed number", loc)
        value = LogicVec.from_int(int(text), 32, signed=True)
        return Token(TokKind.NUMBER, size_digits, loc, value), pos
    pos = after + 1
    ch = source[pos] if pos < end else "\0"
    signed = ch.lower() == "s"
    if signed:
        pos += 1
        ch = source[pos] if pos < end else "\0"
    base = ch.lower()
    if base not in "bodh":
        raise LexError(f"bad number base {ch!r}", loc)
    digit_start = _after_trivia(source, pos + 1)
    pos = _BASED_DIGITS_RE.match(source, digit_start).end()
    width = int(size_digits.replace("_", "")) if size_digits.strip("_") else 32
    if width < 1:
        raise LexError("literal width must be >= 1", loc)
    value = _parse_based_digits(source[digit_start:pos], base, width, signed, loc)
    return Token(TokKind.NUMBER, source[start:pos], loc, value), pos


def _after_trivia(source: str, pos: int) -> int:
    """The first position at or after ``pos`` that is not trivia."""
    pos = _TRIVIA_RE.match(source, pos).end()
    if source.startswith("/*", pos):
        line_start = source.rfind("\n", 0, pos) + 1
        loc = SourceLoc(source.count("\n", 0, pos) + 1, pos - line_start + 1)
        raise LexError("unterminated block comment", loc)
    return pos
