"""Reference lexer: the character-stepping tokenizer.

This is the tokenizer the package shipped before :mod:`repro.hdl.lexer`
became one compiled master regex.  It steps through the source one
character at a time, and is kept here only as the oracle the regex lexer
is checked against (``test_lexer_vs_reference.py``).  Nothing under
``src/`` imports it.

The code is the shipped class unchanged apart from its name
``ReferenceLexer``; the token types, keyword and operator tables and the
based-digit decoder are imported from the package, so only the scanning
itself is under test.  A behavioural change here is a change to the
oracle.
"""

from __future__ import annotations

from repro.hdl.errors import LexError, SourceLoc
from repro.hdl.lexer import (
    _OPERATORS,
    KEYWORDS,
    Token,
    TokKind,
    _parse_based_digits,
)
from repro.hdl.values import LogicVec


class ReferenceLexer:
    """Single-pass, character-stepping tokenizer (the oracle)."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def _loc(self) -> SourceLoc:
        return SourceLoc(self.line, self.col)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        # Returns "\0" past end-of-input so character-class membership
        # tests ("" in "_$" is vacuously True!) stay safe.
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else "\0"

    def tokenize(self) -> list[Token]:
        """Tokenize the whole source; always ends with an EOF token."""
        tokens: list[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                tokens.append(Token(TokKind.EOF, "", self._loc()))
                return tokens
            tokens.append(self._next_token())

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._loc()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.pos >= len(self.source):
                        raise LexError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            elif ch == "`":
                # Compiler directives (`timescale, `default_nettype ...):
                # skip to end of line; our subset does not interpret them.
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        loc = self._loc()
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._lex_ident(loc)
        if ch.isdigit() or (ch == "'" and self._peek(1).lower() in "sbodh"):
            return self._lex_number(loc)
        if ch == "$":
            return self._lex_sysname(loc)
        if ch == '"':
            return self._lex_string(loc)
        for op in _OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                return Token(TokKind.OP, op, loc)
        raise LexError(f"unexpected character {ch!r}", loc)

    def _lex_ident(self, loc: SourceLoc) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() in "_$":
            self._advance()
        text = self.source[start : self.pos]
        kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
        return Token(kind, text, loc)

    def _lex_sysname(self, loc: SourceLoc) -> Token:
        start = self.pos
        self._advance()  # $
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        return Token(TokKind.SYSNAME, self.source[start : self.pos], loc)

    def _lex_string(self, loc: SourceLoc) -> Token:
        self._advance()  # opening quote
        start = self.pos
        while self._peek() != '"':
            if self.pos >= len(self.source) or self._peek() == "\n":
                raise LexError("unterminated string literal", loc)
            if self._peek() == "\\":
                self._advance()
            self._advance()
        text = self.source[start : self.pos]
        self._advance()  # closing quote
        return Token(TokKind.STRING, text, loc)

    def _lex_number(self, loc: SourceLoc) -> Token:
        start = self.pos
        size_digits = ""
        while self._peek().isdigit() or self._peek() == "_":
            size_digits += self._peek()
            self._advance()
        self._skip_trivia()
        if self._peek() != "'":
            # Unsized decimal: 32-bit signed per Verilog convention.
            text = size_digits.replace("_", "")
            if not text:
                raise LexError("malformed number", loc)
            value = LogicVec.from_int(int(text), 32, signed=True)
            return Token(TokKind.NUMBER, size_digits, loc, value)
        self._advance()  # '
        signed = False
        if self._peek().lower() == "s":
            signed = True
            self._advance()
        base = self._peek().lower()
        if base not in "bodh":
            raise LexError(f"bad number base {self._peek()!r}", loc)
        self._advance()
        self._skip_trivia()
        digit_start = self.pos
        while self._peek().isalnum() or self._peek() in "_?":
            self._advance()
        digits = self.source[digit_start : self.pos]
        width = int(size_digits.replace("_", "")) if size_digits.strip("_") else 32
        if width < 1:
            raise LexError("literal width must be >= 1", loc)
        value = _parse_based_digits(digits, base, width, signed, loc)
        return Token(TokKind.NUMBER, self.source[start : self.pos], loc, value)


def reference_tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` with the reference lexer."""
    return ReferenceLexer(source).tokenize()
