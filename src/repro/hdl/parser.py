"""Recursive-descent parser for the synthesizable Verilog subset.

Covers: modules with ANSI or classic port declarations, parameters and
localparams, wire/reg/integer declarations (including memories),
continuous assigns, always/initial blocks, if/case/casez/casex/for
statements, blocking and nonblocking assignments, full expression
precedence, simple functions, and module instantiation with parameter
overrides.

Anything outside the subset raises :class:`~repro.hdl.errors.ParseError`
with a source location, which is exactly what the agents' syntax-fix
loop consumes.
"""

from __future__ import annotations

from repro.hdl import ast_nodes as ast
from repro.hdl.errors import ParseError
from repro.hdl.lexer import Token, TokKind, tokenize

# Binary operator precedence: higher binds tighter.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "~^": 4,
    "^~": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "===": 6,
    "!==": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "<<<": 8,
    ">>>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
    "**": 11,
}

_UNARY_OPS = frozenset({"~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^", "^~"})

# Kinds whose text ``_check``/``_accept``/``_expect`` match: operators and
# keywords, never an identifier or string that happens to spell one.
_MARK_KINDS = (TokKind.OP, TokKind.KEYWORD)


class Parser:
    """Token-stream parser producing :class:`repro.hdl.ast_nodes` trees."""

    def __init__(self, tokens: list[Token]):
        # The cursor never moves past the final EOF token, so it always
        # indexes the list directly; only lookahead needs clamping.
        if not tokens or tokens[-1].kind is not TokKind.EOF:
            raise ValueError("the token list must end with an EOF token")
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def _check(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind in _MARK_KINDS

    def _accept(self, text: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.text == text and tok.kind in _MARK_KINDS:
            self.pos += 1
            return tok
        return None

    def _expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text == text and tok.kind in _MARK_KINDS:
            self.pos += 1
            return tok
        raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.loc)

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokKind.IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.loc)
        return self._next()

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_source(self) -> ast.SourceFile:
        modules = []
        while self._peek().kind is not TokKind.EOF:
            modules.append(self.parse_module())
        if not modules:
            raise ParseError("no module found in source", self._peek().loc)
        return ast.SourceFile(modules=tuple(modules))

    def parse_module(self) -> ast.Module:
        start = self._expect("module")
        name = self._expect_ident().text
        items: list[ast.ModuleItem] = []
        ports: list[str] = []
        if self._accept("#"):
            items.extend(self._parse_header_params())
        if self._accept("("):
            ports, port_items = self._parse_port_list()
            items.extend(port_items)
        self._expect(";")
        while not self._check("endmodule"):
            if self._peek().kind is TokKind.EOF:
                raise ParseError("unexpected end of file in module body", start.loc)
            items.extend(self._parse_module_item())
        self._expect("endmodule")
        return ast.Module(name=name, ports=tuple(ports), items=tuple(items), loc=start.loc)

    def _parse_header_params(self) -> list[ast.ParamDecl]:
        """``#(parameter N = 4, parameter [3:0] M = 2)``"""
        self._expect("(")
        params: list[ast.ParamDecl] = []
        while True:
            loc = self._peek().loc
            self._accept("parameter")
            signed = bool(self._accept("signed"))
            rng = self._parse_opt_range()
            pname = self._expect_ident().text
            self._expect("=")
            value = self.parse_expr()
            params.append(
                ast.ParamDecl(
                    local=False, name=pname, value=value, range=rng, signed=signed, loc=loc
                )
            )
            if not self._accept(","):
                break
        self._expect(")")
        return params

    def _parse_port_list(self) -> tuple[list[str], list[ast.ModuleItem]]:
        """Parse the header port list (ANSI declarations or bare names)."""
        ports: list[str] = []
        items: list[ast.ModuleItem] = []
        if self._accept(")"):
            return ports, items
        direction = None
        net_kind = "wire"
        signed = False
        rng: ast.Range | None = None
        while True:
            tok = self._peek()
            if tok.text in ("input", "output", "inout"):
                direction = self._next().text
                net_kind = "wire"
                signed = False
                if self._check("reg") or self._check("wire"):
                    net_kind = self._next().text
                signed = bool(self._accept("signed"))
                rng = self._parse_opt_range()
                name_tok = self._expect_ident()
                ports.append(name_tok.text)
                items.append(
                    ast.PortDecl(
                        direction=direction,
                        net_kind=net_kind,
                        signed=signed,
                        range=rng,
                        names=(name_tok.text,),
                        loc=tok.loc,
                    )
                )
            elif tok.kind is TokKind.IDENT:
                name_tok = self._next()
                ports.append(name_tok.text)
                if direction is not None:
                    # Continuation of the previous ANSI declaration:
                    # ``input [3:0] a, b``.
                    items.append(
                        ast.PortDecl(
                            direction=direction,
                            net_kind=net_kind,
                            signed=signed,
                            range=rng,
                            names=(name_tok.text,),
                            loc=name_tok.loc,
                        )
                    )
            else:
                raise ParseError(
                    f"expected port declaration, found {tok.text!r}", tok.loc
                )
            if not self._accept(","):
                break
        self._expect(")")
        return ports, items

    # ------------------------------------------------------------------
    # Module items
    # ------------------------------------------------------------------

    def _parse_module_item(self) -> list[ast.ModuleItem]:
        tok = self._peek()
        if tok.text in ("input", "output", "inout"):
            return [self._parse_body_port_decl()]
        if tok.text in ("wire", "reg", "integer", "genvar"):
            return [self._parse_net_decl()]
        if tok.text in ("parameter", "localparam"):
            return self._parse_param_decls()
        if tok.text == "assign":
            return [self._parse_continuous_assign()]
        if tok.text == "always":
            return [self._parse_always()]
        if tok.text == "initial":
            return [self._parse_initial()]
        if tok.text == "function":
            return [self._parse_function()]
        if tok.kind is TokKind.IDENT:
            return [self._parse_instance()]
        raise ParseError(f"unexpected token {tok.text!r} in module body", tok.loc)

    def _parse_opt_range(self) -> ast.Range | None:
        if not self._check("["):
            return None
        loc = self._next().loc  # [
        msb = self.parse_expr()
        self._expect(":")
        lsb = self.parse_expr()
        self._expect("]")
        return ast.Range(msb=msb, lsb=lsb, loc=loc)

    def _parse_body_port_decl(self) -> ast.PortDecl:
        tok = self._next()
        direction = tok.text
        net_kind = "wire"
        if self._check("reg") or self._check("wire"):
            net_kind = self._next().text
        signed = bool(self._accept("signed"))
        rng = self._parse_opt_range()
        names = [self._expect_ident().text]
        while self._accept(","):
            names.append(self._expect_ident().text)
        self._expect(";")
        return ast.PortDecl(
            direction=direction,
            net_kind=net_kind,
            signed=signed,
            range=rng,
            names=tuple(names),
            loc=tok.loc,
        )

    def _parse_net_decl(self) -> ast.NetDecl:
        tok = self._next()
        kind = tok.text
        signed = bool(self._accept("signed"))
        if kind == "integer":
            signed = True
        rng = self._parse_opt_range() if kind in ("wire", "reg") else None
        first = self._expect_ident().text
        array_range = self._parse_opt_range()
        init: ast.Expr | None = None
        names = [first]
        if array_range is None:
            if self._accept("="):
                if kind != "wire":
                    raise ParseError(
                        "declaration initialisers are only supported on wires",
                        tok.loc,
                    )
                init = self.parse_expr()
            else:
                while self._accept(","):
                    names.append(self._expect_ident().text)
        self._expect(";")
        return ast.NetDecl(
            net_kind=kind,
            signed=signed,
            range=rng,
            names=tuple(names),
            array_range=array_range,
            init=init,
            loc=tok.loc,
        )

    def _parse_param_decls(self) -> list[ast.ParamDecl]:
        tok = self._next()
        local = tok.text == "localparam"
        signed = bool(self._accept("signed"))
        rng = self._parse_opt_range()
        decls = []
        while True:
            name = self._expect_ident().text
            self._expect("=")
            value = self.parse_expr()
            decls.append(
                ast.ParamDecl(
                    local=local, name=name, value=value, range=rng, signed=signed, loc=tok.loc
                )
            )
            if not self._accept(","):
                break
        self._expect(";")
        return decls

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        tok = self._expect("assign")
        target = self._parse_lvalue()
        self._expect("=")
        value = self.parse_expr()
        self._expect(";")
        return ast.ContinuousAssign(target=target, value=value, loc=tok.loc)

    def _parse_always(self) -> ast.AlwaysBlock:
        tok = self._expect("always")
        self._expect("@")
        sensitivity = self._parse_sensitivity()
        body = self.parse_statement()
        return ast.AlwaysBlock(sensitivity=sensitivity, body=body, loc=tok.loc)

    def _parse_sensitivity(self) -> ast.Sensitivity:
        loc = self._peek().loc
        if self._accept("*"):
            return ast.Sensitivity(star=True, loc=loc)
        self._expect("(")
        if self._accept("*"):
            self._expect(")")
            return ast.Sensitivity(star=True, loc=loc)
        events = []
        while True:
            ev_loc = self._peek().loc
            edge = "level"
            if self._accept("posedge"):
                edge = "pos"
            elif self._accept("negedge"):
                edge = "neg"
            signal = self.parse_expr()
            events.append(ast.EdgeEvent(edge=edge, signal=signal, loc=ev_loc))
            if not (self._accept("or") or self._accept(",")):
                break
        self._expect(")")
        return ast.Sensitivity(star=False, events=tuple(events), loc=loc)

    def _parse_initial(self) -> ast.InitialBlock:
        tok = self._expect("initial")
        body = self.parse_statement()
        return ast.InitialBlock(body=body, loc=tok.loc)

    def _parse_function(self) -> ast.FunctionDecl:
        tok = self._expect("function")
        signed = bool(self._accept("signed"))
        rng = self._parse_opt_range()
        name = self._expect_ident().text
        inputs: list[tuple[str, ast.Range | None, bool]] = []
        if self._accept("("):
            while not self._check(")"):
                self._expect("input")
                in_signed = bool(self._accept("signed"))
                in_rng = self._parse_opt_range()
                inputs.append((self._expect_ident().text, in_rng, in_signed))
                if not self._accept(","):
                    break
            self._expect(")")
        self._expect(";")
        locals_: list[ast.NetDecl] = []
        while True:
            if self._check("input"):
                self._next()
                in_signed = bool(self._accept("signed"))
                in_rng = self._parse_opt_range()
                inputs.append((self._expect_ident().text, in_rng, in_signed))
                while self._accept(","):
                    inputs.append((self._expect_ident().text, in_rng, in_signed))
                self._expect(";")
            elif self._check("reg") or self._check("integer"):
                locals_.append(self._parse_net_decl())
            else:
                break
        stmts = []
        while not self._check("endfunction"):
            if self._peek().kind is TokKind.EOF:
                raise ParseError("unexpected end of file in function", tok.loc)
            stmts.append(self.parse_statement())
        self._expect("endfunction")
        body = stmts[0] if len(stmts) == 1 else ast.Block(stmts=tuple(stmts), loc=tok.loc)
        return ast.FunctionDecl(
            name=name,
            range=rng,
            signed=signed,
            inputs=tuple(inputs),
            locals=tuple(locals_),
            body=body,
            loc=tok.loc,
        )

    def _parse_instance(self) -> ast.Instance:
        mod_tok = self._expect_ident()
        params: list[tuple[str | None, ast.Expr]] = []
        if self._accept("#"):
            self._expect("(")
            while not self._check(")"):
                if self._accept("."):
                    pname = self._expect_ident().text
                    self._expect("(")
                    params.append((pname, self.parse_expr()))
                    self._expect(")")
                else:
                    params.append((None, self.parse_expr()))
                if not self._accept(","):
                    break
            self._expect(")")
        inst_tok = self._expect_ident()
        self._expect("(")
        ports: list[ast.PortConnection] = []
        if not self._check(")"):
            while True:
                loc = self._peek().loc
                if self._accept("."):
                    pname = self._expect_ident().text
                    self._expect("(")
                    expr = None if self._check(")") else self.parse_expr()
                    self._expect(")")
                    ports.append(ast.PortConnection(name=pname, expr=expr, loc=loc))
                else:
                    expr = None if self._check(",") else self.parse_expr()
                    ports.append(ast.PortConnection(name=None, expr=expr, loc=loc))
                if not self._accept(","):
                    break
        self._expect(")")
        self._expect(";")
        return ast.Instance(
            module_name=mod_tok.text,
            inst_name=inst_tok.text,
            params=tuple(params),
            ports=tuple(ports),
            loc=mod_tok.loc,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        if tok.text == "begin":
            return self._parse_block()
        if tok.text == "if":
            return self._parse_if()
        if tok.text in ("case", "casez", "casex"):
            return self._parse_case()
        if tok.text == "for":
            return self._parse_for()
        if tok.kind is TokKind.SYSNAME:
            return self._parse_syscall()
        if self._accept(";"):
            return ast.NullStmt(loc=tok.loc)
        return self._parse_assignment()

    def _parse_block(self) -> ast.Block:
        tok = self._expect("begin")
        name = None
        if self._accept(":"):
            name = self._expect_ident().text
        stmts = []
        while not self._check("end"):
            if self._peek().kind is TokKind.EOF:
                raise ParseError("unexpected end of file in begin/end block", tok.loc)
            stmts.append(self.parse_statement())
        self._expect("end")
        return ast.Block(stmts=tuple(stmts), name=name, loc=tok.loc)

    def _parse_if(self) -> ast.If:
        tok = self._expect("if")
        self._expect("(")
        cond = self.parse_expr()
        self._expect(")")
        then_stmt = self.parse_statement()
        else_stmt = None
        if self._accept("else"):
            else_stmt = self.parse_statement()
        return ast.If(cond=cond, then_stmt=then_stmt, else_stmt=else_stmt, loc=tok.loc)

    def _parse_case(self) -> ast.Case:
        tok = self._next()
        kind = tok.text
        self._expect("(")
        subject = self.parse_expr()
        self._expect(")")
        items = []
        while not self._check("endcase"):
            if self._peek().kind is TokKind.EOF:
                raise ParseError("unexpected end of file in case statement", tok.loc)
            item_loc = self._peek().loc
            if self._accept("default"):
                self._accept(":")
                body = self.parse_statement()
                items.append(ast.CaseItem(exprs=(), body=body, loc=item_loc))
            else:
                exprs = [self.parse_expr()]
                while self._accept(","):
                    exprs.append(self.parse_expr())
                self._expect(":")
                body = self.parse_statement()
                items.append(ast.CaseItem(exprs=tuple(exprs), body=body, loc=item_loc))
        self._expect("endcase")
        return ast.Case(kind=kind, subject=subject, items=tuple(items), loc=tok.loc)

    def _parse_for(self) -> ast.For:
        tok = self._expect("for")
        self._expect("(")
        init = self._parse_plain_assign()
        self._expect(";")
        cond = self.parse_expr()
        self._expect(";")
        step = self._parse_plain_assign()
        self._expect(")")
        body = self.parse_statement()
        return ast.For(init=init, cond=cond, step=step, body=body, loc=tok.loc)

    def _parse_plain_assign(self) -> ast.BlockingAssign:
        loc = self._peek().loc
        target = self._parse_lvalue()
        self._expect("=")
        value = self.parse_expr()
        return ast.BlockingAssign(target=target, value=value, loc=loc)

    def _parse_syscall(self) -> ast.SysCall:
        tok = self._next()
        args: list[ast.Expr] = []
        if self._accept("("):
            while not self._check(")"):
                if self._peek().kind is TokKind.STRING:
                    s = self._next()
                    args.append(ast.Number(value=_string_vec(s.text), text=f'"{s.text}"', loc=s.loc))
                else:
                    args.append(self.parse_expr())
                if not self._accept(","):
                    break
            self._expect(")")
        self._expect(";")
        return ast.SysCall(name=tok.text, args=tuple(args), loc=tok.loc)

    def _parse_assignment(self) -> ast.Stmt:
        loc = self._peek().loc
        target = self._parse_lvalue()
        if self._accept("<="):
            value = self.parse_expr()
            self._expect(";")
            return ast.NonblockingAssign(target=target, value=value, loc=loc)
        if self._accept("="):
            value = self.parse_expr()
            self._expect(";")
            return ast.BlockingAssign(target=target, value=value, loc=loc)
        tok = self._peek()
        raise ParseError(f"expected '=' or '<=', found {tok.text!r}", tok.loc)

    def _parse_lvalue(self) -> ast.Expr:
        tok = self._peek()
        if tok.text == "{":
            self._next()
            parts = [self._parse_lvalue()]
            while self._accept(","):
                parts.append(self._parse_lvalue())
            self._expect("}")
            return ast.Concat(parts=tuple(parts), loc=tok.loc)
        if tok.kind is not TokKind.IDENT:
            raise ParseError(f"bad assignment target {tok.text!r}", tok.loc)
        expr: ast.Expr = ast.Ident(name=self._next().text, loc=tok.loc)
        return self._parse_selects(expr)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._accept("?"):
            then = self._parse_ternary()
            self._expect(":")
            els = self._parse_ternary()
            return ast.Ternary(cond=cond, then=then, els=els, loc=cond.loc)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            tok = self._peek()
            prec = _BINARY_PRECEDENCE.get(tok.text) if tok.kind is TokKind.OP else None
            if prec is None or prec < min_prec:
                return left
            if tok.text in ("+", "-") and self._peek(1).text == ":":
                # ``[start +: width]`` indexed part select, not arithmetic.
                return left
            self._next()
            # ** is right-associative; everything else is left-associative.
            next_min = prec if tok.text == "**" else prec + 1
            right = self._parse_binary(next_min)
            left = ast.Binary(op=tok.text, left=left, right=right, loc=tok.loc)

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokKind.OP and tok.text in _UNARY_OPS:
            self._next()
            operand = self._parse_unary()
            return ast.Unary(op=tok.text, operand=operand, loc=tok.loc)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokKind.NUMBER:
            self._next()
            assert tok.value is not None
            return ast.Number(value=tok.value, text=tok.text, loc=tok.loc)
        if tok.kind is TokKind.SYSNAME:
            self._next()
            self._expect("(")
            args = [self.parse_expr()]
            while self._accept(","):
                args.append(self.parse_expr())
            self._expect(")")
            return ast.FuncCall(name=tok.text, args=tuple(args), loc=tok.loc)
        if tok.kind is TokKind.IDENT:
            self._next()
            if self._check("("):
                self._next()
                args = []
                if not self._check(")"):
                    args.append(self.parse_expr())
                    while self._accept(","):
                        args.append(self.parse_expr())
                self._expect(")")
                return ast.FuncCall(name=tok.text, args=tuple(args), loc=tok.loc)
            expr: ast.Expr = ast.Ident(name=tok.text, loc=tok.loc)
            return self._parse_selects(expr)
        if tok.text == "(":
            self._next()
            expr = self.parse_expr()
            self._expect(")")
            return self._parse_selects(expr)
        if tok.text == "{":
            return self._parse_concat()
        raise ParseError(f"unexpected token {tok.text!r} in expression", tok.loc)

    def _parse_concat(self) -> ast.Expr:
        tok = self._expect("{")
        first = self.parse_expr()
        if self._check("{"):
            # Replication: {count{expr}} -- the inner braces hold a concat.
            self._next()
            parts = [self.parse_expr()]
            while self._accept(","):
                parts.append(self.parse_expr())
            self._expect("}")
            self._expect("}")
            inner: ast.Expr
            if len(parts) == 1:
                inner = parts[0]
            else:
                inner = ast.Concat(parts=tuple(parts), loc=tok.loc)
            return ast.Replicate(count=first, inner=inner, loc=tok.loc)
        parts = [first]
        while self._accept(","):
            parts.append(self.parse_expr())
        self._expect("}")
        return ast.Concat(parts=tuple(parts), loc=tok.loc)

    def _parse_selects(self, base: ast.Expr) -> ast.Expr:
        """Attach trailing ``[...]`` selects to an identifier/paren expr."""
        while self._check("["):
            loc = self._next().loc
            first = self.parse_expr()
            if self._accept(":"):
                lsb = self.parse_expr()
                self._expect("]")
                base = ast.PartSelect(base=base, msb=first, lsb=lsb, loc=loc)
            elif self._accept("+"):
                self._expect(":")
                width = self.parse_expr()
                self._expect("]")
                base = ast.IndexedPartSelect(
                    base=base, start=first, width=width, down=False, loc=loc
                )
            elif self._accept("-"):
                self._expect(":")
                width = self.parse_expr()
                self._expect("]")
                base = ast.IndexedPartSelect(
                    base=base, start=first, width=width, down=True, loc=loc
                )
            else:
                self._expect("]")
                base = ast.BitSelect(base=base, index=first, loc=loc)
        return base


def _string_vec(text: str):
    """Encode a string literal as a LogicVec (8 bits per character)."""
    from repro.hdl.values import LogicVec

    if not text:
        return LogicVec(8, 0)
    value = 0
    for ch in text:
        value = (value << 8) | (ord(ch) & 0xFF)
    return LogicVec(8 * len(text), value)


def parse_source(source: str) -> ast.SourceFile:
    """Parse Verilog source text into a :class:`SourceFile`."""
    return Parser(tokenize(source)).parse_source()


def parse_expr_text(source: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and tools)."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expr()
    trailing = parser._peek()
    if trailing.kind is not TokKind.EOF:
        raise ParseError(
            f"unexpected trailing token {trailing.text!r}", trailing.loc
        )
    return expr


def parse_module(source: str, name: str | None = None) -> ast.Module:
    """Parse source and return one module (the last one by default)."""
    return parse_source(source).module(name)
