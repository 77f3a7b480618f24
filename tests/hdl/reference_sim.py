"""Reference simulator: the tree-walking interpreter and its kernel.

This is the simulator the package shipped before elaborated designs were
lowered to closures (:mod:`repro.hdl.lower`).  It walks the AST on every
evaluation, re-deriving each expression's width as it goes, and is kept
here only as the oracle the lowered simulator is checked against
(``test_lowered_vs_reference.py``).  Nothing under ``src/`` imports it.

The code is the shipped kernel unchanged apart from the class name
``ReferenceSimulation``; a behavioural change here is a change to the
oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Protocol

from repro.hdl import ast_nodes as ast
from repro.hdl.design import Design
from repro.hdl.errors import SimulationError
from repro.hdl.ops import apply_binary, apply_unary, clog2
from repro.hdl.values import LogicVec

_MAX_LOOP_ITERATIONS = 65536
_MAX_CALL_DEPTH = 64

_ARITH_OPS = frozenset({"+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~"})
_COMPARE_OPS = frozenset({"==", "!=", "===", "!==", "<", "<=", ">", ">=", "&&", "||"})
_SHIFT_OPS = frozenset({"<<", ">>", "<<<", ">>>", "**"})
_REDUCE_OPS = frozenset({"&", "|", "^", "~&", "~|", "~^", "^~"})


class StateAccess(Protocol):
    """Storage interface the interpreter runs against."""

    design: Design

    def get_signal(self, name: str) -> LogicVec: ...

    def set_signal(self, name: str, value: LogicVec) -> None: ...

    def get_mem_word(self, name: str, index: int) -> LogicVec: ...

    def set_mem_word(self, name: str, index: int, value: LogicVec) -> None: ...

    def schedule_nba(self, piece: "WritePiece", value: LogicVec) -> None: ...

    def sys_call(self, name: str, args: list[LogicVec]) -> None: ...


@dataclass(frozen=True)
class WritePiece:
    """A resolved destination: a bit range of a signal or memory word.

    ``word`` is None for plain signals.  ``msb``/``lsb`` are hardware bit
    positions after offset adjustment (0-based), inclusive.
    """

    name: str
    msb: int
    lsb: int
    word: int | None = None
    skip: bool = False  # x-valued index: write vanishes


class _Frame:
    """A function-call activation record."""

    def __init__(self) -> None:
        self.values: dict[str, LogicVec] = {}
        self.widths: dict[str, tuple[int, bool]] = {}

    def declare(self, name: str, width: int, signed: bool) -> None:
        self.widths[name] = (width, signed)
        self.values[name] = LogicVec.all_x(width, signed)

    def __contains__(self, name: str) -> bool:
        return name in self.values


class Interpreter:
    """Executes process bodies against a :class:`StateAccess`."""

    def __init__(self, state: StateAccess):
        self.state = state
        self.design = state.design
        self._call_depth = 0

    # ------------------------------------------------------------------
    # Width analysis (self-determined widths)
    # ------------------------------------------------------------------

    def width_of(self, expr: ast.Expr, frame: _Frame | None = None) -> int:
        if isinstance(expr, ast.Number):
            return expr.value.width
        if isinstance(expr, ast.Ident):
            if frame is not None and expr.name in frame:
                return frame.widths[expr.name][0]
            sig = self.design.signals.get(expr.name)
            if sig is not None:
                return sig.width
            mem = self.design.memories.get(expr.name)
            if mem is not None:
                raise SimulationError(
                    f"memory {expr.name!r} used without an index", expr.loc
                )
            raise SimulationError(f"unknown identifier {expr.name!r}", expr.loc)
        if isinstance(expr, ast.BitSelect):
            base = expr.base
            if isinstance(base, ast.Ident) and base.name in self.design.memories:
                return self.design.memories[base.name].width
            return 1
        if isinstance(expr, ast.PartSelect):
            msb = self._static_int(expr.msb, frame)
            lsb = self._static_int(expr.lsb, frame)
            return abs(msb - lsb) + 1
        if isinstance(expr, ast.IndexedPartSelect):
            return self._static_int(expr.width, frame)
        if isinstance(expr, ast.Unary):
            if expr.op in ("~", "-", "+"):
                return self.width_of(expr.operand, frame)
            return 1
        if isinstance(expr, ast.Binary):
            if expr.op in _COMPARE_OPS:
                return 1
            if expr.op in _SHIFT_OPS:
                return self.width_of(expr.left, frame)
            return max(self.width_of(expr.left, frame), self.width_of(expr.right, frame))
        if isinstance(expr, ast.Ternary):
            return max(self.width_of(expr.then, frame), self.width_of(expr.els, frame))
        if isinstance(expr, ast.Concat):
            return sum(self.width_of(p, frame) for p in expr.parts)
        if isinstance(expr, ast.Replicate):
            count = self._static_int(expr.count, frame)
            return count * self.width_of(expr.inner, frame)
        if isinstance(expr, ast.FuncCall):
            if expr.name in ("$signed", "$unsigned"):
                return self.width_of(expr.args[0], frame)
            if expr.name == "$clog2":
                return 32
            decl = self.design.functions.get(expr.name)
            if decl is None:
                raise SimulationError(f"unknown function {expr.name!r}", expr.loc)
            return _range_width(decl.range)
        raise SimulationError(f"cannot size expression {type(expr).__name__}", expr.loc)

    def _static_int(self, expr: ast.Expr, frame: _Frame | None) -> int:
        value = self.eval(expr, frame)
        if value.has_x:
            raise SimulationError("select bound evaluated to x", expr.loc)
        return value.to_int() if value.signed else value.to_uint()

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    def eval(
        self,
        expr: ast.Expr,
        frame: _Frame | None = None,
        ctx_width: int | None = None,
    ) -> LogicVec:
        """Evaluate; ``ctx_width`` is the context-determined width."""
        value = self._eval_inner(expr, frame, ctx_width)
        if ctx_width is not None and value.width < ctx_width:
            value = value.resize(ctx_width)
        return value

    def _eval_inner(
        self, expr: ast.Expr, frame: _Frame | None, ctx_width: int | None
    ) -> LogicVec:
        if isinstance(expr, ast.Number):
            return expr.value
        if isinstance(expr, ast.Ident):
            return self._read_ident(expr, frame)
        if isinstance(expr, ast.BitSelect):
            return self._eval_bit_select(expr, frame)
        if isinstance(expr, ast.PartSelect):
            return self._eval_part_select(expr, frame)
        if isinstance(expr, ast.IndexedPartSelect):
            return self._eval_indexed_select(expr, frame)
        if isinstance(expr, ast.Unary):
            if expr.op in ("~", "-", "+"):
                return apply_unary(expr.op, self.eval(expr.operand, frame, ctx_width))
            return apply_unary(expr.op, self.eval(expr.operand, frame))
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, frame, ctx_width)
        if isinstance(expr, ast.Ternary):
            cond = self.eval(expr.cond, frame)
            width = max(
                self.width_of(expr.then, frame),
                self.width_of(expr.els, frame),
                ctx_width or 0,
            )
            if cond.has_x and not cond.is_true():
                # Verilog merges both branches bitwise when the condition
                # is wholly unknown; agreeing bits survive.
                then = self.eval(expr.then, frame, width)
                els = self.eval(expr.els, frame, width)
                agree = ~(then.val ^ els.val) & ~(then.xmask | els.xmask)
                mask = (1 << width) - 1
                return LogicVec(width, then.val & agree, mask & ~agree)
            taken = expr.then if cond.is_true() else expr.els
            return self.eval(taken, frame, width)
        if isinstance(expr, ast.Concat):
            return LogicVec.concat([self.eval(p, frame) for p in expr.parts])
        if isinstance(expr, ast.Replicate):
            count = self._static_int(expr.count, frame)
            if count < 1:
                raise SimulationError("replication count must be >= 1", expr.loc)
            return self.eval(expr.inner, frame).replicate(count)
        if isinstance(expr, ast.FuncCall):
            return self._eval_call(expr, frame, ctx_width)
        raise SimulationError(f"cannot evaluate {type(expr).__name__}", expr.loc)

    def _read_ident(self, expr: ast.Ident, frame: _Frame | None) -> LogicVec:
        if frame is not None and expr.name in frame:
            return frame.values[expr.name]
        if expr.name in self.design.signals:
            return self.state.get_signal(expr.name)
        if expr.name in self.design.memories:
            raise SimulationError(
                f"memory {expr.name!r} used without an index", expr.loc
            )
        raise SimulationError(f"unknown identifier {expr.name!r}", expr.loc)

    def _eval_binary(
        self, expr: ast.Binary, frame: _Frame | None, ctx_width: int | None
    ) -> LogicVec:
        op = expr.op
        if op in _COMPARE_OPS:
            width = max(self.width_of(expr.left, frame), self.width_of(expr.right, frame))
            left = self.eval(expr.left, frame, width)
            right = self.eval(expr.right, frame, width)
            return apply_binary(op, left, right)
        if op in _SHIFT_OPS:
            left_width = max(self.width_of(expr.left, frame), ctx_width or 0)
            left = self.eval(expr.left, frame, left_width)
            right = self.eval(expr.right, frame)
            return apply_binary(op, left, right)
        # Context-determined arithmetic / bitwise.
        width = max(
            self.width_of(expr.left, frame),
            self.width_of(expr.right, frame),
            ctx_width or 0,
        )
        left = self.eval(expr.left, frame, width)
        right = self.eval(expr.right, frame, width)
        return apply_binary(op, left, right)

    def _eval_bit_select(self, expr: ast.BitSelect, frame: _Frame | None) -> LogicVec:
        base = expr.base
        if isinstance(base, ast.Ident) and base.name in self.design.memories:
            mem = self.design.memories[base.name]
            index = self.eval(expr.index, frame)
            if index.has_x:
                return LogicVec.all_x(mem.width, mem.signed)
            word = index.to_int() if index.signed else index.to_uint()
            return self.state.get_mem_word(base.name, word)
        index = self.eval(expr.index, frame)
        if index.has_x:
            return LogicVec.all_x(1)
        idx = index.to_int() if index.signed else index.to_uint()
        if isinstance(base, ast.Ident):
            sig = self.design.signals.get(base.name)
            if sig is not None and (frame is None or base.name not in frame):
                return self.state.get_signal(base.name).bit(idx - sig.lsb)
        return self.eval(base, frame).bit(idx)

    def _eval_part_select(self, expr: ast.PartSelect, frame: _Frame | None) -> LogicVec:
        msb = self._static_int(expr.msb, frame)
        lsb = self._static_int(expr.lsb, frame)
        offset = self._base_lsb(expr.base, frame)
        return self.eval(expr.base, frame).slice(msb - offset, lsb - offset)

    def _eval_indexed_select(
        self, expr: ast.IndexedPartSelect, frame: _Frame | None
    ) -> LogicVec:
        width = self._static_int(expr.width, frame)
        start = self.eval(expr.start, frame)
        if start.has_x:
            return LogicVec.all_x(width)
        s = start.to_int() if start.signed else start.to_uint()
        msb, lsb = (s, s - width + 1) if expr.down else (s + width - 1, s)
        offset = self._base_lsb(expr.base, frame)
        return self.eval(expr.base, frame).slice(msb - offset, lsb - offset)

    def _base_lsb(self, base: ast.Expr, frame: _Frame | None) -> int:
        if isinstance(base, ast.Ident):
            if frame is not None and base.name in frame:
                return 0
            sig = self.design.signals.get(base.name)
            if sig is not None:
                return sig.lsb
        return 0

    def _eval_call(
        self, expr: ast.FuncCall, frame: _Frame | None, ctx_width: int | None
    ) -> LogicVec:
        if expr.name == "$signed":
            return self.eval(expr.args[0], frame).as_signed()
        if expr.name == "$unsigned":
            return self.eval(expr.args[0], frame).as_unsigned()
        if expr.name == "$clog2":
            value = self.eval(expr.args[0], frame)
            if value.has_x:
                return LogicVec.all_x(32)
            return LogicVec.from_int(clog2(value.to_uint()), 32)
        decl = self.design.functions.get(expr.name)
        if decl is None:
            raise SimulationError(f"unknown function {expr.name!r}", expr.loc)
        if self._call_depth >= _MAX_CALL_DEPTH:
            raise SimulationError(
                f"function call depth exceeds {_MAX_CALL_DEPTH}", expr.loc
            )
        if len(expr.args) != len(decl.inputs):
            raise SimulationError(
                f"function {expr.name!r} expects {len(decl.inputs)} args, "
                f"got {len(expr.args)}",
                expr.loc,
            )
        callee = _Frame()
        ret_width = _range_width(decl.range)
        callee.declare(decl.name, ret_width, decl.signed)
        for (name, rng, signed), arg in zip(decl.inputs, expr.args):
            width = _range_width(rng)
            callee.declare(name, width, signed)
            callee.values[name] = self.eval(arg, frame, width).resize(width, signed)
        for net in decl.locals:
            width = _range_width(net.range)
            for name in net.names:
                callee.declare(name, width, net.signed)
        self._call_depth += 1
        try:
            self.exec_stmt(decl.body, callee)
        finally:
            self._call_depth -= 1
        return callee.values[decl.name]

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def exec_stmt(self, stmt: ast.Stmt, frame: _Frame | None = None) -> None:
        if isinstance(stmt, ast.Block):
            for sub in stmt.stmts:
                self.exec_stmt(sub, frame)
            return
        if isinstance(stmt, ast.If):
            if self.eval(stmt.cond, frame).is_true():
                self.exec_stmt(stmt.then_stmt, frame)
            elif stmt.else_stmt is not None:
                self.exec_stmt(stmt.else_stmt, frame)
            return
        if isinstance(stmt, ast.Case):
            self._exec_case(stmt, frame)
            return
        if isinstance(stmt, ast.For):
            self._exec_for(stmt, frame)
            return
        if isinstance(stmt, ast.BlockingAssign):
            self._assign(stmt.target, stmt.value, frame, blocking=True)
            return
        if isinstance(stmt, ast.NonblockingAssign):
            self._assign(stmt.target, stmt.value, frame, blocking=False)
            return
        if isinstance(stmt, ast.SysCall):
            args = []
            for arg in stmt.args:
                try:
                    args.append(self.eval(arg, frame))
                except SimulationError:
                    args.append(LogicVec.all_x(1))
            self.state.sys_call(stmt.name, args)
            return
        if isinstance(stmt, ast.NullStmt):
            return
        raise SimulationError(f"cannot execute {type(stmt).__name__}", stmt.loc)

    def _exec_case(self, stmt: ast.Case, frame: _Frame | None) -> None:
        widths = [self.width_of(stmt.subject, frame)]
        for item in stmt.items:
            widths.extend(self.width_of(e, frame) for e in item.exprs)
        width = max(widths)
        subject = self.eval(stmt.subject, frame, width)
        default: ast.CaseItem | None = None
        for item in stmt.items:
            if not item.exprs:
                default = item
                continue
            for e in item.exprs:
                label = self.eval(e, frame, width)
                if stmt.kind == "case":
                    hit = subject.matches_case(label)
                else:  # casez / casex (z folded into x)
                    hit = subject.matches_casez(label)
                if hit:
                    self.exec_stmt(item.body, frame)
                    return
        if default is not None:
            self.exec_stmt(default.body, frame)

    def _exec_for(self, stmt: ast.For, frame: _Frame | None) -> None:
        self.exec_stmt(stmt.init, frame)
        iterations = 0
        while self.eval(stmt.cond, frame).is_true():
            iterations += 1
            if iterations > _MAX_LOOP_ITERATIONS:
                raise SimulationError(
                    f"for loop exceeded {_MAX_LOOP_ITERATIONS} iterations "
                    "(non-terminating loop?)",
                    stmt.loc,
                )
            self.exec_stmt(stmt.body, frame)
            self.exec_stmt(stmt.step, frame)

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------

    def _assign(
        self,
        target: ast.Expr,
        value_expr: ast.Expr,
        frame: _Frame | None,
        blocking: bool,
    ) -> None:
        target_width = self._lvalue_width(target, frame)
        ctx = max(target_width, self.width_of(value_expr, frame))
        value = self.eval(value_expr, frame, ctx).resize(target_width)
        pieces = self._resolve_lvalue(target, frame)
        # Concat lvalues consume the value MSB-first.
        cursor = target_width
        for piece, piece_width in pieces:
            part = value.slice(cursor - 1, cursor - piece_width)
            cursor -= piece_width
            if piece is None:
                continue  # write into frame already handled
            if isinstance(piece, tuple):
                frame_obj, name, msb, lsb = piece
                old = frame_obj.values[name]
                frame_obj.values[name] = old.set_slice(msb, lsb, part)
                continue
            if piece.skip:
                continue
            if blocking:
                self._commit_piece(piece, part)
            else:
                self.state.schedule_nba(piece, part)

    def _commit_piece(self, piece: WritePiece, value: LogicVec) -> None:
        if piece.word is not None:
            mem = self.design.memories[piece.name]
            if piece.msb == mem.width - 1 and piece.lsb == 0:
                word = value.resize(mem.width, mem.signed)
            else:
                # ``piece.word`` is a slot; get_mem_word takes the declared index.
                old = self.state.get_mem_word(piece.name, piece.word + mem.base)
                word = old.set_slice(piece.msb, piece.lsb, value)
            self.state.set_mem_word(piece.name, piece.word, word)
            return
        sig = self.design.signals[piece.name]
        if piece.msb == sig.width - 1 and piece.lsb == 0:
            new = value.resize(sig.width, sig.signed)
        else:
            new = self.state.get_signal(piece.name).set_slice(
                piece.msb, piece.lsb, value
            )
        self.state.set_signal(piece.name, new)

    def commit_nba(self, piece: WritePiece, value: LogicVec) -> None:
        """Called by the simulator when the NBA region commits."""
        self._commit_piece(piece, value)

    def _lvalue_width(self, target: ast.Expr, frame: _Frame | None) -> int:
        if isinstance(target, ast.Concat):
            return sum(self._lvalue_width(p, frame) for p in target.parts)
        return self.width_of(target, frame)

    def _resolve_lvalue(
        self, target: ast.Expr, frame: _Frame | None
    ) -> list[tuple[WritePiece | tuple | None, int]]:
        """Flatten an lvalue into MSB-first (piece, width) entries.

        Frame-local targets are returned as ``(frame, name, msb, lsb)``
        tuples; design targets as :class:`WritePiece`.
        """
        if isinstance(target, ast.Concat):
            out: list[tuple[WritePiece | tuple | None, int]] = []
            for part in target.parts:
                out.extend(self._resolve_lvalue(part, frame))
            return out

        base = target
        selects: list[ast.Expr] = []
        while isinstance(base, (ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect)):
            selects.append(base)
            base = base.base
        if not isinstance(base, ast.Ident):
            raise SimulationError("unsupported assignment target", target.loc)
        name = base.name
        selects.reverse()  # outermost select last

        # Frame-local variable.
        if frame is not None and name in frame:
            width, _ = frame.widths[name]
            msb, lsb, skip = self._select_range(selects, width, 0, frame, memory=None)
            if skip:
                return [(None, msb - lsb + 1)]
            return [((frame, name, msb, lsb), msb - lsb + 1)]

        # Memory word (first select is the word index).
        if name in self.design.memories:
            mem = self.design.memories[name]
            if not selects:
                raise SimulationError(
                    f"memory {name!r} assigned without an index", target.loc
                )
            index = self.eval(_select_index(selects[0]), frame)
            word_selects = selects[1:]
            msb, lsb, skip = self._select_range(
                word_selects, mem.width, 0, frame, memory=None
            )
            width = msb - lsb + 1
            if index.has_x:
                return [(WritePiece(name, msb, lsb, word=0, skip=True), width)]
            word = index.to_int() if index.signed else index.to_uint()
            if not (mem.base <= word < mem.base + mem.size):
                return [(WritePiece(name, msb, lsb, word=0, skip=True), width)]
            return [
                (WritePiece(name, msb, lsb, word=word - mem.base, skip=skip), width)
            ]

        sig = self.design.signals.get(name)
        if sig is None:
            raise SimulationError(f"unknown assignment target {name!r}", target.loc)
        msb, lsb, skip = self._select_range(selects, sig.width, sig.lsb, frame, None)
        return [(WritePiece(name, msb, lsb, skip=skip), msb - lsb + 1)]

    def _select_range(
        self,
        selects: list[ast.Expr],
        width: int,
        offset: int,
        frame: _Frame | None,
        memory: None,
    ) -> tuple[int, int, bool]:
        """Reduce a select chain to a (msb, lsb, skip) hardware bit range."""
        msb, lsb = width - 1, 0
        skip = False
        for sel in selects:
            if isinstance(sel, ast.BitSelect):
                index = self.eval(sel.index, frame)
                if index.has_x:
                    return 0, 0, True
                idx = (index.to_int() if index.signed else index.to_uint()) - offset
                bit = lsb + idx
                if bit < lsb or bit > msb:
                    return 0, 0, True
                msb = lsb = bit
            elif isinstance(sel, ast.PartSelect):
                hi = self._static_int(sel.msb, frame) - offset
                lo = self._static_int(sel.lsb, frame) - offset
                new_lsb = lsb + lo
                new_msb = lsb + hi
                if new_lsb < lsb or new_msb > msb:
                    skip = True
                msb, lsb = new_msb, new_lsb
            else:  # IndexedPartSelect
                w = self._static_int(sel.width, frame)
                start = self.eval(sel.start, frame)
                if start.has_x:
                    return 0, 0, True
                s = (start.to_int() if start.signed else start.to_uint()) - offset
                hi, lo = (s, s - w + 1) if sel.down else (s + w - 1, s)
                new_lsb = lsb + lo
                new_msb = lsb + hi
                if new_lsb < lsb or new_msb > msb:
                    skip = True
                msb, lsb = new_msb, new_lsb
            offset = 0  # offsets apply only to the outer vector
        return msb, lsb, skip


def _select_index(sel: ast.Expr) -> ast.Expr:
    if isinstance(sel, ast.BitSelect):
        return sel.index
    raise SimulationError("memory must be indexed with [word]", sel.loc)


def _range_width(rng: ast.Range | None) -> int:
    if rng is None:
        return 1
    msb = rng.msb
    lsb = rng.lsb
    if not (isinstance(msb, ast.Number) and isinstance(lsb, ast.Number)):
        raise SimulationError("function range must be constant", rng.loc)
    return abs(msb.value.to_uint() - lsb.value.to_uint()) + 1


_MAX_EDGE_ROUNDS = 64

# (old, new) bit states that constitute an edge; 2 encodes x.
_POSEDGE = {(0, 1), (0, 2), (2, 1)}
_NEGEDGE = {(1, 0), (1, 2), (2, 0)}


def _bit_state(value: LogicVec) -> int:
    bit = value.bit(0)
    if bit.has_x:
        return 2
    return bit.val


class ReferenceSimulation:
    """The tree-walking kernel: same public surface as ``Simulation``."""

    def __init__(self, design: Design, max_activations: int | None = None):
        self.design = design
        self.interp = Interpreter(self)
        self.values: dict[str, LogicVec] = {}
        self.memories: dict[str, list[LogicVec]] = {}
        self.display_log: list[str] = []
        self.finished = False
        self.time = 0  # advanced by the testbench runner, for logs only

        for sig in design.signals.values():
            self.values[sig.name] = LogicVec.all_x(sig.width, sig.signed)
        for mem in design.memories.values():
            self.memories[mem.name] = [
                LogicVec.all_x(mem.width, mem.signed) for _ in range(mem.size)
            ]

        self._comb = [p for p in design.processes if p.kind == "comb"]
        self._clocked = [p for p in design.processes if p.kind == "clocked"]
        self._initial = [p for p in design.processes if p.kind == "initial"]
        self._max_activations = max_activations or (200 * len(self._comb) + 1000)

        self._comb_index: dict[str, list[int]] = {}
        for idx, proc in enumerate(self._comb):
            for name in proc.reads:
                self._comb_index.setdefault(name, []).append(idx)

        self._edge_sources: list[str] = []
        seen = set()
        for proc in self._clocked:
            for _, name in proc.edges:
                if name not in seen:
                    seen.add(name)
                    self._edge_sources.append(name)

        self._pending: deque[int] = deque()
        self._in_queue: set[int] = set()
        self._nba: list[tuple[WritePiece, LogicVec]] = []
        # Index of the comb process currently executing.  A Verilog process
        # is not waiting on its event list while it runs, so its own writes
        # must not re-trigger it (otherwise every for-loop livelocks).
        self._running: int | None = None

        for proc in self._initial:
            for stmt in proc.body:
                self.interp.exec_stmt(stmt)
        self._commit_nba()
        for idx in range(len(self._comb)):
            self._enqueue(idx)
        self._drain_comb()
        self._edge_prev = {
            name: _bit_state(self.values[name]) for name in self._edge_sources
        }

    # ------------------------------------------------------------------
    # StateAccess interface (used by the interpreter)
    # ------------------------------------------------------------------

    def get_signal(self, name: str) -> LogicVec:
        return self.values[name]

    def set_signal(self, name: str, value: LogicVec) -> None:
        sig = self.design.signals[name]
        new = value.resize(sig.width, sig.signed)
        if new != self.values[name]:
            self.values[name] = new
            for idx in self._comb_index.get(name, ()):
                if idx != self._running:
                    self._enqueue(idx)

    def get_mem_word(self, name: str, index: int) -> LogicVec:
        mem = self.design.memories[name]
        slot = index - mem.base
        if 0 <= slot < mem.size:
            return self.memories[name][slot]
        return LogicVec.all_x(mem.width, mem.signed)

    def set_mem_word(self, name: str, index: int, value: LogicVec) -> None:
        mem = self.design.memories[name]
        if not (0 <= index < mem.size):
            return
        new = value.resize(mem.width, mem.signed)
        if new != self.memories[name][index]:
            self.memories[name][index] = new
            for idx in self._comb_index.get(name, ()):
                if idx != self._running:
                    self._enqueue(idx)

    def schedule_nba(self, piece: WritePiece, value: LogicVec) -> None:
        self._nba.append((piece, value))

    def sys_call(self, name: str, args: list[LogicVec]) -> None:
        if name in ("$finish", "$stop"):
            self.finished = True
            return
        if name in ("$display", "$write", "$strobe", "$monitor"):
            rendered = " ".join(a.format_display() for a in args)
            self.display_log.append(f"[{self.time}] {rendered}")
        # Every other system task is a no-op in this substrate.

    # ------------------------------------------------------------------
    # Public driving interface
    # ------------------------------------------------------------------

    def poke(self, name: str, value: LogicVec | int) -> None:
        """Drive a top-level input (does not settle; call :meth:`settle`)."""
        sig = self.design.signals.get(name)
        if sig is None or not sig.is_input:
            raise SimulationError(f"{name!r} is not a top-level input")
        if isinstance(value, int):
            value = LogicVec.from_int(value, sig.width)
        self.set_signal(name, value)

    def peek(self, name: str) -> LogicVec:
        """Read any signal by flattened name."""
        if name not in self.values:
            raise SimulationError(f"no signal named {name!r}")
        return self.values[name]

    def settle(self) -> None:
        """Propagate until quiescent: comb fixpoint, edges, NBA commit."""
        for _ in range(_MAX_EDGE_ROUNDS):
            self._drain_comb()
            fired = self._collect_edge_processes()
            if not fired and not self._nba:
                return
            for proc in fired:
                for stmt in proc.body:
                    self.interp.exec_stmt(stmt)
            self._commit_nba()
        raise SimulationError(
            f"simulation did not converge after {_MAX_EDGE_ROUNDS} edge rounds "
            "(unstable derived clock?)"
        )

    def step(self, changes: dict[str, LogicVec | int]) -> None:
        """Apply input changes, then settle."""
        for name, value in changes.items():
            self.poke(name, value)
        self.settle()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _commit_nba(self) -> None:
        queued = self._nba
        self._nba = []
        for piece, value in queued:
            self.interp.commit_nba(piece, value)

    def _enqueue(self, idx: int) -> None:
        if idx not in self._in_queue:
            self._in_queue.add(idx)
            self._pending.append(idx)

    def _drain_comb(self) -> None:
        activations = 0
        while self._pending:
            activations += 1
            if activations > self._max_activations:
                raise SimulationError(
                    "combinational logic did not stabilise "
                    f"(> {self._max_activations} process activations); "
                    "likely a zero-delay feedback loop"
                )
            idx = self._pending.popleft()
            self._in_queue.discard(idx)
            self._running = idx
            try:
                for stmt in self._comb[idx].body:
                    self.interp.exec_stmt(stmt)
            finally:
                self._running = None

    def _collect_edge_processes(self):
        fired = []
        states = {}
        for name in self._edge_sources:
            states[name] = _bit_state(self.values[name])
        for proc in self._clocked:
            for edge, name in proc.edges:
                old = self._edge_prev[name]
                new = states[name]
                table = _POSEDGE if edge == "pos" else _NEGEDGE
                if (old, new) in table:
                    fired.append(proc)
                    break
        self._edge_prev = states
        return fired
