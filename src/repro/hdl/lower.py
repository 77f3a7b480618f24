"""Lower an elaborated design into python closures, once per design.

:class:`~repro.hdl.simulator.Simulation` runs process bodies as plain
python closures built here, instead of walking the AST on every
evaluation.  Lowering does the static half of Verilog expression
evaluation ahead of time:

- every expression's self-determined width and its context width (IEEE
  1364 sizing: an assignment right-hand side is evaluated at least as
  wide as its target, comparison operands at their common width, shift
  amounts and concat parts self-determined);
- constant select bounds, replication counts and case labels;
- identifiers, resolved to their storage: a function-frame slot, a
  signal or a memory of the design;
- each operator, bound to its :class:`~repro.hdl.values.LogicVec`
  method.

Every closure takes ``(sim, frame)``: the simulation whose state it
reads and writes, and the frame (a list of slots) of the function
activation it runs in, or None in a process body.  Closures hold no
per-simulation state, so one lowered design serves every simulation of
that design, on any thread.

Runtime faults never move.  A fault lowering can see (an unknown
identifier, a memory used without an index, a replication count below
one) becomes a closure that raises the same :class:`SimulationError`
when, and only when, execution reaches it, so its message and the state
before it match a statement-by-statement walk of the AST.  Widths that
depend on run-time values (a select bound that is not a constant) are
computed when the expression runs, in the same order as everything else.

:func:`lowered` lowers a design the first time a simulation needs it and
memoizes the result on the design object, so ``compile_design``'s LRU
bounds it as well.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass

from repro.hdl import ast_nodes as ast
from repro.hdl.design import Design, Memory, Signal
from repro.hdl.errors import HdlError, SimulationError
from repro.hdl.ops import BINARY_OPS, UNARY_OPS, clog2
from repro.hdl.values import _ONE, _X1, _ZERO, LogicVec, _vec

MAX_LOOP_ITERATIONS = 65536
MAX_CALL_DEPTH = 64

_COMPARE_OPS = frozenset({"==", "!=", "===", "!==", "<", "<=", ">", ">=", "&&", "||"})
_SHIFT_OPS = frozenset({"<<", ">>", "<<<", ">>>", "**"})
# Operators whose result can be far wider than their operands; constant
# subtrees using them are folded when first run, never ahead of time.
_GROWING_OPS = frozenset({"<<", "<<<", "**"})
_DISPLAY_TASKS = frozenset({"$display", "$write", "$strobe", "$monitor"})
# What evaluating a constant while lowering can raise (simulation faults,
# LogicVec's own checks, a system function without its argument).  Such
# a constant is not folded: the closure raises afresh whenever it runs.
_FOLD_ERRORS = (HdlError, ValueError, IndexError, ArithmeticError)

Fn = Callable  # (sim, frame) -> value


def _fault(message: str, loc) -> Fn:
    """A closure that raises ``SimulationError(message, loc)`` when run."""

    def raise_fault(sim, fr):
        raise SimulationError(message, loc)

    return raise_fault


def _combine(op, *widths):
    """``op(*widths)``, now if every width is static, else when run.

    A dynamic width is a closure; they are evaluated left to right, the
    order the widths are needed in.
    """
    if all(type(w) is int for w in widths):
        return op(*widths)

    def dynamic(sim, fr):
        return op(*[w if type(w) is int else w(sim, fr) for w in widths])

    return dynamic


def _total(*widths):
    return sum(widths)


def _product(a, b):
    return a * b


def _span(msb, lsb):
    return abs(msb - lsb) + 1


@dataclass
class _Frame:
    """A function's activation layout: one slot per distinct local name."""

    slots: dict  # name -> (slot, width, signed); the last declaration wins
    size: int


class _Function:
    """A lowered function: its frame layout and its body (set once lowered)."""

    __slots__ = ("frame", "ret_slot", "body")

    def __init__(self, frame: _Frame, ret_slot: int):
        self.frame = frame
        self.ret_slot = ret_slot
        self.body: Fn | None = None


@dataclass(frozen=True)
class LoweredDesign:
    """A design's processes as closures, plus the kernel's static tables."""

    comb: tuple  # body per combinational process
    clocked: tuple  # (body, ((edge source index, edge table), ...)) per process
    initial: tuple  # body per initial process
    ports: dict  # top-level input -> (width, mask, signed, comb readers)
    edge_sources: tuple  # names whose bit 0 clocked processes watch
    values: dict  # name -> initial (all-x) value of each signal
    memories: dict  # name -> initial words of each memory


# (old, new) bit-0 states that constitute an edge; 2 encodes x.
_POSEDGE = frozenset({(0, 1), (0, 2), (2, 1)})
_NEGEDGE = frozenset({(1, 0), (1, 2), (2, 0)})


def lowered(design: Design) -> LoweredDesign:
    """The design's lowered form, built on first use and kept on the design.

    Two threads may both lower a new design; either result serves.
    """
    low = design._lowered
    if low is None:
        low = _Lowerer(design).lower()
        design._lowered = low
    return low


class _Lowerer:
    def __init__(self, design: Design):
        self.design = design
        self.signals: dict[str, Signal] = design.signals
        self.memories: dict[str, Memory] = design.memories
        # Signal/memory name -> indices of the comb processes that read it.
        self.fanout: dict[str, tuple[int, ...]] = {}
        self._exprs: dict = {}
        self._widths: dict = {}
        self._const: dict = {}
        self._cheap: dict = {}
        self._functions: dict[str, _Function] = {}

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def lower(self) -> LoweredDesign:
        design = self.design
        comb = [p for p in design.processes if p.kind == "comb"]
        clocked = [p for p in design.processes if p.kind == "clocked"]
        initial = [p for p in design.processes if p.kind == "initial"]

        index: dict[str, list[int]] = {}
        for idx, proc in enumerate(comb):
            for name in proc.reads:
                index.setdefault(name, []).append(idx)
        self.fanout = {name: tuple(ids) for name, ids in index.items()}

        sources: list[str] = []
        for proc in clocked:
            for _, name in proc.edges:
                if name not in sources:
                    sources.append(name)
        clocked_out = []
        for proc in clocked:
            edges = tuple(
                (sources.index(name), _POSEDGE if edge == "pos" else _NEGEDGE)
                for edge, name in proc.edges
            )
            clocked_out.append((self.body(proc.body), edges))

        return LoweredDesign(
            comb=tuple(self.body(p.body) for p in comb),
            clocked=tuple(clocked_out),
            initial=tuple(self.body(p.body) for p in initial),
            ports={
                sig.name: (
                    sig.width,
                    (1 << sig.width) - 1,
                    sig.signed,
                    self.fanout.get(sig.name, ()),
                )
                for sig in design.signals.values()
                if sig.is_input
            },
            edge_sources=tuple(sources),
            values={
                sig.name: LogicVec.all_x(sig.width, sig.signed)
                for sig in design.signals.values()
            },
            memories={
                mem.name: (LogicVec.all_x(mem.width, mem.signed),) * mem.size
                for mem in design.memories.values()
            },
        )

    def body(self, stmts) -> Fn:
        return _sequence([self.stmt(s, None) for s in stmts])

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------

    def is_const(self, e: ast.Expr) -> bool:
        """True when ``e`` reads no state and calls no user function."""
        key = id(e)
        hit = self._const.get(key)
        if hit is None:
            t = type(e)
            if t is ast.Number:
                hit = True
            elif t is ast.Ident:
                hit = False
            elif t is ast.FuncCall:
                hit = e.name in ("$signed", "$unsigned", "$clog2") and all(
                    self.is_const(a) for a in e.args
                )
            else:
                hit = all(self.is_const(c) for c in _children(e))
            self._const[key] = hit
        return hit

    def is_cheap(self, e: ast.Expr) -> bool:
        """A constant whose evaluation cost is bounded by its literals.

        Such a subtree is folded while lowering.  Other constants (shifts
        left, powers, replications, part selects) may build huge values,
        and a walk of the AST only paid for them when they ran, so they
        are folded the first time they run instead.
        """
        key = id(e)
        hit = self._cheap.get(key)
        if hit is None:
            t = type(e)
            if t is ast.Number:
                hit = True
            elif t in (ast.Ident, ast.Replicate, ast.PartSelect, ast.IndexedPartSelect):
                hit = False
            elif t is ast.Binary and e.op in _GROWING_OPS:
                hit = False
            else:
                hit = self.is_const(e) and all(self.is_cheap(c) for c in _children(e))
            self._cheap[key] = hit
        return hit

    def const_value(self, e: ast.Expr, scope) -> LogicVec | None:
        """The value of a cheap constant ``e``, or None (not cheap, or it raises)."""
        if not self.is_cheap(e):
            return None
        fn, _ = self.expr(e, scope, None)
        try:
            return fn(None, None)
        except _FOLD_ERRORS:  # the same fault raises again when ``e`` runs
            return None

    def static_int(self, e: ast.Expr, scope):
        """A select bound / count: an int now, or a closure computing it."""
        fn, _ = self.expr(e, scope, None)
        loc = e.loc

        def bound(sim, fr):
            v = fn(sim, fr)
            if v.xmask:
                raise SimulationError("select bound evaluated to x", loc)
            return v.to_int() if v.signed else v.val

        if self.is_cheap(e):
            try:
                return bound(None, None)
            except _FOLD_ERRORS:  # raised again, in order, when the bound runs
                pass
        return bound

    # ------------------------------------------------------------------
    # Widths (self-determined)
    # ------------------------------------------------------------------

    def width(self, e: ast.Expr, scope):
        """Self-determined width: an int, or a closure (dynamic or a fault)."""
        key = (id(e), id(scope))
        if key not in self._widths:
            self._widths[key] = self._width(e, scope)
        return self._widths[key]

    def _width(self, e: ast.Expr, scope):
        t = type(e)
        if t is ast.Number:
            return e.value.width
        if t is ast.Ident:
            if scope is not None and e.name in scope.slots:
                return scope.slots[e.name][1]
            sig = self.signals.get(e.name)
            if sig is not None:
                return sig.width
            return self._ident_fault(e)
        if t is ast.BitSelect:
            base = e.base
            if isinstance(base, ast.Ident) and base.name in self.memories:
                return self.memories[base.name].width
            return 1
        if t is ast.PartSelect:
            return _combine(
                _span, self.static_int(e.msb, scope), self.static_int(e.lsb, scope)
            )
        if t is ast.IndexedPartSelect:
            return self.static_int(e.width, scope)
        if t is ast.Unary:
            if e.op in ("~", "-", "+"):
                return self.width(e.operand, scope)
            return 1
        if t is ast.Binary:
            if e.op in _COMPARE_OPS:
                return 1
            if e.op in _SHIFT_OPS:
                return self.width(e.left, scope)
            return _combine(max, self.width(e.left, scope), self.width(e.right, scope))
        if t is ast.Ternary:
            return _combine(max, self.width(e.then, scope), self.width(e.els, scope))
        if t is ast.Concat:
            return _combine(_total, *[self.width(p, scope) for p in e.parts])
        if t is ast.Replicate:
            return _combine(
                _product, self.static_int(e.count, scope), self.width(e.inner, scope)
            )
        if t is ast.FuncCall:
            if e.name in ("$signed", "$unsigned"):
                if not e.args:
                    return _no_argument
                return self.width(e.args[0], scope)
            if e.name == "$clog2":
                return 32
            decl = self.design.functions.get(e.name)
            if decl is None:
                return _fault(f"unknown function {e.name!r}", e.loc)
            return _range_width(decl.range)
        return _fault(f"cannot size expression {type(e).__name__}", e.loc)

    def lvalue_width(self, target: ast.Expr, scope):
        if type(target) is ast.Concat:
            return _combine(_total, *[self.lvalue_width(p, scope) for p in target.parts])
        return self.width(target, scope)

    def _ident_fault(self, e: ast.Ident) -> Fn:
        if e.name in self.memories:
            return _fault(f"memory {e.name!r} used without an index", e.loc)
        return _fault(f"unknown identifier {e.name!r}", e.loc)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def expr(self, e: ast.Expr, scope, ctx: int | None):
        """``(closure, result width or None)`` for ``e`` in context ``ctx``.

        The closure returns the value widened to ``ctx`` (Verilog's
        context-determined sizing); the result width is static whenever
        the lowering can prove it.
        """
        key = (id(e), id(scope), ctx)
        hit = self._exprs.get(key)
        if hit is None:
            hit = self._exprs[key] = self._expr(e, scope, ctx)
        return hit

    def expr_at(self, e: ast.Expr, scope) -> Callable[[int | None], Fn]:
        """For a context width known only at run time: ``ctx -> closure``."""
        memo: dict = {}
        lower = self.expr

        def at(ctx):
            fn = memo.get(ctx)
            if fn is None:
                fn = memo[ctx] = lower(e, scope, ctx)[0]
            return fn

        return at

    def _expr(self, e: ast.Expr, scope, ctx):
        t = type(e)
        if t is ast.Number:
            value = e.value
            if ctx is not None and value.width < ctx:
                value = value.resize(ctx)
            return _constant(value), value.width
        method = _EXPR_LOWERING.get(t)
        if method is None:
            return _fault(f"cannot evaluate {t.__name__}", e.loc), None
        fn, rw = method(self, e, scope, ctx)
        if ctx is not None:
            if rw is None:
                fn = _widen(fn, ctx)
            elif rw < ctx:
                fn = _resize(fn, ctx)
                rw = ctx
        if self.is_const(e):
            if self.is_cheap(e):
                try:
                    value = fn(None, None)
                except _FOLD_ERRORS:  # raised again when the expression runs
                    pass
                else:
                    return _constant(value), value.width
            fn = _fold_when_run(fn)
        return fn, rw

    def _ident(self, e: ast.Ident, scope, ctx):
        name = e.name
        if scope is not None and name in scope.slots:
            slot, width, _ = scope.slots[name]

            def read_local(sim, fr):
                return fr[slot]

            return read_local, width
        sig = self.signals.get(name)
        if sig is None:
            return self._ident_fault(e), None

        def read_signal(sim, fr):
            return sim.values[name]

        return read_signal, sig.width

    def _bit_select(self, e: ast.BitSelect, scope, ctx):
        base = e.base
        if isinstance(base, ast.Ident) and base.name in self.memories:
            return self._memory_read(e, base.name, scope), self.memories[base.name].width
        index, _ = self.expr(e.index, scope, None)
        if (
            isinstance(base, ast.Ident)
            and base.name in self.signals
            and (scope is None or base.name not in scope.slots)
        ):
            name = base.name
            sig = self.signals[name]
            known = self.const_value(e.index, scope)
            if known is not None:
                if known.xmask:
                    return _constant(_X1), 1
                bit = (known.to_int() if known.signed else known.val) - sig.lsb
                if not 0 <= bit < sig.width:
                    return _constant(_X1), 1

                def read_bit(sim, fr):
                    return sim.values[name].bit(bit)

                return read_bit, 1
            lsb = sig.lsb

            def read_signal_bit(sim, fr):
                i = index(sim, fr)
                if i.xmask:
                    return _X1
                return sim.values[name].bit((i.to_int() if i.signed else i.val) - lsb)

            return read_signal_bit, 1
        base_fn, _ = self.expr(base, scope, None)

        def read_any_bit(sim, fr):
            i = index(sim, fr)
            if i.xmask:
                return _X1
            return base_fn(sim, fr).bit(i.to_int() if i.signed else i.val)

        return read_any_bit, 1

    def _memory_read(self, e: ast.BitSelect, name: str, scope) -> Fn:
        mem = self.memories[name]
        index, _ = self.expr(e.index, scope, None)
        unknown = LogicVec.all_x(mem.width, mem.signed)
        base, size = mem.base, mem.size

        def read_word(sim, fr):
            i = index(sim, fr)
            if i.xmask:
                return unknown
            slot = (i.to_int() if i.signed else i.val) - base
            if 0 <= slot < size:
                return sim.memories[name][slot]
            return unknown

        return read_word

    def _base_lsb(self, base: ast.Expr, scope) -> int:
        if isinstance(base, ast.Ident):
            if scope is not None and base.name in scope.slots:
                return 0
            sig = self.signals.get(base.name)
            if sig is not None:
                return sig.lsb
        return 0

    def _is_signal(self, base: ast.Expr, scope) -> bool:
        return (
            isinstance(base, ast.Ident)
            and base.name in self.signals
            and (scope is None or base.name not in scope.slots)
        )

    def _part_select(self, e: ast.PartSelect, scope, ctx):
        msb = self.static_int(e.msb, scope)
        lsb = self.static_int(e.lsb, scope)
        offset = self._base_lsb(e.base, scope)
        base_fn, _ = self.expr(e.base, scope, None)
        if type(msb) is int and type(lsb) is int:
            hi, lo = msb - offset, lsb - offset
            if hi < lo:
                # The slice raises; keep the call so it raises when run.
                def bad_slice(sim, fr):
                    return base_fn(sim, fr).slice(hi, lo)

                return bad_slice, None
            width = hi - lo + 1
            if self._is_signal(e.base, scope) and lo >= 0 and hi < self.signals[e.base.name].width:
                name = e.base.name
                mask = (1 << width) - 1

                def read_field(sim, fr):
                    v = sim.values[name]
                    return _vec(width, (v.val >> lo) & mask, (v.xmask >> lo) & mask, False)

                return read_field, width

            def read_slice(sim, fr):
                return base_fn(sim, fr).slice(hi, lo)

            return read_slice, width

        def read_dynamic_slice(sim, fr):
            h = msb if type(msb) is int else msb(sim, fr)
            l = lsb if type(lsb) is int else lsb(sim, fr)
            return base_fn(sim, fr).slice(h - offset, l - offset)

        return read_dynamic_slice, None

    def _indexed_select(self, e: ast.IndexedPartSelect, scope, ctx):
        width = self.static_int(e.width, scope)
        start_fn, _ = self.expr(e.start, scope, None)
        offset = self._base_lsb(e.base, scope)
        base_fn, _ = self.expr(e.base, scope, None)
        down = e.down

        def read_indexed(sim, fr):
            w = width if type(width) is int else width(sim, fr)
            start = start_fn(sim, fr)
            if start.xmask:
                return LogicVec.all_x(w)
            s = start.to_int() if start.signed else start.val
            msb, lsb = (s, s - w + 1) if down else (s + w - 1, s)
            return base_fn(sim, fr).slice(msb - offset, lsb - offset)

        return read_indexed, width if type(width) is int else None

    def _unary(self, e: ast.Unary, scope, ctx):
        op = e.op
        fn = UNARY_OPS.get(op)
        if op in ("~", "-", "+"):
            operand, rw = self.expr(e.operand, scope, ctx)
        else:
            operand, _ = self.expr(e.operand, scope, None)
            rw = 1
        if fn is None:
            message = f"unsupported unary operator {op!r}"

            def unsupported(sim, fr):
                operand(sim, fr)
                raise HdlError(message)

            return unsupported, None
        if op == "+":
            return operand, rw

        def unary(sim, fr):
            return fn(operand(sim, fr))

        return unary, rw

    def _binary(self, e: ast.Binary, scope, ctx):
        op = e.op
        fn = BINARY_OPS.get(op)
        if fn is None:
            message = f"unsupported binary operator {op!r}"

            def fn(a, b):
                raise HdlError(message)

        left_width = self.width(e.left, scope)
        if op in _COMPARE_OPS:
            width = _combine(max, left_width, self.width(e.right, scope))
            if type(width) is not int:
                return self._binary_at(fn, e, scope, width), 1
            left, lrw = self.expr(e.left, scope, width)
            right, rrw = self.expr(e.right, scope, width)
            if lrw == rrw == width and op in _KNOWN_COMPARE:
                return _known_compare(op, fn, left, right), 1
            rw = 1
        elif op in _SHIFT_OPS:
            width = _combine(max, left_width, ctx or 0)
            right, rrw = self.expr(e.right, scope, None)
            if type(width) is not int:
                left_at = self.expr_at(e.left, scope)

                def shift_at(sim, fr):
                    return fn(left_at(width(sim, fr))(sim, fr), right(sim, fr))

                return shift_at, None
            left, lrw = self.expr(e.left, scope, width)
            if op == "**":
                rw = None if lrw is None or rrw is None else max(lrw, rrw)
            else:
                rw = lrw
        else:
            width = _combine(max, left_width, self.width(e.right, scope), ctx or 0)
            if type(width) is not int:
                return self._binary_at(fn, e, scope, width), None
            left, lrw = self.expr(e.left, scope, width)
            right, rrw = self.expr(e.right, scope, width)
            if lrw == rrw == width and op in _KNOWN_ARITH:
                return _known_arith(op, fn, width, left, right), width
            rw = None if lrw is None or rrw is None else max(lrw, rrw)

        def binary(sim, fr):
            return fn(left(sim, fr), right(sim, fr))

        return binary, rw

    def _binary_at(self, fn, e: ast.Binary, scope, width) -> Fn:
        left_at = self.expr_at(e.left, scope)
        right_at = self.expr_at(e.right, scope)

        def binary_at(sim, fr):
            w = width(sim, fr)
            return fn(left_at(w)(sim, fr), right_at(w)(sim, fr))

        return binary_at

    def _ternary(self, e: ast.Ternary, scope, ctx):
        cond, _ = self.expr(e.cond, scope, None)
        width = _combine(max, self.width(e.then, scope), self.width(e.els, scope), ctx or 0)
        if type(width) is int:
            then, trw = self.expr(e.then, scope, width)
            els, erw = self.expr(e.els, scope, width)

            def ternary(sim, fr):
                c = cond(sim, fr)
                if c.val:
                    return then(sim, fr)
                if c.xmask:
                    return _merge(then(sim, fr), els(sim, fr), width)
                return els(sim, fr)

            return ternary, width if trw == width and erw == width else None
        then_at = self.expr_at(e.then, scope)
        els_at = self.expr_at(e.els, scope)

        def ternary_at(sim, fr):
            c = cond(sim, fr)
            w = width(sim, fr)
            if c.val:
                return then_at(w)(sim, fr)
            if c.xmask:
                return _merge(then_at(w)(sim, fr), els_at(w)(sim, fr), w)
            return els_at(w)(sim, fr)

        return ternary_at, None

    def _concat(self, e: ast.Concat, scope, ctx):
        lowered_parts = [self.expr(p, scope, None) for p in e.parts]
        parts = tuple(fn for fn, _ in lowered_parts)
        widths = [rw for _, rw in lowered_parts]
        rw = None if None in widths or not widths else sum(widths)
        if len(parts) == 2:
            high, low = parts

            def concat2(sim, fr):
                a = high(sim, fr)
                b = low(sim, fr)
                w = b.width
                return _vec(a.width + w, (a.val << w) | b.val, (a.xmask << w) | b.xmask, False)

            return concat2, rw

        def concat(sim, fr):
            return LogicVec.concat([p(sim, fr) for p in parts])

        return concat, rw

    def _replicate(self, e: ast.Replicate, scope, ctx):
        count = self.static_int(e.count, scope)
        inner, irw = self.expr(e.inner, scope, None)
        loc = e.loc
        if type(count) is int:
            if count < 1:
                return _fault("replication count must be >= 1", loc), None

            def replicate(sim, fr):
                return inner(sim, fr).replicate(count)

            return replicate, None if irw is None else count * irw

        def replicate_dynamic(sim, fr):
            n = count(sim, fr)
            if n < 1:
                raise SimulationError("replication count must be >= 1", loc)
            return inner(sim, fr).replicate(n)

        return replicate_dynamic, None

    def _call(self, e: ast.FuncCall, scope, ctx):
        name = e.name
        if name in ("$signed", "$unsigned"):
            if not e.args:
                return _no_argument, None
            arg, rw = self.expr(e.args[0], scope, None)
            convert = LogicVec.as_signed if name == "$signed" else LogicVec.as_unsigned

            def cast(sim, fr):
                return convert(arg(sim, fr))

            return cast, rw
        if name == "$clog2":
            if not e.args:
                return _no_argument, None
            arg, _ = self.expr(e.args[0], scope, None)
            unknown = LogicVec.all_x(32)

            def clog(sim, fr):
                v = arg(sim, fr)
                if v.xmask:
                    return unknown
                return LogicVec.from_int(clog2(v.val), 32)

            return clog, 32
        decl = self.design.functions.get(name)
        if decl is None:
            return _fault(f"unknown function {name!r}", e.loc), None
        return self._user_call(e, decl, scope)

    def _user_call(self, e: ast.FuncCall, decl: ast.FunctionDecl, scope):
        func = self.function(decl)
        loc = e.loc
        depth_message = f"function call depth exceeds {MAX_CALL_DEPTH}"
        if len(e.args) != len(decl.inputs):
            arity_message = (
                f"function {e.name!r} expects {len(decl.inputs)} args, got {len(e.args)}"
            )

            def bad_call(sim, fr):
                if sim._call_depth >= MAX_CALL_DEPTH:
                    raise SimulationError(depth_message, loc)
                raise SimulationError(arity_message, loc)

            return bad_call, None
        slots = func.frame.slots
        # Frame set-up, in declaration order: return value, inputs, locals.
        steps = [(slots[decl.name][0], _declare(decl.range, decl.signed))]
        for (arg_name, rng, signed), arg in zip(decl.inputs, e.args):
            width = _range_width(rng)
            if type(width) is int:
                steps.append((slots[arg_name][0], self._argument(arg, scope, width, signed)))
            else:
                steps.append((slots[arg_name][0], width))
        for net in decl.locals:
            for local in net.names:
                steps.append((slots[local][0], _declare(net.range, net.signed)))
        steps = tuple(steps)
        size = func.frame.size
        ret_slot = func.ret_slot

        def call(sim, fr):
            if sim._call_depth >= MAX_CALL_DEPTH:
                raise SimulationError(depth_message, loc)
            frame = [None] * size
            for slot, step in steps:
                frame[slot] = step(sim, fr)
            sim._call_depth += 1
            try:
                func.body(sim, frame)
            finally:
                sim._call_depth -= 1
            return frame[ret_slot]

        return call, slots[decl.name][1]

    def _argument(self, arg: ast.Expr, scope, width: int, signed: bool) -> Fn:
        value, _ = self.expr(arg, scope, width)

        def bind(sim, fr):
            return value(sim, fr).resize(width, signed)

        return bind

    def function(self, decl: ast.FunctionDecl) -> _Function:
        """The lowered function, built once per design (recursion-safe)."""
        func = self._functions.get(decl.name)
        if func is None:
            slots: dict = {}

            def declare(name, rng, signed):
                width = _range_width(rng)
                slot = slots[name][0] if name in slots else len(slots)
                slots[name] = (slot, width if type(width) is int else 1, signed)

            declare(decl.name, decl.range, decl.signed)
            for name, rng, signed in decl.inputs:
                declare(name, rng, signed)
            for net in decl.locals:
                for name in net.names:
                    declare(name, net.range, net.signed)
            frame = _Frame(slots=slots, size=len(slots))
            func = self._functions[decl.name] = _Function(frame, slots[decl.name][0])
            func.body = self.stmt(decl.body, frame)
        return func

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def stmt(self, s: ast.Stmt, scope) -> Fn:
        method = _STMT_LOWERING.get(type(s))
        if method is None:
            return _fault(f"cannot execute {type(s).__name__}", s.loc)
        return method(self, s, scope)

    def _block(self, s: ast.Block, scope) -> Fn:
        return _sequence([self.stmt(sub, scope) for sub in s.stmts])

    def _if(self, s: ast.If, scope) -> Fn:
        cond, _ = self.expr(s.cond, scope, None)
        then = self.stmt(s.then_stmt, scope)
        if s.else_stmt is None:

            def if_then(sim, fr):
                if cond(sim, fr).val:
                    then(sim, fr)

            return if_then
        els = self.stmt(s.else_stmt, scope)

        def if_else(sim, fr):
            if cond(sim, fr).val:
                then(sim, fr)
            else:
                els(sim, fr)

        return if_else

    def _case(self, s: ast.Case, scope) -> Fn:
        widths = [self.width(s.subject, scope)]
        for item in s.items:
            widths.extend(self.width(x, scope) for x in item.exprs)
        width = _combine(max, *widths)
        match = LogicVec.matches_case if s.kind == "case" else LogicVec.matches_casez
        default = None
        arms = []
        for item in s.items:
            body = self.stmt(item.body, scope)
            if not item.exprs:
                default = body
            else:
                arms.append((item.exprs, body))

        if type(width) is not int:
            subject_at = self.expr_at(s.subject, scope)
            arms_at = [([self.expr_at(x, scope) for x in xs], body) for xs, body in arms]

            def case_at(sim, fr):
                w = width(sim, fr)
                subject = subject_at(w)(sim, fr)
                for labels, body in arms_at:
                    for label in labels:
                        if match(subject, label(w)(sim, fr)):
                            body(sim, fr)
                            return
                if default is not None:
                    default(sim, fr)

            return case_at

        subject_fn, subject_rw = self.expr(s.subject, scope, width)
        labels = [
            ([self.expr(x, scope, width) for x in xs], body) for xs, body in arms
        ]
        if s.kind == "case" and subject_rw == width:
            table = self._case_table(arms, labels, scope, width)
            if table is not None:

                def case_table(sim, fr):
                    v = subject_fn(sim, fr)
                    body = table.get((v.val, v.xmask), default)
                    if body is not None:
                        body(sim, fr)

                return case_table
        arms_fn = tuple((tuple(fn for fn, _ in ls), body) for ls, body in labels)

        def case(sim, fr):
            subject = subject_fn(sim, fr)
            for label_fns, body in arms_fn:
                for label in label_fns:
                    if match(subject, label(sim, fr)):
                        body(sim, fr)
                        return
            if default is not None:
                default(sim, fr)

        return case

    def _case_table(self, arms, labels, scope, width):
        """``(val, xmask) -> body`` when every label is a cheap constant.

        Plain ``case`` matches 4-state patterns exactly, so once subject
        and labels share one width the first arm whose label equals the
        subject is a dictionary lookup.
        """
        table: dict = {}
        for (exprs, body), (lowered_labels, _) in zip(arms, labels):
            for x, (fn, rw) in zip(exprs, lowered_labels):
                if not self.is_cheap(x) or rw != width:
                    return None
                try:
                    v = fn(None, None)
                except _FOLD_ERRORS:  # raises when run; keep the sequential scan
                    return None
                table.setdefault((v.val, v.xmask), body)
        return table

    def _for(self, s: ast.For, scope) -> Fn:
        init = self.stmt(s.init, scope)
        cond, _ = self.expr(s.cond, scope, None)
        body = self.stmt(s.body, scope)
        step = self.stmt(s.step, scope)
        loc = s.loc
        message = (
            f"for loop exceeded {MAX_LOOP_ITERATIONS} iterations (non-terminating loop?)"
        )

        def loop(sim, fr):
            init(sim, fr)
            iterations = 0
            while cond(sim, fr).val:
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise SimulationError(message, loc)
                body(sim, fr)
                step(sim, fr)

        return loop

    def _blocking(self, s: ast.BlockingAssign, scope) -> Fn:
        return self._assign(s.target, s.value, scope, blocking=True)

    def _nonblocking(self, s: ast.NonblockingAssign, scope) -> Fn:
        return self._assign(s.target, s.value, scope, blocking=False)

    def _syscall(self, s: ast.SysCall, scope) -> Fn:
        args = tuple(self.expr(a, scope, None)[0] for a in s.args)
        name = s.name
        finish = name in ("$finish", "$stop")
        display = name in _DISPLAY_TASKS

        def syscall(sim, fr):
            values = []
            for arg in args:
                try:
                    values.append(arg(sim, fr))
                except SimulationError:
                    values.append(_X1)
            if finish:
                sim.finished = True
            elif display:
                rendered = " ".join(v.format_display() for v in values)
                sim.display_log.append(f"[{sim.time}] {rendered}")
            # Every other system task is a no-op in this substrate.

        return syscall

    def _null(self, s: ast.NullStmt, scope) -> Fn:
        return _noop

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------

    def _assign(self, target: ast.Expr, value: ast.Expr, scope, blocking: bool) -> Fn:
        target_width = self.lvalue_width(target, scope)
        value_width = self.width(value, scope)
        parts = tuple(self.lvalue_parts(target, scope))
        if type(target_width) is int and type(value_width) is int:
            fn, rw = self.expr(value, scope, max(target_width, value_width))
            if rw != target_width:
                fn = _resize(fn, target_width)
            write = _writer(parts, target_width, blocking)
            if len(parts) == 1 and type(parts[0]) is tuple:
                pw, dest = parts[0]
                if dest is None:
                    return _evaluate_only(fn)
                if pw == target_width and dest[0] is not None:
                    return _store_whole(fn, dest, blocking)

            def assign(sim, fr):
                write(sim, fr, fn(sim, fr))

            return assign

        value_at = self.expr_at(value, scope)

        def assign_at(sim, fr):
            tw = target_width if type(target_width) is int else target_width(sim, fr)
            vw = value_width if type(value_width) is int else value_width(sim, fr)
            v = value_at(max(tw, vw))(sim, fr).resize(tw)
            _writer(parts, tw, blocking)(sim, fr, v)

        return assign_at

    def lvalue_parts(self, target: ast.Expr, scope) -> list:
        """MSB-first destinations of an assignment target.

        Each entry is a resolved ``(width, destination)`` pair, or a
        closure that resolves it when run.  A destination is None (the
        write vanishes) or ``(commit, msb, lsb, word)``; ``commit`` is
        None for a function-frame slot, whose index is ``word``.
        """
        if type(target) is ast.Concat:
            out: list = []
            for part in target.parts:
                out.extend(self.lvalue_parts(part, scope))
            return out
        base = target
        selects: list = []
        while isinstance(base, (ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect)):
            selects.append(base)
            base = base.base
        if not isinstance(base, ast.Ident):
            return [_fault("unsupported assignment target", target.loc)]
        name = base.name
        selects.reverse()  # outermost select last

        if scope is not None and name in scope.slots:
            slot, width, _ = scope.slots[name]
            return [_resolve(self.select_range(selects, width, 0, scope), None, slot)]

        mem = self.memories.get(name)
        if mem is not None:
            if not selects:
                return [_fault(f"memory {name!r} assigned without an index", target.loc)]
            first = selects[0]
            if not isinstance(first, ast.BitSelect):
                return [_fault("memory must be indexed with [word]", first.loc)]
            index, _ = self.expr(first.index, scope, None)
            word_range = self.select_range(selects[1:], mem.width, 0, scope)
            return [_resolve_word(index, word_range, _memory_commit(mem, self.fanout), mem)]

        sig = self.signals.get(name)
        if sig is None:
            return [_fault(f"unknown assignment target {name!r}", target.loc)]
        rng = self.select_range(selects, sig.width, sig.lsb, scope)
        return [_resolve(rng, _signal_commit(sig, self.fanout), None)]

    def select_range(self, selects: list, width: int, offset: int, scope):
        """A select chain as a hardware ``(msb, lsb, skip)``, now or when run."""
        steps = []
        static = True
        for sel in selects:
            t = type(sel)
            if t is ast.BitSelect:
                steps.append((0, self.expr(sel.index, scope, None)[0], None, False))
                static = static and self.is_cheap(sel.index)
            elif t is ast.PartSelect:
                hi = self.static_int(sel.msb, scope)
                lo = self.static_int(sel.lsb, scope)
                steps.append((1, hi, lo, False))
                static = static and type(hi) is int and type(lo) is int
            else:
                w = self.static_int(sel.width, scope)
                steps.append((2, w, self.expr(sel.start, scope, None)[0], sel.down))
                static = static and type(w) is int and self.is_cheap(sel.start)
        steps = tuple(steps)

        def select(sim, fr):
            return _select_range(sim, fr, steps, width, offset)

        if static:
            try:
                return select(None, None)
            except _FOLD_ERRORS:  # raised again, in order, when the target resolves
                pass
        return select


# Operators with a fast path for fully-known operands of one width.  The
# results are bit-identical to the LogicVec methods, which still handle
# every operand with an x bit (and signed relational compares).
_KNOWN_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
}
_KNOWN_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _known_arith(op: str, method, width: int, left: Fn, right: Fn) -> Fn:
    """``+ - * & | ^`` over two operands already ``width`` bits wide.

    Modular results do not depend on signedness, so both operands' bit
    patterns combine directly; the result is signed when both are.
    """
    f = _KNOWN_ARITH[op]
    mask = (1 << width) - 1

    def known_arith(sim, fr):
        a = left(sim, fr)
        b = right(sim, fr)
        if a.xmask or b.xmask:
            return method(a, b)
        return _vec(width, f(a.val, b.val) & mask, 0, a.signed and b.signed)

    return known_arith


def _known_compare(op: str, method, left: Fn, right: Fn) -> Fn:
    """Equality and unsigned relational compares of one-width operands."""
    f = _KNOWN_COMPARE[op]
    relational = op not in ("==", "!=")

    def known_compare(sim, fr):
        a = left(sim, fr)
        b = right(sim, fr)
        if a.xmask or b.xmask or (relational and a.signed and b.signed):
            return method(a, b)
        return _ONE if f(a.val, b.val) else _ZERO

    return known_compare


def _select_range(sim, fr, steps, width: int, offset: int):
    msb, lsb = width - 1, 0
    skip = False
    for kind, a, b, down in steps:
        if kind == 0:
            index = a(sim, fr)
            if index.xmask:
                return 0, 0, True
            bit = lsb + (index.to_int() if index.signed else index.val) - offset
            if bit < lsb or bit > msb:
                return 0, 0, True
            msb = lsb = bit
        else:
            if kind == 1:
                hi = (a if type(a) is int else a(sim, fr)) - offset
                lo = (b if type(b) is int else b(sim, fr)) - offset
            else:
                w = a if type(a) is int else a(sim, fr)
                start = b(sim, fr)
                if start.xmask:
                    return 0, 0, True
                s = (start.to_int() if start.signed else start.val) - offset
                hi, lo = (s, s - w + 1) if down else (s + w - 1, s)
            new_lsb = lsb + lo
            new_msb = lsb + hi
            if new_lsb < lsb or new_msb > msb:
                skip = True
            msb, lsb = new_msb, new_lsb
        offset = 0  # offsets apply only to the outer vector
    return msb, lsb, skip


def _resolve(rng, commit, slot):
    """A signal or frame-slot destination over a select range."""

    def destination(msb, lsb, skip):
        return msb - lsb + 1, None if skip else (commit, msb, lsb, slot)

    if type(rng) is tuple:
        return destination(*rng)

    def resolve(sim, fr):
        return destination(*rng(sim, fr))

    return resolve


def _resolve_word(index: Fn, word_range, commit, mem: Memory) -> Fn:
    base, top = mem.base, mem.base + mem.size

    def resolve(sim, fr):
        i = index(sim, fr)
        msb, lsb, skip = word_range if type(word_range) is tuple else word_range(sim, fr)
        width = msb - lsb + 1
        if i.xmask:
            return width, None
        word = i.to_int() if i.signed else i.val
        if skip or not base <= word < top:
            return width, None
        return width, (commit, msb, lsb, word - base)

    return resolve


def _writer(parts: tuple, target_width: int, blocking: bool):
    """Resolve the destinations, then write the value to them MSB-first."""

    def write(sim, fr, value):
        resolved = [p if type(p) is tuple else p(sim, fr) for p in parts]
        cursor = target_width
        single = len(resolved) == 1
        for pw, dest in resolved:
            if single and pw == cursor:
                part = value  # the whole value: slicing would copy its bits
            else:
                part = value.slice(cursor - 1, cursor - pw)
            cursor -= pw
            if dest is None:
                continue
            commit, msb, lsb, word = dest
            if commit is None:
                fr[word] = fr[word].set_slice(msb, lsb, part)
            elif blocking:
                commit(sim, part, msb, lsb, word)
            else:
                sim._nba.append((commit, part, msb, lsb, word))

    return write


def _store_whole(fn: Fn, dest: tuple, blocking: bool) -> Fn:
    """One static design destination as wide as the target."""
    commit, msb, lsb, word = dest
    if blocking:

        def store(sim, fr):
            commit(sim, fn(sim, fr), msb, lsb, word)

        return store

    def schedule(sim, fr):
        sim._nba.append((commit, fn(sim, fr), msb, lsb, word))

    return schedule


def _evaluate_only(fn: Fn) -> Fn:
    def evaluate(sim, fr):
        fn(sim, fr)

    return evaluate


def _signal_commit(sig: Signal, fanout: dict):
    """Write bits ``[msb:lsb]`` of a signal; wake its readers on change."""
    name, width, signed = sig.name, sig.width, sig.signed
    top = width - 1
    readers = fanout.get(name, ())

    def commit(sim, value, msb, lsb, word):
        values = sim.values
        old = values[name]
        if msb == top and lsb == 0:
            new = value.resize(width, signed)
        else:
            new = old.set_slice(msb, lsb, value)
        if new.val != old.val or new.xmask != old.xmask or new.signed != old.signed:
            values[name] = new
            if readers:
                sim._wake(readers)

    return commit


def _memory_commit(mem: Memory, fanout: dict):
    """Write bits ``[msb:lsb]`` of memory slot ``word``; wake its readers."""
    name, width, signed = mem.name, mem.width, mem.signed
    top = width - 1
    readers = fanout.get(name, ())

    def commit(sim, value, msb, lsb, word):
        words = sim.memories[name]
        old = words[word]
        if msb == top and lsb == 0:
            new = value.resize(width, signed)
        else:
            new = old.set_slice(msb, lsb, value)
        if new.val != old.val or new.xmask != old.xmask or new.signed != old.signed:
            words[word] = new
            if readers:
                sim._wake(readers)

    return commit


# ----------------------------------------------------------------------
# Small closure builders
# ----------------------------------------------------------------------


def _noop(sim, fr):
    return None


def _no_argument(sim, fr):
    return ()[0]  # a system function called without its argument


def _constant(value: LogicVec) -> Fn:
    def constant(sim, fr):
        return value

    return constant


def _fold_when_run(fn: Fn) -> Fn:
    """A constant evaluated the first time it runs, then reused.

    Two threads may both evaluate it; they compute the same value.
    """
    memo: list = []

    def folded(sim, fr):
        if memo:
            return memo[0]
        value = fn(sim, fr)
        memo.append(value)
        return value

    return folded


def _resize(fn: Fn, ctx: int) -> Fn:
    def resized(sim, fr):
        return fn(sim, fr).resize(ctx)

    return resized


def _widen(fn: Fn, ctx: int) -> Fn:
    def widened(sim, fr):
        v = fn(sim, fr)
        return v.resize(ctx) if v.width < ctx else v

    return widened


def _merge(then: LogicVec, els: LogicVec, width: int) -> LogicVec:
    """An x condition: bits both branches agree on survive, the rest are x."""
    agree = ~(then.val ^ els.val) & ~(then.xmask | els.xmask)
    return LogicVec(width, then.val & agree, ((1 << width) - 1) & ~agree)


def _sequence(fns: list) -> Fn:
    if len(fns) == 1:
        return fns[0]
    if len(fns) == 2:
        first, second = fns

        def pair(sim, fr):
            first(sim, fr)
            second(sim, fr)

        return pair
    fns = tuple(fns)

    def sequence(sim, fr):
        for fn in fns:
            fn(sim, fr)

    return sequence


def _declare(rng: ast.Range | None, signed: bool) -> Fn:
    """A frame slot's declared initial value (all x), or its range's fault."""
    width = _range_width(rng)
    if type(width) is not int:
        return width
    return _constant(LogicVec.all_x(width, signed))


def _range_width(rng: ast.Range | None):
    if rng is None:
        return 1
    msb, lsb = rng.msb, rng.lsb
    if not (isinstance(msb, ast.Number) and isinstance(lsb, ast.Number)):
        return _fault("function range must be constant", rng.loc)
    return abs(msb.value.to_uint() - lsb.value.to_uint()) + 1


def _children(e: ast.Expr) -> tuple:
    t = type(e)
    if t is ast.BitSelect:
        return (e.base, e.index)
    if t is ast.PartSelect:
        return (e.base, e.msb, e.lsb)
    if t is ast.IndexedPartSelect:
        return (e.base, e.start, e.width)
    if t is ast.Unary:
        return (e.operand,)
    if t is ast.Binary:
        return (e.left, e.right)
    if t is ast.Ternary:
        return (e.cond, e.then, e.els)
    if t is ast.Concat:
        return e.parts
    if t is ast.Replicate:
        return (e.count, e.inner)
    if t is ast.FuncCall:
        return e.args
    return ()


_EXPR_LOWERING = {
    ast.Ident: _Lowerer._ident,
    ast.BitSelect: _Lowerer._bit_select,
    ast.PartSelect: _Lowerer._part_select,
    ast.IndexedPartSelect: _Lowerer._indexed_select,
    ast.Unary: _Lowerer._unary,
    ast.Binary: _Lowerer._binary,
    ast.Ternary: _Lowerer._ternary,
    ast.Concat: _Lowerer._concat,
    ast.Replicate: _Lowerer._replicate,
    ast.FuncCall: _Lowerer._call,
}

_STMT_LOWERING = {
    ast.Block: _Lowerer._block,
    ast.If: _Lowerer._if,
    ast.Case: _Lowerer._case,
    ast.For: _Lowerer._for,
    ast.BlockingAssign: _Lowerer._blocking,
    ast.NonblockingAssign: _Lowerer._nonblocking,
    ast.SysCall: _Lowerer._syscall,
    ast.NullStmt: _Lowerer._null,
}
