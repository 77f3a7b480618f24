"""Elaboration: module ASTs to a flat, simulatable :class:`Design`.

Responsibilities:

- resolve parameters/localparams (including instance overrides),
  substituting them as constants into every expression;
- flatten the instance hierarchy, renaming signals to dotted global
  names (``u_alu.result``) and turning port connections into
  continuous assignments;
- merge classic-style port + net declarations;
- compute per-process read/write sets (auto ``@(*)`` sensitivity);
- reject anything outside the synthesizable subset with a located
  :class:`~repro.hdl.errors.ElaborationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdl import ast_nodes as ast
from repro.hdl.design import Design, Memory, Process, Signal
from repro.hdl.errors import ElaborationError, SourceLoc
from repro.hdl.ops import apply_binary, apply_unary, clog2
from repro.hdl.values import LogicVec

_MAX_DEPTH = 32


# ----------------------------------------------------------------------
# Constant evaluation (parameters, ranges, replication counts)
# ----------------------------------------------------------------------


def const_eval(expr: ast.Expr, params: dict[str, LogicVec]) -> LogicVec:
    """Evaluate an elaboration-time-constant expression."""
    if isinstance(expr, ast.Number):
        return expr.value
    if isinstance(expr, ast.Ident):
        if expr.name in params:
            return params[expr.name]
        raise ElaborationError(
            f"identifier {expr.name!r} is not a constant parameter", expr.loc
        )
    if isinstance(expr, ast.Unary):
        return apply_unary(expr.op, const_eval(expr.operand, params))
    if isinstance(expr, ast.Binary):
        return apply_binary(
            expr.op, const_eval(expr.left, params), const_eval(expr.right, params)
        )
    if isinstance(expr, ast.Ternary):
        cond = const_eval(expr.cond, params)
        return const_eval(expr.then if cond.is_true() else expr.els, params)
    if isinstance(expr, ast.Concat):
        return LogicVec.concat([const_eval(p, params) for p in expr.parts])
    if isinstance(expr, ast.Replicate):
        count = const_eval(expr.count, params).to_uint()
        return const_eval(expr.inner, params).replicate(count)
    if isinstance(expr, ast.FuncCall) and expr.name == "$clog2":
        value = const_eval(expr.args[0], params).to_uint()
        return LogicVec.from_int(clog2(value), 32)
    raise ElaborationError(
        f"expression is not elaboration-time constant: {type(expr).__name__}",
        expr.loc,
    )


def const_int(expr: ast.Expr, params: dict[str, LogicVec]) -> int:
    """Constant-evaluate to a Python int (signed interpretation)."""
    value = const_eval(expr, params)
    if value.has_x:
        raise ElaborationError("constant expression evaluated to x", expr.loc)
    return value.to_int() if value.signed else value.to_uint()


# ----------------------------------------------------------------------
# Identifier renaming
# ----------------------------------------------------------------------


@dataclass
class _Scope:
    """Name-resolution context for one module instance."""

    prefix: str
    params: dict[str, LogicVec] = field(default_factory=dict)
    signal_map: dict[str, str] = field(default_factory=dict)
    func_map: dict[str, str] = field(default_factory=dict)


class _Renamer:
    """Rewrites local identifiers to flattened names / parameter constants."""

    def __init__(self, scope: _Scope, locals_: frozenset[str] = frozenset()):
        self.scope = scope
        self.locals = locals_

    def expr(self, e: ast.Expr) -> ast.Expr:
        if isinstance(e, ast.Number):
            return e
        if isinstance(e, ast.Ident):
            if e.name in self.locals:
                return e
            if e.name in self.scope.params:
                return ast.Number(value=self.scope.params[e.name], loc=e.loc)
            if e.name in self.scope.signal_map:
                return ast.Ident(name=self.scope.signal_map[e.name], loc=e.loc)
            raise ElaborationError(f"undeclared identifier {e.name!r}", e.loc)
        if isinstance(e, ast.BitSelect):
            return e.clone(base=self.expr(e.base), index=self.expr(e.index))
        if isinstance(e, ast.PartSelect):
            return e.clone(
                base=self.expr(e.base), msb=self.expr(e.msb), lsb=self.expr(e.lsb)
            )
        if isinstance(e, ast.IndexedPartSelect):
            return e.clone(
                base=self.expr(e.base),
                start=self.expr(e.start),
                width=self.expr(e.width),
            )
        if isinstance(e, ast.Unary):
            return e.clone(operand=self.expr(e.operand))
        if isinstance(e, ast.Binary):
            return e.clone(left=self.expr(e.left), right=self.expr(e.right))
        if isinstance(e, ast.Ternary):
            return e.clone(
                cond=self.expr(e.cond), then=self.expr(e.then), els=self.expr(e.els)
            )
        if isinstance(e, ast.Concat):
            return e.clone(parts=tuple(self.expr(p) for p in e.parts))
        if isinstance(e, ast.Replicate):
            return e.clone(count=self.expr(e.count), inner=self.expr(e.inner))
        if isinstance(e, ast.FuncCall):
            args = tuple(self.expr(a) for a in e.args)
            if e.name.startswith("$"):
                return e.clone(args=args)
            if e.name in self.scope.func_map:
                return e.clone(name=self.scope.func_map[e.name], args=args)
            raise ElaborationError(f"call to undefined function {e.name!r}", e.loc)
        raise ElaborationError(f"unsupported expression {type(e).__name__}", e.loc)

    def stmt(self, s: ast.Stmt) -> ast.Stmt:
        if isinstance(s, ast.Block):
            return s.clone(stmts=tuple(self.stmt(x) for x in s.stmts))
        if isinstance(s, ast.If):
            return s.clone(
                cond=self.expr(s.cond),
                then_stmt=self.stmt(s.then_stmt),
                else_stmt=None if s.else_stmt is None else self.stmt(s.else_stmt),
            )
        if isinstance(s, ast.Case):
            items = tuple(
                item.clone(
                    exprs=tuple(self.expr(e) for e in item.exprs),
                    body=self.stmt(item.body),
                )
                for item in s.items
            )
            return s.clone(subject=self.expr(s.subject), items=items)
        if isinstance(s, ast.For):
            return s.clone(
                init=self.stmt(s.init),
                cond=self.expr(s.cond),
                step=self.stmt(s.step),
                body=self.stmt(s.body),
            )
        if isinstance(s, (ast.BlockingAssign, ast.NonblockingAssign)):
            return s.clone(target=self.expr(s.target), value=self.expr(s.value))
        if isinstance(s, ast.SysCall):
            return s.clone(args=tuple(self.expr(a) for a in s.args))
        if isinstance(s, ast.NullStmt):
            return s
        raise ElaborationError(f"unsupported statement {type(s).__name__}", s.loc)


# ----------------------------------------------------------------------
# Read / write set analysis
# ----------------------------------------------------------------------


def _collect_reads(expr: ast.Expr, out: set[str], funcs: dict[str, "_FuncInfo"]) -> None:
    if isinstance(expr, ast.Number):
        return
    if isinstance(expr, ast.Ident):
        out.add(expr.name)
        return
    if isinstance(expr, ast.BitSelect):
        _collect_reads(expr.base, out, funcs)
        _collect_reads(expr.index, out, funcs)
        return
    if isinstance(expr, ast.PartSelect):
        for sub in (expr.base, expr.msb, expr.lsb):
            _collect_reads(sub, out, funcs)
        return
    if isinstance(expr, ast.IndexedPartSelect):
        for sub in (expr.base, expr.start, expr.width):
            _collect_reads(sub, out, funcs)
        return
    if isinstance(expr, ast.Unary):
        _collect_reads(expr.operand, out, funcs)
        return
    if isinstance(expr, ast.Binary):
        _collect_reads(expr.left, out, funcs)
        _collect_reads(expr.right, out, funcs)
        return
    if isinstance(expr, ast.Ternary):
        for sub in (expr.cond, expr.then, expr.els):
            _collect_reads(sub, out, funcs)
        return
    if isinstance(expr, ast.Concat):
        for part in expr.parts:
            _collect_reads(part, out, funcs)
        return
    if isinstance(expr, ast.Replicate):
        _collect_reads(expr.count, out, funcs)
        _collect_reads(expr.inner, out, funcs)
        return
    if isinstance(expr, ast.FuncCall):
        for arg in expr.args:
            _collect_reads(arg, out, funcs)
        info = funcs.get(expr.name)
        if info is not None:
            out.update(info.global_reads)
        return
    raise ElaborationError(f"unsupported expression {type(expr).__name__}", expr.loc)


def _lvalue_base(expr: ast.Expr) -> ast.Expr:
    while isinstance(expr, (ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect)):
        expr = expr.base
    return expr


def _collect_stmt_rw(
    stmt: ast.Stmt,
    reads: set[str],
    writes: set[str],
    funcs: dict[str, "_FuncInfo"],
) -> None:
    if isinstance(stmt, ast.Block):
        for sub in stmt.stmts:
            _collect_stmt_rw(sub, reads, writes, funcs)
        return
    if isinstance(stmt, ast.If):
        _collect_reads(stmt.cond, reads, funcs)
        _collect_stmt_rw(stmt.then_stmt, reads, writes, funcs)
        if stmt.else_stmt is not None:
            _collect_stmt_rw(stmt.else_stmt, reads, writes, funcs)
        return
    if isinstance(stmt, ast.Case):
        _collect_reads(stmt.subject, reads, funcs)
        for item in stmt.items:
            for e in item.exprs:
                _collect_reads(e, reads, funcs)
            _collect_stmt_rw(item.body, reads, writes, funcs)
        return
    if isinstance(stmt, ast.For):
        _collect_stmt_rw(stmt.init, reads, writes, funcs)
        _collect_reads(stmt.cond, reads, funcs)
        _collect_stmt_rw(stmt.step, reads, writes, funcs)
        _collect_stmt_rw(stmt.body, reads, writes, funcs)
        return
    if isinstance(stmt, (ast.BlockingAssign, ast.NonblockingAssign)):
        _collect_reads(stmt.value, reads, funcs)
        target = stmt.target
        if isinstance(target, ast.Concat):
            parts = target.parts
        else:
            parts = (target,)
        for part in parts:
            base = _lvalue_base(part)
            if not isinstance(base, ast.Ident):
                raise ElaborationError("bad assignment target", stmt.loc)
            writes.add(base.name)
            # Index expressions inside the lvalue are reads.
            node = part
            while isinstance(
                node, (ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect)
            ):
                if isinstance(node, ast.BitSelect):
                    _collect_reads(node.index, reads, funcs)
                elif isinstance(node, ast.PartSelect):
                    _collect_reads(node.msb, reads, funcs)
                    _collect_reads(node.lsb, reads, funcs)
                else:
                    _collect_reads(node.start, reads, funcs)
                node = node.base
        return
    if isinstance(stmt, ast.SysCall):
        for arg in stmt.args:
            _collect_reads(arg, reads, funcs)
        return
    if isinstance(stmt, ast.NullStmt):
        return
    raise ElaborationError(f"unsupported statement {type(stmt).__name__}", stmt.loc)


@dataclass
class _FuncInfo:
    decl: ast.FunctionDecl
    global_reads: frozenset[str]


# ----------------------------------------------------------------------
# The elaborator
# ----------------------------------------------------------------------


class Elaborator:
    """Flattens a parsed module library into a :class:`Design`."""

    def __init__(self, modules: dict[str, ast.Module]):
        self.modules = modules
        self.design: Design | None = None
        self._funcs: dict[str, _FuncInfo] = {}

    @staticmethod
    def from_source(source: ast.SourceFile) -> "Elaborator":
        return Elaborator({m.name: m for m in source.modules})

    def elaborate(
        self, top: str, overrides: dict[str, int] | None = None
    ) -> Design:
        if top not in self.modules:
            raise ElaborationError(f"top module {top!r} not found")
        self.design = Design(name=top)
        self._funcs = {}
        top_params = {
            name: LogicVec.from_int(value, 32)
            for name, value in (overrides or {}).items()
        }
        self._elaborate_module(self.modules[top], prefix="", overrides=top_params, depth=0)
        self.design.functions = {
            name: info.decl for name, info in self._funcs.items()
        }
        return self.design

    # ------------------------------------------------------------------

    def _elaborate_module(
        self,
        module: ast.Module,
        prefix: str,
        overrides: dict[str, LogicVec],
        depth: int,
        port_bindings: dict[str, tuple[ast.Expr | None, _Scope]] | None = None,
    ) -> None:
        """Elaborate one instance.

        ``port_bindings`` maps port name to (parent expression, parent
        scope); None for the top module, whose ports become design I/O.
        """
        assert self.design is not None
        if depth > _MAX_DEPTH:
            raise ElaborationError(
                f"instance hierarchy deeper than {_MAX_DEPTH} (recursive modules?)",
                module.loc,
            )
        scope = _Scope(prefix=prefix)

        # Pass 1: parameters in declaration order (overrides win).
        for item in module.items:
            if isinstance(item, ast.ParamDecl):
                if not item.local and item.name in overrides:
                    value = overrides[item.name]
                else:
                    value = const_eval(item.value, scope.params)
                if item.range is not None:
                    msb = const_int(item.range.msb, scope.params)
                    lsb = const_int(item.range.lsb, scope.params)
                    value = value.resize(abs(msb - lsb) + 1, item.signed)
                scope.params[item.name] = value
        unknown = set(overrides) - set(scope.params)
        if unknown and port_bindings is not None:
            raise ElaborationError(
                f"parameter override(s) {sorted(unknown)} not declared by "
                f"module {module.name!r}",
                module.loc,
            )

        # Pass 2: merge port and net declarations into signal specs.
        port_spec: dict[str, dict] = {}
        net_items: list[ast.NetDecl] = []
        for item in module.items:
            if isinstance(item, ast.PortDecl):
                for name in item.names:
                    spec = port_spec.setdefault(
                        name,
                        {
                            "direction": item.direction,
                            "kind": "wire",
                            "signed": False,
                            "range": None,
                            "loc": item.loc,
                        },
                    )
                    spec["direction"] = item.direction
                    if item.net_kind == "reg":
                        spec["kind"] = "reg"
                    if item.signed:
                        spec["signed"] = True
                    if item.range is not None:
                        spec["range"] = item.range
            elif isinstance(item, ast.NetDecl):
                net_items.append(item)

        for name in module.ports:
            if name not in port_spec:
                raise ElaborationError(
                    f"port {name!r} has no direction declaration", module.loc
                )

        declared: set[str] = set()

        def add_signal(
            name: str,
            kind: str,
            signed: bool,
            rng: ast.Range | None,
            loc: SourceLoc,
            direction: str | None = None,
        ) -> None:
            global_name = prefix + name
            if name in declared and direction is None:
                raise ElaborationError(f"signal {name!r} declared twice", loc)
            width, lsb = self._range_width(rng, scope.params)
            self.design.signals[global_name] = Signal(
                name=global_name,
                width=width,
                signed=signed,
                kind=kind,
                lsb=lsb,
                is_input=(direction == "input" and port_bindings is None),
                is_output=(direction == "output" and port_bindings is None),
            )
            scope.signal_map[name] = global_name
            declared.add(name)

        # Ports first (in port order), then plain nets.
        for name in module.ports:
            spec = port_spec[name]
            if spec["direction"] == "inout":
                raise ElaborationError("inout ports are not supported", spec["loc"])
            # A body ``reg``/``wire`` declaration may refine a classic-style
            # port; find it before creating the signal.
            for net in net_items:
                if name in net.names and net.array_range is None:
                    if net.net_kind == "reg":
                        spec["kind"] = "reg"
                    if net.signed:
                        spec["signed"] = True
                    if net.range is not None and spec["range"] is None:
                        spec["range"] = net.range
            add_signal(
                name,
                spec["kind"],
                spec["signed"],
                spec["range"],
                spec["loc"],
                direction=spec["direction"],
            )
            if port_bindings is None:
                if spec["direction"] == "input":
                    self.design.inputs.append(name)
                else:
                    self.design.outputs.append(name)

        for net in net_items:
            if net.array_range is not None:
                self._add_memory(net, scope, prefix)
                continue
            for name in net.names:
                if name in declared:
                    if name in port_spec:
                        continue  # port refinement already handled
                    raise ElaborationError(
                        f"signal {name!r} declared twice", net.loc
                    )
                kind = "reg" if net.net_kind in ("reg", "integer") else "wire"
                rng = net.range
                if net.net_kind == "integer":
                    rng = _INT_RANGE
                add_signal(name, kind, net.signed, rng, net.loc)
            if net.init is not None:
                renamer = _Renamer(scope)
                assign = ast.BlockingAssign(
                    target=ast.Ident(name=net.names[0], loc=net.loc),
                    value=net.init,
                    loc=net.loc,
                )
                self._add_comb(renamer.stmt(assign), prefix)

        # Pass 3: functions (must precede uses in processes).
        for item in module.items:
            if isinstance(item, ast.FunctionDecl):
                self._add_function(item, scope, prefix)

        # Pass 4: behaviour.
        renamer = _Renamer(scope)
        for item in module.items:
            if isinstance(item, ast.ContinuousAssign):
                assign = ast.BlockingAssign(
                    target=renamer.expr(item.target),
                    value=renamer.expr(item.value),
                    loc=item.loc,
                )
                self._add_comb(assign, prefix)
            elif isinstance(item, ast.AlwaysBlock):
                self._add_always(item, scope, prefix)
            elif isinstance(item, ast.InitialBlock):
                body = renamer.stmt(item.body)
                reads: set[str] = set()
                writes: set[str] = set()
                _collect_stmt_rw(body, reads, writes, self._funcs)
                self.design.processes.append(
                    Process(
                        kind="initial",
                        body=(body,),
                        reads=frozenset(reads),
                        writes=frozenset(writes),
                        origin=prefix or module.name,
                    )
                )
            elif isinstance(item, ast.Instance):
                self._add_instance(item, scope, prefix, depth)

        # Pass 5: port bindings become continuous assignments.
        if port_bindings is not None:
            for name in module.ports:
                binding, parent_scope = port_bindings.get(name, (None, None))
                if binding is None:
                    continue
                spec = port_spec[name]
                parent_renamer = _Renamer(parent_scope)
                bound = parent_renamer.expr(binding)
                local = ast.Ident(name=scope.signal_map[name], loc=spec["loc"])
                if spec["direction"] == "input":
                    assign = ast.BlockingAssign(
                        target=local, value=bound, loc=spec["loc"]
                    )
                else:
                    assign = ast.BlockingAssign(
                        target=bound, value=local, loc=spec["loc"]
                    )
                self._add_comb(assign, prefix)

    # ------------------------------------------------------------------

    def _range_width(
        self, rng: ast.Range | None, params: dict[str, LogicVec]
    ) -> tuple[int, int]:
        if rng is None:
            return 1, 0
        msb = const_int(rng.msb, params)
        lsb = const_int(rng.lsb, params)
        if msb < lsb:
            raise ElaborationError(
                f"descending ranges [{msb}:{lsb}] are not supported for vectors",
                rng.loc,
            )
        return msb - lsb + 1, lsb

    def _add_memory(self, net: ast.NetDecl, scope: _Scope, prefix: str) -> None:
        assert self.design is not None
        if net.net_kind != "reg":
            raise ElaborationError("memory arrays must be declared 'reg'", net.loc)
        width, _ = self._range_width(net.range, scope.params)
        a_msb = const_int(net.array_range.msb, scope.params)
        a_lsb = const_int(net.array_range.lsb, scope.params)
        base = min(a_msb, a_lsb)
        size = abs(a_msb - a_lsb) + 1
        name = net.names[0]
        global_name = prefix + name
        self.design.memories[global_name] = Memory(
            name=global_name, width=width, size=size, base=base, signed=net.signed
        )
        scope.signal_map[name] = global_name

    def _add_function(
        self, decl: ast.FunctionDecl, scope: _Scope, prefix: str
    ) -> None:
        local_names = {decl.name}
        local_names.update(name for name, _, _ in decl.inputs)
        for net in decl.locals:
            local_names.update(net.names)
        renamer = _Renamer(scope, frozenset(local_names))
        body = renamer.stmt(decl.body)

        # Resolve input/local ranges against parameters now.
        inputs = []
        for name, rng, signed in decl.inputs:
            inputs.append((name, self._const_range(rng, scope.params), signed))
        locals_ = []
        for net in decl.locals:
            rng = _INT_RANGE if net.net_kind == "integer" else net.range
            locals_.append(
                net.clone(range=self._const_range(rng, scope.params))
            )
        global_name = prefix + decl.name
        new_decl = decl.clone(
            name=global_name,
            inputs=tuple(inputs),
            locals=tuple(locals_),
            body=body,
            range=self._const_range(decl.range, scope.params),
        )
        reads: set[str] = set()
        writes: set[str] = set()
        _collect_stmt_rw(body, reads, writes, self._funcs)
        global_reads = frozenset(
            r for r in reads if r not in local_names and r in self.design.signals
        )
        self._funcs[global_name] = _FuncInfo(decl=new_decl, global_reads=global_reads)
        scope.func_map[decl.name] = global_name

    def _const_range(
        self, rng: ast.Range | None, params: dict[str, LogicVec]
    ) -> ast.Range | None:
        if rng is None:
            return None
        msb = const_int(rng.msb, params)
        lsb = const_int(rng.lsb, params)
        return ast.Range(
            msb=ast.Number(value=LogicVec.from_int(msb, 32), loc=rng.loc),
            lsb=ast.Number(value=LogicVec.from_int(lsb, 32), loc=rng.loc),
            loc=rng.loc,
        )

    def _add_comb(self, stmt: ast.Stmt, prefix: str) -> None:
        assert self.design is not None
        reads: set[str] = set()
        writes: set[str] = set()
        _collect_stmt_rw(stmt, reads, writes, self._funcs)
        self.design.processes.append(
            Process(
                kind="comb",
                body=(stmt,),
                reads=frozenset(reads),
                writes=frozenset(writes),
                origin=prefix,
                continuous=True,
            )
        )

    def _add_always(
        self, item: ast.AlwaysBlock, scope: _Scope, prefix: str
    ) -> None:
        assert self.design is not None
        renamer = _Renamer(scope)
        body = renamer.stmt(item.body)
        reads: set[str] = set()
        writes: set[str] = set()
        _collect_stmt_rw(body, reads, writes, self._funcs)
        sens = item.sensitivity
        if sens.is_clocked:
            edges = []
            for event in sens.events:
                if event.edge == "level":
                    raise ElaborationError(
                        "mixing edge and level events in one sensitivity list "
                        "is not supported",
                        event.loc,
                    )
                signal = renamer.expr(event.signal)
                if not isinstance(signal, ast.Ident):
                    raise ElaborationError(
                        "edge events must name a plain signal", event.loc
                    )
                edges.append((event.edge, signal.name))
            self.design.processes.append(
                Process(
                    kind="clocked",
                    body=(body,),
                    edges=tuple(edges),
                    reads=frozenset(reads),
                    writes=frozenset(writes),
                    origin=prefix,
                )
            )
            return
        if sens.star:
            sensitivity = frozenset(reads)
        else:
            names: set[str] = set()
            for event in sens.events:
                signal = renamer.expr(event.signal)
                _collect_reads(signal, names, self._funcs)
            sensitivity = frozenset(names)
        self.design.processes.append(
            Process(
                kind="comb",
                body=(body,),
                reads=sensitivity,
                writes=frozenset(writes),
                origin=prefix,
            )
        )

    def _add_instance(
        self, item: ast.Instance, scope: _Scope, prefix: str, depth: int
    ) -> None:
        child = self.modules.get(item.module_name)
        if child is None:
            raise ElaborationError(
                f"instantiated module {item.module_name!r} is not defined", item.loc
            )
        # Parameter overrides are constants in the parent scope.
        child_param_names = [
            it.name
            for it in child.items
            if isinstance(it, ast.ParamDecl) and not it.local
        ]
        overrides: dict[str, LogicVec] = {}
        ordered_index = 0
        for name, expr in item.params:
            value = const_eval(expr, scope.params)
            if name is None:
                if ordered_index >= len(child_param_names):
                    raise ElaborationError(
                        "too many ordered parameter overrides", item.loc
                    )
                overrides[child_param_names[ordered_index]] = value
                ordered_index += 1
            else:
                overrides[name] = value
        # Port bindings: by name or by position.
        bindings: dict[str, tuple[ast.Expr | None, _Scope]] = {}
        for index, conn in enumerate(item.ports):
            if conn.name is not None:
                port_name = conn.name
            else:
                if index >= len(child.ports):
                    raise ElaborationError("too many port connections", conn.loc)
                port_name = child.ports[index]
            if port_name not in child.ports:
                raise ElaborationError(
                    f"module {child.name!r} has no port {port_name!r}", conn.loc
                )
            if conn.expr is not None:
                bindings[port_name] = (conn.expr, scope)
        self._elaborate_module(
            child,
            prefix=f"{prefix}{item.inst_name}.",
            overrides=overrides,
            depth=depth + 1,
            port_bindings=bindings,
        )


_INT_RANGE = ast.Range(
    msb=ast.Number(value=LogicVec.from_int(31, 32)),
    lsb=ast.Number(value=LogicVec.from_int(0, 32)),
)
