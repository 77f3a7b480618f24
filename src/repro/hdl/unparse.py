"""Render an AST back into Verilog source text.

The mutation engine edits golden ASTs and materialises candidates
through this module, so round-tripping ``parse -> unparse -> parse``
must preserve semantics (checked by property tests).
"""

from __future__ import annotations

from repro.hdl import ast_nodes as ast

_PAREN_PRECEDENCE = {
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

_UNARY_PRECEDENCE = 12


def unparse_expr(expr: ast.Expr, parent_prec: int = 0) -> str:
    """Render one expression, parenthesising as needed."""
    if isinstance(expr, ast.Number):
        if expr.text is not None and not expr.text.startswith('"'):
            return expr.text
        return expr.value.format_verilog()
    if isinstance(expr, ast.Ident):
        return expr.name
    if isinstance(expr, ast.BitSelect):
        return f"{unparse_expr(expr.base, _UNARY_PRECEDENCE)}[{unparse_expr(expr.index)}]"
    if isinstance(expr, ast.PartSelect):
        base = unparse_expr(expr.base, _UNARY_PRECEDENCE)
        return f"{base}[{unparse_expr(expr.msb)}:{unparse_expr(expr.lsb)}]"
    if isinstance(expr, ast.IndexedPartSelect):
        base = unparse_expr(expr.base, _UNARY_PRECEDENCE)
        op = "-:" if expr.down else "+:"
        return f"{base}[{unparse_expr(expr.start)} {op} {unparse_expr(expr.width)}]"
    if isinstance(expr, ast.Unary):
        inner = unparse_expr(expr.operand, _UNARY_PRECEDENCE + 1)
        text = f"{expr.op}{inner}"
        return f"({text})" if parent_prec > _UNARY_PRECEDENCE else text
    if isinstance(expr, ast.Binary):
        prec = _PAREN_PRECEDENCE[expr.op]
        left = unparse_expr(expr.left, prec)
        right = unparse_expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, ast.Ternary):
        cond = unparse_expr(expr.cond, 1)
        then = unparse_expr(expr.then)
        els = unparse_expr(expr.els)
        text = f"{cond} ? {then} : {els}"
        return f"({text})" if parent_prec > 0 else text
    if isinstance(expr, ast.Concat):
        return "{" + ", ".join(unparse_expr(p) for p in expr.parts) + "}"
    if isinstance(expr, ast.Replicate):
        return "{" + unparse_expr(expr.count) + "{" + unparse_expr(expr.inner) + "}}"
    if isinstance(expr, ast.FuncCall):
        args = ", ".join(unparse_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    raise TypeError(f"cannot unparse expression node {type(expr).__name__}")


def _range_text(rng: ast.Range | None) -> str:
    if rng is None:
        return ""
    return f"[{unparse_expr(rng.msb)}:{unparse_expr(rng.lsb)}] "


def unparse_stmt(stmt: ast.Stmt, indent: int = 1) -> list[str]:
    """Render one statement as a list of indented source lines."""
    pad = "    " * indent
    if isinstance(stmt, ast.Block):
        header = f"{pad}begin" + (f" : {stmt.name}" if stmt.name else "")
        lines = [header]
        for sub in stmt.stmts:
            lines.extend(unparse_stmt(sub, indent + 1))
        lines.append(f"{pad}end")
        return lines
    if isinstance(stmt, ast.If):
        lines = [f"{pad}if ({unparse_expr(stmt.cond)})"]
        lines.extend(unparse_stmt(stmt.then_stmt, indent + 1))
        if stmt.else_stmt is not None:
            lines.append(f"{pad}else")
            lines.extend(unparse_stmt(stmt.else_stmt, indent + 1))
        return lines
    if isinstance(stmt, ast.Case):
        lines = [f"{pad}{stmt.kind} ({unparse_expr(stmt.subject)})"]
        for item in stmt.items:
            if item.exprs:
                label = ", ".join(unparse_expr(e) for e in item.exprs)
            else:
                label = "default"
            lines.append(f"{pad}    {label}:")
            lines.extend(unparse_stmt(item.body, indent + 2))
        lines.append(f"{pad}endcase")
        return lines
    if isinstance(stmt, ast.For):
        init = _assign_text(stmt.init)
        step = _assign_text(stmt.step)
        lines = [f"{pad}for ({init}; {unparse_expr(stmt.cond)}; {step})"]
        lines.extend(unparse_stmt(stmt.body, indent + 1))
        return lines
    if isinstance(stmt, ast.BlockingAssign):
        return [f"{pad}{_assign_text(stmt)};"]
    if isinstance(stmt, ast.NonblockingAssign):
        return [f"{pad}{unparse_expr(stmt.target)} <= {unparse_expr(stmt.value)};"]
    if isinstance(stmt, ast.SysCall):
        args = ", ".join(unparse_expr(a) for a in stmt.args)
        return [f"{pad}{stmt.name}({args});"]
    if isinstance(stmt, ast.NullStmt):
        return [f"{pad};"]
    raise TypeError(f"cannot unparse statement node {type(stmt).__name__}")


def _assign_text(assign: ast.BlockingAssign) -> str:
    return f"{unparse_expr(assign.target)} = {unparse_expr(assign.value)}"


def _unparse_item(item: ast.ModuleItem) -> list[str]:
    if isinstance(item, ast.PortDecl):
        kind = "" if item.net_kind == "wire" else f" {item.net_kind}"
        signed = " signed" if item.signed else ""
        rng = _range_text(item.range)
        names = ", ".join(item.names)
        return [f"    {item.direction}{kind}{signed} {rng}{names};"]
    if isinstance(item, ast.NetDecl):
        signed = " signed" if item.signed and item.net_kind != "integer" else ""
        rng = _range_text(item.range)
        if item.array_range is not None:
            arr = _range_text(item.array_range).strip()
            return [f"    {item.net_kind}{signed} {rng}{item.names[0]} {arr};"]
        if item.init is not None:
            return [
                f"    {item.net_kind}{signed} {rng}{item.names[0]}"
                f" = {unparse_expr(item.init)};"
            ]
        return [f"    {item.net_kind}{signed} {rng}{', '.join(item.names)};"]
    if isinstance(item, ast.ParamDecl):
        kw = "localparam" if item.local else "parameter"
        rng = _range_text(item.range)
        return [f"    {kw} {rng}{item.name} = {unparse_expr(item.value)};"]
    if isinstance(item, ast.ContinuousAssign):
        return [
            f"    assign {unparse_expr(item.target)} = {unparse_expr(item.value)};"
        ]
    if isinstance(item, ast.AlwaysBlock):
        sens = item.sensitivity
        if sens.star:
            header = "    always @(*)"
        else:
            events = []
            for ev in sens.events:
                prefix = {"pos": "posedge ", "neg": "negedge ", "level": ""}[ev.edge]
                events.append(prefix + unparse_expr(ev.signal))
            header = f"    always @({' or '.join(events)})"
        return [header] + unparse_stmt(item.body, 2)
    if isinstance(item, ast.InitialBlock):
        return ["    initial"] + unparse_stmt(item.body, 2)
    if isinstance(item, ast.FunctionDecl):
        signed = " signed" if item.signed else ""
        rng = _range_text(item.range)
        lines = [f"    function{signed} {rng}{item.name};"]
        for name, in_rng, in_signed in item.inputs:
            s = " signed" if in_signed else ""
            lines.append(f"        input{s} {_range_text(in_rng)}{name};")
        for local in item.locals:
            lines.extend("    " + text for text in _unparse_item(local))
        lines.extend(unparse_stmt(item.body, 2))
        lines.append("    endfunction")
        return lines
    if isinstance(item, ast.Instance):
        text = f"    {item.module_name}"
        if item.params:
            binds = []
            for name, expr in item.params:
                rendered = unparse_expr(expr)
                binds.append(f".{name}({rendered})" if name else rendered)
            text += " #(" + ", ".join(binds) + ")"
        conns = []
        for conn in item.ports:
            expr = "" if conn.expr is None else unparse_expr(conn.expr)
            conns.append(f".{conn.name}({expr})" if conn.name else expr)
        text += f" {item.inst_name} (" + ", ".join(conns) + ");"
        return [text]
    raise TypeError(f"cannot unparse module item {type(item).__name__}")


def unparse_module(module: ast.Module) -> str:
    """Render a whole module as Verilog source."""
    header_port_names = set()
    header_decls: list[str] = []
    body_items: list[ast.ModuleItem] = []
    # Ports declared in the header keep ANSI style on output.
    port_decl_map: dict[str, ast.PortDecl] = {}
    for item in module.items:
        if isinstance(item, ast.PortDecl) and len(item.names) == 1:
            port_decl_map.setdefault(item.names[0], item)
        else:
            body_items.append(item)
    for port in module.ports:
        decl = port_decl_map.get(port)
        if decl is None:
            header_decls.append(port)
            continue
        header_port_names.add(port)
        kind = "" if decl.net_kind == "wire" else f" {decl.net_kind}"
        signed = " signed" if decl.signed else ""
        rng = _range_text(decl.range)
        header_decls.append(f"{decl.direction}{kind}{signed} {rng}{port}".strip())
    lines = [f"module {module.name} ("]
    for i, decl in enumerate(header_decls):
        comma = "," if i < len(header_decls) - 1 else ""
        lines.append(f"    {decl}{comma}")
    lines.append(");")
    for item in body_items:
        lines.extend(_unparse_item(item))
    # Port declarations that never appeared in the header port order
    # (classic style modules) are emitted in the body.
    for name, decl in port_decl_map.items():
        if name not in header_port_names and name not in module.ports:
            lines.extend(_unparse_item(decl))
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
