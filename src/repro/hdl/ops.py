"""Operator dispatch shared by constant evaluation and simulation.

Maps Verilog operator spellings onto :class:`LogicVec` methods so the
elaborator's constant folder and the lowered simulator
(:mod:`repro.hdl.lower`) cannot drift apart semantically.
"""

from __future__ import annotations

from repro.hdl.errors import HdlError
from repro.hdl.values import LogicVec

BINARY_OPS = {
    "+": LogicVec.add,
    "-": LogicVec.sub,
    "*": LogicVec.mul,
    "/": LogicVec.div,
    "%": LogicVec.mod,
    "**": LogicVec.pow,
    "&": LogicVec.bit_and,
    "|": LogicVec.bit_or,
    "^": LogicVec.bit_xor,
    "~^": LogicVec.bit_xnor,
    "^~": LogicVec.bit_xnor,
    "==": LogicVec.eq,
    "!=": LogicVec.neq,
    "===": LogicVec.case_eq,
    "!==": LogicVec.case_neq,
    "<": LogicVec.lt,
    "<=": LogicVec.le,
    ">": LogicVec.gt,
    ">=": LogicVec.ge,
    "&&": LogicVec.logical_and,
    "||": LogicVec.logical_or,
    "<<": LogicVec.shl,
    ">>": LogicVec.shr,
    "<<<": LogicVec.shl,
    ">>>": LogicVec.ashr,
}

UNARY_OPS = {
    "~": LogicVec.bit_not,
    "!": LogicVec.logical_not,
    "-": LogicVec.neg,
    "+": lambda v: v,
    "&": LogicVec.reduce_and,
    "|": LogicVec.reduce_or,
    "^": LogicVec.reduce_xor,
    "~&": LogicVec.reduce_nand,
    "~|": LogicVec.reduce_nor,
    "~^": LogicVec.reduce_xnor,
    "^~": LogicVec.reduce_xnor,
}


def apply_binary(op: str, left: LogicVec, right: LogicVec) -> LogicVec:
    """Apply a binary Verilog operator."""
    fn = BINARY_OPS.get(op)
    if fn is None:
        raise HdlError(f"unsupported binary operator {op!r}")
    return fn(left, right)


def apply_unary(op: str, operand: LogicVec) -> LogicVec:
    """Apply a unary Verilog operator."""
    fn = UNARY_OPS.get(op)
    if fn is None:
        raise HdlError(f"unsupported unary operator {op!r}")
    return fn(operand)


def clog2(value: int) -> int:
    """Verilog-2005 ``$clog2``: ceil(log2(value)), with $clog2(0) == 0."""
    if value <= 1:
        return 0
    return (value - 1).bit_length()
