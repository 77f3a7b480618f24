"""4-state logic vectors with Verilog operator semantics.

A :class:`LogicVec` models a Verilog value of a fixed bit width.  Each bit
is one of ``0``, ``1`` or ``x``; the high-impedance state ``z`` is folded
into ``x`` (sufficient for the synthesizable subset, where ``z`` only
arises from undriven nets).

Representation: two Python integers used as bit masks.

- ``val``   -- bits that are known ``1``
- ``xmask`` -- bits that are unknown (``x``)

Invariants (enforced by the constructor):

- ``val & xmask == 0`` (an ``x`` bit carries no value)
- both masks fit in ``width`` bits

Semantics follow IEEE 1364 for the implemented operators:

- bitwise ops use per-bit dominance (``0 & x == 0``, ``1 | x == 1``)
- arithmetic with any ``x`` operand bit yields an all-``x`` result
- ``==``/``!=``/relational with ``x`` participation yield 1-bit ``x``
- ``===``/``!==`` compare the 4-state patterns exactly
- reductions honour dominance the same way bitwise ops do

All operations are pure; ``LogicVec`` instances are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class LogicVec:
    """An immutable fixed-width 4-state logic vector."""

    width: int
    val: int
    xmask: int = 0
    signed: bool = False

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"LogicVec width must be >= 1, got {self.width}")
        m = _mask(self.width)
        object.__setattr__(self, "xmask", self.xmask & m)
        object.__setattr__(self, "val", self.val & m & ~self.xmask)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_int(value: int, width: int, signed: bool = False) -> "LogicVec":
        """Build a fully-known vector from a Python integer (two's complement)."""
        if width < 1:
            return LogicVec(width, 0, 0, signed)  # raises ValueError
        return _vec(width, value & _mask(width), 0, signed)

    @staticmethod
    def all_x(width: int, signed: bool = False) -> "LogicVec":
        """Build a vector with every bit unknown."""
        if width < 1:
            return LogicVec(width, 0, 0, signed)  # raises ValueError
        return _vec(width, 0, _mask(width), signed)

    @staticmethod
    def from_bits(bits: str, signed: bool = False) -> "LogicVec":
        """Build from a binary string such as ``"10x1"`` (MSB first).

        ``x``/``z`` (either case) are unknown bits; ``_`` separators are
        ignored, matching Verilog literal syntax.
        """
        clean = bits.replace("_", "")
        if not clean:
            raise ValueError("empty bit string")
        val = 0
        xmask = 0
        for ch in clean:
            val <<= 1
            xmask <<= 1
            if ch == "1":
                val |= 1
            elif ch == "0":
                pass
            elif ch in "xXzZ?":
                xmask |= 1
            else:
                raise ValueError(f"bad bit character {ch!r}")
        return LogicVec(len(clean), val, xmask, signed)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def has_x(self) -> bool:
        """True when at least one bit is ``x``."""
        return self.xmask != 0

    def to_uint(self) -> int:
        """Unsigned integer value; raises if any bit is unknown."""
        if self.xmask:
            raise ValueError(f"cannot convert {self} with x bits to int")
        return self.val

    def to_int(self) -> int:
        """Integer value honouring the ``signed`` flag; raises on ``x``."""
        u = self.to_uint()
        if self.signed and (u >> (self.width - 1)) & 1:
            return u - (1 << self.width)
        return u

    def bit(self, index: int) -> "LogicVec":
        """Single-bit select.  Out-of-range indices read as ``x``."""
        if index < 0 or index >= self.width:
            return _X1
        return _BITS[(self.val >> index) & 1 | ((self.xmask >> index) & 1) << 1]

    def slice(self, msb: int, lsb: int) -> "LogicVec":
        """Part select ``[msb:lsb]``.  Out-of-range bits read as ``x``."""
        if msb < lsb:
            raise ValueError(f"part select [{msb}:{lsb}] has msb < lsb")
        width = msb - lsb + 1
        if lsb >= self.width or msb < 0:
            return LogicVec.all_x(width)
        if lsb >= 0:
            val = self.val >> lsb
            xm = self.xmask >> lsb
            low = 0
        else:
            val = self.val << -lsb
            xm = self.xmask << -lsb
            low = -lsb
        # Result bits from ``low`` up to the vector's top bit lie inside it;
        # the bits outside read as x.
        m = _mask(width)
        in_range = _mask(min(width, self.width - lsb)) ^ _mask(low)
        xm = (xm | (m ^ in_range)) & m
        return _vec(width, val & m & ~xm, xm, False)

    def resize(self, width: int, signed: bool | None = None) -> "LogicVec":
        """Zero/sign extend or truncate to ``width``.

        Sign (or ``x``-sign) extension applies when the vector is signed;
        ``signed`` overrides the result's signedness flag.
        """
        out_signed = self.signed if signed is None else signed
        if width == self.width:
            if out_signed == self.signed:
                return self  # frozen and compared by value: no copy needed
            return _vec(width, self.val, self.xmask, out_signed)
        if width < self.width:
            if width < 1:
                return LogicVec(width, 0, 0, out_signed)  # raises ValueError
            m = _mask(width)
            return _vec(width, self.val & m, self.xmask & m, out_signed)
        ext = width - self.width
        top = self.width - 1
        val = self.val
        xm = self.xmask
        if self.signed:
            if (xm >> top) & 1:
                xm |= _mask(ext) << self.width
            elif (val >> top) & 1:
                val |= _mask(ext) << self.width
        return _vec(width, val, xm, out_signed)

    def as_signed(self) -> "LogicVec":
        return _vec(self.width, self.val, self.xmask, True)

    def as_unsigned(self) -> "LogicVec":
        return _vec(self.width, self.val, self.xmask, False)

    # ------------------------------------------------------------------
    # Truthiness (for logical ops and conditions)
    # ------------------------------------------------------------------

    def truth(self) -> "LogicVec":
        """Verilog truthiness as a 1-bit value.

        True when any bit is known ``1``; false when every bit is known
        ``0``; ``x`` otherwise.
        """
        if self.val:
            return _ONE
        if self.xmask:
            return _X1
        return _ZERO

    def is_true(self) -> bool:
        """Python-level: condition taken (known 1 somewhere)."""
        return self.val != 0

    def is_false(self) -> bool:
        """Python-level: condition definitely not taken."""
        return self.val == 0 and self.xmask == 0

    # ------------------------------------------------------------------
    # Bitwise operators
    # ------------------------------------------------------------------

    def _coerce(self, other: "LogicVec") -> tuple["LogicVec", "LogicVec", int, bool]:
        width = max(self.width, other.width)
        signed = self.signed and other.signed
        return (self.resize(width), other.resize(width), width, signed)

    def bit_and(self, other: "LogicVec") -> "LogicVec":
        a, b, width, signed = self._coerce(other)
        known0 = (~a.val & ~a.xmask) | (~b.val & ~b.xmask)
        xm = (a.xmask | b.xmask) & ~known0 & _mask(width)
        return _vec(width, a.val & b.val, xm, signed)

    def bit_or(self, other: "LogicVec") -> "LogicVec":
        a, b, width, signed = self._coerce(other)
        known1 = a.val | b.val
        xm = (a.xmask | b.xmask) & ~known1 & _mask(width)
        return _vec(width, known1 & ~xm, xm, signed)

    def bit_xor(self, other: "LogicVec") -> "LogicVec":
        a, b, width, signed = self._coerce(other)
        xm = a.xmask | b.xmask
        return _vec(width, (a.val ^ b.val) & ~xm, xm, signed)

    def bit_xnor(self, other: "LogicVec") -> "LogicVec":
        return self.bit_xor(other).bit_not()

    def bit_not(self) -> "LogicVec":
        m = _mask(self.width)
        return _vec(self.width, ~self.val & m & ~self.xmask, self.xmask, self.signed)

    # ------------------------------------------------------------------
    # Arithmetic (any x => all x, per IEEE 1364)
    # ------------------------------------------------------------------

    def _arith_ints(self, other: "LogicVec") -> tuple[int, int, int, bool] | None:
        a, b, width, signed = self._coerce(other)
        if a.xmask or b.xmask:
            return None
        if signed:
            return (a.as_signed().to_int(), b.as_signed().to_int(), width, signed)
        return (a.val, b.val, width, signed)

    def add(self, other: "LogicVec") -> "LogicVec":
        ints = self._arith_ints(other)
        if ints is None:
            return LogicVec.all_x(max(self.width, other.width))
        x, y, width, signed = ints
        return _vec(width, (x + y) & _mask(width), 0, signed)

    def sub(self, other: "LogicVec") -> "LogicVec":
        ints = self._arith_ints(other)
        if ints is None:
            return LogicVec.all_x(max(self.width, other.width))
        x, y, width, signed = ints
        return _vec(width, (x - y) & _mask(width), 0, signed)

    def mul(self, other: "LogicVec") -> "LogicVec":
        ints = self._arith_ints(other)
        if ints is None:
            return LogicVec.all_x(max(self.width, other.width))
        x, y, width, signed = ints
        return _vec(width, (x * y) & _mask(width), 0, signed)

    def div(self, other: "LogicVec") -> "LogicVec":
        ints = self._arith_ints(other)
        if ints is None or ints[1] == 0:
            return LogicVec.all_x(max(self.width, other.width))
        x, y, width, signed = ints
        q = abs(x) // abs(y)
        if (x < 0) != (y < 0):
            q = -q
        return _vec(width, q & _mask(width), 0, signed)

    def mod(self, other: "LogicVec") -> "LogicVec":
        ints = self._arith_ints(other)
        if ints is None or ints[1] == 0:
            return LogicVec.all_x(max(self.width, other.width))
        x, y, width, signed = ints
        r = abs(x) % abs(y)
        if x < 0:
            r = -r
        return _vec(width, r & _mask(width), 0, signed)

    def pow(self, other: "LogicVec") -> "LogicVec":
        ints = self._arith_ints(other)
        if ints is None:
            return LogicVec.all_x(max(self.width, other.width))
        x, y, width, signed = ints
        if y < 0:
            return LogicVec.all_x(width)
        return _vec(width, pow(x, y) & _mask(width), 0, signed)

    def neg(self) -> "LogicVec":
        if self.xmask:
            return LogicVec.all_x(self.width, self.signed)
        return _vec(self.width, (-self.val) & _mask(self.width), 0, self.signed)

    # ------------------------------------------------------------------
    # Shifts
    # ------------------------------------------------------------------

    def shl(self, amount: "LogicVec") -> "LogicVec":
        if amount.xmask:
            return LogicVec.all_x(self.width, self.signed)
        n = amount.val
        m = _mask(self.width)
        return _vec(self.width, (self.val << n) & m, (self.xmask << n) & m, self.signed)

    def shr(self, amount: "LogicVec") -> "LogicVec":
        if amount.xmask:
            return LogicVec.all_x(self.width, self.signed)
        n = amount.val
        return _vec(self.width, self.val >> n, self.xmask >> n, self.signed)

    def ashr(self, amount: "LogicVec") -> "LogicVec":
        """Arithmetic right shift; replicates the sign bit when signed."""
        if amount.xmask:
            return LogicVec.all_x(self.width, self.signed)
        if not self.signed:
            return self.shr(amount)
        n = min(amount.val, self.width)
        top = self.width - 1
        fill = _mask(n) << (self.width - n) if n else 0
        val = self.val >> n
        xm = self.xmask >> n
        if (self.xmask >> top) & 1:
            xm |= fill
        elif (self.val >> top) & 1:
            val |= fill
        return _vec(self.width, val, xm, True)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------

    def eq(self, other: "LogicVec") -> "LogicVec":
        a, b, width, _ = self._coerce(other)
        if a.xmask or b.xmask:
            # A known-bit conflict decides inequality even with x elsewhere.
            agreed = ~(a.xmask | b.xmask) & _mask(width)
            if (a.val ^ b.val) & agreed:
                return _ZERO
            return _X1
        return _ONE if a.val == b.val else _ZERO

    def neq(self, other: "LogicVec") -> "LogicVec":
        return self.eq(other).logical_not()

    def case_eq(self, other: "LogicVec") -> "LogicVec":
        a, b, _, _ = self._coerce(other)
        same = a.val == b.val and a.xmask == b.xmask
        return _ONE if same else _ZERO

    def case_neq(self, other: "LogicVec") -> "LogicVec":
        return self.case_eq(other).bit_not()

    def _compare(self, other: "LogicVec") -> int | None:
        """Three-way compare; None when x participates."""
        a, b, _, signed = self._coerce(other)
        if a.xmask or b.xmask:
            return None
        x = a.as_signed().to_int() if signed else a.val
        y = b.as_signed().to_int() if signed else b.val
        return (x > y) - (x < y)

    def lt(self, other: "LogicVec") -> "LogicVec":
        c = self._compare(other)
        return _X1 if c is None else (_ONE if c < 0 else _ZERO)

    def le(self, other: "LogicVec") -> "LogicVec":
        c = self._compare(other)
        return _X1 if c is None else (_ONE if c <= 0 else _ZERO)

    def gt(self, other: "LogicVec") -> "LogicVec":
        c = self._compare(other)
        return _X1 if c is None else (_ONE if c > 0 else _ZERO)

    def ge(self, other: "LogicVec") -> "LogicVec":
        c = self._compare(other)
        return _X1 if c is None else (_ONE if c >= 0 else _ZERO)

    # ------------------------------------------------------------------
    # Logical operators
    # ------------------------------------------------------------------

    def logical_and(self, other: "LogicVec") -> "LogicVec":
        a, b = self.truth(), other.truth()
        if a.is_false() or b.is_false():
            return _ZERO
        if a.has_x or b.has_x:
            return _X1
        return _ONE

    def logical_or(self, other: "LogicVec") -> "LogicVec":
        a, b = self.truth(), other.truth()
        if a.is_true() or b.is_true():
            return _ONE
        if a.has_x or b.has_x:
            return _X1
        return _ZERO

    def logical_not(self) -> "LogicVec":
        t = self.truth()
        if t.has_x:
            return _X1
        return _ZERO if t.is_true() else _ONE

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def reduce_and(self) -> "LogicVec":
        m = _mask(self.width)
        if (~self.val & ~self.xmask) & m:
            return _ZERO
        if self.xmask:
            return _X1
        return _ONE

    def reduce_or(self) -> "LogicVec":
        if self.val:
            return _ONE
        if self.xmask:
            return _X1
        return _ZERO

    def reduce_xor(self) -> "LogicVec":
        if self.xmask:
            return _X1
        return _ONE if bin(self.val).count("1") & 1 else _ZERO

    def reduce_nand(self) -> "LogicVec":
        return self.reduce_and().bit_not()

    def reduce_nor(self) -> "LogicVec":
        return self.reduce_or().bit_not()

    def reduce_xnor(self) -> "LogicVec":
        return self.reduce_xor().bit_not()

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    @staticmethod
    def concat(parts: list["LogicVec"]) -> "LogicVec":
        """Concatenate MSB-first, as Verilog ``{a, b, c}``."""
        if not parts:
            raise ValueError("cannot concatenate zero parts")
        val = 0
        xm = 0
        width = 0
        for p in parts:
            val = (val << p.width) | p.val
            xm = (xm << p.width) | p.xmask
            width += p.width
        return _vec(width, val, xm, False)

    def replicate(self, count: int) -> "LogicVec":
        if count < 1:
            raise ValueError(f"replication count must be >= 1, got {count}")
        return LogicVec.concat([self] * count)

    def set_slice(self, msb: int, lsb: int, value: "LogicVec") -> "LogicVec":
        """Return a copy with bits ``[msb:lsb]`` replaced by ``value``."""
        if msb < lsb:
            raise ValueError(f"part select [{msb}:{lsb}] has msb < lsb")
        width = msb - lsb + 1
        src = value.resize(width)
        field = _mask(width)
        lo = max(lsb, 0)
        if lsb < 0:
            field >>= -lsb
            src = src.slice(width - 1, -lsb)
        keep = ~(field << lo) & _mask(self.width)
        val = (self.val & keep) | ((src.val << lo) & ~keep & _mask(self.width))
        xm = (self.xmask & keep) | ((src.xmask << lo) & ~keep & _mask(self.width))
        return _vec(self.width, val, xm, self.signed)

    # ------------------------------------------------------------------
    # Matching helpers for case statements
    # ------------------------------------------------------------------

    def matches_casez(self, item: "LogicVec") -> bool:
        """casez matching: x/z bits in *either* pattern are don't-care.

        (We fold z into x, so this also serves casex.)
        """
        a, b, width, _ = self._coerce(item)
        care = ~(a.xmask | b.xmask) & _mask(width)
        return (a.val & care) == (b.val & care)

    def matches_case(self, item: "LogicVec") -> bool:
        """Plain case matching: exact 4-state equality."""
        return self.case_eq(item).is_true()

    # ------------------------------------------------------------------
    # Formatting
    # ------------------------------------------------------------------

    def to_bits(self) -> str:
        """Binary string, MSB first, with ``x`` for unknown bits."""
        out = []
        for i in range(self.width - 1, -1, -1):
            if (self.xmask >> i) & 1:
                out.append("x")
            else:
                out.append("1" if (self.val >> i) & 1 else "0")
        return "".join(out)

    def format_verilog(self) -> str:
        """Render as a Verilog literal, e.g. ``4'b10x0`` or ``8'd42``."""
        if self.xmask:
            return f"{self.width}'b{self.to_bits()}"
        return f"{self.width}'d{self.val}"

    def format_display(self) -> str:
        """Waveform-log rendering: decimal when known, else binary."""
        if self.xmask == 0:
            return str(self.val)
        return self.to_bits()

    def __str__(self) -> str:
        return f"{self.width}'b{self.to_bits()}"

    def __repr__(self) -> str:
        s = ", signed" if self.signed else ""
        return f"LogicVec({self.width}'b{self.to_bits()}{s})"


_new = object.__new__


def _vec(width: int, val: int, xmask: int, signed: bool) -> LogicVec:
    """Build a vector whose fields already hold the class invariants.

    Skips ``__post_init__``'s validation and re-masking: the caller
    guarantees ``width >= 1``, both masks within ``width`` bits and
    ``val & xmask == 0``.  The instance is indistinguishable from one the
    constructor builds (same fields in the same order, so equality,
    hashing and pickles match).
    """
    vec = _new(LogicVec)
    fields = vec.__dict__
    fields["width"] = width
    fields["val"] = val
    fields["xmask"] = xmask
    fields["signed"] = signed
    return vec


_ZERO = LogicVec(1, 0)
_ONE = LogicVec(1, 1)
_X1 = LogicVec(1, 0, 1)
# 1-bit values by ``val | xmask << 1`` (index 3 cannot occur).
_BITS = (_ZERO, _ONE, _X1)
