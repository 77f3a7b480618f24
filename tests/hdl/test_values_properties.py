"""Property-based tests: LogicVec must agree with Python integer
semantics on fully-known values, and preserve structural invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.values import LogicVec

widths = st.integers(min_value=1, max_value=64)


@st.composite
def known_pair(draw):
    """Two fully-known vectors of one width."""
    width = draw(widths)
    mask = (1 << width) - 1
    a = draw(st.integers(min_value=0, max_value=mask))
    b = draw(st.integers(min_value=0, max_value=mask))
    return LogicVec.from_int(a, width), LogicVec.from_int(b, width), width


@st.composite
def any_vec(draw):
    """A vector that may contain x bits."""
    width = draw(widths)
    mask = (1 << width) - 1
    val = draw(st.integers(min_value=0, max_value=mask))
    xmask = draw(st.integers(min_value=0, max_value=mask))
    return LogicVec(width, val, xmask)


@given(known_pair())
def test_add_matches_python(pair):
    a, b, width = pair
    assert a.add(b).to_uint() == (a.to_uint() + b.to_uint()) & ((1 << width) - 1)


@given(known_pair())
def test_sub_matches_python(pair):
    a, b, width = pair
    assert a.sub(b).to_uint() == (a.to_uint() - b.to_uint()) & ((1 << width) - 1)


@given(known_pair())
def test_mul_matches_python(pair):
    a, b, width = pair
    assert a.mul(b).to_uint() == (a.to_uint() * b.to_uint()) & ((1 << width) - 1)


@given(known_pair())
def test_bitwise_matches_python(pair):
    a, b, _ = pair
    assert a.bit_and(b).to_uint() == a.to_uint() & b.to_uint()
    assert a.bit_or(b).to_uint() == a.to_uint() | b.to_uint()
    assert a.bit_xor(b).to_uint() == a.to_uint() ^ b.to_uint()


@given(known_pair())
def test_comparisons_match_python(pair):
    a, b, _ = pair
    assert a.lt(b).is_true() == (a.to_uint() < b.to_uint())
    assert a.ge(b).is_true() == (a.to_uint() >= b.to_uint())
    assert a.eq(b).is_true() == (a.to_uint() == b.to_uint())


@given(known_pair())
def test_signed_comparisons_match_python(pair):
    a, b, _ = pair
    sa, sb = a.as_signed(), b.as_signed()
    assert sa.lt(sb).is_true() == (sa.to_int() < sb.to_int())


@given(any_vec())
def test_invariant_val_disjoint_from_xmask(v):
    assert v.val & v.xmask == 0


@given(any_vec())
def test_double_not_is_identity(v):
    assert v.bit_not().bit_not() == v


@given(any_vec())
def test_to_bits_roundtrip(v):
    assert LogicVec.from_bits(v.to_bits()) == LogicVec(v.width, v.val, v.xmask)


@given(any_vec(), widths)
def test_resize_then_back_preserves_low_bits(v, new_width):
    grown = v.resize(v.width + new_width)
    back = grown.resize(v.width)
    assert back.val == v.val and back.xmask == v.xmask


@given(any_vec(), any_vec())
def test_concat_slices_back(a, b):
    joined = LogicVec.concat([a, b])
    assert joined.width == a.width + b.width
    hi = joined.slice(joined.width - 1, b.width)
    lo = joined.slice(b.width - 1, 0)
    assert (hi.val, hi.xmask) == (a.val, a.xmask)
    assert (lo.val, lo.xmask) == (b.val, b.xmask)


@given(any_vec())
def test_case_eq_reflexive(v):
    assert v.case_eq(v).is_true()


@given(any_vec(), any_vec())
def test_and_or_de_morgan(a, b):
    b = b.resize(a.width) if b.width < a.width else b
    a2 = a.resize(b.width) if a.width < b.width else a
    left = a2.bit_and(b).bit_not()
    right = a2.bit_not().bit_or(b.bit_not())
    assert left == right


@given(any_vec())
def test_reduce_or_false_means_all_zero(v):
    if v.reduce_or().is_false():
        assert v.val == 0 and v.xmask == 0


@given(known_pair())
@settings(max_examples=60)
def test_shift_matches_python(pair):
    a, b, width = pair
    amount = LogicVec.from_int(b.to_uint() % (width + 2), 8)
    mask = (1 << width) - 1
    assert a.shl(amount).to_uint() == (a.to_uint() << amount.to_uint()) & mask
    assert a.shr(amount).to_uint() == a.to_uint() >> amount.to_uint()


@given(any_vec())
def test_truth_trichotomy(v):
    t = v.truth()
    assert t.is_true() + t.is_false() + t.has_x == 1


@st.composite
def signed_vec(draw):
    """A vector that may contain x bits and may be signed."""
    v = draw(any_vec())
    return LogicVec(v.width, v.val, v.xmask, draw(st.booleans()))


def _bits(v: LogicVec) -> list[str]:
    """LSB-first per-bit states: '0', '1' or 'x'."""
    return [
        "x" if (v.xmask >> i) & 1 else str((v.val >> i) & 1)
        for i in range(v.width)
    ]


@given(signed_vec(), widths, st.sampled_from([None, False, True]))
def test_resize_matches_constructor(v, width, signed):
    bits = _bits(v)[:width]
    fill = bits[-1] if v.signed else "0"
    bits += [fill] * (width - len(bits))
    val = sum(1 << i for i, b in enumerate(bits) if b == "1")
    xmask = sum(1 << i for i, b in enumerate(bits) if b == "x")
    out_signed = v.signed if signed is None else signed
    assert v.resize(width, signed) == LogicVec(width, val, xmask, out_signed)


@given(signed_vec(), st.booleans())
def test_resize_to_same_shape_returns_self(v, pass_sign):
    assert v.resize(v.width, v.signed if pass_sign else None) is v


def _slice_by_loop(v: LogicVec, msb: int, lsb: int) -> LogicVec:
    """The per-bit part select ``slice`` replaced: out-of-range bits read x."""
    width = msb - lsb + 1
    if lsb >= v.width or msb < 0:
        return LogicVec.all_x(width)
    val = (v.val >> max(lsb, 0)) if lsb >= 0 else (v.val << -lsb)
    xm = (v.xmask >> max(lsb, 0)) if lsb >= 0 else (v.xmask << -lsb)
    out_of_range = 0
    for i in range(width):
        src = lsb + i
        if src < 0 or src >= v.width:
            out_of_range |= 1 << i
    return LogicVec(width, val, xm | out_of_range)


@given(signed_vec(), st.integers(-70, 70), st.integers(0, 70))
@settings(max_examples=300)
def test_slice_matches_per_bit_loop(v, lsb, span):
    """Negative ``lsb``, ``msb >= width`` and fully-outside ranges included."""
    msb = lsb + span
    got = v.slice(msb, lsb)
    assert got == _slice_by_loop(v, msb, lsb)
    assert (got.width, got.val, got.xmask, got.signed) == (
        span + 1,
        got.val & ~got.xmask,
        got.xmask & ((1 << (span + 1)) - 1),
        False,
    )


@given(signed_vec(), signed_vec())
def test_results_hold_the_invariants(a, b):
    """Results built without re-masking equal what the constructor builds."""
    results = [
        a.bit_and(b), a.bit_or(b), a.bit_xor(b), a.bit_not(), a.add(b),
        a.sub(b), a.mul(b), a.neg(), a.as_signed(), a.as_unsigned(),
        a.resize(b.width), a.resize(a.width + 3, True), a.bit(b.width % 9),
        a.shl(LogicVec.from_int(b.width % 7, 3)), a.shr(LogicVec.from_int(2, 3)),
        a.ashr(LogicVec.from_int(b.width % 7, 3)), LogicVec.concat([a, b]),
        a.set_slice(min(b.width, a.width) - 1, 0, b), a.eq(b), a.lt(b), a.truth(),
    ]  # fmt: skip
    for r in results:
        assert r == LogicVec(r.width, r.val, r.xmask, r.signed)
        assert list(vars(r)) == ["width", "val", "xmask", "signed"]


def test_fast_built_vectors_pickle_like_constructed_ones():
    import pickle

    built = LogicVec.from_int(0xA5, 8).resize(8, True)
    constructed = LogicVec(8, 0xA5, 0, True)
    assert pickle.dumps(built) == pickle.dumps(constructed)
    assert hash(built) == hash(constructed)
    assert pickle.loads(pickle.dumps(built)) == constructed
