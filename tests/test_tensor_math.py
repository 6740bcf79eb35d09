"""Kernel tests: independent scalar converters and a compensated-summation
oracle check the vectorized paths."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moemerge import DType, decode, encode, linear_combination, normalized_frobenius_diff
from moemerge.errors import UnsupportedDTypeError


# --- independent scalar reference converters ---------------------------------


def bf16_encode_scalar(x: float) -> int:
    """float -> BF16 bits: round to f32 first, then RNE to the top 16 bits."""
    u32 = struct.unpack("<I", struct.pack("<f", x))[0]
    if math.isnan(x):
        return (u32 >> 16) | 0x0040
    return ((u32 + 0x7FFF + ((u32 >> 16) & 1)) >> 16) & 0xFFFF


def bf16_decode_scalar(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", (bits & 0xFFFF) << 16))[0]


def f16_encode_scalar(x: float) -> int:
    try:
        return struct.unpack("<H", struct.pack("<e", x))[0]
    except OverflowError:
        return 0xFC00 if x < 0 else 0x7C00


# --- decode -------------------------------------------------------------------


def test_decode_bf16_one():
    assert decode(struct.pack("<H", 0x3F80), DType.BF16).tolist() == [1.0]


def test_decode_f16_half():
    assert decode(struct.pack("<e", 0.5), DType.F16).tolist() == [0.5]


def test_decode_f32_values():
    raw = np.array([1.0, 2.0], dtype="<f4").tobytes()
    assert decode(raw, DType.F32).tolist() == [1.0, 2.0]


def test_decode_integer_and_bool():
    assert decode(np.array([-3, 7], dtype="<i4").tobytes(), DType.I32).tolist() == [-3.0, 7.0]
    assert decode(b"\x01\x00", DType.BOOL).tolist() == [1.0, 0.0]


def test_decode_rejects_ragged_length():
    with pytest.raises(ValueError, match="divisible"):
        decode(b"\x00\x00\x00", DType.F32)


def test_decode_rejects_non_dtype():
    with pytest.raises(UnsupportedDTypeError):
        decode(b"", "F32")


def test_f32_roundtrip_random():
    rng = np.random.default_rng(123)
    values = rng.standard_normal(1000).astype(np.float32)
    raw = values.tobytes()
    assert encode(decode(raw, DType.F32), DType.F32) == raw


# --- encode -------------------------------------------------------------------


def test_encode_bf16_exact_one():
    assert encode(np.array([1.0]), DType.BF16) == struct.pack("<H", 0x3F80)


def test_encode_bf16_tie_rounds_to_even():
    # halfway between 0x3F80 (1.0) and 0x3F81
    assert encode(np.array([1.00390625]), DType.BF16) == struct.pack("<H", 0x3F80)
    # halfway between 0x3F81 and 0x3F82
    assert encode(np.array([1.01171875]), DType.BF16) == struct.pack("<H", 0x3F82)


def test_encode_bf16_overflow_to_inf():
    bits = np.frombuffer(encode(np.array([4e38, -4e38]), DType.BF16), dtype="<u2")
    assert bits.tolist() == [0x7F80, 0xFF80]


def test_encode_bf16_matches_scalar_reference():
    rng = np.random.default_rng(7)
    values = (rng.standard_normal(5000) * rng.choice([1e-3, 1.0, 1e3], 5000)).astype(
        np.float32
    )
    got = np.frombuffer(encode(values.astype(np.float64), DType.BF16), dtype="<u2")
    want = np.array([bf16_encode_scalar(float(v)) for v in values], dtype=np.uint16)
    assert np.array_equal(got, want)


def test_encode_bf16_matches_ml_dtypes():
    ml_dtypes = pytest.importorskip("ml_dtypes")
    rng = np.random.default_rng(8)
    values = rng.standard_normal(5000).astype(np.float32)
    got = np.frombuffer(encode(values.astype(np.float64), DType.BF16), dtype="<u2")
    want = values.astype(ml_dtypes.bfloat16).view(np.uint16)
    assert np.array_equal(got, want)


def test_encode_f16_matches_scalar_reference():
    rng = np.random.default_rng(9)
    values = rng.standard_normal(5000) * rng.choice([1e-4, 1.0, 6e4], 5000)
    got = np.frombuffer(encode(values, DType.F16), dtype="<u2")
    want = np.array([f16_encode_scalar(float(v)) for v in values], dtype=np.uint16)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [DType.F16, DType.BF16])
def test_encode_decode_identity_all_16bit_patterns(dtype):
    """decode then encode reproduces every bit pattern except signaling NaNs
    (which quieten in the float64 round trip, documented)."""
    all_bits = np.arange(65536, dtype=np.uint16)
    if dtype is DType.F16:
        exp_mask, man_mask, quiet_bit = 0x7C00, 0x03FF, 0x0200
    else:
        exp_mask, man_mask, quiet_bit = 0x7F80, 0x007F, 0x0040
    is_snan = (
        ((all_bits & exp_mask) == exp_mask)
        & ((all_bits & man_mask) != 0)
        & ((all_bits & quiet_bit) == 0)
    )
    keep = all_bits[~is_snan]
    raw = keep.astype("<u2").tobytes()
    assert encode(decode(raw, dtype), dtype) == raw


def test_encode_decode_identity_f32_f64_patterns():
    rng = np.random.default_rng(10)
    raw32 = rng.integers(0, 2**32, 4096, dtype=np.uint32)
    # keep NaNs out: their payloads are covered by the raw-copy path
    f32 = raw32.view(np.float32)
    raw = f32[~np.isnan(f32)].tobytes()
    assert encode(decode(raw, DType.F32), DType.F32) == raw
    f64 = rng.standard_normal(4096)
    raw = f64.astype("<f8").tobytes()
    assert encode(decode(raw, DType.F64), DType.F64) == raw


# --- normalized Frobenius difference -------------------------------------------


def test_diff_identity_is_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(257)
    assert normalized_frobenius_diff(a, a.copy()) == 0.0


def test_diff_forced_arithmetic():
    a = np.zeros(4)
    b = np.ones(4)
    assert normalized_frobenius_diff(a, b) == 1.0


def test_diff_against_fsum_oracle():
    rng = np.random.default_rng(42)
    a = rng.standard_normal(100_000)
    b = rng.standard_normal(100_000)
    got = normalized_frobenius_diff(a, b)
    # two-pass exactly-rounded summation oracle
    want = math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b))) / math.sqrt(a.size)
    assert got == pytest.approx(want, rel=1e-12)


def test_diff_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        normalized_frobenius_diff(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="empty"):
        normalized_frobenius_diff(np.zeros(0), np.zeros(0))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=64),
    st.integers(0, 2**32 - 1),
)
def test_diff_symmetry_bit_exact(values, seed):
    rng = np.random.default_rng(seed)
    a = np.array(values)
    b = a + rng.standard_normal(a.size)
    assert normalized_frobenius_diff(a, b) == normalized_frobenius_diff(b, a)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 256),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.5, 2.0, 4.0, 1024.0, 3.0]),
)
def test_diff_scale_within_one_ulp(n, seed, c):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    scaled = normalized_frobenius_diff(c * a, c * b)
    want = abs(c) * normalized_frobenius_diff(a, b)
    assert scaled == pytest.approx(want, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 700), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
def test_segment_sums_equal_each_segment_summed_alone(sizes, seed):
    # a run of tensors diffed as one array gives each tensor its own bits
    from moemerge.tensor_math import squared_diff_sums

    rng = np.random.default_rng(seed)
    a = rng.standard_normal(sum(sizes))
    b = a + rng.standard_normal(a.size)
    ends = list(itertools.accumulate(sizes))
    alone = [
        squared_diff_sums(a[hi - n:hi].copy(), b[hi - n:hi].copy(), [n])[0]
        for n, hi in zip(sizes, ends)
    ]
    assert squared_diff_sums(a, b, ends) == alone


def test_diff_deterministic():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(9999), rng.standard_normal(9999)
    assert normalized_frobenius_diff(a, b) == normalized_frobenius_diff(a, b)


# --- linear combination ---------------------------------------------------------


def test_combination_one_hot_is_bit_exact():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(100)
    weird = np.array([np.inf, -np.inf, np.nan] * 34 + [0.0])
    out = linear_combination([a, weird[: a.size]], [1.0, 0.0])
    assert np.array_equal(out.view(np.uint64), a.view(np.uint64))
    out = linear_combination([weird[: a.size], a], [0.0, 1.0])
    assert np.array_equal(out.view(np.uint64), a.view(np.uint64))


def test_combination_identity_weights_preserve_negative_zero():
    a = np.array([-0.0, 1.0])
    out = linear_combination([a, np.ones(2)], [1.0, 0.0])
    assert np.signbit(out[0])


def test_combination_self_average_exact():
    rng = np.random.default_rng(4)
    w = rng.standard_normal(1000)
    for k in (2, 4, 8):
        out = linear_combination([w] * k, [1.0 / k] * k)
        assert np.array_equal(out, w)


def test_combination_matches_scalar_reference():
    rng = np.random.default_rng(6)
    t1, t2 = rng.standard_normal(500), rng.standard_normal(500)
    out = linear_combination([t1, t2], [0.25, 0.75])
    want = np.empty(500)
    for j in range(500):
        s = 0.0
        s += 0.25 * t1[j]
        s += 0.75 * t2[j]
        want[j] = s
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def test_combination_deterministic_repeat():
    rng = np.random.default_rng(12)
    tensors = [rng.standard_normal(333) for _ in range(3)]
    lams = [0.2, 0.3, 0.5]
    first = linear_combination(tensors, lams)
    second = linear_combination(tensors, lams)
    assert np.array_equal(first.view(np.uint64), second.view(np.uint64))


def test_combination_errors():
    with pytest.raises(ValueError, match="empty"):
        linear_combination([], [])
    with pytest.raises(ValueError, match="weights"):
        linear_combination([np.zeros(2)], [0.5, 0.5])
    with pytest.raises(ValueError, match="elements"):
        linear_combination([np.zeros(2), np.zeros(3)], [0.5, 0.5])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 128), st.integers(0, 2**32 - 1))
def test_combination_affine_weights_allowed(n, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    out = linear_combination([a, b], [1.5, -0.5])  # task-arithmetic style
    assert np.isfinite(out).all()
