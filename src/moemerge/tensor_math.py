"""Numeric kernels: dtype decode/encode, normalized Frobenius difference,
and weighted linear combination of tensors.

Working precision
-----------------
Decoded values live in 1-D float64 arrays ("working buffers"); reductions
and weighted sums accumulate in float64 as well. Merged elements are
re-encoded to the tensor's original dtype afterwards. This removes
summation-order sensitivity at BF16 scale and makes oracle comparisons
exact.

All byte layouts are little-endian. BF16 has no native numpy type here;
its decode widens the 16 payload bits into a float32 (exact), and its
encode narrows float64 -> float32 (hardware round-to-nearest-even) and
then float32 -> BF16 (bias-trick round-to-nearest-even). Signaling NaNs
quieten on that path; tensors that are copied rather than merged never
pass through these kernels, so raw NaN payloads survive copies.

Reduction order
---------------
The normalized Frobenius difference is reduced in fixed blocks of
``BLOCK_ELEMS`` = 2**18 elements: ``np.sum`` (numpy's pairwise summation)
of the squared differences inside each block, then ``math.fsum`` (exactly
rounded, so independent of the partials' order) across the blocks. The
block size is a constant, so a diff never depends on the worker count,
and a streaming caller that decodes one block at a time gets the same
bits as a whole-array call. A tensor of at most one block reduces exactly
as a single ``np.sum``. Decode, encode and the linear combination are
elementwise, so blocking them never changes a bit.

Small tensors that lie next to each other are decoded as one array, a
run (see ``merge_core``). ``squared_diff_sums`` then squares the whole
run's differences once and reduces each tensor's own slice with its own
``np.sum``. numpy's pairwise summation of a contiguous slice depends only
on the slice's values and length, so every tensor gets the same bits as
when it is reduced alone.

Reused buffers
--------------
A ``Scratch`` holds one thread's working buffers of ``BLOCK_ELEMS``
elements each: one float64 buffer per parent for decoded values, a
float64 buffer for differences and an encode's narrowing, and the
float32 and uint32 buffers of the BF16 conversions. ``decode``,
``squared_diff_sums``, ``encode`` and ``all_finite`` take an optional
scratch and then write into a prefix of its buffers instead of
allocating arrays of the block's size;
``linear_combination(overwrite=True)`` scales and sums its inputs in
place. ``decode(out=)`` writes its values into a given float64 buffer
and ``encode(out=)`` its bytes into a given writable buffer, so a merged
block is encoded straight into a slice of its task's output. Without a
scratch or ``out`` each call allocates what it needs, through the same
code, so the bits never depend on whether one was given.
``all_finite`` reads the float exponent bits of the raw bytes, so a
finiteness check decodes nothing.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dtypes import DType
from .errors import UnsupportedDTypeError

__all__ = [
    "BLOCK_ELEMS",
    "Scratch",
    "all_finite",
    "decode",
    "encode",
    "linear_combination",
    "normalized_frobenius_diff",
    "rms_from_partials",
    "squared_diff_sums",
]

BLOCK_ELEMS = 1 << 18

_NUMPY_CODECS = {
    DType.F64: np.dtype("<f8"),
    DType.F32: np.dtype("<f4"),
    DType.F16: np.dtype("<f2"),
    DType.I64: np.dtype("<i8"),
    DType.I32: np.dtype("<i4"),
    DType.I8: np.dtype("i1"),
    DType.U8: np.dtype("u1"),
    DType.BOOL: np.dtype("?"),
}


# Per float dtype: the raw bits' integer codec and the exponent field. An
# element is non-finite iff its exponent bits are all ones.
_EXPONENT_BITS = {
    DType.F64: ("<u8", 0x7FF0_0000_0000_0000),
    DType.F32: ("<u4", 0x7F80_0000),
    DType.F16: ("<u2", 0x7C00),
    DType.BF16: ("<u2", 0x7F80),
}


class Scratch:
    """One thread's reusable working buffers, ``BLOCK_ELEMS`` elements each.

    ``values`` holds one float64 buffer per parent for decoded values and
    ``diff`` a float64 buffer for differences, an encode's float narrowing
    and NaN mask, and ``all_finite``'s bit arithmetic. ``f32`` and ``u32``
    hold the BF16 widening of a decode and the BF16 narrowing and rounding
    of an encode. A kernel writes into a prefix of the buffers it uses, so
    a call given a scratch handles at most ``BLOCK_ELEMS`` elements, and
    the array it returns is valid until the next call that uses the same
    buffer.
    """

    def __init__(self, parents: int):
        self.values = [np.empty(BLOCK_ELEMS) for _ in range(parents)]
        self.diff = np.empty(BLOCK_ELEMS)
        self.f32 = np.empty(BLOCK_ELEMS, np.float32)
        self.u32 = np.empty(BLOCK_ELEMS, np.uint32)


def _take(scratch: Scratch | None, buffer: str, n: int, dtype) -> np.ndarray:
    """``n`` elements of ``dtype``: a view of a scratch buffer, or a fresh array."""
    if scratch is None:
        return np.empty(n, dtype)
    return getattr(scratch, buffer).view(dtype)[:n]


def _f32_to_bf16_bits(
    values: np.ndarray, bits: np.ndarray, scratch: Scratch | None = None
) -> None:
    """Narrow float32 to BF16 bit patterns in ``bits``, rounding to nearest even.

    NaNs keep their top payload bits and get the quiet bit forced, so the
    rounding bias cannot carry a NaN into an infinity. ``bits`` may share
    memory with ``values`` (an encode's scratch ``f32`` buffer).
    """
    n = values.size
    u = values.view(np.uint32)
    rounded = _take(scratch, "u32", n, np.uint32)
    np.right_shift(u, 16, out=rounded)
    rounded &= 1
    rounded += u
    rounded += 0x7FFF
    rounded >>= 16
    nan = np.isnan(values, out=_take(scratch, "diff", n, np.bool_))
    if nan.any():
        rounded[nan] = (u[nan] >> 16) | 0x0040
    np.copyto(bits, rounded, casting="unsafe")  # values are no longer read


def decode(
    raw: bytes | bytearray | memoryview,
    dtype: DType,
    out: np.ndarray | None = None,
    scratch: Scratch | None = None,
) -> np.ndarray:
    """Decode raw little-endian bytes into a float64 working buffer.

    Exact for F32/F16/BF16 and for integers up to 2**53 in magnitude
    (model-weight integer tensors are far below that). The values go into
    a prefix of ``out`` when it is given, else into a fresh array; a BF16
    decode widens through the scratch's ``u32`` buffer when one is given.

    Raises:
        ValueError: buffer length not divisible by the element width.
        UnsupportedDTypeError: dtype outside the supported set.
    """
    if not isinstance(dtype, DType):
        raise UnsupportedDTypeError(f"not a supported dtype: {dtype!r}")
    n = len(raw)
    if n % dtype.byte_width != 0:
        raise ValueError(
            f"buffer of {n} bytes is not divisible by element width "
            f"{dtype.byte_width} ({dtype.code})"
        )
    n //= dtype.byte_width
    if dtype is DType.BF16:
        # Widen the 16 payload bits into a float32 (exact for every pattern).
        wide = _take(scratch, "u32", n, np.uint32)
        np.copyto(wide, np.frombuffer(raw, dtype="<u2"))
        wide <<= 16
        values = wide.view(np.float32)
    else:
        values = np.frombuffer(raw, dtype=_NUMPY_CODECS[dtype])
    result = np.empty(n) if out is None else out[:n]
    # Widening a signaling NaN raises the invalid flag; it stays a NaN,
    # which a merge reports in its nonfinite inputs.
    with np.errstate(invalid="ignore"):
        np.copyto(result, values)
    return result


def all_finite(
    raw: bytes | bytearray | memoryview, dtype: DType, scratch: Scratch | None = None
) -> bool:
    """Whether every element of the raw bytes is finite, read from their bits.

    A float element is non-finite iff its exponent bits are all ones, so
    nothing is decoded; integers and BOOL are always finite. The answer
    equals ``np.isfinite(decode(raw, dtype)).all()``.
    """
    if dtype not in _EXPONENT_BITS or len(raw) == 0:
        return True
    code, exponent = _EXPONENT_BITS[dtype]
    bits = np.frombuffer(raw, dtype=code)
    magnitude = _take(scratch, "diff", bits.size, code)
    np.bitwise_and(bits, exponent | (exponent - 1), out=magnitude)  # drop the sign
    return int(magnitude.max()) < exponent


def encode(
    values: np.ndarray,
    dtype: DType,
    scratch: Scratch | None = None,
    out: bytearray | memoryview | None = None,
) -> bytes | memoryview:
    """Encode a working buffer into raw little-endian bytes of ``dtype``.

    Float narrowing uses round-to-nearest-even; overflow saturates to the
    format's infinity per IEEE rules. Integer targets round half to even
    (numpy ``rint``) before the cast; BOOL encodes nonzero -> 1. The bytes
    go into a prefix of ``out``, a writable buffer, when it is given, and
    a memoryview of that prefix is returned; else they are returned as
    fresh bytes. With a scratch the encode works in its buffers, and
    ``values`` must be none of its ``diff``, ``f32`` or ``u32``.
    """
    if not isinstance(dtype, DType):
        raise UnsupportedDTypeError(f"not a supported dtype: {dtype!r}")
    buf = np.asarray(values, dtype=np.float64).reshape(-1)
    n = buf.size
    code = "<u2" if dtype is DType.BF16 else _NUMPY_CODECS[dtype]
    if out is None:
        target = _take(scratch, "f32" if dtype is DType.BF16 else "diff", n, code)
    else:
        target = np.frombuffer(out, dtype=code, count=n)
    with np.errstate(over="ignore", invalid="ignore"):
        if dtype is DType.BF16:
            f32 = _take(scratch, "f32", n, np.float32)
            np.copyto(f32, buf, casting="same_kind")
            _f32_to_bf16_bits(f32, target, scratch)
        elif dtype is DType.BOOL:
            np.not_equal(buf, 0, out=target)
        elif dtype in (DType.I64, DType.I32, DType.I8, DType.U8):
            np.copyto(target, np.rint(buf), casting="unsafe")
        else:
            np.copyto(target, buf, casting="same_kind")
    return target.tobytes() if out is None else memoryview(out)[:target.nbytes]


def squared_diff_sums(
    a: np.ndarray, b: np.ndarray, ends: Sequence[int], scratch: Scratch | None = None
) -> list[float]:
    """Sums of squared element differences, one per segment, in float64.

    ``(a - b)**2`` is formed once, in the scratch's ``diff`` buffer when
    one is given; segment ``i`` is ``[ends[i-1], ends[i])`` (the first
    starts at 0) and is reduced with its own ``np.sum``. These are the
    per-block partials of the normalized Frobenius difference, or the
    per-tensor ones of a run of small tensors decoded as one array.
    Callers pass equal lengths and end the last segment at that length; a
    streaming caller keeps ``a`` at most ``BLOCK_ELEMS`` long.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    d = np.subtract(a, b, out=_take(scratch, "diff", a.size, np.float64))
    np.square(d, out=d)
    sums, lo = [], 0
    for hi in ends:
        sums.append(float(np.sum(d[lo:hi])))
        lo = hi
    return sums


def rms_from_partials(partials: Sequence[float], numel: int) -> float:
    """sqrt(sum of the block partials) / sqrt(numel).

    The partials are summed with ``math.fsum``; a sum too large for a float
    is +inf, as a plain float64 sum would give.
    """
    try:
        total = math.fsum(partials)
    except OverflowError:
        total = math.inf
    return math.sqrt(total) / math.sqrt(numel)


def normalized_frobenius_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of (a - b), divided by sqrt of the element count.

    Equivalently the root-mean-square of element differences. Differences
    are squared (never signed terms), so d(a, b) == d(b, a) bit-exactly,
    and the blocked reduction (see the module docstring) is deterministic.

    Raises:
        ValueError: length mismatch or empty inputs.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("normalized Frobenius difference of empty tensors")
    ends = [*range(BLOCK_ELEMS, a.size, BLOCK_ELEMS), a.size]
    return rms_from_partials(squared_diff_sums(a, b, ends), a.size)


def linear_combination(
    tensors: Sequence[np.ndarray], lambdas: Sequence[float], overwrite: bool = False
) -> np.ndarray:
    """Per-element weighted sum of working buffers, accumulated in float64.

    The weighted terms are combined by balanced pairwise addition of
    adjacent terms in ascending input order (a sequential left-to-right sum
    could not reproduce a model averaged with itself at k=4 equal weights,
    which this must). The tree shape is fixed, so identical inputs always
    produce bit-identical output. Terms whose weight is exactly 0.0 are
    skipped, and a lone weight-1.0 term is returned as a bit-exact copy:
    both are required for one-hot weights to reproduce their input exactly
    even in the presence of non-finite values elsewhere.

    With ``overwrite`` the inputs, distinct float64 buffers, are scaled
    and summed in place and the result is one of them (a lone weight-1.0
    input is returned as it is); the bits are the same either way.

    Convexity of the weights is the caller's policy; this kernel accepts
    general affine weights.

    Raises:
        ValueError: empty input, count mismatch, or ragged lengths.
    """
    if len(tensors) == 0:
        raise ValueError("linear_combination of an empty tensor list")
    if len(tensors) != len(lambdas):
        raise ValueError(
            f"{len(tensors)} tensors but {len(lambdas)} weights"
        )
    bufs = [np.asarray(t, dtype=np.float64).reshape(-1) for t in tensors]
    size = bufs[0].size
    for i, buf in enumerate(bufs):
        if buf.size != size:
            raise ValueError(f"tensor {i} has {buf.size} elements, expected {size}")

    live = [(float(lam), buf) for lam, buf in zip(lambdas, bufs) if lam != 0.0]
    if not live:
        return np.zeros(size, dtype=np.float64)
    if len(live) == 1 and live[0][0] == 1.0:
        return live[0][1] if overwrite else live[0][1].copy()
    # Each term is its own array, summed in place: fresh, or the input itself.
    terms = [np.multiply(buf, lam, out=buf if overwrite else None) for lam, buf in live]
    while len(terms) > 1:
        paired = [
            np.add(terms[i], terms[i + 1], out=terms[i])
            for i in range(0, len(terms) - 1, 2)
        ]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0]
