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
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dtypes import DType
from .errors import UnsupportedDTypeError

__all__ = [
    "BLOCK_ELEMS",
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


def _bf16_bits_to_f32(bits: np.ndarray) -> np.ndarray:
    """Widen BF16 bit patterns (uint16) to float32. Exact for every pattern."""
    wide = bits.astype(np.uint32)
    wide <<= 16
    return wide.view(np.float32)


def _f32_to_bf16_bits(values: np.ndarray) -> np.ndarray:
    """Narrow float32 to BF16 bit patterns with round-to-nearest-even.

    NaNs keep their top payload bits and get the quiet bit forced, so the
    rounding bias cannot carry a NaN into an infinity.
    """
    u = values.view(np.uint32)
    rounded = u >> 16
    rounded &= 1
    rounded += u
    rounded += 0x7FFF
    rounded >>= 16
    bits = rounded.astype(np.uint16)
    nan = np.isnan(values)
    if nan.any():
        bits[nan] = ((u[nan] >> 16) | 0x0040).astype(np.uint16)
    return bits


def decode(raw: bytes | bytearray | memoryview, dtype: DType) -> np.ndarray:
    """Decode raw little-endian bytes into a float64 working buffer.

    Exact for F32/F16/BF16 and for integers up to 2**53 in magnitude
    (model-weight integer tensors are far below that).

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
    if dtype is DType.BF16:
        values = _bf16_bits_to_f32(np.frombuffer(raw, dtype="<u2"))
    else:
        values = np.frombuffer(raw, dtype=_NUMPY_CODECS[dtype])
    # Widening a signaling NaN raises the invalid flag; it stays a NaN,
    # which a merge reports in its nonfinite inputs.
    with np.errstate(invalid="ignore"):
        return values.astype(np.float64)


def encode(values: np.ndarray, dtype: DType) -> bytes:
    """Encode a working buffer into raw little-endian bytes of ``dtype``.

    Float narrowing uses round-to-nearest-even; overflow saturates to the
    format's infinity per IEEE rules. Integer targets round half to even
    (numpy ``rint``) before the cast; BOOL encodes nonzero -> 1.
    """
    if not isinstance(dtype, DType):
        raise UnsupportedDTypeError(f"not a supported dtype: {dtype!r}")
    buf = np.asarray(values, dtype=np.float64).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        if dtype is DType.BF16:
            return _f32_to_bf16_bits(buf.astype(np.float32)).astype("<u2", copy=False).tobytes()
        if dtype is DType.BOOL:
            return (buf != 0).astype("?").tobytes()
        if dtype in (DType.I64, DType.I32, DType.I8, DType.U8):
            return np.rint(buf).astype(_NUMPY_CODECS[dtype]).tobytes()
        return buf.astype(_NUMPY_CODECS[dtype]).tobytes()


def squared_diff_sums(a: np.ndarray, b: np.ndarray, ends: Sequence[int]) -> list[float]:
    """Sums of squared element differences, one per segment, in float64.

    ``(a - b)**2`` is formed once; segment ``i`` is ``[ends[i-1], ends[i])``
    (the first starts at 0) and is reduced with its own ``np.sum``. These
    are the per-block partials of the normalized Frobenius difference, or
    the per-tensor ones of a run of small tensors decoded as one array.
    Callers pass equal lengths and end the last segment at that length; a
    streaming caller keeps ``a`` at most ``BLOCK_ELEMS`` long.
    """
    d = np.asarray(a, dtype=np.float64).reshape(-1) - np.asarray(b, dtype=np.float64).reshape(-1)
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
    tensors: Sequence[np.ndarray], lambdas: Sequence[float]
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
        return live[0][1].copy()
    terms = [lam * buf for lam, buf in live]  # fresh arrays, summed in place
    while len(terms) > 1:
        paired = [
            np.add(terms[i], terms[i + 1], out=terms[i])
            for i in range(0, len(terms) - 1, 2)
        ]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0]
