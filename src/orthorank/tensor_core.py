"""Dense linear-algebra and transformer kernel primitives.

Tensors are plain C-contiguous numpy arrays, float32 by default. Every
operation here is a pure function, preserves the dtype of its inputs, and
is deterministic for a fixed process environment: calling the same op twice
on the same data yields bit-identical results, which the test suite relies
on. Verification code passes float64 arrays through the same functions to
get the extra precision (see ``as_f64``).

Matrix products run on BLAS through one padded-block kernel whose output
rows do not depend on the batch shape: a row of ``matmul(a, b)`` is
bit-identical whether ``a`` holds 1 row or 500, whichever other rows sit
beside it, however many columns ``b`` has, and whether trailing zero
columns of ``a`` (with matching zero rows of ``b``) are appended. The
causal-prefix, bypass and empty-plan contracts of the model rest on this,
and so does causal block-truncated attention: a block of query rows that
reads only its key prefix drops score columns (column truncation) and
probability columns that are exactly zero (trailing zero K), so its rows
equal those of the full-width product bit for bit.
BLAS libraries pick different code paths by operand shape and layout, so
the kernel hands BLAS only canonical shapes: rows of ``a`` padded to a
multiple of ``_ROW_ALIGN`` and cut into blocks of at most
``MATMUL_ROW_BLOCK`` rows, ``b`` C-contiguous with its columns padded to a
multiple of ``_COL_ALIGN``, and the inner dimension cut into
``_K_CHUNK``-wide chunks whose products are added in order. Each rule was
found necessary on OpenBLAS 0.3.31; the invariance tests in
``tests/test_tensor_core.py`` are the gate on any other build.

A caller that keeps ``b`` in that layout itself skips the copy through
the private ``_matmul_cols(a, b, n)``: ``b`` has unit column stride and at
least ``n`` columns rounded up to ``_COL_ALIGN``, and the result is
``matmul(a, b[:, :n])`` bit for bit, whatever the columns past ``n`` hold
(column truncation again). The KV cache stores each layer's keys this way,
so attention reads a key prefix without copying it.
"""

import math

import numpy as np

from .errors import ConfigError, ShapeError

DEFAULT_DTYPE = np.float32

MATMUL_ROW_BLOCK = 64  # rows of ``a`` per BLAS call
_ROW_ALIGN = 8  # rows of ``a`` are zero-padded to a multiple of this
_COL_ALIGN = 16  # columns of ``b`` are zero-padded to a multiple of this
_K_CHUNK = 256  # inner-dimension width of one BLAS call


def as_f32(x) -> np.ndarray:
    """Return ``x`` as a C-contiguous float32 array."""
    return np.ascontiguousarray(x, dtype=np.float32)


def as_f64(x) -> np.ndarray:
    """Return ``x`` as a C-contiguous float64 array (verification mode)."""
    return np.ascontiguousarray(x, dtype=np.float64)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-D tensors, row-invariant to the batch shape.

    Each output row depends only on its own row of ``a``, on ``b`` and on
    the inner dimension up to trailing zeros: truncating or gathering rows
    of ``a``, truncating columns of ``b``, or appending zero columns to
    ``a`` with zero rows to ``b`` leaves the remaining entries
    bit-identical (see the module docstring for the padded-block rules).
    Raises ShapeError if either operand is not 2-D or the inner dimensions
    disagree.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return _blocked_matmul(a, b)


def _round_up(n: int, multiple: int) -> int:
    return -(-n // multiple) * multiple


def _blocked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` through BLAS on canonical padded blocks; checked 2-D operands."""
    k, n = b.shape
    dtype = np.result_type(a, b)
    n_pad = _round_up(n, _COL_ALIGN)
    # BLAS rounds a transposed b differently from the row-major layout, so
    # b is brought to it here.
    if n_pad != n or b.dtype != dtype or not b.flags.c_contiguous:
        padded = np.zeros((k, n_pad), dtype)
        padded[:, :n] = b
        b = padded
    return _matmul_cols(a, b, n)


def _matmul_cols(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """``a @ b[:, :n]`` for a ``b`` already in the kernel's column layout.

    ``b`` has the result dtype, unit column stride and at least
    ``_round_up(n, _COL_ALIGN)`` columns; the columns past ``n`` may hold
    anything, since they reach only discarded output columns. No copy of
    ``b`` is made.
    """
    m, k = a.shape
    dtype = np.result_type(a, b)
    if m == 0 or n == 0:
        return np.zeros((m, n), dtype)
    m_pad = _round_up(m, _ROW_ALIGN)
    b = b[:, :_round_up(n, _COL_ALIGN)]
    # BLAS rounds a with strided columns differently from the row-major
    # layout, so it is brought to it here.
    if m_pad != m or a.dtype != dtype or a.strides[1] != a.itemsize:
        padded = np.zeros((m_pad, k), dtype)
        padded[:m] = a
        a = padded
    out = np.empty((m_pad, b.shape[1]), dtype)
    for r in range(0, m_pad, MATMUL_ROW_BLOCK):
        rows = a[r:r + MATMUL_ROW_BLOCK]
        block = out[r:r + MATMUL_ROW_BLOCK]
        np.matmul(rows[:, :_K_CHUNK], b[:_K_CHUNK], out=block)
        for c in range(_K_CHUNK, k, _K_CHUNK):
            block += np.matmul(rows[:, c:c + _K_CHUNK], b[c:c + _K_CHUNK])
    return np.ascontiguousarray(out[:m, :n])


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square normalization with a learned element-wise gain.

    out[t] = gain * x[t] / sqrt(mean(x[t]**2) + eps), applied row-wise.
    Accepts a single vector or a (T, d) matrix.
    """
    if eps <= 0:
        raise ConfigError(f"rms_norm eps must be > 0, got {eps}")
    x = np.asarray(x)
    gain = np.asarray(gain)
    if x.shape[-1] != gain.shape[-1]:
        raise ShapeError(f"gain length {gain.shape[-1]} != feature dim {x.shape[-1]}")
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    return gain * (x / np.sqrt(ms + eps))


def softmax_causal(
    scores: np.ndarray,
    row_offsets,
    key_positions=None,
) -> np.ndarray:
    """Row-wise softmax with causal masking.

    ``row_offsets[r]`` is the absolute position of query row r; entries whose
    key position exceeds it are masked to exactly 0. Key positions default to
    0..Tk-1 but can be passed explicitly when the key set is a subsequence of
    the context (selective KV). Rows are stabilized by max subtraction.

    The mask is built only from the first column whose key lies past the
    smallest query position; for a row block over its key prefix that is
    the block's diagonal. A row's output does not depend on other rows, and
    dropping trailing masked columns leaves its other entries bit-identical
    (the row sums run through the row-invariant kernel).
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ShapeError(f"softmax_causal expects a 2-D score matrix, got {scores.shape}")
    q_pos = np.asarray(row_offsets, dtype=np.int64)
    if q_pos.shape != (scores.shape[0],):
        raise ShapeError(f"row_offsets length {q_pos.shape} != query count {scores.shape[0]}")
    if np.any(q_pos < 0):
        raise ShapeError("query positions must be >= 0")
    if key_positions is None:
        k_pos = np.arange(scores.shape[1], dtype=np.int64)
    else:
        k_pos = np.asarray(key_positions, dtype=np.int64)
        if k_pos.shape != (scores.shape[1],):
            raise ShapeError(f"key_positions length {k_pos.shape} != key count {scores.shape[1]}")

    masked = scores.astype(np.result_type(scores, -np.inf), copy=True)
    # no row masks a column at or before the smallest query position
    past = np.flatnonzero(k_pos > q_pos.min()) if q_pos.size else ()
    if len(past):
        lo = past[0]
        np.copyto(masked[:, lo:], -np.inf, where=k_pos[lo:] > q_pos[:, None])
    # Every row admits at least one key (its own position), so the max is
    # finite; the initial value only serves an empty batch of rows.
    row_max = np.max(masked, axis=1, keepdims=True, initial=-np.inf)
    exp = np.exp(masked - row_max)
    # Row sums as a product with a ones column through the row-invariant
    # kernel: masked columns add exact zeros, so a row's denominator does
    # not change when they are appended or when other rows join the batch.
    # np.sum and einsum group their partial sums by row length and would
    # break bitwise causality.
    ones = np.ones((exp.shape[1], _COL_ALIGN), dtype=exp.dtype)
    denom = _blocked_matmul(exp, ones)[:, 0]
    return exp / denom[:, np.newaxis]


def rope_apply(x: np.ndarray, positions, theta_base: float) -> np.ndarray:
    """Rotary position embedding over (T, n_heads, d_head) tensors.

    Pairs dimension j with j + d_head/2 and rotates each pair by
    pos * theta_base**(-2j/d_head). Norm of every head vector is preserved.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"rope_apply expects (T, heads, d_head), got {x.shape}")
    d_head = x.shape[-1]
    if d_head % 2 != 0:
        raise ConfigError(f"rope_apply requires an even head dim, got {d_head}")
    half = d_head // 2
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != (x.shape[0],):
        raise ShapeError(f"positions length {pos.shape} != sequence length {x.shape[0]}")

    inv_freq = theta_base ** (-2.0 * np.arange(half, dtype=np.float64) / d_head)
    angles = pos[:, None] * inv_freq[None, :]  # (T, half)
    cos = np.cos(angles).astype(x.dtype)[:, None, :]
    sin = np.sin(angles).astype(x.dtype)[:, None, :]

    x1 = x[..., :half]
    x2 = x[..., half:]
    out = np.empty_like(x)
    out[..., :half] = x1 * cos - x2 * sin
    out[..., half:] = x1 * sin + x2 * cos
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x), via tanh to stay finite for large |x|."""
    return x * (0.5 * (1.0 + np.tanh(0.5 * x)))


def attention_scale(d_head: int) -> float:
    """The 1/sqrt(d_head) attention score scale."""
    return 1.0 / math.sqrt(d_head)
