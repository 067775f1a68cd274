"""Dense linear-algebra and transformer kernel primitives.

Tensors are plain C-contiguous numpy arrays, float32 by default. Every
operation here is a pure function, preserves the dtype of its inputs, and
is deterministic for a fixed process environment: calling the same op twice
on the same data yields bit-identical results, which the test suite relies
on. Verification code passes float64 arrays through the same functions to
get the extra precision (see ``as_f64``).
"""

import math

import numpy as np

from .errors import ConfigError, ShapeError

DEFAULT_DTYPE = np.float32


def as_f32(x) -> np.ndarray:
    """Return ``x`` as a C-contiguous float32 array."""
    return np.ascontiguousarray(x, dtype=np.float32)


def as_f64(x) -> np.ndarray:
    """Return ``x`` as a C-contiguous float64 array (verification mode)."""
    return np.ascontiguousarray(x, dtype=np.float64)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-D tensors.

    Uses an unoptimized einsum rather than BLAS: each output row is reduced
    in a fixed order that depends only on the inner dimension, never on the
    batch shape, so truncating rows of ``a`` or masking trailing zero
    columns leaves the remaining rows bit-identical. Raises ShapeError if
    either operand is not 2-D or the inner dimensions disagree.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return np.einsum("ik,kj->ij", a, b)


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

    allowed = k_pos[None, :] <= q_pos[:, None]
    masked = np.where(allowed, scores, -np.inf)
    # Every row admits at least one key (its own position), so the max is
    # finite; the initial value only serves an empty batch of rows.
    row_max = np.max(masked, axis=1, keepdims=True, initial=-np.inf)
    exp = np.exp(masked - row_max)
    # Row sums via einsum: a fixed left-to-right reduction per row, so a
    # row's denominator does not change when extra masked (exactly zero)
    # columns are appended.  np.sum uses pairwise grouping that shifts with
    # row length and would break bitwise causality.
    denom = np.einsum("ij->i", exp)
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
