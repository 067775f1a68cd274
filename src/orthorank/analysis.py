"""Geometry measurements over hidden-state traces.

The selection criterion rests on two observations about decoder hidden
states once an attention sink forms: every token's normalized state drifts
toward the sink's direction as depth grows, while the sink's own direction
barely moves. These functions quantify both from a HiddenTrace, plus the
norm homogeneity and gain-scaling agreement that justify ranking by raw
inner products instead of cosines.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError, _is_number
from .trace import HiddenTrace, _write_csv


def _cos(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine via dot / sqrt(dot * dot); exactly 1.0 when u and v are the
    same vector (the sqrt collapses to the squared norm)."""
    a = u.astype(np.float64, copy=False)
    b = v.astype(np.float64, copy=False)
    num = float(a @ b)
    den = float(np.sqrt((a @ a) * (b @ b)))
    if den == 0.0:
        return float("nan")
    return num / den


@dataclass
class SimilarityMatrix:
    """A labeled cosine matrix: rows x cols of [-1, 1] values."""

    kind: str  # "sink_vs_tokens" or "token_across_layers"
    row_labels: list[int]
    col_labels: list[int]
    values: np.ndarray
    position: int | None = None  # subject position for token_across_layers

    def to_csv(self, path) -> None:
        """Header row = column labels, first column = row labels."""
        cols = [f"p{c}" if self.kind == "sink_vs_tokens" else f"l{c}" for c in self.col_labels]
        _write_csv(path, ["layer"] + cols,
                   ([label] + [repr(float(v)) for v in row]
                    for label, row in zip(self.row_labels, self.values)))


def default_sink_positions(seq_len: int) -> list[int]:
    """Probe positions 1..10 (clamped to the sequence)."""
    return list(range(1, min(11, seq_len)))


def default_cross_positions(seq_len: int) -> list[int]:
    """Probe positions {0, 50, 100} where the sequence allows."""
    return [p for p in (0, 50, 100) if p < seq_len]


def _check_positions(trace: HiddenTrace, positions, allow_sink: bool) -> list[int]:
    """``positions`` as ints within the trace's sequence; None means the default sink positions."""
    if not isinstance(trace, HiddenTrace):
        raise UsageError(f"expected a HiddenTrace, got {type(trace).__name__}")
    seq = trace.seq_len
    if positions is None:
        positions = default_sink_positions(seq)
    out = []
    for p in positions:
        if not _is_number(p, numbers.Integral):
            raise UsageError(f"positions must be integers, got {p!r}")
        p = int(p)
        if not 0 <= p < seq:
            raise UsageError(f"position {p} out of range for sequence length {seq}")
        if p == 0 and not allow_sink:
            raise UsageError("position 0 is the sink; compare it against itself instead")
        out.append(p)
    return out


def sink_token_similarity(trace: HiddenTrace, positions=None) -> SimilarityMatrix:
    """cos(h_bar_0, h_bar_i) per captured layer (rows) and position (cols)."""
    positions = _check_positions(trace, positions, allow_sink=False)
    values = np.empty((len(trace.layers), len(positions)))
    for j, states in enumerate(trace.normalized):
        for c, p in enumerate(positions):
            values[j, c] = _cos(states[0], states[p])
    return SimilarityMatrix("sink_vs_tokens", list(trace.layers), positions, values)


def cross_layer_self_similarity(trace: HiddenTrace, position: int) -> SimilarityMatrix:
    """cos of one token's normalized state between every pair of layers."""
    (position,) = _check_positions(trace, [position], allow_sink=True)
    states = [layer[position] for layer in trace.normalized]
    n = len(states)
    values = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            values[i, j] = values[j, i] = _cos(states[i], states[j])
    return SimilarityMatrix(
        "token_across_layers", list(trace.layers), list(trace.layers), values,
        position=position,
    )


@dataclass
class NormProfile:
    """Norms of normalized states per layer, with non-sink variation."""

    layers: list[int]
    norms: np.ndarray  # (n_layers, T)
    cv: np.ndarray  # coefficient of variation over positions >= 1, per layer

    def to_csv(self, path) -> None:
        _write_csv(path, ["layer", "position", "norm", "layer_cv"],
                   ([layer, t, repr(float(self.norms[j, t])), repr(float(self.cv[j]))]
                    for j, layer in enumerate(self.layers)
                    for t in range(self.norms.shape[1])))


def norm_profile(trace: HiddenTrace) -> NormProfile:
    """L2 norms of h_bar per layer and token, plus each layer's CV.

    The coefficient of variation (population std / mean) runs over positions
    >= 1: near-zero CV is what licenses dropping the per-token norms from
    the importance ranking. A trace with no states raises UsageError.
    """
    if not trace.normalized:
        raise UsageError("a norm profile needs a trace with normalized states")
    norms = np.stack(
        [np.linalg.norm(states.astype(np.float64), axis=1) for states in trace.normalized]
    )
    body = norms[:, 1:]
    means = body.mean(axis=1)
    stds = body.std(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.where(means > 0, stds / means, np.nan)
    return NormProfile(list(trace.layers), norms, cv)


def scaling_agreement(hidden: np.ndarray, gain: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Per-token cosine between gain-scaled and plain RMS-normalized states.

    Values near 1 mean the learned gain barely rotates directions, so
    conclusions drawn from plain normalized states carry over to the
    gain-scaled ones the model actually consumes.

    The cosine is invariant to positive rescaling of the gain, so the gain
    is conditioned by its leading magnitude first. Dividing equal floats is
    exact, which makes any constant positive gain reduce to all-ones and the
    agreement come out exactly 1 rather than within an ulp of it.
    ``hidden`` is (T, d) and ``gain`` (d,), else ShapeError.
    """
    if not (_is_number(eps) and eps > 0):
        raise UsageError(f"eps must be a number > 0, got {eps!r}")
    x = np.asarray(hidden, dtype=np.float64)
    g = np.asarray(gain, dtype=np.float64)
    if x.ndim != 2 or g.shape != x.shape[1:]:
        raise ShapeError(f"scaling_agreement needs (T, d) states and a (d,) gain, got shapes "
                         f"{x.shape} and {g.shape}")
    lead = float(np.abs(g.flat[0])) if g.size else 0.0
    if np.isfinite(lead) and lead > 0.0:
        g = g / lead
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    h_norm = x / np.sqrt(ms + eps)
    h_scaled = g * h_norm
    return np.array([_cos(h_scaled[t], h_norm[t]) for t in range(x.shape[0])])
