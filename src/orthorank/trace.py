"""Per-layer hidden-state traces captured from forward passes or synthesized."""

import csv
from dataclasses import dataclass, field

import numpy as np


@dataclass
class HiddenTrace:
    """Hidden states recorded at the input of each captured layer.

    ``hidden[j]`` is the (T, d) block input of layer ``layers[j]`` and
    ``normalized[j]`` the corresponding pre-attention RMSNorm output
    (gain included), the direct input to that layer's attention module.
    ``attn_to_sink[j][t]``, when captured, is the mean over heads of the
    attention probability token t puts on key position 0. A trace that
    captured only those masses leaves ``hidden`` and ``normalized`` empty.

    Traces satisfy ``normalized[j] == rms_norm(hidden[j], gain)`` bitwise,
    with the gain of layer ``layers[j]`` for captured traces and unit gain
    for synthetic ones.
    """

    layers: list[int] = field(default_factory=list)
    hidden: list[np.ndarray] = field(default_factory=list)
    normalized: list[np.ndarray] = field(default_factory=list)
    attn_to_sink: list[np.ndarray] | None = None

    @property
    def seq_len(self) -> int:
        return 0 if not self.normalized else self.normalized[0].shape[0]


def _write_csv(path, header, rows) -> None:
    """Write one CSV file: the ``header`` row, then every row of the iterable ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def dump_trace_csv(trace: HiddenTrace, states_path) -> None:
    """Write the captured normalized states as CSV.

    Rows: layer, position, then the d state values. Their norms are
    ``analysis.norm_profile(trace)``'s table (``NormProfile.to_csv``).
    """
    d = trace.normalized[0].shape[1] if trace.normalized else 0
    _write_csv(states_path, ["layer", "position"] + [f"v{i}" for i in range(d)],
               ([layer, t] + [repr(float(v)) for v in states[t]]
                for layer, states in zip(trace.layers, trace.normalized)
                for t in range(states.shape[0])))
