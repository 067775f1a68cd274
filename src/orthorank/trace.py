"""The record of a run: what the layer loop saw at each layer, or a synthesized trace."""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError


@dataclass
class HiddenTrace:
    """What a run saw at each layer step; the one record a run writes.

    A trace records each kind of entry it holds a list for, and skips a
    kind whose list is None:

    - ``layers[j]`` is the layer of step j, always recorded.
    - ``hidden[j]`` is the (T, d) block input of that step and
      ``normalized[j]`` its pre-attention RMSNorm output (gain included),
      the direct input to the layer's attention. On by default;
      ``hidden=None`` turns both off and leaves ``normalized`` empty.
    - ``attn_to_sink[j]`` holds, for each row the step selected, the mean
      over heads of the attention probability on key position 0 (an empty
      array when a decode token skips the block). Off by default.
    - ``selection`` holds one row ``(layer, step, position, score,
      selected)`` per token a plan layer scored: step 0 in a prefill (the
      chunk index under ``perplexity``); for an append to a prefilled
      cache, the first position of the step, which is the token's position
      in a one-token decode step. Off by default.

    ``HiddenTrace()`` records states only, ``HiddenTrace(hidden=None,
    attn_to_sink=[])`` sink mass only and ``HiddenTrace(hidden=None,
    selection=[])`` selection rows only. One trace may pass through several
    steps, a prefill and its decode steps, and then holds one entry per
    layer step in each list it records. A step that raises keeps what it
    recorded: the entries of the layers it ran and the failing layer's
    input states.

    Traces satisfy ``normalized[j] == gain * (hidden[j] /
    np.sqrt(np.mean(np.square(hidden[j]), -1, keepdims=True) + eps))``
    bitwise, the RMSNorm of ``tensor_core._rms_norm``, with the gain of
    layer ``layers[j]`` and the model's ``norm_eps`` for captured traces
    and unit gain and eps 1e-5 for synthetic ones.
    """

    layers: list[int] = field(default_factory=list)
    hidden: list[np.ndarray] | None = field(default_factory=list)
    normalized: list[np.ndarray] = field(default_factory=list)
    attn_to_sink: list[np.ndarray] | None = None
    selection: list[tuple[int, int, int, float, int]] | None = None

    @property
    def seq_len(self) -> int:
        return 0 if not self.normalized else self.normalized[0].shape[0]

    def write_selection_csv(self, path) -> None:
        """Write the selection rows as CSV: layer, step, position, score, selected.

        UsageError, with no file written, when the trace records no selection.
        """
        if self.selection is None:
            raise UsageError("this trace records no selection rows (selection=None)")
        _write_csv(path, ["layer", "step", "position", "score", "selected"],
                   ([layer, step, position, repr(score), selected]
                    for layer, step, position, score, selected in self.selection))


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
