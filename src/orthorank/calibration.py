"""Choosing which layers run selectively, and the sparsity/FLOP arithmetic.

Converting a fraction f of the layers to compute only a fraction r of their
tokens removes f * (1 - r) of the block compute (the effective sparsity).
Calibration greedily converts one layer per round, always the one whose
conversion keeps calibration perplexity lowest, starting from the layers
after the sink layer and never touching the final layer.
"""

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint_io import ModelConfig
from .errors import ConfigError, UsageError, _is_number

DEFAULT_KEEP_RATIO = 0.333


def _integers(values, what: str) -> list[int]:
    """``values`` as ints: integers only, numpy integers included, bools not."""
    try:
        items = list(values)
    except TypeError:
        items = None
    if items is None or not all(_is_number(v, numbers.Integral) for v in items):
        raise ConfigError(f"{what}: expected integers, got {values!r}")
    return [int(v) for v in items]


def _plan_ratios(plan_layers, keep_ratio, n_layers: int | None = None) -> dict[int, float]:
    """Resolve a plan to ``{layer: keep ratio}``; the one reader of plan layers and ratios.

    Layers are distinct integers. ``keep_ratio`` is one real number (numpy
    scalars included, bools not) for every layer, or a 1-D list, tuple or
    array of them with one per layer; there is no mapping form. Every
    ratio lies in [0, 1]. Layers are checked against the model only when
    ``n_layers`` is given. Anything else raises ConfigError.
    """
    layers = _integers(plan_layers, "plan layers")
    if _is_number(keep_ratio):
        ratios = [keep_ratio] * len(layers)
    elif (isinstance(keep_ratio, (list, tuple, np.ndarray)) and getattr(keep_ratio, "ndim", 1) == 1
          and all(_is_number(r) for r in keep_ratio)):
        ratios = list(keep_ratio)
    else:
        raise ConfigError(f"keep_ratio must be a number or a list of numbers, got {keep_ratio!r}")
    if len(set(layers)) != len(layers) or len(ratios) != len(layers):
        raise ConfigError(f"plan needs distinct layers with one keep ratio each, "
                          f"got layers {layers} and keep_ratio {keep_ratio!r}")
    if n_layers is not None and not all(0 <= l < n_layers for l in layers):
        raise ConfigError(f"plan layers out of range for a {n_layers}-layer model: {layers}")
    if not all(0 <= r <= 1 for r in ratios):
        raise ConfigError(f"keep ratios must lie in [0, 1], got {keep_ratio!r}")
    return {l: float(r) for l, r in zip(layers, ratios)}


@dataclass
class LayerPlan:
    """The calibrated set of selective layers plus audit metadata.

    ``layers`` and ``keep_ratio`` resolve through ``_plan_ratios`` (no
    mapping form) and are kept as ascending ints after ``l_sink`` and one
    float or a list of floats aligned with ``layers``, each in (0, 1].
    ``LayerPlan()`` is the dense plan. ``calib`` records corpus hash and
    context length so a plan states what produced it.
    """

    layers: list[int] = field(default_factory=list)
    keep_ratio: float | list[float] = DEFAULT_KEEP_RATIO
    model_id: str = "unknown"
    l_sink: int = 0
    target_sparsity: float | None = None
    calib: dict = field(default_factory=dict)

    def __post_init__(self):
        ratios = _plan_ratios(self.layers, self.keep_ratio)
        self.layers = list(ratios)
        self.keep_ratio = (float(self.keep_ratio) if _is_number(self.keep_ratio)
                           else list(ratios.values()))
        (self.l_sink,) = _integers([self.l_sink], "l_sink")
        if self.layers != sorted(self.layers):
            raise ConfigError(f"plan layers must be strictly ascending, got {self.layers}")
        if self.layers and self.layers[0] <= self.l_sink:
            raise ConfigError(
                f"plan layer {self.layers[0]} is not after the sink layer {self.l_sink}"
            )
        if any(r <= 0 for r in ratios.values()):
            raise ConfigError(f"keep ratios must lie in (0, 1], got {self.keep_ratio}")

    def ratios(self) -> list[float]:
        return list(_plan_ratios(self.layers, self.keep_ratio).values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "model_id": self.model_id,
                "l_sink": self.l_sink,
                "target_sparsity": self.target_sparsity,
                "keep_ratio": self.keep_ratio,
                "layers": self.layers,
                "calib": self.calib,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text) -> "LayerPlan":
        """Parse a plan from JSON text or bytes; a malformed plan raises ConfigError."""
        try:
            data = json.loads(text)
        except (TypeError, ValueError) as exc:  # not text or bytes, invalid JSON or UTF-8
            raise ConfigError(f"plan is not valid JSON: {exc}") from None
        if not isinstance(data, dict) or not {"layers", "keep_ratio"} <= data.keys():
            raise ConfigError("plan must be a JSON object with 'layers' and 'keep_ratio'")
        return cls(
            layers=data["layers"],
            keep_ratio=data["keep_ratio"],
            model_id=data.get("model_id", "unknown"),
            l_sink=data.get("l_sink", 0),
            target_sparsity=data.get("target_sparsity"),
            calib=data.get("calib", {}),
        )

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "LayerPlan":
        path = Path(path)
        if not path.is_file():
            raise UsageError(f"plan file not found: {path}")
        return cls.from_json(path.read_bytes())


def effective_sparsity(layer_fraction: float, keep_ratio: float) -> float:
    """Fraction of block compute removed: f * (1 - r)."""
    for name, value in (("layer_fraction", layer_fraction), ("keep_ratio", keep_ratio)):
        if not (_is_number(value) and 0.0 <= value <= 1.0):
            raise ConfigError(f"{name} must be in [0, 1], got {value!r}")
    return layer_fraction * (1.0 - keep_ratio)


def plan_effective_sparsity(plan: LayerPlan, n_layers: int) -> float:
    """Effective sparsity a plan achieves on an n_layers model."""
    if not (_is_number(n_layers, numbers.Integral) and n_layers >= 1):
        raise ConfigError(f"n_layers must be an integer >= 1, got {n_layers!r}")
    return sum(1.0 - r for r in plan.ratios()) / n_layers


def eligible_layers(n_layers: int, l_sink: int) -> list[int]:
    """Layers a plan may convert: strictly after the sink, before the last."""
    n_layers, l_sink = _integers((n_layers, l_sink), "n_layers and l_sink")
    return list(range(l_sink + 1, n_layers - 1))


def plan_from_sparsity(
    n_layers: int,
    l_sink: int,
    target_sparsity: float,
    keep_ratio: float = DEFAULT_KEEP_RATIO,
) -> tuple[int, list[int]]:
    """Layer count and eligible set that realize a target sparsity.

    m = round(target * n_layers / (1 - keep_ratio)), rounding half up.
    Raises when the target exceeds what the eligible set can deliver,
    naming the maximum achievable value.
    """
    if not (_is_number(target_sparsity) and 0.0 <= target_sparsity < 1.0):
        raise ConfigError(f"target_sparsity must be in [0, 1), got {target_sparsity!r}")
    if not (_is_number(keep_ratio) and 0.0 < keep_ratio <= 1.0):
        raise ConfigError(f"keep_ratio must be in (0, 1], got {keep_ratio!r}")
    eligible = eligible_layers(n_layers, l_sink)
    if target_sparsity == 0.0:
        return 0, eligible
    if keep_ratio == 1.0:
        raise ConfigError(
            "target sparsity is unreachable at keep_ratio 1.0; maximum achievable is 0"
        )
    m = int(math.floor(target_sparsity * n_layers / (1.0 - keep_ratio) + 0.5))
    if m > len(eligible):
        max_s = (1.0 - keep_ratio) * len(eligible) / n_layers
        raise ConfigError(
            f"target sparsity {target_sparsity} needs {m} layers but only "
            f"{len(eligible)} are eligible; maximum achievable is {max_s:.4f}"
        )
    return m, eligible


def corpus_sha256(tokens) -> str:
    """Identity hash of a token sequence (int64 little-endian bytes)."""
    arr = np.ascontiguousarray(np.asarray(tokens, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def calibrate_greedy(
    model,
    calib_tokens,
    m: int,
    keep_ratio: float,
    eligible,
    context_len: int = 128,
    l_sink: int = 0,
    target_sparsity: float | None = None,
    one_shot: bool = False,
) -> LayerPlan:
    """Pick m layers to convert by measuring calibration perplexity.

    Greedy mode converts one layer per round, each round trying every
    remaining eligible layer on top of the already-converted set and keeping
    the argmin; ties go to the smaller layer index. One-shot mode scores
    every single-layer conversion once and takes the m best.

    Every candidate is evaluated against the round's base run, the
    recorded run of ``chosen``, and so resumes at its own layer ``c``, the
    one layer where the two plans differ. The dense pass, recorded once per
    corpus chunk, is the first base; each round's winner, recorded in every
    round but the last, is the next. Candidates run one at a time in
    ascending layer order, and only the running best candidate's record is
    kept besides the base. One-shot candidates resume from the dense base,
    and m=0 returns the empty plan without a pass. The result is
    deterministic and bitwise that of evaluating every candidate from the
    embeddings. ``l_sink`` must be a layer of the model or -1, else
    ConfigError before any pass.
    """
    from .eval_harness import _corpus_chunks, _eval_chunks, _resolve_plan

    eligible = sorted(set(_integers(eligible, "eligible layers")))
    if not (_is_number(m, numbers.Integral) and 0 <= m <= len(eligible)):
        raise ConfigError(f"m must be an integer in [0, {len(eligible)}], got {m!r}")
    if not all(0 <= l < model.config.n_layers for l in eligible):
        raise ConfigError(f"eligible layers out of range for {model.config.n_layers}-layer model")
    _, chunks = _corpus_chunks(calib_tokens, context_len)
    calib = {"corpus_sha256": corpus_sha256(calib_tokens), "context_len": int(context_len)}

    def plan_of(layers: list[int]) -> LayerPlan:
        return LayerPlan(
            layers=sorted(layers),
            keep_ratio=keep_ratio,
            model_id=model.model_id,
            l_sink=l_sink,
            target_sparsity=target_sparsity,
            calib=calib,
        )

    empty = plan_of([])
    _resolve_plan(model, empty)  # l_sink against the model, before any pass
    if m == 0:
        return empty

    base = _eval_chunks(model, chunks, LayerPlan(), record=True)
    if one_shot:
        ranked = sorted((_eval_chunks(model, chunks, plan_of([c]), base=base).perplexity, c)
                        for c in eligible)
        return plan_of([c for _, c in ranked[:m]])
    chosen: list[int] = []
    for _ in range(m):
        last = len(chosen) == m - 1  # no later round reads the winner's states
        candidates = ((c, _eval_chunks(model, chunks, plan_of(chosen + [c]), base=base,
                                       record=not last))
                      for c in eligible if c not in chosen)
        c, base = min(candidates, key=lambda cand: cand[1].perplexity)  # ties: smaller layer
        chosen.append(c)
    return plan_of(chosen)


def _layer_flops(cfg: ModelConfig, t: int, k: int) -> int:
    """One block over t tokens of which k run fully (k = t for a dense layer)."""
    d, dffn = cfg.d_model, cfg.d_ffn
    q_dim, kv_dim = cfg.n_heads * cfg.d_head, cfg.n_kv_heads * cfg.d_head
    proj = 2 * k * d * q_dim + 2 * 2 * t * d * kv_dim + 2 * k * q_dim * d
    mix = 2 * 2 * cfg.n_heads * k * t * cfg.d_head
    ffn = 2 * k * d * dffn * 2 + 2 * k * dffn * d
    norms = 4 * t * d + 4 * k * d
    return proj + mix + ffn + norms


def _head_flops(cfg: ModelConfig, seq_len: int) -> int:
    return 4 * seq_len * cfg.d_model + 2 * seq_len * cfg.d_model * cfg.vocab_size


def flop_count(config: ModelConfig, plan: LayerPlan, seq_len: int) -> dict:
    """Matmul-dominated FLOP totals for one dense vs. planned forward pass.

    Conventions: 2 FLOPs per multiply-add; attention score/value matmuls
    counted at full (unmasked) size, every query row against all T keys;
    RMSNorm costed at 4 FLOPs per element; a selective layer pays K/V,
    pre-attention norms, and scoring for all T tokens but everything else
    for its k = floor(p * T) tokens. One layer formula serves both: a dense
    layer is the k = T case, and a plan layer adds 2 * T * d for scoring.
    The final norm and output projection appear in both totals. The
    runtime skips most of the masked attention half (each block of query
    rows reads only its key prefix), so these are a fixed convention, not
    the FLOPs executed; a traced benchmark run reports those as
    ``tensor_core.matmul.gflop``.
    """
    if not (_is_number(seq_len, numbers.Integral) and seq_len >= 1):
        raise ConfigError(f"seq_len must be an integer >= 1, got {seq_len!r}")
    ratios = _plan_ratios(plan.layers, plan.keep_ratio, config.n_layers)
    dense_layers = [_layer_flops(config, seq_len, seq_len)] * config.n_layers
    plan_layers = [
        _layer_flops(config, seq_len, int(math.floor(ratios[l] * seq_len)))
        + 2 * seq_len * config.d_model
        if l in ratios else dense_layers[l]
        for l in range(config.n_layers)
    ]
    head = _head_flops(config, seq_len)
    dense_total = sum(dense_layers) + head
    plan_total = sum(plan_layers) + head
    return {
        "dense_flops": dense_total,
        "plan_flops": plan_total,
        "ratio": plan_total / dense_total,
        "per_layer_dense": dense_layers,
        "per_layer_plan": plan_layers,
        "head_flops": head,
    }
