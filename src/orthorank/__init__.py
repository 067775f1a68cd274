"""Selective-computation inference runtime for decoder-only transformers.

Tokens are ranked by how orthogonal their normalized hidden states are to
the attention sink's state; the most orthogonal tokens get full compute in
converted layers while the rest contribute only keys and values. The
package bundles the runtime, the selection rule, layer calibration, trace
analysis, a perplexity harness, and a CLI.
"""

from .analysis import (
    NormProfile,
    SimilarityMatrix,
    cross_layer_self_similarity,
    norm_profile,
    scaling_agreement,
    sink_token_similarity,
)
from .calibration import (
    LayerPlan,
    calibrate_greedy,
    corpus_sha256,
    effective_sparsity,
    eligible_layers,
    flop_count,
    plan_effective_sparsity,
    plan_from_sparsity,
)
from .checkpoint_io import (
    ModelConfig,
    generate_synthetic_model,
    generate_synthetic_sink_trace,
    load_checkpoint,
    required_tensors,
    save_checkpoint,
    weights_sha256,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DomainError,
    OrthoRankError,
    ShapeError,
    StateError,
    UsageError,
)
from .eval_harness import (
    EvalReport,
    ablation_grid,
    ablation_to_csv,
    layerwise_comparison,
    layerwise_to_csv,
    perplexity,
)
from .model_runtime import (
    KVCache,
    Model,
    block_forward,
    decode_step_dense,
    detect_sink_layer,
    forward_dense,
    lm_head_logits,
)
from .selection import (
    Criterion,
    cos_gradient,
    decode_select,
    decode_step_with_plan,
    forward_orthorank_layer,
    forward_with_plan,
    generate_greedy,
    importance_norm_sq,
    select_topk,
    selection_keys,
)
from .trace import HiddenTrace, dump_trace_csv

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "Criterion",
    "DomainError",
    "EvalReport",
    "HiddenTrace",
    "KVCache",
    "LayerPlan",
    "Model",
    "ModelConfig",
    "NormProfile",
    "OrthoRankError",
    "ShapeError",
    "SimilarityMatrix",
    "StateError",
    "UsageError",
    "ablation_grid",
    "ablation_to_csv",
    "block_forward",
    "calibrate_greedy",
    "corpus_sha256",
    "cos_gradient",
    "cross_layer_self_similarity",
    "decode_select",
    "decode_step_dense",
    "decode_step_with_plan",
    "detect_sink_layer",
    "dump_trace_csv",
    "effective_sparsity",
    "eligible_layers",
    "flop_count",
    "forward_dense",
    "forward_orthorank_layer",
    "forward_with_plan",
    "generate_greedy",
    "generate_synthetic_model",
    "generate_synthetic_sink_trace",
    "importance_norm_sq",
    "layerwise_comparison",
    "layerwise_to_csv",
    "lm_head_logits",
    "load_checkpoint",
    "norm_profile",
    "perplexity",
    "plan_effective_sparsity",
    "plan_from_sparsity",
    "required_tensors",
    "save_checkpoint",
    "scaling_agreement",
    "select_topk",
    "selection_keys",
    "sink_token_similarity",
    "weights_sha256",
]
