"""Perplexity evaluation, the per-layer criterion sweep, and the ablation grid.

Perplexity uses non-overlapping context_len chunks (final partial chunk
dropped) and teacher-forced NLL of every position after the first, summed in
float64. Dense evaluation is the empty plan: both run the same kernel, so
their reports agree bitwise. The layerwise sweep, the ablation grid and
greedy calibration pass an earlier recorded run as the base of each
evaluation, which then resumes at the first layer where the two runs differ,
from the base's recorded layer inputs; their perplexities equal the
standalone op's bitwise. When the base ran that layer dense and KV for
unselected tokens is on, the layer's selected rows are the base's recorded
output rows, so it mixes them in without running its block.
"""

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .calibration import LayerPlan, _plan_ratios, corpus_sha256, flop_count
from .errors import ConfigError, UsageError, _is_number
from .model_runtime import KVCache, Model
from .selection import DEFAULT_CRITERION, Criterion, _run_layers, forward_with_plan
from .trace import HiddenTrace, _write_csv


@dataclass
class EvalReport:
    """One perplexity measurement and everything needed to reproduce it."""

    model_id: str
    plan_id: str
    plan_layers: list[int]
    corpus_sha256: str
    context_len: int
    n_chunks: int
    n_tokens: int
    n_predicted: int
    chunk_nll: list[float]
    total_nll: float
    perplexity: float
    flop_ratio: float
    criterion: str = "orthogonal_asc/normalized"
    kv_for_unselected: bool = True

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _plan_id(plan: LayerPlan) -> str:
    if not plan.layers:
        return "dense"
    return hashlib.sha256(plan.to_json().encode()).hexdigest()[:12]


def criterion_label(criterion: Criterion, kv: bool) -> str:
    return f"{criterion.kind}/{criterion.stage}/kv_{'on' if kv else 'off'}"


def _chunk_nll(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-position NLL in float64 from (T-1, vocab) logits rows.

    log-sum-exp of each row minus its target's logit. The one float64 copy
    of the logits is the only array of their size: the target logits are
    picked from it first, then it is shifted by its row maxima and
    exponentiated in place. Each step rounds as it would into a new array,
    so the result is the formula's bit for bit.
    """
    ls = logits.astype(np.float64)
    picked = ls[np.arange(targets.size), targets]
    row_max = np.maximum.reduce(ls, axis=1, keepdims=True)
    ls -= row_max
    np.exp(ls, out=ls)
    return row_max[:, 0] + np.log(np.add.reduce(ls, axis=1)) - picked


def _corpus_chunks(corpus_tokens, context_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The corpus as an integer id array and its (n_chunks, context_len) chunks, partial dropped."""
    if not (_is_number(context_len, numbers.Integral) and context_len >= 2):
        raise UsageError(f"context_len must be an integer >= 2, got {context_len!r}")
    tokens = np.asarray(corpus_tokens)
    if tokens.ndim != 1 or tokens.size < context_len or tokens.dtype.kind not in "iu":
        raise UsageError(f"corpus needs at least context_len={context_len} integer ids, "
                         f"got {tokens.size} of dtype {tokens.dtype}")
    n_chunks = tokens.size // context_len
    return tokens, tokens[:n_chunks * context_len].reshape(n_chunks, context_len)


def _resolve_plan(model: Model, plan: LayerPlan) -> dict[int, float]:
    """``plan`` as ``{layer: keep ratio}`` on ``model``: the one check of a plan against a model.

    Its layers and its sink layer must exist in the model (``l_sink=-1``
    makes every layer eligible), and a plan made for another model, one
    whose ``model_id`` is neither ``"unknown"`` nor the model's, raises
    ConfigError, as does a ``plan`` that is not a LayerPlan.
    """
    if not isinstance(plan, LayerPlan):
        raise ConfigError(f"a plan must be a LayerPlan, got {type(plan).__name__}")
    if plan.model_id not in ("unknown", model.model_id):
        raise ConfigError(f"the plan was made for model {plan.model_id!r}, "
                          f"not for model {model.model_id!r}")
    if plan.l_sink >= model.config.n_layers:
        raise ConfigError(f"the plan's l_sink {plan.l_sink} is not a layer of a "
                          f"{model.config.n_layers}-layer model")
    return _plan_ratios(plan.layers, plan.keep_ratio, model.config.n_layers)


class _EvalRun(NamedTuple):
    """One evaluation of a corpus's chunks under a plan and a selection rule.

    ``chunk_nll`` holds each chunk's NLL total, ``total_nll`` their sum in
    chunk order and ``perplexity`` exp(total / predictions). ``ratios`` is
    the resolved ``{layer: keep ratio}`` plan and ``rule`` the ``(criterion,
    compute_kv_for_unselected)`` pair. ``states[c][l]`` is chunk c's input
    to layer l, for every layer, when the run was recorded; else None.
    """

    chunk_nll: list[float]
    total_nll: float
    perplexity: float
    ratios: dict[int, float]
    rule: tuple[Criterion, bool]
    states: list[list[np.ndarray]] | None


def _eval_chunks(model, chunks, plan, criterion=DEFAULT_CRITERION,
                 compute_kv_for_unselected=True, trace=None, base=None,
                 record=False) -> _EvalRun:
    """Evaluate every chunk of the (n_chunks, W) ``chunks`` under ``plan``; one run record.

    Each chunk runs from its embeddings through the public
    ``forward_with_plan`` (so a trace of the public API sees it) or, given
    ``base``, a recorded run over the same chunks, from the first layer
    where the two runs differ, on the base's input state there: the
    smallest layer whose keep ratio differs or, when the criterion or KV
    setting differs, the smallest plan layer of either run (the last layer
    when nothing differs). Layers outside a plan run dense whatever the
    rule, so the result is bitwise that of a run from the embeddings. When
    the base ran that layer dense, the run has KV for unselected tokens on,
    the layer is not the last, and no attention mass is captured, the
    layer's selected rows are bitwise the base's recorded output rows: it
    takes them from the record (a row mix) instead of running its block.
    Every chunk records into ``trace``, with the chunk index as the step of
    its selection rows. With ``record`` each chunk records into a
    ``HiddenTrace()`` of its own instead (so a chunk's normalized states go
    with its trace), and the run keeps every chunk's input to every layer:
    the base's below the resume layer, its own from there. The plan is
    checked against the model first (``_resolve_plan``).
    """
    ratios = _resolve_plan(model, plan)
    rule = (criterion, compute_kv_for_unselected)
    first = 0 if base is None else min(
        (l for l in ratios.keys() | base.ratios.keys()
         if rule != base.rule or ratios.get(l) != base.ratios.get(l)),
        default=model.config.n_layers - 1)  # no record holds the last layer's output
    mix = (base is not None and compute_kv_for_unselected and first not in base.ratios
           and first + 1 < model.config.n_layers
           and (trace is None or trace.attn_to_sink is None))
    nlls, states = [], [] if record else None
    for c, chunk in enumerate(chunks):
        chunk_trace = HiddenTrace() if record else trace
        rows = None if chunk_trace is None else chunk_trace.selection
        n_rows = 0 if rows is None else len(rows)
        if base is None:
            logits, _, _ = forward_with_plan(model, chunk, plan.layers, plan.keep_ratio,
                                             criterion, compute_kv_for_unselected, chunk_trace)
        else:
            logits = _run_layers(model, None, KVCache(model.config), ratios, criterion,
                                 compute_kv_for_unselected, chunk_trace,
                                 resume=(first, base.states[c][first],
                                         base.states[c][first + 1] if mix else None))
        if rows:  # the chunk's prefill recorded step 0
            rows[n_rows:] = [(l, c, p, s, k) for l, _, p, s, k in rows[n_rows:]]
        nlls.append(float(np.sum(_chunk_nll(logits[:-1], chunk[1:]))))
        if record:
            below = [] if base is None else base.states[c][:first]
            states.append(below + chunk_trace.hidden)
    total = 0.0
    for nll in nlls:
        total += nll
    ppl = float(np.exp(total / (len(nlls) * (chunks.shape[1] - 1))))
    return _EvalRun(nlls, total, ppl, ratios, rule, states)


def perplexity(
    model: Model,
    plan: LayerPlan | None,
    corpus_tokens,
    context_len: int,
    criterion: Criterion = DEFAULT_CRITERION,
    compute_kv_for_unselected: bool = True,
    trace: HiddenTrace | None = None,
) -> EvalReport:
    """Chunked teacher-forced perplexity under a plan; ``None`` means ``LayerPlan()``.

    The plan resolves through ``_plan_ratios`` (no ``{layer: ratio}``
    mapping form). Every chunk of ``context_len`` tokens contributes the
    NLL of its positions 1..W-1; perplexity is exp(total NLL / total
    predictions). A ``trace`` records every chunk's forward pass, with the
    chunk index as the step of its selection rows.
    """
    plan = LayerPlan() if plan is None else plan
    tokens, chunks = _corpus_chunks(corpus_tokens, context_len)
    run = _eval_chunks(model, chunks, plan, criterion, compute_kv_for_unselected, trace)
    n_chunks, context_len = chunks.shape  # Python ints, whatever integer type came in
    flops = flop_count(model.config, plan, context_len)
    return EvalReport(
        model_id=model.model_id,
        plan_id=_plan_id(plan),
        plan_layers=list(plan.layers),
        corpus_sha256=corpus_sha256(tokens),
        context_len=context_len,
        n_chunks=n_chunks,
        n_tokens=n_chunks * context_len,
        n_predicted=n_chunks * (context_len - 1),
        chunk_nll=run.chunk_nll,
        total_nll=run.total_nll,
        perplexity=run.perplexity,
        flop_ratio=flops["ratio"],
        criterion=f"{criterion.kind}/{criterion.stage}",
        kv_for_unselected=compute_kv_for_unselected,
    )


def layerwise_comparison(
    model: Model,
    corpus_tokens,
    keep_ratio: float,
    criteria: list[Criterion],
    l_sink: int,
    context_len: int,
) -> dict:
    """Perplexity of converting each single layer after the sink, per criterion.

    Sweeps every layer index in (l_sink, n_layers), final layer included so
    its degradation is visible. Returns {"layers", "dense", "columns":
    {label: [ppl per layer]}}. The dense pass runs once per chunk and
    records its layer inputs; it is the base of every cell, so each cell
    resumes at its own layer and, but for the final layer's, takes that
    layer's selected rows from the dense record. ``l_sink`` must be a
    layer of the model or -1, and every criterion a Criterion, else
    ConfigError before any pass.
    """
    if not criteria:
        raise UsageError("need at least one criterion")
    if not all(isinstance(crit, Criterion) for crit in criteria):
        raise ConfigError("every criterion of the sweep must be a Criterion")
    _, chunks = _corpus_chunks(corpus_tokens, context_len)
    _resolve_plan(model, LayerPlan(model_id=model.model_id, l_sink=l_sink))
    layers = list(range(l_sink + 1, model.config.n_layers))
    dense = _eval_chunks(model, chunks, LayerPlan(), record=True)
    columns: dict[str, list[float]] = {}
    for crit in criteria:
        label = criterion_label(crit, kv=True)
        cells = []
        for layer in layers:
            plan = LayerPlan(layers=[layer], keep_ratio=keep_ratio,
                             model_id=model.model_id, l_sink=l_sink)
            cells.append(_eval_chunks(model, chunks, plan, crit, base=dense).perplexity)
        columns[label] = cells
    return {"layers": layers, "dense": dense.perplexity, "columns": columns}


def layerwise_to_csv(table: dict, path) -> None:
    labels = list(table["columns"])
    _write_csv(path, ["layer", "dense"] + labels,
               ([layer, repr(table["dense"])] + [repr(table["columns"][lab][i]) for lab in labels]
                for i, layer in enumerate(table["layers"])))


ABLATION_ROWS: list[tuple[str, str, bool]] = [
    ("random", "normalized", True),
    ("norm_asc", "normalized", True),
    ("norm_desc", "normalized", True),
    ("orthogonal_desc", "normalized", True),
    ("orthogonal_asc", "raw_hidden", True),
    ("orthogonal_asc", "normalized", False),
    ("orthogonal_asc", "normalized", True),
]


def ablation_grid(
    model: Model,
    plan: LayerPlan,
    corpus_tokens,
    context_len: int,
    random_seed: int = 0,
    audit: HiddenTrace | None = None,
) -> list[dict]:
    """The seven-row criterion/stage/KV ablation over one plan.

    The first row runs from the embeddings and records its layer inputs; it
    is the base of the other six, which differ from it only in the rule and
    so resume at the plan's first layer. The last row is the default
    configuration and equals the standalone perplexity op bitwise. An
    ``audit`` trace records the KV-off row's run: from the plan's first
    layer on, so its selection rows are those a standalone KV-off
    ``perplexity`` records, bitwise.
    """
    _, chunks = _corpus_chunks(corpus_tokens, context_len)
    rows, base = [], None
    for kind, stage, kv in ABLATION_ROWS:
        crit = Criterion(kind, stage, seed=random_seed)
        run = _eval_chunks(model, chunks, plan, crit, kv, None if kv else audit, base,
                           record=base is None)
        if base is None:
            base = run
        rows.append(
            {
                "criterion": kind,
                "stage": stage,
                "kv_for_unselected": kv,
                "perplexity": run.perplexity,
            }
        )
    return rows


def ablation_to_csv(rows: list[dict], path) -> None:
    _write_csv(path, ["criterion", "stage", "kv_for_unselected", "perplexity"],
               ([row["criterion"], row["stage"], "on" if row["kv_for_unselected"] else "off",
                 repr(row["perplexity"])] for row in rows))
