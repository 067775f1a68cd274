"""Command-line entry point.

Commands: synth-model, analyze, calibrate, eval-ppl, layerwise, ablate,
flops, generate. Corpora are plain-text files of whitespace-separated token
ids. All randomness sits behind explicit --seed flags on the commands that
draw random numbers. Exit code 0 means all outputs were written. A library
error or a file that cannot be read or written (a missing file, a
directory, a missing output directory) prints one ``error:`` line to stderr
and exits 2. Output paths, and plan files against the model, are checked
before a command's main work starts.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, eval_harness
from .calibration import (
    DEFAULT_KEEP_RATIO,
    LayerPlan,
    calibrate_greedy,
    flop_count,
    plan_effective_sparsity,
    plan_from_sparsity,
)
from .checkpoint_io import (
    ModelConfig,
    generate_synthetic_model,
    generate_synthetic_sink_trace,
    weights_sha256,
)
from .errors import OrthoRankError, UsageError
from .model_runtime import Model, detect_sink_layer, forward_dense
from .selection import Criterion, generate_greedy
from .trace import HiddenTrace, dump_trace_csv


def _int(text: str, what: str) -> int:
    """``text`` as an int; UsageError naming ``what`` otherwise."""
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} {text!r} is not an integer") from None


def load_corpus(path) -> np.ndarray:
    """Whitespace-separated token ids from a text file."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"corpus file not found: {path}")
    tokens = [_int(word, "corpus token") for word in path.read_text().split()]
    if not tokens:
        raise UsageError(f"corpus file {path} is empty")
    return np.asarray(tokens, dtype=np.int64)


def parse_positions(text: str) -> list[int]:
    """Parse "1..10" ranges and "0,50,100" lists (mixable)."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(_int(lo, "position"), _int(hi, "position") + 1))
        elif part:
            out.append(_int(part, "position"))
    if not out:
        raise UsageError(f"no positions in {text!r}")
    return out


def _resolve_l_sink(args, model, corpus) -> int:
    if args.l_sink is not None:
        return args.l_sink
    probe = corpus[: max(8, min(64, corpus.size))]
    l_sink = detect_sink_layer(model, probe, tau=args.tau)
    if l_sink >= model.config.n_layers:
        print(f"note: no sink layer at tau={args.tau}; proceeding with l_sink=0")
        return 0
    print(f"detected l_sink={l_sink} at tau={args.tau}")
    return l_sink


def _model_and_corpus(args) -> tuple[Model, np.ndarray]:
    """The ``--model`` checkpoint and the ``--corpus`` tokens, loaded in that order."""
    return Model.from_checkpoint(args.model), load_corpus(args.corpus)


def _load_plan(args, model) -> LayerPlan:
    """The ``--plan`` file, checked against ``model``; the dense plan without one."""
    if not args.plan:
        return LayerPlan()
    plan = LayerPlan.load(args.plan)
    eval_harness._resolve_plan(model, plan)
    return plan


def _eval_inputs(args) -> tuple[Model, np.ndarray, LayerPlan]:
    """Model, corpus and checked plan of a perplexity run, loaded in that order.

    Prints a note when the plan was calibrated at another context length
    than ``--context-len``.
    """
    model, corpus = _model_and_corpus(args)
    plan = _load_plan(args, model)
    calibrated = plan.calib.get("context_len") if isinstance(plan.calib, dict) else None
    if calibrated is not None and calibrated != args.context_len:
        print(f"note: plan was calibrated at context length {calibrated}; "
              f"evaluating at {args.context_len}")
    return model, corpus, plan


def _check_outputs(args) -> None:
    """UsageError unless every output file can be written, checked before any work.

    ``analyze`` and ``synth-model`` create their ``--out`` directory.
    """
    if args.command in ("analyze", "synth-model"):
        return
    for out in (getattr(args, "out", None), getattr(args, "audit_csv", None)):
        if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
            raise UsageError(f"cannot write {out}: it is a directory or its directory "
                             "does not exist")


def cmd_synth_model(args) -> int:
    if args.heads < 1:  # d_head is d_model // heads
        raise UsageError(f"--heads must be >= 1, got {args.heads}")
    config = ModelConfig(
        n_layers=args.layers,
        d_model=args.d_model,
        n_heads=args.heads,
        n_kv_heads=args.heads if args.kv_heads is None else args.kv_heads,
        d_head=args.d_model // args.heads,
        d_ffn=4 * args.d_model if args.d_ffn is None else args.d_ffn,
        vocab_size=args.vocab,
        rope_theta=args.rope_theta,
        norm_eps=args.norm_eps,
        tied_embeddings=not args.untied,
    )
    out = generate_synthetic_model(config, args.seed, args.out)
    print(f"wrote checkpoint to {out}")
    print(f"weights sha256: {weights_sha256(out)}")
    return 0


def cmd_analyze(args) -> int:
    if args.seq_len is not None and args.seq_len < 1:
        raise UsageError(f"--seq-len must be >= 1, got {args.seq_len}")
    if args.synthetic:
        trace = generate_synthetic_sink_trace(
            args.layers,
            101 if args.seq_len is None else args.seq_len,
            args.d,
            1 if args.l_sink is None else args.l_sink,
            args.rate,
            args.seed,
        )
    elif args.model and args.corpus:
        model, corpus = _model_and_corpus(args)
        _, trace, _ = forward_dense(model, corpus[: args.seq_len], HiddenTrace())
    else:
        raise UsageError("analyze needs either --synthetic or both --model and --corpus")

    sink_positions = (
        parse_positions(args.positions) if args.positions
        else analysis.default_sink_positions(trace.seq_len)
    )
    cross_positions = (
        parse_positions(args.cross_positions) if args.cross_positions
        else analysis.default_cross_positions(trace.seq_len)
    )

    sink = analysis.sink_token_similarity(trace, sink_positions)
    cross = [analysis.cross_layer_self_similarity(trace, pos) for pos in cross_positions]
    norms = analysis.norm_profile(trace)
    out_dir = Path(args.out)  # made only once every table is computed
    out_dir.mkdir(parents=True, exist_ok=True)
    sink.to_csv(out_dir / "sink_vs_tokens.csv")
    for pos, table in zip(cross_positions, cross):
        table.to_csv(out_dir / f"cross_layer_p{pos}.csv")
    norms.to_csv(out_dir / "norms.csv")
    if args.dump_trace:
        dump_trace_csv(trace, out_dir / "trace_states.csv")
    written = ["sink_vs_tokens.csv"] + [f"cross_layer_p{p}.csv" for p in cross_positions]
    print(f"wrote {', '.join(written)}, norms.csv to {out_dir}")
    return 0


def cmd_calibrate(args) -> int:
    model, corpus = _model_and_corpus(args)
    l_sink = _resolve_l_sink(args, model, corpus)
    m, eligible = plan_from_sparsity(
        model.config.n_layers, l_sink, args.sparsity, args.keep_ratio
    )
    plan = calibrate_greedy(
        model, corpus, m, args.keep_ratio, eligible,
        context_len=args.context_len, l_sink=l_sink,
        target_sparsity=args.sparsity, one_shot=args.one_shot,
    )
    plan.save(args.out)
    achieved = plan_effective_sparsity(plan, model.config.n_layers)
    print(f"plan: {len(plan.layers)} layers {plan.layers} at keep_ratio {args.keep_ratio}")
    print(f"target sparsity {args.sparsity}, achieved {achieved:.4f}")
    print(f"wrote {args.out}")
    return 0


def cmd_eval_ppl(args) -> int:
    model, corpus, plan = _eval_inputs(args)
    report = eval_harness.perplexity(
        model, plan, corpus, args.context_len,
        criterion=Criterion(args.criterion, args.stage, args.seed),
        compute_kv_for_unselected=not args.no_kv,
    )
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"wrote {args.out}")
    print(
        f"perplexity {report.perplexity:.6f} over {report.n_predicted} predictions "
        f"({report.n_chunks} chunks of {args.context_len}); flop ratio {report.flop_ratio:.4f}"
    )
    return 0


def cmd_layerwise(args) -> int:
    model, corpus = _model_and_corpus(args)
    l_sink = _resolve_l_sink(args, model, corpus)
    criteria = [Criterion(kind.strip(), "normalized", args.seed)
                for kind in args.criteria.split(",")]
    table = eval_harness.layerwise_comparison(
        model, corpus, args.keep_ratio, criteria, l_sink, args.context_len
    )
    eval_harness.layerwise_to_csv(table, args.out)
    print(f"dense perplexity {table['dense']:.6f}; wrote {args.out}")
    return 0


def cmd_ablate(args) -> int:
    model, corpus, plan = _eval_inputs(args)
    rows = eval_harness.ablation_grid(model, plan, corpus, args.context_len, args.seed)
    eval_harness.ablation_to_csv(rows, args.out)
    if args.audit_csv:
        trace = HiddenTrace(hidden=None, selection=[])
        eval_harness.perplexity(
            model, plan, corpus, args.context_len,
            compute_kv_for_unselected=False, trace=trace,
        )
        trace.write_selection_csv(args.audit_csv)
        print(f"wrote KV-off selection audit to {args.audit_csv}")
    for row in rows:
        kv = "on" if row["kv_for_unselected"] else "off"
        print(
            f"{row['criterion']:>16} {row['stage']:>10} kv_{kv}: "
            f"perplexity {row['perplexity']:.6f}"
        )
    print(f"wrote {args.out}")
    return 0


def cmd_flops(args) -> int:
    if args.plan and args.layers:
        raise UsageError("flops takes a plan from --plan or --layers, not both")
    model = Model.from_checkpoint(args.model)
    plan = _load_plan(args, model)
    if args.layers:
        plan = LayerPlan(layers=parse_positions(args.layers), keep_ratio=args.keep_ratio,
                         l_sink=-1)
    counts = flop_count(model.config, plan, args.seq_len)
    payload = {k: counts[k] for k in ("dense_flops", "plan_flops", "ratio")}
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    print(text)
    return 0


def cmd_generate(args) -> int:
    model = Model.from_checkpoint(args.model)
    prompt = [_int(t, "prompt token") for t in args.prompt.split()]
    plan = _load_plan(args, model)
    trace = HiddenTrace(hidden=None, selection=[]) if args.audit_csv else None
    tokens = generate_greedy(
        model, prompt, args.n_new, plan.layers, plan.keep_ratio,
        criterion=Criterion(args.criterion, args.stage, args.seed),
        compute_kv_for_unselected=not args.no_kv,
        trace=trace,
    )
    if trace is not None:
        trace.write_selection_csv(args.audit_csv)
        print(f"wrote selection audit to {args.audit_csv}")
    print(" ".join(str(t) for t in tokens))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthorank",
        description="Selective-computation decoder runtime: analyze, calibrate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags that several commands share, each declared once
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True)
    inputs = argparse.ArgumentParser(add_help=False, parents=[model])
    inputs.add_argument("--corpus", required=True)
    sink = argparse.ArgumentParser(add_help=False)
    sink.add_argument("--l-sink", type=int, default=None)
    sink.add_argument("--tau", type=float, default=0.3)
    keep = argparse.ArgumentParser(add_help=False)
    keep.add_argument("--keep-ratio", type=float, default=DEFAULT_KEEP_RATIO)
    rule = argparse.ArgumentParser(add_help=False)
    rule.add_argument("--criterion", default="orthogonal_asc")
    rule.add_argument("--stage", default="normalized")
    rule.add_argument("--no-kv", action="store_true")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth-model", parents=[seed],
                       help="write a deterministic random checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--d-model", type=int, required=True)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--kv-heads", type=int, default=None)
    p.add_argument("--d-ffn", type=int, default=None)
    p.add_argument("--vocab", type=int, default=256)
    p.add_argument("--rope-theta", type=float, default=10000.0)
    p.add_argument("--norm-eps", type=float, default=1e-5)
    p.add_argument("--untied", action="store_true")
    p.set_defaults(func=cmd_synth_model)

    p = sub.add_parser("analyze", parents=[seed], help="similarity and norm CSVs from a trace")
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--layers", type=int, default=32)
    p.add_argument("--seq-len", type=int, default=None)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--l-sink", type=int, default=None)
    p.add_argument("--rate", type=float, default=0.25)
    p.add_argument("--positions", default=None, help='sink probe positions, e.g. "1..10"')
    p.add_argument("--cross-positions", default=None, help='e.g. "0,50,100"')
    p.add_argument("--dump-trace", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("calibrate", parents=[inputs, keep, sink],
                       help="greedy layer selection to a target sparsity")
    p.add_argument("--sparsity", type=float, required=True)
    p.add_argument("--context-len", type=int, default=128)
    p.add_argument("--one-shot", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("eval-ppl", parents=[inputs, rule, seed],
                       help="chunked perplexity under a plan (or dense)")
    p.add_argument("--plan", default=None)
    p.add_argument("--context-len", type=int, default=256)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_ppl)

    p = sub.add_parser("layerwise", parents=[inputs, keep, sink, seed],
                       help="single-layer conversion sweep per criterion")
    p.add_argument("--context-len", type=int, default=128)
    p.add_argument("--criteria", default="orthogonal_asc,orthogonal_desc,random")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_layerwise)

    p = sub.add_parser("ablate", parents=[inputs, seed],
                       help="criterion/stage/KV ablation grid for a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--context-len", type=int, default=128)
    p.add_argument("--audit-csv", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("flops", parents=[model, keep], help="dense vs plan FLOP totals and ratio")
    p.add_argument("--plan", default=None)
    p.add_argument("--layers", default=None, help='plan layers inline, e.g. "4..15"')
    p.add_argument("--seq-len", type=int, default=128)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("generate", parents=[model, rule, seed],
                       help="greedy decode with optional selective plan")
    p.add_argument("--prompt", required=True, help="space-separated token ids")
    p.add_argument("--n-new", type=int, default=16)
    p.add_argument("--plan", default=None)
    p.add_argument("--audit-csv", default=None)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except (OrthoRankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
