"""The three benchmark workloads and the loop that measures them.

Every workload drives the public ``orthorank`` API through module
attributes (``orr.perplexity`` rather than a name bound at import), so the
wrappers ``tracer.Tracer`` installs see every call. Model weights come from
a fixed seed; corpora and prompts come from the workload seed, and the
library receives only the generated arrays.

An op is one perplexity evaluation pair (prefill), one decode request
(decode) or one calibration (calibrate). It fails when it raises or fails
one of its output checks. Checks run outside the timed sections.
"""

import contextlib
import gc
import math
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import orthorank as orr
from orthorank.checkpoint_io import ModelConfig

MODEL_SEED = 7
# Set-up repeats at least this often, and until it has taken this long in total.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0

# Mid GQA checkpoint for prefill and decode, small MHA for calibration.
MID = ModelConfig(n_layers=8, d_model=256, n_heads=8, n_kv_heads=2, d_head=32,
                  d_ffn=1024, vocab_size=512)
SMALL = ModelConfig(n_layers=8, d_model=64, n_heads=4, n_kv_heads=4, d_head=16,
                    d_ffn=256, vocab_size=256)
FIXED_PLAN = orr.LayerPlan(layers=[2, 3, 4, 5, 6], keep_ratio=0.333, l_sink=1)


# The effective CPU speed of a shared machine drifts by tens of percent over
# minutes, and a run sees only its own part of that drift. Every run
# therefore also times a reference probe, a fixed numpy computation that
# shares no code with orthorank, between its timed sections. Each gated phase
# sample is scaled by PROBE_REF_S / (mean time of the probes just before and
# after it), so it reads as a time at the speed where the probe takes
# PROBE_REF_S. Prefill and decode use speed_probe, which mixes, in roughly
# equal parts, large einsum products (like the projections), a masked softmax
# over a 2 MB score matrix (like attention) and interpreter-bound small
# einsums (like decode's per-head loop). Calibrate uses BlockProbe at its
# small model's shapes: speed_probe's 2 MB arrays make its speed depend on
# where a process's pages land in the cache, which the small model's
# cache-resident work does not share: over ten 12 s processes, calibrate
# medians scaled by speed_probe ranged over 19%, against 7% with BlockProbe.
PROBE_REF_S = 0.015
PROBE_INTERVAL_S = 0.25
_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.standard_normal((64, 256), dtype=np.float32)
_PROBE_B = _PROBE_RNG.standard_normal((256, 512), dtype=np.float32)
_PROBE_S = _PROBE_RNG.standard_normal((512, 1024), dtype=np.float32)
_PROBE_Q = _PROBE_RNG.standard_normal((1, 32), dtype=np.float32)
_PROBE_K = _PROBE_RNG.standard_normal((32, 256), dtype=np.float32)


def _softmax(scores: np.ndarray) -> np.ndarray:
    masked = np.where(scores > -10, scores, -np.inf)
    e = np.exp(masked - masked.max(axis=1, keepdims=True))
    return e / np.einsum("ij->i", e)[:, None]


def speed_probe() -> float:
    """Wall seconds of one run of the reference probe."""
    start = time.perf_counter()
    for _ in range(4):
        np.einsum("ik,kj->ij", _PROBE_A, _PROBE_B)
    _softmax(_PROBE_S)
    for _ in range(300):
        _softmax(np.einsum("ik,kj->ij", _PROBE_Q, _PROBE_K))
    return time.perf_counter() - start


class BlockProbe:
    """Reference probe: a numpy decoder block at a model's shapes, run a fixed number of times.

    RMSNorm, Q/K/V projections, causal attention one head at a time, the
    output projection and a gated FFN over ``rows`` tokens, with fixed random
    weights.
    """

    def __init__(self, config: ModelConfig, rows: int, repeats: int):
        rng = np.random.default_rng(0)

        def weight(*shape):
            return rng.standard_normal(shape, dtype=np.float32) * shape[0] ** -0.5

        d, dh, h = config.d_model, config.d_head, config.n_heads
        self.heads, self.d_head, self.repeats = h, dh, repeats
        self.x = rng.standard_normal((rows, d), dtype=np.float32)
        self.wq, self.wk, self.wv, self.wo = (weight(d, h * dh), weight(d, h * dh),
                                              weight(d, h * dh), weight(h * dh, d))
        self.w_gate, self.w_up, self.w_down = (weight(d, config.d_ffn), weight(d, config.d_ffn),
                                               weight(config.d_ffn, d))
        self.causal = np.tri(rows, dtype=bool)

    def _block(self, x: np.ndarray) -> np.ndarray:
        def norm(v):
            return v / np.sqrt(np.mean(np.square(v), axis=-1, keepdims=True) + 1e-5)

        xn = norm(x)
        q, k, v = (np.einsum("ik,kj->ij", xn, w) for w in (self.wq, self.wk, self.wv))
        ctx = np.empty_like(q)
        for h in range(self.heads):
            cols = slice(h * self.d_head, (h + 1) * self.d_head)
            scores = np.einsum("ik,jk->ij", q[:, cols], k[:, cols]) * self.d_head ** -0.5
            masked = np.where(self.causal, scores, -np.inf)
            e = np.exp(masked - masked.max(axis=1, keepdims=True))
            ctx[:, cols] = np.einsum("ij,jk->ik", e / np.einsum("ij->i", e)[:, None], v[:, cols])
        x = x + np.einsum("ik,kj->ij", ctx, self.wo)
        xn = norm(x)
        gate = np.einsum("ik,kj->ij", xn, self.w_gate)
        hidden = gate * (0.5 * (1.0 + np.tanh(0.5 * gate))) * np.einsum("ik,kj->ij", xn, self.w_up)
        return x + np.einsum("ik,kj->ij", hidden, self.w_down)

    def __call__(self) -> float:
        """Wall seconds of ``repeats`` block passes."""
        start = time.perf_counter()
        x = self.x
        for _ in range(self.repeats):
            x = self._block(x)
        return time.perf_counter() - start


class CheckFailed(Exception):
    """An output of the library disagrees with what the benchmark expects."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Recorder:
    """Timed-section samples of one measuring pass, and the probe times between them.

    With a tracer, each timed section is also a root span named
    ``<workload>.<section>`` whose op id is the op's index.
    """

    def __init__(self, workload: str, probe=speed_probe, tracer=None):
        self.workload = workload
        self.speed_probe = probe
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ref_samples: dict[str, list[float]] = defaultdict(list)
        self.kv_append_bytes: list[int] = []
        self.probes: list[float] = []
        self._last_probe = -math.inf

    def probe(self) -> None:
        """Time the reference probe unless it ran less than PROBE_INTERVAL_S ago."""
        if time.perf_counter() - self._last_probe >= PROBE_INTERVAL_S:
            self.probes.append(self.speed_probe())
            self._last_probe = time.perf_counter()

    @contextlib.contextmanager
    def timed(self, section: str, op_id: int):
        """Time one section; also record it scaled by the probes around it."""
        self.probe()
        before = self.probes[-1]
        span = (self.tracer.root(f"{self.workload}.{section}", op_id)
                if self.tracer is not None else contextlib.nullcontext())
        with span:
            start = time.perf_counter()
            yield
            wall = time.perf_counter() - start
        self.probe()
        self.samples[section].append(wall)
        self.ref_samples[section].append(wall * 2 * PROBE_REF_S / (before + self.probes[-1]))

    def timed_total(self) -> float:
        return sum(sum(v) for v in self.samples.values())

    @contextlib.contextmanager
    def installed(self):
        """Install the tracer's wrappers, if any, for the duration of one op."""
        if self.tracer is None:
            yield
            return
        # Span lists would trigger the cyclic garbage collector and, as they
        # pile up, make each of its passes slower: keep it off while tracing
        # and hide the recorded spans from it afterwards.
        gc.disable()
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()
            gc.freeze()
            gc.enable()


def _cache_arrays(cache) -> list[np.ndarray]:
    return [a for arrays in (cache.keys, cache.values, cache.positions) for a in arrays]


def _seeded_tokens(seed: int, stream: int, n: int, vocab: int) -> np.ndarray:
    return np.random.default_rng((seed, stream)).integers(0, vocab, n, dtype=np.int64)


class Workload:
    """Common set-up: synthesize and load the checkpoint, then generate inputs."""

    name = ""
    config: ModelConfig
    # Timed sections reported as phase1_p50_ref_ms and phase2_p50_ref_ms.
    phases: tuple[str, str]

    def __init__(self, seed: int):
        self.seed = seed
        self.model = None
        self.reference = None
        self.speed_probe = speed_probe

    def setup(self, build_dir) -> None:
        with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
            orr.generate_synthetic_model(self.config, MODEL_SEED, tmp)
            self.model = orr.Model.from_checkpoint(tmp)
        self.make_inputs()

    def make_inputs(self) -> None:
        raise NotImplementedError

    def op(self, op_id: int, rec: Recorder) -> None:
        raise NotImplementedError

    def plan_flop_ratio(self) -> float:
        raise NotImplementedError

    def workload_metrics(self, rec: Recorder) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PrefillSizes:
    corpus_tokens: int = 512
    context_len: int = 256


class Prefill(Workload):
    """Chunked teacher-forced perplexity, dense then under the fixed plan."""

    name = "prefill"
    phases = ("dense_eval", "plan_eval")

    def __init__(self, seed, config=MID, sizes=PrefillSizes(), plan=FIXED_PLAN):
        super().__init__(seed)
        self.config, self.sizes, self.plan = config, sizes, plan

    def make_inputs(self):
        self.corpus = _seeded_tokens(self.seed, 0, self.sizes.corpus_tokens, self.config.vocab_size)

    def op(self, op_id, rec):
        w = self.sizes.context_len
        with rec.timed("dense_eval", op_id):
            dense = orr.perplexity(self.model, None, self.corpus, w)
        with rec.timed("plan_eval", op_id):
            planned = orr.perplexity(self.model, self.plan, self.corpus, w)

        for report, plan in ((dense, orr.LayerPlan()), (planned, self.plan)):
            require(math.isfinite(report.perplexity), f"non-finite perplexity {report.perplexity}")
            expected = orr.flop_count(self.model.config, plan, w)["ratio"]
            require(report.flop_ratio == expected,
                    f"flop_ratio {report.flop_ratio} != flop_count ratio {expected}")
        if self.reference is None:
            self.check_bitwise_dense()
            self.reference = (dense.perplexity, planned.perplexity)
        require((dense.perplexity, planned.perplexity) == self.reference,
                "repeated evaluation changed the perplexities")

    def check_bitwise_dense(self):
        chunk = self.corpus[: self.sizes.context_len]
        dense_logits = orr.forward_dense(self.model, chunk)[0]
        empty = orr.forward_with_plan(self.model, chunk, [], 1.0)[0]
        require(np.array_equal(empty, dense_logits), "empty plan logits differ from dense")
        full = orr.forward_with_plan(self.model, chunk, self.plan.layers, 1.0)[0]
        require(np.array_equal(full, dense_logits), "keep-1.0 plan logits differ from dense")

    def plan_flop_ratio(self):
        return orr.flop_count(self.model.config, self.plan, self.sizes.context_len)["ratio"]

    def workload_metrics(self, rec):
        tokens = (self.corpus.size // self.sizes.context_len) * self.sizes.context_len
        out = {
            "prefill_dense_tok_s": (tokens / _median(rec.samples["dense_eval"]), "tokens/s"),
            "prefill_plan_tok_s": (tokens / _median(rec.samples["plan_eval"]), "tokens/s"),
        }
        if self.reference is not None:
            out["ppl_ratio"] = (self.reference[1] / self.reference[0], "ratio")
        return out


@dataclass(frozen=True)
class DecodeSizes:
    prompt_tokens: int = 1024
    steps: int = 64
    prompts: int = 16


class Decode(Workload):
    """Closed loop, one client: prefill a prompt under the plan, then greedy steps.

    Requests cycle through distinct prompts: which plan layers select a new
    token depends on the text, so one repeated prompt would tie the step
    time to a single selection pattern.
    """

    name = "decode"
    phases = ("prefill", "step")

    def __init__(self, seed, config=MID, sizes=DecodeSizes(), plan=FIXED_PLAN):
        super().__init__(seed)
        self.config, self.sizes, self.plan = config, sizes, plan

    def make_inputs(self):
        s = self.sizes
        self.prompts = [_seeded_tokens(self.seed, 1 + i, s.prompt_tokens, self.config.vocab_size)
                        for i in range(s.prompts)]

    def op(self, op_id, rec):
        layers, keep = self.plan.layers, self.plan.keep_ratio
        prompt = self.prompts[op_id % len(self.prompts)]
        with rec.timed("prefill", op_id):
            logits, _, cache = orr.forward_with_plan(self.model, prompt, layers, keep)
            token = int(np.argmax(logits[-1]))
        generated = [token]
        for _ in range(self.sizes.steps):
            before = _cache_arrays(cache)
            with rec.timed("step", op_id):
                logits, cache = orr.decode_step_with_plan(self.model, cache, token, layers, keep)
                token = int(np.argmax(logits[-1]))
            # concatenate re-allocates every array it grows: count the new arrays' bytes
            rec.kv_append_bytes.append(
                sum(a.nbytes for a, old in zip(_cache_arrays(cache), before) if a is not old))
            generated.append(token)

        expected_tokens = prompt.size + self.sizes.steps
        require(cache.n_tokens == expected_tokens,
                f"cache.n_tokens {cache.n_tokens} != prompt + steps {expected_tokens}")
        if self.reference is None:  # once per run: generate_greedy costs a whole request
            greedy = orr.generate_greedy(self.model, prompt, self.sizes.steps + 1, layers, keep)
            require(generated == greedy[prompt.size:], "step loop tokens differ from generate_greedy")
            self.reference = generated

    def plan_flop_ratio(self):
        return orr.flop_count(self.model.config, self.plan, self.sizes.prompt_tokens)["ratio"]

    def workload_metrics(self, rec):
        steps = rec.samples["step"]
        p95 = float(np.percentile(steps, 95))
        return {
            "ttft_p50_ms": (1e3 * _median(rec.samples["prefill"]), "ms"),
            "tpot_p50_ms": (1e3 * _median(steps), "ms"),
            "tpot_p95_ms": (1e3 * p95, "ms"),
            "tpot_samples": (len(steps), "count"),
            "tpot_samples_beyond_p95": (sum(1 for s in steps if s > p95), "count"),
        }


@dataclass(frozen=True)
class CalibrateSizes:
    corpus_tokens: int = 256
    context_len: int = 128
    sink_probe_tokens: int = 64
    m: int = 3
    keep_ratio: float = 0.333
    tau: float = 0.3


class Calibrate(Workload):
    """Sink detection, greedy calibration and the ablation grid, serially."""

    name = "calibrate"
    phases = ("calibrate", "ablate")

    def __init__(self, seed, config=SMALL, sizes=CalibrateSizes()):
        super().__init__(seed)
        self.config, self.sizes = config, sizes
        self.speed_probe = BlockProbe(config, sizes.context_len, repeats=6)

    def make_inputs(self):
        self.corpus = _seeded_tokens(self.seed, 2, self.sizes.corpus_tokens, self.config.vocab_size)

    def op(self, op_id, rec):
        s, n_layers = self.sizes, self.config.n_layers
        with rec.timed("detect", op_id):
            l_sink = orr.detect_sink_layer(self.model, self.corpus[: s.sink_probe_tokens], tau=s.tau)
        if l_sink >= n_layers:  # no sink layer found: proceed with 0, as the CLI does
            l_sink = 0
        eligible = list(range(l_sink + 1, n_layers - 1))
        with rec.timed("calibrate", op_id):
            plan = orr.calibrate_greedy(self.model, self.corpus, s.m, s.keep_ratio, eligible,
                                        s.context_len, l_sink=l_sink)
        with rec.timed("ablate", op_id):
            rows = orr.ablation_grid(self.model, plan, self.corpus, s.context_len)

        layers = plan.layers
        require(len(layers) == s.m and all(a < b for a, b in zip(layers, layers[1:]))
                and set(layers) <= set(eligible),
                f"plan {layers} is not {s.m} strictly ascending layers of {eligible}")
        default = rows[-1]
        require((default["criterion"], default["stage"], default["kv_for_unselected"])
                == ("orthogonal_asc", "normalized", True), f"last grid row is not the default: {default}")
        standalone = orr.perplexity(self.model, plan, self.corpus, s.context_len).perplexity
        require(default["perplexity"] == standalone,
                f"grid default row {default['perplexity']} != standalone perplexity {standalone}")
        if self.reference is None:
            self.reference = (plan, rows)
        require((layers, rows) == (self.reference[0].layers, self.reference[1]),
                "repeated calibration changed the plan or the grid")

    def plan_flop_ratio(self):
        if self.reference is None:
            return 0.0
        return orr.flop_count(self.model.config, self.reference[0], self.sizes.context_len)["ratio"]

    def workload_metrics(self, rec):
        return {
            "calibrate_s": (_median(rec.samples["calibrate"]), "s"),
            "ablate_s": (_median(rec.samples["ablate"]), "s"),
        }


WORKLOADS = {w.name: w for w in (Prefill, Decode, Calibrate)}


def _median(values) -> float:
    if not values:
        raise CheckFailed("no successful samples")
    return float(np.median(values))


def measure(workload: Workload, recorders: list[Recorder], seconds: float) -> tuple[int, int]:
    """Run ops for ``seconds`` of wall time, each op once per recorder in turn.

    Alternating an untraced and a traced recorder exposes both to the same
    machine conditions. Returns (attempted, failed); a failing op is
    reported on stderr and the loop goes on.
    """
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for rec in recorders:
            with rec.installed():
                try:
                    workload.op(attempted, rec)
                except CheckFailed as exc:
                    failed += 1
                    print(f"{workload.name} op {attempted}: check failed: {exc}", file=sys.stderr)
                except Exception:
                    failed += 1
                    print(f"{workload.name} op {attempted} raised:", file=sys.stderr)
                    traceback.print_exc()
            attempted += 1
    return attempted, failed
