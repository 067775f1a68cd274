"""Tests for perplexity evaluation, the layer sweep, and the ablation grid.

Two doctored models pin exact values: uniform logits give perplexity equal
to the vocabulary size, and a certain-next-token model gives exactly 1.
A scalar cross-entropy oracle covers the general case.
"""

import csv
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import reference as ref
from orthorank import (
    ConfigError,
    Criterion,
    HiddenTrace,
    LayerPlan,
    ModelConfig,
    UsageError,
    ablation_grid,
    ablation_to_csv,
    corpus_sha256,
    layerwise_comparison,
    layerwise_to_csv,
    perplexity,
)
from orthorank import eval_harness
from orthorank.eval_harness import (ABLATION_ROWS, _chunk_nll, _corpus_chunks, _eval_chunks,
                                   criterion_label)
from orthorank.selection import CRITERION_KINDS, STAGES
from orthorank import calibrate_greedy


def make_plan(model, layers, keep_ratio=0.333, l_sink=1):
    return LayerPlan(layers=list(layers), keep_ratio=keep_ratio,
                     model_id=model.model_id, l_sink=l_sink)


class TestChunkNll:
    """The NLL kernel works in its one float64 copy and equals the direct formula bitwise."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows, vocab, scale", [(255, 512, 1.0), (1, 7, 30.0),
                                                    (63, 50, 1e3), (0, 16, 1.0)])
    def test_equals_formula(self, rows, vocab, scale, dtype):
        rng = np.random.default_rng(rows + vocab)
        logits = (rng.standard_normal((rows, vocab)) * scale).astype(dtype)
        targets = rng.integers(0, vocab, size=rows)
        got = _chunk_nll(logits, targets)
        assert got.dtype == np.float64
        assert np.array_equal(got, helpers.formula_chunk_nll(logits, targets))

    def test_equals_formula_on_a_strided_view(self):
        # perplexity passes logits[:-1] of a chunk's logits
        logits = np.random.default_rng(1).standard_normal((256, 96)).astype(np.float32)
        targets = np.random.default_rng(2).integers(0, 96, size=255)
        assert np.array_equal(_chunk_nll(logits[:-1], targets),
                              helpers.formula_chunk_nll(logits[:-1], targets))
        assert np.array_equal(_chunk_nll(logits[:-1, ::2], targets // 2),
                              helpers.formula_chunk_nll(logits[:-1, ::2], targets // 2))

    def test_one_working_array(self):
        logits = np.random.default_rng(3).standard_normal((255, 512)).astype(np.float32)
        targets = np.random.default_rng(4).integers(0, 512, size=255)
        working = logits.size * np.dtype(np.float64).itemsize
        assert helpers.peak_bytes(_chunk_nll, logits, targets) <= 1.25 * working


class TestPerplexity:
    def test_uniform_logits_give_exact_vocab_size(self, uniform_model):
        # V=32, two chunks of 33 tokens: 64 predictions, a power of two,
        # so the NLL mean hits log(32) without rounding and exp returns 32
        corpus = helpers.make_tokens(66, uniform_model.config.vocab_size, seed=2)
        report = perplexity(uniform_model, None, corpus, 33)
        assert report.perplexity == 32.0
        assert report.n_chunks == 2
        assert report.n_predicted == 64

    def test_plan_sink_layer_must_be_in_the_model(self):
        model = helpers.make_rotation_model(4, set())
        corpus = helpers.rotation_corpus(32)
        with pytest.raises(ConfigError, match="l_sink"):
            perplexity(model, LayerPlan(l_sink=4), corpus, 16)
        with pytest.raises(ConfigError, match="l_sink"):
            perplexity(model, LayerPlan(l_sink=100), corpus, 16)
        # l_sink=-1 (every layer eligible) and the last layer stay valid
        assert perplexity(model, LayerPlan(l_sink=-1), corpus, 16).perplexity > 0
        assert perplexity(model, LayerPlan(l_sink=3), corpus, 16).perplexity > 0

    def test_certain_model_gives_exact_one(self, prob1_model):
        corpus = [helpers.PROB1_TOKEN] * 48
        report = perplexity(prob1_model, None, corpus, 16)
        assert report.perplexity == 1.0
        assert report.total_nll == 0.0

    def test_matches_scalar_oracle_three_chunks(self, tiny_model):
        corpus = helpers.make_tokens(36, tiny_model.config.vocab_size, seed=5)
        report = perplexity(tiny_model, None, corpus, 12)
        chunks = [corpus[i * 12:(i + 1) * 12] for i in range(3)]
        logits = [
            ref.ref_forward(tiny_model.config, tiny_model.weights, c)[:-1]
            for c in chunks
        ]
        targets = [list(c[1:]) for c in chunks]
        want = ref.ref_perplexity(logits, targets)
        assert report.n_chunks == 3
        assert abs(report.perplexity - want) <= 1e-5 * max(1.0, want)

    def test_context_len_below_two_rejected(self, tiny_model):
        with pytest.raises(UsageError):
            perplexity(tiny_model, None, [1, 2, 3], 1)

    def test_short_corpus_rejected(self, tiny_model):
        with pytest.raises(UsageError):
            perplexity(tiny_model, None, [1, 2, 3], 8)

    def test_partial_final_chunk_dropped(self, tiny_model):
        corpus = helpers.make_tokens(29, tiny_model.config.vocab_size, seed=6)
        report = perplexity(tiny_model, None, corpus, 12)
        assert report.n_chunks == 2
        assert report.n_tokens == 24
        assert report.n_predicted == report.n_tokens - report.n_chunks

    def test_report_bookkeeping(self, tiny_model):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=7)
        report = perplexity(tiny_model, None, corpus, 12)
        assert len(report.chunk_nll) == report.n_chunks
        assert report.total_nll == pytest.approx(sum(report.chunk_nll), rel=1e-12)
        assert report.perplexity == pytest.approx(
            math.exp(report.total_nll / report.n_predicted), rel=1e-12)
        assert report.corpus_sha256 == corpus_sha256(corpus)
        assert report.model_id == tiny_model.model_id
        assert report.plan_id == "dense"
        assert report.context_len == 12

    def test_empty_plan_equals_dense_bitwise(self, tiny_model):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=8)
        dense = perplexity(tiny_model, None, corpus, 12)
        empty = perplexity(tiny_model, make_plan(tiny_model, []), corpus, 12)
        assert empty.perplexity == dense.perplexity
        assert empty.chunk_nll == dense.chunk_nll
        assert empty.total_nll == dense.total_nll
        assert empty.plan_id == "dense"

    def test_full_keep_plan_matches_dense(self, tiny_model):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=9)
        dense = perplexity(tiny_model, None, corpus, 12)
        for layers in ([2], [1, 2], [1, 2, 3]):
            plan = make_plan(tiny_model, layers, keep_ratio=1.0, l_sink=0)
            got = perplexity(tiny_model, plan, corpus, 12)
            assert abs(got.perplexity - dense.perplexity) <= 1e-6 * dense.perplexity

    def test_token_count_unaffected_by_plan(self, tiny_model):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=10)
        dense = perplexity(tiny_model, None, corpus, 12)
        plan = make_plan(tiny_model, [2, 3], keep_ratio=0.333, l_sink=1)
        sparse = perplexity(tiny_model, plan, corpus, 12)
        assert (sparse.n_tokens, sparse.n_chunks, sparse.n_predicted) == (
            dense.n_tokens, dense.n_chunks, dense.n_predicted)
        assert sparse.plan_id != "dense"
        assert len(sparse.plan_id) == 12
        assert sparse.plan_layers == [2, 3]
        assert sparse.flop_ratio < dense.flop_ratio == 1.0

    def test_plan_changes_perplexity(self, tiny_model):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=11)
        dense = perplexity(tiny_model, None, corpus, 12)
        plan = make_plan(tiny_model, [2, 3], keep_ratio=0.25, l_sink=1)
        sparse = perplexity(tiny_model, plan, corpus, 12)
        assert sparse.perplexity != dense.perplexity

    def test_audit_log_steps_are_chunk_indices(self, tiny_model):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=12)
        audit = HiddenTrace(hidden=None, selection=[])
        plan = make_plan(tiny_model, [2], keep_ratio=0.5, l_sink=1)
        perplexity(tiny_model, plan, corpus, 12, trace=audit)
        steps = {row[1] for row in audit.selection}
        assert steps == {0, 1}
        layers = {row[0] for row in audit.selection}
        assert layers == {2}

    def test_report_json_round_trip(self, tiny_model):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=13)
        report = perplexity(tiny_model, None, corpus, 12)
        blob = json.loads(report.to_json())
        assert blob["perplexity"] == report.perplexity
        assert blob["chunk_nll"] == report.chunk_nll
        assert blob["plan_id"] == "dense"
        assert blob["kv_for_unselected"] is True


class TestLayerwiseComparison:
    def test_full_keep_every_cell_dense(self, tiny_model):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=14)
        table = layerwise_comparison(
            tiny_model, corpus, 1.0,
            [Criterion("orthogonal_asc", "normalized")], l_sink=0, context_len=12)
        dense = table["dense"]
        for cells in table["columns"].values():
            assert all(c == dense for c in cells)

    def test_sweep_covers_all_layers_after_sink(self, tiny_model):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=15)
        table = layerwise_comparison(
            tiny_model, corpus, 0.5,
            [Criterion("orthogonal_asc", "normalized")], l_sink=1, context_len=12)
        assert table["layers"] == [2, 3]  # final layer included

    def test_identity_layer_dense_for_every_criterion(self, rotation_model):
        corpus = helpers.rotation_corpus(128)
        criteria = [
            Criterion("orthogonal_asc", "normalized"),
            Criterion("orthogonal_desc", "normalized"),
            Criterion("norm_asc", "normalized"),
            Criterion("random", "normalized", seed=3),
        ]
        table = layerwise_comparison(rotation_model, corpus, 0.333, criteria,
                                     l_sink=1, context_len=64)
        idx = table["layers"].index(6)
        for cells in table["columns"].values():
            assert cells[idx] == table["dense"]

    def test_random_criterion_reproducible(self, tiny_model):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=16)
        runs = [
            layerwise_comparison(
                tiny_model, corpus, 0.5,
                [Criterion("random", "normalized", seed=21)],
                l_sink=1, context_len=12)
            for _ in range(2)
        ]
        assert runs[0]["columns"] == runs[1]["columns"]

    @pytest.mark.parametrize("l_sink", [4, 100])
    def test_sink_layer_must_exist(self, tiny_model, l_sink):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=18)
        with pytest.raises(ConfigError, match="l_sink"):
            layerwise_comparison(tiny_model, corpus, 0.5,
                                 [Criterion("orthogonal_asc", "normalized")],
                                 l_sink=l_sink, context_len=12)

    def test_no_sink_layer_sweeps_every_layer(self, tiny_model):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=18)
        table = layerwise_comparison(tiny_model, corpus, 0.5,
                                     [Criterion("orthogonal_asc", "normalized")],
                                     l_sink=-1, context_len=12)
        assert table["layers"] == [0, 1, 2, 3]

    def test_empty_criteria_rejected(self, tiny_model):
        with pytest.raises(UsageError):
            layerwise_comparison(tiny_model, [1] * 24, 0.5, [], l_sink=0,
                                 context_len=12)

    def test_csv_layout(self, tiny_model, tmp_path):
        corpus = helpers.make_tokens(24, tiny_model.config.vocab_size, seed=17)
        table = layerwise_comparison(
            tiny_model, corpus, 0.5,
            [Criterion("orthogonal_asc", "normalized"),
             Criterion("norm_desc", "normalized")], l_sink=1, context_len=12)
        path = tmp_path / "layerwise.csv"
        layerwise_to_csv(table, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "layer", "dense",
            "orthogonal_asc/normalized/kv_on", "norm_desc/normalized/kv_on"]
        assert [r[0] for r in rows[1:]] == ["2", "3"]
        assert float(rows[1][1]) == table["dense"]


@pytest.fixture(scope="module")
def grid(planted_model):
    corpus = helpers.planted_tokens(128, seed=9)
    plan = LayerPlan(layers=[2, 3, 4], keep_ratio=0.333,
                     model_id=planted_model.model_id, l_sink=1)
    rows = ablation_grid(planted_model, plan, corpus, 64, random_seed=0)
    return planted_model, corpus, plan, rows


class TestAblationGrid:

    def test_seven_configured_rows(self, grid):
        _, _, _, rows = grid
        assert [(r["criterion"], r["stage"], r["kv_for_unselected"]) for r in rows] \
            == ABLATION_ROWS
        assert len(rows) == 7

    def test_default_row_equals_standalone_op(self, grid):
        model, corpus, plan, rows = grid
        standalone = perplexity(model, plan, corpus, 64).perplexity
        assert rows[-1]["perplexity"] == standalone

    def test_rows_pairwise_distinct(self, grid):
        _, _, _, rows = grid
        ppls = [r["perplexity"] for r in rows]
        assert len(set(ppls)) == 7

    def test_kv_off_row_skips_unselected_kv(self, grid):
        model, corpus, plan, _ = grid
        # audited directly: with the flag off, the layer cache holds entries
        # only for selected tokens, so fewer positions than the chunk length
        from orthorank import forward_with_plan
        audit = HiddenTrace(hidden=None, selection=[])
        chunk = np.asarray(corpus[:64], dtype=np.int64)
        _, _, cache = forward_with_plan(
            model, chunk, plan.layers, plan.keep_ratio,
            Criterion("orthogonal_asc", "normalized"),
            compute_kv_for_unselected=False, trace=audit)
        for layer in plan.layers:
            selected = sum(1 for r in audit.selection if r[0] == layer and r[4])
            assert len(cache.positions[layer]) == selected < 64

    def test_csv_layout(self, grid, tmp_path):
        _, _, _, rows = grid
        path = tmp_path / "ablation.csv"
        ablation_to_csv(rows, path)
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["criterion", "stage", "kv_for_unselected", "perplexity"]
        assert len(got) == 8
        assert got[7][:3] == ["orthogonal_asc", "normalized", "on"]
        assert got[6][2] == "off"
        assert float(got[7][3]) == rows[-1]["perplexity"]


_RUN_PLANS = st.dictionaries(st.integers(1, 5), st.sampled_from([0.25, 0.5, 1.0]), max_size=3)
_RUN_RULES = st.tuples(st.sampled_from([Criterion(), Criterion("norm_desc"),
                                        Criterion("random", seed=3),
                                        Criterion(stage="raw_hidden")]),
                       st.booleans())


@pytest.fixture(scope="module")
def gqa6_model():
    config = ModelConfig(n_layers=6, d_model=32, n_heads=4, n_kv_heads=2, d_head=8,
                         d_ffn=64, vocab_size=64)
    return helpers.make_random_model(config, seed=12)


class TestResumedPrefix:
    """Evaluations resume from a base run's recorded layer inputs at the layer they derive."""

    @given(runs=st.lists(st.tuples(_RUN_PLANS, _RUN_RULES), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_resumed_runs_equal_standalone_perplexity(self, gqa6_model, runs):
        # each run resumes on the record of the one before, itself resumed
        # from the second run on, at the start layer the two records imply
        corpus = helpers.make_tokens(50, gqa6_model.config.vocab_size, seed=6)
        _, chunks = _corpus_chunks(corpus, 24)
        base = None
        for ratios, (crit, kv) in runs:
            layers = sorted(ratios)
            plan = LayerPlan(layers=layers, keep_ratio=[ratios[l] for l in layers])
            run = _eval_chunks(gqa6_model, chunks, plan, crit, kv, base=base, record=True)
            fresh = _eval_chunks(gqa6_model, chunks, plan, crit, kv, record=True)
            standalone = perplexity(gqa6_model, plan, corpus, 24, crit, kv)
            assert run.chunk_nll == fresh.chunk_nll == standalone.chunk_nll
            assert run.perplexity == standalone.perplexity
            for resumed, own in zip(run.states, fresh.states):
                assert len(resumed) == len(own) == gqa6_model.config.n_layers
                assert all(np.array_equal(a, b) for a, b in zip(resumed, own))
            base = run

    def test_every_grid_row_equals_standalone_perplexity(self, grid):
        model, corpus, plan, rows = grid
        for (kind, stage, kv), row in zip(ABLATION_ROWS, rows):
            crit = Criterion(kind, stage, seed=0)
            standalone = perplexity(model, plan, corpus, 64, criterion=crit,
                                    compute_kv_for_unselected=kv)
            assert row["perplexity"] == standalone.perplexity, (kind, stage, kv)

    def test_every_sweep_cell_equals_standalone_perplexity(self, planted_model):
        corpus = helpers.planted_tokens(128, seed=10)
        criteria = [Criterion("orthogonal_asc", "normalized"),
                    Criterion("norm_desc", "raw_hidden"),
                    Criterion("random", "normalized", seed=5)]
        table = layerwise_comparison(planted_model, corpus, 0.333, criteria,
                                     l_sink=1, context_len=48)
        assert table["dense"] == perplexity(planted_model, None, corpus, 48).perplexity
        for crit in criteria:
            cells = table["columns"][criterion_label(crit, kv=True)]
            for layer, cell in zip(table["layers"], cells):
                plan = make_plan(planted_model, [layer])
                assert cell == perplexity(planted_model, plan, corpus, 48,
                                          criterion=crit).perplexity, (crit, layer)

    def test_grid_layer_steps(self, planted_model, layer_steps, block_runs):
        # 10 layers, 2 chunks: the first row runs every layer, the other six
        # resume at the plan's first layer (140 from the embeddings); that
        # layer ran selectively in the first row, so every step runs its block
        corpus = helpers.planted_tokens(128, seed=9)
        ablation_grid(planted_model, make_plan(planted_model, [3, 5, 6]), corpus, 64)
        assert len(layer_steps) == 2 * (10 + 6 * 7) == 104
        assert block_runs == layer_steps
        assert layer_steps.count(0) == 2

    def test_sweep_layer_steps(self, planted_model, layer_steps, block_runs):
        # 10 layers, 2 chunks, 2 criteria: one dense pass, each cell from its
        # layer up (2 * (10 + 2 * 8 * 10) = 340 from the embeddings); a cell's
        # own layer mixes its rows from the dense record, but for the last layer
        corpus = helpers.planted_tokens(128, seed=9)
        layerwise_comparison(planted_model, corpus, 0.5,
                             [Criterion(), Criterion("norm_asc", "normalized")],
                             l_sink=1, context_len=64)
        cells = sum(10 - layer for layer in range(2, 10))
        assert len(layer_steps) == 2 * (10 + 2 * cells) == 164
        assert len(block_runs) == 2 * (10 + 2 * (cells - 7)) == 136

    @pytest.mark.parametrize("corpus_len, context_len", [(20, 32), (64, 1)])
    def test_short_corpus_or_context_is_usage_error(self, planted_model, corpus_len,
                                                    context_len):
        tokens = helpers.planted_tokens(corpus_len)
        with pytest.raises(UsageError):
            ablation_grid(planted_model, make_plan(planted_model, [2]), tokens, context_len)
        with pytest.raises(UsageError):
            layerwise_comparison(planted_model, tokens, 0.5, [Criterion()], l_sink=1,
                                 context_len=context_len)


_MIX_CRITERIA = st.builds(Criterion, st.sampled_from(CRITERION_KINDS), st.sampled_from(STAGES),
                          st.just(4))
# plan layers of the shorter windows select fewer than 8 rows, which fold a
# GQA group's query heads into the rows of one product
_MIX_WIDTHS = st.sampled_from([6, 12, 23, 40])
_MIX_RATIOS = st.sampled_from([0.25, 0.333, 0.5, 1.0])


def two_chunks(width):
    return _corpus_chunks(helpers.make_tokens(2 * width + 3, 64, seed=width), width)[1]


class TestRecordedRowMix:
    """A resumed run's first layer, dense in its base, mixes its rows from the base's record."""

    @given(layout=st.sampled_from(["mha", "gqa"]), width=_MIX_WIDTHS, crit=_MIX_CRITERIA,
           ratios=st.dictionaries(st.integers(1, 5), _MIX_RATIOS, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_mixed_run_equals_run_from_embeddings(self, layout_models, layout, width, crit,
                                                  ratios):
        model = layout_models[layout]
        n_layers, chunks = model.config.n_layers, two_chunks(width)
        layers = sorted(ratios)
        plan = LayerPlan(layers=layers, keep_ratio=[ratios[l] for l in layers])
        dense = _eval_chunks(model, chunks, LayerPlan(), record=True)
        with helpers.counted_blocks() as blocks:
            run = _eval_chunks(model, chunks, plan, crit, base=dense, record=True)
        fresh = _eval_chunks(model, chunks, plan, crit, record=True)
        assert run.chunk_nll == fresh.chunk_nll and run.ratios == fresh.ratios
        for mixed, own in zip(run.states, fresh.states):
            assert len(mixed) == len(own) == n_layers
            assert all(np.array_equal(a, b) for a, b in zip(mixed, own))
        mixes = layers[0] + 1 < n_layers  # the last layer's output is in no record
        assert len(blocks) == len(chunks) * (n_layers - layers[0] - mixes)

    @given(layout=st.sampled_from(["mha", "gqa"]), width=_MIX_WIDTHS, ratio=_MIX_RATIOS,
           criteria=st.lists(_MIX_CRITERIA, min_size=1, max_size=2, unique=True),
           l_sink=st.sampled_from([-1, 1, 3]))
    @settings(max_examples=25, deadline=None)
    def test_mixed_sweep_equals_standalone_perplexity(self, layout_models, layout, width,
                                                      ratio, criteria, l_sink):
        model = layout_models[layout]
        n_layers = model.config.n_layers
        corpus = helpers.make_tokens(2 * width + 3, 64, seed=width)
        seen = []

        def spy(model, chunks, plan, *args, **kwargs):
            run = _eval_chunks(model, chunks, plan, *args, **kwargs)
            seen.append((chunks, plan, args, run))
            return run

        with helpers.counted_blocks() as blocks, pytest.MonkeyPatch.context() as patch:
            patch.setattr(eval_harness, "_eval_chunks", spy)
            table = layerwise_comparison(model, corpus, ratio, criteria, l_sink, width)
        assert len(seen) == 1 + len(criteria) * len(table["layers"])
        for chunks, plan, args, run in seen[1:]:  # every cell, resumed on the dense record
            assert run.chunk_nll == _eval_chunks(model, chunks, plan, *args).chunk_nll
        for crit in criteria:
            cells = table["columns"][criterion_label(crit, kv=True)]
            for layer, cell in zip(table["layers"], cells):
                plan = LayerPlan(layers=[layer], keep_ratio=ratio, l_sink=l_sink)
                assert cell == perplexity(model, plan, corpus, width, crit).perplexity
        # every cell mixes its own layer but the final layer's cell, which runs one block
        per_cell = sum(n_layers - 1 - layer for layer in table["layers"]) + 1
        assert len(blocks) == 2 * (n_layers + len(criteria) * per_cell)

    @given(layout=st.sampled_from(["mha", "gqa"]), width=_MIX_WIDTHS, crit=_MIX_CRITERIA,
           first=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_no_mix_without_kv_after_a_selective_base_or_at_the_last_layer(
            self, layout_models, layout, width, crit, first):
        model = layout_models[layout]
        n_layers, chunks = model.config.n_layers, two_chunks(width)
        plan = LayerPlan(layers=[first, first + 1], keep_ratio=0.333)
        last = LayerPlan(layers=[n_layers - 1], keep_ratio=0.333)
        dense = _eval_chunks(model, chunks, LayerPlan(), record=True)
        kv_off = _eval_chunks(model, chunks, plan, crit, False, record=True)  # a grid base
        cases = [  # plan, KV setting, base, trace, blocks per chunk
            (plan, False, dense, None, n_layers - first),  # KV off
            (plan, True, kv_off, None, n_layers - first),  # the base ran `first` selectively
            (last, True, dense, None, 1),  # no record holds the last layer's output
            (plan, True, dense, HiddenTrace(hidden=None, attn_to_sink=[]), n_layers - first),
        ]
        for evaluated, kv, base, trace, per_chunk in cases:
            with helpers.counted_blocks() as blocks:
                run = _eval_chunks(model, chunks, evaluated, crit, kv, trace, base=base)
            fresh = _eval_chunks(model, chunks, evaluated, crit, kv)
            assert run.chunk_nll == fresh.chunk_nll
            assert len(blocks) == len(chunks) * per_chunk
            if trace is not None:
                assert len(trace.attn_to_sink) == len(blocks)


class TestDensePlanIsLayerPlan:
    def test_none_equals_empty_layer_plan(self, tiny_model):
        corpus = helpers.make_tokens(96, tiny_model.config.vocab_size, seed=5)
        for kv in (True, False):
            dense = perplexity(tiny_model, None, corpus, 32, compute_kv_for_unselected=kv)
            empty = perplexity(tiny_model, LayerPlan(), corpus, 32, compute_kv_for_unselected=kv)
            assert asdict(dense) == asdict(empty)
            assert dense.plan_id == "dense" and dense.flop_ratio == 1.0


class TestCorpusArguments:
    @pytest.fixture(scope="class")
    def calls(self, planted_model):
        corpus = helpers.planted_tokens(128)
        plan = make_plan(planted_model, [2, 3])
        return {
            "perplexity": lambda w, c=corpus: perplexity(planted_model, None, c, w),
            "calibrate": lambda w, c=corpus: calibrate_greedy(planted_model, c, 1, 0.5, [2, 3],
                                                              context_len=w),
            "layerwise": lambda w, c=corpus: layerwise_comparison(
                planted_model, c, 0.5, [Criterion()], 1, w),
            "ablation": lambda w, c=corpus: ablation_grid(planted_model, plan, c, w),
        }

    @pytest.mark.parametrize("op", ["perplexity", "calibrate", "layerwise", "ablation"])
    @pytest.mark.parametrize("context_len", [10.5, None, "32", True])
    def test_context_len_must_be_integer(self, calls, op, context_len):
        with pytest.raises(UsageError, match="context_len"):
            calls[op](context_len)

    @pytest.mark.parametrize("op", ["perplexity", "calibrate", "layerwise", "ablation"])
    def test_float_corpus_is_usage_error(self, calls, op):
        corpus = helpers.planted_tokens(128).astype(np.float64)
        with pytest.raises(UsageError, match="integer ids"):
            calls[op](32, corpus)

    def test_numpy_context_len_report(self, planted_model):
        corpus = helpers.planted_tokens(128)
        report = perplexity(planted_model, None, corpus, np.int64(32))
        assert report.to_json() == perplexity(planted_model, None, corpus, 32).to_json()

    def test_int32_corpus_equals_int64(self, planted_model):
        corpus = helpers.planted_tokens(128)
        wide = perplexity(planted_model, None, corpus.astype(np.int64), 32)
        assert asdict(perplexity(planted_model, None, corpus.astype(np.int32), 32)) == asdict(wide)
