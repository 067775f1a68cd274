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

import helpers
import reference as ref
from orthorank import (
    ConfigError,
    Criterion,
    HiddenTrace,
    LayerPlan,
    UsageError,
    ablation_grid,
    ablation_to_csv,
    corpus_sha256,
    layerwise_comparison,
    layerwise_to_csv,
    perplexity,
)
from orthorank.eval_harness import ABLATION_ROWS, criterion_label
from orthorank import calibrate_greedy


def make_plan(model, layers, keep_ratio=0.333, l_sink=1):
    return LayerPlan(layers=list(layers), keep_ratio=keep_ratio,
                     model_id=model.model_id, l_sink=l_sink)


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


class TestResumedPrefix:
    """Grid rows and sweep cells resume from a dense prefix computed once per chunk."""

    def test_every_grid_row_equals_standalone_perplexity(self, grid):
        model, corpus, plan, rows = grid
        for (kind, stage, kv), row in zip(ABLATION_ROWS, rows):
            crit = Criterion(kind, stage, seed=0 if kind == "random" else None)
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

    def test_grid_layer_steps(self, planted_model, layer_steps):
        # 10 layers, 2 chunks: the first row runs every layer, the other six
        # resume at the plan's first layer (140 from the embeddings)
        corpus = helpers.planted_tokens(128, seed=9)
        ablation_grid(planted_model, make_plan(planted_model, [3, 5, 6]), corpus, 64)
        assert len(layer_steps) == 2 * (10 + 6 * 7) == 104
        assert layer_steps.count(0) == 2

    def test_sweep_layer_steps(self, planted_model, layer_steps):
        # 10 layers, 2 chunks, 2 criteria: one dense pass, each cell from its
        # layer up (2 * (10 + 2 * 8 * 10) = 340 from the embeddings)
        corpus = helpers.planted_tokens(128, seed=9)
        layerwise_comparison(planted_model, corpus, 0.5,
                             [Criterion(), Criterion("norm_asc", "normalized")],
                             l_sink=1, context_len=64)
        cells = sum(10 - layer for layer in range(2, 10))
        assert len(layer_steps) == 2 * (10 + 2 * cells) == 164

    @pytest.mark.parametrize("corpus_len, context_len", [(20, 32), (64, 1)])
    def test_short_corpus_or_context_is_usage_error(self, planted_model, corpus_len,
                                                    context_len):
        tokens = helpers.planted_tokens(corpus_len)
        with pytest.raises(UsageError):
            ablation_grid(planted_model, make_plan(planted_model, [2]), tokens, context_len)
        with pytest.raises(UsageError):
            layerwise_comparison(planted_model, tokens, 0.5, [Criterion()], l_sink=1,
                                 context_len=context_len)


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
