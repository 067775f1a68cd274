"""End-to-end CLI tests, run in-process through main(argv).

Each command is exercised against tiny on-disk checkpoints; stdout and exit
codes are part of the contract (0 iff outputs were written, 2 with an
"error:" line on stderr for domain failures).
"""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
import orthorank
import orthorank.cli
from orthorank import LayerPlan, eval_harness, weights_sha256
from orthorank.cli import build_parser
from orthorank.cli import load_corpus, main, parse_positions
from orthorank.errors import UsageError


def run_cli(*argv, capsys=None):
    code = main([str(a) for a in argv])
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_corpus(path, tokens):
    path.write_text(" ".join(str(int(t)) for t in tokens) + "\n")
    return path


@pytest.fixture(scope="module")
def cli_ck(tmp_path_factory):
    """4-layer checkpoint written through the CLI itself."""
    out = tmp_path_factory.mktemp("cli") / "ck"
    code = main(["synth-model", "--out", str(out), "--layers", "4",
                 "--d-model", "32", "--heads", "4", "--kv-heads", "2",
                 "--vocab", "64", "--seed", "7"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def planted_ck(tmp_path_factory):
    return helpers.save_planted_sink_checkpoint(
        tmp_path_factory.mktemp("cli") / "planted")


@pytest.fixture(scope="module")
def fig5_ck(tmp_path_factory):
    """40-layer shape for sparsity arithmetic runs, small width."""
    out = tmp_path_factory.mktemp("cli") / "ck40"
    code = main(["synth-model", "--out", str(out), "--layers", "40",
                 "--d-model", "64", "--heads", "4", "--kv-heads", "1",
                 "--d-ffn", "1024", "--vocab", "64", "--seed", "3"])
    assert code == 0
    return out


class TestHelpers:
    def test_parse_positions(self):
        assert parse_positions("1..10") == list(range(1, 11))
        assert parse_positions("0,50,100") == [0, 50, 100]
        assert parse_positions("1..3,7") == [1, 2, 3, 7]
        with pytest.raises(UsageError):
            parse_positions(",")

    @pytest.mark.parametrize("text", ["1..x", "x..3", "1,b", "2.5"])
    def test_parse_positions_non_integer(self, text):
        with pytest.raises(UsageError, match="not an integer"):
            parse_positions(text)

    def test_load_corpus(self, tmp_path):
        path = write_corpus(tmp_path / "c.txt", [3, 1, 4, 1, 5])
        assert load_corpus(path).tolist() == [3, 1, 4, 1, 5]
        multi = tmp_path / "m.txt"
        multi.write_text("1 2\n3\t4\n")
        assert load_corpus(multi).tolist() == [1, 2, 3, 4]

    def test_load_corpus_errors(self, tmp_path):
        with pytest.raises(UsageError):
            load_corpus(tmp_path / "missing.txt")
        bad = tmp_path / "bad.txt"
        bad.write_text("1 two 3")
        with pytest.raises(UsageError):
            load_corpus(bad)
        empty = tmp_path / "empty.txt"
        empty.write_text(" \n")
        with pytest.raises(UsageError):
            load_corpus(empty)


class TestSynthModel:
    def test_writes_three_files(self, cli_ck):
        names = {p.name for p in cli_ck.iterdir()}
        assert names == {"config.json", "manifest.json", "weights.bin"}

    def test_same_flags_same_hash(self, tmp_path, capsys):
        args = ["synth-model", "--layers", "2", "--d-model", "16",
                "--heads", "2", "--vocab", "32", "--seed", "5"]
        hashes = []
        for sub in ("a", "b"):
            code, out, _ = run_cli(*args, "--out", tmp_path / sub, capsys=capsys)
            assert code == 0
            hashes.append([l for l in out.splitlines() if "sha256" in l][0])
        assert hashes[0] == hashes[1]

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            "synth-model", "--out", tmp_path / "bad", "--layers", "2",
            "--d-model", "65", "--heads", "4", capsys=capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "d_model" in err

    @pytest.mark.parametrize("flag, value, match", [
        ("--heads", "0", "--heads"), ("--heads", "-2", "--heads"),
        ("--kv-heads", "0", "dimensions"), ("--d-ffn", "0", "dimensions")])
    def test_size_below_one_refused(self, tmp_path, capsys, flag, value, match):
        # a zero size is refused, not divided by or replaced with the default
        out = tmp_path / "ck"
        code, _, err = run_cli("synth-model", "--out", out, "--layers", "2",
                               "--d-model", "16", flag, value, capsys=capsys)
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1
        assert match in err and not out.exists()


class TestAnalyze:
    def test_synthetic_outputs_and_monotone_columns(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run_cli(
            "analyze", "--synthetic", "--layers", "8", "--seq-len", "32",
            "--d", "16", "--l-sink", "1", "--rate", "0.25", "--seed", "2",
            "--out", out, capsys=capsys)
        assert code == 0
        assert {p.name for p in out.iterdir()} == {
            "sink_vs_tokens.csv", "cross_layer_p0.csv", "norms.csv"}
        with open(out / "sink_vs_tokens.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "layer"
        vals = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        after = vals[2:]  # rows for layers > l_sink = 1
        assert np.all(np.diff(after, axis=0) > 0)

    def test_positions_flag_sets_columns(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run_cli(
            "analyze", "--synthetic", "--layers", "4", "--seq-len", "24",
            "--d", "8", "--l-sink", "0", "--positions", "1..10",
            "--cross-positions", "0,5", "--out", out, capsys=capsys)
        assert code == 0
        with open(out / "sink_vs_tokens.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["layer"] + [f"p{i}" for i in range(1, 11)]
        assert (out / "cross_layer_p0.csv").exists()
        assert (out / "cross_layer_p5.csv").exists()

    def test_model_trace_path(self, cli_ck, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt",
                              helpers.make_tokens(32, 64, seed=1))
        out = tmp_path / "out"
        code, _, _ = run_cli(
            "analyze", "--model", cli_ck, "--corpus", corpus,
            "--dump-trace", "--out", out, capsys=capsys)
        assert code == 0
        assert (out / "norms.csv").exists()
        assert (out / "trace_states.csv").exists()
        assert not (out / "trace_norms.csv").exists()

    @pytest.mark.parametrize("seq_len", ["0", "-150"])
    @pytest.mark.parametrize("source", ["synthetic", "model"])
    def test_seq_len_below_one_refused(self, cli_ck, tmp_path, capsys, source, seq_len):
        # -150 would analyze the first 50 tokens of 200, 0 the default length
        corpus = write_corpus(tmp_path / "c.txt", helpers.make_tokens(200, 64, seed=1))
        inputs = ["--synthetic"] if source == "synthetic" else ["--model", cli_ck,
                                                                "--corpus", corpus]
        out = tmp_path / "out"
        code, _, err = run_cli("analyze", *inputs, "--seq-len", seq_len, "--out", out,
                               capsys=capsys)
        assert code == 2 and err.startswith("error:") and "--seq-len" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--seq-len", "1"], ["--positions", "50"]])
    def test_refused_trace_or_positions_make_no_directory(self, tmp_path, capsys, flags):
        # the trace needs 2 rows; position 50 is past a 24-token trace
        out = tmp_path / "d"
        code, _, err = run_cli("analyze", "--synthetic", "--seq-len", "24", *flags,
                               "--out", out, capsys=capsys)
        assert code == 2 and err.startswith("error:")
        assert not out.exists()

    def test_needs_source(self, tmp_path, capsys):
        code, _, err = run_cli("analyze", "--out", tmp_path / "x", capsys=capsys)
        assert code == 2
        assert "error:" in err

    def test_non_integer_positions(self, tmp_path, capsys):
        code, _, err = run_cli(
            "analyze", "--synthetic", "--layers", "3", "--seq-len", "12", "--d", "8",
            "--positions", "1..x", "--out", tmp_path / "out", capsys=capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


class TestCalibrate:
    def test_fig5_arithmetic_twelve_layers(self, fig5_ck, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", helpers.make_tokens(64, 64, seed=4))
        plan_path = tmp_path / "plan.json"
        code, out, _ = run_cli(
            "calibrate", "--model", fig5_ck, "--corpus", corpus,
            "--sparsity", "0.2", "--keep-ratio", "0.333", "--l-sink", "1",
            "--context-len", "32", "--one-shot", "--out", plan_path,
            capsys=capsys)
        assert code == 0
        plan = LayerPlan.load(plan_path)
        assert len(plan.layers) == 12
        assert "12 layers" in out

    def test_zero_sparsity_empty_plan(self, cli_ck, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", helpers.make_tokens(32, 64, seed=5))
        plan_path = tmp_path / "plan.json"
        code, _, _ = run_cli(
            "calibrate", "--model", cli_ck, "--corpus", corpus,
            "--sparsity", "0", "--l-sink", "0", "--context-len", "16",
            "--out", plan_path, capsys=capsys)
        assert code == 0
        assert LayerPlan.load(plan_path).layers == []

    def test_infeasible_sparsity_exits_with_max(self, cli_ck, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", helpers.make_tokens(32, 64, seed=6))
        code, _, err = run_cli(
            "calibrate", "--model", cli_ck, "--corpus", corpus,
            "--sparsity", "0.9", "--l-sink", "0", "--context-len", "16",
            "--out", tmp_path / "plan.json", capsys=capsys)
        assert code == 2
        assert "maximum achievable" in err

    def test_sink_autodetect(self, planted_ck, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", helpers.planted_tokens(64))
        plan_path = tmp_path / "plan.json"
        code, out, _ = run_cli(
            "calibrate", "--model", planted_ck, "--corpus", corpus,
            "--sparsity", "0.1", "--context-len", "32", "--one-shot",
            "--out", plan_path, capsys=capsys)
        assert code == 0
        assert "detected l_sink=1" in out
        assert LayerPlan.load(plan_path).l_sink == 1

    def test_no_sink_layer_note(self, cli_ck, tmp_path, capsys):
        # a random model has no sink layer: calibration proceeds from layer 0
        corpus = write_corpus(tmp_path / "c.txt", helpers.make_tokens(64, 64, seed=4))
        plan_path = tmp_path / "plan.json"
        code, out, _ = run_cli(
            "calibrate", "--model", cli_ck, "--corpus", corpus,
            "--sparsity", "0.1", "--context-len", "32", "--one-shot",
            "--out", plan_path, capsys=capsys)
        assert code == 0
        assert out.splitlines()[0] == "note: no sink layer at tau=0.3; proceeding with l_sink=0"
        assert LayerPlan.load(plan_path).l_sink == 0


class TestEvalPpl:
    def test_empty_plan_matches_dense_report(self, cli_ck, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", helpers.make_tokens(32, 64, seed=7))
        empty = LayerPlan(layers=[], model_id=weights_sha256(cli_ck), l_sink=0)
        plan_path = tmp_path / "empty.json"
        empty.save(plan_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        code, _, _ = run_cli("eval-ppl", "--model", cli_ck, "--corpus", corpus,
                             "--context-len", "16", "--out", out_a, capsys=capsys)
        assert code == 0
        code, _, _ = run_cli("eval-ppl", "--model", cli_ck, "--corpus", corpus,
                             "--context-len", "16", "--plan", plan_path,
                             "--out", out_b, capsys=capsys)
        assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_plan_report_fields(self, planted_ck, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", helpers.planted_tokens(64))
        plan_path = tmp_path / "plan.json"
        LayerPlan(layers=[2, 3], keep_ratio=0.333, model_id=weights_sha256(planted_ck),
                  l_sink=1).save(plan_path)
        out = tmp_path / "report.json"
        code, text, _ = run_cli(
            "eval-ppl", "--model", planted_ck, "--corpus", corpus,
            "--context-len", "32", "--plan", plan_path, "--out", out,
            capsys=capsys)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["plan_layers"] == [2, 3]
        assert report["flop_ratio"] < 1.0
        assert "perplexity" in text

    @pytest.mark.parametrize("command", ["eval-ppl", "ablate", "generate", "flops"])
    def test_plan_for_another_model(self, planted_ck, tmp_path, capsys, command):
        corpus = write_corpus(tmp_path / "c.txt", helpers.planted_tokens(64))
        plan_path = tmp_path / "plan.json"
        LayerPlan(layers=[2, 3], keep_ratio=0.333, model_id="planted-sink",
                  l_sink=1).save(plan_path)
        out = tmp_path / "out"
        args = {"generate": ["--prompt", "1 2 3", "--audit-csv", out],
                "flops": ["--out", out]}.get(
            command, ["--corpus", corpus, "--context-len", "32", "--out", out])
        code, _, err = run_cli(command, "--model", planted_ck, "--plan", plan_path, *args,
                               capsys=capsys)
        assert code == 2 and not out.exists()
        assert err.startswith("error:") and "planted-sink" in err and err.count("\n") == 1

    def test_plan_sink_layer_past_the_model(self, cli_ck, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", helpers.make_tokens(32, 64, seed=7))
        plan_path = tmp_path / "plan.json"
        LayerPlan(model_id=weights_sha256(cli_ck), l_sink=100).save(plan_path)
        out = tmp_path / "report.json"
        code, _, err = run_cli("eval-ppl", "--model", cli_ck, "--corpus", corpus,
                               "--context-len", "16", "--plan", plan_path, "--out", out,
                               capsys=capsys)
        assert code == 2 and not out.exists()
        assert err.startswith("error:") and "l_sink" in err and err.count("\n") == 1

    def test_short_corpus_is_error(self, cli_ck, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", [1, 2, 3])
        code, _, err = run_cli("eval-ppl", "--model", cli_ck, "--corpus", corpus,
                               "--context-len", "16", capsys=capsys)
        assert code == 2
        assert err.startswith("error:")


    @pytest.mark.parametrize("content", [
        None, "not json", '{"layers": [2]}', '{"layers": [2], "keep_ratio": null}',
        '{"layers": [2], "keep_ratio": "abc"}', '[2]',
    ])
    def test_malformed_plan_is_one_line_error(self, cli_ck, tmp_path, capsys, content):
        corpus = write_corpus(tmp_path / "c.txt", helpers.make_tokens(32, 64, seed=7))
        plan_path = tmp_path / "bad.json"
        if content is not None:
            plan_path.write_text(content)
        code, _, err = run_cli("eval-ppl", "--model", cli_ck, "--corpus", corpus,
                               "--context-len", "16", "--plan", plan_path, capsys=capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1, err


class TestLayerwise:
    def test_sweep_csv(self, cli_ck, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", helpers.make_tokens(32, 64, seed=8))
        out = tmp_path / "layerwise.csv"
        code, text, _ = run_cli(
            "layerwise", "--model", cli_ck, "--corpus", corpus,
            "--l-sink", "0", "--context-len", "16",
            "--criteria", "orthogonal_asc,random", "--seed", "1",
            "--out", out, capsys=capsys)
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "dense",
                           "orthogonal_asc/normalized/kv_on",
                           "random/normalized/kv_on"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        assert "dense perplexity" in text


class TestAblate:
    def test_grid_and_audit(self, planted_ck, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.txt", helpers.planted_tokens(128))
        plan_path = tmp_path / "plan.json"
        LayerPlan(layers=[2, 3, 4], keep_ratio=0.333, model_id=weights_sha256(planted_ck),
                  l_sink=1).save(plan_path)
        out = tmp_path / "ablation.csv"
        audit = tmp_path / "audit.csv"
        code, text, _ = run_cli(
            "ablate", "--model", planted_ck, "--corpus", corpus,
            "--plan", plan_path, "--context-len", "64",
            "--audit-csv", audit, "--out", out, capsys=capsys)
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 8
        with open(audit, newline="") as fh:
            audit_rows = list(csv.reader(fh))
        assert audit_rows[0] == ["layer", "step", "position", "score", "selected"]
        assert len(audit_rows) > 1
        assert text.count("perplexity") == 7


class TestFlops:
    def test_fig5_ratio(self, fig5_ck, tmp_path, capsys):
        out = tmp_path / "flops.json"
        code, text, _ = run_cli(
            "flops", "--model", fig5_ck, "--layers", "2..13",
            "--keep-ratio", "0.333", "--seq-len", "128", "--out", out,
            capsys=capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"dense_flops", "plan_flops", "ratio"}
        assert abs(payload["ratio"] - 0.80) <= 0.03
        assert json.loads(text[text.index("{"):])["ratio"] == payload["ratio"]

    def test_plan_file_input(self, cli_ck, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        LayerPlan(layers=[2, 3], keep_ratio=0.5, model_id=weights_sha256(cli_ck),
                  l_sink=1).save(plan_path)
        code, text, _ = run_cli("flops", "--model", cli_ck, "--plan", plan_path,
                                capsys=capsys)
        assert code == 0
        assert json.loads(text[text.index("{"):])["ratio"] < 1.0

    def test_plan_and_layers_refused(self, cli_ck, tmp_path, capsys):
        # one of the two plans would be dropped; the pair is refused before
        # the model loads, so a missing checkpoint is not what is reported
        plan_path = tmp_path / "plan.json"
        LayerPlan(layers=[2], keep_ratio=0.5, l_sink=1).save(plan_path)
        for model in (cli_ck, tmp_path / "missing"):
            code, out, err = run_cli("flops", "--model", model, "--plan", plan_path,
                                     "--layers", "1..3", capsys=capsys)
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1 and "--layers" in err

    def test_non_integer_layers(self, cli_ck, capsys):
        code, _, err = run_cli("flops", "--model", cli_ck, "--layers", "1..x", capsys=capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


class TestGenerate:
    def test_full_keep_plan_matches_dense(self, cli_ck, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        LayerPlan(layers=[1, 2], keep_ratio=1.0, model_id=weights_sha256(cli_ck),
                  l_sink=0).save(plan_path)
        base_args = ["generate", "--model", cli_ck, "--prompt", "3 1 4 1 5",
                     "--n-new", "8"]
        code, dense_out, _ = run_cli(*base_args, capsys=capsys)
        assert code == 0
        code, plan_out, _ = run_cli(*base_args, "--plan", plan_path, capsys=capsys)
        assert code == 0
        assert dense_out == plan_out
        assert len(dense_out.split()) == 13

    def test_non_integer_prompt(self, cli_ck, capsys):
        code, _, err = run_cli("generate", "--model", cli_ck, "--prompt", "a b", capsys=capsys)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_deterministic(self, cli_ck, capsys):
        args = ["generate", "--model", cli_ck, "--prompt", "2 7", "--n-new", "6"]
        outs = {run_cli(*args, capsys=capsys)[1] for _ in range(2)}
        assert len(outs) == 1

    def test_audit_csv_written(self, planted_ck, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        LayerPlan(layers=[2], keep_ratio=0.5, model_id=weights_sha256(planted_ck),
                  l_sink=1).save(plan_path)
        audit = tmp_path / "audit.csv"
        code, _, _ = run_cli(
            "generate", "--model", planted_ck, "--prompt", "0 5 9 2",
            "--n-new", "4", "--plan", plan_path, "--audit-csv", audit,
            capsys=capsys)
        assert code == 0
        with open(audit, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "step", "position", "score", "selected"]
        assert len(rows) > 1


REQUIRED_ARGS = {
    "synth-model": ["--out", "o", "--layers", "1", "--d-model", "8"],
    "analyze": ["--out", "o"],
    "calibrate": ["--model", "m", "--corpus", "c", "--sparsity", "0.1", "--out", "o"],
    "eval-ppl": ["--model", "m", "--corpus", "c"],
    "layerwise": ["--model", "m", "--corpus", "c", "--out", "o"],
    "ablate": ["--model", "m", "--corpus", "c", "--plan", "p", "--out", "o"],
    "flops": ["--model", "m"],
    "generate": ["--model", "m", "--prompt", "1"],
}


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_seed_and_threads_only_where_read(command, capsys):
    # calibration is serial: no command takes a worker count
    readers = {"--seed": set(REQUIRED_ARGS) - {"calibrate", "flops"}, "--threads": set()}
    parser = build_parser()
    argv = [command, *REQUIRED_ARGS[command]]
    parser.parse_args(argv)
    for flag, commands in readers.items():
        if command in commands:
            assert parser.parse_args(argv + [flag, "3"]) is not None
        else:
            with pytest.raises(SystemExit):
                parser.parse_args(argv + [flag, "3"])
            assert "unrecognized arguments" in capsys.readouterr().err


def test_console_entry_point(tmp_path):
    """The installed script and python -m both reach the same parser."""
    # the child imports the package this suite imports, installed or not
    src = str(Path(orthorank.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "orthorank", "synth-model", "--out",
         str(tmp_path / "ck"), "--layers", "2", "--d-model", "16",
         "--heads", "2", "--vocab", "32"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "sha256" in proc.stdout


@pytest.mark.parametrize("command", ["eval-ppl", "generate"])
def test_empty_plan_prints_dense_lines(cli_ck, tmp_path, capsys, command):
    corpus = write_corpus(tmp_path / "c.txt", helpers.make_tokens(48, 64, seed=7))
    plan_path = tmp_path / "empty.json"
    LayerPlan().save(plan_path)
    args = {"eval-ppl": ["--corpus", corpus, "--context-len", "16"],
            "generate": ["--prompt", "3 1 4 1 5", "--n-new", "5"]}[command]
    outs = []
    for plan_args in ([], ["--plan", plan_path], ["--plan", ""]):
        code, out, _ = run_cli(command, "--model", cli_ck, *args, *plan_args, capsys=capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] and outs[1] == outs[0] and outs[2] == outs[0]


@pytest.mark.parametrize("command", ["eval-ppl", "ablate"])
@pytest.mark.parametrize("context_len", [16, 32])
def test_calibration_context_note(planted_ck, tmp_path, capsys, command, context_len):
    corpus = write_corpus(tmp_path / "c.txt", helpers.planted_tokens(64))
    plan_path = tmp_path / "plan.json"
    LayerPlan(layers=[2, 3], keep_ratio=0.5, model_id=weights_sha256(planted_ck), l_sink=1,
              calib={"context_len": 32}).save(plan_path)
    code, text, _ = run_cli(command, "--model", planted_ck, "--corpus", corpus,
                            "--plan", plan_path, "--context-len", context_len,
                            "--out", tmp_path / "out", capsys=capsys)
    assert code == 0
    notes = [line for line in text.splitlines() if line.startswith("note:")]
    if context_len == 32:
        assert notes == []
    else:
        assert notes == ["note: plan was calibrated at context length 32; evaluating at 16"]


@pytest.mark.parametrize("command, broken", [
    ("eval-ppl", "corpus_is_directory"),
    ("eval-ppl", "out_dir_missing"),
    ("eval-ppl", "out_is_directory"),
    ("calibrate", "out_dir_missing"),
    ("generate", "out_dir_missing"),
    ("ablate", "out_dir_missing"),
])
def test_file_error_is_one_line(cli_ck, tmp_path, capsys, monkeypatch, command, broken):
    # outputs are checked before any work: none of it runs, and nothing is written
    for module, name in [(orthorank.cli, "calibrate_greedy"), (orthorank.cli, "generate_greedy"),
                         (eval_harness, "ablation_grid"), (eval_harness, "perplexity")]:
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    corpus = write_corpus(tmp_path / "c.txt", helpers.make_tokens(32, 64, seed=7))
    plan = tmp_path / "plan.json"
    LayerPlan(layers=[1], keep_ratio=0.5).save(plan)
    if broken == "corpus_is_directory":
        corpus = tmp_path
    missing = tmp_path / "missing" / "out"
    out = {"out_dir_missing": missing, "out_is_directory": tmp_path}.get(broken)
    args = {
        "eval-ppl": ["--corpus", corpus, "--context-len", "16"]
                    + (["--out", out] if out else []),
        "calibrate": ["--corpus", corpus, "--sparsity", "0.1", "--l-sink", "0",
                      "--context-len", "16", "--out", missing],
        "generate": ["--prompt", "3 1 4", "--n-new", "2", "--audit-csv", missing],
        "ablate": ["--corpus", corpus, "--plan", plan, "--context-len", "16",
                   "--audit-csv", missing, "--out", tmp_path / "grid.csv"],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    code, _, err = run_cli(command, "--model", cli_ck, *args, capsys=capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert sorted(tmp_path.rglob("*")) == before


# Each command's options as (option strings, default, type, required, action):
# the parser's contract, whichever way build_parser declares them.
STORE, TRUE = "_StoreAction", "_StoreTrueAction"
FLAGS = {
    "synth-model": {
        "out": (("--out",), None, None, True, STORE),
        "layers": (("--layers",), None, int, True, STORE),
        "d_model": (("--d-model",), None, int, True, STORE),
        "heads": (("--heads",), 4, int, False, STORE),
        "kv_heads": (("--kv-heads",), None, int, False, STORE),
        "d_ffn": (("--d-ffn",), None, int, False, STORE),
        "vocab": (("--vocab",), 256, int, False, STORE),
        "rope_theta": (("--rope-theta",), 10000.0, float, False, STORE),
        "norm_eps": (("--norm-eps",), 1e-05, float, False, STORE),
        "untied": (("--untied",), False, None, False, TRUE),
        "seed": (("--seed",), 0, int, False, STORE),
    },
    "analyze": {
        "model": (("--model",), None, None, False, STORE),
        "corpus": (("--corpus",), None, None, False, STORE),
        "synthetic": (("--synthetic",), False, None, False, TRUE),
        "layers": (("--layers",), 32, int, False, STORE),
        "seq_len": (("--seq-len",), None, int, False, STORE),
        "d": (("--d",), 64, int, False, STORE),
        "l_sink": (("--l-sink",), None, int, False, STORE),
        "rate": (("--rate",), 0.25, float, False, STORE),
        "positions": (("--positions",), None, None, False, STORE),
        "cross_positions": (("--cross-positions",), None, None, False, STORE),
        "dump_trace": (("--dump-trace",), False, None, False, TRUE),
        "out": (("--out",), None, None, True, STORE),
        "seed": (("--seed",), 0, int, False, STORE),
    },
    "calibrate": {
        "model": (("--model",), None, None, True, STORE),
        "corpus": (("--corpus",), None, None, True, STORE),
        "sparsity": (("--sparsity",), None, float, True, STORE),
        "keep_ratio": (("--keep-ratio",), 0.333, float, False, STORE),
        "context_len": (("--context-len",), 128, int, False, STORE),
        "l_sink": (("--l-sink",), None, int, False, STORE),
        "tau": (("--tau",), 0.3, float, False, STORE),
        "one_shot": (("--one-shot",), False, None, False, TRUE),
        "out": (("--out",), None, None, True, STORE),
    },
    "eval-ppl": {
        "model": (("--model",), None, None, True, STORE),
        "corpus": (("--corpus",), None, None, True, STORE),
        "plan": (("--plan",), None, None, False, STORE),
        "context_len": (("--context-len",), 256, int, False, STORE),
        "criterion": (("--criterion",), "orthogonal_asc", None, False, STORE),
        "stage": (("--stage",), "normalized", None, False, STORE),
        "no_kv": (("--no-kv",), False, None, False, TRUE),
        "out": (("--out",), None, None, False, STORE),
        "seed": (("--seed",), 0, int, False, STORE),
    },
    "layerwise": {
        "model": (("--model",), None, None, True, STORE),
        "corpus": (("--corpus",), None, None, True, STORE),
        "keep_ratio": (("--keep-ratio",), 0.333, float, False, STORE),
        "context_len": (("--context-len",), 128, int, False, STORE),
        "l_sink": (("--l-sink",), None, int, False, STORE),
        "tau": (("--tau",), 0.3, float, False, STORE),
        "criteria": (("--criteria",), "orthogonal_asc,orthogonal_desc,random", None, False,
                     STORE),
        "out": (("--out",), None, None, True, STORE),
        "seed": (("--seed",), 0, int, False, STORE),
    },
    "ablate": {
        "model": (("--model",), None, None, True, STORE),
        "corpus": (("--corpus",), None, None, True, STORE),
        "plan": (("--plan",), None, None, True, STORE),
        "context_len": (("--context-len",), 128, int, False, STORE),
        "audit_csv": (("--audit-csv",), None, None, False, STORE),
        "out": (("--out",), None, None, True, STORE),
        "seed": (("--seed",), 0, int, False, STORE),
    },
    "flops": {
        "model": (("--model",), None, None, True, STORE),
        "plan": (("--plan",), None, None, False, STORE),
        "layers": (("--layers",), None, None, False, STORE),
        "keep_ratio": (("--keep-ratio",), 0.333, float, False, STORE),
        "seq_len": (("--seq-len",), 128, int, False, STORE),
        "out": (("--out",), None, None, False, STORE),
    },
    "generate": {
        "model": (("--model",), None, None, True, STORE),
        "prompt": (("--prompt",), None, None, True, STORE),
        "n_new": (("--n-new",), 16, int, False, STORE),
        "plan": (("--plan",), None, None, False, STORE),
        "criterion": (("--criterion",), "orthogonal_asc", None, False, STORE),
        "stage": (("--stage",), "normalized", None, False, STORE),
        "no_kv": (("--no-kv",), False, None, False, TRUE),
        "audit_csv": (("--audit-csv",), None, None, False, STORE),
        "seed": (("--seed",), 0, int, False, STORE),
    },
}


def test_each_command_keeps_its_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(FLAGS)
    for command, parser in sub.choices.items():
        got = {a.dest: (tuple(a.option_strings), a.default, a.type, a.required,
                        type(a).__name__)
               for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        assert got == FLAGS[command], command
