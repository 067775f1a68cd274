import numpy as np
import pytest

from orthorank import Model, ModelConfig, generate_synthetic_model

import helpers


@pytest.fixture(scope="session")
def tiny_config():
    return ModelConfig(n_layers=4, d_model=32, n_heads=4, n_kv_heads=2,
                       d_head=8, d_ffn=64, vocab_size=50)


@pytest.fixture(scope="session")
def tiny_checkpoint(tiny_config, tmp_path_factory):
    path = tmp_path_factory.mktemp("ck") / "tiny"
    generate_synthetic_model(tiny_config, 0, path)
    return path


@pytest.fixture(scope="session")
def tiny_model(tiny_checkpoint):
    return Model.from_checkpoint(tiny_checkpoint)


@pytest.fixture(scope="session")
def micro_config():
    # n_kv_heads < n_heads so the grouped-query path is exercised
    return ModelConfig(n_layers=2, d_model=8, n_heads=2, n_kv_heads=1,
                       d_head=4, d_ffn=16, vocab_size=11)


@pytest.fixture(scope="session")
def micro_model(micro_config, tmp_path_factory):
    path = tmp_path_factory.mktemp("ck") / "micro"
    generate_synthetic_model(micro_config, 1, path)
    return Model.from_checkpoint(path)


@pytest.fixture(scope="session")
def uniform_model():
    return helpers.make_uniform_model()


@pytest.fixture(scope="session")
def prob1_model():
    return helpers.make_prob1_model()


@pytest.fixture(scope="session")
def rotation_model():
    # 11 layers, identity block at layer 6; eligible set 2..9 under l_sink=1
    return helpers.make_rotation_model(11, {6})


@pytest.fixture(scope="session")
def sink_probe_model():
    return helpers.make_sink_probe_model()


@pytest.fixture(scope="session")
def planted_model(tmp_path_factory):
    return helpers.make_planted_sink_model(tmp_path_factory.mktemp("ck") / "planted")


@pytest.fixture
def tiny_tokens(tiny_config):
    return helpers.make_tokens(24, tiny_config.vocab_size)


_ACCEPTANCE_LINES = []


def record_acceptance(line):
    _ACCEPTANCE_LINES.append(line)


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid and report.failed:
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE_LINES.append(f"FAIL {name}")


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def layer_steps(monkeypatch):
    """Layers passed to ``selection._layer_step``, in call order."""
    from orthorank import selection

    layers = []
    real_step = selection._layer_step

    def counting_step(model, layer, *args, **kwargs):
        layers.append(layer)
        return real_step(model, layer, *args, **kwargs)

    monkeypatch.setattr(selection, "_layer_step", counting_step)
    return layers


@pytest.fixture(scope="session")
def layout_models():
    """Six-layer random models with multi-head and grouped-query attention, by name."""
    return helpers.attention_layout_models()


@pytest.fixture
def block_runs():
    """Layers whose block a layer step runs (``selection.block_forward``), in call order."""
    with helpers.counted_blocks() as layers:
        yield layers


@pytest.fixture
def softmax_entries(monkeypatch):
    """``scores.size`` of every stacked ``tensor_core._softmax_in_place`` call, in call order."""
    from orthorank import tensor_core

    sizes = []
    real_softmax = tensor_core._softmax_in_place

    def counting_softmax(scores, *args, **kwargs):
        sizes.append(scores.size)
        return real_softmax(scores, *args, **kwargs)

    monkeypatch.setattr(tensor_core, "_softmax_in_place", counting_softmax)
    return sizes
