"""The sizing tools under ``tools/`` run end to end on small inputs."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_ab_decode_pairs_a_tree_with_itself(capsys, monkeypatch):
    tool = load_tool("ab_decode")
    for name, value in dict(SEEDS=1, PROMPTS=2, PROMPT_TOKENS=16, STEPS=3, EVALS=3,
                            EVAL_TOKENS=40, EVAL_CONTEXT=16, CALIBRATIONS=2, CALIB_TOKENS=32,
                            CALIB_CONTEXT=16, CALIB_M=2).items():
        monkeypatch.setattr(tool, name, value)
    src = str(ROOT / "src")
    counts = {"seed 1": "of 6 steps", "all": "of 6 steps", "prefill": "of 2 prefills",
              "dense eval": "of 3 evaluations", "plan eval": "of 3 evaluations",
              "calibrate": "of 2 runs", "ablate": "of 2 runs"}
    for argv, labels in [([src, src], list(counts)),
                         ([src, src, "--only", "decode"], ["seed 1", "all", "prefill"]),
                         ([src, src, "--only", "calibrate"], ["calibrate", "ablate"])]:
        tool.main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == labels
        assert all("change faster in" in line and line.endswith(counts[label])
                   for label, line in zip(labels, lines))
        # the parent's interquartile range sits beside the paired median
        assert all(re.search(r"paired median [-+]\d+\.\d{3} ms \([-+]\d+\.\d%\) against "
                             r"parent IQR \d+\.\d{3} ms \(\d+\.\d%\), change faster", line)
                   for line in lines)


def test_code_lines_counts_statements_only(tmp_path, capsys):
    tool = load_tool("code_lines")
    (tmp_path / "mod.py").write_text(
        '"""Module docstring,\n\non three lines."""\n'
        "import os\n"
        "\n"
        "# a comment\n"
        "def f(a):\n"
        '    """One-line docstring."""\n'
        "    return os.path.join(a,  # the first part\n"
        '                        "b")\n'
        'TEXT = """not a\ndocstring"""\n')
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["6", "mod.py", "6", "total"]
