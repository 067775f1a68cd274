"""The sizing tools under ``tools/`` run end to end on small inputs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_decode_pairs_a_tree_with_itself(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("ab_decode", ROOT / "tools" / "ab_decode.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name, value in dict(SEEDS=1, PROMPTS=2, PROMPT_TOKENS=16, STEPS=3, EVALS=3,
                            EVAL_TOKENS=40, EVAL_CONTEXT=16).items():
        monkeypatch.setattr(tool, name, value)
    src = str(ROOT / "src")
    tool.main([src, src])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["seed 1", "all", "prefill", "dense eval",
                                                      "plan eval"]
    assert all("change faster in" in line and "of 6 steps" in line for line in lines[:2])
    assert "change faster in" in lines[2] and lines[2].endswith("of 2 prefills")
    assert all("change faster in" in line and line.endswith("of 3 evaluations")
               for line in lines[3:])


def test_code_lines_counts_statements_only(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
