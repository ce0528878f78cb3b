"""The scripts under ``tools/``: each runs from the command line and says what it measured."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from memsynth import cli

ROOT = Path(__file__).resolve().parent.parent


def test_ab_chain_times_one_tree_against_itself(tmp_path):
    spectrum = tmp_path / "motivating.json"
    assert cli.main(["load-model", "motivating", "-o", str(spectrum)]) == 0
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_chain.py"), str(ROOT), str(ROOT),
         "characterize", str(spectrum)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert any(line.startswith("all: A ") and " ms  B " in line for line in lines), run.stdout
    assert any(line.startswith(f"{spectrum}: A ") for line in lines), run.stdout


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


@pytest.mark.parametrize("text, count", [
    ('"""A module docstring\nover two lines."""\n', 0),
    ("# a comment\n\n   \n    # an indented comment\n", 0),
    ('def f():\n    """A function docstring."""\n    return 1  # trailing\n', 2),
    ('class C:\n    """A class docstring."""\n', 1),
    ('x = 1\n"""A string after code is no docstring."""\n', 2),
    ('label = """a string\nover two lines"""\n', 2),
], ids=["module-docstring", "comments-and-blanks", "function-docstring",
        "class-docstring", "string-after-code", "assigned-string"])
def test_code_lines_counts_only_code(text, count):
    assert _code_lines()(text) == count


def test_code_lines_total_is_the_sum_of_its_module_rows():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert [name for _, name in modules] == sorted(
        path.name for path in (ROOT / "src" / "memsynth").glob("*.py")
    )
    assert int(total) == sum(int(count) for count, _ in modules)
