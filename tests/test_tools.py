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


def _fake_tree(root, writes_every_call):
    """A source tree whose ``cli.main`` writes its ``-o`` file on every call or on its first."""
    package = root / "src" / "memsynth"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "from pathlib import Path\n"
        "calls = 0\n"
        "def main(argv):\n"
        "    global calls\n"
        "    calls += 1\n"
        f"    if {writes_every_call} or calls == 1:\n"
        "        Path(argv[argv.index('-o') + 1]).write_bytes(b'the same bytes')\n"
        "    return 0\n"
    )
    return root


def test_ab_chain_reads_a_call_that_writes_nothing_as_a_difference(tmp_path):
    writes = _fake_tree(tmp_path / "writes", True)
    once = _fake_tree(tmp_path / "once", False)
    spectrum = tmp_path / "spectrum.json"
    spectrum.write_text("{}")

    def ab_chain(tree_a, tree_b):
        return subprocess.run(
            [sys.executable, str(ROOT / "tools" / "ab_chain.py"), str(tree_a), str(tree_b),
             "characterize", str(spectrum)],
            capture_output=True, text=True, timeout=60,
        )

    assert ab_chain(writes, writes).returncode == 0
    # round 0 runs A first and both write; round 1 runs B first, and B writes nothing
    run = ab_chain(writes, once)
    assert run.returncode == 1
    assert run.stderr.splitlines()[0] == f"round 1: {spectrum}: outputs differ", run.stderr


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
    ('async def f():\n    """An async function docstring."""\n    return 1\n', 2),
    ('if x:\n    "s"\n', 2),
    ('for i in y:\n    """s"""\n    pass\n', 3),
], ids=["module-docstring", "comments-and-blanks", "function-docstring",
        "class-docstring", "string-after-code", "assigned-string", "async-function-docstring",
        "string-opening-an-if", "string-opening-a-for"])
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
