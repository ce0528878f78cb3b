"""The scripts under ``tools/``: each runs from the command line and says what it measured."""

import subprocess
import sys
from pathlib import Path

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
