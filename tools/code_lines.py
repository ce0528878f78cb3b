"""Count the code lines of ``src/memsynth``: no docstrings, comments or blank lines.

Run from the repository root: ``python tools/code_lines.py``.  Prints one
``<lines> <file>`` row per module and the total.  A docstring is the leading
string constant of a module, class or function body, found with ``ast``.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "memsynth"

#: the nodes whose leading string is a docstring; an ``if`` or ``for`` body has none
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    lines = text.splitlines()
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and node.body and isinstance(node.body[0], ast.Expr):
            value = node.body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                skip.update(range(value.lineno, value.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(lines, 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
