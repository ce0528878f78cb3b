"""The layering of the package and its modules."""

import ast
import sys
from pathlib import Path

import memsynth


def test_the_package_binds_no_name_but_its_submodules():
    # callers import each name from the module that owns it
    foreign = [
        name for name, value in vars(memsynth).items()
        if not name.startswith("_") and value is not sys.modules.get(f"memsynth.{name}")
    ]
    assert foreign == []
    assert not hasattr(memsynth, "__all__")


SOURCES = Path(memsynth.__file__).parent


def _imports(path):
    """(module, name) of every import in a source file; name is None for ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [("." * node.level + (node.module or ""), alias.name) for alias in node.names]
    return found


def test_only_textio_imports_orjson_and_cli_takes_only_its_public_names():
    importers = sorted(
        path.name for path in SOURCES.glob("*.py")
        if any(module.split(".")[0] == "orjson" for module, _ in _imports(path))
    )
    assert importers == ["textio.py"]
    from_textio = [name for module, name in _imports(SOURCES / "cli.py") if module == ".textio"]
    assert from_textio and not [name for name in from_textio if name.startswith("_")]


def test_cli_does_no_arithmetic_of_its_own():
    # numbers are worked out in the library; cli parses, calls and writes
    modules = {module.split(".")[0] for module, _ in _imports(SOURCES / "cli.py")}
    assert not modules & {"numpy", "math"}
