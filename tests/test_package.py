"""The package's public names and the layering of its modules."""

import ast
from pathlib import Path

import memsynth


def test_every_public_name_resolves():
    assert len(set(memsynth.__all__)) == len(memsynth.__all__)
    for name in memsynth.__all__:
        assert getattr(memsynth, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from memsynth import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(memsynth.__all__)


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
