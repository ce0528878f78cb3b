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


def _unused_imports(path):
    """Names a module imports but never reads, by the AST of its source."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_unused_import_is_a_name_the_benchmark_tracer_wraps():
    # the tracer patches names where callers look them up, so such an import
    # stays until the tracer drops it; any other unused import is dead code
    from test_tracer_targets import _tracer_targets

    unused = {
        (f"memsynth.{path.stem}", name)
        for path in SOURCES.glob("*.py")
        for name in _unused_imports(path)
    }
    assert sorted(unused - set(_tracer_targets())) == []


def _kind_tables(path):
    """Line numbers of the module-level assignments of a source file that name an ElementKind member."""
    return [
        node.lineno
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and any(
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "ElementKind"
            for sub in ast.walk(node)
        )
    ]


def test_per_kind_tables_live_only_in_elements():
    # every fact about an element kind is one record of elements.KINDS; a
    # function body may still branch on a kind
    tables = {
        path.name: _kind_tables(path) for path in sorted(SOURCES.glob("*.py"))
        if path.name != "elements.py"
    }
    assert {name: lines for name, lines in tables.items() if lines} == {}
    assert _kind_tables(SOURCES / "elements.py")


def _definitions(tree):
    """Top-level functions, classes and constants of a module, and the non-dunder
    methods of its classes, as dotted names."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [
                f"{node.name}.{sub.name}" for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (sub.name.startswith("__") and sub.name.endswith("__"))
            ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [target.id for target in targets if isinstance(target, ast.Name)]
    return found


def _names_read(tree):
    """Every name a module loads and every attribute it names."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def test_every_library_definition_is_read_by_the_library_or_wrapped_by_the_tracer():
    # a definition that only tests reach is test-only surface, kept in tests/;
    # a tracer target stays until the tracer drops it
    from test_tracer_targets import _tracer_targets

    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCES.glob("*.py"))}
    read = set().union(*map(_names_read, trees.values()))
    traced = {attr.split(".")[-1] for _, attr in _tracer_targets()}
    unread = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name.split(".")[-1] not in read | traced
    ]
    assert unread == []
