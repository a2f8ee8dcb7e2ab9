"""Every name a library module or test module imports is used in it, every
module-level constant of the library is read somewhere, every private
module-level function or class of the library is read by the library outside
itself, every public one is named by the library, the tests or the
benchmark, every library attribute the benchmark's tracer wraps exists, and
normalize keeps the cache whose statistics the benchmark reports."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

from thetakit import bigconst

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "thetakit").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=lambda p: p.relative_to(ROOT).as_posix(),
)

CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Any, List\nx: List = os.sep\n") == ["Any (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def module_constants(source: str) -> list[str]:
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
    return names


def names_read(source: str | ast.AST) -> set[str]:
    nodes = list(ast.walk(ast.parse(source) if isinstance(source, str) else source))
    return {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in nodes if isinstance(n, ast.Attribute)
    }


def test_the_check_sees_an_unread_constant():
    source = "A = 1\n_B: int = A\nc = 3\nprint(c.real)\n"
    assert module_constants(source) == ["A", "_B"]
    assert names_read(source) == {"A", "int", "print", "c", "real"}


def test_every_library_constant_is_read():
    library = sorted((ROOT / "src" / "thetakit").glob("*.py"))
    read = set().union(*(names_read(p.read_text()) for p in library + list((ROOT / "tests").glob("*.py"))))
    assert [f"{p.name}: {c}" for p in library for c in module_constants(p.read_text()) if c not in read] == []


def definitions(source: str) -> dict[str, set[str]]:
    """Each module-level function or class, with the names read everywhere
    in the module outside its own definition."""
    body = ast.parse(source).body
    reads = [names_read(n) for n in body]
    return {
        d.name: set().union(*(r for n, r in zip(body, reads) if n is not d))
        for d in body
        if isinstance(d, (ast.FunctionDef, ast.ClassDef))
    }


def unread_definitions(sources: dict[str, str], elsewhere: set[str]) -> list[str]:
    """The module-level definitions of sources that no module of sources
    reads outside the definition itself, and that are not in elsewhere."""
    reads = {name: names_read(text) for name, text in sources.items()}
    unread = []
    for name, text in sources.items():
        others = set().union(elsewhere, *(r for q, r in reads.items() if q != name))
        unread += [f"{name}: {d}" for d, read in definitions(text).items() if d not in read | others]
    return unread


def test_the_check_sees_an_unread_private_definition():
    source = "def _rec(n):\n    return _rec(n - 1)\n\nclass _Used:\n    pass\n\ndef f():\n    return _Used()\n"
    defs = definitions(source)
    assert sorted(defs) == ["_Used", "_rec", "f"]
    assert "_Used" in defs["_rec"] and "_rec" not in defs["_rec"]
    assert unread_definitions({"m.py": source}, set()) == ["m.py: _rec", "m.py: f"]
    assert unread_definitions({"m.py": source, "n.py": "g = m._rec"}, {"f"}) == []


LIBRARY = {p.name: p.read_text() for p in sorted((ROOT / "src" / "thetakit").glob("*.py")) if p.name != "__init__.py"}


def test_every_private_definition_is_read():
    # Private helpers must be read by the library itself.
    assert [u for u in unread_definitions(LIBRARY, set()) if ": _" in u] == []


def test_every_definition_is_named_outside_itself():
    # Public names count as used when a test or the benchmark reads them;
    # the package's re-exports in __init__.py do not count.
    outside = list((ROOT / "tests").glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    assert unread_definitions(LIBRARY, set().union(*(names_read(p.read_text()) for p in outside))) == []


def test_every_traced_boundary_resolves():
    # perfbench/spans.py replaces these module attributes with timing
    # wrappers, so a refactor that drops one breaks only a traced run.
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module.__name__}.{attr}"
        for module, names in spans.BOUNDARIES
        for attr in names
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_normalize_keeps_its_cache():
    # The traced benchmark pass reports normalize.cache_info(), so a
    # refactor that drops the cache breaks only that report.
    assert callable(getattr(bigconst.normalize, "cache_info", None))
