"""Every module-level import is used.

No linter is installed, so this scans the source with ``ast``: a name
bound by a module-level import must be read somewhere in its module.
A package ``__init__`` imports to re-export and is skipped, and an
import on a line marked ``# noqa: F401`` is kept on purpose.  The
benchmark's tracer patches names by module attribute, so every name it
binds must also still exist.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path\n"
        "from math import comb as choose, log\n"
        "from json import dumps  # noqa: F401\n"
        "def f() -> None:\n"
        "    import re\n"
        "    return sys.argv, log\n"
    )
    assert unused_imports(source) == ["os (line 3)", "choose (line 4)"]


def test_no_unused_imports_in_src_and_tests():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 10
    found = {
        str(path.relative_to(ROOT)): unused
        for path in paths
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_every_traced_binding_exists():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing.bindings()
    assert len(table) > 30
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in table
               if attr not in vars(owner)]
    assert missing == []
