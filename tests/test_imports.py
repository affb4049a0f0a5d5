"""Every module-level import is used, and so is every public name.

No linter is installed, so this scans the source with ``ast``: a name
bound by a module-level import must be read somewhere in its module.
A package ``__init__`` imports to re-export and is skipped, and an
import on a line marked ``# noqa: F401`` is kept on purpose.  The
benchmark's tracer patches names by module attribute, so every name it
binds must also still exist.

The public surface is ratcheted the same way: every public function,
class and method defined in the package must be read outside its own
definition by package code, the acceptance suite or the benchmark.
Unit tests do not count, so a name only its own tests call is flagged.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Module-level imports whose name is never read, or is bound again
    by a later module-level import, which leaves the earlier one dead."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.append((name, alias.lineno))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    last = {name: line for name, line in imported}
    return [f"{name} (line {line})" for name, line in imported
            if name not in read or line != last[name]]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path\n"
        "from math import comb as choose, log\n"
        "from json import dumps  # noqa: F401\n"
        "from math import log\n"
        "def f() -> None:\n"
        "    import re\n"
        "    return sys.argv, log\n"
    )
    assert unused_imports(source) == [
        "os (line 2)", "os (line 3)", "choose (line 4)", "log (line 4)",
    ]


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


def reads(tree: ast.AST) -> Counter:
    """How often each name is read: as a name, an attribute, or an
    identifier string (the tracer binds attributes by string)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier()):
            out[node.value] += 1
    return out


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function or class
    and each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unread_public_names(modules: dict, readers: list) -> list[str]:
    """Public names of ``modules`` (stem -> tree) read nowhere in them
    or in ``readers`` outside their own definitions."""
    total = sum((reads(tree) for tree in [*modules.values(), *readers]), Counter())
    return [
        f"{stem}.{name}"
        for stem, tree in modules.items()
        for name, node in public_definitions(tree)
        if total[node.name] == reads(node)[node.name]
    ]


def test_surface_scanner_skips_own_bodies_and_private_names():
    source = (
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def _private():\n    return used()\n"
        "class Box:\n"
        "    def get(self):\n        return self.get\n"
        "    def put(self):\n        return None\n"
    )
    reader = ast.parse("TRACED = ('put',)\n")
    assert unread_public_names({"m": ast.parse(source)}, [reader]) == [
        "m.recursive", "m.Box", "m.Box.get",
    ]


def test_every_public_name_is_read():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "deckcensus").glob("*.py"))
               if path.name != "__init__.py"}
    readers = [ROOT / "tests" / "test_acceptance.py"]
    readers += sorted((ROOT / "perfbench").glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in readers]
    assert unread_public_names(modules, trees) == []


def test_import_builds_no_decode_table_and_no_worker_pool():
    # a fresh interpreter: the graph6 tables are built on first decode,
    # and concurrent.futures is imported only for a worker pool
    probe = (
        "import sys, deckcensus\n"
        "from deckcensus import graphs\n"
        "print('concurrent.futures' in sys.modules,"
        " graphs._group_tables.cache_info().currsize)\n"
    )
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False 0\n"
