"""The package's import layers, read from the source with ast.

Only the command layer (cli) reads configs and writes reports through
config; nothing imports cli; every import sits at module level, so the
dependency graph is the one the module headers show; and every imported
name is used.  A fresh interpreter that imports the CLI loads no
concurrent.futures, which would add about 5 ms to every command's start.
Every config key the CLI reads is given by some test or shipped config.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "lipcert"
MODULES = sorted(PACKAGE.glob("*.py"))
# the package's __init__ imports names to export them
IMPORTERS = [p for p in MODULES if p.name != "__init__.py"] + sorted(TESTS.glob("*.py"))


def importers_of(module: str) -> list[str]:
    """Package modules with a relative import of module (the package's only kind)."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
                if module in names:
                    found.append(path.stem)
                    break
    return found


def test_modules_found():
    assert {"cli.py", "config.py", "network.py"} <= {p.name for p in MODULES}


def test_only_cli_imports_config():
    assert importers_of("config") == ["cli"]


def test_nothing_imports_cli():
    assert importers_of("cli") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_at_module_level(path):
    tree = ast.parse(path.read_text())
    top = {id(node) for node in tree.body}
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert nested == []


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def private_definitions(tree: ast.Module):
    """(name, node) of every module-level def, class or assignment whose
    name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((n, node) for n in names if n.startswith("_") and not n.startswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_used(path):
    # a name or attribute that reads it, anywhere in the package but inside
    # its own definition, so a refactor cannot leave an orphaned helper
    trees = {p: ast.parse(p.read_text()) for p in MODULES}
    orphans = []
    for name, definition in private_definitions(trees[path]):
        own = {id(n) for n in ast.walk(definition)}
        if not any(
            id(n) not in own
            and (isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name)
            for tree in trees.values()
            for n in ast.walk(tree)
        ):
            orphans.append(name)
    assert orphans == []


def test_cli_start_loads_no_concurrent_futures():
    # verify's second thread comes from threading alone
    probe = "import sys, lipcert.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def config_keys_read(path: Path) -> set[str]:
    """The literal keys of every get or get_seed call in path."""
    return {
        node.args[1].value
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("get", "get_seed")
        and len(node.args) > 1
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    }


def json_keys(doc) -> set[str]:
    if isinstance(doc, dict):
        return set(doc).union(*map(json_keys, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(json_keys, doc))
    return set()


def test_every_config_key_is_given_somewhere():
    # a key that no test config or shipped config quotes is an option that
    # nothing runs, such as a row of verify that no test ever asked for
    quoted = set()
    for path in sorted(TESTS.glob("*.py")):
        if path.name != Path(__file__).name:
            quoted |= {
                node.value for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            }
    for path in sorted((TESTS.parent / "configs").glob("*.json")):
        quoted |= json_keys(json.loads(path.read_text()))
    read = config_keys_read(PACKAGE / "cli.py") | config_keys_read(PACKAGE / "config.py")
    assert len(read) > 50
    assert sorted(read - quoted) == []
