"""The package's import layers, read from the source with ast.

Only the command layer (cli) reads configs and writes reports through
config; nothing imports cli; and every import sits at module level, so the
dependency graph is the one the module headers show.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lipcert"
MODULES = sorted(PACKAGE.glob("*.py"))


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
