"""Static checks on how the dockerspec modules use each other.

No module imports another module's ``_private`` names or reads them as
attributes of an imported module; a helper that two modules need gets a
public name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dockerspec"
MODULES = sorted(PACKAGE.glob("*.py"))
MODULE_NAMES = {path.stem for path in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(module: str | None, level: int) -> str | None:
    """The dockerspec module that ``from <module> import ...`` names, or None
    when it names the package itself or something outside it."""
    if level == 1:
        return module
    if level == 0 and module and module.startswith("dockerspec."):
        return module[len("dockerspec."):]
    return None


def private_uses(source: str, own_module: str) -> list[str]:
    """Each ``from .mod import _name`` and each ``mod._name`` in ``source``
    where ``mod`` is another dockerspec module."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}  # local name -> dockerspec module it binds
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package_level = node.level == 1 and node.module is None
            package_level |= node.level == 0 and node.module == "dockerspec"
            for alias in node.names:
                if package_level and alias.name in MODULE_NAMES:
                    aliases[alias.asname or alias.name] = alias.name
                    continue
                module = _sibling(node.module, node.level)
                if module is not None and module != own_module and _private(alias.name):
                    found.append(f"line {node.lineno}: from {module} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = _sibling(alias.name, 0)
                if module in MODULE_NAMES and alias.asname:
                    aliases[alias.asname] = module
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id) not in (None, own_module)
                and _private(node.attr)):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_modules_found():
    assert {"cli", "corpus_pipeline", "dockerfile_syntax", "spec_model"} <= MODULE_NAMES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_use_across_modules(path):
    assert private_uses(path.read_text(encoding="utf-8"), path.stem) == []


@pytest.mark.parametrize("source", [
    "from .spec_model import _MANAGER_FOR_OS_PREFIX\n",
    "from .spec_model import DockerSpec, _MANAGER_FOR_OS_PREFIX as managers\n",
    "from dockerspec.evaluation import _postorder\n",
    "from . import evaluation as ev\nev._keyroots([0])\n",
    "from dockerspec import evaluation\nevaluation._keyroots([0])\n",
    "import dockerspec.evaluation as ev\nev._keyroots([0])\n",
])
def test_checker_flags_private_use(source):
    assert len(private_uses(source, "cli")) == 1


@pytest.mark.parametrize("source", [
    "from .errors import ParseError\n",
    "from . import corpus_pipeline as cp\ncp.build_corpus([])\n",
    "from .spec_model import __doc__\n",
    "from collections import _chain\n",
    "import json\njson._default_encoder\n",
    "from .cli import _read_text\n",
    "def f(x):\n    return x._private\n",
])
def test_checker_allows_public_and_own_names(source):
    assert private_uses(source, "cli") == []
