"""Static checks on how the dockerspec modules use each other.

No module imports another module's ``_private`` names or reads them as
attributes of an imported module; a helper that two modules need gets a
public name. Only ``errors`` reads files and words the "not UTF-8" message:
its readers, ``read_input`` and ``read_lines``, decode every input file and
keep one line rule. The spec's field names are declared once, by
``DockerSpec``: no module writes them out as a sequence.
"""

import ast
from pathlib import Path

import pytest

from dockerspec.spec_model import SPEC_FIELDS

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


UTF8_MESSAGE = "not UTF-8"


def utf8_message_outside_errors(sources: dict[str, str]) -> list[str]:
    """The modules, other than ``errors``, whose source holds the literal."""
    return sorted(name for name, source in sources.items()
                  if name != "errors" and UTF8_MESSAGE in source)


def test_only_errors_words_the_utf8_message():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert UTF8_MESSAGE in sources["errors"]
    assert utf8_message_outside_errors(sources) == []


def test_utf8_rule_flags_another_module():
    sources = {
        "errors": 'raise error(f"{path}:{line}: not UTF-8 text")\n',
        "cli": 'raise ParseError(f"{path}: not UTF-8 text: {exc.reason}")\n',
        "spec_model": "text = read_input(path, ConfigError)\n",
    }
    assert utf8_message_outside_errors(sources) == ["cli"]


def file_reads(source: str) -> list[str]:
    """Each call in ``source`` that reads a file: ``read_text``,
    ``read_bytes``, or ``open`` (``open(path, mode)`` or ``path.open(mode)``)
    with a mode that is not a constant or that reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("read_text", "read_bytes"):
            found.append(f"line {node.lineno}: {name}")
        elif name == "open":
            position = 1 if isinstance(func, ast.Name) else 0
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[position:position + 1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and "r" not in mode.value and "+" not in mode.value):
                found.append(f"line {node.lineno}: open")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_errors_reads_files(path):
    found = file_reads(path.read_text(encoding="utf-8"))
    assert found != [] if path.stem == "errors" else found == []


@pytest.mark.parametrize("source", [
    'text = Path(path).read_text(encoding="utf-8")\n',
    "data = path.read_bytes()\n",
    'handle = open(path, encoding="utf-8")\n',
    'handle = open(path, "rb")\n',
    'handle = open(path, mode="r+")\n',
    "handle = Path(path).open()\n",
    "handle = open(path, mode)\n",
])
def test_read_rule_flags_a_read(source):
    assert len(file_reads(source)) == 1


@pytest.mark.parametrize("source", [
    'handle = open(path, "w", encoding="utf-8")\n',
    'handle = Path(path).open("w", encoding="utf-8")\n',
    'handle = open(path, mode="ab")\n',
    "text = read_input(path, ParseError)\n",
    "lines = read_lines(path, SchemaError)\n",
])
def test_read_rule_allows_writes_and_the_readers(source):
    assert file_reads(source) == []


def spec_field_literals(source: str) -> list[str]:
    """Each tuple, list or set literal in ``source`` that writes three or
    more spec field names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            names = [element.value for element in node.elts
                     if isinstance(element, ast.Constant) and element.value in SPEC_FIELDS]
            if len(names) >= 3:
                found.append(f"line {node.lineno}: {', '.join(names)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_spec_fields_written_out_nowhere(path):
    assert spec_field_literals(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    'FLAG_FIELDS = (\n    "uses_env",\n    "uses_arg",\n    "uses_cmd",\n)\n',
    'SPEC_FIELDS = ("os", "pkg_manager", "dependencies") + FLAG_FIELDS\n',
    'for name in ["os", 1, "uses_env", "uses_label"]:\n    pass\n',
    'names = {"dependencies", "uses_expose", "uses_entrypoint"}\n',
])
def test_field_rule_flags_a_literal(source):
    assert len(spec_field_literals(source)) == 1


@pytest.mark.parametrize("source", [
    'SPEC_FIELDS = DockerSpec._fields\n',
    'pair = ("os", "pkg_manager")\n',
    'data = {"os": "any", "pkg_manager": "any", "dependencies": []}\n',
    'words = ("os", "apt", "apk", "yum")\n',
])
def test_field_rule_allows_other_literals(source):
    assert spec_field_literals(source) == []
