"""The 10-field structured Dockerfile specification and its word lists.

A spec records the operating system, package manager, dependency set, and
seven capability flags. Specs serialize to a canonical JSON object so that
equal specs are byte-identical on disk.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from importlib import resources

from .errors import SchemaError

PKG_MANAGERS = ("apt", "apk", "yum", "any")

FLAG_FIELDS = (
    "downloads_external",
    "uses_env",
    "uses_arg",
    "uses_label",
    "uses_expose",
    "uses_cmd",
    "uses_entrypoint",
)

SPEC_FIELDS = ("os", "pkg_manager", "dependencies") + FLAG_FIELDS

# distro prefix -> the only non-"any" package manager it admits
_MANAGER_FOR_OS_PREFIX = {
    "apt": ("ubuntu", "debian"),
    "apk": ("alpine",),
    "yum": ("centos", "fedora", "rhel", "amazonlinux"),
}

_OS_TOKEN = re.compile(r"[a-z][a-z0-9]*$")


@dataclass(frozen=True)
class DockerSpec:
    os: str = "any"
    pkg_manager: str = "any"
    dependencies: frozenset[str] = frozenset()
    downloads_external: bool = False
    uses_env: bool = False
    uses_arg: bool = False
    uses_label: bool = False
    uses_expose: bool = False
    uses_cmd: bool = False
    uses_entrypoint: bool = False


def allowed_managers(os_name: str) -> set[str]:
    """Package managers coherent with an OS name ("any" is always allowed)."""
    for manager, prefixes in _MANAGER_FOR_OS_PREFIX.items():
        if os_name.startswith(prefixes):
            return {manager, "any"}
    return set(PKG_MANAGERS)


@dataclass(frozen=True)
class WordLists:
    """OS words and stop words used to classify image-name/comment tokens."""

    os_words: frozenset[str]
    stop_words: frozenset[str]

    def __post_init__(self):
        overlap = self.os_words & self.stop_words
        if overlap:
            raise ValueError(f"os/stop word lists overlap: {sorted(overlap)}")


def load_word_list(path) -> frozenset[str]:
    """Read a word list file: one lowercase word per line, # comments allowed."""
    words = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            word = line.split("#", 1)[0].strip().lower()
            if word:
                words.add(word)
    return frozenset(words)


def default_word_lists() -> WordLists:
    data = resources.files("dockerspec").joinpath("data")
    with resources.as_file(data.joinpath("os_words.txt")) as p:
        os_words = load_word_list(p)
    with resources.as_file(data.joinpath("stop_words.txt")) as p:
        stop_words = load_word_list(p)
    return WordLists(os_words, stop_words)


def validate_spec(spec: DockerSpec, lists: WordLists) -> list[str]:
    """Check spec invariants; returns the list of violations (empty = valid)."""
    violations = []
    if not spec.os:
        violations.append("os is empty")
    elif not _OS_TOKEN.match(spec.os):
        violations.append(f"os {spec.os!r} is not a single lowercase token")
    if spec.pkg_manager not in PKG_MANAGERS:
        violations.append(f"unknown package manager {spec.pkg_manager!r}")
    elif spec.pkg_manager not in allowed_managers(spec.os):
        violations.append(f"pkg/os incoherent: {spec.pkg_manager!r} with os {spec.os!r}")
    for dep in sorted(spec.dependencies):
        if dep in lists.os_words:
            violations.append(f"dependency {dep!r} is an OS word")
        elif dep in lists.stop_words:
            violations.append(f"dependency {dep!r} is a stop word")
        if not dep or not dep[0].isalpha():
            violations.append(f"dependency {dep!r} is not alphabetic-leading")
        elif dep != dep.lower():
            violations.append(f"dependency {dep!r} is not lowercase")
    return violations


def spec_to_dict(spec: DockerSpec) -> dict:
    """Plain-dict form with canonical field order and sorted dependencies."""
    out: dict = {}
    for name in SPEC_FIELDS:
        value = getattr(spec, name)
        out[name] = sorted(value) if name == "dependencies" else value
    return out


def serialize_spec(spec: DockerSpec) -> str:
    """Canonical JSON text: fixed field order, dependencies sorted."""
    return json.dumps(spec_to_dict(spec), indent=2) + "\n"


def spec_from_dict(data: dict) -> DockerSpec:
    if not isinstance(data, dict):
        raise SchemaError("spec must be a JSON object")
    missing = [f for f in SPEC_FIELDS if f not in data]
    if missing:
        raise SchemaError(f"missing field(s): {', '.join(missing)}")
    unknown = [k for k in data if k not in SPEC_FIELDS]
    if unknown:
        raise SchemaError(f"unknown field(s): {', '.join(sorted(unknown))}")
    if not isinstance(data["os"], str) or not data["os"]:
        raise SchemaError("os must be a non-empty string")
    if data["pkg_manager"] not in PKG_MANAGERS:
        raise SchemaError(f"pkg_manager must be one of {PKG_MANAGERS}")
    deps = data["dependencies"]
    if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
        raise SchemaError("dependencies must be an array of strings")
    flags = {}
    for name in FLAG_FIELDS:
        if type(data[name]) is not bool:
            raise SchemaError(f"{name} must be a boolean")
        flags[name] = data[name]
    return DockerSpec(os=data["os"], pkg_manager=data["pkg_manager"],
                      dependencies=frozenset(deps), **flags)


def deserialize_spec(text: str) -> DockerSpec:
    """Parse canonical spec JSON; raises SchemaError on any schema violation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return spec_from_dict(data)
