"""Infer a structured spec from a parsed Dockerfile.

Three steps: read the OS from the base-image reference, collect dependencies
from the image name and from install-comment scopes, then derive the package
manager and the capability flags from the instruction stream. One walk over
the lines in line order finds each comment's scope: the RUN instructions up to
the next comment line or blank line. Each install recognizer is a table.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

from .dockerfile_syntax import (
    CommentLine,
    DockerfileDocument,
    Runs,
    ShellStatement,
    split_runs,
)
from .errors import InferenceIncomplete, MalformedFrom
from .spec_model import PKG_MANAGERS, DockerSpec, WordLists, allowed_managers

_WORD_SEPARATORS = re.compile(r"[-_]")
_SEGMENT_SEPARATORS = re.compile(r"[-_.]")
_URL = re.compile(r"[a-z][a-z0-9+.-]*://", re.IGNORECASE)
_REDIRECTION_PREFIX = re.compile(r"\d*(>>|>|<)")
_NUMERIC_TAG = re.compile(r"(?=.*\d)[\d.]+$")

_DOWNLOAD_COMMANDS = ("wget", "curl")
_CLONE_COMMANDS = ("git", "hg")
_VCS_PREFIXES = ("git+", "hg+", "svn+", "bzr+")
# command -> (tool, install subcommand); npm's subcommand is read per statement
_INSTALLERS = {"apt": ("apt", "install"), "apt-get": ("apt", "install"),
               "yum": ("yum", "install"), "apk": ("apk", "add"),
               "pip": ("pip", "install"), "pip3": ("pip", "install"), "npm": ("npm", None)}
# command -> (long options, short-option letters) that install a local package
# file; a short-option cluster holding "q" is a query (rpm -qi is --info)
_LOCAL_INSTALLERS = {"dpkg": (("--install",), "i"), "rpm": (("--install", "--upgrade"), "iU")}

_FLAG_FOR_KIND = {
    "ENV": "uses_env",
    "ARG": "uses_arg",
    "LABEL": "uses_label",
    "EXPOSE": "uses_expose",
    "CMD": "uses_cmd",
    "ENTRYPOINT": "uses_entrypoint",
}

@dataclass(frozen=True)
class ImageReference:
    """A FROM argument split into name, optional tag, and their words."""

    name: str
    tag: str | None
    name_words: tuple[str, ...]
    tag_words: tuple[str, ...]


def _split_words(text: str) -> tuple[str, ...]:
    return tuple(w for w in _WORD_SEPARATORS.split(text.lower()) if w)


def split_image_reference(from_args: str) -> ImageReference:
    """Split a FROM argument into name/tag and their lowercase words.

    The tag separator is the last ":" after the last "/" (a colon inside a
    registry host:port is not a tag). Only the final path segment of a
    registry-qualified name contributes name words. ``--platform`` flags,
    stage aliases, and digests are ignored.
    """
    tokens = [t for t in from_args.split() if not t.startswith("--")]
    if not tokens:
        raise MalformedFrom(f"no image reference in {from_args!r}")
    image = tokens[0].split("@", 1)[0]
    colon = image.rfind(":")
    if colon >= 0 and "/" not in image[colon + 1:]:
        name, tag = image[:colon], image[colon + 1:]
    else:
        name, tag = image, ""
    name_words = _split_words(name.split("/")[-1])
    if not name or not name_words:
        raise MalformedFrom(f"empty image name in {from_args!r}")
    return ImageReference(name, tag or None, name_words, _split_words(tag))


def infer_os(ref: ImageReference, lists: WordLists) -> str:
    """First OS word found scanning tag words then name words, or "any".

    A match in the name gets the purely numeric tag words appended (dots
    dropped), so ``debian:10-slim`` becomes ``debian10``.
    """
    for word in ref.tag_words:
        if word in lists.os_words:
            return word
    for word in ref.name_words:
        if word in lists.os_words:
            version = "".join(
                w.replace(".", "") for w in ref.tag_words if _NUMERIC_TAG.match(w))
            return word + version
    return "any"


def infer_from_dependencies(ref: ImageReference, lists: WordLists) -> set[str]:
    """Image-name words that survive OS-word, stop-word, and
    non-alphabetic-leading removal."""
    return {
        w for w in ref.name_words
        if w[0].isalpha() and w not in lists.os_words and w not in lists.stop_words
    }


def extract_comment_candidates(comment: CommentLine, stop_words: frozenset[str]) -> list[str]:
    """Candidate dependency words from an install comment.

    Returns the lowercase content words following the first "install" token
    (case-insensitive), with stop words and punctuation-only tokens dropped;
    empty when the comment does not mention "install".
    """
    tokens = [t.strip(string.punctuation).lower() for t in comment.text.split()]
    try:
        start = tokens.index("install") + 1
    except ValueError:
        return []
    return [t for t in tokens[start:] if t and t not in stop_words]


def _strip_redirections(arguments: tuple[str, ...]) -> list[str]:
    kept = []
    skip_next = False
    for arg in arguments:
        if skip_next:
            skip_next = False
            continue
        match = _REDIRECTION_PREFIX.match(arg)
        if match:
            # a bare operator redirects into the following word; ">file" and
            # "2>&1" are self-contained
            skip_next = match.end() == len(arg)
            continue
        kept.append(arg)
    return kept


def install_command(stmt: ShellStatement) -> tuple[str, list[str]] | None:
    """The tool and package arguments of an install statement, or None.

    Recognizes ``apt``/``apt-get``/``yum`` install, ``apk add``,
    ``pip``/``pip3`` install and ``npm install``/``npm i``; the tool is one
    of apt, apk, yum, pip, npm. The decision and the packages use the
    arguments without redirections; packages exclude flags, variable
    references and the subcommand itself.
    """
    if stmt.command not in _INSTALLERS:
        return None
    tool, subcommand = _INSTALLERS[stmt.command]
    args = _strip_redirections(stmt.arguments)
    if tool == "npm":
        subcommand = args[0] if args and args[0] in ("install", "i") else None
    if subcommand not in args:
        return None
    args.remove(subcommand)
    return tool, [a for a in args if not a.startswith(("-", "$"))]


def _url_arguments(stmt: ShellStatement) -> list[str]:
    command = stmt.command
    args = _strip_redirections(stmt.arguments)
    if command in _DOWNLOAD_COMMANDS:
        return [a for a in args if _URL.match(a)]
    if command in _CLONE_COMMANDS and args and args[0] == "clone":
        return [a for a in args if _URL.match(a) or a.startswith("git@")]
    return []


def _url_final_segment(url: str) -> str:
    path = url.split("://", 1)[-1].rstrip("/")
    return path.rsplit("/", 1)[-1]


def extract_installable_args(statements: list[ShellStatement]) -> set[str]:
    """Words a statement list could be installing.

    Union over statements of package-manager install arguments and
    download-command URLs; every collected argument also contributes its
    words (split on ``-``, ``_``, ``.``), and URLs contribute the words of
    their final path segment. Everything is lowercased.
    """
    words: set[str] = set()

    def add(arg: str) -> None:
        arg = arg.lower()
        words.add(arg)
        words.update(w for w in _SEGMENT_SEPARATORS.split(arg) if w)

    for stmt in statements:
        install = install_command(stmt)
        for arg in install[1] if install else ():
            add(arg)
        for url in _url_arguments(stmt):
            words.add(url.lower())
            add(_url_final_segment(url))
    return words


def infer_comment_dependencies(doc: DockerfileDocument, lists: WordLists, runs: Runs) -> set[str]:
    """Comment candidates confirmed by an install argument in their scope.

    ``runs`` is the RUN split of ``doc`` (``split_runs``). One walk over
    comment, blank and RUN start lines in line order: a RUN adds its
    statements to the open scope; a comment or a blank line closes it, and a
    comment opens the next one with its own candidates.
    """
    events = sorted([(c.line, c, None) for c in doc.comments]
                    + [(line, None, None) for line in doc.blank_lines]
                    + [(inst.line_span[0], None, body) for inst, body in runs],
                    key=lambda event: event[0])
    accepted: set[str] = set()
    candidates: list[str] = []
    scope: list[ShellStatement] = []
    # a blank line after the last line closes the scope still open there
    for _, comment, body in events + [(None, None, None)]:
        if body is not None:
            scope += body
            continue
        if candidates:
            installable = extract_installable_args(scope)
            accepted.update(c for c in candidates if c in installable)
        candidates = extract_comment_candidates(comment, lists.stop_words) if comment else []
        scope = []
    return accepted


def infer_flags(doc: DockerfileDocument) -> dict[str, bool]:
    """The six instruction-presence flags (kind-level: ONBUILD CMD does not
    count as CMD)."""
    kinds = {inst.kind for inst in doc.instructions}
    return {flag: kind in kinds for kind, flag in _FLAG_FOR_KIND.items()}


def infer_pkg_manager(statements: list[ShellStatement], os_name: str) -> str:
    """The unique apt/apk/yum manager with an install statement among the
    RUN statements; "any" when none, several, or incoherent with the OS."""
    installs = [install_command(stmt) for stmt in statements]
    detected = {i[0] for i in installs if i and i[0] in PKG_MANAGERS}
    if len(detected) != 1:
        return "any"
    manager = detected.pop()
    return manager if manager in allowed_managers(os_name) else "any"


def infer_downloads_external(statements: list[ShellStatement]) -> bool:
    """True when some RUN statement downloads or installs from outside the
    package manager: URL downloads/clones, pip/npm VCS or URL installs, or a
    low-level package tool applied to a local file."""
    for stmt in statements:
        if _url_arguments(stmt):
            return True
        install = install_command(stmt)
        if install is not None:
            tool, packages = install
            if tool in ("pip", "npm") and any(
                    _URL.match(a) or a.startswith(_VCS_PREFIXES) for a in packages):
                return True
            if tool == "apk" and any(a.endswith(".apk") for a in packages):
                return True
        long_options, letters = _LOCAL_INSTALLERS.get(stmt.command, ((), ""))
        for arg in stmt.arguments:
            short = arg.startswith("-") and not arg.startswith("--") and "q" not in arg
            if arg in long_options or (short and any(letter in arg for letter in letters)):
                return True
    return False


def infer_spec(doc: DockerfileDocument, lists: WordLists,
               target_dependencies: frozenset[str] | None = None,
               runs: Runs | None = None) -> DockerSpec:
    """Run the full inference: OS, dependencies, package manager, and flags.

    Every step reads ``runs``, the RUN split of ``doc`` (``split_runs(doc)``
    when not given; corpus ingest passes the one its filter made). By default
    dependencies come from the image name and from install-comment scopes,
    found in one walk over the comment, blank and RUN start lines in line
    order. Given ``target_dependencies`` (for generated files, which carry no
    comments), the comment step is skipped: a target dependency counts as
    met when it is an installable argument of some RUN statement or a word of
    the FROM image name or tag.

    Raises InferenceIncomplete when a sub-step cannot produce its field
    (no FROM instruction, unusable image reference); shell syntax errors
    propagate as parse errors.
    """
    froms = doc.instructions_of_kind("FROM")
    if not froms:
        raise InferenceIncomplete("document has no FROM instruction")
    try:
        ref = split_image_reference(froms[0].raw_arguments)
    except MalformedFrom as exc:
        raise InferenceIncomplete(str(exc)) from exc

    runs = split_runs(doc) if runs is None else runs
    statements = [stmt for _, body in runs for stmt in body]
    os_name = infer_os(ref, lists)
    if target_dependencies is None:
        dependencies = infer_from_dependencies(ref, lists)
        dependencies |= infer_comment_dependencies(doc, lists, runs)
        dependencies = {
            d for d in dependencies
            if d[0].isalpha() and d not in lists.os_words and d not in lists.stop_words
        }
    else:
        mentioned = extract_installable_args(statements)
        mentioned.update(ref.name_words + ref.tag_words)
        dependencies = {d for d in target_dependencies if d in mentioned}
    return DockerSpec(
        os=os_name,
        pkg_manager=infer_pkg_manager(statements, os_name),
        dependencies=frozenset(dependencies),
        downloads_external=infer_downloads_external(statements),
        **infer_flags(doc),
    )
