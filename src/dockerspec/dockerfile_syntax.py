"""Dockerfile text parsing and tree construction.

Turns Dockerfile text into an instruction/comment document, splits RUN bodies
into shell statements, and builds the two-level tree (instructions -> shell
statements -> argument leaves) used for edit-distance comparison.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import EmptyInput, MalformedInstruction, ShellSyntaxError

INSTRUCTION_KINDS = frozenset({
    "FROM", "RUN", "CMD", "ENTRYPOINT", "COPY", "ADD", "ENV", "ARG",
    "LABEL", "EXPOSE", "WORKDIR", "USER", "VOLUME", "MAINTAINER",
    "ONBUILD", "SHELL", "STOPSIGNAL", "HEALTHCHECK",
})

# connector spellings, in both directions
_CONNECTOR_NAMES = {"&&": "and", "||": "or", ";": "semicolon", "|": "pipe", "\n": "newline"}
CONNECTOR_TOKENS = {"and": "&&", "or": "||", "semicolon": ";", "pipe": "|", "newline": ";"}


@dataclass(frozen=True)
class CommentLine:
    text: str
    line: int


@dataclass(frozen=True)
class Instruction:
    kind: str
    raw_arguments: str
    line_span: tuple[int, int]

    def argument_tokens(self) -> list[str]:
        return self.raw_arguments.split()


@dataclass(frozen=True)
class ShellStatement:
    command: str
    arguments: tuple[str, ...]
    connector_to_next: str = "none"


@dataclass(frozen=True)
class DockerfileDocument:
    raw_text: str
    content_hash: str
    instructions: tuple[Instruction, ...]
    comments: tuple[CommentLine, ...]
    blank_lines: frozenset[int]

    @property
    def from_count(self) -> int:
        """Number of FROM instructions; >1 means a multi-stage build."""
        return sum(1 for i in self.instructions if i.kind == "FROM")

    def instructions_of_kind(self, kind: str) -> list[Instruction]:
        return [i for i in self.instructions if i.kind == kind]


@dataclass
class Node:
    """Ordered, labeled tree node; the root of a parsed Dockerfile tree is
    labeled ``dockerfile``."""

    label: str
    children: list["Node"] = field(default_factory=list)


def _trailing_continuation(line: str) -> bool:
    """True when the line ends with an unescaped backslash."""
    stripped = line.rstrip()
    n = 0
    while n < len(stripped) and stripped[-1 - n] == "\\":
        n += 1
    return n % 2 == 1


def parse_dockerfile(text: str) -> DockerfileDocument:
    """Parse Dockerfile text into instructions, comments, and blank lines.

    Backslash line continuations are joined into one logical line per
    instruction; comments inside a continuation block are recorded as
    standalone comment lines. Raises MalformedInstruction for a line that
    does not start with a known keyword and EmptyInput when no instruction
    is found.
    """
    instructions: list[Instruction] = []
    comments: list[CommentLine] = []
    blanks: set[int] = set()

    segments: list[str] = []
    start_line = 0

    def close_instruction(end_line: int) -> None:
        logical = " ".join(s for s in segments if s)
        head, _, rest = logical.partition(" ")
        if not head.isalpha() or head.upper() not in INSTRUCTION_KINDS:
            raise MalformedInstruction(start_line, segments[0])
        instructions.append(Instruction(head.upper(), rest.strip(), (start_line, end_line)))
        segments.clear()

    last_content_line = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            blanks.add(lineno)
            continue
        if stripped.startswith("#"):
            comments.append(CommentLine(stripped[1:].strip(), lineno))
            continue
        if _trailing_continuation(line):
            piece = line.rstrip()[:-1].strip()
        else:
            piece = stripped
        if not segments:
            start_line = lineno
        segments.append(piece)
        last_content_line = lineno
        if not _trailing_continuation(line):
            close_instruction(lineno)
    if segments:
        # dangling continuation at EOF: close with what we have
        close_instruction(last_content_line)

    if not instructions:
        raise EmptyInput("no instructions found")

    return DockerfileDocument(
        raw_text=text,
        content_hash=hashlib.sha1(text.encode("utf-8")).hexdigest(),
        instructions=tuple(instructions),
        comments=tuple(comments),
        blank_lines=frozenset(blanks),
    )


def serialize_document(doc: DockerfileDocument) -> str:
    """Render a document back to text, one line per instruction.

    Relative order of instructions, comments, and blank lines is preserved,
    so re-parsing yields the same instruction sequence and the same comment
    scoping.
    """
    events: list[tuple[int, int, str]] = []
    for inst in doc.instructions:
        events.append((inst.line_span[0], 1, f"{inst.kind} {inst.raw_arguments}".rstrip()))
    for comment in doc.comments:
        events.append((comment.line, 0, f"# {comment.text}".rstrip()))
    for blank in doc.blank_lines:
        events.append((blank, 0, ""))
    events.sort()
    return "\n".join(line for _, _, line in events) + "\n"


def _tokenize_shell(script: str) -> list[tuple[str, str]]:
    """Split a shell script into ("word", text) / ("op", connector) tokens.

    Quotes are honored (and stripped), backslash escapes the next character,
    and `$(...)` / backtick substitutions are kept as opaque word content.
    Here-documents are unsupported and raise ShellSyntaxError.
    """
    tokens: list[tuple[str, str]] = []
    buf: list[str] = []
    in_word = False
    i = 0
    n = len(script)

    def flush() -> None:
        nonlocal in_word
        if in_word:
            tokens.append(("word", "".join(buf)))
            buf.clear()
            in_word = False

    while i < n:
        c = script[i]
        if c == "'":
            end = script.find("'", i + 1)
            if end < 0:
                raise ShellSyntaxError("unterminated single quote")
            buf.append(script[i + 1:end])
            in_word = True
            i = end + 1
        elif c == '"':
            i += 1
            closed = False
            while i < n:
                c = script[i]
                if c == "\\" and i + 1 < n and script[i + 1] in '"\\$`':
                    buf.append(script[i + 1])
                    i += 2
                elif c == '"':
                    closed = True
                    i += 1
                    break
                else:
                    buf.append(c)
                    i += 1
            if not closed:
                raise ShellSyntaxError("unterminated double quote")
            in_word = True
        elif c == "\\":
            if i + 1 < n and script[i + 1] == "\n":
                pass  # escaped newline: line continuation, joins the lines
            elif i + 1 < n:
                buf.append(script[i + 1])
                in_word = True
            i += 2
        elif c == "$" and i + 1 < n and script[i + 1] == "(":
            depth = 0
            j = i + 1
            while j < n:
                if script[j] == "(":
                    depth += 1
                elif script[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                raise ShellSyntaxError("unterminated command substitution")
            buf.append(script[i:j + 1])
            in_word = True
            i = j + 1
        elif c == "`":
            end = script.find("`", i + 1)
            if end < 0:
                raise ShellSyntaxError("unterminated backquote substitution")
            buf.append(script[i:end + 1])
            in_word = True
            i = end + 1
        elif c == "<" and i + 1 < n and script[i + 1] == "<":
            raise ShellSyntaxError("here-documents are not supported")
        elif c == "#" and not in_word:
            while i < n and script[i] != "\n":
                i += 1
        elif script.startswith("&&", i) or script.startswith("||", i):
            flush()
            tokens.append(("op", script[i:i + 2]))
            i += 2
        elif c in ";|\n":
            flush()
            tokens.append(("op", c))
            i += 1
        elif c.isspace():
            flush()
            i += 1
        else:
            buf.append(c)
            in_word = True
            i += 1
    flush()
    return tokens


def parse_shell(script: str) -> list[ShellStatement]:
    """Split a RUN body into shell statements.

    Statements are separated by ``&&``, ``||``, ``;``, ``|``, and unescaped
    newlines; quoting is respected. Each statement is a command word plus
    argument words. An empty operand next to ``&&``/``||``/``|`` raises
    ShellSyntaxError; trailing ``;`` or blank lines are tolerated.
    """
    statements: list[ShellStatement] = []
    words: list[str] = []

    def close(connector: str) -> None:
        statements.append(ShellStatement(words[0], tuple(words[1:]), connector))
        words.clear()

    for kind, value in _tokenize_shell(script):
        if kind == "word":
            words.append(value)
            continue
        connector = _CONNECTOR_NAMES[value]
        if words:
            close(connector)
        elif value == "\n":
            pass  # blank line or line break right after a connector
        elif value == ";" and not statements:
            raise ShellSyntaxError("statement cannot start with ';'")
        elif value == ";":
            raise ShellSyntaxError("empty statement between connectors")
        else:
            raise ShellSyntaxError(f"missing operand before {value!r}")

    if words:
        close("none")
    elif statements:
        last = statements[-1]
        if last.connector_to_next in ("and", "or", "pipe"):
            raise ShellSyntaxError(
                f"missing operand after {CONNECTOR_TOKENS[last.connector_to_next]!r}")
        statements[-1] = ShellStatement(last.command, last.arguments, "none")
    return statements


def join_statements(statements: list[ShellStatement]) -> str:
    """Inverse of parse_shell at the token level: rebuild one script line."""
    parts: list[str] = []
    for stmt in statements:
        parts.append(" ".join((stmt.command,) + stmt.arguments))
        if stmt.connector_to_next != "none":
            parts.append(CONNECTOR_TOKENS[stmt.connector_to_next])
    return " ".join(parts)


def parse_exec_form(raw_arguments: str) -> list[str] | None:
    """Return the element list for exec-form arguments (``["a", "b"]``),
    or None when the text is not a JSON array."""
    text = raw_arguments.strip()
    if not text.startswith("["):
        return None
    try:
        elements = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(elements, list):
        return None
    return [str(e) for e in elements]


def run_statements(inst: Instruction) -> list[ShellStatement]:
    """The shell statements of a RUN instruction: an exec-form list is one
    statement (none when empty), a shell-form body goes through parse_shell.
    Propagates ShellSyntaxError."""
    elements = parse_exec_form(inst.raw_arguments)
    if elements is None:
        return parse_shell(inst.raw_arguments)
    return [ShellStatement(elements[0], tuple(elements[1:]))] if elements else []


def build_ast(doc: DockerfileDocument) -> Node:
    """Build the comparison tree: a ``dockerfile`` root, one child per
    instruction labeled by kind, RUN children labeled by shell command with
    argument-word leaves, and plain word leaves elsewhere.

    Exec-form argument lists become one leaf per element. Comments are not
    represented. Propagates ShellSyntaxError from RUN bodies.
    """
    root = Node("dockerfile")
    for inst in doc.instructions:
        inst_node = Node(inst.kind)
        root.children.append(inst_node)
        elements = parse_exec_form(inst.raw_arguments)
        if elements is not None:
            inst_node.children.extend(Node(e) for e in elements)
        elif inst.kind == "RUN":
            for stmt in parse_shell(inst.raw_arguments):
                stmt_node = Node(stmt.command)
                stmt_node.children.extend(Node(a) for a in stmt.arguments)
                inst_node.children.append(stmt_node)
        else:
            inst_node.children.extend(Node(w) for w in inst.argument_tokens())
    return root


def ast_size(node: Node) -> int:
    """Total node count of the tree rooted at ``node``."""
    return 1 + sum(ast_size(c) for c in node.children)


def ast_to_text(node: Node, indent: int = 0) -> str:
    lines = ["  " * indent + node.label]
    for child in node.children:
        lines.append(ast_to_text(child, indent + 1))
    return "\n".join(lines)


def ast_to_json(node: Node) -> dict:
    return {"label": node.label, "children": [ast_to_json(c) for c in node.children]}
