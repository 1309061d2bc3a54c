"""Dockerfile text parsing and tree construction.

Turns Dockerfile text into an instruction/comment document, splits RUN bodies
into shell statements, and builds the two-level tree (instructions -> shell
statements -> argument leaves) used for edit-distance comparison.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from .errors import EmptyInput, MalformedInstruction, ParseError, ShellSyntaxError

INSTRUCTION_KINDS = frozenset({
    "FROM", "RUN", "CMD", "ENTRYPOINT", "COPY", "ADD", "ENV", "ARG",
    "LABEL", "EXPOSE", "WORKDIR", "USER", "VOLUME", "MAINTAINER",
    "ONBUILD", "SHELL", "STOPSIGNAL", "HEALTHCHECK",
})

# a parser directive BuildKit knows; directives count only above any other line
_DIRECTIVE = re.compile(r"#\s*(syntax|escape|check)\s*=\s*(.+?)\s*", re.IGNORECASE)
# quoted strings and escapes are skipped; an unquoted "<<" opens a heredoc
_HEREDOC_SCAN = re.compile(r"""'[^']*'|"(?:\\.|[^"\\])*"|\\.|<<<|<<""")

# the shell lexer's token classes, tried in this order at each position
_SHELL_TOKEN = re.compile(r"""
      (?P<blank>[ \t]+)
    | (?P<plain>[^ \t\n'"\\$`<#&|;]+)
    | (?P<op>&&|\|\||[;|\n])
    | '(?P<single>[^']*)'
    | "(?P<double>[^"\\]*(?:\\.[^"\\]*)*)"
    | \\(?P<escaped>[^\n])
    | (?P<joined>\\\n?)
    | (?P<backquoted>`[^`]*`)
    | (?P<substitution>\$\()
    | (?P<heredoc><<)
    | (?P<comment>\#[^\n]*)
    | (?P<unterminated>['"`])
    | (?P<other>.)
""", re.VERBOSE | re.DOTALL)
_DOUBLE_QUOTED_ESCAPE = re.compile(r'\\(["\\$`])')
_PAREN = re.compile(r"[()]")
_UNTERMINATED = {"'": "unterminated single quote", '"': "unterminated double quote",
                 "`": "unterminated backquote substitution"}

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
    return (len(stripped) - len(stripped.rstrip("\\"))) % 2 == 1


def parse_dockerfile(text: str) -> DockerfileDocument:
    """Parse Dockerfile text into instructions, comments, and blank lines.

    Lines break at line feeds only, and one leading byte-order mark is ignored;
    ``raw_text`` and ``content_hash`` are those of ``text`` as given.
    Backslash line continuations are joined into one logical line per
    instruction; comments inside a continuation block are recorded as
    standalone comment lines. Raises MalformedInstruction for a line that
    does not start with a known keyword, ParseError for an ``escape`` parser
    directive other than backslash or a RUN/COPY/ADD that opens a heredoc,
    and EmptyInput when no instruction is found.
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
        if head.upper() in ("RUN", "COPY", "ADD") and "<<" in rest and any(
                m[0] == "<<" for m in _HEREDOC_SCAN.finditer(rest)):
            raise ParseError(
                f"line {start_line}: heredoc (<<) in {head.upper()} is not supported")
        instructions.append(Instruction(head.upper(), rest.strip(), (start_line, end_line)))
        segments.clear()

    # lines as BuildKit reads them; a "\r" before a "\n" goes with the edge whitespace
    lines = text.removeprefix("\ufeff").split("\n")
    if not lines[-1]:
        lines.pop()  # the final "\n" ends the last line; it opens no blank one
    directive = True  # still inside the parser directives that open the file
    last_content_line = 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        directive = directive and _DIRECTIVE.fullmatch(stripped)
        if directive and directive[1].lower() == "escape" and directive[2] != "\\":
            raise ParseError(f"line {lineno}: parser directive {stripped!r} is not "
                             "supported; the escape character must be backslash")
        if not stripped:
            blanks.add(lineno)
            continue
        if stripped.startswith("#"):
            comments.append(CommentLine(stripped[1:].strip(), lineno))
            continue
        continued = _trailing_continuation(line)
        if not segments:
            start_line = lineno
        segments.append(line.rstrip()[:-1].strip() if continued else stripped)
        last_content_line = lineno
        if not continued:
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


def _tokenize_shell(script: str) -> list[tuple[str, str]]:
    """Split a shell script into ("word", text) / ("op", connector) tokens.

    At each position the first of these token classes that matches is taken:
    spaces and tabs (end the word; as in sh, other whitespace is plain); a
    run of plain characters; an operator (``&&``, ``||``, ``;``, ``|``,
    newline); a single-quoted string (quotes stripped); a double-quoted
    string (quotes stripped, ``\\`` kept except before ``"``, ``\\``, ``$``
    and a backquote); a backslash escape (the next character; an escaped
    newline or a final backslash is dropped); a backquoted substitution (kept
    whole); ``$(``; ``<<``; a comment (only where no word has started; inside
    a word ``#`` is literal); any other single character. A ``$(``
    substitution is kept whole up to the parenthesis that brings the count of
    every ``(`` and ``)`` after the ``$``, quoted or escaped ones included,
    back to zero. An unterminated quote or substitution, and a here-document,
    raise ShellSyntaxError.
    """
    tokens: list[tuple[str, str]] = []
    word: list[str] = []  # non-empty while a word is open, even as [""]
    pos = 0
    while pos < len(script):
        m = _SHELL_TOKEN.match(script, pos)
        kind, text = m.lastgroup, m[m.lastgroup]
        pos = m.end()
        if kind in ("blank", "op"):
            if word:
                tokens.append(("word", "".join(word)))
                word.clear()
            if kind == "op":
                tokens.append(("op", text))
        elif kind == "double":
            word.append(_DOUBLE_QUOTED_ESCAPE.sub(r"\1", text))
        elif kind == "substitution":
            depth = 0
            for paren in _PAREN.finditer(script, m.start() + 1):
                depth += 1 if paren[0] == "(" else -1
                if depth == 0:
                    break
            else:
                raise ShellSyntaxError("unterminated command substitution")
            word.append(script[m.start():paren.end()])
            pos = paren.end()
        elif kind == "comment":
            if word:
                word.append("#")
                pos = m.start() + 1
        elif kind == "heredoc":
            raise ShellSyntaxError("here-documents are not supported")
        elif kind == "unterminated":
            raise ShellSyntaxError(_UNTERMINATED[text])
        elif kind != "joined":
            word.append(text)
    if word:
        tokens.append(("word", "".join(word)))
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


Runs = list[tuple[Instruction, list[ShellStatement]]]


def split_runs(doc: DockerfileDocument) -> Runs:
    """Each RUN instruction with its ``run_statements``; propagates ShellSyntaxError."""
    return [(inst, run_statements(inst)) for inst in doc.instructions_of_kind("RUN")]


def build_ast(doc: DockerfileDocument, runs: Runs | None = None) -> Node:
    """Build the comparison tree: a ``dockerfile`` root, one child per
    instruction labeled by kind, RUN children labeled by shell command with
    argument-word leaves, and plain word leaves elsewhere.

    Exec-form argument lists become one leaf per element. A shell-form RUN
    takes its statements from ``runs``, the RUN split of ``doc``
    (``split_runs(doc)`` if not given), so a caller that has split the
    document once passes that split. Comments are not represented.
    Propagates ShellSyntaxError from RUN bodies.
    """
    bodies = dict(split_runs(doc) if runs is None else runs)
    root = Node("dockerfile")
    for inst in doc.instructions:
        inst_node = Node(inst.kind)
        root.children.append(inst_node)
        elements = parse_exec_form(inst.raw_arguments)
        if elements is not None:
            inst_node.children.extend(Node(e) for e in elements)
        elif inst.kind == "RUN":
            for stmt in bodies[inst]:
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
