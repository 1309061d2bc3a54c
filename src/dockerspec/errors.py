"""Exception types shared across the toolkit, and the readers of input files.

Every error raised on purpose derives from :class:`DockerspecError` and
carries the CLI exit code of its class in ``exit_code``, so callers map
failures to exit codes without matching on strings.
"""

from collections.abc import Iterator
from pathlib import Path


class DockerspecError(Exception):
    """Base class for all toolkit errors: exit code 1, input or parse error."""

    exit_code = 1


class ParseError(DockerspecError):
    """Base class for input-text problems."""


class MalformedInstruction(ParseError):
    """A logical line does not start with a known Dockerfile keyword."""

    def __init__(self, line_number: int, line: str):
        super().__init__(f"line {line_number}: no recognizable instruction keyword: {line!r}")
        self.line_number = line_number
        self.line = line


class EmptyInput(ParseError):
    """The input contains no instructions at all."""


class ShellSyntaxError(ParseError):
    """A RUN body could not be split into statements (unbalanced quotes,
    empty operand between connectors, here-document, ...)."""


class MalformedFrom(ParseError):
    """A FROM argument has no usable image name."""


class SchemaError(DockerspecError):
    """A serialized spec, corpus record or index file violates its schema."""


class InferenceIncomplete(DockerspecError):
    """A sub-step of spec inference failed, so not all fields could be set:
    exit code 2."""

    exit_code = 2


class KindMismatch(DockerspecError):
    """Instruction similarity was requested for two different kinds."""


class TooFewEntries(DockerspecError):
    """Not enough corpus entries to produce an 80/10/10 split."""


class EmptyCorpus(DockerspecError):
    """An index or retrieval operation was attempted over zero documents."""


class EmptyCandidate(DockerspecError):
    """BLEU was asked to score an empty candidate token list."""


class EmptySample(DockerspecError):
    """A statistical test received an empty sample."""


class EmptyManifest(DockerspecError):
    """Layer comparison received an empty original digest list."""


class ConfigError(DockerspecError):
    """Bad configuration: invalid flag values, a config file or word list
    that cannot be used: exit code 3."""

    exit_code = 3


def read_input(path: str | Path, error: type[DockerspecError]) -> str:
    """The text of the UTF-8 file ``path``, each ``\\r\\n`` read as ``\\n``:
    lines break at ``\\n`` only, as ``parse_dockerfile`` reads them.

    Undecodable bytes raise ``error`` with one line naming where they are:
    ``path:line: not UTF-8 text: reason at byte N``, N counted from the start
    of the file. OSError propagates."""
    try:
        return Path(path).read_bytes().decode("utf-8").replace("\r\n", "\n")
    except UnicodeDecodeError as exc:
        # a whole-file read decodes the file in one call, so exc.object is all of it
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def read_lines(path: str | Path, error: type[DockerspecError]) -> Iterator[str]:
    """The lines of the UTF-8 file ``path``, one at a time. The file is
    decoded in blocks of about 8 KiB, ahead of the lines yielded, and
    undecodable bytes raise ``error`` as ``read_input`` names them."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield from handle
    except UnicodeDecodeError:
        # a stream decodes ahead of the lines it yields: only a whole read names the line
        read_input(path, error)
        raise
