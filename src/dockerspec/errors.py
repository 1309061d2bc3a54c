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


def _decode(data: bytes, path: str | Path, error: type[DockerspecError],
            line: int = 1, offset: int = 0) -> str:
    """``data``, from ``line`` and byte ``offset`` of ``path`` on, decoded as
    UTF-8, less one byte-order mark at byte 0 of the file. Undecodable bytes
    raise ``error`` as ``path:line: not UTF-8 text: reason at byte N``, N
    counted from the start of the file."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line += data.count(b"\n", 0, exc.start)
        offset += exc.start
        raise error(f"{path}:{line}: not UTF-8 text: {exc.reason} at byte {offset}") from exc
    return text.removeprefix("\ufeff") if offset == 0 else text


def read_input(path: str | Path, error: type[DockerspecError]) -> str:
    """The text of the UTF-8 file ``path``, read whole without a leading
    byte-order mark, each ``\\r\\n`` read as ``\\n``: lines break at ``\\n``
    only, as in ``parse_dockerfile``. Raises ``error`` on undecodable bytes
    (see ``_decode``); OSError propagates."""
    return _decode(Path(path).read_bytes(), path, error).replace("\r\n", "\n")


def read_lines(path: str | Path, error: type[DockerspecError]) -> Iterator[tuple[int, str]]:
    """Each line of the UTF-8 file ``path``, ending at ``\\n`` only, with its
    number from 1, decoded when reached, line 1 without a leading byte-order
    mark: undecodable bytes raise ``error`` (see ``_decode``) after every
    line before them. OSError propagates."""
    offset = 0
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            yield number, _decode(line, path, error, number, offset)
            offset += len(line)
