import inspect

import pytest

from dockerspec import errors
from dockerspec.errors import (
    ConfigError,
    DockerspecError,
    InferenceIncomplete,
    ParseError,
    SchemaError,
    read_input,
    read_lines,
)

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, DockerspecError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_per_class(cls):
    expected = {InferenceIncomplete: 2, ConfigError: 3}.get(cls, 1)
    assert cls.exit_code == expected


class TestReadInput:
    def test_returns_text_with_newlines_translated(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes("FROM alpine\r\n# café\r\n".encode())
        assert read_input(path, ParseError) == "FROM alpine\n# café\n"

    def test_lone_carriage_return_kept(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"a\rb\r\r\nc\n\rd")
        assert read_input(path, ParseError) == "a\rb\r\nc\n\rd"

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("error", [ParseError, SchemaError, ConfigError])
    def test_names_line_and_byte(self, tmp_path, newline, error):
        path = tmp_path / "in.txt"
        data = newline.join([b"one", "déjà".encode(), b"", b"four \xc3("]) + newline
        path.write_bytes(data)
        with pytest.raises(error) as caught:
            read_input(path, error)
        start = data.index(b"\xc3(")
        assert str(caught.value) == (
            f"{path}:4: not UTF-8 text: invalid continuation byte at byte {start}")
        assert type(caught.value) is error

    def test_bad_first_byte(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"\xff\n")
        with pytest.raises(ParseError, match=r"in\.txt:1: not UTF-8 text: invalid start byte "
                                             r"at byte 0$"):
            read_input(str(path), ParseError)

    def test_truncated_sequence_at_end(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"a\nb\nc\xe2\x82")
        with pytest.raises(ParseError, match=r":3: not UTF-8 text: unexpected end of data "
                                             r"at byte 5$"):
            read_input(path, ParseError)

    def test_bad_byte_far_into_a_large_file(self, tmp_path):
        path = tmp_path / "in.txt"
        data = b"RUN apk add curl\r\n" * 20000 + b"\x80\r\n"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=rf":20001: not UTF-8 text: invalid start byte "
                                             rf"at byte {len(data) - 3}$"):
            read_input(path, ParseError)

    def test_one_byte_order_mark_at_byte_zero_dropped(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes("\ufeff\ufeffa\r\n\ufeffb\n".encode())
        assert read_input(path, ParseError) == "\ufeffa\n\ufeffb\n"

    def test_bad_byte_after_byte_order_mark_counted_from_the_file_start(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"\xef\xbb\xbfa\n\xff\n")
        with pytest.raises(ParseError, match=r":2: not UTF-8 text: invalid start byte "
                                             r"at byte 5$"):
            read_input(path, ParseError)

    def test_os_error_propagates(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_input(tmp_path / "missing.txt", ParseError)
        with pytest.raises(IsADirectoryError):
            read_input(tmp_path, ParseError)


class TestReadLines:
    def test_yields_numbered_lines_split_at_newline_only(self, tmp_path):
        # a \r, alone or before \n, stays in its line, as JSON whitespace may
        path = tmp_path / "in.txt"
        path.write_bytes("one\r\ncaf\u00e9 \u2028 x\ry\r\rz\n\nlast".encode())
        assert list(read_lines(path, SchemaError)) == [
            (1, "one\r\n"), (2, "caf\u00e9 \u2028 x\ry\r\rz\n"), (3, "\n"), (4, "last")]

    def test_one_byte_order_mark_dropped_from_line_one_only(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes("\ufeff\ufeffone\n\ufefftwo\n".encode())
        assert list(read_lines(path, SchemaError)) == [(1, "\ufeffone\n"), (2, "\ufefftwo\n")]

    def test_lines_before_undecodable_bytes_are_yielded(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"one\ntwo\n\xff\nfour\n")
        lines = read_lines(path, SchemaError)
        assert [next(lines), next(lines)] == [(1, "one\n"), (2, "two\n")]
        with pytest.raises(SchemaError, match=r":3: not UTF-8 text: invalid start byte "
                                              r"at byte 8$"):
            next(lines)

    @pytest.mark.parametrize("error", [ParseError, SchemaError])
    def test_names_undecodable_bytes_as_read_input(self, tmp_path, error):
        path = tmp_path / "in.txt"
        path.write_bytes(b"one\r\n" * 5000 + b"two \xc3(\n")
        with pytest.raises(error) as caught:
            list(read_lines(path, error))
        with pytest.raises(error) as whole:
            read_input(path, error)
        assert str(caught.value) == str(whole.value)
        assert str(caught.value).startswith(f"{path}:5001: not UTF-8 text")

    def test_os_error_propagates(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            next(read_lines(tmp_path / "missing.txt", ParseError))
