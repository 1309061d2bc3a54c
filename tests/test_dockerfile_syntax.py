import sys

import pytest
from hypothesis import given, settings, strategies as st

from dockerspec import dockerfile_syntax
from dockerspec.corpus_pipeline import filter_eligible, normalize_for_training
from dockerspec.dockerfile_syntax import (
    ShellStatement,
    _tokenize_shell,
    ast_size,
    ast_to_json,
    ast_to_text,
    build_ast,
    join_statements,
    parse_dockerfile,
    parse_shell,
    run_statements,
)
from dockerspec.errors import EmptyInput, MalformedInstruction, ParseError, ShellSyntaxError
from dockerspec.spec_inference import infer_spec
from oracles import serialize_document, tokenize_shell_reference


def counting_parse_shell(monkeypatch):
    """The scripts ``parse_shell`` is called with from here on."""
    calls = []
    original = dockerfile_syntax.parse_shell
    monkeypatch.setattr(dockerfile_syntax, "parse_shell",
                        lambda script: calls.append(script) or original(script))
    return calls


class TestRuns:
    def test_each_run_with_its_statements(self, tomcat_ffmpeg_text):
        doc = parse_dockerfile(tomcat_ffmpeg_text + 'RUN ["apk", "add", "curl"]\nRUN []\n')
        runs = doc.instructions_of_kind("RUN")
        assert list(doc.runs) == runs
        assert list(doc.runs.values()) == [run_statements(inst) for inst in runs]
        assert doc.runs[runs[-1]] == []

    def test_one_split_for_every_reader(self, monkeypatch, tomcat_ffmpeg_text, word_lists):
        text = tomcat_ffmpeg_text + 'RUN ["apk", "add", "curl"]\nRUN a b && c\n'
        doc = parse_dockerfile(text)
        calls = counting_parse_shell(monkeypatch)
        assert filter_eligible(doc, word_lists) is None
        infer_spec(doc, word_lists)
        infer_spec(doc, word_lists, frozenset({"curl"}))
        normalize_for_training(doc)
        build_ast(doc)
        shell_form = [inst.raw_arguments for inst in doc.instructions_of_kind("RUN")
                      if not inst.raw_arguments.startswith("[")]
        assert len(shell_form) == 4
        assert calls == shell_form

    def test_syntax_error_raised_on_every_use(self, monkeypatch):
        doc = parse_dockerfile("FROM alpine\nRUN echo ok\nRUN echo 'open\nRUN echo later\n")
        calls = counting_parse_shell(monkeypatch)
        for _ in range(2):
            with pytest.raises(ShellSyntaxError, match="unterminated single quote"):
                doc.runs
        assert calls == ["echo ok", "echo 'open"] * 2


class TestParseDockerfile:
    def test_single_from(self):
        doc = parse_dockerfile("FROM tomcat:7.0.75-jre8\n")
        assert len(doc.instructions) == 1
        inst = doc.instructions[0]
        assert inst.kind == "FROM"
        assert inst.raw_arguments == "tomcat:7.0.75-jre8"

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_dockerfile("")

    def test_comment_only_input(self):
        with pytest.raises(EmptyInput):
            parse_dockerfile("# nothing here\n\n")

    def test_continuation_joining_with_comment(self):
        doc = parse_dockerfile("RUN a \\\n  b\n# c\n")
        assert len(doc.instructions) == 1
        assert doc.instructions[0].kind == "RUN"
        assert doc.instructions[0].raw_arguments == "a b"
        assert [c.text for c in doc.comments] == ["c"]

    def test_comment_inside_continuation_is_standalone(self):
        doc = parse_dockerfile("RUN a \\\n# note\n  b\n")
        assert doc.instructions[0].raw_arguments == "a b"
        assert [c.text for c in doc.comments] == ["note"]

    def test_escaped_backslash_is_not_continuation(self):
        doc = parse_dockerfile("RUN echo a\\\\\nFROM alpine\n")
        assert [i.kind for i in doc.instructions] == ["RUN", "FROM"]

    def test_malformed_line(self):
        with pytest.raises(MalformedInstruction):
            parse_dockerfile("FROM alpine\nthis is not an instruction\n")

    def test_lowercase_keywords_accepted(self):
        doc = parse_dockerfile("from alpine\nrun echo hi\n")
        assert [i.kind for i in doc.instructions] == ["FROM", "RUN"]

    def test_onbuild_keeps_nested_instruction_in_arguments(self):
        doc = parse_dockerfile("ONBUILD CMD echo hi\n")
        assert doc.instructions[0].kind == "ONBUILD"
        assert doc.instructions[0].raw_arguments == "CMD echo hi"

    def test_from_count_detects_multi_stage(self):
        doc = parse_dockerfile("FROM a\nFROM b\n")
        assert doc.from_count == 2

    def test_blank_lines_and_spans(self):
        doc = parse_dockerfile("FROM a\n\nRUN b \\\n c\n")
        assert doc.blank_lines == {2}
        assert doc.instructions[0].line_span == (1, 1)
        assert doc.instructions[1].line_span == (3, 4)

    def test_content_hash_is_sha1_of_text(self):
        import hashlib

        text = "FROM alpine\n"
        doc = parse_dockerfile(text)
        assert doc.content_hash == hashlib.sha1(text.encode()).hexdigest()
        assert parse_dockerfile(text).content_hash == doc.content_hash

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    @pytest.mark.parametrize("kind, arguments", [("RUN", 'echo "a{}b"'), ("LABEL", 'note="a{}b"')],
                             ids=["RUN", "LABEL"])
    def test_only_line_feeds_break_lines(self, char, kind, arguments):
        arguments = arguments.format(char)
        doc = parse_dockerfile(f"FROM alpine\n{kind} {arguments}\n\n# done\n")
        assert [(i.kind, i.raw_arguments, i.line_span) for i in doc.instructions] == [
            ("FROM", "alpine", (1, 1)), (kind, arguments, (2, 2))]
        assert doc.blank_lines == {3}
        assert [(c.text, c.line) for c in doc.comments] == [("done", 4)]

    def test_leading_byte_order_mark_ignored(self):
        import hashlib

        text = "\ufeff# install curl\nFROM alpine\r\n"
        doc = parse_dockerfile(text)
        assert [(c.text, c.line) for c in doc.comments] == [("install curl", 1)]
        assert [(i.kind, i.raw_arguments) for i in doc.instructions] == [("FROM", "alpine")]
        assert doc.raw_text == text
        assert doc.content_hash == hashlib.sha1(text.encode()).hexdigest()
        with pytest.raises(MalformedInstruction):
            parse_dockerfile("\ufeff\ufeffFROM alpine\n")

    def test_tomcat_ffmpeg_instruction_sequence(self, tomcat_ffmpeg_text):
        doc = parse_dockerfile(tomcat_ffmpeg_text)
        kinds = [i.kind for i in doc.instructions]
        assert kinds == ["FROM", "RUN", "WORKDIR", "RUN", "WORKDIR", "RUN", "WORKDIR"]
        assert [c.text for c in doc.comments] == ["Install x265", "Install ffmpeg."]

    def test_line_spans_disjoint_and_ordered(self, tomcat_ffmpeg_text):
        doc = parse_dockerfile(tomcat_ffmpeg_text)
        spans = [i.line_span for i in doc.instructions]
        assert all(start <= end for start, end in spans)
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start > prev_end


def _parse_error(text):
    with pytest.raises(ParseError) as info:
        parse_dockerfile(text)
    assert not isinstance(info.value, MalformedInstruction)
    assert "\n" not in str(info.value)
    return str(info.value)


class TestParserDirectives:
    """Only ``escape=\\`` is accepted; a directive counts only in the run of
    directive lines that opens the file (Dockerfile reference)."""

    def test_windows_escape_rejected_on_its_line(self):
        text = ("# escape=`\n\nFROM mcr.microsoft.com/windows/servercore\n"
                "RUN dir `\n    c:\\\n")
        message = _parse_error(text)
        assert message.startswith("line 1: parser directive '# escape=`' is not supported")

    @pytest.mark.parametrize("line", ["#escape=`", "#  ESCAPE = `", "# Escape=x",
                                      "# escape=\\\\"])
    def test_other_escape_spellings_rejected(self, line):
        assert _parse_error(f"{line}\nFROM alpine\n").startswith("line 1: parser directive")

    def test_after_syntax_directive_still_a_directive(self):
        text = "# syntax=docker/dockerfile:1\n# escape=`\nFROM alpine\n"
        assert _parse_error(text).startswith("line 2: parser directive")

    @pytest.mark.parametrize("text", [
        "# escape=\\\nFROM alpine\nRUN a \\\n  b\n",
        "#  escape = \\ \nFROM alpine\n",
        "# a comment\n# escape=`\nFROM alpine\n",
        "\n# escape=`\nFROM alpine\n",
        "FROM alpine\n# escape=`\n",
        "# unknown=x\n# escape=`\nFROM alpine\n",
    ])
    def test_backslash_or_not_a_directive_parses(self, text):
        doc = parse_dockerfile(text)
        assert doc.instructions[0].kind == "FROM"
        assert any("escape" in c.text for c in doc.comments)


class TestHeredocs:
    @pytest.mark.parametrize("text, line, kind", [
        ("FROM alpine\nRUN <<EOF\napk add git\nEOF\n", 2, "RUN"),
        ("FROM alpine\nRUN cat <<EOF > /etc/motd\nhello\nEOF\n", 2, "RUN"),
        ("FROM alpine\nRUN <<-EOT bash\n\tapk add git\nEOT\n", 2, "RUN"),
        ("FROM alpine\nRUN python3 <<'EOF'\nprint(1)\nEOF\n", 2, "RUN"),
        ("FROM alpine\nCOPY <<EOF /etc/app.conf\nkey=value\nEOF\n", 2, "COPY"),
        ("FROM alpine\nadd <<EOF /x\ny\nEOF\n", 2, "ADD"),
        ("FROM alpine\nRUN apk add git && \\\n  cat <<EOF\nx\nEOF\n", 2, "RUN"),
    ])
    def test_rejected_at_the_opening_instruction(self, text, line, kind):
        message = _parse_error(text)
        assert message == f"line {line}: heredoc (<<) in {kind} is not supported"

    @pytest.mark.parametrize("arguments", [
        'echo "a <<b"', "echo 'a <<b'", "echo \\<<b", 'echo "x\\" <<y"',
        'cat <<< "here string"', '["sh", "-c", "cat <<EOF"]',
    ])
    def test_quoted_escaped_or_here_string_parses_as_before(self, arguments):
        doc = parse_dockerfile(f"FROM alpine\nRUN {arguments}\n")
        assert doc.instructions[1].raw_arguments == arguments

    def test_other_instructions_unaffected(self):
        doc = parse_dockerfile("FROM alpine\nENV A=<<b\nLABEL x=<<y\n")
        assert [i.raw_arguments for i in doc.instructions[1:]] == ["A=<<b", "x=<<y"]


class TestParseShell:
    def test_split_on_and(self):
        statements = parse_shell("apt-get update && apt-get install -y git")
        assert [(s.command, list(s.arguments)) for s in statements] == [
            ("apt-get", ["update"]),
            ("apt-get", ["install", "-y", "git"]),
        ]
        assert statements[0].connector_to_next == "and"
        assert statements[1].connector_to_next == "none"

    def test_quoted_connector_is_literal(self):
        statements = parse_shell("echo 'a && b'")
        assert len(statements) == 1
        assert statements[0].command == "echo"
        assert list(statements[0].arguments) == ["a && b"]

    def test_trailing_and_is_an_error(self):
        with pytest.raises(ShellSyntaxError):
            parse_shell("a && ")

    def test_leading_connector_is_an_error(self):
        with pytest.raises(ShellSyntaxError):
            parse_shell("&& a")

    def test_double_semicolon_is_an_error(self):
        with pytest.raises(ShellSyntaxError):
            parse_shell("a ; ; b")

    def test_trailing_semicolon_tolerated(self):
        statements = parse_shell("a;")
        assert [(s.command, s.connector_to_next) for s in statements] == [("a", "none")]

    def test_all_connectors(self):
        statements = parse_shell("a && b || c ; d | e")
        assert [s.connector_to_next for s in statements] == [
            "and", "or", "semicolon", "pipe", "none"]

    def test_newline_splits(self):
        statements = parse_shell("a\nb")
        assert [s.command for s in statements] == ["a", "b"]
        assert statements[0].connector_to_next == "newline"

    def test_newline_after_connector_tolerated(self):
        statements = parse_shell("a &&\nb")
        assert [s.command for s in statements] == ["a", "b"]

    def test_unbalanced_quote(self):
        with pytest.raises(ShellSyntaxError):
            parse_shell("echo 'oops")

    def test_heredoc_rejected(self):
        with pytest.raises(ShellSyntaxError):
            parse_shell("cat <<EOF\nhi\nEOF")

    def test_command_substitution_is_opaque(self):
        statements = parse_shell("echo $(date && ls) done")
        assert list(statements[0].arguments) == ["$(date && ls)", "done"]

    def test_double_quotes_with_escape(self):
        statements = parse_shell('echo "a \\"b\\" c"')
        assert list(statements[0].arguments) == ['a "b" c']

    def test_redirection_tokens_kept_as_words(self):
        statements = parse_shell("echo foo >> /etc/apt/sources.list")
        assert list(statements[0].arguments) == ["foo", ">>", "/etc/apt/sources.list"]

    def test_fd_duplication_kept(self):
        statements = parse_shell("cmd > /dev/null 2>&1")
        assert list(statements[0].arguments) == [">", "/dev/null", "2>&1"]

    def test_escaped_newline_joins_lines(self):
        statements = parse_shell("echo a\\\nb")
        assert len(statements) == 1
        assert list(statements[0].arguments) == ["ab"]

    def test_empty_script(self):
        assert parse_shell("") == []

    @pytest.mark.parametrize("char", ["\x0c", "\r", "\xa0", "\u3000"])
    def test_other_whitespace_stays_in_word(self, char):
        """sh splits unquoted words at space and tab only."""
        assert parse_shell(f"apt-get install -y curl{char}git") == \
            [ShellStatement("apt-get", ("install", "-y", f"curl{char}git"))]

    def test_tab_splits_words(self):
        assert parse_shell("apt-get\tinstall -y\tcurl \t git") == \
            [ShellStatement("apt-get", ("install", "-y", "curl", "git"))]


_word = st.text(alphabet="abcdefg./-", min_size=1, max_size=6).filter(
    lambda w: not w.startswith("-") and "--" not in w and "<" not in w)
_statement = st.lists(_word, min_size=1, max_size=4)


@given(st.lists(_statement, min_size=1, max_size=4),
       st.lists(st.sampled_from(["and", "or", "semicolon", "pipe"]), min_size=3, max_size=3))
def test_rejoin_reproduces_statement_tokens(statement_words, connectors):
    statements = []
    for i, words in enumerate(statement_words):
        connector = connectors[i % 3] if i < len(statement_words) - 1 else "none"
        statements.append(ShellStatement(words[0], tuple(words[1:]), connector))
    reparsed = parse_shell(join_statements(statements))
    assert [(s.command, s.arguments, s.connector_to_next) for s in reparsed] == \
        [(s.command, s.arguments, s.connector_to_next) for s in statements]


def _lex(tokenize, script):
    """The tokens of ``tokenize(script)``, or its ShellSyntaxError message."""
    try:
        return tokenize(script)
    except ShellSyntaxError as error:
        return f"ShellSyntaxError: {error}"


# every character the lexer treats specially, plain ones, and whitespace
# other than space and tab, which stays inside a word; then the
# multi-character tokens
_SHELL_CHARS = list("ab()>\\'\"$`<#&|; \t\n\r\x0b\x0c") + [
    "\x1c", "\x85", "\xa0", "\u2028", "\u3000", "\xe9"]
_SHELL_TEXT = st.one_of(
    st.text(st.sampled_from(_SHELL_CHARS), max_size=40),
    st.lists(st.sampled_from(_SHELL_CHARS + [
        "&&", "||", "<<", "<<<", "$(", "a$b", '"a\\$b"', "\\\n", "\\\\", "\\x", "a#b",
        "''", '""']), max_size=20).map("".join))


class TestTokenizeShellMatchesReference:
    """The token-table lexer gives the tokens, or the ShellSyntaxError
    message, of the character loop it replaced (tests/oracles.py)."""

    @settings(max_examples=500, deadline=None)
    @given(_SHELL_TEXT)
    def test_random_text(self, script):
        assert _lex(_tokenize_shell, script) == _lex(tokenize_shell_reference, script)

    @pytest.mark.parametrize("script", [
        '"a\\"b\\\\c\\$d\\`e\\x\\\nf"',  # double-quote unescape
        '"\\', '"a\\"', '""', "''", "''#x", '""#x', "a#b #c\nd", "\\##",  # empty words, '#'
        "cat <<<w", "a<<<", "a<b", "<<",  # here-documents
        "a\\xb", "a\\\nb", "a \\\n b", "a\\", "\\ b",  # backslash
        "a$b", "$", "a$ b", "$$(x)", "$(a (b) \"c)\" d)e f", "$(a", "$((1+1))",  # '$'
        "`a`b", "`a", "'a", '"a', "a&b & c", "a||b&&c;d|e\nf",
        "a\xa0b\u3000c\x1cd\x85e\u2028f", "# only a comment",
    ])
    def test_edge_cases(self, script):
        assert _lex(_tokenize_shell, script) == _lex(tokenize_shell_reference, script)

    def test_benchmark_run_bodies(self, benchmark_corpus_dir):
        bodies = []
        for path in sorted(benchmark_corpus_dir.iterdir()):
            try:
                doc = parse_dockerfile(path.read_text(encoding="utf-8"))
            except (UnicodeDecodeError, ParseError):
                continue
            bodies.extend(i.raw_arguments for i in doc.instructions_of_kind("RUN")
                          if not i.raw_arguments.startswith("["))
        assert len(bodies) > 8000
        for body in bodies:
            assert _lex(_tokenize_shell, body) == _lex(tokenize_shell_reference, body)


@pytest.mark.parametrize("tokenize", [_tokenize_shell, tokenize_shell_reference])
def test_words_split_at_space_and_tab_only(tokenize):
    """Of the code points that str.isspace knows, only tab and space end a
    word, in the lexer and in the character loop it replaced, as in sh; a
    line feed is an operator."""
    whitespace = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c != "\n"]
    assert len(whitespace) > 20
    assert [c for c in whitespace if tokenize(f"a{c}b") != [("word", f"a{c}b")]] == ["\t", " "]


class TestRunStatements:
    def run_of(self, line):
        return parse_dockerfile(f"FROM x\n{line}\n").instructions_of_kind("RUN")[0]

    def test_shell_form(self):
        assert run_statements(self.run_of("RUN a b && c")) == parse_shell("a b && c")

    def test_exec_form_is_one_statement(self):
        assert run_statements(self.run_of('RUN ["apk", "add", "curl"]')) == \
            [ShellStatement("apk", ("add", "curl"))]

    def test_empty_exec_form(self):
        assert run_statements(self.run_of("RUN []")) == []

    def test_shell_error_propagates(self):
        with pytest.raises(ShellSyntaxError):
            run_statements(self.run_of("RUN echo 'open"))


class TestBuildAst:
    def test_from_only_tree_size_three(self):
        doc = parse_dockerfile("FROM tomcat:7.0.75-jre8\n")
        tree = build_ast(doc)
        assert ast_size(tree) == 3
        assert tree.label == "dockerfile"
        assert tree.children[0].label == "FROM"
        assert tree.children[0].children[0].label == "tomcat:7.0.75-jre8"

    def test_tomcat_ffmpeg_instruction_children(self, tomcat_ffmpeg_text):
        tree = build_ast(parse_dockerfile(tomcat_ffmpeg_text))
        kinds = [c.label for c in tree.children]
        assert len(kinds) == 7
        assert kinds.count("FROM") == 1
        assert kinds.count("RUN") == 3
        assert kinds.count("WORKDIR") == 3

    def test_run_children_are_statements(self):
        tree = build_ast(parse_dockerfile("RUN apt-get update && apt-get install -y git\n"))
        run_node = tree.children[0]
        assert [c.label for c in run_node.children] == ["apt-get", "apt-get"]
        assert [leaf.label for leaf in run_node.children[1].children] == \
            ["install", "-y", "git"]

    def test_exec_form_one_leaf_per_element(self):
        tree = build_ast(parse_dockerfile('CMD ["nginx", "-g", "daemon off;"]\n'))
        cmd_node = tree.children[0]
        assert [c.label for c in cmd_node.children] == ["nginx", "-g", "daemon off;"]
        assert all(not c.children for c in cmd_node.children)

    def test_exec_form_run_is_one_leaf_per_element(self, tomcat_ffmpeg_text):
        text = tomcat_ffmpeg_text + 'RUN ["apk", "add", "curl"]\nRUN []\n'
        tree = build_ast(parse_dockerfile(text))
        # exec-form RUNs stay one leaf per element, not a statement node
        assert [c.label for c in tree.children[-2].children] == ["apk", "add", "curl"]
        assert tree.children[-1].children == []

    def test_comments_not_represented(self):
        with_comment = build_ast(parse_dockerfile("# hello\nFROM alpine\n"))
        without = build_ast(parse_dockerfile("FROM alpine\n"))
        assert ast_to_json(with_comment) == ast_to_json(without)

    def test_deterministic(self, tomcat_ffmpeg_text):
        first = build_ast(parse_dockerfile(tomcat_ffmpeg_text))
        second = build_ast(parse_dockerfile(tomcat_ffmpeg_text))
        assert ast_to_json(first) == ast_to_json(second)

    def test_dump_formats(self):
        tree = build_ast(parse_dockerfile("FROM alpine\n"))
        assert ast_to_text(tree) == "dockerfile\n  FROM\n    alpine"
        assert ast_to_json(tree) == {
            "label": "dockerfile",
            "children": [{"label": "FROM",
                          "children": [{"label": "alpine", "children": []}]}],
        }
        # siblings keep their order at every level
        tree = build_ast(parse_dockerfile("FROM alpine\nRUN apk add curl && make\n"))
        assert ast_to_text(tree) == ("dockerfile\n  FROM\n    alpine\n  RUN\n    apk\n"
                                     "      add\n      curl\n    make")
        assert ast_to_text(tree.children[1], 1) == "  RUN\n    apk\n      add\n      curl\n    make"
        assert ast_to_json(tree.children[1]) == {"label": "RUN", "children": [
            {"label": "apk", "children": [{"label": "add", "children": []},
                                          {"label": "curl", "children": []}]},
            {"label": "make", "children": []}]}


class TestAstSize:
    def test_single_node(self):
        from dockerspec.dockerfile_syntax import Node

        assert ast_size(Node("x")) == 1

    def test_size_sum_symmetric(self, tomcat_ffmpeg_text):
        a = build_ast(parse_dockerfile(tomcat_ffmpeg_text))
        b = build_ast(parse_dockerfile("FROM alpine\n"))
        assert ast_size(a) + ast_size(b) == ast_size(b) + ast_size(a)

    def test_size_stable_under_reparse(self, tomcat_ffmpeg_text):
        doc = parse_dockerfile(tomcat_ffmpeg_text)
        again = parse_dockerfile(serialize_document(doc))
        assert ast_size(build_ast(doc)) == ast_size(build_ast(again))


def test_roundtrip_instruction_sequence(tomcat_ffmpeg_text):
    doc = parse_dockerfile(tomcat_ffmpeg_text)
    reparsed = parse_dockerfile(serialize_document(doc))
    assert [(i.kind, i.raw_arguments) for i in doc.instructions] == \
        [(i.kind, i.raw_arguments) for i in reparsed.instructions]
    assert [c.text for c in doc.comments] == [c.text for c in reparsed.comments]


_instruction_line = st.sampled_from([
    "FROM alpine:3.14",
    "RUN apt-get update && apt-get install -y git",
    "RUN echo 'quoted && literal'",
    "WORKDIR /srv/app",
    "ENV A=1 B=2",
    "EXPOSE 8080",
    'CMD ["./run"]',
    "LABEL maintainer=x",
])


@given(st.lists(_instruction_line, min_size=1, max_size=6))
def test_roundtrip_on_generated_documents(lines):
    text = "\n".join(lines) + "\n"
    doc = parse_dockerfile(text)
    reparsed = parse_dockerfile(serialize_document(doc))
    assert [(i.kind, i.raw_arguments) for i in doc.instructions] == \
        [(i.kind, i.raw_arguments) for i in reparsed.instructions]


# Dockerfile-shaped lines for the fuzz tests: keywords, continuations, quotes,
# comments, directives and heredoc openers, mixed with arbitrary text
_FUZZ_PIECES = st.sampled_from([
    "alpine:3.14", "echo", "a=b", "\\", "\\\\", " \\", "'", '"', "<<", "<<<", "EOF", "`",
    "&&", ";", "[", "]", " ", "\t", "\n", "\r\n", "\x85", "\u2028", "$(", ")", "#",
])
_fuzz_line = st.tuples(
    st.sampled_from(["FROM", "RUN", "run", "COPY", "ADD", "ENV", "LABEL", "#", "# escape=",
                     "# syntax=", ""]),
    st.lists(st.one_of(_FUZZ_PIECES, st.text(max_size=6)), max_size=6),
).map(lambda parts: parts[0] + " " + "".join(parts[1]))
_dockerfile_like = st.lists(_fuzz_line, max_size=10).map("\n".join)


@pytest.mark.parametrize("text", ["FROM alpine:3.14\\ \\", "RUN a \\\\ \\\n# c\n\n"])
def test_roundtrip_of_backslash_left_by_dangling_continuation(text):
    doc = parse_dockerfile(text)
    assert doc.instructions[0].raw_arguments.endswith("\\")
    reparsed = parse_dockerfile(serialize_document(doc))
    assert [(i.kind, i.raw_arguments) for i in reparsed.instructions] == \
        [(i.kind, i.raw_arguments) for i in doc.instructions]
    assert [c.text for c in reparsed.comments] == [c.text for c in doc.comments]


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), _dockerfile_like))
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            parse_dockerfile(text)
        except ParseError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), _dockerfile_like))
    def test_serialized_document_reparses_to_same_instructions(self, text):
        try:
            doc = parse_dockerfile(text)
        except ParseError:
            return
        reparsed = parse_dockerfile(serialize_document(doc))
        assert [(i.kind, i.raw_arguments) for i in reparsed.instructions] == \
            [(i.kind, i.raw_arguments) for i in doc.instructions]
