import pytest
from hypothesis import given, strategies as st

from dockerspec.dockerfile_syntax import (
    ShellStatement,
    ast_size,
    ast_to_json,
    ast_to_text,
    build_ast,
    join_statements,
    parse_dockerfile,
    parse_shell,
    run_statements,
    serialize_document,
)
from dockerspec.errors import EmptyInput, MalformedInstruction, ShellSyntaxError


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
