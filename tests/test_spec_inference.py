from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from oracles import (
    _url_arguments,
    comment_dependencies_reference,
    infer_downloads_external,
    infer_spec_reference,
    install_command,
)

from dockerspec import dockerfile_syntax, spec_inference
from dockerspec.dockerfile_syntax import (
    CommentLine,
    ShellStatement,
    parse_dockerfile,
    parse_shell,
    run_statements,
)
from dockerspec.errors import (
    EmptyInput,
    InferenceIncomplete,
    MalformedFrom,
    ParseError,
    ShellSyntaxError,
    read_input,
)
from dockerspec.spec_inference import (
    classify_statement,
    extract_comment_candidates,
    extract_installable_args,
    infer_comment_dependencies,
    infer_flags,
    infer_from_dependencies,
    infer_os,
    infer_pkg_manager,
    infer_spec,
    split_image_reference,
    split_redirections,
)
from dockerspec.spec_model import DockerSpec, validate_spec


def runs_of(doc):
    return [(inst, run_statements(inst)) for inst in doc.instructions_of_kind("RUN")]


def statements_of(doc):
    return [stmt for _, body in runs_of(doc) for stmt in body]


def classified_of(doc):
    return [(inst, [classify_statement(s) for s in body]) for inst, body in runs_of(doc)]


def records_of(doc):
    return [classify_statement(stmt) for stmt in statements_of(doc)]


def installable(script):
    return extract_installable_args(map(classify_statement, parse_shell(script)))


def downloads_external(statements):
    return any(classify_statement(stmt).external for stmt in statements)


def comment_dependencies(doc, word_lists):
    return infer_comment_dependencies(doc, word_lists, classified_of(doc))


class TestSplitImageReference:
    def test_tomcat_alpine(self):
        ref = split_image_reference("tomcat:9.0.20-jre8-alpine")
        assert ref.name_words == ("tomcat",)
        assert ref.tag_words == ("9.0.20", "jre8", "alpine")

    def test_debian_slim(self):
        ref = split_image_reference("debian:10-slim")
        assert ref.name_words == ("debian",)
        assert ref.tag_words == ("10", "slim")

    def test_untagged(self):
        ref = split_image_reference("scratch")
        assert ref.name_words == ("scratch",)
        assert ref.tag is None
        assert ref.tag_words == ()

    def test_registry_port_is_not_a_tag(self):
        ref = split_image_reference("registry.example.com:5000/team/python-app")
        assert ref.tag is None
        assert ref.name_words == ("python", "app")

    def test_registry_path_with_tag(self):
        ref = split_image_reference("docker.io/library/debian:10-slim")
        assert ref.name_words == ("debian",)
        assert ref.tag_words == ("10", "slim")

    def test_digest_and_alias_ignored(self):
        ref = split_image_reference("alpine:3.14@sha256:abcd AS builder")
        assert ref.name_words == ("alpine",)
        assert ref.tag_words == ("3.14",)

    def test_platform_flag_ignored(self):
        ref = split_image_reference("--platform=linux/amd64 alpine:3.14")
        assert ref.name_words == ("alpine",)

    def test_empty_name(self):
        with pytest.raises(MalformedFrom):
            split_image_reference(":tag")


class TestInferOs:
    def test_match_in_tag(self, word_lists):
        ref = split_image_reference("tomcat:9.0.20-jre8-alpine")
        assert infer_os(ref, word_lists) == "alpine"

    def test_name_match_appends_numeric_tag_words(self, word_lists):
        ref = split_image_reference("debian:10-slim")
        assert infer_os(ref, word_lists) == "debian10"

    def test_no_match(self, word_lists):
        ref = split_image_reference("tomcat:7.0.75-jre8")
        assert infer_os(ref, word_lists) == "any"

    def test_dotted_version_dots_removed(self, word_lists):
        ref = split_image_reference("ubuntu:20.04")
        assert infer_os(ref, word_lists) == "ubuntu2004"

    def test_tag_match_wins_over_name_match(self, word_lists):
        ref = split_image_reference("debian:bullseye-slim")
        assert infer_os(ref, word_lists) == "bullseye"


class TestInferFromDependencies:
    def test_tomcat(self, word_lists):
        ref = split_image_reference("tomcat:9.0.20-jre8-alpine")
        assert infer_from_dependencies(ref, word_lists) == {"tomcat"}

    def test_os_word_name_yields_nothing(self, word_lists):
        ref = split_image_reference("alpine:3.14")
        assert infer_from_dependencies(ref, word_lists) == set()

    def test_stop_words_removed(self, word_lists):
        ref = split_image_reference("python-slim-buster")
        assert infer_from_dependencies(ref, word_lists) == {"python"}


class TestExtractCommentCandidates:
    def test_install_x265(self, word_lists):
        comment = CommentLine("Install x265", 1)
        assert extract_comment_candidates(comment, word_lists.stop_words) == ["x265"]

    def test_trailing_punctuation_stripped(self, word_lists):
        comment = CommentLine("Install ffmpeg.", 1)
        assert extract_comment_candidates(comment, word_lists.stop_words) == ["ffmpeg"]

    def test_stop_word_ignored(self, word_lists):
        comment = CommentLine("install only ruby", 1)
        assert extract_comment_candidates(comment, word_lists.stop_words) == ["ruby"]

    def test_no_install_keyword(self, word_lists):
        comment = CommentLine("set up the build", 1)
        assert extract_comment_candidates(comment, word_lists.stop_words) == []

    def test_case_insensitive(self, word_lists):
        comment = CommentLine("INSTALL Nginx", 1)
        assert extract_comment_candidates(comment, word_lists.stop_words) == ["nginx"]


class TestExtractInstallableArgs:
    def test_apt_get_install(self):
        assert {"git", "wget"} <= installable("apt-get install -y git wget")

    def test_flags_and_subcommand_excluded(self):
        words = installable("apt-get install -y git")
        assert "-y" not in words and "install" not in words

    def test_hg_clone_url_contributes_segment(self):
        assert "x265" in installable("hg clone https://bitbucket.org/multicoreware/x265")

    def test_non_install_command(self):
        assert installable("echo hello") == set()

    def test_hyphenated_package_contributes_words(self):
        words = installable("apt-get install build-essential")
        assert {"build-essential", "build", "essential"} <= words

    def test_pip_and_npm(self):
        words = installable("pip install requests && npm i lodash")
        assert {"requests", "lodash"} <= words

    def test_variable_references_excluded(self):
        words = installable("apt-get install $EXTRA git")
        assert "$extra" not in words and "git" in words

    def test_redirection_target_not_collected(self):
        words = installable("apt-get install git > /tmp/log")
        assert words == {"git"}

    def test_apk_add(self):
        assert "curl" in installable("apk add --no-cache curl")


class TestSplitRedirections:
    @pytest.mark.parametrize("script, words, redirections", [
        ("cmd a > out b", ["a", "b"], [">", "out"]),
        ("cmd a >>file b", ["a", "b"], [">>file"]),
        ("cmd a 2>&1 b", ["a", "b"], ["2>&1"]),
        ("cmd < in a 2> err", ["a"], ["<", "in", "2>", "err"]),
        ("cmd a >", ["a"], [">"]),
        ("cmd a b", ["a", "b"], []),
    ])
    def test_words_and_redirections_in_order(self, script, words, redirections):
        assert split_redirections(parse_shell(script)[0].arguments) == (words, redirections)


class TestClassifyInstall:
    @pytest.mark.parametrize("script, expected", [
        ("apt-get install -y zsh git", ("apt", ["zsh", "git"])),
        ("apt install curl", ("apt", ["curl"])),
        ("yum install -y $EXTRA gcc", ("yum", ["gcc"])),
        ("apk add --no-cache curl", ("apk", ["curl"])),
        ("pip3 install requests", ("pip", ["requests"])),
        ("npm i lodash", ("npm", ["lodash"])),
        ("apt-get install -y", ("apt", [])),
        ("apt-get install git > /tmp/log", ("apt", ["git"])),
        ("apt-get install git 2>&1", ("apt", ["git"])),
    ])
    def test_recognized(self, script, expected):
        record = classify_statement(parse_shell(script)[0])
        assert (record.tool, list(record.packages)) == expected

    @pytest.mark.parametrize("script", [
        "apt-get update", "apk update", "npm run install", "echo install", "pip --version",
    ])
    def test_not_an_install(self, script):
        record = classify_statement(parse_shell(script)[0])
        assert (record.tool, record.packages) == (None, ())

    def test_redirection_target_spelled_install(self):
        stmt = parse_shell("apt-get update > install")[0]
        assert stmt == ShellStatement("apt-get", ("update", ">", "install"))
        record = classify_statement(stmt)
        assert record.tool is None
        assert infer_pkg_manager([record], "any") == "any"
        assert extract_installable_args([record]) == set()

    def test_redirection_target_spelled_like_a_package_source(self):
        record = classify_statement(parse_shell("pip install requests > git+log")[0])
        assert (record.tool, list(record.packages)) == ("pip", ["requests"])
        assert record.external is False


class TestClassifyUrls:
    @pytest.mark.parametrize("script, expected", [
        ("wget -q https://example.com/a.tgz -O /tmp/a.tgz", ("https://example.com/a.tgz",)),
        ("curl -fsSL https://example.com/x > https://example.com/y", ("https://example.com/x",)),
        ("git clone git@github.com:a/b.git && true", ("git@github.com:a/b.git",)),
        ("hg clone https://bitbucket.org/a/x265", ("https://bitbucket.org/a/x265",)),
        ("git pull https://github.com/a/b", ()),
        ("echo https://example.com/a.tgz", ()),
        ("pip install git+https://github.com/a/b", ()),
    ])
    def test_urls(self, script, expected):
        record = classify_statement(parse_shell(script)[0])
        assert record.urls == expected
        assert record.external is (bool(expected) or record.tool == "pip")

MIXED_RUNS = ("FROM ubuntu:20.04\n"
              "# Install curl git\n"
              "RUN apt-get update && apt-get install -y curl git\n"
              "RUN [\"pip\", \"install\", \"requests\"]\n"
              "# Install lodash\n"
              "RUN npm install lodash\n"
              "\n"
              "RUN wget https://example.com/tool.tar.gz\n")
TOMCAT_FFMPEG = (Path(__file__).parent / "fixtures" / "tomcat-ffmpeg.Dockerfile").read_text()


class TestParseOnce:
    @pytest.mark.parametrize("text, shell_form_runs", [
        (MIXED_RUNS, 3), (TOMCAT_FFMPEG, 3), ("FROM alpine\nENV A=1\n", 0)],
        ids=["mixed", "tomcat-ffmpeg", "no-run"])
    @pytest.mark.parametrize("target_dependencies", [None, frozenset({"curl"})],
                             ids=["comments", "targets"])
    def test_one_parse_shell_call_per_shell_form_run(self, monkeypatch, word_lists, text,
                                                      shell_form_runs, target_dependencies):
        doc = parse_dockerfile(text)
        calls = []
        original = dockerfile_syntax.parse_shell

        def counting(script):
            calls.append(script)
            return original(script)

        monkeypatch.setattr(dockerfile_syntax, "parse_shell", counting)
        infer_spec(doc, word_lists, target_dependencies)
        shell_form = [i.raw_arguments for i in doc.instructions_of_kind("RUN")
                      if not i.raw_arguments.startswith("[")]
        assert len(calls) == shell_form_runs
        assert sorted(calls) == sorted(shell_form)


class TestCommentDependencies:
    def test_tomcat_ffmpeg_scopes(self, tomcat_ffmpeg_text, word_lists):
        doc = parse_dockerfile(tomcat_ffmpeg_text)
        assert comment_dependencies(doc, word_lists) == {"x265", "ffmpeg"}

    def test_unmatched_candidate(self, word_lists):
        doc = parse_dockerfile("FROM x\n# Install foo\nRUN apt-get install -y bar\n")
        assert comment_dependencies(doc, word_lists) == set()

    def test_empty_scope(self, word_lists):
        doc = parse_dockerfile(
            "FROM x\n# Install foo\n\nRUN apt-get install -y foo\n")
        assert comment_dependencies(doc, word_lists) == set()

    def test_scope_ends_at_next_comment(self, word_lists):
        doc = parse_dockerfile(
            "FROM x\n"
            "# Install foo\n"
            "# another note\n"
            "RUN apt-get install -y foo\n")
        assert comment_dependencies(doc, word_lists) == set()

    def test_scope_locality(self, word_lists):
        prefix = ("FROM x\n"
                  "# Install foo\n"
                  "RUN apt-get install -y foo\n")
        with_suffix = prefix + "\n# Install bar\nRUN apt-get install -y bar\n"
        full = comment_dependencies(parse_dockerfile(with_suffix), word_lists)
        truncated = comment_dependencies(parse_dockerfile(prefix), word_lists)
        assert truncated == {"foo"}
        assert full == {"foo", "bar"}


# Dockerfile lines for the scope property: install comments and other
# comments, blank lines, shell-form and exec-form RUNs (one with a comment
# and one with a blank line inside a continuation), and other instructions
_PACKAGES = st.lists(st.sampled_from(["curl", "git", "vim", "x265", "the", "and"]),
                     min_size=1, max_size=3).map(" ".join)
_SCOPE_LINE = st.one_of(
    _PACKAGES.map("# Install {}".format),
    _PACKAGES.map("# install: {}.".format),
    _PACKAGES.map("# set up {}".format),
    st.just(""),
    _PACKAGES.map("RUN apt-get update && apt-get install -y {}".format),
    _PACKAGES.map("RUN apk add --no-cache {} > /dev/null".format),
    st.sampled_from(['RUN ["pip", "install", "vim"]', "RUN []", "RUN echo hi",
                     "RUN wget https://example.com/x265.tar.gz"]),
    _PACKAGES.map("RUN apt-get install -y \\\n# Install {}\n    curl git".format),
    _PACKAGES.map("RUN apt-get install -y \\\n\n    {}".format),
    st.sampled_from(["ENV A=1", "LABEL k=v", "COPY . /app", "FROM alpine:3.14"]),
)


class TestCommentDependenciesReference:
    """The scope walk against the per-comment scan in tests/oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SCOPE_LINE, max_size=12))
    def test_generated_documents(self, word_lists, lines):
        doc = parse_dockerfile("\n".join(["FROM ubuntu:20.04"] + lines) + "\n")
        assert comment_dependencies(doc, word_lists) == \
            comment_dependencies_reference(doc, word_lists, runs_of(doc))

    def test_benchmark_corpus(self, benchmark_corpus_dir, word_lists):
        compared = accepted = 0
        for path in sorted(p for p in benchmark_corpus_dir.rglob("*") if p.is_file()):
            try:
                doc = parse_dockerfile(read_input(path, ParseError))
                runs = runs_of(doc)
            except ParseError:
                continue
            expected = comment_dependencies_reference(doc, word_lists, runs)
            assert comment_dependencies(doc, word_lists) == expected, path.name
            compared += 1
            accepted += bool(expected)
        assert compared > 1000 and accepted > 1000


class TestClassifyOnce:
    @pytest.mark.parametrize("text", [MIXED_RUNS, TOMCAT_FFMPEG, "FROM alpine\nENV A=1\n"],
                             ids=["mixed", "tomcat-ffmpeg", "no-run"])
    @pytest.mark.parametrize("target_dependencies", [None, frozenset({"curl"})],
                             ids=["comments", "targets"])
    def test_each_statement_classified_once(self, monkeypatch, word_lists, text,
                                            target_dependencies):
        doc = parse_dockerfile(text)
        calls = []
        original = spec_inference.classify_statement

        def counting(stmt):
            calls.append(stmt)
            return original(stmt)

        monkeypatch.setattr(spec_inference, "classify_statement", counting)
        infer_spec(doc, word_lists, target_dependencies)
        assert calls == statements_of(doc)


# statements for the reference properties: each rule's commands with the
# words that rule looks for first (and some it does not), then arguments that
# exercise the rules: flags, variables, URLs, VCS and clone addresses, local
# package files, dpkg/rpm install and query options, and redirections, bare
# and attached
_COMMAND_AND_FIRST_WORDS = [
    (["apt-get", "apt", "yum", "pip", "pip3"], ["install", "update", "-y"]),
    (["apk"], ["add", "update"]),
    (["npm"], ["install", "i", "run"]),
    (["wget", "curl"], ["-q", "-fsSL", ">"]),
    (["git", "hg"], ["clone", "pull"]),
    (["dpkg", "rpm"], ["-i", "-qi", "-U", "--install", "-l", ">", "2>"]),
    (["echo", "make"], ["install", "clone"]),
]
_ARGUMENT = st.sampled_from([
    "install", "add", "i", "-y", "--no-cache", "$EXTRA", "curl", "git", "x265",
    "build-essential", "https://example.com/ffmpeg-4.tar.gz", "git+https://github.com/a/vim",
    "git@github.com:a/curl.git", "./custom.apk", "./package.deb", "-i", "-Ei", "-ivh", "-U",
    "-qi", "-qa", "-l", "--install", "--upgrade", "--query", ">", "2>", ">>", ">log",
    "2>&1", "-i.log", "-U.log", "install.log"])
_STATEMENT = st.one_of([
    st.tuples(st.sampled_from(commands), st.sampled_from(first_words),
              st.lists(_ARGUMENT, min_size=1, max_size=4))
    for commands, first_words in _COMMAND_AND_FIRST_WORDS]).map(
    lambda parts: " ".join([parts[0], parts[1], *parts[2]]))
_RUN_LINE = st.one_of(
    st.lists(_STATEMENT, min_size=1, max_size=2).map(" && ".join).map("RUN {}".format),
    _STATEMENT.map(lambda statement: "RUN " + str(statement.split()).replace("'", '"')))
_DOCUMENT_LINE = st.one_of(_SCOPE_LINE, _RUN_LINE, _RUN_LINE)
_FROM_LINE = st.sampled_from(["FROM ubuntu:20.04", "FROM alpine:3.14", "FROM centos:7",
                              "FROM tomcat:9.0.20-jre8-alpine", "FROM python-slim-buster"])


def outcome(infer, *args):
    try:
        return infer(*args)
    except (InferenceIncomplete, ShellSyntaxError) as exc:
        return type(exc)


class TestInferSpecReference:
    """``infer_spec`` against ``infer_spec_reference`` of tests/oracles.py,
    which keeps the three statement recognizers that the classifier
    replaced, in both dependency modes."""

    @settings(max_examples=1000, deadline=None)
    @given(_STATEMENT)
    @example("apk add ./custom.apk > log")
    @example("git clone git@github.com:a/curl.git")
    @example("npm i https://example.com/x.tgz")
    @example("pip3 install $EXTRA git+https://github.com/a/vim")
    @example("dpkg -l > -i.log")
    @example("rpm -qa 2> -U")
    def test_generated_statements(self, script):
        (stmt,) = parse_shell(script)
        record = classify_statement(stmt)
        install = install_command(stmt)
        assert (record.tool, list(record.packages)) == (install or (None, []))
        assert list(record.urls) == _url_arguments(stmt)
        assert record.external == infer_downloads_external([stmt])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FROM_LINE, max_size=1), st.lists(_DOCUMENT_LINE, max_size=8),
           st.frozensets(st.sampled_from(["curl", "git", "vim", "x265", "ffmpeg", "tomcat",
                                          "essential", "custom", "python"])))
    def test_generated_documents(self, word_lists, from_lines, lines, targets):
        try:
            doc = parse_dockerfile("\n".join(from_lines + lines) + "\n")
        except EmptyInput:
            assume(False)
        for target_dependencies in (None, targets):
            assert outcome(infer_spec, doc, word_lists, target_dependencies) == \
                outcome(infer_spec_reference, doc, word_lists, target_dependencies)

    def test_benchmark_corpus(self, benchmark_corpus_dir, word_lists):
        compared = 0
        for path in sorted(p for p in benchmark_corpus_dir.rglob("*") if p.is_file()):
            try:
                doc = parse_dockerfile(read_input(path, ParseError))
            except ParseError:
                continue
            expected = outcome(infer_spec_reference, doc, word_lists)
            assert outcome(infer_spec, doc, word_lists) == expected, path.name
            if isinstance(expected, DockerSpec):
                targets = expected.dependencies | {"curl", "git"}
                assert infer_spec(doc, word_lists, targets) == \
                    infer_spec_reference(doc, word_lists, targets), path.name
                compared += 1
        assert compared > 1000


class TestInferFlags:
    def test_tomcat_ffmpeg_all_false(self, tomcat_ffmpeg_text):
        flags = infer_flags(parse_dockerfile(tomcat_ffmpeg_text))
        assert flags == {f: False for f in flags}

    def test_env_sets_flag(self):
        flags = infer_flags(parse_dockerfile("FROM x\nENV A=1\n"))
        assert flags["uses_env"] is True

    def test_onbuild_cmd_does_not_count(self):
        flags = infer_flags(parse_dockerfile("FROM x\nONBUILD CMD run\n"))
        assert flags["uses_cmd"] is False

    @given(st.sampled_from(["ENV A=1", "ARG V", "LABEL k=v", "EXPOSE 80",
                            "CMD run", "ENTRYPOINT go"]))
    def test_flag_monotone_under_instruction_addition(self, line):
        base = "FROM x\nRUN echo hi\n"
        before = infer_flags(parse_dockerfile(base))
        after = infer_flags(parse_dockerfile(base + line + "\n"))
        for name, value in before.items():
            if value:
                assert after[name]


class TestInferPkgManager:
    def test_tomcat_ffmpeg_apt(self, tomcat_ffmpeg_text, word_lists):
        doc = parse_dockerfile(tomcat_ffmpeg_text)
        assert infer_pkg_manager(records_of(doc), "any") == "apt"

    def test_incoherent_yum_on_ubuntu(self):
        doc = parse_dockerfile("FROM ubuntu\nRUN yum install -y git\n")
        assert infer_pkg_manager(records_of(doc), "ubuntu") == "any"

    def test_no_package_statements(self):
        doc = parse_dockerfile("FROM x\nRUN echo hi\n")
        assert infer_pkg_manager(records_of(doc), "any") == "any"

    def test_conflicting_managers(self):
        doc = parse_dockerfile("FROM x\nRUN apt-get install -y a && apk add b\n")
        assert infer_pkg_manager(records_of(doc), "any") == "any"

    def test_update_alone_does_not_count(self):
        doc = parse_dockerfile("FROM x\nRUN apt-get update\n")
        assert infer_pkg_manager(records_of(doc), "any") == "any"


class TestClassifyExternal:
    def test_tomcat_ffmpeg_true(self, tomcat_ffmpeg_text):
        doc = parse_dockerfile(tomcat_ffmpeg_text)
        assert downloads_external(statements_of(doc)) is True

    def test_manager_only_install_false(self):
        doc = parse_dockerfile("FROM x\nRUN apt-get install -y git\n")
        assert downloads_external(statements_of(doc)) is False

    def test_pip_vcs_reference(self):
        doc = parse_dockerfile("FROM x\nRUN pip install git+https://github.com/a/b\n")
        assert downloads_external(statements_of(doc)) is True

    def test_wget_url(self):
        doc = parse_dockerfile("FROM x\nRUN wget https://example.com/tool.tar.gz\n")
        assert downloads_external(statements_of(doc)) is True

    def test_dpkg_local_file(self):
        doc = parse_dockerfile("FROM x\nRUN dpkg -i ./package.deb\n")
        assert downloads_external(statements_of(doc)) is True

    @pytest.mark.parametrize("script, expected", [
        ("dpkg --install ./package.deb", True), ("dpkg -Ei ./package.deb", True),
        ("rpm -ivh ./package.rpm", True),
        ("rpm -U ./package.rpm", True), ("rpm --upgrade ./package.rpm", True),
        ("dpkg -I ./package.deb", False), ("dpkg -l", False),
        ("dpkg --info ./package.deb", False), ("rpm -qa", False),
        ("rpm --query curl", False), ("rpm --import ./key.asc", False),
        # in rpm's query mode -i is --info
        ("rpm -qi curl", False), ("rpm -qip ./package.rpm", False),
        # a redirection target is no option
        ("dpkg -l > -i.log", False), ("rpm -qa 2> -U", False),
    ])
    def test_low_level_package_tool(self, script, expected):
        assert downloads_external(parse_shell(script)) is expected

    def test_apk_local_file(self):
        doc = parse_dockerfile("FROM x\nRUN apk add ./custom.apk\n")
        assert downloads_external(statements_of(doc)) is True

    def test_git_clone_without_url_false(self):
        doc = parse_dockerfile("FROM x\nRUN git clone local-mirror\n")
        assert downloads_external(statements_of(doc)) is False


class TestInferSpec:
    def test_tomcat_ffmpeg_full(self, tomcat_ffmpeg_text, word_lists):
        spec = infer_spec(parse_dockerfile(tomcat_ffmpeg_text), word_lists)
        assert spec == DockerSpec(
            os="any",
            pkg_manager="apt",
            dependencies=frozenset({"tomcat", "x265", "ffmpeg"}),
            downloads_external=True,
        )

    def test_from_only_with_comment(self, word_lists):
        doc = parse_dockerfile("# Install nothing useful\nFROM tomcat:8\n")
        spec = infer_spec(doc, word_lists)
        assert spec.dependencies == frozenset({"tomcat"})
        assert spec.pkg_manager == "any"

    def test_tomcat_alpine_from_only(self, word_lists):
        spec = infer_spec(parse_dockerfile("FROM tomcat:9.0.20-jre8-alpine\n"), word_lists)
        assert spec.os == "alpine"
        assert spec.dependencies == frozenset({"tomcat"})

    def test_target_dependencies_mode(self, word_lists):
        doc = parse_dockerfile("FROM tomcat:9\n# Install ffmpeg\n"
                               "RUN apt-get install -y ffmpeg x265\n")
        assert infer_spec(doc, word_lists).dependencies == frozenset({"tomcat", "ffmpeg"})
        # comments are ignored; install arguments and FROM words count
        spec = infer_spec(doc, word_lists, frozenset({"tomcat", "x265", "nginx"}))
        assert spec.dependencies == frozenset({"tomcat", "x265"})
        assert spec.pkg_manager == "apt"

    def test_no_from_raises(self, word_lists):
        with pytest.raises(InferenceIncomplete):
            infer_spec(parse_dockerfile("RUN echo hi\n"), word_lists)

    def test_deterministic(self, tomcat_ffmpeg_text, word_lists):
        doc = parse_dockerfile(tomcat_ffmpeg_text)
        assert infer_spec(doc, word_lists) == infer_spec(doc, word_lists)

    def test_inferred_specs_validate(self, tomcat_ffmpeg_text, word_lists, corpus_dir):
        docs = [parse_dockerfile(tomcat_ffmpeg_text)]
        for path in sorted(corpus_dir.glob("fam*.Dockerfile")):
            docs.append(parse_dockerfile(path.read_text()))
        for doc in docs:
            spec = infer_spec(doc, word_lists)
            assert validate_spec(spec, word_lists) == []
