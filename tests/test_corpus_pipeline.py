import gc
import json
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES
from dockerspec import cli, corpus_pipeline, dockerfile_syntax, spec_inference
from dockerspec.corpus_pipeline import (
    CorpusEntry,
    SpecCluster,
    build_corpus,
    cluster_by_spec,
    dedup,
    filter_eligible,
    ingest_directory,
    instruction_jaccard,
    normalize_for_training,
    read_corpus_records,
    select_representative,
    split_dataset,
    token_length,
    write_jsonl,
)
from dockerspec.dockerfile_syntax import (
    DockerfileDocument,
    Instruction,
    ShellStatement,
    parse_dockerfile,
    parse_exec_form,
    parse_shell,
)
from dockerspec.errors import (
    KindMismatch,
    ParseError,
    SchemaError,
    ShellSyntaxError,
    TooFewEntries,
    read_input,
    read_lines,
)
from dockerspec.spec_inference import infer_spec
from dockerspec.spec_model import DockerSpec, serialize_spec, spec_to_dict
from oracles import reference_instruction_jaccard, select_representative_reference


def entry_from_text(text, word_lists, source="mem"):
    doc = parse_dockerfile(text)
    return entry_of(doc, infer_spec(doc, word_lists), source)


def entry_of(doc, spec, source):
    return CorpusEntry(spec, doc.content_hash, doc.instructions, source,
                       normalize_for_training(doc))


class TestFilterEligible:
    def test_tomcat_ffmpeg_eligible(self, tomcat_ffmpeg_text, word_lists):
        doc = parse_dockerfile(tomcat_ffmpeg_text)
        assert filter_eligible(doc, word_lists) is None

    def test_multi_stage_rejected(self, word_lists):
        doc = parse_dockerfile("# c\nFROM a\nFROM b\n")
        assert filter_eligible(doc, word_lists) == "multi-stage"

    def test_no_comments_rejected(self, word_lists):
        doc = parse_dockerfile("FROM a\nRUN echo hi\n")
        assert filter_eligible(doc, word_lists) == "no-comments"

    def test_shell_error_rejected(self, word_lists):
        doc = parse_dockerfile("# c\nFROM a\nRUN echo hi &&\n")
        assert filter_eligible(doc, word_lists) == "shell-syntax-error"

    def test_empty_instruction_rejected(self, word_lists):
        doc = parse_dockerfile("# c\nFROM a\nLABEL\n")
        assert filter_eligible(doc, word_lists) == "empty-instruction"

    def test_first_failing_rule_wins(self, word_lists):
        doc = parse_dockerfile("FROM a\nFROM b\nLABEL\n")
        assert filter_eligible(doc, word_lists) == "no-comments"

    def test_strict_vocabulary_rejects_unknown_from_word(self, tomcat_ffmpeg_text, word_lists):
        doc = parse_dockerfile(tomcat_ffmpeg_text)
        assert filter_eligible(doc, word_lists, known_words=frozenset()) == \
            "unevaluated-from-word"

    def test_strict_vocabulary_accepts_known_words(self, tomcat_ffmpeg_text, word_lists):
        doc = parse_dockerfile(tomcat_ffmpeg_text)
        known = frozenset({"tomcat", "jre8"})
        assert filter_eligible(doc, word_lists, known_words=known) is None

    def test_numeric_and_short_from_words_always_pass(self, word_lists):
        doc = parse_dockerfile("# c\nFROM debian:10-go\n")
        assert filter_eligible(doc, word_lists, known_words=frozenset()) is None


class TestIngestReasons:
    """The reason a rejected file is counted under, through ingest_directory."""

    def reasons(self, tmp_path, text, word_lists):
        (tmp_path / "a.Dockerfile").write_text(text, encoding="utf-8")
        return ingest_directory(tmp_path, word_lists)[1]

    def test_shell_error_beats_empty_instruction(self, tmp_path, word_lists):
        reasons = self.reasons(tmp_path, "# c\nFROM a\nRUN echo hi &&\nLABEL\n", word_lists)
        assert reasons == Counter({"shell-syntax-error": 1})

    def test_shell_error_beats_missing_from(self, tmp_path, word_lists):
        reasons = self.reasons(tmp_path, "# c\nRUN echo 'open\n", word_lists)
        assert reasons == Counter({"shell-syntax-error": 1})

    def test_missing_from_is_inference_incomplete(self, tmp_path, word_lists):
        reasons = self.reasons(tmp_path, "# c\nRUN echo hi\n", word_lists)
        assert reasons == Counter({"inference-incomplete": 1})


class TestDedup:
    def test_identical_texts_one_survivor(self, word_lists):
        text = "# c\nFROM tomcat:8\n"
        entries = [entry_from_text(text, word_lists, "a"),
                   entry_from_text(text, word_lists, "b")]
        survivors = dedup(entries)
        assert len(survivors) == 1
        assert survivors[0].source == "a"

    def test_empty(self):
        assert dedup([]) == []

    def test_whitespace_difference_kept(self, word_lists):
        entries = [entry_from_text("# c\nFROM tomcat:8\n", word_lists),
                   entry_from_text("# c\nFROM  tomcat:8\n", word_lists)]
        assert len(dedup(entries)) == 2


class TestInstructionJaccard:
    def instruction(self, kind, args):
        doc = parse_dockerfile(f"{kind} {args}\n")
        return doc.instructions[0]

    def test_identical(self):
        a = self.instruction("RUN", "apt-get install git")
        assert instruction_jaccard(a, a) == 1.0

    def test_disjoint(self):
        a = self.instruction("RUN", "x y")
        b = self.instruction("RUN", "p q")
        assert instruction_jaccard(a, b) == 0.0

    def test_partial_overlap(self):
        a = self.instruction("RUN", "x y")
        b = self.instruction("RUN", "y z")
        assert instruction_jaccard(a, b) == pytest.approx(1 / 3)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            instruction_jaccard(self.instruction("RUN", "x"),
                                self.instruction("COPY", "x"))

    def test_both_empty_token_sets(self):
        from dockerspec.dockerfile_syntax import Instruction

        a = Instruction("LABEL", "", (1, 1))
        b = Instruction("LABEL", "", (2, 2))
        assert instruction_jaccard(a, b) == 1.0

    @given(st.sampled_from(["RUN", "LABEL"]), st.lists(st.sampled_from("abcdef"), max_size=5),
           st.sampled_from(["RUN", "LABEL"]), st.lists(st.sampled_from("abcdef"), max_size=5))
    def test_matches_reference(self, kind_a, words_a, kind_b, words_b):
        a = Instruction(kind_a, " ".join(words_a), (1, 1))
        b = Instruction(kind_b, " ".join(words_b), (2, 2))
        if kind_a != kind_b:
            with pytest.raises(KindMismatch):
                instruction_jaccard(a, b)
        else:
            assert instruction_jaccard(a, b) == reference_instruction_jaccard(a, b)

    @given(st.lists(st.sampled_from("abcdef"), max_size=5),
           st.lists(st.sampled_from("abcdef"), max_size=5))
    def test_symmetric_and_bounded(self, words_a, words_b):
        a = self.instruction("RUN", " ".join(words_a) if words_a else "placeholder")
        b = self.instruction("RUN", " ".join(words_b) if words_b else "placeholder")
        forward = instruction_jaccard(a, b)
        assert 0.0 <= forward <= 1.0
        assert forward == instruction_jaccard(b, a)
        assert (forward == 1.0) == (set(a.argument_tokens()) == set(b.argument_tokens()))


class TestSelectRepresentative:
    def cluster_of(self, word_lists, *texts):
        entries = [entry_from_text(t, word_lists, f"f{i}") for i, t in enumerate(texts)]
        clusters = cluster_by_spec(entries)
        assert len(clusters) == 1, "cluster fixture must share one spec"
        return clusters[0]

    def test_singleton(self, word_lists):
        cluster = self.cluster_of(word_lists, "# c\nFROM tomcat:8\n")
        assert select_representative(cluster) is cluster.members[0]

    def test_variant_with_extra_unique_run_loses(self, word_lists):
        base = ("# Install nginx\n"
                "FROM ubuntu:20.04\n"
                "RUN apt-get update && apt-get install -y nginx\n")
        variant = base + "RUN echo something unique entirely\n"
        cluster = self.cluster_of(word_lists, variant, base, base + "RUN echo other stuff\n")
        representative = select_representative(cluster)
        assert representative.source == "f1"

    def test_tie_breaks_by_hash(self, word_lists):
        text_a = "# c\nFROM tomcat:8\nRUN echo x\n"
        text_b = "# c\nFROM tomcat:8\nRUN echo x \n"
        cluster = self.cluster_of(word_lists, text_a, text_b)
        expected = min(cluster.members, key=lambda e: e.content_hash)
        assert select_representative(cluster) is expected

    def test_permutation_invariant(self, word_lists):
        texts = [
            "# Install git\nFROM ubuntu:20.04\nRUN apt-get install -y git\n",
            "# Install git\nFROM ubuntu:20.04\nRUN apt-get install -y git\nRUN echo a\n",
            "# Install git\nFROM ubuntu:20.04\nRUN apt-get install -y git\nRUN echo a b\n",
            "# Install git\nFROM ubuntu:20.04\nRUN apt-get install -y git\nWORKDIR /x\n",
        ]
        cluster = self.cluster_of(word_lists, *texts)
        chosen = select_representative(cluster).content_hash
        rng = random.Random(0)
        for _ in range(20):
            members = list(cluster.members)
            rng.shuffle(members)
            shuffled = SpecCluster(cluster.spec, members)
            assert select_representative(shuffled).content_hash == chosen


# instruction lines for random clusters: shared, overlapping and empty token
# sets over several kinds, so that scores tie and kinds go unmatched
_CLUSTER_LINES = ["RUN apt-get install -y git", "RUN apt-get install -y git curl",
                  "RUN echo a", "RUN echo a b", "COPY . /app", "COPY src /app",
                  "WORKDIR /app", "LABEL", "ENV", "EXPOSE 80", "EXPOSE 80 443"]


def _cluster_from_bodies(bodies):
    members = []
    for i, lines in enumerate(bodies):
        doc = parse_dockerfile("\n".join(["# c", "FROM alpine:3.18"] + lines) + "\n")
        members.append(entry_of(doc, DockerSpec(), f"m{i}"))
    return SpecCluster(DockerSpec(), members)


@st.composite
def _large_clusters(draw):
    """Up to 20 member bodies, among them one that repeats an instruction
    and one that lacks that instruction's kind."""
    body = st.lists(st.sampled_from(_CLUSTER_LINES), max_size=6)
    bodies = draw(st.lists(body, min_size=1, max_size=18))
    line = draw(st.sampled_from(_CLUSTER_LINES))
    kind = line.split()[0]
    bodies.append([line] + draw(body) + [line])
    bodies.append([other for other in draw(body) if other.split()[0] != kind])
    return draw(st.permutations(bodies))


def _distinct_pairs(cluster):
    """For each distinct (kind, token set) item of the cluster and each member
    that does not hold it, the member's distinct token sets of that kind."""
    items = [{(inst.kind, frozenset(inst.argument_tokens()))
              for inst in member.instructions} for member in cluster.members]
    return sum(sum(other_kind == kind for other_kind, _ in member_items)
               for kind, tokens in set().union(*items) for member_items in items
               if (kind, tokens) not in member_items)


class TestSelectRepresentativeMatchesReference:
    """The representative is the one today's per-triple reference picks,
    as the same object."""

    def test_fixture_clusters(self, corpus_dir, word_lists):
        entries, _ = ingest_directory(corpus_dir, word_lists)
        clusters = cluster_by_spec(dedup(entries))
        assert any(len(c.members) > 2 for c in clusters)
        for cluster in clusters:
            assert select_representative(cluster) is select_representative_reference(cluster)

    @given(st.lists(st.lists(st.sampled_from(_CLUSTER_LINES), max_size=5),
                    min_size=2, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_random_clusters(self, bodies):
        cluster = _cluster_from_bodies(bodies)
        assert select_representative(cluster) is select_representative_reference(cluster)

    def test_identical_members_first_wins(self):
        cluster = _cluster_from_bodies([["RUN echo a"], ["RUN echo a b"], ["RUN echo a"]])
        assert select_representative(cluster) is cluster.members[0]
        assert select_representative_reference(cluster) is cluster.members[0]

    def test_tie_breaks_by_fewer_instructions_before_hash(self):
        short = "# a\nFROM alpine:3.18\nRUN echo a\n"
        long = short + "RUN echo a\n"
        members = [entry_of(parse_dockerfile(t), DockerSpec(), t) for t in (long, short)]
        assert members[0].content_hash < members[1].content_hash
        cluster = SpecCluster(DockerSpec(), members)
        assert select_representative(cluster) is members[1]
        assert select_representative_reference(cluster) is members[1]

    def test_best_matches_summed_in_sorted_order(self):
        # members 1 and 3 have the same exact score (53/120); summed sorted,
        # the floats tie and the hash picks 3; summed in member order,
        # member 1 would win by the last bit
        bodies = ["b k d c h e f", "e i f k c g a b", "l f b h c", "i b d k c g a", "g d i j b"]
        members = [entry_of(parse_dockerfile(f"RUN {body}\n"), DockerSpec(), body)
                   for body in bodies]
        cluster = SpecCluster(DockerSpec(), members)
        assert select_representative(cluster) is members[3]
        assert select_representative_reference(cluster) is members[3]

    def test_each_instruction_tokenized_once(self, monkeypatch):
        cluster = _cluster_from_bodies([_CLUSTER_LINES[:4], _CLUSTER_LINES[2:7],
                                        _CLUSTER_LINES[5:]])
        calls = []
        tokens = Instruction.argument_tokens
        monkeypatch.setattr(Instruction, "argument_tokens",
                            lambda inst: calls.append(inst) or tokens(inst))
        select_representative(cluster)
        assert len(calls) == sum(len(m.instructions) for m in cluster.members)

    def count_similarities(self, monkeypatch, cluster):
        calls = []
        jaccard = corpus_pipeline._jaccard
        monkeypatch.setattr(corpus_pipeline, "_jaccard",
                            lambda a, b: calls.append((a, b)) or jaccard(a, b))
        select_representative(cluster)
        return len(calls)

    def test_identical_members_compute_no_similarity(self, monkeypatch):
        cluster = _cluster_from_bodies([_CLUSTER_LINES[:6]] * 4)
        assert self.count_similarities(monkeypatch, cluster) == 0

    def test_similarity_computed_once_per_distinct_pair(self, monkeypatch):
        # repeated members and instructions, and a member without RUN
        bodies = [_CLUSTER_LINES[:4], _CLUSTER_LINES[2:7], _CLUSTER_LINES[:4],
                  _CLUSTER_LINES[4:] + _CLUSTER_LINES[4:6], _CLUSTER_LINES[1:5] * 2]
        cluster = _cluster_from_bodies(bodies)
        assert 0 < self.count_similarities(monkeypatch, cluster) <= _distinct_pairs(cluster)

    @given(_large_clusters())
    @settings(max_examples=100, deadline=None)
    def test_large_random_clusters(self, bodies):
        cluster = _cluster_from_bodies(bodies)
        assert select_representative(cluster) is select_representative_reference(cluster)

    def test_benchmark_clusters(self, benchmark_corpus_dir, word_lists):
        entries, _ = ingest_directory(benchmark_corpus_dir, word_lists)
        clusters = cluster_by_spec(dedup(entries))
        assert len(clusters) > 500 and max(len(c.members) for c in clusters) > 40
        for cluster in clusters:
            assert select_representative(cluster) is select_representative_reference(cluster)


class TestNormalize:
    def test_install_arguments_sorted(self, word_lists):
        doc = parse_dockerfile("FROM x\nRUN apt-get install -y zsh git\n")
        normalized = normalize_for_training(doc)
        assert "RUN apt-get install -y git zsh <nl>" in normalized

    def test_comments_removed(self):
        doc = parse_dockerfile("# heading\nFROM x\n# middle\nRUN echo hi\n")
        normalized = normalize_for_training(doc)
        assert "#" not in normalized

    def test_plain_document_only_gains_markers(self):
        doc = parse_dockerfile("FROM x\nWORKDIR /app\n")
        assert normalize_for_training(doc) == "FROM x <nl>\nWORKDIR /app <nl>\n"

    def test_idempotent(self, tomcat_ffmpeg_text):
        first = normalize_for_training(parse_dockerfile(tomcat_ffmpeg_text))
        second = normalize_for_training(parse_dockerfile(first))
        assert first == second

    def test_flags_stay_before_packages(self):
        doc = parse_dockerfile("FROM x\nRUN apk add --no-cache zlib curl\n")
        assert "apk add --no-cache curl zlib" in normalize_for_training(doc)

    def test_exec_form_run_keeps_raw_tokens(self):
        doc = parse_dockerfile('FROM x\nRUN ["apk",  "add", "zlib", "curl"]\n')
        assert normalize_for_training(doc) == \
            'FROM x <nl>\nRUN ["apk", "add", "zlib", "curl"] <nl>\n'

    def test_each_shell_form_statement_classified_once(self, monkeypatch, tomcat_ffmpeg_text):
        text = (tomcat_ffmpeg_text + 'RUN ["apt-get", "install", "vim"]\n'
                "RUN echo <nl> && apt-get install -y zsh git > /dev/null\n")
        doc = parse_dockerfile(text)
        calls = []
        original = corpus_pipeline.classify_statement

        def counting(stmt):
            calls.append(stmt)
            return original(stmt)

        monkeypatch.setattr(corpus_pipeline, "classify_statement", counting)
        normalized = normalize_for_training(doc)
        assert calls == [stmt for inst in doc.instructions_of_kind("RUN")
                         if parse_exec_form(inst.raw_arguments) is None
                         for stmt in parse_shell(inst.raw_arguments)]
        assert len(calls) > 10
        assert "apt-get install -y git zsh > /dev/null <nl>" in normalized

    @pytest.mark.parametrize("statement, normalized", [
        ("apt-get install -y zsh git > /dev/null", "apt-get install -y git zsh > /dev/null"),
        ("apt-get install -y zsh git >>file", "apt-get install -y git zsh >>file"),
        ("apt-get install -y zsh git 2>&1", "apt-get install -y git zsh 2>&1"),
        ("apt-get install -y zsh git < in", "apt-get install -y git zsh < in"),
        ("apt-get install -y > log zsh 2>&1 git", "apt-get install -y git zsh > log 2>&1"),
    ])
    def test_redirections_follow_the_sorted_packages(self, statement, normalized):
        doc = parse_dockerfile(f"FROM x\nRUN {statement}\n")
        assert normalize_for_training(doc) == f"FROM x <nl>\nRUN {normalized} <nl>\n"

    def test_literal_marker_word_dropped(self):
        doc = parse_dockerfile("FROM x\nRUN echo <nl> a && ls <nl>\nLABEL a=1 <nl> b=2\n")
        assert normalize_for_training(doc) == \
            "FROM x <nl>\nRUN echo a && ls <nl>\nLABEL a=1 b=2 <nl>\n"


class TestTokenLength:
    def test_empty(self):
        assert token_length("") == 0

    def test_two(self):
        assert token_length("a b") == 2

    def test_tomcat_ffmpeg_frozen_count(self, tomcat_ffmpeg_text):
        normalized = normalize_for_training(parse_dockerfile(tomcat_ffmpeg_text))
        assert token_length(normalized) == 95


def make_entries(n, word_lists):
    return [entry_from_text(f"# Install dep{i}\nFROM tomcat:{i}\n", word_lists, f"f{i}")
            for i in range(n)]


class TestSplitDataset:
    def test_ten_entries(self, word_lists):
        split = split_dataset(make_entries(10, word_lists), seed=1)
        assert (len(split.train), len(split.evaluation), len(split.test)) == (8, 1, 1)

    def test_hundred_entries(self, word_lists):
        split = split_dataset(make_entries(100, word_lists), seed=1)
        assert (len(split.train), len(split.evaluation), len(split.test)) == (80, 10, 10)

    def test_deterministic(self, word_lists):
        entries = make_entries(25, word_lists)
        first = split_dataset(entries, seed=42)
        second = split_dataset(entries, seed=42)
        assert [e.content_hash for e in first.train] == \
            [e.content_hash for e in second.train]
        assert [e.content_hash for e in first.test] == \
            [e.content_hash for e in second.test]

    def test_too_few(self, word_lists):
        with pytest.raises(TooFewEntries):
            split_dataset(make_entries(9, word_lists), seed=1)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(10, 60), seed=st.integers(0, 999))
    def test_partition_and_ratio(self, word_lists, n, seed):
        entries = make_entries(n, word_lists)
        split = split_dataset(entries, seed)
        all_hashes = sorted(e.content_hash for e in entries)
        split_hashes = sorted(e.content_hash for e in
                              split.train + split.evaluation + split.test)
        assert split_hashes == all_hashes
        assert abs(len(split.train) - 0.8 * n) <= 1
        assert abs(len(split.evaluation) - 0.1 * n) <= 1
        assert abs(len(split.test) - 0.1 * n) <= 1


class TestSharedSplit:
    """Inference and normalization at ingest read the split that the
    filter's shell rule made and the document kept. Each eligible entry's
    spec and training text equal those built from its file parsed anew."""

    def check(self, directory, word_lists):
        entries, reasons = ingest_directory(directory, word_lists)
        for entry in entries:
            doc = parse_dockerfile(read_input(entry.source, ParseError))
            assert entry.spec == infer_spec(doc, word_lists)
            assert entry.training_text == normalize_for_training(doc)
        return reasons

    def test_benchmark_corpus(self, benchmark_corpus_dir, word_lists):
        assert self.check(benchmark_corpus_dir, word_lists)["eligible"] > 1000

    def test_fixtures(self, word_lists):
        # the two other Dockerfiles have no comments; corpus.jsonl does not parse
        assert self.check(FIXTURES, word_lists) == \
            Counter({"eligible": 1, "no-comments": 2, "parse-error": 1})


_SPECS = st.builds(DockerSpec, st.sampled_from(["any", "alpine", "ubuntu"]),
                   st.sampled_from(["any", "apk", "apt"]),
                   st.frozensets(st.sampled_from(["curl", "git", "make"])), st.booleans())
_JSON_SPACE = st.text(alphabet=" \t\r", max_size=3)


def _separator(token):
    return st.builds(lambda before, after: before + token + after, _JSON_SPACE, _JSON_SPACE)


class TestPipeline:
    def test_corpus_build_splits_each_run_body_once(self, corpus_dir, word_lists, tmp_path,
                                                    monkeypatch, capsys):
        """corpus build tokenizes each shell-form RUN body of a file that
        reaches the filter's shell rule once (up to the first body with a
        syntax error), and normalizes each eligible file once."""
        expected = 0
        for path in sorted(corpus_dir.iterdir()):
            doc = parse_dockerfile(path.read_text(encoding="utf-8"))
            if not doc.comments or doc.from_count > 1:
                continue  # rejected before the shell rule (no FROM here is malformed)
            for inst in doc.instructions_of_kind("RUN"):
                if parse_exec_form(inst.raw_arguments) is None:
                    expected += 1
                    try:
                        parse_shell(inst.raw_arguments)
                    except ShellSyntaxError:
                        break
        calls = Counter()

        def counted(name, original):
            return lambda *args, **kwargs: calls.update([name]) or original(*args, **kwargs)

        for module in (cli, corpus_pipeline, dockerfile_syntax, spec_inference):
            if hasattr(module, "parse_shell"):
                monkeypatch.setattr(module, "parse_shell",
                                    counted("parse_shell", dockerfile_syntax.parse_shell))
        monkeypatch.setattr(corpus_pipeline, "normalize_for_training",
                            counted("normalize_for_training", normalize_for_training))
        assert cli.main(["corpus", "build", str(corpus_dir),
                         "--out", str(tmp_path / "corpus.jsonl")]) == 0
        reasons = json.loads(capsys.readouterr().out)["reasons"]
        assert expected > 60 and reasons["shell-syntax-error"] == 1
        assert calls == {"parse_shell": expected, "normalize_for_training": reasons["eligible"]}

    def test_entries_hold_no_document_or_statement(self, corpus_dir, word_lists):
        """Nothing that ingest returns keeps a parsed document or its split
        alive (classes, and what they reach, are not walked)."""
        result = ingest_directory(corpus_dir, word_lists)
        assert result[0]
        seen, stack, walked = set(), [result], 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (DockerfileDocument, ShellStatement)), type(obj)
            walked += 1
            stack.extend(gc.get_referents(obj))
        assert walked > 1000

    def test_ingest_reasons(self, corpus_dir, word_lists):
        entries, reasons = ingest_directory(corpus_dir, word_lists)
        assert reasons["no-comments"] == 1
        assert reasons["multi-stage"] == 1
        assert reasons["shell-syntax-error"] == 1
        assert reasons["empty-instruction"] == 1
        assert reasons["eligible"] == len(entries)

    def test_non_utf8_file_is_unreadable(self, corpus_dir, word_lists):
        _, before = ingest_directory(corpus_dir, word_lists)
        (corpus_dir / "latin1.Dockerfile").write_bytes(b"# Install caf\xe9\nFROM alpine\n")
        _, after = ingest_directory(corpus_dir, word_lists)
        assert after - before == Counter({"unreadable": 1})

    def test_clusters_are_those_of_equal_serialized_specs(self, corpus_dir, word_lists):
        entries, _ = ingest_directory(corpus_dir, word_lists)
        by_text = {}
        for entry in dedup(entries):
            by_text.setdefault(serialize_spec(entry.spec), []).append(entry)
        clusters = cluster_by_spec(dedup(entries))
        assert [c.members for c in clusters] == list(by_text.values())
        assert all(c.spec == c.members[0].spec for c in clusters)

    def test_directive_and_heredoc_files_are_parse_errors(self, corpus_dir, word_lists):
        (corpus_dir / "windows.Dockerfile").write_text(
            "# escape=`\nFROM mcr.microsoft.com/windows/servercore\n# Install git\n"
            "RUN choco install git `\n    -y\n")
        (corpus_dir / "heredoc.Dockerfile").write_text(
            "FROM ubuntu:22.04\n# Install git\nRUN <<EOF\napt-get install -y git\nEOF\n")
        _, reasons = ingest_directory(corpus_dir, word_lists)
        assert reasons["parse-error"] == 2

    def test_build_corpus_partitions(self, corpus_dir, word_lists):
        entries, _ = ingest_directory(corpus_dir, word_lists)
        result = build_corpus(entries, seed=3)
        assert result.reasons["duplicate"] == 2
        assert result.reasons["empty-dependencies"] == 1
        assert result.reasons["discarded-cluster-member"] > 0
        finetune_hashes = {e.content_hash for e in result.finetune}
        pretrain_hashes = {e.content_hash for e in result.pretrain}
        assert not finetune_hashes & pretrain_hashes
        assert all(e.spec.dependencies for e in result.finetune)
        assert result.split is not None
        split_total = (len(result.split.train) + len(result.split.evaluation)
                       + len(result.split.test))
        assert split_total == len(result.finetune)

    def test_reasons_hold_only_outcomes_that_happened(self, corpus_dir, word_lists):
        entries, _ = ingest_directory(corpus_dir, word_lists)
        reasons = build_corpus(dedup(entries), seed=3).reasons
        assert "duplicate" not in reasons and "over-token-limit" not in reasons
        assert all(reasons.values())

    def test_token_cap_keeps_entries_at_the_cap(self, corpus_dir, word_lists):
        entries, _ = ingest_directory(corpus_dir, word_lists)
        lengths = [token_length(e.training_text) for e in build_corpus(entries).finetune]
        cap = sorted(lengths)[len(lengths) // 2]
        result = build_corpus(entries, max_tokens=cap)
        assert [token_length(e.training_text) for e in result.finetune] == \
            [n for n in lengths if n <= cap]
        assert 0 < result.reasons["over-token-limit"] == sum(n > cap for n in lengths)

    def test_jsonl_roundtrip(self, corpus_dir, word_lists, tmp_path):
        entries, _ = ingest_directory(corpus_dir, word_lists)
        result = build_corpus(entries)
        out = tmp_path / "corpus.jsonl"
        write_jsonl(out, result.finetune)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["sha1"] for r in records] == [e.content_hash for e in result.finetune]
        assert all(set(r) == {"spec", "dockerfile", "sha1", "source"} for r in records)
        assert list(read_corpus_records(out)) == \
            [(e.spec, e.training_text) for e in result.finetune]

    @pytest.mark.parametrize("dockerfile", [3, None, ["FROM alpine"]])
    def test_read_rejects_non_string_dockerfile(self, tmp_path, dockerfile):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"spec": {}, "dockerfile": dockerfile}) + "\n")
        with pytest.raises(SchemaError, match=":1: record must carry"):
            list(read_corpus_records(path))

    def test_read_names_line_of_undecodable_bytes(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        good = json.dumps({"spec": spec_to_dict(DockerSpec()), "dockerfile": "FROM alpine"})
        path.write_bytes(f"{good}\n{good}\n".encode() + b'{"dockerfile": "caf\xe9"}\n')
        with pytest.raises(SchemaError, match=r"corpus\.jsonl:3: not UTF-8 text"):
            list(read_corpus_records(path))

    def test_read_keeps_line_numbers(self, tmp_path):
        # a blank line yields nothing, and still counts
        path = tmp_path / "corpus.jsonl"
        good = json.dumps({"spec": spec_to_dict(DockerSpec()), "dockerfile": "FROM alpine"})
        path.write_text(f"{good}\n\n{good}\n \t\n{{}}\n")
        read = read_corpus_records(path)
        assert [next(read), next(read)] == [(DockerSpec(), "FROM alpine")] * 2
        with pytest.raises(SchemaError, match=r"corpus\.jsonl:5: record must carry"):
            next(read)

    def test_read_from_an_open_file_keeps_its_line_numbers(self, tmp_path):
        # an index file hands over its lines after the header
        path = tmp_path / "index.bin"
        good = json.dumps({"spec": spec_to_dict(DockerSpec()), "dockerfile": "FROM alpine"})
        path.write_text(f"header\n{good}\n{{\n")
        lines = read_lines(path, SchemaError)
        assert next(lines) == (1, "header\n")
        read = read_corpus_records(path, lines)
        assert next(read) == (DockerSpec(), "FROM alpine")
        with pytest.raises(SchemaError, match=r"index\.bin:3: not a JSONL record"):
            next(read)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_SPECS, st.text(max_size=20), st.lists(_JSON_SPACE, max_size=2),
                              _JSON_SPACE, _separator(","), _separator(":")),
                    min_size=1, max_size=20),
           st.sampled_from(["\n", "\r\n"]))
    def test_read_gives_back_every_record(self, tmp_path_factory, records, newline):
        # a raw \r, space or tab between tokens is JSON whitespace, not a line end
        lines = []
        for spec, dockerfile, blanks, pad, comma, colon in records:
            record = {"spec": spec_to_dict(spec), "dockerfile": dockerfile}
            lines += [*blanks, pad + json.dumps(record, separators=(comma, colon)) + pad]
        path = tmp_path_factory.mktemp("lines") / "corpus.jsonl"
        path.write_bytes("".join(line + newline for line in lines).encode())
        assert list(read_corpus_records(path)) == [(spec, text) for spec, text, *_ in records]

    @pytest.mark.parametrize("good_lines", [0, 1000])
    def test_read_names_a_bad_spec_before_later_undecodable_bytes(self, tmp_path, good_lines):
        good = json.dumps({"spec": spec_to_dict(DockerSpec()), "dockerfile": "x"}) + "\n"
        bad_spec = json.dumps({"spec": {"os": "alpine"}, "dockerfile": "x"}) + "\n"
        path = tmp_path / "corpus.jsonl"
        path.write_bytes((good + bad_spec).encode() + b"\xff\n" + good.encode() * good_lines)
        with pytest.raises(SchemaError, match=r"corpus\.jsonl:2: missing field\(s\): pkg_manager"):
            list(read_corpus_records(path))

    def test_read_holds_one_record_at_a_time(self, benchmark_index_corpus):
        # a list of every record peaks at about 3.2 times the file
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in read_corpus_records(benchmark_index_corpus):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 0.5 * benchmark_index_corpus.stat().st_size

    def test_cluster_members_share_spec(self, corpus_dir, word_lists):
        entries, _ = ingest_directory(corpus_dir, word_lists)
        for cluster in cluster_by_spec(dedup(entries)):
            assert all(m.spec == cluster.spec for m in cluster.members)
            hashes = [m.content_hash for m in cluster.members]
            assert len(set(hashes)) == len(hashes)
