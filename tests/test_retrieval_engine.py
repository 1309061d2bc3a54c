import json
import math
import random
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import index_lines, write_index
from dockerspec import retrieval_engine
from dockerspec.cli import main
from dockerspec.corpus_pipeline import read_corpus_records
from dockerspec.errors import ConfigError, EmptyCorpus, SchemaError
from dockerspec.retrieval_engine import (
    INDEX_MAGIC,
    INDEX_VERSION,
    MAX_K1,
    build_index,
    load_index,
    query_terms_for,
    render_spec_fields,
    rendered_spec_text,
    retrieve,
    save_index,
    vector_retrieve,
)
from dockerspec.spec_model import (
    DockerSpec,
    FLAG_FIELDS,
    PKG_MANAGERS,
    SPEC_FIELDS,
    spec_to_dict,
)
from oracles import (
    bm25_scores_reference,
    naive_bm25_rankings,
    naive_cosine_scores,
    random_valid_spec,
    rank_reference,
    rankings_agree,
    vector_retrieve_reference,
)

FIXTURES = Path(__file__).parent / "fixtures"

# few words and values, so that corpora share terms, repeat specs and tie;
# "git lfs" renders as two tokens, giving "git" a term frequency of 2
_SPECS = st.one_of(
    st.builds(DockerSpec,
              os=st.sampled_from(["any", "alpine", "debian10", "centos7"]),
              pkg_manager=st.sampled_from(["any", "apt", "apk", "yum"]),
              dependencies=st.frozensets(
                  st.sampled_from(["git", "vim", "curl", "nginx", "git lfs", "lfs"]),
                  max_size=4),
              **{name: st.booleans() for name in FLAG_FIELDS}),
    st.just(DockerSpec()),
    st.just(DockerSpec(os="", pkg_manager="")),  # renders as empty text
)

# what JSON escapes, or writes as a \u escape: quotes, backslashes, control
# characters, line breaks of every kind (those that split a line of text in
# str.splitlines too), non-ASCII text (a lone surrogate, a character beyond
# the BMP), and the corpus's <nl> newline marker
_BREAKS = ["\n", "\r", "\r\n", "\u2028", "\u2029", "\u0085"]
_AWKWARD_TEXT = st.lists(
    st.one_of(st.just("<nl>"), st.text(max_size=8),
              st.sampled_from(['"', "\\", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\ud800",
                               "\U0001f433", "FROM alpine", *_BREAKS])),
    max_size=12).map("".join)


# specs that spec_from_dict accepts back, with any text where it allows it
_LOADABLE_SPECS = st.builds(
    DockerSpec, os=st.text(min_size=1, max_size=6), pkg_manager=st.sampled_from(PKG_MANAGERS),
    dependencies=st.frozensets(_AWKWARD_TEXT, max_size=4),
    **{name: st.booleans() for name in FLAG_FIELDS})


def _hits(hits):
    return [(h.doc_id, h.score.hex(), h.dockerfile_text) for h in hits]


def _bm25_scores(query, index):
    """Every document's ``retrieve`` score, by doc id, as float.hex."""
    scores = [0.0] * index.size
    for hit in retrieve(query, index.size, index):
        scores[hit.doc_id] = hit.score
    return [score.hex() for score in scores]


def _reference_scores(query, index):
    return [score.hex() for score in bm25_scores_reference(query, index)]


class TestRenderSpecFields:
    def test_empty_spec(self):
        texts = render_spec_fields(DockerSpec())
        assert texts["os"] == "any"
        assert texts["pkg_manager"] == "any"
        assert all(texts[f] == "" for f in FLAG_FIELDS)
        assert texts["dependencies"] == ""

    def test_dependencies_sorted_and_joined(self):
        spec = DockerSpec(dependencies=frozenset({"x265", "ffmpeg", "tomcat"}))
        assert render_spec_fields(spec)["dependencies"] == "ffmpeg tomcat x265"

    def test_true_flag_renders_field_name(self):
        texts = render_spec_fields(DockerSpec(uses_env=True))
        assert texts["uses_env"] == "uses_env"


class TestBuildIndex:
    def test_single_doc_document_frequencies(self):
        index = build_index([(DockerSpec(dependencies=frozenset({"git"})), "d")])
        assert index.doc_frequency["dependencies"]["git"] == 1
        assert index.doc_frequency["os"]["any"] == 1

    def test_shared_term_df_two(self):
        entries = [(DockerSpec(dependencies=frozenset({"git"})), "a"),
                   (DockerSpec(dependencies=frozenset({"git", "vim"})), "b")]
        index = build_index(entries)
        assert index.doc_frequency["dependencies"]["git"] == 2
        assert index.doc_frequency["dependencies"]["vim"] == 1

    def test_document_of_average_length_has_unit_norm(self):
        # dependency lengths 2, 4 and 6: the mean is 4, so with b = 0.75 the
        # second document's length norm is 1.0 and its weight for "a" is idf;
        # three shapes are three groups, highest weight first, and 3 * 64
        # documents would be needed for a group to keep its ids
        entries = [
            (DockerSpec(dependencies=frozenset({"a", "b"})), "1"),
            (DockerSpec(dependencies=frozenset({"a", "b", "c", "d"})), "2"),
            (DockerSpec(dependencies=frozenset({"a", "b", "c", "d", "e", "f"})), "3"),
        ]
        groups = build_index(entries).impacts["dependencies"]["a"]
        idf = math.log(1.0 + (3 - 3 + 0.5) / (3 + 0.5))
        assert [docs for _, docs in groups] == [0b001, 0b010, 0b100]
        weights = [weight for weight, _ in groups]
        assert weights[1] == pytest.approx(idf, rel=1e-15)
        assert weights[0] > weights[1] > weights[2]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_index([])

    def test_length_counts_repeated_terms(self):
        # "a b" renders as two tokens, so the second document's dependencies
        # text is "a a b": length 3 with tf 2 for "a"; a true flag is one term
        entries = [(DockerSpec(dependencies=frozenset({"a", "b"})), "d"),
                   (DockerSpec(os="alpine", dependencies=frozenset({"a", "a b"}),
                               uses_env=True), "e")]
        impacts = build_index(entries, k1=1.0, b=1.0).impacts

        def weight(df, tf, length, avgdl):
            idf = math.log(1.0 + (2 - df + 0.5) / (df + 0.5))
            return idf * tf * 2.0 / (tf + 1.0 * (1.0 - 1.0 + 1.0 * length / avgdl))

        # one group per (tf, length) shape, highest weight first, as bitsets
        assert weight(2, 2, 3, 2.5) > weight(2, 1, 2, 2.5) > weight(2, 1, 3, 2.5)
        assert impacts["dependencies"] == {
            "a": ((weight(2, 2, 3, 2.5), 0b10), (weight(2, 1, 2, 2.5), 0b01)),
            "b": ((weight(2, 1, 2, 2.5), 0b01), (weight(2, 1, 3, 2.5), 0b10)),
        }
        assert impacts["uses_env"] == {"uses_env": ((weight(1, 1, 1, 0.5), 0b10),)}
        assert impacts["uses_arg"] == {}

    def test_groups_keep_ids_below_one_in_64_documents(self):
        # 130 documents: a group of df documents keeps its ascending ids when
        # df * 64 < 130, that is for one or two documents, else a bitset
        entries = [(DockerSpec(dependencies=frozenset({"common", f"own{i}"} |
                                                      ({"pair"} if i in (5, 99) else set()) |
                                                      ({"trio"} if i in (1, 2, 3) else set()))),
                    f"doc{i}") for i in range(130)]
        impacts = build_index(entries).impacts["dependencies"]
        assert [docs for _, docs in impacts["own7"]] == [(7,)]
        assert [docs for _, docs in impacts["pair"]] == [(5, 99)]
        assert [docs for _, docs in impacts["trio"]] == [0b1110]
        common = impacts["common"]  # lengths 2 and 3: two groups
        assert len(common) == 2 and all(isinstance(docs, int) for _, docs in common)
        assert sum(docs for _, docs in common) == (1 << 130) - 1


class TestBm25Score:
    """Per-document BM25 scores, read through ``retrieve``."""

    @staticmethod
    def scores(query, index):
        return {h.doc_id: h.score for h in retrieve(query, index.size, index)}

    def test_absent_term_contributes_zero(self):
        index = build_index([(DockerSpec(dependencies=frozenset({"git"})), "d"),
                             (DockerSpec(dependencies=frozenset({"vim"})), "e")])
        base = self.scores(DockerSpec(dependencies=frozenset({"git"})), index)
        with_absent = self.scores(DockerSpec(dependencies=frozenset({"git", "zzz"})), index)
        assert with_absent == base
        assert base[0] > 0.0

    def test_matches_naive_oracle_single_doc(self):
        spec = DockerSpec(os="alpine", pkg_manager="apk",
                          dependencies=frozenset({"git", "curl"}), uses_env=True)
        index = build_index([(spec, "d")])
        score = self.scores(spec, index)[0]
        oracle = naive_bm25_rankings(spec, [spec], render=render_spec_fields)
        assert score == pytest.approx(oracle[0], abs=1e-12)
        assert score > 0.0

    def test_term_frequency_above_one_matches_oracle(self):
        # "git lfs" renders as two tokens, so "git" occurs twice in the first
        # document's dependencies text
        specs = [DockerSpec(dependencies=frozenset({"git", "git lfs"})),
                 DockerSpec(dependencies=frozenset({"git", "vim"})),
                 DockerSpec(os="alpine", dependencies=frozenset({"lfs"}))]
        index = build_index([(s, f"d{i}") for i, s in enumerate(specs)])
        assert render_spec_fields(specs[0])["dependencies"].split().count("git") == 2
        for query in specs + [DockerSpec(dependencies=frozenset({"git"}))]:
            oracle = naive_bm25_rankings(query, specs, render=render_spec_fields)
            scores = self.scores(query, index)
            for doc_id, expected in enumerate(oracle):
                assert scores[doc_id] == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_term_frequency(self):
        # equal dependency lengths (3 tokens each), so only tf differs
        entries = [(DockerSpec(dependencies=frozenset({"git", "git lfs"})), "a"),
                   (DockerSpec(dependencies=frozenset({"git", "pad fill"})), "b")]
        index = build_index(entries)
        assert [len(render_spec_fields(s)["dependencies"].split()) for s, _ in entries] == \
            [3, 3]
        scores = self.scores(DockerSpec(dependencies=frozenset({"git"})), index)
        assert scores[0] > scores[1]


class TestRetrieve:
    def test_unique_fields_rank_first(self):
        entries = [
            (DockerSpec(os="alpine", dependencies=frozenset({"redis"})), "redis-file"),
            (DockerSpec(os="debian10", dependencies=frozenset({"nginx"})), "nginx-file"),
            (DockerSpec(os="centos7", dependencies=frozenset({"ffmpeg"})), "ffmpeg-file"),
        ]
        index = build_index(entries)
        hits = retrieve(entries[1][0], 1, index)
        assert hits[0].doc_id == 1
        assert hits[0].dockerfile_text == "nginx-file"

    def test_k_larger_than_corpus_returns_all(self):
        entries = [(DockerSpec(dependencies=frozenset({c})), c) for c in "abc"]
        index = build_index(entries)
        assert len(retrieve(DockerSpec(), 10, index)) == 3
        assert sorted(h.doc_id for h in vector_retrieve(DockerSpec(), 10, index.entries)) == \
            [0, 1, 2]

    def test_identical_documents_ascending_ids(self):
        spec = DockerSpec(dependencies=frozenset({"git"}))
        index = build_index([(spec, "one"), (spec, "two")])
        hits = retrieve(spec, 2, index)
        assert [h.doc_id for h in hits] == [0, 1]
        assert hits[0].score == hits[1].score

    def test_hits_sorted_nonincreasing(self):
        rng = random.Random(5)
        entries = [(random_valid_spec(rng), f"doc{i}") for i in range(30)]
        index = build_index(entries)
        hits = retrieve(random_valid_spec(rng), 30, index)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_full_scan_oracle_agreement(self, seed):
        rng = random.Random(seed)
        specs = [random_valid_spec(rng) for _ in range(25)]
        index = build_index([(s, f"doc{i}") for i, s in enumerate(specs)])
        query = random_valid_spec(rng)
        hits = retrieve(query, len(specs), index)
        oracle = naive_bm25_rankings(query, specs, render=render_spec_fields)
        assert rankings_agree([h.doc_id for h in hits], oracle)
        assert sorted(h.doc_id for h in hits) == list(range(len(specs)))

    def test_order_insensitive_up_to_id_assignment(self):
        rng = random.Random(9)
        specs = [random_valid_spec(rng) for _ in range(12)]
        entries = [(s, f"doc{i}") for i, s in enumerate(specs)]
        query = random_valid_spec(rng)
        forward = retrieve(query, 12, build_index(entries))
        permuted_entries = list(reversed(entries))
        backward = retrieve(query, 12, build_index(permuted_entries))
        assert {h.dockerfile_text: round(h.score, 12) for h in forward} == \
            {h.dockerfile_text: round(h.score, 12) for h in backward}


class TestVectorRetrieve:
    def test_identical_spec_scores_one(self):
        spec = DockerSpec(os="alpine", dependencies=frozenset({"git"}))
        entries = [(spec, "target"), (DockerSpec(os="debian10"), "other")]
        hits = vector_retrieve(spec, 1, entries)
        assert hits[0].dockerfile_text == "target"
        assert hits[0].score == pytest.approx(1.0)

    def test_orthogonal_term_sets_score_zero(self):
        query = DockerSpec(os="alpine", pkg_manager="apk",
                           dependencies=frozenset({"git"}))
        stored = DockerSpec(os="debian10", pkg_manager="apt",
                            dependencies=frozenset({"vim"}))
        hits = vector_retrieve(query, 1, [(stored, "d")])
        assert hits[0].score == 0.0

    def test_three_doc_oracle(self):
        specs = [
            DockerSpec(os="alpine", dependencies=frozenset({"nginx"})),
            DockerSpec(os="alpine", dependencies=frozenset({"nginx", "redis"})),
            DockerSpec(os="centos7", dependencies=frozenset({"ffmpeg"})),
        ]
        entries = [(s, f"d{i}") for i, s in enumerate(specs)]
        query = DockerSpec(os="alpine", dependencies=frozenset({"nginx", "redis"}))
        hits = vector_retrieve(query, 3, entries)
        oracle = naive_cosine_scores(rendered_spec_text(query),
                                     [rendered_spec_text(s) for s in specs])
        for hit in hits:
            assert hit.score == pytest.approx(oracle[hit.doc_id], abs=1e-12)
        assert rankings_agree([h.doc_id for h in hits], oracle)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            vector_retrieve(DockerSpec(), 1, [])


def _tfidf_parts_case(name):
    """Entries and queries whose (query term, weight group) parts are not one
    per term, or are more than 64."""
    git_twice = DockerSpec(dependencies=frozenset({"git", "git lfs"}))
    specs = [git_twice, DockerSpec(dependencies=frozenset({"git", "vim"})),
             DockerSpec(os="alpine", dependencies=frozenset({"lfs"})),
             DockerSpec(dependencies=frozenset({"git lfs", "curl"})), git_twice]
    if name == "term-twice-in-documents":
        return specs, specs + [DockerSpec(dependencies=frozenset({"git"}))]
    if name == "term-twice-in-query":
        return specs, [git_twice,
                       DockerSpec(os="git", dependencies=frozenset({"git", "git lfs"})),
                       DockerSpec(os="vim", pkg_manager="vim", dependencies=frozenset({"vim"}))]
    rng = random.Random(14)
    words = [f"pkg{i}" for i in range(70)]
    specs = [DockerSpec(dependencies=frozenset(words))]
    for _ in range(40):
        held = rng.sample(words, rng.randint(1, 70))
        # a two-word dependency repeats its words: a second weight group
        held.append(" ".join(rng.sample(words, 2)))
        specs.append(DockerSpec(dependencies=frozenset(held)))
    return specs, [specs[0], DockerSpec(os="pkg0", dependencies=frozenset(words + ["pkg1 x"]))]


class TestTfidfPatterns:
    """``vector_retrieve`` scores each distinct pattern of (query term,
    weight group) parts once; the edges where a document holds no part or a
    norm is zero score 0.0."""

    EMPTY = DockerSpec(os="", pkg_manager="")  # renders as empty text

    def test_query_without_terms_scores_zero_in_ascending_id(self):
        rng = random.Random(12)
        entries = [(random_valid_spec(rng), f"doc{i}") for i in range(7)]
        assert rendered_spec_text(self.EMPTY) == ""
        for ranked in (build_index(entries).entries, list(entries)):
            hits = vector_retrieve(self.EMPTY, len(entries), ranked)
            assert [(h.doc_id, h.score) for h in hits] == [(i, 0.0) for i in range(7)]

    def test_document_with_zero_norm_scores_zero(self):
        query = DockerSpec(os="alpine", dependencies=frozenset({"git"}))
        entries = [(self.EMPTY, "empty"), (query, "same"), (self.EMPTY, "empty too")]
        for ranked in (build_index(entries).entries, list(entries)):
            hits = vector_retrieve(query, 3, ranked)
            assert [(h.doc_id, h.score) for h in hits] == [(1, hits[0].score), (0, 0.0),
                                                           (2, 0.0)]
            assert hits[0].score == pytest.approx(1.0)

    def test_fixture_corpus_full_k_equals_reference(self, corpus_dir, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["corpus", "build", str(corpus_dir), "--out", str(corpus)]) == 0
        entries = list(read_corpus_records(corpus))
        rng = random.Random(13)
        queries = [spec for spec, _ in entries] + [random_valid_spec(rng) for _ in range(10)]
        indexed = build_index(entries).entries
        for query in queries + [self.EMPTY]:
            expected = _hits(vector_retrieve_reference(query, len(entries), entries))
            assert _hits(vector_retrieve(query, len(entries), indexed)) == expected
            assert _hits(vector_retrieve(query, len(entries), list(entries))) == expected

    @pytest.mark.parametrize("case", ["term-twice-in-documents", "term-twice-in-query",
                                      "over-64-parts"])
    def test_parts_equal_reference(self, case):
        specs, queries = _tfidf_parts_case(case)
        entries = [(s, f"doc{i}") for i, s in enumerate(specs)]
        indexed = build_index(entries).entries
        groups = indexed.tfidf.groups
        assert len(groups["git" if case != "over-64-parts" else "pkg0"]) == 2
        for query in queries:
            terms = Counter(rendered_spec_text(query).split())
            if case == "term-twice-in-query":
                assert max(terms.values()) > 1
            if case == "over-64-parts":
                assert sum(len(groups.get(term, ())) for term in terms) > 64
            expected = _hits(vector_retrieve_reference(query, len(entries), entries))
            assert _hits(vector_retrieve(query, len(entries), indexed)) == expected
            assert _hits(vector_retrieve(query, len(entries), list(entries))) == expected


class TestExactReferences:
    """Both rankers against the per-query TF-IDF ranker and a full sort."""

    @settings(max_examples=200, deadline=None)
    @given(specs=st.lists(_SPECS, min_size=1, max_size=12), query=_SPECS,
           data=st.data())
    def test_vector_retrieve_matches_reference(self, specs, query, data):
        entries = [(s, f"doc{i}") for i, s in enumerate(specs)]
        indexed = build_index(entries).entries
        k = data.draw(st.integers(0, len(entries) + 2), label="k")
        for top in (k, len(entries)):
            expected = _hits(vector_retrieve_reference(query, top, entries))
            assert _hits(vector_retrieve(query, top, indexed)) == expected
            assert _hits(vector_retrieve(query, top, list(entries))) == expected

    @settings(max_examples=200, deadline=None)
    @given(specs=st.lists(_SPECS, min_size=1, max_size=12), query=_SPECS,
           data=st.data())
    def test_retrieve_matches_full_sort(self, specs, query, data):
        index = build_index([(s, f"doc{i}") for i, s in enumerate(specs)])
        k = data.draw(st.integers(0, index.size + 2), label="k")
        scores = [0.0] * index.size
        for hit in retrieve(query, index.size, index):
            scores[hit.doc_id] = hit.score
        assert [h.doc_id for h in retrieve(query, k, index)] == rank_reference(scores, k)

    def test_random_corpus_of_400(self):
        # many distinct idf values: adding a dot product's terms in another
        # order changes the last bit of some scores here
        rng = random.Random(11)
        entries = [(random_valid_spec(rng), f"doc{i}") for i in range(400)]
        index = build_index(entries)
        queries = [random_valid_spec(rng) for _ in range(20)]
        for query in queries:
            assert _hits(vector_retrieve(query, 400, index.entries)) == \
                _hits(vector_retrieve_reference(query, 400, entries))
        # the second pass reads the impacts that the first query built
        for query in queries + queries[::-1]:
            assert _bm25_scores(query, index) == _reference_scores(query, index)

    @settings(max_examples=200, deadline=None)
    @given(specs=st.lists(_SPECS, min_size=1, max_size=12),
           queries=st.lists(_SPECS, min_size=1, max_size=5),
           k1=st.sampled_from([0.0, 1.2, 100.0]), b=st.sampled_from([0.0, 0.75, 1.0]),
           data=st.data())
    def test_retrieve_scores_equal_reference(self, specs, queries, k1, b, data):
        index = build_index([(s, f"doc{i}") for i, s in enumerate(specs)], k1=k1, b=b)
        again = data.draw(st.permutations(queries), label="asked again")
        for query in queries + again:
            assert _bm25_scores(query, index) == _reference_scores(query, index)

    @pytest.mark.parametrize("k1", [0.0, 1.2, 100.0])
    @pytest.mark.parametrize("b", [0.0, 0.75, 1.0])
    def test_term_frequency_above_one_equals_reference(self, k1, b):
        specs = [DockerSpec(dependencies=frozenset({"git", "git lfs"})),
                 DockerSpec(dependencies=frozenset({"git", "vim", "curl"})),
                 DockerSpec(os="alpine", dependencies=frozenset({"lfs"}))]
        index = build_index([(s, f"d{i}") for i, s in enumerate(specs)], k1=k1, b=b)
        assert render_spec_fields(specs[0])["dependencies"].split().count("git") == 2
        for query in specs + specs[::-1]:
            assert _bm25_scores(query, index) == _reference_scores(query, index)


class TestTfidfTablesBuiltOnce:
    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        build = retrieval_engine._tfidf_tables

        def counting(entries):
            calls.append(len(entries))
            return build(entries)

        monkeypatch.setattr(retrieval_engine, "_tfidf_tables", counting)
        return calls

    @staticmethod
    def saved(tmp_path):
        rng = random.Random(6)
        entries = [(random_valid_spec(rng), f"doc{i}") for i in range(10)]
        index = build_index(entries)
        save_index(index, tmp_path / "index.bin")
        return index, [random_valid_spec(rng) for _ in range(3)]

    def test_loaded_entries_build_on_first_query_only(self, tmp_path, builds):
        _, queries = self.saved(tmp_path)
        _, entries = load_index(tmp_path / "index.bin")
        assert builds == []
        for query in queries:
            vector_retrieve(query, 3, entries)
        assert builds == [10]

    def test_plain_list_builds_every_call(self, tmp_path, builds):
        index, queries = self.saved(tmp_path)
        entries = list(index.entries)
        for query in queries:
            vector_retrieve(query, 3, entries)
        assert builds == [10, 10, 10]

    def test_loaded_rankings_equal_in_memory(self, tmp_path):
        index, queries = self.saved(tmp_path)
        _, entries = load_index(tmp_path / "index.bin")
        for query in queries:
            assert _hits(vector_retrieve(query, 10, entries)) == \
                _hits(vector_retrieve(query, 10, index.entries))


class TestBm25ImpactsBuiltOnce:
    """An index's BM25 impacts, for every term, are built by its first
    ``retrieve`` and kept; building, saving, loading, ``index build`` and
    TF-IDF queries build none, and the impacts stay out of ``==`` and
    ``repr``."""

    @pytest.fixture()
    def built(self, monkeypatch):
        calls = []
        build = retrieval_engine._bm25_impacts

        def counting(entries, k1, b):
            calls.append(len(entries))
            return build(entries, k1, b)

        monkeypatch.setattr(retrieval_engine, "_bm25_impacts", counting)
        return calls

    @staticmethod
    def corpus():
        rng = random.Random(9)
        entries = [(random_valid_spec(rng), f"doc{i}") for i in range(25)]
        return entries, [random_valid_spec(rng) for _ in range(5)]

    def test_build_save_load_build_none(self, tmp_path, built):
        entries, _ = self.corpus()
        save_index(build_index(entries), tmp_path / "index.bin")
        load_index(tmp_path / "index.bin")
        assert built == []

    def test_index_build_command_builds_none(self, tmp_path, built):
        entries, _ = self.corpus()
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"spec": spec_to_dict(spec), "dockerfile": text})
                                  + "\n" for spec, text in entries))
        assert main(["index", "build", str(corpus), "--out", str(tmp_path / "index.bin")]) == 0
        assert built == []

    def test_vector_retrieve_builds_none(self, tmp_path, built):
        entries, queries = self.corpus()
        save_index(build_index(entries), tmp_path / "index.bin")
        _, loaded_entries = load_index(tmp_path / "index.bin")
        for query in queries + queries:
            vector_retrieve(query, 5, loaded_entries)
        assert built == []

    def test_first_retrieve_builds_once(self, tmp_path, built):
        entries, queries = self.corpus()
        save_index(build_index(entries), tmp_path / "index.bin")
        index, _ = load_index(tmp_path / "index.bin")
        absent = DockerSpec(os="plan9", pkg_manager="pacman",
                            dependencies=frozenset({"git", "no-such-package"}))
        asked = queries + [absent] + queries[::-1]
        scores = [_bm25_scores(query, index) for query in asked]
        assert built == [25]
        assert scores == [_reference_scores(query, index) for query in asked]
        assert built == [25]

    def test_interleaved_rankers_equal_each_alone(self, tmp_path):
        entries, queries = self.corpus()
        save_index(build_index(entries), tmp_path / "index.bin")
        bm25_index, _ = load_index(tmp_path / "index.bin")
        alone_bm25 = [_hits(retrieve(q, 10, bm25_index)) for q in queries]
        _, tfidf_entries = load_index(tmp_path / "index.bin")
        alone_tfidf = [_hits(vector_retrieve(q, 10, tfidf_entries)) for q in queries]
        index, shared = load_index(tmp_path / "index.bin")
        for n, query in enumerate(queries):
            assert _hits(vector_retrieve(query, 10, shared)) == alone_tfidf[n]
            assert _hits(retrieve(query, 10, index)) == alone_bm25[n]

    def test_impacts_left_out_of_equality_and_repr(self, tmp_path):
        entries, queries = self.corpus()
        save_index(build_index(entries), tmp_path / "index.bin")
        loaded, _ = load_index(tmp_path / "index.bin")
        fresh = build_index(entries)
        before = repr(loaded)
        assert loaded == fresh
        retrieve(queries[0], 5, loaded)
        assert loaded == fresh and fresh == loaded
        assert load_index(tmp_path / "index.bin")[0] == loaded
        assert repr(loaded) == before
        assert "impacts" not in before

    def test_doc_frequency_counts_entries(self):
        entries, _ = self.corpus()
        expected = {field_name: Counter() for field_name in SPEC_FIELDS}
        for spec, _ in entries:
            for field_name, text in render_spec_fields(spec).items():
                expected[field_name].update(set(text.split()))
        index = build_index(entries)
        first = index.doc_frequency
        assert first == {field_name: dict(counts) for field_name, counts in expected.items()}
        assert index.doc_frequency is first
        assert "doc_frequency" not in repr(index) and index == build_index(entries)


class TestTopKEdges:
    ENTRIES = [(DockerSpec(os="alpine", dependencies=frozenset({"vim"})), "a"),
               (DockerSpec(os="debian10", dependencies=frozenset({"git"})), "b"),
               (DockerSpec(os="centos7", dependencies=frozenset({"curl"})), "c"),
               (DockerSpec(os="alpine", dependencies=frozenset({"nginx"})), "d")]

    def test_k_zero_is_empty(self):
        index = build_index(self.ENTRIES)
        assert retrieve(self.ENTRIES[0][0], 0, index) == []
        assert vector_retrieve(self.ENTRIES[0][0], 0, index.entries) == []

    def test_bm25_fills_with_zero_scores_in_ascending_id(self):
        # the query shares only "git" with document 1: every field of the
        # others misses, pkg_manager "any" included
        index = build_index(self.ENTRIES)
        query = DockerSpec(os="fedora34", pkg_manager="yum",
                           dependencies=frozenset({"git"}))
        hits = retrieve(query, 4, index)
        assert [h.doc_id for h in hits] == [1, 0, 2, 3]
        assert hits[0].score > 0.0
        assert [h.score for h in hits[1:]] == [0.0, 0.0, 0.0]


def _reference_top(query, index, k):
    """(doc id, float.hex score) of the top k by a full sort of the
    reference scores."""
    scores = bm25_scores_reference(query, index)
    return [(doc_id, scores[doc_id].hex()) for doc_id in rank_reference(scores, k)]


def _top(query, index, k):
    return [(hit.doc_id, hit.score.hex()) for hit in retrieve(query, k, index)]


class TestBm25Search:
    """``retrieve``'s best-first search over classes of documents against a
    full sort of the reference scores: ties, k at its edges, queries without
    an indexed term, repeated terms, every BM25 parameter, and groups kept as
    ids next to bitsets."""

    def test_equal_scores_from_different_parts_go_to_ascending_id(self):
        # "a" and "b" each have one document of the same shape, so their
        # weights are equal: document 1 scores w("a") and document 0 w("b").
        # Document 1's node has the higher bound until "a" is passed, so its
        # class is reached first; document 0's class has an equal bound and
        # must still be taken
        entries = [(DockerSpec(dependencies=frozenset({"b"})), "holds b"),
                   (DockerSpec(dependencies=frozenset({"a"})), "holds a"),
                   (DockerSpec(dependencies=frozenset({"c"})), "holds c")]
        index = build_index(entries)
        query = DockerSpec(dependencies=frozenset({"a", "b"}))
        assert index.impacts["dependencies"]["a"][0][0] == \
            index.impacts["dependencies"]["b"][0][0]
        hits = retrieve(query, 1, index)
        assert [h.doc_id for h in hits] == [0]
        assert _top(query, index, 2) == _reference_top(query, index, 2)
        assert [doc_id for doc_id, _ in _top(query, index, 2)] == [0, 1]

    @pytest.mark.parametrize("k", ["0", "1", "n", "n+2"])
    def test_k_at_its_edges(self, k):
        rng = random.Random(15)
        entries = [(random_valid_spec(rng), f"doc{i}") for i in range(40)]
        index = build_index(entries)
        top = {"0": 0, "1": 1, "n": 40, "n+2": 42}[k]
        for query in [random_valid_spec(rng) for _ in range(10)] + [entries[3][0]]:
            hits = _top(query, index, top)
            assert len(hits) == min(top, 40)
            assert hits == _reference_top(query, index, top)

    def test_query_without_indexed_terms_scores_zero_in_ascending_id(self):
        rng = random.Random(16)
        entries = [(random_valid_spec(rng), f"doc{i}") for i in range(20)]
        index = build_index(entries)
        query = DockerSpec(os="plan9", pkg_manager="pacman",
                           dependencies=frozenset({"no-such-package"}))
        assert all(term not in index.impacts[field_name]
                   for field_name, terms in query_terms_for(query).items() for term in terms)
        for k in (1, 7, 20, 25):
            hits = retrieve(query, k, index)
            assert [(h.doc_id, h.score) for h in hits] == [(i, 0.0) for i in range(min(k, 20))]

    @pytest.mark.parametrize("k1", [0.0, 1.2, 100.0])
    @pytest.mark.parametrize("b", [0.0, 0.75, 1.0])
    def test_repeated_terms_and_every_parameter(self, k1, b):
        # "git lfs" renders as two tokens: tf 2 for "git" in a document, and
        # "git" asked twice by a query that holds it
        git_twice = DockerSpec(dependencies=frozenset({"git", "git lfs"}))
        rng = random.Random(17)
        specs = [git_twice, DockerSpec(dependencies=frozenset({"git", "vim", "curl"})),
                 DockerSpec(os="alpine", dependencies=frozenset({"lfs"})), git_twice]
        specs += [random_valid_spec(rng) for _ in range(20)]
        index = build_index([(s, f"doc{i}") for i, s in enumerate(specs)], k1=k1, b=b)
        assert query_terms_for(git_twice)["dependencies"] == ["git", "git", "lfs"]
        for query in [git_twice, DockerSpec(os="git", dependencies=frozenset({"git lfs"}))] + \
                specs[1:6]:
            for k in (1, 3, len(specs)):
                assert _top(query, index, k) == _reference_top(query, index, k)

    def test_sparse_and_dense_groups_over_64_documents(self):
        # 300 documents: a group of fewer than 5 documents keeps its ids and
        # the others are bitsets, so a query reads both kinds
        rng = random.Random(18)
        common = ["git", "curl", "vim", "make"]
        entries = []
        for i in range(300):
            deps = set(rng.sample(common, rng.randint(0, 3)))
            deps |= {f"rare{rng.randrange(100)}" for _ in range(rng.randint(0, 2))}
            entries.append((DockerSpec(os=rng.choice(["any", "alpine"]),
                                       dependencies=frozenset(deps),
                                       uses_env=rng.random() < 0.5), f"doc{i}"))
        index = build_index(entries)
        kinds = {type(docs) for terms in index.impacts.values()
                 for groups in terms.values() for _, docs in groups}
        assert kinds == {int, tuple}
        queries = [random_valid_spec(rng) for _ in range(5)] + [spec for spec, _ in entries[:10]]
        queries.append(DockerSpec(dependencies=frozenset(common + [f"rare{i}" for i in range(20)])))
        for query in queries:
            for k in (1, 10, 300):
                assert _top(query, index, k) == _reference_top(query, index, k)

    def test_long_tail_table_keeps_less_than_the_lists_it_replaced(self):
        # every document its own dependency: 4,000 groups of one id. The
        # table of (doc ids, weights) lists per term that this one replaced
        # kept 1,478,907-1,530,682 bytes, measured the same way on Python
        # 3.10-3.13; this one keeps about 1.03-1.08 MB
        index = build_index([(DockerSpec(dependencies=frozenset({f"dep{i}"})), f"doc{i}")
                             for i in range(4000)])
        query = DockerSpec(dependencies=frozenset({"dep7"}))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            hits = retrieve(query, 1, index)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert [h.doc_id for h in hits] == [7]
        assert kept <= 1_478_907


def _held_scores(query, index, k):
    """``retrieve``'s top k as ``_top`` gives it, and the scores of what the
    search held, in the order it held them."""
    held = []
    original = retrieval_engine._hits

    def recording(pairs, *args):
        held.extend(-score for score, _ in pairs)
        return original(pairs, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(retrieval_engine, "_hits", recording)
        return _top(query, index, k), held


def _search_maxima(query, index):
    """The query's indexed terms' maximum weights, in canonical order."""
    terms = query_terms_for(query)
    return [index.impacts[f][t][0][0] for f in SPEC_FIELDS for t in terms[f]
            if t in index.impacts[f]]


# "p" and "q" come with twins of the same postings, so their maxima tie to
# the bit; the other dependencies' document frequencies differ by a few, so
# their maxima nearly tie. A dependency's maximum is above that of a common
# os or pkg_manager, which canonical order takes first
_TWINNED_SPECS = st.builds(
    DockerSpec,
    os=st.sampled_from(["any", "alpine"]), pkg_manager=st.sampled_from(["any", "apt"]),
    dependencies=st.frozensets(st.sampled_from(["p", "q", "r", "s", "t"]), max_size=4).map(
        lambda deps: deps | {f"{d}-twin" for d in deps & {"p", "q"}}),
    **{name: st.booleans() for name in FLAG_FIELDS})


class TestSearchOrder:
    """``retrieve`` splits at the highest maximum first but scores each
    class in canonical order: every score equals the reference to the bit,
    and classes are held in falling exact score."""

    @settings(max_examples=150, deadline=None)
    @given(specs=st.lists(_TWINNED_SPECS, min_size=2, max_size=24),
           queries=st.lists(_TWINNED_SPECS, min_size=1, max_size=4),
           k1=st.sampled_from([0.0, 1.2, 100.0]), b=st.sampled_from([0.0, 0.75, 1.0]))
    def test_tied_and_near_tied_maxima_equal_reference(self, specs, queries, k1, b):
        index = build_index([(s, f"doc{i}") for i, s in enumerate(specs)], k1=k1, b=b)
        for query in queries:
            for k in (1, 3, index.size):
                top, held = _held_scores(query, index, k)
                assert top == _reference_top(query, index, k)
                assert held == sorted(held, reverse=True)

    def test_twinned_specs_reorder_and_tie_the_terms(self):
        # what the strategy above is for: a search order apart from the
        # canonical one, with tied maxima in it
        query = DockerSpec(dependencies=frozenset({"p", "p-twin", "r"}), uses_env=True)
        specs = [query, DockerSpec(dependencies=frozenset({"p", "p-twin"})),
                 DockerSpec(os="alpine", dependencies=frozenset({"r", "s"})), DockerSpec()]
        maxima = _search_maxima(query, build_index([(s, "") for s in specs]))
        assert sorted(maxima, reverse=True) != maxima
        assert len(set(maxima)) < len(maxima)

    def test_document_whose_two_folds_differ_in_the_last_bit(self):
        # with k1 = 0 a weight is the idf: w2 for the flags that two of the
        # three documents hold, w3 for uses_label, which all three hold. Document 0's parts in canonical (flag) order are
        # w2, w2, w2, w3; document 1's are w2, w2, w3, w2. The search takes
        # the w2 flags first, so both fold to document 0's score in search
        # order, while document 1's canonical fold is one ulp higher
        specs = [DockerSpec(downloads_external=True, uses_env=True, uses_arg=True,
                            uses_label=True),
                 DockerSpec(downloads_external=True, uses_arg=True, uses_label=True,
                            uses_expose=True),
                 DockerSpec(uses_env=True, uses_label=True, uses_expose=True)]
        index = build_index([(s, f"doc{i}") for i, s in enumerate(specs)], k1=0.0)
        query = DockerSpec(os="", pkg_manager="", **{name: True for name in FLAG_FIELDS})
        w2, w3 = math.log(1.0 + 1.5 / 2.5), math.log(1.0 + 0.5 / 3.5)
        assert sorted(_search_maxima(query, index), reverse=True) == [w2] * 4 + [w3]
        search_order = ((w2 + w2) + w2) + w3
        canonical = ((w2 + w2) + w3) + w2
        assert canonical == math.nextafter(search_order, math.inf)
        expected = [(1, canonical.hex()), (0, search_order.hex())]
        assert expected == [(1, "0x1.8b25963e259abp+0"), (0, "0x1.8b25963e259aap+0")]
        for k in (1, 2, 3):
            top, held = _held_scores(query, index, k)
            assert top == _reference_top(query, index, k)
            assert top[:2] == expected[:k]
            assert held == sorted(held, reverse=True)


def _tfidf_top(query, entries, k):
    return [(hit.doc_id, hit.score.hex()) for hit in vector_retrieve(query, k, entries)]


def _tfidf_reference_top(query, entries, k):
    return [(hit.doc_id, hit.score.hex())
            for hit in vector_retrieve_reference(query, k, list(entries))]


def _deps(*names):
    """A spec whose rendered text is its dependencies alone."""
    return DockerSpec(os="", pkg_manager="", dependencies=frozenset(names))


class TestTfidfSearch:
    """``vector_retrieve``'s best-first merge over classes of one pattern,
    held in rank order, against ``vector_retrieve_reference``: ties within a
    class and across classes, k at its edges, the zero class, and groups
    kept as ranks next to bitsets."""

    def test_equal_scores_within_and_across_classes_go_to_ascending_id(self):
        # Query "p q": documents 0 and 1 share class {p}, and documents 2
        # and 3 mirror them in class {q}. Besides p or q, one of a pair holds
        # a term three times and the other a term twice and five once, all
        # of one df, so their squares, 9i^2 against 4i^2 + 5 * i^2, have one
        # sum as reals but not always as floats, whichever way sum() adds.
        # The padding sets n, and so i; a case is a padding and an order of
        # the two where document 1's norm is the smaller, so it ranks first
        # in class {p}, before a lower id, yet all four score one float.
        # Each class's head must not give its document before the other
        # class's head is taken
        shapes = [("x x x",), ("y y", "z1", "z2", "z3", "z4", "z5")]
        query = _deps("p", "q")
        cases = 0
        for padding in range(100):
            for first, second in (shapes, shapes[::-1]):
                specs = [_deps("p", *first), _deps("p", *second),
                         _deps("q", *first), _deps("q", *second)]
                specs += [_deps("g", "t")] * padding
                entries = build_index([(s, f"doc{i}") for i, s in enumerate(specs)]).entries
                norm = dict(zip(entries.tfidf.order, entries.tfidf.norms))
                expected = _tfidf_reference_top(query, entries, 4)
                if not (norm[1] < norm[0] and len({score for _, score in expected}) == 1):
                    continue
                cases += 1
                assert entries.tfidf.order.index(1) < entries.tfidf.order.index(0)
                assert [doc_id for doc_id, _ in expected] == [0, 1, 2, 3]
                for k in range(1, 6):
                    assert _tfidf_top(query, entries, k) == _tfidf_reference_top(query, entries, k)
        assert cases

    @pytest.mark.parametrize("k", ["0", "1", "n", "n+2"])
    def test_k_at_its_edges(self, k):
        rng = random.Random(19)
        entries = build_index([(random_valid_spec(rng), f"doc{i}") for i in range(40)]).entries
        top = {"0": 0, "1": 1, "n": 40, "n+2": 42}[k]
        for query in [random_valid_spec(rng) for _ in range(10)] + [entries[3][0]]:
            hits = _tfidf_top(query, entries, top)
            assert len(hits) == min(top, 40)
            assert hits == _tfidf_reference_top(query, entries, top)

    def test_query_without_indexed_terms_scores_zero_in_ascending_id(self):
        # documents of every norm, so the zero class's ranks are not its ids
        rng = random.Random(20)
        entries = build_index([(random_valid_spec(rng), f"doc{i}") for i in range(20)]).entries
        query = DockerSpec(os="plan9", pkg_manager="pacman",
                           dependencies=frozenset({"no-such-package"}))
        assert all(term not in entries.tfidf.groups for term in rendered_spec_text(query).split())
        assert entries.tfidf.order != sorted(entries.tfidf.order)
        for k in (1, 7, 20, 25):
            hits = vector_retrieve(query, k, entries)
            assert [(h.doc_id, h.score) for h in hits] == [(i, 0.0) for i in range(min(k, 20))]
            assert _tfidf_top(query, entries, k) == _tfidf_reference_top(query, entries, k)

    def test_zero_class_after_the_matching_documents(self):
        # 200 documents of every norm, so the zero class is a bitset whose
        # ranks are not its ids; "rare" is in 3 of them, so k above 3 takes
        # the zero class's lowest ids after them, and "no-such-package" in
        # none, so the zero class is all the query reaches
        rng = random.Random(22)
        entries = [(random_valid_spec(rng), f"doc{i}") for i in range(200)]
        for i in (17, 90, 151):
            spec = entries[i][0]
            entries[i] = (spec._replace(dependencies=spec.dependencies | {"rare"}), f"doc{i}")
        indexed = build_index(entries).entries
        assert indexed.tfidf.order != sorted(indexed.tfidf.order)
        for name in ("rare", "no-such-package"):
            query = DockerSpec(os="plan9", pkg_manager="pacman", dependencies=frozenset({name}))
            for k in (1, 3, 4, 10, 199, 200, 205):
                hits = _tfidf_top(query, indexed, k)
                assert len(hits) == min(k, 200)
                assert hits == _tfidf_reference_top(query, entries, k)

    def test_sparse_and_dense_groups_over_64_documents(self):
        # 300 documents: a term in fewer than 5 documents keeps its groups'
        # ranks and the others are bitsets, so a query reads both kinds
        rng = random.Random(21)
        common = ["git", "curl", "vim", "make"]
        entries = []
        for i in range(300):
            deps = set(rng.sample(common, rng.randint(0, 3)))
            deps |= {f"rare{rng.randrange(100)}" for _ in range(rng.randint(0, 2))}
            if rng.random() < 0.2:
                deps.add("git lfs")  # tf 2 for "git": a second group
            entries.append((DockerSpec(os=rng.choice(["any", "alpine"]),
                                       dependencies=frozenset(deps),
                                       uses_env=rng.random() < 0.5), f"doc{i}"))
        indexed = build_index(entries).entries
        kinds = {type(docs) for groups in indexed.tfidf.groups.values() for _, docs in groups}
        assert kinds == {int, tuple}
        assert len(indexed.tfidf.groups["git"]) == 2
        queries = [random_valid_spec(rng) for _ in range(5)] + [spec for spec, _ in entries[:10]]
        queries.append(DockerSpec(dependencies=frozenset(common + [f"rare{i}" for i in range(20)])))
        for query in queries:
            for k in (1, 10, 300):
                assert _tfidf_top(query, indexed, k) == _tfidf_reference_top(query, entries, k)

    def test_long_tail_tables_keep_no_more_than_the_lists_they_replaced(self):
        # every document its own dependency: 4,000 terms of one document
        # each. The tables of (weight, doc ids) lists per term that these
        # replaced kept 1,770,402 bytes, measured the same way on Python
        # 3.11.7; these keep about 1.64 MB
        entries = build_index([(DockerSpec(dependencies=frozenset({f"dep{i}"})), f"doc{i}")
                               for i in range(4000)]).entries
        query = DockerSpec(dependencies=frozenset({"dep7"}))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            hits = vector_retrieve(query, 1, entries)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert [h.doc_id for h in hits] == [7]
        assert kept <= 1_770_402


def test_both_tables_encode_groups_of_one_in_64_documents_as_bitsets():
    # 128 documents: "solo"'s one group of one document keeps its number
    # (1 * 64 < 128), and "pair"'s one group of two, same tf and same field
    # length, is a bitset (2 * 64 == 128), in BM25's ids and TF-IDF's ranks
    rng = random.Random(22)
    common = ["git", "curl", "vim", "make"]
    entries = [(DockerSpec(os=rng.choice(["any", "alpine"]),
                           dependencies=frozenset(rng.sample(common, rng.randint(0, 3)))),
                f"doc{i}") for i in range(128)]
    entries[5] = (_deps("solo"), "doc5")
    entries[9] = (_deps("pair", "x"), "doc9")
    entries[100] = (_deps("pair", "y"), "doc100")
    index = build_index(entries)
    impacts = index.impacts["dependencies"]
    assert [docs for _, docs in impacts["solo"]] == [(5,)]
    assert [docs for _, docs in impacts["pair"]] == [1 << 9 | 1 << 100]
    tables = index.entries.tfidf
    rank = tables.order.index
    assert [docs for _, docs in tables.groups["solo"]] == [(rank(5),)]
    assert [docs for _, docs in tables.groups["pair"]] == [1 << rank(9) | 1 << rank(100)]
    queries = [_deps("solo", "pair"), _deps("pair", "git"), entries[9][0], entries[0][0]]
    for query in queries + [random_valid_spec(rng) for _ in range(4)]:
        for k in (1, 10, 128):
            assert _top(query, index, k) == _reference_top(query, index, k)
            assert _tfidf_top(query, index.entries, k) == \
                _tfidf_reference_top(query, entries, k)


class TestIndexFile:
    def test_save_load_roundtrip(self, tmp_path):
        rng = random.Random(3)
        entries = [(random_valid_spec(rng), f"doc{i}") for i in range(8)]
        index = build_index(entries, k1=1.4, b=0.6)
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded, loaded_entries = load_index(path)
        assert loaded.k1 == 1.4 and loaded.b == 0.6
        assert loaded_entries == entries
        assert loaded_entries is loaded.entries
        query = random_valid_spec(rng)
        original_hits = retrieve(query, 8, index)
        loaded_hits = retrieve(query, 8, loaded)
        assert [(h.doc_id, h.score) for h in original_hits] == \
            [(h.doc_id, h.score) for h in loaded_hits]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_text('{"magic": "something-else", "version": 1}')
        with pytest.raises(SchemaError):
            load_index(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_text('{"magic": "dockerspec-index", "version": 99}')
        with pytest.raises(SchemaError):
            load_index(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "index.bin"
        path.write_text("not an index")
        with pytest.raises(SchemaError):
            load_index(path)

    def test_version_one_file_must_be_rebuilt(self, tmp_path):
        # the single JSON document that version 1 wrote, with no newline
        path = tmp_path / "index.bin"
        path.write_text(json.dumps({
            "b": 0.75, "entries": [{"dockerfile": "doc", "spec": spec_to_dict(DockerSpec())}],
            "k1": 1.2, "magic": INDEX_MAGIC, "version": 1}, sort_keys=True))
        with pytest.raises(SchemaError) as info:
            load_index(path)
        assert str(info.value) == (f"{path}: unsupported index version 1; "
                                   "rerun `index build` to write version 2")

    @pytest.mark.parametrize("key", ["k1", "b", "magic", "version"])
    def test_missing_key(self, tmp_path, key):
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc")]), path)
        header, records = index_lines(path)
        del header[key]
        write_index(path, header, records)
        with pytest.raises(SchemaError, match=key):
            load_index(path)

    def test_save_is_byte_identical(self, tmp_path):
        rng = random.Random(4)
        entries = [(random_valid_spec(rng), f"doc{i}") for i in range(8)]
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_index(build_index(entries), first)
        save_index(load_index(first)[0], second)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(entries=st.lists(st.tuples(_LOADABLE_SPECS, _AWKWARD_TEXT), min_size=1, max_size=20),
           k1=st.one_of(st.sampled_from([0, 1, 2, 0.0, 1.0, 1.2, 100.0, MAX_K1]),
                        st.floats(0.0, 100.0)),
           b=st.one_of(st.sampled_from([0, 1, 0.0, 1.0, 0.75, 5e-324]), st.floats(0.0, 1.0)))
    @example(entries=[(DockerSpec(dependencies=frozenset(_BREAKS)),
                       'FROM alpine<nl>RUN echo "a\\b"' + "".join(_BREAKS) + "<nl>")],
             k1=0, b=1.0)
    def test_round_trip_one_record_a_line(self, entries, k1, b):
        index = build_index(entries, k1=k1, b=b)
        with tempfile.TemporaryDirectory() as name:
            path = Path(name) / "index.bin"
            save_index(index, path)
            lines = path.read_bytes().split(b"\n")
            loaded, loaded_entries = load_index(path)
        # the header line, a line per entry, and nothing after the last newline
        assert lines[-1] == b"" and len(lines) == len(entries) + 2
        assert json.loads(lines[0]) == {"b": b, "k1": k1, "magic": INDEX_MAGIC,
                                        "version": INDEX_VERSION}
        for line, (spec, text) in zip(lines[1:], entries):
            assert json.loads(line) == {"dockerfile": text, "spec": spec_to_dict(spec)}
        assert loaded == index
        assert (type(loaded.k1), type(loaded.b)) == (type(k1), type(b))
        assert loaded_entries is loaded.entries

    def test_index_build_of_fixture_corpus_copies_its_records(self, tmp_path):
        corpus, out = FIXTURES / "corpus.jsonl", tmp_path / "index.bin"
        assert main(["index", "build", str(corpus), "--out", str(out)]) == 0
        records = [json.loads(line) for line in corpus.read_text().splitlines() if line]
        expected = [json.dumps({"b": 0.75, "k1": 1.2, "magic": "dockerspec-index", "version": 2})]
        expected += [json.dumps({"dockerfile": r["dockerfile"], "spec": r["spec"]}, sort_keys=True)
                     for r in records]
        assert out.read_text() == "".join(line + "\n" for line in expected)

    def test_save_holds_no_copy_of_the_file(self, benchmark_index_corpus, tmp_path):
        # the one-call writer of version 1 peaked at about 4.5 times the
        # file: the payload dicts, the encoder's chunks, the JSON text and
        # its UTF-8 bytes
        index, path = build_index(list(read_corpus_records(benchmark_index_corpus))), \
            tmp_path / "index.bin"
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            save_index(index, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 0.5 * path.stat().st_size

    def test_load_peaks_near_what_it_keeps(self, benchmark_index_corpus, tmp_path):
        # version 1 read the whole text and parsed it into one payload, so
        # the text, the payload and the entries were alive together: about
        # 1.6 times what the loaded index keeps
        path = tmp_path / "index.bin"
        save_index(build_index(list(read_corpus_records(benchmark_index_corpus))), path)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loaded = load_index(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded[0].size == 2000
        assert peak - start < 1.1 * (kept - start)

    def test_non_string_dockerfile_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc")]), path)
        header, _ = index_lines(path)
        write_index(path, header, [json.dumps({"spec": spec_to_dict(DockerSpec()),
                                                "dockerfile": 3}) + "\n"])
        with pytest.raises(SchemaError, match="dockerfile"):
            load_index(path)

    @pytest.mark.parametrize("key, value, message", [
        ("spec", {"os": "alpine"}, "missing field(s): pkg_manager"),
        ("dockerfile", 3, "record must carry spec and a dockerfile string"),
        ("spec", None, "record must carry spec and a dockerfile string"),
        ("dockerfile", None, "record must carry spec and a dockerfile string"),
    ])
    def test_bad_record_named_by_line(self, tmp_path, key, value, message):
        # doc id 1 is on line 3, after the header and doc id 0
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc0"), (DockerSpec(), "doc1"),
                                (DockerSpec(), "doc2")]), path)
        header, records = index_lines(path)
        record = json.loads(records[1])
        if value is None:
            del record[key]
        else:
            record[key] = value
        records[1] = json.dumps(record) + "\n"
        write_index(path, header, records)
        with pytest.raises(SchemaError) as info:
            load_index(path)
        assert str(info.value).startswith(f"{path}:3: {message}")

    @pytest.mark.parametrize("line", [1, 3])
    def test_undecodable_bytes_named_by_line(self, tmp_path, line):
        # a byte that is not UTF-8 in the header, or in the record of doc id 1
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc0"), (DockerSpec(), "doc1")]), path)
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1].replace(b'"', b'"\xff', 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(SchemaError) as info:
            load_index(path)
        assert str(info.value).startswith(f"{path}:{line}: not UTF-8 text")

    def test_hand_edited_parameters_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc")]), path)
        header, records = index_lines(path)
        header["k1"] = float("nan")
        write_index(path, header, records)
        with pytest.raises(SchemaError, match="k1"):
            load_index(path)

    @pytest.mark.parametrize("key, value, message", [
        ("records", [], ": malformed index file: cannot index an empty corpus"),
        ("records", ["5\n"], ":2: record must carry spec and a dockerfile string"),
        ("records", ["\n", "{\n"], ":3: not a JSONL record: Expecting property name"),
        ("k1", True, ": malformed index file: k1 must be a finite number >= 0, got True"),
        ("k1", 10 ** 400, ": malformed index file: k1 must be a finite number >= 0, got 1000"),
        ("k1", 1e308, ": malformed index file: k1 must be at most 1e+09, got 1e+308"),
        ("b", True, ": malformed index file: b must be a number in [0, 1], got True"),
    ])
    def test_bad_records_and_parameters_named(self, tmp_path, key, value, message):
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc")]), path)
        header, records = index_lines(path)
        if key == "records":
            records = value
        else:
            header[key] = value
        write_index(path, header, records)
        with pytest.raises(SchemaError) as info:
            load_index(path)
        assert str(info.value).startswith(f"{path}{message}")


class TestBm25Parameters:
    @pytest.mark.parametrize("k1, b", [(float("nan"), 0.75), (float("inf"), 0.75),
                                       (-5.0, 0.75), (1.2, 7.0), (1.2, -0.1),
                                       (1.2, float("nan")), (True, 0.75), (1.2, True),
                                       (1.2, False), (10 ** 400, 0.75), (-10 ** 400, 0.75),
                                       (1e308, 0.75), (math.nextafter(MAX_K1, math.inf), 1.0)])
    def test_rejected(self, k1, b):
        with pytest.raises(ConfigError):
            build_index([(DockerSpec(), "doc")], k1=k1, b=b)

    @pytest.mark.parametrize("k1, b", [(0.0, 0.0), (0.0, 1.0), (100.0, 0.5), (MAX_K1, 1.0)])
    def test_boundaries_accepted(self, k1, b):
        index = build_index([(DockerSpec(), "doc")], k1=k1, b=b)
        assert (index.k1, index.b) == (k1, b)

    def test_largest_k1_scores_a_long_tail_finitely(self):
        # k1 = 1e308 made a posting's norm inf and its weight inf or NaN
        # here; at the largest k1 accepted every score is finite and ranked
        # as the reference ranks it
        index = build_index([(DockerSpec(dependencies=frozenset({f"dep{i}"})), f"doc{i}")
                             for i in range(20)], k1=MAX_K1, b=1.0)
        query = DockerSpec(dependencies=frozenset({"dep3", "dep0"}))
        hits = retrieve(query, 20, index)
        assert all(math.isfinite(hit.score) for hit in hits)
        assert [h.doc_id for h in hits[:2]] == [0, 3]
        assert _top(query, index, 20) == _reference_top(query, index, 20)

    @settings(max_examples=100, deadline=None)
    @given(specs=st.lists(_SPECS, min_size=1, max_size=12), query=_SPECS,
           k1=st.one_of(st.sampled_from([0.0, 1.2, MAX_K1]), st.floats(0.0, MAX_K1)),
           b=st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0)))
    def test_accepted_parameters_give_finite_scores(self, specs, query, k1, b):
        index = build_index([(s, f"doc{i}") for i, s in enumerate(specs)], k1=k1, b=b)
        scores = [hit.score for hit in retrieve(query, index.size, index)]
        assert len(scores) == index.size
        assert all(math.isfinite(score) and score >= 0.0 for score in scores)
