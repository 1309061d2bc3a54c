import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dockerspec import retrieval_engine
from dockerspec.cli import main
from dockerspec.corpus_pipeline import read_corpus_records
from dockerspec.errors import ConfigError, EmptyCorpus, SchemaError
from dockerspec.retrieval_engine import (
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
    SPEC_FIELDS,
    spec_from_dict,
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
        # second document's length norm is 1.0 and its weight for "a" is idf
        entries = [
            (DockerSpec(dependencies=frozenset({"a", "b"})), "1"),
            (DockerSpec(dependencies=frozenset({"a", "b", "c", "d"})), "2"),
            (DockerSpec(dependencies=frozenset({"a", "b", "c", "d", "e", "f"})), "3"),
        ]
        ids, weights = build_index(entries).impacts["dependencies"]["a"]
        idf = math.log(1.0 + (3 - 3 + 0.5) / (3 + 0.5))
        assert ids == [0, 1, 2]
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

        assert impacts["dependencies"] == {
            "a": ([0, 1], [weight(2, 1, 2, 2.5), weight(2, 2, 3, 2.5)]),
            "b": ([0, 1], [weight(2, 1, 2, 2.5), weight(2, 1, 3, 2.5)]),
        }
        assert impacts["uses_env"] == {"uses_env": ([1], [weight(1, 1, 1, 0.5)])}
        assert impacts["uses_arg"] == {}


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


class TestTfidfColumns:
    """``vector_retrieve`` sums each document's per-term column values; the
    edges where a sum is empty or a norm is zero score 0.0."""

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
        entries = [(spec_from_dict(r["spec"]), r["dockerfile"])
                   for _, r in read_corpus_records(corpus)]
        rng = random.Random(13)
        queries = [spec for spec, _ in entries] + [random_valid_spec(rng) for _ in range(10)]
        indexed = build_index(entries).entries
        for query in queries + [self.EMPTY]:
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
        assert build_index(entries).doc_frequency == \
            {field_name: dict(counts) for field_name, counts in expected.items()}


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

    @pytest.mark.parametrize("key", ["entries", "k1", "b"])
    def test_missing_key(self, tmp_path, key):
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc")]), path)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=key):
            load_index(path)

    def test_save_is_byte_identical(self, tmp_path):
        rng = random.Random(4)
        entries = [(random_valid_spec(rng), f"doc{i}") for i in range(8)]
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_index(build_index(entries), first)
        save_index(load_index(first)[0], second)
        assert first.read_bytes() == second.read_bytes()

    def test_non_string_dockerfile_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc")]), path)
        payload = json.loads(path.read_text())
        payload["entries"][0]["dockerfile"] = 3
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="dockerfile"):
            load_index(path)

    @pytest.mark.parametrize("key, value, message", [
        ("spec", {"os": "alpine"}, "missing field(s): pkg_manager"),
        ("dockerfile", 3, "malformed index file: a dockerfile is not a string"),
        ("spec", None, "lacks key 'spec'"),
        ("dockerfile", None, "lacks key 'dockerfile'"),
    ])
    def test_bad_entry_named(self, tmp_path, key, value, message):
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc0"), (DockerSpec(), "doc1"),
                                (DockerSpec(), "doc2")]), path)
        payload = json.loads(path.read_text())
        if value is None:
            del payload["entries"][1][key]
        else:
            payload["entries"][1][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            load_index(path)
        assert str(info.value).startswith(f"{path}: entry 1: {message}")

    def test_hand_edited_parameters_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc")]), path)
        payload = json.loads(path.read_text())
        payload["k1"] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="k1"):
            load_index(path)


    @pytest.mark.parametrize("key, value, message", [
        ("entries", [], "malformed index file: cannot index an empty corpus"),
        ("entries", {"a": 1}, "malformed index file: 'dict' object is not iterable as a list"),
        ("entries", [1], "entry 0: malformed index file: an entry is not an object"),
        ("k1", True, "malformed index file: k1 must be a finite number >= 0, got True"),
        ("k1", 10 ** 400, "malformed index file: k1 must be a finite number >= 0, got 1000"),
        ("b", True, "malformed index file: b must be a number in [0, 1], got True"),
    ])
    def test_bad_entries_and_parameters_named(self, tmp_path, key, value, message):
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc")]), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            load_index(path)
        assert str(info.value).startswith(f"{path}: {message}")


class TestBm25Parameters:
    @pytest.mark.parametrize("k1, b", [(float("nan"), 0.75), (float("inf"), 0.75),
                                       (-5.0, 0.75), (1.2, 7.0), (1.2, -0.1),
                                       (1.2, float("nan")), (True, 0.75), (1.2, True),
                                       (1.2, False), (10 ** 400, 0.75), (-10 ** 400, 0.75)])
    def test_rejected(self, k1, b):
        with pytest.raises(ConfigError):
            build_index([(DockerSpec(), "doc")], k1=k1, b=b)

    @pytest.mark.parametrize("k1, b", [(0.0, 0.0), (0.0, 1.0), (100.0, 0.5)])
    def test_boundaries_accepted(self, k1, b):
        index = build_index([(DockerSpec(), "doc")], k1=k1, b=b)
        assert (index.k1, index.b) == (k1, b)
