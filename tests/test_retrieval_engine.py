import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dockerspec.errors import ConfigError, EmptyCorpus, SchemaError
from dockerspec.retrieval_engine import (
    build_index,
    load_index,
    render_spec_fields,
    rendered_spec_text,
    retrieve,
    save_index,
    vector_retrieve,
)
from dockerspec.spec_model import DockerSpec, FLAG_FIELDS
from oracles import (
    naive_bm25_rankings,
    naive_cosine_scores,
    random_valid_spec,
    rankings_agree,
)


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

    def test_average_length(self):
        entries = [
            (DockerSpec(dependencies=frozenset({"a", "b"})), "1"),
            (DockerSpec(dependencies=frozenset({"a", "b", "c", "d"})), "2"),
            (DockerSpec(dependencies=frozenset({"a", "b", "c", "d", "e", "f"})), "3"),
        ]
        index = build_index(entries)
        assert index.average_length["dependencies"] == 4.0

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_index([])

    def test_length_equals_term_frequency_sum(self):
        entries = [(DockerSpec(dependencies=frozenset({"a", "b"})), "d"),
                   (DockerSpec(os="alpine", dependencies=frozenset({"a", "a b"}),
                               uses_env=True), "e")]
        index = build_index(entries)
        for field_name, terms in index.postings.items():
            for doc_id in range(len(entries)):
                tf_sum = sum(tf for plist in terms.values()
                             for posting_id, tf in plist if posting_id == doc_id)
                assert index.lengths[field_name][doc_id] == tf_sum
        assert index.lengths["dependencies"] == [2, 3]
        assert index.lengths["uses_env"] == [0, 1]


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
        assert index.postings["dependencies"]["git"][0] == (0, 2)
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
        assert index.lengths["dependencies"] == [3, 3]
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
    ])
    def test_bad_entry_named(self, tmp_path, key, value, message):
        path = tmp_path / "index.bin"
        save_index(build_index([(DockerSpec(), "doc0"), (DockerSpec(), "doc1"),
                                (DockerSpec(), "doc2")]), path)
        payload = json.loads(path.read_text())
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


class TestBm25Parameters:
    @pytest.mark.parametrize("k1, b", [(float("nan"), 0.75), (float("inf"), 0.75),
                                       (-5.0, 0.75), (1.2, 7.0), (1.2, -0.1),
                                       (1.2, float("nan"))])
    def test_rejected(self, k1, b):
        with pytest.raises(ConfigError):
            build_index([(DockerSpec(), "doc")], k1=k1, b=b)

    @pytest.mark.parametrize("k1, b", [(0.0, 0.0), (0.0, 1.0), (100.0, 0.5)])
    def test_boundaries_accepted(self, k1, b):
        index = build_index([(DockerSpec(), "doc")], k1=k1, b=b)
        assert (index.k1, index.b) == (k1, b)
