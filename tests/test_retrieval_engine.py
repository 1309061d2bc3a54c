import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dockerspec.errors import ConfigError, EmptyCorpus, SchemaError
from dockerspec.retrieval_engine import (
    build_index,
    bm25_score,
    load_index,
    query_terms_for,
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
        index = build_index([(DockerSpec(dependencies=frozenset({"a", "b"})), "d")])
        doc = index.documents[0]
        for field_name, counts in doc.term_frequencies.items():
            assert doc.length[field_name] == sum(counts.values())


class TestBm25Score:
    def test_absent_term_contributes_zero(self):
        index = build_index([(DockerSpec(dependencies=frozenset({"git"})), "d")])
        base = bm25_score({"dependencies": ["git"]}, index.documents[0], index)
        with_absent = bm25_score({"dependencies": ["git", "zzz"]},
                                 index.documents[0], index)
        assert with_absent == base

    def test_matches_naive_oracle_single_doc(self):
        spec = DockerSpec(os="alpine", pkg_manager="apk",
                          dependencies=frozenset({"git", "curl"}), uses_env=True)
        index = build_index([(spec, "d")])
        score = bm25_score(query_terms_for(spec), index.documents[0], index)
        oracle = naive_bm25_rankings(spec, [spec], render=render_spec_fields)
        assert score == pytest.approx(oracle[0], abs=1e-12)
        assert score > 0.0

    def test_monotone_in_term_frequency(self):
        entries = [(DockerSpec(dependencies=frozenset({"git", "pad"})), "a"),
                   (DockerSpec(dependencies=frozenset({"git", "fill"})), "b")]
        index = build_index(entries)
        query = {"dependencies": ["git"]}
        single = bm25_score(query, index.documents[0], index)
        # raise tf while holding the recorded length fixed: score must grow
        index.documents[0].term_frequencies["dependencies"]["git"] = 2
        doubled = bm25_score(query, index.documents[0], index)
        assert doubled > single


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
