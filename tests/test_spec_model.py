import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dockerspec import spec_model
from dockerspec.corpus_pipeline import CorpusEntry, cluster_by_spec
from dockerspec.errors import SchemaError
from dockerspec.spec_model import (
    SPEC_FIELDS,
    DockerSpec,
    WordLists,
    default_word_lists,
    deserialize_spec,
    load_word_list,
    serialize_spec,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)
from oracles import random_valid_spec


class TestValidateSpec:
    def test_incoherent_pkg_manager(self, word_lists):
        spec = DockerSpec(os="alpine", pkg_manager="apt")
        violations = validate_spec(spec, word_lists)
        assert any("incoherent" in v for v in violations)

    def test_empty_spec_is_valid(self, word_lists):
        assert validate_spec(DockerSpec(), word_lists) == []

    def test_dependency_that_is_an_os_word(self, word_lists):
        spec = DockerSpec(os="alpine", pkg_manager="any",
                          dependencies=frozenset({"alpine"}))
        violations = validate_spec(spec, word_lists)
        assert any("OS word" in v for v in violations)

    def test_dependency_that_is_a_stop_word(self, word_lists):
        spec = DockerSpec(dependencies=frozenset({"latest"}))
        assert any("stop word" in v for v in violations_of(spec, word_lists))

    def test_non_alphabetic_leading_dependency(self, word_lists):
        spec = DockerSpec(dependencies=frozenset({"7zip"}))
        assert any("alphabetic" in v for v in violations_of(spec, word_lists))

    def test_embedded_digits_are_fine(self, word_lists):
        spec = DockerSpec(dependencies=frozenset({"jre8"}))
        assert validate_spec(spec, word_lists) == []

    def test_empty_os(self, word_lists):
        assert any("empty" in v for v in violations_of(DockerSpec(os=""), word_lists))

    def test_uppercase_os(self, word_lists):
        assert violations_of(DockerSpec(os="Alpine"), word_lists)

    def test_coherent_yum(self, word_lists):
        assert validate_spec(DockerSpec(os="centos7", pkg_manager="yum"), word_lists) == []


def violations_of(spec, lists):
    return validate_spec(spec, lists)


class TestSerialization:
    def test_empty_spec_roundtrip(self):
        spec = DockerSpec()
        assert deserialize_spec(serialize_spec(spec)) == spec

    def test_dependencies_serialized_sorted(self):
        spec = DockerSpec(dependencies=frozenset({"tomcat", "ffmpeg"}))
        data = json.loads(serialize_spec(spec))
        assert data["dependencies"] == ["ffmpeg", "tomcat"]

    def test_canonical_field_order(self):
        data = json.loads(serialize_spec(DockerSpec()),
                          object_pairs_hook=lambda pairs: [k for k, _ in pairs])
        assert data == list(SPEC_FIELDS)

    def test_equal_specs_serialize_identically(self):
        first = DockerSpec(dependencies=frozenset(["b", "a", "c"]))
        second = DockerSpec(dependencies=frozenset(["c", "b", "a"]))
        assert serialize_spec(first) == serialize_spec(second)

    def test_missing_field(self):
        payload = json.loads(serialize_spec(DockerSpec()))
        del payload["os"]
        with pytest.raises(SchemaError, match="missing"):
            deserialize_spec(json.dumps(payload))

    def test_unknown_field(self):
        payload = json.loads(serialize_spec(DockerSpec()))
        payload["shiny"] = 1
        with pytest.raises(SchemaError, match="unknown"):
            deserialize_spec(json.dumps(payload))

    def test_wrong_flag_type(self):
        payload = json.loads(serialize_spec(DockerSpec()))
        payload["uses_env"] = 1
        with pytest.raises(SchemaError, match="boolean"):
            deserialize_spec(json.dumps(payload))

    def test_wrong_dependencies_type(self):
        payload = json.loads(serialize_spec(DockerSpec()))
        payload["dependencies"] = "git"
        with pytest.raises(SchemaError):
            deserialize_spec(json.dumps(payload))

    def test_unknown_pkg_manager(self):
        payload = json.loads(serialize_spec(DockerSpec()))
        payload["pkg_manager"] = "zypper"
        with pytest.raises(SchemaError):
            deserialize_spec(json.dumps(payload))

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            deserialize_spec("{not json")

    @pytest.mark.parametrize("removed, added, message", [
        (["uses_env", "os"], {}, "missing field(s): os, uses_env"),
        ([], {"zeta": 1, "alpha": 2}, "unknown field(s): alpha, zeta"),
        (["pkg_manager"], {"shiny": 1}, "missing field(s): pkg_manager"),
        ([], {"os": ""}, "os must be a non-empty string"),
        ([], {"os": 3}, "os must be a non-empty string"),
        ([], {"pkg_manager": "zypper"},
         "pkg_manager must be one of ('apt', 'apk', 'yum', 'any')"),
        ([], {"dependencies": ["git", 3]}, "dependencies must be an array of strings"),
        ([], {"uses_arg": 1, "uses_cmd": None}, "uses_arg must be a boolean"),
    ])
    def test_schema_error_messages(self, removed, added, message):
        data = spec_to_dict(DockerSpec())
        for name in removed:
            del data[name]
        data.update(added)
        with pytest.raises(SchemaError) as info:
            spec_from_dict(data)
        assert str(info.value) == message

    def test_not_an_object(self):
        with pytest.raises(SchemaError) as info:
            spec_from_dict([])
        assert str(info.value) == "spec must be a JSON object"

    @given(st.integers(0, 10 ** 6))
    def test_random_spec_roundtrip(self, seed):
        spec = random_valid_spec(random.Random(seed))
        assert deserialize_spec(serialize_spec(spec)) == spec


class TestSpecValue:
    """A spec is an immutable value: equal specs are interchangeable."""

    def test_assigning_a_field_raises(self):
        spec = DockerSpec()
        with pytest.raises(AttributeError):
            spec.os = "alpine"
        with pytest.raises(AttributeError):
            spec.extra = 1
        assert spec == DockerSpec()

    def test_equal_specs_hash_equal_and_share_a_cluster(self):
        first = DockerSpec("alpine", "apk", frozenset({"git", "curl"}), uses_env=True)
        second = DockerSpec(os="alpine", pkg_manager="apk", uses_env=True,
                            dependencies=frozenset(["curl", "git"]))
        assert first == second and first is not second
        assert hash(first) == hash(second) == hash(tuple(getattr(first, name)
                                                         for name in SPEC_FIELDS))
        entries = [CorpusEntry(spec, "sha", (), f"f{i}", "")
                   for i, spec in enumerate([first, DockerSpec(), second])]
        clusters = cluster_by_spec(entries)
        assert [(c.spec, [m.source for m in c.members]) for c in clusters] == \
            [(first, ["f0", "f2"]), (DockerSpec(), ["f1"])]

    def test_keyword_construction_with_defaults(self):
        spec = DockerSpec(uses_cmd=True, os="debian")
        assert spec_to_dict(spec) == {**spec_to_dict(DockerSpec()),
                                      "os": "debian", "uses_cmd": True}
        assert DockerSpec() == DockerSpec("any", "any", frozenset(), *[False] * 7)

    def test_repr(self):
        spec = DockerSpec(os="alpine", dependencies=frozenset({"git"}), uses_arg=True)
        assert repr(spec) == (
            "DockerSpec(os='alpine', pkg_manager='any', dependencies=frozenset({'git'}), "
            "downloads_external=False, uses_env=False, uses_arg=True, uses_label=False, "
            "uses_expose=False, uses_cmd=False, uses_entrypoint=False)")

    def test_a_spec_is_the_tuple_of_its_values_in_field_order(self):
        spec = DockerSpec(os="alpine", uses_env=True)
        assert spec == ("alpine", "any", frozenset(), False, True) + (False,) * 5
        assert SPEC_FIELDS == DockerSpec._fields


class TestWordLists:
    def test_defaults_load_and_are_disjoint(self, word_lists):
        assert word_lists.os_words
        assert word_lists.stop_words
        assert not word_lists.os_words & word_lists.stop_words
        assert {"alpine", "debian", "ubuntu", "centos"} <= word_lists.os_words

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            WordLists(frozenset({"alpine"}), frozenset({"alpine", "slim"}))

    def test_load_word_list(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# comment line\nAlpine\n\ndebian  # trailing\n")
        assert load_word_list(path) == frozenset({"alpine", "debian"})

    def test_load_word_list_ignores_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes("\ufeffalpine\ndebian\n".encode())
        assert load_word_list(path) == frozenset({"alpine", "debian"})

    def test_defaults_read_once_per_process(self, monkeypatch):
        read = []
        load = spec_model.load_word_list
        monkeypatch.setattr(spec_model, "load_word_list",
                            lambda path: read.append(path) or load(path))
        default_word_lists.cache_clear()
        try:
            first = default_word_lists()
            assert default_word_lists() is first
            assert sorted(Path(path).name for path in read) == ["os_words.txt",
                                                                "stop_words.txt"]
        finally:
            default_word_lists.cache_clear()
