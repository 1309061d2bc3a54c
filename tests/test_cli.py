import json
import shutil
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import index_lines, write_index
from dockerspec.cli import main
from dockerspec.corpus_pipeline import read_corpus_records
from dockerspec.dockerfile_syntax import ast_to_json, build_ast, parse_dockerfile
from dockerspec.errors import ShellSyntaxError
from dockerspec.evaluation import compare_systems, evaluate_run, evaluate_systems
from dockerspec.spec_model import DockerSpec, spec_to_dict
from oracles import vector_retrieve_reference

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInferSpecCommand:
    def test_tomcat_ffmpeg(self, capsys):
        code, out, _ = run(capsys, "infer-spec", str(FIXTURES / "tomcat-ffmpeg.Dockerfile"))
        assert code == 0
        spec = json.loads(out)
        assert spec["os"] == "any"
        assert spec["pkg_manager"] == "apt"
        assert spec["dependencies"] == ["ffmpeg", "tomcat", "x265"]
        assert spec["downloads_external"] is True

    def test_byte_order_mark_ignored(self, capsys, tmp_path):
        original = FIXTURES / "tomcat-ffmpeg.Dockerfile"
        with_bom = tmp_path / "bom.Dockerfile"
        with_bom.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        assert run(capsys, "infer-spec", str(with_bom)) == \
            run(capsys, "infer-spec", str(original))

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "infer-spec", "does-not-exist.Dockerfile")
        assert code == 3
        assert err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.Dockerfile"
        bad.write_text("definitely not dockerfile syntax\n")
        code, _, err = run(capsys, "infer-spec", str(bad))
        assert code == 1
        assert "error" in err

    def test_inference_incomplete(self, capsys, tmp_path):
        no_from = tmp_path / "nofrom.Dockerfile"
        no_from.write_text("RUN echo hi\n")
        code, _, _ = run(capsys, "infer-spec", str(no_from))
        assert code == 2

    def test_custom_word_lists(self, capsys, tmp_path):
        os_words = tmp_path / "os.txt"
        os_words.write_text("tomcat\n")
        stop_words = tmp_path / "stop.txt"
        stop_words.write_text("slim\n")
        code, out, _ = run(capsys, "infer-spec", str(FIXTURES / "tomcat-alpine.Dockerfile"),
                           "--os-words", str(os_words), "--stop-words", str(stop_words))
        assert code == 0
        # name-level match appends the purely numeric tag words
        assert json.loads(out)["os"] == "tomcat9020"


class TestErrorPrecedence:
    """A file with no FROM and an unterminated quote reports the shell
    syntax error in every command."""

    TEXT = "# Install git\nRUN echo 'open\n"

    def test_infer_spec(self, capsys, tmp_path):
        path = tmp_path / "both.Dockerfile"
        path.write_text(self.TEXT)
        assert run(capsys, "infer-spec", str(path)) == \
            (1, "", "error: unterminated single quote\n")

    def test_evaluate_as_target_and_as_output(self, word_lists):
        good = (FIXTURES / "tomcat-ffmpeg.Dockerfile").read_text()
        reports = evaluate_systems([(self.TEXT, {"s": good}), (good, {"s": self.TEXT})],
                                   word_lists)
        assert [r.error for r in reports["s"].pair_results] == \
            ["ShellSyntaxError: unterminated single quote"] * 2

    def test_corpus_build(self, capsys, corpus_dir, tmp_path):
        argv = ["corpus", "build", str(corpus_dir), "--out", str(tmp_path / "corpus.jsonl")]
        _, before, _ = run(capsys, *argv)
        (corpus_dir / "both.Dockerfile").write_text(self.TEXT)
        code, after, _ = run(capsys, *argv)
        assert code == 0
        reasons = Counter(json.loads(after)["reasons"])
        reasons.subtract(json.loads(before)["reasons"])
        assert +reasons == Counter({"shell-syntax-error": 1})


class TestParseCommand:
    def test_text_format(self, capsys, tmp_path):
        f = tmp_path / "d"
        f.write_text("FROM alpine\n")
        code, out, _ = run(capsys, "parse", str(f))
        assert code == 0
        assert out == "dockerfile\n  FROM\n    alpine\n"

    def test_json_format(self, capsys, tmp_path):
        f = tmp_path / "d"
        f.write_text("FROM alpine\n")
        code, out, _ = run(capsys, "parse", str(f), "--format", "json")
        assert code == 0
        assert json.loads(out)["label"] == "dockerfile"

    def test_shell_error_exit_code(self, capsys, tmp_path):
        f = tmp_path / "d"
        f.write_text("FROM alpine\nRUN echo 'broken\n")
        code, _, _ = run(capsys, "parse", str(f))
        assert code == 1

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_lone_carriage_return_stays_in_its_line(self, capsys, tmp_path, newline):
        text = newline.join(["# git", "FROM alpine", "RUN echo a\rRUN apk add git", ""])
        f = tmp_path / "d"
        f.write_bytes(text.encode())
        code, out, _ = run(capsys, "parse", str(f), "--format", "json")
        assert code == 0
        tree = json.loads(out)
        assert tree == ast_to_json(build_ast(parse_dockerfile(text)))
        assert [child["label"] for child in tree["children"]] == ["FROM", "RUN"]
        code, out, _ = run(capsys, "infer-spec", str(f))
        assert code == 0
        assert json.loads(out)["dependencies"] == []


class TestCorpusCommands:
    def test_build_and_stats(self, capsys, corpus_dir, tmp_path):
        out = tmp_path / "corpus.jsonl"
        code, stdout, _ = run(capsys, "corpus", "build", str(corpus_dir),
                              "--out", str(out), "--seed", "42")
        assert code == 0
        summary = json.loads(stdout)
        assert summary["entries"] == len(list(read_corpus_records(out)))
        assert summary["train"] + summary["eval"] + summary["test"] == summary["entries"]
        for suffix in ("train", "eval", "test", "pretrain"):
            assert (tmp_path / f"corpus.{suffix}.jsonl").exists()

        code, stdout, _ = run(capsys, "corpus", "stats", str(corpus_dir))
        assert code == 0
        stats = json.loads(stdout)
        assert stats["reasons"]["no-comments"] == 1
        assert stats["reasons"]["multi-stage"] == 1
        assert stats["eligible"] > 0

    def test_build_and_stats_print_the_same_reasons(self, capsys, tmp_path):
        directory = tmp_path / "fixtures"
        directory.mkdir()
        for path in FIXTURES.glob("*.Dockerfile"):
            (directory / path.name).write_bytes(path.read_bytes())
        code, built, _ = run(capsys, "corpus", "build", str(directory),
                             "--out", str(tmp_path / "corpus.jsonl"))
        assert code == 0
        code, stats, _ = run(capsys, "corpus", "stats", str(directory))
        assert code == 0
        reasons = json.loads(built)["reasons"]
        assert reasons == json.loads(stats)["reasons"]
        assert "duplicate" not in reasons

    def test_build_too_small_to_split_empties_earlier_splits(self, capsys, corpus_dir,
                                                             tmp_path):
        out = tmp_path / "corpus.jsonl"
        assert main(["corpus", "build", str(corpus_dir), "--out", str(out)]) == 0
        small = tmp_path / "small"
        small.mkdir()
        for name in ("tomcat-alpine.Dockerfile", "tomcat-ffmpeg.Dockerfile"):
            (small / name).write_bytes((FIXTURES / name).read_bytes())
        capsys.readouterr()
        code, stdout, err = run(capsys, "corpus", "build", str(small), "--out", str(out))
        assert code == 0
        assert err == "too few entries for an 80/10/10 split; corpus left unsplit\n"
        summary = json.loads(stdout)
        assert 0 < summary["entries"] == len(list(read_corpus_records(out))) < 10
        assert (summary["train"], summary["eval"], summary["test"]) == (0, 0, 0)
        for tag in ("train", "eval", "test"):
            assert (tmp_path / f"corpus.{tag}.jsonl").read_bytes() == b""
        pretrain = tmp_path / "corpus.pretrain.jsonl"
        assert len(pretrain.read_bytes().splitlines()) == summary["pretrain_entries"]

    def test_build_empty_directory(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, "corpus", "build", str(empty),
                           "--out", str(tmp_path / "c.jsonl"))
        assert code == 1
        assert "no eligible Dockerfiles" in err

    def test_build_deterministic_stdout(self, capsys, corpus_dir, tmp_path):
        out = tmp_path / "corpus.jsonl"
        args = ("corpus", "build", str(corpus_dir), "--out", str(out), "--seed", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestIndexAndGenerate:
    @pytest.fixture()
    def built(self, capsys, corpus_dir, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        index = tmp_path / "index.bin"
        assert main(["corpus", "build", str(corpus_dir), "--out", str(corpus)]) == 0
        assert main(["index", "build", str(corpus), "--out", str(index)]) == 0
        capsys.readouterr()
        return corpus, index

    def test_generate_returns_indexed_dockerfile(self, capsys, built, tmp_path):
        corpus, index = built
        spec, dockerfile = list(read_corpus_records(corpus))[0]
        spec_file = tmp_path / "query.json"
        spec_file.write_text(json.dumps(spec_to_dict(spec)))
        code, out, _ = run(capsys, "generate", "--spec", str(spec_file),
                           "--index", str(index))
        assert code == 0
        assert out == dockerfile

    def test_generate_top_k_json(self, capsys, built, tmp_path):
        corpus, index = built
        spec, dockerfile = list(read_corpus_records(corpus))[0]
        spec_file = tmp_path / "query.json"
        spec_file.write_text(json.dumps(spec_to_dict(spec)))
        code, out, _ = run(capsys, "generate", "--spec", str(spec_file),
                           "--index", str(index), "-k", "3")
        assert code == 0
        hits = json.loads(out)
        assert len(hits) == 3
        assert hits[0]["dockerfile"] == dockerfile
        assert hits[0]["score"] >= hits[1]["score"] >= hits[2]["score"]

    def test_generate_tfidf_method(self, capsys, built, tmp_path):
        corpus, index = built
        spec, dockerfile = list(read_corpus_records(corpus))[1]
        spec_file = tmp_path / "query.json"
        spec_file.write_text(json.dumps(spec_to_dict(spec)))
        code, out, _ = run(capsys, "generate", "--spec", str(spec_file),
                           "--index", str(index), "--method", "tfidf")
        assert code == 0
        assert out == dockerfile

    def test_generate_tfidf_top_k_bytes(self, capsys, built, tmp_path):
        corpus, index = built
        entries = list(read_corpus_records(corpus))
        spec_file = tmp_path / "query.json"
        spec_file.write_text(json.dumps(spec_to_dict(entries[2][0])))
        code, out, _ = run(capsys, "generate", "--spec", str(spec_file),
                           "--index", str(index), "--method", "tfidf", "-k", "3")
        expected = json.dumps(
            [{"doc_id": h.doc_id, "score": h.score, "dockerfile": h.dockerfile_text}
             for h in vector_retrieve_reference(entries[2][0], 3, entries)],
            sort_keys=True) + "\n"
        assert code == 0
        assert out == expected

    def test_generate_missing_index(self, capsys, tmp_path):
        spec_file = tmp_path / "query.json"
        spec_file.write_text("{}")
        code, _, _ = run(capsys, "generate", "--spec", str(spec_file),
                         "--index", str(tmp_path / "missing.bin"))
        assert code == 3

    def test_generate_invalid_spec(self, capsys, built, tmp_path):
        _, index = built
        spec_file = tmp_path / "query.json"
        spec_file.write_text('{"os": "alpine"}')
        code, _, err = run(capsys, "generate", "--spec", str(spec_file),
                           "--index", str(index))
        assert code == 1
        assert "missing" in err

    def test_index_build_on_garbage(self, capsys, tmp_path):
        garbage = tmp_path / "corpus.jsonl"
        garbage.write_text("not json\n")
        code, _, _ = run(capsys, "index", "build", str(garbage),
                         "--out", str(tmp_path / "i.bin"))
        assert code == 1


class TestEvaluateCommand:
    @pytest.fixture()
    def dirs(self, tmp_path):
        targets = tmp_path / "targets"
        outputs = tmp_path / "outputs"
        targets.mkdir()
        outputs.mkdir()
        target = ("FROM ubuntu:20.04\n\n# Install nginx\n"
                  "RUN apt-get update && apt-get install -y nginx\nEXPOSE 80\n")
        output = ("FROM ubuntu:20.04\n\n"
                  "RUN apt-get update && apt-get install -y nginx\nEXPOSE 80\n")
        for name in ("a.Dockerfile", "b.Dockerfile"):
            (targets / name).write_text(target)
            (outputs / name).write_text(output)
        return targets, outputs

    def test_single_system_report(self, capsys, dirs, tmp_path):
        targets, outputs = dirs
        report_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "evaluate", "--targets", str(targets),
                           "--outputs", str(outputs), "--report", str(report_path))
        assert code == 0
        payload = json.loads(out)
        system = payload["systems"]["outputs"]
        assert system["evaluated_pairs"] == 2
        assert system["adherence_means"]["dependencies"] == 1.0
        assert "comparisons" not in payload
        assert json.loads(report_path.read_text()) == payload

    def test_multi_system_comparisons(self, capsys, dirs, tmp_path):
        targets, outputs = dirs
        other = tmp_path / "other"
        other.mkdir()
        for name in ("a.Dockerfile", "b.Dockerfile"):
            (other / name).write_text("FROM debian:10-slim\nRUN echo different\n")
        code, out, _ = run(capsys, "evaluate", "--targets", str(targets),
                           "--outputs", str(outputs), "--outputs", str(other))
        assert code == 0
        payload = json.loads(out)
        assert set(payload["systems"]) == {"outputs", "other"}
        assert len(payload["comparisons"]) == 1
        comparison = payload["comparisons"][0]
        assert comparison["systems"] == ["other", "outputs"]
        assert "p_adjusted" in comparison

    def test_system_without_evaluated_pairs(self, capsys, dirs, tmp_path):
        targets, outputs = dirs
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("a.Dockerfile", "b.Dockerfile"):
            (broken / name).write_text("this is not a Dockerfile\n")
        code, out, err = run(capsys, "evaluate", "--targets", str(targets),
                             "--outputs", str(outputs), "--outputs", str(broken))
        assert code == 0
        payload = json.loads(out)
        assert payload["systems"]["broken"]["evaluated_pairs"] == 0
        assert payload["systems"]["broken"]["failed_pairs"] == 2
        assert payload["systems"]["broken"]["bleu4_mean"] is None
        assert payload["systems"]["outputs"]["bleu4_mean"] > 0.0
        assert payload["comparisons"] == []
        assert err == "system broken: no evaluated pairs; left out of comparisons\n"

    def test_each_target_parsed_once(self, capsys, monkeypatch, dirs, tmp_path):
        from dockerspec import evaluation

        targets, outputs = dirs
        (targets / "c.Dockerfile").write_text("FROM alpine:3.18\nRUN apk add curl\n")
        (outputs / "c.Dockerfile").write_text("FROM alpine:3.18\n")
        other = tmp_path / "other"
        shutil.copytree(outputs, other)
        calls = Counter()
        for name in ("parse_dockerfile", "infer_spec"):
            original = getattr(evaluation, name)
            monkeypatch.setattr(evaluation, name, lambda *args, name=name, original=original:
                                calls.update([name]) or original(*args))
        code, out, _ = run(capsys, "evaluate", "--targets", str(targets),
                           "--outputs", str(outputs), "--outputs", str(other))
        assert code == 0
        assert [s["evaluated_pairs"] for s in json.loads(out)["systems"].values()] == [3, 3]
        assert calls == {"parse_dockerfile": 9, "infer_spec": 9}

    def test_each_run_body_split_once(self, capsys, monkeypatch, tmp_path):
        """evaluate over the fixtures, with exact and trimmed copies as two
        systems, tokenizes each shell-form RUN body of each parsed document
        once (up to the first body with a syntax error)."""
        from dockerspec import dockerfile_syntax, evaluation

        dirs = {name: tmp_path / name for name in ("targets", "exact", "trimmed")}
        for directory in dirs.values():
            directory.mkdir()
        for path in sorted(FIXTURES.glob("*.Dockerfile")):
            text = path.read_text()
            trimmed = "".join(text.splitlines(keepends=True)[:-1])
            for name, output in (("targets", text), ("exact", text), ("trimmed", trimmed)):
                (dirs[name] / path.name).write_text(output)
        parsed = []
        parse = evaluation.parse_dockerfile
        monkeypatch.setattr(evaluation, "parse_dockerfile",
                            lambda text: parsed.append(parse(text)) or parsed[-1])
        calls = []
        parse_shell = dockerfile_syntax.parse_shell
        monkeypatch.setattr(dockerfile_syntax, "parse_shell",
                            lambda script: calls.append(script) or parse_shell(script))
        code, out, _ = run(capsys, "evaluate", "--targets", str(dirs["targets"]),
                           "--outputs", str(dirs["exact"]), "--outputs", str(dirs["trimmed"]))
        assert code == 0
        assert [s["evaluated_pairs"] for s in json.loads(out)["systems"].values()] == [3, 1]
        expected = []
        for doc in parsed:
            for inst in doc.instructions_of_kind("RUN"):
                if dockerfile_syntax.parse_exec_form(inst.raw_arguments) is None:
                    expected.append(inst.raw_arguments)
                    try:
                        parse_shell(inst.raw_arguments)
                    except ShellSyntaxError:
                        break
        assert expected
        assert calls == expected

    def test_report_equals_per_system_runs(self, capsys, tmp_path, word_lists):
        """Two systems over the fixtures, one with exact copies and one with
        each file minus its last line, against the report built from one
        evaluate_run per system."""
        dirs = {name: tmp_path / name for name in ("targets", "exact", "trimmed")}
        for directory in dirs.values():
            directory.mkdir()
        pairs = {"exact": [], "trimmed": []}
        for path in sorted(FIXTURES.glob("*.Dockerfile")):
            text = path.read_text()
            trimmed = "".join(text.splitlines(keepends=True)[:-1])
            for name, output in (("targets", text), ("exact", text), ("trimmed", trimmed)):
                (dirs[name] / path.name).write_text(output)
            pairs["exact"].append((text, text))
            pairs["trimmed"].append((text, trimmed))
        systems, distances = {}, {}
        for name, system_pairs in pairs.items():
            report = evaluate_run(system_pairs, word_lists)
            systems[name] = {"adherence_means": report.adherence_means,
                             "distance": report.distance_summary,
                             "bleu4_mean": report.bleu_mean,
                             "evaluated_pairs": report.evaluated_pairs,
                             "failed_pairs": report.failed_pairs}
            distances[name] = [r.distance.normalized for r in report.pair_results
                               if r.error is None]
        expected = json.dumps({"systems": systems,
                               "comparisons": compare_systems(distances)},
                              sort_keys=True, indent=2) + "\n"
        report_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "evaluate", "--targets", str(dirs["targets"]),
                           "--outputs", str(dirs["exact"]), "--outputs", str(dirs["trimmed"]),
                           "--report", str(report_path))
        assert code == 0
        assert systems["trimmed"]["failed_pairs"] > 0 and systems["trimmed"]["evaluated_pairs"]
        assert out == expected
        assert report_path.read_text() == expected

    def test_outputs_of_one_directory_name(self, capsys, dirs, tmp_path):
        """Two --outputs with one base name would be one system: a usage
        error before any file is read or the report is opened."""
        targets, outputs = dirs
        other = tmp_path / "elsewhere" / "outputs"
        other.mkdir(parents=True)
        (other / "a.Dockerfile").write_text("FROM alpine\n")
        report = tmp_path / "report.json"
        report.write_text("earlier report\n")
        code, out, err = run(capsys, "evaluate", "--targets", str(targets),
                             "--outputs", str(outputs), "--outputs", str(other),
                             "--report", str(report))
        assert code == 3
        assert out == ""
        assert err.splitlines()[-1] == (f"Error: --outputs {outputs} and {other} have the "
                                        "same directory name 'outputs'")
        assert report.read_text() == "earlier report\n"

    @pytest.mark.parametrize("given", [".", "sub/..", "../outputs/"])
    def test_system_named_by_resolved_directory(self, capsys, monkeypatch, dirs, given):
        """The name of ``.`` is empty and that of ``sub/..`` is ``..``: a
        system takes its name from the resolved path."""
        targets, outputs = dirs
        (outputs / "sub").mkdir()
        monkeypatch.chdir(outputs)
        code, out, _ = run(capsys, "evaluate", "--targets", str(targets), "--outputs", given)
        assert code == 0
        assert list(json.loads(out)["systems"]) == ["outputs"]

    def test_dot_and_plain_path_of_one_directory(self, capsys, monkeypatch, dirs):
        targets, outputs = dirs
        monkeypatch.chdir(outputs.parent)
        code, out, err = run(capsys, "evaluate", "--targets", str(targets),
                             "--outputs", "outputs", "--outputs", "./outputs")
        assert code == 3
        assert out == ""
        assert err.splitlines()[-1] == ("Error: --outputs outputs and ./outputs have the "
                                        "same directory name 'outputs'")

    def test_usage_error_without_dirs(self, capsys):
        code, _, err = run(capsys, "evaluate")
        assert code == 3

    def test_layers(self, capsys, tmp_path):
        original = tmp_path / "m1.json"
        generated = tmp_path / "m2.json"
        original.write_text(json.dumps(["a", "b", "c", "d"]))
        generated.write_text(json.dumps(["a", "x"]))
        code, out, _ = run(capsys, "evaluate", "layers", "--original", str(original),
                           "--generated", str(generated))
        assert code == 0
        assert json.loads(out) == {"digest_equal": False, "matching_layer_ratio": 0.25}

    def test_layers_with_image_digests(self, capsys, tmp_path):
        original = tmp_path / "m1.json"
        generated = tmp_path / "m2.json"
        manifest = {"image_digest": "sha256:same", "layers": ["a"]}
        original.write_text(json.dumps(manifest))
        generated.write_text(json.dumps(manifest))
        code, out, _ = run(capsys, "evaluate", "layers", "--original", str(original),
                           "--generated", str(generated))
        assert code == 0
        assert json.loads(out) == {"digest_equal": True, "matching_layer_ratio": 1.0}

    def test_layers_bad_manifest(self, capsys, tmp_path):
        original = tmp_path / "m1.json"
        generated = tmp_path / "m2.json"
        original.write_text('{"layers": "zzz"}')
        generated.write_text("[]")
        code, _, _ = run(capsys, "evaluate", "layers", "--original", str(original),
                         "--generated", str(generated))
        assert code == 1

    @pytest.mark.parametrize("digest", [{}, {"image_digest": None}, {"image_digest": ""}])
    @pytest.mark.parametrize("generated_layers, ratio", [(["a", "b"], 1.0), (["a"], 0.5)])
    def test_layers_missing_or_null_digest_is_unknown(self, capsys, tmp_path, digest,
                                                      generated_layers, ratio):
        original = tmp_path / "m1.json"
        generated = tmp_path / "m2.json"
        original.write_text(json.dumps({**digest, "layers": ["a", "b"]}))
        generated.write_text(json.dumps({**digest, "layers": generated_layers}))
        code, out, _ = run(capsys, "evaluate", "layers", "--original", str(original),
                           "--generated", str(generated))
        assert code == 0
        assert json.loads(out) == {"digest_equal": False, "matching_layer_ratio": ratio}

    @pytest.mark.parametrize("manifest", [
        {"image_digest": 5, "layers": ["a"]},
        {"image_digest": ["sha256:x"], "layers": ["a"]},
        {"image_digest": "sha256:x", "layers": [1, None]},
        {"layers": ["a", None]},
        {"image_digest": "sha256:x"},
        [1],
        "a",
    ])
    def test_layers_non_string_digest_is_one_line_error(self, capsys, tmp_path, manifest):
        original = tmp_path / "m1.json"
        generated = tmp_path / "m2.json"
        original.write_text(json.dumps(manifest))
        generated.write_text(json.dumps(["a"]))
        code, out, err = run(capsys, "evaluate", "layers", "--original", str(original),
                             "--generated", str(generated))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: manifest {original} must be a JSON list of digest strings")
        assert err.count("\n") == 1


NOT_UTF8 = b"FROM alpine\n# Install caf\xe9\nRUN apk add curl\n"
SPEC = DockerSpec(os="alpine", pkg_manager="apk", dependencies=frozenset({"curl"}))


def write_corpus(path):
    record = {"spec": spec_to_dict(SPEC), "dockerfile": "FROM alpine <nl>\n"}
    path.write_text(json.dumps(record) + "\n")
    return path


class TestBadInput:
    @pytest.mark.parametrize("command", ["parse", "infer-spec", "evaluate", "generate-spec",
                                         "evaluate-layers", "config", "os-words", "stop-words"])
    def test_non_utf8_file(self, capsys, tmp_path, command):
        targets, outputs = tmp_path / "targets", tmp_path / "outputs"
        for directory in (targets, outputs):
            directory.mkdir()
            (directory / "a.Dockerfile").write_bytes(NOT_UTF8)
        bad = str(targets / "a.Dockerfile")
        index, spec_file, manifest = (tmp_path / "index.bin", tmp_path / "query.json",
                                      tmp_path / "manifest.json")
        assert main(["index", "build", str(write_corpus(tmp_path / "c.jsonl")),
                     "--out", str(index)]) == 0
        spec_file.write_text(json.dumps(spec_to_dict(SPEC)))
        manifest.write_text(json.dumps(["a"]))
        capsys.readouterr()
        argv = {
            "evaluate": ["evaluate", "--targets", str(targets), "--outputs", str(outputs)],
            "generate-spec": ["generate", "--spec", bad, "--index", str(index)],
            "evaluate-layers": ["evaluate", "layers", "--original", bad,
                                "--generated", str(manifest)],
            "config": ["--config", bad, "parse", str(FIXTURES / "tomcat-ffmpeg.Dockerfile")],
            "os-words": ["infer-spec", str(FIXTURES / "tomcat-ffmpeg.Dockerfile"),
                         "--os-words", bad],
            "stop-words": ["infer-spec", str(FIXTURES / "tomcat-ffmpeg.Dockerfile"),
                           "--stop-words", bad],
        }.get(command, [command, bad])
        code, out, err = run(capsys, *argv)
        # the exit code that malformed content in a file of that kind gets
        assert code == (3 if command in ("config", "os-words", "stop-words") else 1)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not UTF-8" in err
        assert err == f"error: {bad}:2: not UTF-8 text: invalid continuation byte at byte 25\n"

    @pytest.mark.parametrize("data, message", [
        pytest.param(b'{"spec": "caf\xe9"}\n',
                     "1: not UTF-8 text: invalid continuation byte at byte 13", id="line-1"),
        # the JSONL readers name the first bad line: line 1 is not JSON
        pytest.param(NOT_UTF8, {"index-build": "1: not a JSONL record: Expecting value",
                                "generate-index": " not an index file: Expecting value"},
                     id="file-order"),
    ])
    @pytest.mark.parametrize("command", ["index-build", "generate-index"])
    def test_non_utf8_jsonl_file(self, capsys, tmp_path, command, data, message):
        bad = tmp_path / "input"
        bad.write_bytes(data)
        spec_file = tmp_path / "query.json"
        spec_file.write_text(json.dumps(spec_to_dict(SPEC)))
        argv = {
            "index-build": ["index", "build", str(bad), "--out", str(tmp_path / "i.bin")],
            "generate-index": ["generate", "--spec", str(spec_file), "--index", str(bad)],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        message = message if isinstance(message, str) else message[command]
        assert err.startswith(f"error: {bad}:{message}") and err.count("\n") == 1

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("command", ["parse", "infer-spec", "index-build", "os-words"])
    def test_non_utf8_byte_past_line_one_named(self, capsys, tmp_path, newline, command):
        good = json.dumps({"spec": spec_to_dict(SPEC), "dockerfile": "FROM alpine <nl>"})
        head = {"index-build": [good, "", good]}.get(
            command, ["# Install curl", "FROM alpine", "RUN apk add curl"])
        data = newline.join(head + ["x"]).encode() + b"\xff" + newline.encode()
        bad = tmp_path / "input"
        bad.write_bytes(data)
        argv = {
            "index-build": ["index", "build", str(bad), "--out", str(tmp_path / "i.bin")],
            "os-words": ["infer-spec", str(FIXTURES / "tomcat-ffmpeg.Dockerfile"),
                         "--os-words", str(bad)],
        }.get(command, [command, str(bad)])
        code, out, err = run(capsys, *argv)
        assert code == (3 if command == "os-words" else 1)
        assert out == ""
        start = data.index(b"\xff")
        assert err == f"error: {bad}:4: not UTF-8 text: invalid start byte at byte {start}\n"

    @pytest.mark.parametrize("command", ["index-build", "corpus-build", "evaluate-report"])
    def test_output_under_a_regular_file(self, capsys, tmp_path, corpus_dir, command):
        regular = tmp_path / "some.Dockerfile"
        regular.write_text("FROM alpine\n")
        out_path = str(regular / "x.out")
        files = tmp_path / "files"
        files.mkdir()
        (files / "a.Dockerfile").write_bytes((FIXTURES / "tomcat-alpine.Dockerfile").read_bytes())
        argv = {
            "index-build": ["index", "build", str(write_corpus(tmp_path / "c.jsonl")),
                            "--out", out_path],
            "corpus-build": ["corpus", "build", str(corpus_dir), "--out", out_path],
            "evaluate-report": ["evaluate", "--targets", str(files), "--outputs", str(files),
                                "--report", out_path],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Not a directory" in err and out_path in err

    def test_report_path_checked_before_any_pair(self, capsys, monkeypatch, tmp_path):
        from dockerspec import evaluation

        calls = []
        monkeypatch.setattr(evaluation, "evaluate_pair", lambda *args: calls.append(args))
        regular = tmp_path / "some.Dockerfile"
        regular.write_text("FROM alpine\n")
        report = str(regular / "report.json")
        code, out, err = run(capsys, "evaluate", "--targets", str(FIXTURES),
                             "--outputs", str(FIXTURES), "--report", report)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Not a directory" in err and report in err
        assert calls == []

    @pytest.mark.parametrize("under, message", [
        ("some.Dockerfile", "[Errno 20] Not a directory"),
        ("missing-directory", "[Errno 2] No such file or directory"),
    ])
    @pytest.mark.parametrize("command", ["index-build", "corpus-build"])
    def test_output_path_checked_before_any_work(self, capsys, monkeypatch, tmp_path,
                                                 corpus_dir, command, under, message):
        from dockerspec import corpus_pipeline, retrieval_engine

        calls = []
        for module, name in [(corpus_pipeline, "ingest_directory"),
                             (corpus_pipeline, "read_corpus_records"),
                             (retrieval_engine, "build_index")]:
            monkeypatch.setattr(module, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        (tmp_path / "some.Dockerfile").write_text("FROM alpine\n")
        out_path = str(tmp_path / under / "x.out")
        argv = {
            "index-build": ["index", "build", str(write_corpus(tmp_path / "c.jsonl")),
                            "--out", out_path],
            "corpus-build": ["corpus", "build", str(corpus_dir), "--out", out_path],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == f"error: {message}: {out_path!r}\n"
        assert calls == []

    @pytest.mark.parametrize("command", ["index-build", "corpus-build", "evaluate-report"])
    def test_empty_output_path(self, capsys, monkeypatch, tmp_path, corpus_dir, command):
        # an empty path fails as open("") does, before any input is read
        from dockerspec import corpus_pipeline

        calls = []
        for name in ("ingest_directory", "read_corpus_records"):
            monkeypatch.setattr(corpus_pipeline, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        monkeypatch.setattr("dockerspec.cli._read_pairs",
                            lambda *args: calls.append("_read_pairs"))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = {
            "index-build": ["index", "build", str(write_corpus(tmp_path / "c.jsonl")),
                            "--out", ""],
            "corpus-build": ["corpus", "build", str(corpus_dir), "--out", ""],
            "evaluate-report": ["evaluate", "--targets", str(FIXTURES),
                                "--outputs", str(FIXTURES), "--report", ""],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert calls == []
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("tag", ["pretrain", "train", "eval", "test"])
    def test_corpus_build_checks_every_output_before_writing(self, capsys, tmp_path,
                                                            corpus_dir, tag):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        sibling = out_dir / f"c.{tag}.jsonl"
        sibling.mkdir()
        code, out, err = run(capsys, "corpus", "build", str(corpus_dir),
                             "--out", str(out_dir / "c.jsonl"))
        assert code == 3
        assert out == ""
        assert err == f"error: [Errno 21] Is a directory: {str(sibling)!r}\n"
        assert list(out_dir.iterdir()) == [sibling]

    def test_unreadable_pair_leaves_report_untouched(self, capsys, tmp_path):
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        (outputs / "tomcat-ffmpeg.Dockerfile").write_bytes(NOT_UTF8)
        report = tmp_path / "report.json"
        report.write_text("earlier report\n")
        code, out, err = run(capsys, "evaluate", "--targets", str(FIXTURES),
                             "--outputs", str(FIXTURES), "--outputs", str(outputs),
                             "--report", str(report))
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith(f"error: {outputs}")
        assert report.read_text() == "earlier report\n"

    @pytest.mark.parametrize("case, content, code, message", [
        ("spec", '{"os": "alpine"}', 1, "missing field(s): pkg_manager"),
        ("spec", "{bad", 1, "invalid JSON: Expecting property name"),
        ("index", "not json", 1, "not an index file: Expecting value"),
        ("index", '{"magic": "x"}', 1, "not an index file (bad magic header)"),
        ("index", '{"magic": "dockerspec-index", "version": 9}', 1,
         "unsupported index version 9"),
        ("index", '{"magic": "dockerspec-index", "version": 2}', 1,
         "index file lacks key 'k1'"),
        ("index", '{"b": 0.75, "k1": 1.2, "magic": "dockerspec-index", "version": 2}\n', 1,
         "malformed index file: cannot index an empty corpus"),
        ("config", "{bad", 3, "bad config file: Expecting property name"),
    ])
    def test_content_error_names_the_file(self, capsys, tmp_path, case, content, code,
                                          message):
        spec, index, config = (tmp_path / "query.json", tmp_path / "index.bin",
                               tmp_path / "config.json")
        spec.write_text(json.dumps(spec_to_dict(SPEC)))
        assert main(["index", "build", str(write_corpus(tmp_path / "c.jsonl")),
                     "--out", str(index)]) == 0
        capsys.readouterr()
        bad = {"spec": spec, "index": index, "config": config}[case]
        bad.write_text(content)
        argv = ["generate", "--spec", str(spec), "--index", str(index)]
        if case == "config":
            argv = ["--config", str(config)] + argv
        status, out, err = run(capsys, *argv)
        assert status == code
        assert out == ""
        assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["infer-spec", "corpus-build", "corpus-stats",
                                         "evaluate"])
    @pytest.mark.parametrize("flag,words", [("--os-words", "alpine\nlatest\n"),
                                            ("--stop-words", "ubuntu\n")],
                             ids=["os-words", "stop-words"])
    def test_overlapping_word_lists(self, capsys, tmp_path, corpus_dir, command, flag, words):
        words_file = tmp_path / "words.txt"
        words_file.write_text(words)
        argv = {
            "infer-spec": ["infer-spec", str(FIXTURES / "tomcat-ffmpeg.Dockerfile")],
            "corpus-build": ["corpus", "build", str(corpus_dir),
                             "--out", str(tmp_path / "c.jsonl")],
            "corpus-stats": ["corpus", "stats", str(corpus_dir)],
            "evaluate": ["evaluate", "--targets", str(corpus_dir), "--outputs", str(corpus_dir)],
        }[command]
        code, out, err = run(capsys, *argv, flag, str(words_file))
        assert code == 3
        assert out == ""
        overlap = "latest" if flag == "--os-words" else "ubuntu"
        assert err == f"error: bad word lists: os/stop word lists overlap: ['{overlap}']\n"

    @pytest.mark.parametrize("config", [[1, 2], "defaults", {"corpus": 5},
                                        {"corpus": {"build": [1]}}])
    def test_config_not_an_object(self, capsys, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "--config", str(path), "parse",
                             str(FIXTURES / "tomcat-ffmpeg.Dockerfile"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "JSON object" in err

    @pytest.mark.parametrize("key", ["k1", "b", "magic", "version"])
    def test_generate_on_index_without_key(self, capsys, tmp_path, key):
        index = tmp_path / "index.bin"
        assert main(["index", "build", str(write_corpus(tmp_path / "c.jsonl")),
                     "--out", str(index)]) == 0
        header, records = index_lines(index)
        del header[key]
        write_index(index, header, records)
        spec_file = tmp_path / "query.json"
        spec_file.write_text(json.dumps(spec_to_dict(SPEC)))
        capsys.readouterr()
        code, out, err = run(capsys, "generate", "--spec", str(spec_file), "--index", str(index))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    def test_index_build_names_line_of_bad_spec(self, capsys, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl")
        with corpus.open("a") as handle:
            handle.write("\n" + json.dumps({"spec": {"os": "alpine"}, "dockerfile": "x"}) + "\n")
        code, out, err = run(capsys, "index", "build", str(corpus),
                             "--out", str(tmp_path / "index.bin"))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {corpus}:3: missing field(s): pkg_manager")
        assert err.count("\n") == 1

    def test_index_build_names_the_first_bad_line(self, capsys, tmp_path):
        # each record is checked when the reader reaches it: the bad spec on
        # line 2 is met before the line that is not JSON
        good = json.dumps({"spec": spec_to_dict(SPEC), "dockerfile": "x"})
        bad_spec = json.dumps({"spec": {"os": "alpine"}, "dockerfile": "x"})
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join([good, bad_spec, good, "{not json", good]) + "\n")
        code, out, err = run(capsys, "index", "build", str(corpus),
                             "--out", str(tmp_path / "index.bin"))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {corpus}:2: missing field(s): pkg_manager")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("good_lines", [0, 1000])
    def test_index_build_names_bad_spec_before_undecodable_bytes(self, capsys, tmp_path,
                                                                 good_lines):
        # each line is decoded when the reader reaches it, at any distance
        good = json.dumps({"spec": spec_to_dict(SPEC), "dockerfile": "x"})
        bad_spec = json.dumps({"spec": {"os": "alpine"}, "dockerfile": "x"})
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(f"{good}\n{bad_spec}\n".encode()
                           + (good + "\n").encode() * good_lines + b"\xff\n")
        code, out, err = run(capsys, "index", "build", str(corpus),
                             "--out", str(tmp_path / "index.bin"))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {corpus}:2: missing field(s): pkg_manager")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_index_build_reads_a_raw_carriage_return_as_whitespace(self, capsys, tmp_path,
                                                                   newline):
        line = json.dumps({"spec": spec_to_dict(SPEC), "dockerfile": "FROM alpine <nl>\n"})
        assert ", " in line
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes((line.replace(", ", ",\r ", 1) + newline).encode())
        index = tmp_path / "index.bin"
        code, out, err = run(capsys, "index", "build", str(corpus), "--out", str(index))
        assert (code, err) == (0, "")
        assert json.loads(out)["documents"] == 1
        assert index_lines(index)[1] == [json.dumps(
            {"dockerfile": "FROM alpine <nl>\n", "spec": spec_to_dict(SPEC)},
            sort_keys=True) + "\n"]

    @pytest.mark.parametrize("record", [
        {"spec": {"os": "alpine"}, "dockerfile": "x"},
        {"spec": spec_to_dict(SPEC)},
    ])
    def test_index_build_bad_record_leaves_out_file_unchanged(self, capsys, tmp_path, record):
        corpus = write_corpus(tmp_path / "c.jsonl")
        with corpus.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        index = tmp_path / "index.bin"
        index.write_bytes(b"earlier index\n")
        code, out, err = run(capsys, "index", "build", str(corpus), "--out", str(index))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {corpus}:2: ")
        assert index.read_bytes() == b"earlier index\n"

    def test_generate_names_line_of_bad_index_spec(self, capsys, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl")
        corpus.write_text(corpus.read_text() * 3)
        index = tmp_path / "index.bin"
        assert main(["index", "build", str(corpus), "--out", str(index)]) == 0
        header, records = index_lines(index)
        records[1] = json.dumps({"spec": {"os": "alpine"}, "dockerfile": "x"}) + "\n"
        write_index(index, header, records)
        spec_file = tmp_path / "query.json"
        spec_file.write_text(json.dumps(spec_to_dict(SPEC)))
        capsys.readouterr()
        code, out, err = run(capsys, "generate", "--spec", str(spec_file), "--index", str(index))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {index}:3: missing field(s): pkg_manager")
        assert err.count("\n") == 1

    def test_generate_on_version_one_index_asks_for_rebuild(self, capsys, tmp_path):
        # version 1 wrote one JSON document, the entries inside it
        index = tmp_path / "index.bin"
        entry = {"dockerfile": "FROM alpine <nl>\n", "spec": spec_to_dict(SPEC)}
        index.write_text(json.dumps({"b": 0.75, "entries": [entry], "k1": 1.2,
                                     "magic": "dockerspec-index", "version": 1}, sort_keys=True))
        spec_file = tmp_path / "query.json"
        spec_file.write_text(json.dumps(spec_to_dict(SPEC)))
        code, out, err = run(capsys, "generate", "--spec", str(spec_file), "--index", str(index))
        assert code == 1
        assert out == ""
        assert err == (f"error: {index}: unsupported index version 1; "
                       "rerun `index build` to write version 2\n")

    @pytest.mark.parametrize("command", ["parse", "infer-spec"])
    @pytest.mark.parametrize("text, message", [
        ("# escape=`\nFROM mcr.microsoft.com/windows/servercore\nRUN dir `\n    c:\\\n",
         "line 1: parser directive '# escape=`' is not supported"),
        ("# Install git\nFROM alpine:3.18\nRUN <<EOF\napk add git\nEOF\n",
         "line 3: heredoc (<<) in RUN is not supported"),
    ])
    def test_directive_and_heredoc_named(self, capsys, tmp_path, command, text, message):
        dockerfile = tmp_path / "Dockerfile"
        dockerfile.write_text(text)
        code, out, err = run(capsys, command, str(dockerfile))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--k1", "nan"], ["--k1", "-5"], ["--k1", "inf"],
                                       ["--b", "7"], ["--b", "-0.1"], ["--b", "nan"]])
    def test_index_build_rejects_bad_bm25_parameters(self, capsys, monkeypatch, tmp_path,
                                                     flags):
        from dockerspec import corpus_pipeline

        # checked before the corpus is read
        calls = []
        monkeypatch.setattr(corpus_pipeline, "read_corpus_records",
                            lambda *args: calls.append(args))
        index = tmp_path / "index.bin"
        code, out, err = run(capsys, "index", "build", str(write_corpus(tmp_path / "c.jsonl")),
                             "--out", str(index), *flags)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {flags[0][2:]} must be a") and err.count("\n") == 1
        assert not index.exists()
        assert calls == []

    @pytest.mark.parametrize("method", ["bm25", "tfidf"])
    @pytest.mark.parametrize("key, value, message", [
        ("records", [], ": malformed index file: cannot index an empty corpus"),
        ("records", ["[1]\n"], ":2: record must carry spec and a dockerfile string"),
        ("records", [json.dumps({"spec": spec_to_dict(SPEC)}) + "\n"],
         ":2: record must carry spec and a dockerfile string"),
        ("k1", True, ": malformed index file: k1 must be a finite number >= 0, got True"),
        ("k1", 10 ** 400, ": malformed index file: k1 must be a finite number >= 0, got 1000"),
        ("b", True, ": malformed index file: b must be a number in [0, 1], got True"),
    ])
    def test_generate_names_index_with_bad_records_or_parameters(self, capsys, tmp_path,
                                                                 method, key, value, message):
        index = tmp_path / "index.bin"
        assert main(["index", "build", str(write_corpus(tmp_path / "c.jsonl")),
                     "--out", str(index)]) == 0
        header, records = index_lines(index)
        if key == "records":
            records = value
        else:
            header[key] = value
        write_index(index, header, records)
        spec_file = tmp_path / "query.json"
        spec_file.write_text(json.dumps(spec_to_dict(SPEC)))
        capsys.readouterr()
        code, out, err = run(capsys, "generate", "--spec", str(spec_file), "--index", str(index),
                             "--method", method)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {index}{message}") and err.count("\n") == 1

    @pytest.mark.parametrize("max_tokens", ["0", "-3"])
    def test_corpus_build_rejects_max_tokens_below_one(self, capsys, corpus_dir, tmp_path,
                                                       max_tokens):
        out = tmp_path / "corpus.jsonl"
        code, stdout, err = run(capsys, "corpus", "build", str(corpus_dir), "--out", str(out),
                                "--max-tokens", max_tokens)
        assert code == 3
        assert stdout == ""
        assert err == "error: --max-tokens must be at least 1\n"
        assert list(tmp_path.glob("corpus*")) == []

    def test_corpus_build_names_the_cap_when_all_are_over_it(self, capsys, corpus_dir,
                                                             tmp_path):
        out = tmp_path / "corpus.jsonl"
        code, stdout, err = run(capsys, "corpus", "build", str(corpus_dir), "--out", str(out),
                                "--max-tokens", "1")
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: no eligible Dockerfiles within --max-tokens 1: all ")
        assert err.endswith(" are over it\n") and err.count("\n") == 1
        assert list(tmp_path.glob("corpus*")) == []


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """One byte-order mark at the start of any input file is ignored: each
    reader gives the same result with the mark as without it."""

    @staticmethod
    def inputs(tmp_path):
        """Per reader: the input file's bytes, and the argv reading it."""
        corpus = write_corpus(tmp_path / "corpus.jsonl")
        index, spec_file = tmp_path / "index.bin", tmp_path / "query.json"
        assert main(["index", "build", str(corpus), "--out", str(index)]) == 0
        spec_file.write_text(json.dumps(spec_to_dict(SPEC)))
        dockerfile = tmp_path / "alpine.Dockerfile"
        dockerfile.write_text("FROM alpine:3.14\nRUN apk add --no-cache curl\n")
        generate = ["generate", "--spec", str(spec_file), "--index", str(index)]
        return {
            "spec": (spec_file.read_bytes(), lambda p: ["generate", "--spec", p, "--index",
                                                         str(index)]),
            "corpus": (corpus.read_bytes(), lambda p: ["index", "build", p, "--out",
                                                       str(tmp_path / "out.bin")]),
            "index": (index.read_bytes(), lambda p: ["generate", "--spec", str(spec_file),
                                                     "--index", p]),
            "config": (json.dumps({"generate": {"k": 1}}).encode(),
                       lambda p: ["--config", p] + generate),
            # a word read as "\ufeffalpine" would not name alpine's os
            "word-list": (b"alpine\n", lambda p: ["infer-spec", str(dockerfile),
                                                   "--os-words", p]),
            "manifest": (json.dumps(["a", "b"]).encode(),
                         lambda p: ["evaluate", "layers", "--original", p,
                                    "--generated", p]),
        }

    @pytest.mark.parametrize("reader", ["spec", "corpus", "index", "config", "word-list",
                                        "manifest"])
    def test_ignored_by_every_reader(self, capsys, tmp_path, reader):
        data, argv = self.inputs(tmp_path)[reader]
        path = tmp_path / "input"
        results = []
        for prefix in (b"", BOM):
            path.write_bytes(prefix + data)
            capsys.readouterr()
            code, out, err = run(capsys, *argv(str(path)))
            written = (tmp_path / "out.bin").read_bytes() if reader == "corpus" else None
            results.append((code, out, err, written))
        assert results[0][0] == 0
        assert results[1] == results[0]
        if reader == "word-list":
            assert json.loads(results[0][1])["os"] == "alpine314"

    def test_dockerfile_sha1_is_that_of_the_text_without_it(self, capsys, tmp_path):
        original = FIXTURES / "tomcat-ffmpeg.Dockerfile"
        sha1 = {}
        for name, prefix in (("plain", b""), ("bom", BOM)):
            directory = tmp_path / name
            directory.mkdir()
            (directory / "a.Dockerfile").write_bytes(prefix + original.read_bytes())
            out = tmp_path / f"{name}.jsonl"
            assert main(["corpus", "build", str(directory), "--out", str(out)]) == 0
            [record] = [json.loads(line) for line in out.read_text().splitlines()]
            sha1[name] = record["sha1"]
        assert sha1["bom"] == sha1["plain"]


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 3

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "infer-spec" in out

    def test_subcommand_help(self, capsys):
        for args in (["parse", "--help"], ["corpus", "build", "--help"],
                     ["index", "build", "--help"], ["generate", "--help"],
                     ["evaluate", "--help"], ["evaluate", "layers", "--help"]):
            assert main(args) == 0
        capsys.readouterr()

    def test_config_file_defaults(self, capsys, corpus_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": {"build": {"seed": 99}}}))
        out = tmp_path / "corpus.jsonl"
        code, stdout, _ = run(capsys, "--config", str(config), "corpus", "build",
                              str(corpus_dir), "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["seed"] == 99

    def test_flags_beat_config(self, capsys, corpus_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": {"build": {"seed": 99}}}))
        out = tmp_path / "corpus.jsonl"
        code, stdout, _ = run(capsys, "--config", str(config), "corpus", "build",
                              str(corpus_dir), "--out", str(out), "--seed", "5")
        assert code == 0
        assert json.loads(stdout)["seed"] == 5


# Dockerfile-shaped bytes for the CLI fuzz test, beside arbitrary bytes
_LINES = st.sampled_from([
    "FROM alpine:3.18", "FROM ubuntu:22.04", "FROM", "# Install git curl", "# escape=`",
    "RUN apk add --no-cache git", "RUN apt-get install -y curl && \\", "RUN echo 'x",
    "RUN <<EOF", "RUN wget http://x/y.tgz", 'CMD ["run"]', "EXPOSE 80", "LABEL", "",
    "not an instruction",
])
_DOCKERFILE_BYTES = st.lists(st.one_of(_LINES, st.text(max_size=10)), max_size=8).map(
    lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass"))


@pytest.mark.parametrize("command", ["parse", "infer-spec"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.one_of(st.binary(), _DOCKERFILE_BYTES))
def test_arbitrary_bytes_exit_cleanly(capsys, tmp_path, command, content):
    dockerfile = tmp_path / "Dockerfile"
    dockerfile.write_bytes(content)
    code, out, err = run(capsys, command, str(dockerfile))
    assert code in (0, 1, 2)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
