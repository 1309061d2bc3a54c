"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated tolerance and time budget."""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import write_corpus_files
from dockerspec.cli import main
from dockerspec.corpus_pipeline import (
    SpecCluster,
    build_corpus,
    cluster_by_spec,
    dedup,
    ingest_directory,
    normalize_for_training,
    read_corpus_records,
    select_representative,
    split_dataset,
)
from dockerspec.dockerfile_syntax import parse_dockerfile
from dockerspec.errors import TooFewEntries
from dockerspec.evaluation import (
    adherence,
    benjamini_hochberg,
    bleu4,
    cliffs_delta,
    evaluate_run,
    mann_whitney_u,
    normalized_distance,
    tree_edit_distance,
)
from dockerspec.retrieval_engine import build_index, render_spec_fields, retrieve
from dockerspec.spec_inference import infer_spec
from dockerspec.spec_model import serialize_spec
from oracles import (
    direct_cliffs_delta,
    naive_bm25_rankings,
    naive_tree_edit_distance,
    permutation_mann_whitney_p,
    random_tree,
    random_valid_spec,
    rankings_agree,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s")
    print(f"ACCEPTANCE PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_os_inference_examples(capsys):
    with criterion(1, "worked OS-inference examples via infer-spec", 1.0):
        assert main(["infer-spec", str(FIXTURES / "tomcat-alpine.Dockerfile")]) == 0
        alpine = json.loads(capsys.readouterr().out)
        assert alpine["os"] == "alpine"
        assert "tomcat" in alpine["dependencies"]

        assert main(["infer-spec", str(FIXTURES / "debian-slim.Dockerfile")]) == 0
        debian = json.loads(capsys.readouterr().out)
        assert debian["os"] == "debian10"


def test_criterion_2_tomcat_ffmpeg_end_to_end(tomcat_ffmpeg_text, word_lists):
    with criterion(2, "Tomcat+FFMpeg example infers the full spec", 1.0):
        spec = infer_spec(parse_dockerfile(tomcat_ffmpeg_text), word_lists)
        assert {"tomcat", "x265", "ffmpeg"} <= spec.dependencies
        assert spec.pkg_manager == "apt"
        assert spec.downloads_external is True
        assert not any([spec.uses_env, spec.uses_arg, spec.uses_label,
                        spec.uses_expose, spec.uses_cmd, spec.uses_entrypoint])


def test_criterion_3_tree_edit_distance_oracle():
    with criterion(3, "Zhang-Shasha equals exhaustive oracle on 500 tree pairs", 60.0):
        rng = random.Random(20260809)
        agreements = 0
        for _ in range(500):
            a = random_tree(rng, 5)
            b = random_tree(rng, 5)
            if tree_edit_distance(a, b) == naive_tree_edit_distance(a, b):
                agreements += 1
        assert agreements == 500


def test_criterion_4_bm25_oracle():
    with criterion(4, "BM25 rankings equal naive full scan on 100 queries", 10.0):
        rng = random.Random(404)
        specs = [random_valid_spec(rng) for _ in range(200)]
        index = build_index([(s, f"doc{i}") for i, s in enumerate(specs)])
        agreements = 0
        for _ in range(100):
            query = random_valid_spec(rng)
            hits = retrieve(query, len(specs), index)
            oracle = naive_bm25_rankings(query, specs, render=render_spec_fields)
            order = [h.doc_id for h in hits]
            if rankings_agree(order, oracle) and sorted(order) == list(range(200)):
                agreements += 1
        assert agreements == 100


def test_criterion_5_statistics_oracles():
    with criterion(5, "statistics match enumeration oracles and hand-worked values", 30.0):
        rng = random.Random(55)
        for n_a in range(1, 10):
            for n_b in range(1, 11 - n_a):
                for _ in range(6):
                    a = [rng.randint(0, 3) / 2.0 for _ in range(n_a)]
                    b = [rng.randint(0, 3) / 2.0 for _ in range(n_b)]
                    _, p = mann_whitney_u(a, b)
                    assert abs(p - permutation_mann_whitney_p(a, b)) <= 1e-9
        for _ in range(200):
            a = [rng.randint(0, 6) for _ in range(rng.randint(1, 7))]
            b = [rng.randint(0, 6) for _ in range(rng.randint(1, 7))]
            assert cliffs_delta(a, b)[0] == direct_cliffs_delta(a, b)
        assert benjamini_hochberg([0.01, 0.04]) == pytest.approx([0.02, 0.04])


def test_criterion_6_pipeline_invariants(tmp_path, word_lists):
    with criterion(6, "pipeline invariants on a 50+ file fixture corpus", 30.0):
        directory = tmp_path / "fixture-corpus"
        paths = write_corpus_files(directory)
        assert len(paths) >= 50
        entries, _ = ingest_directory(directory, word_lists)

        deduped = dedup(entries)
        assert dedup(deduped) == deduped

        for seed in range(5):
            split = split_dataset(deduped, seed)
            n = len(deduped)
            parts = (split.train, split.evaluation, split.test)
            assert sum(len(p) for p in parts) == n
            seen = [e.content_hash for p in parts for e in p]
            assert sorted(seen) == sorted(e.content_hash for e in deduped)
            for part, share in zip(parts, (0.8, 0.1, 0.1)):
                assert abs(len(part) - share * n) <= 1

        clusters = [c for c in cluster_by_spec(deduped) if len(c.members) > 1]
        assert clusters, "fixture corpus must produce multi-member clusters"
        shuffle_rng = random.Random(0)
        for cluster in clusters:
            chosen = select_representative(cluster).content_hash
            for _ in range(20):
                members = list(cluster.members)
                shuffle_rng.shuffle(members)
                permuted = SpecCluster(cluster.spec, members)
                assert select_representative(permuted).content_hash == chosen

        for entry in deduped:
            once = entry.training_text
            twice = normalize_for_training(parse_dockerfile(once))
            assert once == twice


def test_criterion_7_metric_identities(word_lists):
    with criterion(7, "metric identities over randomized inputs", 30.0):
        rng = random.Random(777)
        for _ in range(100):
            spec = random_valid_spec(rng)
            report = adherence(spec, spec)
            assert all(v == 1.0 for v in report.field_scores.values())
        for _ in range(100):
            tree = random_tree(rng, 8)
            assert normalized_distance(tree, tree).normalized == 0.0
        for _ in range(50):
            tokens = [rng.choice("abcdefgh") for _ in range(rng.randint(4, 20))]
            assert bleu4(tokens, tokens) == pytest.approx(1.0)


def test_criterion_8_end_to_end_smoke(tmp_path, word_lists, capsys):
    with criterion(8, "retrieval beats a random corpus file on 8+ of 10 seeds", 60.0):
        directory = tmp_path / "fixture-corpus"
        write_corpus_files(directory)

        # one full pass through the CLI surface
        corpus_path = tmp_path / "corpus.jsonl"
        index_path = tmp_path / "index.bin"
        assert main(["corpus", "build", str(directory), "--out", str(corpus_path)]) == 0
        assert main(["index", "build", str(corpus_path), "--out", str(index_path)]) == 0
        spec, _ = next(read_corpus_records(corpus_path))
        query_path = tmp_path / "query.json"
        query_path.write_text(serialize_spec(spec))
        assert main(["generate", "--spec", str(query_path),
                     "--index", str(index_path)]) == 0
        generated = capsys.readouterr().out
        assert generated.strip()

        entries, _ = ingest_directory(directory, word_lists)
        trials_won = 0
        for seed in range(10):
            result = build_corpus(entries, seed=seed)
            assert result.split is not None
            trial_rng = random.Random(seed)
            target = trial_rng.choice(result.split.test)
            train = [(e.spec, e.training_text) for e in result.split.train]
            index = build_index(train)
            retrieved_text = retrieve(target.spec, 1, index)[0].dockerfile_text
            random_text = trial_rng.choice(train)[1]
            target_text = Path(target.source).read_text(encoding="utf-8")

            retrieved_report = evaluate_run([(target_text, retrieved_text)], word_lists)
            random_report = evaluate_run([(target_text, random_text)], word_lists)
            assert retrieved_report.evaluated_pairs == 1
            assert random_report.evaluated_pairs == 1
            retrieved_recall = retrieved_report.adherence_means["dependencies"]
            random_recall = random_report.adherence_means["dependencies"]
            if retrieved_recall >= random_recall:
                trials_won += 1
        assert trials_won >= 8
