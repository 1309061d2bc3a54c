"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import generate
import hostspeed
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"attempted"')]


def test_smoke_runs_every_workload_with_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    results = _results(proc.stdout)
    assert len(results) == 2 * len(BENCHMARK["workloads"])
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for untraced, traced in zip(results[0::2], results[1::2]):
        for result in (untraced, traced):
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(untraced["metrics"]) == end_to_end
        assert all(m["value"] > 0 for m in untraced["metrics"].values())
        assert set(traced["metrics"]) == per_layer


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_generators_are_seeded(tmp_path):
    for seed_dir in ("a", "b"):
        generate.write_corpus(tmp_path / seed_dir / "corpus", 3, 0.04)
        generate.write_evaluate(tmp_path / seed_dir / "evaluate", 3, 0.04)
    generate.write_corpus(tmp_path / "c" / "corpus", 4, 0.04)
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert _tree_bytes(tmp_path / "a" / "corpus") != _tree_bytes(tmp_path / "c" / "corpus")
    first, again = generate.retrieve_inputs(3, 0.04), generate.retrieve_inputs(3, 0.04)
    assert first == again


def test_corpus_families_each_infer_one_spec(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from dockerspec import corpus_pipeline, default_word_lists

    manifest = generate.write_corpus(tmp_path, 5, 0.1)
    entries, reasons = corpus_pipeline.ingest_directory(tmp_path, default_word_lists())
    clusters = corpus_pipeline.cluster_by_spec(corpus_pipeline.dedup(entries))
    assert sorted(len(c.members) for c in clusters) == sorted(manifest.family_sizes)
    assert reasons["eligible"] == len(entries) == sum(manifest.family_sizes) + \
        manifest.rejects["duplicate"]


def test_retrieve_specs_are_distinct_and_queries_held_out():
    inputs = generate.retrieve_inputs(6, 0.1)
    keys = [json.dumps(r["spec"], sort_keys=True) for r in inputs.records]
    queries = {json.dumps(q, sort_keys=True) for q in inputs.queries}
    assert len(set(keys)) == len(keys)
    assert not queries & set(keys)


def test_span_renamed_under_parent_keeps_paths_apart():
    from tracing import Tracer

    tracer = Tracer()
    build = tracer.spanned("build", lambda: None,
                           name_under={"load": "load.build"})
    load = tracer.spanned("load", build)
    build()
    load()
    assert tracer.counts["build.calls"] == 1
    assert tracer.counts["load.build.calls"] == 1
    assert set(tracer.self_times()) == {"build", "load", "load.build"}


def test_sampling_after_records_calls_and_restores():
    import types

    import workloads
    from hostspeed import HostSpeed

    module = types.SimpleNamespace(work=lambda x: x + 1)
    original = module.work
    host = HostSpeed()
    calls = []
    with workloads.sampling_after(host, module, "work", record=calls.append) as spent:
        assert module.work(1) == 2 and module.work(2) == 3
    assert module.work is original
    assert len(calls) == 2 and all(c >= 0 for c in calls)
    # the first call samples; the second comes within the interval
    assert len(host.samples) == 1 and spent[0] >= host.samples[0] > 0
    host.interval_s = float("inf")
    assert host.tick() == 0.0 and len(host.samples) == 1
    seconds, end = 0.5, host.times[0] + 0.25
    assert host.scaled(seconds, end) == pytest.approx(
        seconds * hostspeed.REFERENCE_S / host.samples[0])
