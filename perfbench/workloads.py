"""The benchmark's workloads.

Each workload generates its inputs from the seed, then runs *cycles* of
user-facing operations. One cycle yields samples for the end-to-end metrics:

* ``batch_s``: the workload's batch command, run in-process through
  ``dockerspec.cli.main`` with CLI defaults (``corpus build``,
  ``index build`` or ``evaluate``);
* ``op``: per-operation latencies of the workload's closed loop with one
  client (``infer-spec`` per input file, ``retrieve`` or ``vector_retrieve``
  per held-out query, or each pair inside ``evaluate``);
* ``setup_s``: what a fresh process pays before its first operation.

Checks run after the timed work. Every CLI call, query, evaluated pair and
check is an operation; a non-zero exit, an exception, a failed check or a
pair with an error counts as a failed one.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import generate
from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# fresh-process set-up: import the package and load the default word lists
_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import dockerspec\n"
    "dockerspec.default_word_lists()\n"
    "print(repr(time.perf_counter() - start))\n"
)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class Samples:
    """Set-up seconds; batch and op samples as (seconds, clock reading at
    the end), so that each can be scaled by the host's speed around it."""

    setup: list[float] = field(default_factory=list)
    batch: list[tuple[float, float]] = field(default_factory=list)
    op: list[tuple[float, float]] = field(default_factory=list)


def stamped(seconds: float) -> tuple[float, float]:
    """A sample that ended just now."""
    return seconds, time.perf_counter()


def median_seconds(samples: list[tuple[float, float]]) -> float:
    return statistics.median(seconds for seconds, _ in samples)


def run_cli(argv: list[str], tally: Tally) -> tuple[int, str, float]:
    """Run ``dockerspec.cli.main`` in-process; returns exit code, captured
    stdout and wall seconds. Exceptions count as a failed operation."""
    from dockerspec import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # the program must not raise out of main
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    tally.record(code == 0, f"dockerspec {' '.join(argv[:2])}: exit {code}: "
                            f"{err.getvalue().strip()[:200]}")
    return code, out.getvalue(), seconds


@contextlib.contextmanager
def sampling_after(host: HostSpeed, module, name: str, record=None):
    """For the block, ``module.name`` ticks ``host`` after each call made
    on the main thread, and passes the call's seconds to ``record``. Yields
    a one-item list: the seconds spent sampling, to take off the wall time
    of the command that made the calls."""
    import threading

    original = getattr(module, name)
    spent = [0.0]

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            if record is not None:
                record(time.perf_counter() - start)
            # a pool thread would time the loop against the other's GIL hold
            if threading.current_thread() is threading.main_thread():
                spent[0] += host.tick()

    setattr(module, name, wrapper)
    try:
        yield spent
    finally:
        setattr(module, name, original)


def fresh_import_seconds(repeats: int) -> list[float]:
    """Import time of ``dockerspec`` plus ``default_word_lists()``, each
    measured inside its own fresh interpreter, one after another."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method of statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def sha256_hex(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "big"))
        digest.update(chunk)
    return digest.hexdigest()


def load_oracles():
    """``tests/oracles.py`` of the checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location("dockerspec_test_oracles",
                                                  ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    name = ""
    MIN_CYCLES = 1  # untraced cycles run even when they overrun --seconds

    def __init__(self, seed: int, scale: float, tally: Tally) -> None:
        self.seed = seed
        self.scale = scale
        self.tally = tally
        self.samples = Samples()
        self.host = HostSpeed()
        self.detail: dict = {}
        self.cycles = 0

    def prepare(self) -> None:
        """Generate the inputs into the current directory (not timed)."""

    def measure_setup(self) -> None:
        self.samples.setup.extend(fresh_import_seconds(3 if self.scale >= 1.0 else 1))

    def cycle(self) -> None:
        """One round of the workload's operations; appends samples and
        ticks ``host`` between operations, outside the timed regions."""
        raise NotImplementedError

    def finish(self) -> None:
        """Extra set-up samples, if the cycles gave too few (not a cycle)."""

    def check(self) -> None:
        """Output checks, after all timed work."""

    def per_operation(self) -> dict[str, float]:
        """Figures per operation kind (files/s, index build time, per-ranker
        query percentiles, pairs/s), printed in the detail line, not gated."""
        return {}

    def layer_extras(self) -> dict[str, float]:
        """Per-layer values read from outside the program after a traced
        cycle (sizes, input-derived counts)."""
        return {}


class CorpusWorkload(Workload):
    """``corpus build`` over ~1.5k raw Dockerfiles, then ``infer-spec`` on
    each inferable file."""

    name = "corpus"
    # a cycle takes ~11 s; when a slow first one took over 15 s, a run of
    # one cycle had a single batch sample and left half its time unused
    MIN_CYCLES = 2
    STREAMS = ("corpus.jsonl", "corpus.pretrain.jsonl", "corpus.train.jsonl",
               "corpus.eval.jsonl", "corpus.test.jsonl")

    def prepare(self) -> None:
        self.manifest = generate.write_corpus(Path("dockerfiles"), self.seed, self.scale)
        self.build_prints: list[str] = []
        self.infer_prints: list[str] = []
        self.detail.update(files=self.manifest.files, families=self.manifest.families,
                           largest_families=sorted(self.manifest.family_sizes)[-5:],
                           rejects=self.manifest.rejects,
                           inferable_files=len(self.manifest.inferable))

    def cycle(self) -> None:
        from dockerspec import corpus_pipeline

        # ingest runs on a thread pool; the per-cluster selection that
        # follows runs on the main thread, so the host is sampled there
        with sampling_after(self.host, corpus_pipeline, "select_representative") as spent:
            code, out, seconds = run_cli(
                ["corpus", "build", "dockerfiles", "--out", "corpus.jsonl"], self.tally)
        self.samples.batch.append(stamped(seconds - spent[0]))
        self.host.tick()
        if code == 0:
            streams = [Path(name).read_bytes() for name in self.STREAMS]
            self.build_prints.append(sha256_hex(out.encode("utf-8"), *streams))
            self.detail["summary"] = json.loads(out)
        outputs = []
        for name in self.manifest.inferable:
            code, out, seconds = run_cli(["infer-spec", f"dockerfiles/{name}"], self.tally)
            self.samples.op.append(stamped(seconds))
            outputs.append(out.encode("utf-8"))
            self.host.tick()
        self.infer_prints.append(sha256_hex(*outputs))
        self.cycles += 1

    def per_operation(self) -> dict[str, float]:
        return {"corpus_files_per_s": self.manifest.files / median_seconds(self.samples.batch)}

    def check(self) -> None:
        from dockerspec import default_word_lists
        from dockerspec.errors import SchemaError
        from dockerspec.spec_model import spec_from_dict, spec_to_dict, validate_spec

        lists = default_word_lists()
        records = 0
        for name in self.STREAMS:
            path = Path(name)
            if not self.tally.record(path.is_file(), f"missing output {name}"):
                continue
            for line in path.read_text(encoding="utf-8").splitlines():
                try:
                    record = json.loads(line)
                    spec = spec_from_dict(record["spec"])
                    ok = spec_to_dict(spec) == record["spec"] and not validate_spec(spec, lists)
                except (ValueError, SchemaError, KeyError, TypeError):
                    ok = False
                self.tally.record(ok, f"{name}: record does not round-trip or validate")
                records += 1
        self.tally.record(len(set(self.build_prints)) == 1,
                          "corpus build outputs differ between cycles")
        self.tally.record(len(set(self.infer_prints)) == 1,
                          "infer-spec outputs differ between cycles")
        self.detail.update(records_checked=records,
                           corpus_fingerprint=self.build_prints[0] if self.build_prints else None,
                           infer_fingerprint=self.infer_prints[0])


class RetrieveWorkload(Workload):
    """``index build`` over ~8k distinct specs, ``load_index``, then held-out
    specs answered by one ranker with k=10. Both retrieve workloads index the
    same generated corpus for a seed."""

    K = 10
    RANKER = ""
    QUERIES = 0          # held-out queries per cycle
    ORACLE_SAMPLE = 0    # queries checked against tests/oracles.py
    RERUN_SAMPLE = 0     # queries re-run on a fresh load after the timed work
    # index builds and loads per run at least: runs of few cycles top up after
    # the queries, so that set-up and batch medians rest on six samples
    MIN_SAMPLES = 6

    def prepare(self) -> None:
        from dockerspec.spec_model import spec_from_dict

        inputs = generate.retrieve_inputs(self.seed, self.scale)
        generate.write_corpus_jsonl(Path("corpus.jsonl"), inputs.records)
        self.corpus_specs = [spec_from_dict(r["spec"]) for r in inputs.records]
        self.queries = [spec_from_dict(q) for q in inputs.queries[:self.QUERIES]]
        self.rankings: list[list[list[int]]] = []
        self.index = self.entries = None
        self.detail.update(entries=len(inputs.records), queries=len(self.queries))

    def measure_setup(self) -> None:
        """Set-up samples come from the ``load_index`` calls."""

    def _build(self) -> float:
        # like `dockerspec index build` in its own process, no loaded index is
        # alive while building (a larger heap slows the garbage collector)
        self.index = self.entries = None
        return run_cli(["index", "build", "corpus.jsonl", "--out", "index.bin"],
                       self.tally)[2]

    def _load(self) -> float:
        from dockerspec import retrieval_engine

        self.index = self.entries = None
        start = time.perf_counter()
        self.index, self.entries = retrieval_engine.load_index(Path("index.bin"))
        return time.perf_counter() - start

    def _query(self, spec) -> list[int]:
        from dockerspec import retrieval_engine

        try:
            if self.RANKER == "bm25":
                hits = retrieval_engine.retrieve(spec, self.K, self.index)
            else:
                hits = retrieval_engine.vector_retrieve(spec, self.K, self.entries)
            error = None
        except Exception as exc:  # a query that raises is a failed operation
            hits, error = [], f"{self.RANKER} query raised {type(exc).__name__}: {exc}"
        self.tally.record(error is None, error)
        return [hit.doc_id for hit in hits]

    def cycle(self) -> None:
        self.samples.batch.append(stamped(self._build()))
        self.host.tick()
        self.samples.setup.append(self._load())
        self.host.tick()
        ranked = []
        for spec in self.queries:
            start = time.perf_counter()
            ranked.append(self._query(spec))
            self.samples.op.append(stamped(time.perf_counter() - start))
            self.host.tick()
        self.rankings.append(ranked)
        self.cycles += 1

    def finish(self) -> None:
        while len(self.samples.batch) < self.MIN_SAMPLES:
            self.samples.batch.append(stamped(self._build()))
            self.host.tick()
        while len(self.samples.setup) < self.MIN_SAMPLES:
            self.samples.setup.append(self._load())

    def _expected_top(self, query) -> list[int]:
        from dockerspec import retrieval_engine as engine

        if self.RANKER == "bm25":
            scores = self.oracles.naive_bm25_rankings(
                query, self.corpus_specs, render=engine.render_spec_fields)
        else:
            scores = self.oracles.naive_cosine_scores(
                engine.rendered_spec_text(query),
                [engine.rendered_spec_text(s) for s in self.corpus_specs])
        # float noise below 1e-9 counts as a tie, broken by ascending id
        order = sorted(range(len(scores)), key=lambda i: (-round(scores[i], 9), i))
        return order[:self.K]

    def check(self) -> None:
        self.oracles = load_oracles()
        first = self.rankings[0]
        self.tally.record(all(r == first for r in self.rankings),
                          "rankings differ between cycles")
        # a fresh build and load, then a fixed sample again, so that a ranking
        # that depends on state left by earlier queries or loads shows even
        # when the run had a single cycle
        self._build()
        self._load()
        for n, query in enumerate(self.queries[:self.RERUN_SAMPLE]):
            self.tally.record(self._query(query) == first[n],
                              f"query {n}: top-{self.K} differs on a fresh load")
        for n, query in enumerate(self.queries[:self.ORACLE_SAMPLE]):
            self.tally.record(first[n] == self._expected_top(query),
                              f"query {n}: top-{self.K} differs from the oracle")
        self.detail.update(oracle_checked_queries=self.ORACLE_SAMPLE,
                           rerun_checked_queries=self.RERUN_SAMPLE,
                           ranking_fingerprint=sha256_hex(json.dumps(first).encode()))

    def per_operation(self) -> dict[str, float]:
        return {"index_build_s": median_seconds(self.samples.batch),
                "postings_per_query": self._postings_per_query()}

    def _postings_per_query(self) -> float:
        """Sum of ``doc_frequency`` over the query terms, read from outside."""
        from dockerspec.retrieval_engine import query_terms_for

        postings = 0
        for spec in self.queries:
            for field_name, terms in query_terms_for(spec).items():
                postings += sum(self.index.doc_frequency[field_name].get(t, 0)
                                for t in terms)
        return postings / len(self.queries)

    def layer_extras(self) -> dict[str, float]:
        return {"retrieval_engine.index_bytes": os.path.getsize("index.bin"),
                "retrieval_engine.queries": len(self.queries),
                "retrieval_engine.postings_per_query": self._postings_per_query()}


class Bm25Workload(RetrieveWorkload):
    """BM25 queries: ``retrieve(spec, 10, index)``, ~25 ms each at 8k docs."""

    name = "retrieve-bm25"
    RANKER = "bm25"
    QUERIES = 150  # ~4 s a cycle, so a run has about five builds and loads
    ORACLE_SAMPLE = 5
    RERUN_SAMPLE = 30


class TfidfWorkload(RetrieveWorkload):
    """TF-IDF queries: ``vector_retrieve(spec, 10, entries)``, ~170 ms each at
    8k docs and nearly the same for every query, so a cycle asks fewer of
    them and a run repeats the cycle: p90 then rests on 150 samples spread
    over the run rather than on one stretch of it."""

    name = "retrieve-tfidf"
    RANKER = "tfidf"
    QUERIES = 50
    ORACLE_SAMPLE = 2  # naive TF-IDF takes ~2 s per query
    RERUN_SAMPLE = 5


class EvaluateWorkload(Workload):
    """``evaluate --outputs a --outputs b`` over ~50 targets of 50-300 tree
    nodes; per-pair latency is read inside that run."""

    name = "evaluate"

    def prepare(self) -> None:
        self.manifest = generate.write_evaluate(Path("."), self.seed, self.scale)
        self.reports: list[str] = []
        self.pairs = 2 * self.manifest.targets
        nodes = sorted(self.manifest.target_nodes)
        self.detail.update(targets=self.manifest.targets, pairs=self.pairs,
                           target_nodes_min_median_max=[nodes[0], nodes[len(nodes) // 2],
                                                        nodes[-1]])

    def cycle(self) -> None:
        from dockerspec import evaluation

        # two clock reads per pair; a pair takes tens to hundreds of ms
        with sampling_after(self.host, evaluation, "evaluate_pair",
                            record=lambda s: self.samples.op.append(stamped(s))) as spent:
            code, out, seconds = run_cli(
                ["evaluate", "--targets", "targets", "--outputs", "a", "--outputs", "b",
                 "--report", "report.json"], self.tally)
        self.samples.batch.append(stamped(seconds - spent[0]))
        self.host.tick()  # a run that evaluates no pair still samples
        if code == 0:
            self.reports.append(out)
            for system in json.loads(out)["systems"].values():
                self.tally.attempted += system["evaluated_pairs"] + system["failed_pairs"]
                self.tally.failed += system["failed_pairs"]
        self.cycles += 1

    def check(self) -> None:
        if not self.tally.record(bool(self.reports), "evaluate produced no report"):
            return
        report = json.loads(self.reports[0])
        for name, system in sorted(report["systems"].items()):
            self.tally.record(system["failed_pairs"] == 0,
                              f"system {name}: {system['failed_pairs']} failed pairs")
            self.tally.record(system["evaluated_pairs"] == self.manifest.targets,
                              f"system {name}: {system['evaluated_pairs']} pairs evaluated")
        self.tally.record("comparisons" in report, "no system comparison in the report")
        self.tally.record(len(set(self.reports)) == 1, "reports differ between cycles")
        self.tally.record(Path("report.json").read_text(encoding="utf-8") == self.reports[-1],
                          "report file differs from stdout")
        self.detail["report_fingerprint"] = sha256_hex(self.reports[0].encode("utf-8"))

    def per_operation(self) -> dict[str, float]:
        return {"evaluate_pairs_per_s": self.pairs / median_seconds(self.samples.batch)}

    def layer_extras(self) -> dict[str, float]:
        report = json.loads(self.reports[-1]) if self.reports else {"systems": {}}
        return {"evaluation.failed_pairs":
                sum(s["failed_pairs"] for s in report["systems"].values())}


WORKLOADS = {w.name: w for w in (CorpusWorkload, Bm25Workload, TfidfWorkload,
                                  EvaluateWorkload)}
