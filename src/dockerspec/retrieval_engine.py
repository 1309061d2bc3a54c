"""Dockerfile generation by retrieval.

Specs are rendered into per-field texts and indexed; a query spec scores
every document with Okapi BM25 summed over fields (a disjunctive,
should-style query). A TF-IDF cosine ranking over whole rendered specs is
provided as the lexical stand-in for an embedding-based baseline. Both rank
with one top-k, ties going to the ascending doc id.

Building, saving or loading an index does no ranking work: it checks the
BM25 parameters and keeps the entries. The first BM25 query over the index
builds one table of impacts, per field each term's postings' doc ids and
score parts, pays for it, and the index keeps it for later queries. The
TF-IDF tables (idf, document norms, weighted postings) are built on the
first TF-IDF query over the index and reused after; a TF-IDF query never
builds the BM25 impacts. Both assume the index's entries list is read-only
once indexed.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import ConfigError, EmptyCorpus, SchemaError, read_input
from .spec_model import SPEC_FIELDS, DockerSpec, FLAG_FIELDS, spec_from_dict, spec_to_dict

INDEX_MAGIC = "dockerspec-index"
INDEX_VERSION = 1

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


def render_spec_fields(spec: DockerSpec) -> dict[str, str]:
    """Per-field query/document text: os and pkg_manager verbatim,
    dependencies space-joined sorted, a flag renders as its own field name
    when true and as empty text when false."""
    texts = {
        "os": spec.os,
        "pkg_manager": spec.pkg_manager,
        "dependencies": " ".join(sorted(spec.dependencies)),
    }
    for name in FLAG_FIELDS:
        texts[name] = name if getattr(spec, name) else ""
    return texts


def rendered_spec_text(spec: DockerSpec) -> str:
    return " ".join(t for t in render_spec_fields(spec).values() if t)


@dataclass(frozen=True)
class TfidfTables:
    """Smoothed idf per term, each document's vector norm, and per term the
    (doc id, tf * idf) postings in ascending doc id."""
    idf: dict[str, float]
    norms: list[float]
    postings: dict[str, list[tuple[int, float]]]


def _tfidf_tables(entries: list[tuple[DockerSpec, str]]) -> TfidfTables:
    """Tables over the entries' rendered specs; a document's weights, and the
    squares summed into its norm, follow its terms' first-occurrence order."""
    n = len(entries)
    doc_counts = [Counter(rendered_spec_text(s).split()) for s, _ in entries]
    df: Counter = Counter()
    for counts in doc_counts:
        df.update(counts.keys())
    idf = {term: math.log((1.0 + n) / (1.0 + d)) + 1.0 for term, d in df.items()}
    norms = []
    postings: dict[str, list[tuple[int, float]]] = {}
    for doc_id, counts in enumerate(doc_counts):
        weights = [(term, tf * idf[term]) for term, tf in counts.items()]
        norms.append(math.sqrt(sum(w * w for _, w in weights)))
        for term, weight in weights:
            postings.setdefault(term, []).append((doc_id, weight))
    return TfidfTables(idf, norms, postings)


class IndexedEntries(list):
    """An index's own (spec, dockerfile) list, read-only once indexed. Its
    TF-IDF tables are built on the first ``vector_retrieve`` over it and
    kept with it."""

    @cached_property
    def tfidf(self) -> TfidfTables:
        return _tfidf_tables(self)


def _bm25_impacts(entries: list[tuple[DockerSpec, str]], k1: float,
                  b: float) -> dict[str, dict[str, tuple[list[int], list[float]]]]:
    """Per field, each term's postings as parallel (doc ids, BM25 weights)
    lists in ascending doc id. A weight depends on the term's idf and the
    posting's (tf, document length) alone, so within a term it is computed
    once per (tf, length) and equal weights share a float."""
    n = len(entries)
    table: dict[str, dict] = {f: {} for f in SPEC_FIELDS}
    lengths: dict[str, list[int]] = {f: [] for f in SPEC_FIELDS}
    for doc_id, (spec, _) in enumerate(entries):
        for field_name, text in render_spec_fields(spec).items():
            terms = text.split()
            lengths[field_name].append(len(terms))
            for term, tf in Counter(terms).items():
                table[field_name].setdefault(term, []).append((doc_id, tf))
    for field_name, postings in table.items():
        field_lengths = lengths[field_name]
        avgdl = sum(field_lengths) / n
        for term, plist in postings.items():
            df = len(plist)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            by_shape: dict[tuple[int, int], float] = {}
            ids, weights = [], []
            for doc_id, tf in plist:
                shape = (tf, field_lengths[doc_id])
                weight = by_shape.get(shape)
                if weight is None:
                    norm = k1 * (1.0 - b + b * field_lengths[doc_id] / avgdl)
                    weight = by_shape[shape] = idf * tf * (k1 + 1.0) / (tf + norm)
                ids.append(doc_id)
                weights.append(weight)
            postings[term] = (ids, weights)
    return table


@dataclass
class RetrievalIndex:
    """An index over ``entries`` with BM25 parameters ``k1`` and ``b``; a
    document's id is its position in ``entries``, which is read-only once
    indexed. Loading does no ranking work: the first ``retrieve`` builds the
    BM25 ``impacts`` of every term, the first TF-IDF query the TF-IDF tables
    on ``entries``, and the index keeps both. They describe ``entries`` as
    it was then, and neither takes part in ``==`` or ``repr``."""
    entries: IndexedEntries
    k1: float
    b: float

    @cached_property
    def impacts(self) -> dict[str, dict[str, tuple[list[int], list[float]]]]:
        """field -> term -> (doc ids, BM25 weights), as ``_bm25_impacts``."""
        return _bm25_impacts(self.entries, self.k1, self.b)

    @property
    def doc_frequency(self) -> dict[str, dict[str, int]]:
        """field -> term -> number of documents holding it, read from
        ``impacts`` (so it builds them). Kept only because the benchmark
        harness (``perfbench/workloads.py``, ``perfbench/anchor.py``) reads
        it; it goes when the harness counts postings itself (ROADMAP item
        2(a))."""
        return {f: {term: len(ids) for term, (ids, _) in terms.items()}
                for f, terms in self.impacts.items()}

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ScoredHit:
    doc_id: int
    score: float
    dockerfile_text: str


def check_bm25_parameters(k1: float, b: float) -> None:
    """Raise ConfigError unless k1 is a finite number at least 0 and b a
    number in [0, 1]; a bool is not a number here."""
    try:
        finite = math.isfinite(k1)
    except OverflowError:  # an int too large for a float
        finite = False
    if isinstance(k1, bool) or not (finite and k1 >= 0.0):
        raise ConfigError(f"k1 must be a finite number >= 0, got {k1!r}")
    if isinstance(b, bool) or not 0.0 <= b <= 1.0:
        raise ConfigError(f"b must be a number in [0, 1], got {b!r}")


def build_index(entries: list[tuple[DockerSpec, str]],
                k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> RetrievalIndex:
    """Index (spec, dockerfile) pairs; deterministic for a given entry order.
    Nothing that a ranker reads is built here (see ``RetrievalIndex``).

    Raises ConfigError as ``check_bm25_parameters`` does, and EmptyCorpus
    when there are no entries.
    """
    check_bm25_parameters(k1, b)
    if not entries:
        raise EmptyCorpus("cannot index an empty corpus")
    return RetrievalIndex(IndexedEntries(entries), k1, b)


def query_terms_for(spec: DockerSpec) -> dict[str, list[str]]:
    return {f: text.split() for f, text in render_spec_fields(spec).items()}


def _top_k(scores: list[float], k: int) -> list[int]:
    """Ids of the k highest scores; nlargest is stable, so ties go to the
    ascending id."""
    return heapq.nlargest(max(k, 0), range(len(scores)), key=scores.__getitem__)


def retrieve(spec: DockerSpec, k: int, index: RetrievalIndex) -> list[ScoredHit]:
    """Top-k documents by summed per-field BM25; ties broken by ascending id.

    Every field contributes independently (disjunctive query), so zero-score
    documents are still returned when k exceeds the number of scoring ones.
    The first query over an index builds the impacts of every term (see
    ``RetrievalIndex``); each query then adds its terms' weights in field ->
    query-term -> ascending doc id order, and a term the index lacks adds
    nothing.
    """
    if index.size == 0:
        raise EmptyCorpus("retrieval over an empty index")
    query_terms = query_terms_for(spec)
    scores = [0.0] * index.size
    for field_name in SPEC_FIELDS:
        impacts = index.impacts[field_name]
        for term in query_terms[field_name]:
            ids, weights = impacts.get(term, ((), ()))
            for doc_id, weight in zip(ids, weights):
                scores[doc_id] += weight
    return [ScoredHit(i, scores[i], index.entries[i][1]) for i in _top_k(scores, k)]


def vector_retrieve(spec: DockerSpec, k: int,
                    entries: list[tuple[DockerSpec, str]]) -> list[ScoredHit]:
    """Top-k by TF-IDF cosine between the rendered query spec and each stored
    spec (the lexical stand-in for the sentence-embedding baseline); ties
    broken by ascending id.

    Uses smoothed idf, ln((1+N)/(1+df)) + 1, so identical rendered specs
    always score 1.0. The tables over an index's own ``entries`` are built
    once; over any other list, once per call.
    """
    if not entries:
        raise EmptyCorpus("retrieval over an empty corpus")
    tables = entries.tfidf if isinstance(entries, IndexedEntries) else _tfidf_tables(entries)
    n = len(entries)
    default = math.log((1.0 + n) / 1.0) + 1.0
    query = [(term, tf * tables.idf.get(term, default))
             for term, tf in Counter(rendered_spec_text(spec).split()).items()]
    query_norm = math.sqrt(sum(w * w for _, w in query))
    # One column per query term, in query-term order, holds each document's
    # product for that term, or 0.0 where the document lacks it. sum() then
    # adds a document's products in query-term order, as the dot product
    # over the query's terms does. Adding 0.0 changes neither a plain float
    # sum nor the compensated one of Python 3.12+, so each score equals, bit
    # for bit, the sum of the document's products alone. Every product is at
    # least 1.0 (tf >= 1, idf >= 1), so a zero sum means no shared term: it
    # scores 0.0, whether or not the document's or the query's norm is 0.0.
    columns = []
    for term, weight in query:
        column = [0.0] * n
        for doc_id, doc_weight in tables.postings.get(term, ()):
            column[doc_id] = weight * doc_weight
        columns.append(column)
    dots = map(sum, zip(*columns)) if columns else [0.0] * n
    similarities = [dot / (query_norm * norm) if dot else 0.0
                    for dot, norm in zip(dots, tables.norms)]
    return [ScoredHit(i, similarities[i], entries[i][1]) for i in _top_k(similarities, k)]


def save_index(index: RetrievalIndex, path: Path) -> None:
    """Write a self-describing index file: the documents and the BM25
    parameters. No statistics are stored; ``load_index`` builds none, and
    the first query over the loaded index builds what its ranker reads."""
    payload = {
        "magic": INDEX_MAGIC,
        "version": INDEX_VERSION,
        "k1": index.k1,
        "b": index.b,
        "entries": [
            {"spec": spec_to_dict(spec), "dockerfile": dockerfile_text}
            for spec, dockerfile_text in index.entries
        ],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_index(path: Path) -> tuple[RetrievalIndex, list[tuple[DockerSpec, str]]]:
    """Read an index file; returns the index and its own ``entries`` list.
    Loading does no ranking work (see ``RetrievalIndex``).

    Raises SchemaError, its message starting with ``path:``, on undecodable
    bytes, wrong magic or version, missing keys, ``entries`` that is not a
    non-empty list, a bad entry (named ``path: entry N``, N its doc id), or
    BM25 parameters that ``check_bm25_parameters`` rejects."""
    try:
        payload = json.loads(read_input(path, SchemaError))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not an index file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != INDEX_MAGIC:
        raise SchemaError(f"{path}: not an index file (bad magic header)")
    if payload.get("version") != INDEX_VERSION:
        raise SchemaError(f"{path}: unsupported index version {payload.get('version')!r}")
    try:
        items = payload["entries"]
        if not isinstance(items, list):
            raise SchemaError(f"{path}: malformed index file: {type(items).__name__!r} "
                              "object is not iterable as a list of entries")
        entries = []
        for doc_id, item in enumerate(items):
            try:
                if not isinstance(item, dict):
                    raise SchemaError("malformed index file: an entry is not an object")
                entries.append((spec_from_dict(item["spec"]), item["dockerfile"]))
                if not isinstance(item["dockerfile"], str):
                    raise SchemaError("malformed index file: a dockerfile is not a string")
            except KeyError as exc:
                raise SchemaError(f"{path}: entry {doc_id}: lacks key {exc}") from exc
            except SchemaError as exc:
                raise SchemaError(f"{path}: entry {doc_id}: {exc}") from exc
        index = build_index(entries, payload["k1"], payload["b"])
    except KeyError as exc:
        raise SchemaError(f"{path}: index file lacks key {exc}") from exc
    except (TypeError, ConfigError, EmptyCorpus) as exc:
        raise SchemaError(f"{path}: malformed index file: {exc}") from exc
    return index, index.entries
