"""Dockerfile generation by retrieval.

Specs are rendered into per-field texts and indexed; a query spec scores
every document with Okapi BM25 summed over fields (a disjunctive,
should-style query). A TF-IDF cosine ranking over whole rendered specs is
provided as the lexical stand-in for an embedding-based baseline.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, EmptyCorpus, SchemaError
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


@dataclass
class RetrievalIndex:
    """BM25 statistics over ``entries``; a document's id is its position there
    and in each ``lengths[field]`` list."""
    entries: list[tuple[DockerSpec, str]]
    postings: dict[str, dict[str, list[tuple[int, int]]]]
    doc_frequency: dict[str, dict[str, int]]
    lengths: dict[str, list[int]]
    average_length: dict[str, float]
    k1: float
    b: float

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ScoredHit:
    doc_id: int
    score: float
    dockerfile_text: str


def build_index(entries: list[tuple[DockerSpec, str]],
                k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> RetrievalIndex:
    """Index (spec, dockerfile) pairs; deterministic for a given entry order.

    Raises ConfigError unless k1 is finite and at least 0 and b is in [0, 1].
    """
    if not (math.isfinite(k1) and k1 >= 0.0):
        raise ConfigError(f"k1 must be a finite number >= 0, got {k1!r}")
    if not 0.0 <= b <= 1.0:
        raise ConfigError(f"b must be a number in [0, 1], got {b!r}")
    if not entries:
        raise EmptyCorpus("cannot index an empty corpus")
    postings: dict[str, dict[str, list[tuple[int, int]]]] = {f: {} for f in SPEC_FIELDS}
    lengths: dict[str, list[int]] = {f: [] for f in SPEC_FIELDS}
    for doc_id, (spec, _) in enumerate(entries):
        for field_name, text in render_spec_fields(spec).items():
            terms = text.split()
            lengths[field_name].append(len(terms))
            for term, tf in Counter(terms).items():
                postings[field_name].setdefault(term, []).append((doc_id, tf))
    doc_frequency = {
        f: {term: len(plist) for term, plist in terms.items()}
        for f, terms in postings.items()
    }
    n = len(entries)
    average_length = {f: sum(lengths[f]) / n for f in SPEC_FIELDS}
    return RetrievalIndex(list(entries), postings, doc_frequency, lengths,
                          average_length, k1, b)


def _idf(n_docs: int, df: int) -> float:
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def query_terms_for(spec: DockerSpec) -> dict[str, list[str]]:
    return {f: text.split() for f, text in render_spec_fields(spec).items()}


def retrieve(spec: DockerSpec, k: int, index: RetrievalIndex) -> list[ScoredHit]:
    """Top-k documents by summed per-field BM25; ties broken by ascending id.

    Every field contributes independently (disjunctive query), so zero-score
    documents are still returned when k exceeds the number of scoring ones.
    """
    if index.size == 0:
        raise EmptyCorpus("retrieval over an empty index")
    query_terms = query_terms_for(spec)
    scores = [0.0] * index.size
    n = index.size
    for field_name in SPEC_FIELDS:
        avgdl = index.average_length[field_name]
        if avgdl == 0.0:
            continue
        lengths = index.lengths[field_name]
        for term in query_terms[field_name]:
            df = index.doc_frequency[field_name].get(term, 0)
            if df == 0:
                continue
            idf = _idf(n, df)
            for doc_id, tf in index.postings[field_name][term]:
                norm = index.k1 * (1.0 - index.b + index.b * lengths[doc_id] / avgdl)
                scores[doc_id] += idf * tf * (index.k1 + 1.0) / (tf + norm)
    ranked = sorted(range(index.size), key=lambda i: (-scores[i], i))[:max(k, 0)]
    return [ScoredHit(i, scores[i], index.entries[i][1]) for i in ranked]


def _tfidf_vector(counts: Counter, idf: dict[str, float], n_docs: int) -> dict[str, float]:
    default = math.log((1.0 + n_docs) / 1.0) + 1.0
    return {term: tf * idf.get(term, default) for term, tf in counts.items()}


def _cosine(a: dict[str, float], b: dict[str, float]) -> float:
    dot = sum(weight * b[term] for term, weight in a.items() if term in b)
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def rendered_spec_text(spec: DockerSpec) -> str:
    return " ".join(t for t in render_spec_fields(spec).values() if t)


def vector_retrieve(spec: DockerSpec, k: int,
                    entries: list[tuple[DockerSpec, str]]) -> list[ScoredHit]:
    """Top-k by TF-IDF cosine between the rendered query spec and each stored
    spec (the lexical stand-in for the sentence-embedding baseline).

    Uses smoothed idf, ln((1+N)/(1+df)) + 1, so identical rendered specs
    always score 1.0.
    """
    if not entries:
        raise EmptyCorpus("retrieval over an empty corpus")
    n = len(entries)
    doc_counts = [Counter(rendered_spec_text(s).split()) for s, _ in entries]
    df: Counter = Counter()
    for counts in doc_counts:
        df.update(counts.keys())
    idf = {term: math.log((1.0 + n) / (1.0 + d)) + 1.0 for term, d in df.items()}
    query_vector = _tfidf_vector(Counter(rendered_spec_text(spec).split()), idf, n)
    similarities = [
        _cosine(query_vector, _tfidf_vector(counts, idf, n)) for counts in doc_counts
    ]
    ranked = sorted(range(n), key=lambda i: (-similarities[i], i))[:max(k, 0)]
    return [ScoredHit(i, similarities[i], entries[i][1]) for i in ranked]


def save_index(index: RetrievalIndex, path: Path) -> None:
    """Write a self-describing index file (documents plus BM25 parameters;
    statistics are rebuilt on load, which is deterministic)."""
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

    Raises SchemaError on text that is not UTF-8, wrong magic or version,
    missing keys, a bad entry (named ``path: entry N``, N its doc id), or
    BM25 parameters that build_index rejects."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not an index file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != INDEX_MAGIC:
        raise SchemaError("not an index file (bad magic header)")
    if payload.get("version") != INDEX_VERSION:
        raise SchemaError(f"unsupported index version {payload.get('version')!r}")
    try:
        entries = []
        for doc_id, item in enumerate(payload["entries"]):
            try:
                entries.append((spec_from_dict(item["spec"]), item["dockerfile"]))
                if not isinstance(item["dockerfile"], str):
                    raise SchemaError("malformed index file: a dockerfile is not a string")
            except SchemaError as exc:
                raise SchemaError(f"{path}: entry {doc_id}: {exc}") from exc
        index = build_index(entries, payload["k1"], payload["b"])
    except KeyError as exc:
        raise SchemaError(f"index file lacks key {exc}") from exc
    except (TypeError, ConfigError) as exc:
        raise SchemaError(f"malformed index file: {exc}") from exc
    return index, index.entries
