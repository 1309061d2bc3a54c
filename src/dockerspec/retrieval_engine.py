"""Dockerfile generation by retrieval.

Specs are rendered into per-field texts and indexed; a query spec scores
every document with Okapi BM25 summed over fields (a disjunctive,
should-style query). A TF-IDF cosine ranking over whole rendered specs is
provided as the lexical stand-in for an embedding-based baseline. Both
return the top k, ties going to the ascending doc id.

Building, saving or loading an index does no ranking work: it checks the
BM25 parameters and keeps the entries. The first BM25 query over the index
builds one table of impacts, per field each term's postings grouped by
(tf, document length) shape into (weight, doc bitset) groups, pays for it,
and the index keeps it for later queries. A BM25 query is a best-first
search over classes of documents that hold the same parts so far, bounded
by the maximum weights of the terms still to come, so it stops once no
document left can enter the top k. The TF-IDF tables (idf, document norms,
and per term its postings grouped by weight) are built on the first TF-IDF
query over the index and reused after; a TF-IDF query never builds the BM25
impacts. A TF-IDF query is scored term at a time: each (query term, weight
group) pair is one part, and each distinct pattern of parts that a document
holds is summed once. Both assume the index's entries list is read-only once
indexed.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path

from .corpus_pipeline import read_corpus_records, record_line
from .errors import ConfigError, EmptyCorpus, SchemaError, read_lines
from .spec_model import SPEC_FIELDS, DockerSpec, FLAG_FIELDS

INDEX_MAGIC = "dockerspec-index"
INDEX_VERSION = 2

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
    """Smoothed idf per term, each document's vector norm, and per term its
    postings grouped by weight: one (tf * idf, ascending doc ids) pair per
    distinct weight, in the order the weights first occur."""
    idf: dict[str, float]
    norms: list[float]
    postings: dict[str, list[tuple[float, list[int]]]]


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
    groups: dict[str, dict[float, list[int]]] = {}
    for doc_id, counts in enumerate(doc_counts):
        weights = [(term, tf * idf[term]) for term, tf in counts.items()]
        norms.append(math.sqrt(sum(w * w for _, w in weights)))
        for term, weight in weights:
            groups.setdefault(term, {}).setdefault(weight, []).append(doc_id)
    postings = {term: list(by_weight.items()) for term, by_weight in groups.items()}
    return TfidfTables(idf, norms, postings)


class IndexedEntries(list):
    """An index's own (spec, dockerfile) list, read-only once indexed. Its
    TF-IDF tables are built on the first ``vector_retrieve`` over it and
    kept with it."""

    @cached_property
    def tfidf(self) -> TfidfTables:
        return _tfidf_tables(self)


def _bitset(ids) -> int:
    """The int with bit d set for each doc id d in ``ids``."""
    bits = 0
    for doc_id in ids:
        bits |= 1 << doc_id
    return bits


# a term's BM25 postings: (weight, docs) groups, docs a bitset or ascending ids
Bm25Groups = tuple[tuple[float, int | tuple[int, ...]], ...]


def _bm25_impacts(entries: list[tuple[DockerSpec, str]], k1: float,
                  b: float) -> dict[str, dict[str, Bm25Groups]]:
    """Per field, each term's postings grouped by shape: one (BM25 weight,
    docs) group per distinct (tf, document length), since a weight depends on
    the term's idf and the shape alone, highest weight first, so a term's
    maximum weight is its first group's. ``docs`` is a bitset, bit d set for
    doc d, or, when that would take more bytes than the ids (df * 64 < n),
    the ascending ids."""
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
            shapes: dict[tuple[int, int], list[int]] = {}
            for doc_id, tf in plist:
                shapes.setdefault((tf, field_lengths[doc_id]), []).append(doc_id)
            groups = []
            for (tf, length), ids in shapes.items():
                norm = k1 * (1.0 - b + b * length / avgdl)
                weight = idf * tf * (k1 + 1.0) / (tf + norm)
                groups.append((weight, tuple(ids) if len(ids) * 64 < n else _bitset(ids)))
            groups.sort(key=itemgetter(0), reverse=True)
            postings[term] = tuple(groups)
    return table


@dataclass
class RetrievalIndex:
    """An index over ``entries`` with BM25 parameters ``k1`` and ``b``; a
    document's id is its position in ``entries``, which is read-only once
    indexed. Its file holds the parameters and the entries (``save_index``).
    Loading does no ranking work: the first ``retrieve`` builds the BM25
    ``impacts`` of every term, the first TF-IDF query the TF-IDF tables on
    ``entries``, and the index keeps both; ``doc_frequency`` is counted once
    from the impacts when first read. They describe ``entries`` as it was
    then, and none takes part in ``==`` or ``repr``."""
    entries: IndexedEntries
    k1: float
    b: float

    @cached_property
    def impacts(self) -> dict[str, dict[str, Bm25Groups]]:
        """field -> term -> (weight, docs) groups, as ``_bm25_impacts``."""
        return _bm25_impacts(self.entries, self.k1, self.b)

    @cached_property
    def doc_frequency(self) -> dict[str, dict[str, int]]:
        """field -> term -> number of documents holding it, counted once from
        the groups of ``impacts`` (so it builds them)."""
        return {f: {term: sum(docs.bit_count() if isinstance(docs, int) else len(docs)
                              for _, docs in groups)
                    for term, groups in terms.items()}
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


def _lowest_ids(docs: int, k: int) -> list[int]:
    """The ids of the k lowest bits set in ``docs``, ascending. Each step
    jumps to the lowest set bit and reads the 64 bits from there, so a step
    costs one pass over ``docs`` and yields at least one id."""
    ids: list[int] = []
    base = 0
    while docs and len(ids) < k:
        low = (docs & -docs).bit_length() - 1
        word = (docs >> low) & 0xFFFF_FFFF_FFFF_FFFF
        base += low
        while word:
            bit = word & -word
            ids.append(base + bit.bit_length() - 1)
            word ^= bit
        docs >>= low + 64
        base += 64
    return ids[:k]


def _bound(partial: float, maxima: list[float]) -> float:
    """``partial`` plus each of ``maxima`` in turn: the highest score a
    document can reach from ``partial`` over the terms still to come."""
    for weight in maxima:
        partial += weight
    return partial


def retrieve(spec: DockerSpec, k: int, index: RetrievalIndex) -> list[ScoredHit]:
    """Top-k documents by summed per-field BM25; ties broken by ascending id.

    Every field contributes independently (disjunctive query), so zero-score
    documents are still returned when k exceeds the number of scoring ones.
    The first query over an index builds the impacts of every term (see
    ``RetrievalIndex``). A query is a best-first search over classes of
    documents. A node is (doc bitset, partial score, next query term); the
    query's terms that the index holds are walked in field -> query-term
    order. Splitting a node at a term gives one child per weight group that
    it meets, scoring ``partial + weight``, and one for its documents in none
    of them, keeping ``partial``. So each document's score is the fold from
    0.0 of its parts in that order, as a dense sum over the postings gives
    it, to the last bit. A node's bound folds the remaining terms' maximum
    weights onto ``partial`` in the same order; no weight is negative and
    float addition is monotone, so no document in it can score higher. Nodes
    are taken highest bound first, and a node past the last term is a class
    of equal score that gives its lowest k ids. The search stops once k ids
    are held and the next bound is below the k-th score; an equal bound is
    still taken, so ties go to the ascending id.
    """
    if index.size == 0:
        raise EmptyCorpus("retrieval over an empty index")
    if k <= 0:
        return []
    query_terms = query_terms_for(spec)
    # per query term that the index holds: its groups, sparse ids made
    # bitsets, and their union (a sum, since a term's groups are disjoint)
    terms, unions = [], []
    for field_name in SPEC_FIELDS:
        impacts = index.impacts[field_name]
        for term in query_terms[field_name]:
            groups = [(weight, docs if isinstance(docs, int) else _bitset(docs))
                      for weight, docs in impacts.get(term, ())]
            if groups:
                terms.append(groups)
                unions.append(sum(docs for _, docs in groups))
    maxima = [groups[0][0] for groups in terms]
    tails = [maxima[step + 1:] for step in range(len(terms))]
    # (-bound, -next term, docs, partial): the highest bound first, the
    # deepest node of equal bounds first; nodes' docs are disjoint, so two
    # entries never compare their partials
    heap = [(-_bound(0.0, maxima), 0, (1 << index.size) - 1, 0.0)]
    held: list[tuple[float, int]] = []  # (-score, doc id); negation is exact
    while heap:
        if len(held) >= k and heap[0][0] > held[k - 1][0]:
            break
        _, step, docs, partial = heapq.heappop(heap)
        step = -step
        if step == len(terms):
            held.extend((-partial, doc_id) for doc_id in _lowest_ids(docs, k))
            continue
        tail = tails[step]
        matched = docs & unions[step]
        if matched != docs:
            heapq.heappush(heap, (-_bound(partial, tail), -step - 1, docs ^ matched, partial))
        for weight, group in terms[step]:
            child = matched & group
            if child:
                score = partial + weight
                heapq.heappush(heap, (-_bound(score, tail), -step - 1, child, score))
                matched ^= child
                if not matched:
                    break
    held.sort()
    return [ScoredHit(doc_id, -score, index.entries[doc_id][1]) for score, doc_id in held[:k]]


def vector_retrieve(spec: DockerSpec, k: int,
                    entries: list[tuple[DockerSpec, str]]) -> list[ScoredHit]:
    """Top-k by TF-IDF cosine between the rendered query spec and each stored
    spec (the lexical stand-in for the sentence-embedding baseline); ties
    broken by ascending id.

    Uses smoothed idf, ln((1+N)/(1+df)) + 1, so identical rendered specs
    always score 1.0. The tables over an index's own ``entries`` are built
    once; over any other list, once per call. The query's terms are walked
    in first-occurrence order, each document's dot product is that of the
    distinct pattern of parts it holds, summed once per pattern, and each
    score is then divided by the two norms per document.
    """
    if not entries:
        raise EmptyCorpus("retrieval over an empty corpus")
    tables = entries.tfidf if isinstance(entries, IndexedEntries) else _tfidf_tables(entries)
    n = len(entries)
    default = math.log((1.0 + n) / 1.0) + 1.0
    query = [(term, tf * tables.idf.get(term, default))
             for term, tf in Counter(rendered_spec_text(spec).split()).items()]
    query_norm = math.sqrt(sum(w * w for _, w in query))
    # Term at a time: each (query term, weight group) pair is one part, the
    # product of the two weights, and takes the next bit; a document's
    # pattern is the sum of the bits of the groups holding it, at most one
    # per term. Only which parts a document holds sets its dot product, so
    # each distinct pattern sums its parts once, in bit order: the query's
    # first-occurrence term order, as the dot product over the query's terms
    # adds them, so every score is the same to the last bit on any Python.
    # Every part is at least 1.0 (tf >= 1, idf >= 1), so only the empty
    # pattern sums to 0.0: it scores 0.0, whether or not the document's or
    # the query's norm is 0.0.
    patterns = [0] * n
    parts = []
    for term, weight in query:
        for doc_weight, ids in tables.postings.get(term, ()):
            bit = 1 << len(parts)
            parts.append(weight * doc_weight)
            for doc_id in ids:
                patterns[doc_id] += bit
    dots = {pattern: sum(part for i, part in enumerate(parts) if pattern >> i & 1)
            for pattern in set(patterns)}
    similarities = [dot / (query_norm * norm) if dot else 0.0
                    for dot, norm in zip(map(dots.__getitem__, patterns), tables.norms)]
    return [ScoredHit(i, similarities[i], entries[i][1]) for i in _top_k(similarities, k)]


def save_index(index: RetrievalIndex, path: Path) -> None:
    """Write an index file: the header line, ``json.dumps`` of ``{"b",
    "k1", "magic", "version"}`` with sorted keys, then each entry in doc-id
    order as the corpus record ``{"dockerfile", "spec"}``, one line each
    (see ``record_line``). No statistics are stored; ``load_index`` builds
    none, and the first query over the loaded index builds what its ranker
    reads."""
    header = {"b": index.b, "k1": index.k1, "magic": INDEX_MAGIC, "version": INDEX_VERSION}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        handle.writelines(record_line(spec, text) for spec, text in index.entries)


def load_index(path: Path) -> tuple[RetrievalIndex, list[tuple[DockerSpec, str]]]:
    """Read an index file one numbered line at a time with ``read_lines``:
    the header line here, the records after it with ``read_corpus_records``,
    which keeps the file's line numbers. Returns the index and its
    own ``entries`` list; loading does no ranking work (see
    ``RetrievalIndex``).

    Raises SchemaError, its message starting with ``path:``, on a first line
    that is not an index header, a version other than ``INDEX_VERSION``
    (rerun ``index build`` to rebuild the file), a header without ``k1`` or
    ``b``, parameters that ``check_bm25_parameters`` rejects, no entries, or
    the first line in file order with undecodable bytes or a bad record,
    named ``path:line:``."""
    with closing(read_lines(path, SchemaError)) as lines:
        try:
            header = json.loads(next(lines, (1, ""))[1])
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not an index file: {exc}") from exc
        if not isinstance(header, dict) or header.get("magic") != INDEX_MAGIC:
            raise SchemaError(f"{path}: not an index file (bad magic header)")
        if header.get("version") != INDEX_VERSION:
            raise SchemaError(f"{path}: unsupported index version {header.get('version')!r}; "
                              f"rerun `index build` to write version {INDEX_VERSION}")
        entries = list(read_corpus_records(path, lines))
    try:
        index = build_index(entries, header["k1"], header["b"])
    except KeyError as exc:
        raise SchemaError(f"{path}: index file lacks key {exc}") from exc
    except (TypeError, ConfigError, EmptyCorpus) as exc:
        raise SchemaError(f"{path}: malformed index file: {exc}") from exc
    return index, index.entries
