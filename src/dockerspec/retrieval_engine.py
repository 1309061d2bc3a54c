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
document left can enter the top k. The TF-IDF tables (idf, the documents
in (norm, id) order, and per term its postings grouped by weight, as
bitsets over that order) are built on the first TF-IDF query over the index
and reused after; a TF-IDF query never builds the BM25 impacts. A TF-IDF
query splits the documents into classes of one pattern of (query term,
weight group) parts, sums each class's parts once, and merges the classes
best first: within a class the score falls with the norm, so each class
gives its documents in order, and it stops at the k-th. Both assume the
index's entries list is read-only once indexed.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter, mul
from pathlib import Path

from .corpus_pipeline import read_corpus_records, record_line
from .errors import ConfigError, EmptyCorpus, SchemaError, read_lines
from .spec_model import SPEC_FIELDS, DockerSpec, FLAG_FIELDS

INDEX_MAGIC = "dockerspec-index"
INDEX_VERSION = 2

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
# the largest k1 accepted; see check_bm25_parameters
MAX_K1 = 1e9


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


# a term's postings as (weight, docs) groups, docs a bitset or the ascending
# doc numbers: ids for BM25's impacts, ranks for the TF-IDF tables
Groups = tuple[tuple[float, int | tuple[int, ...]], ...]


@dataclass(frozen=True)
class TfidfTables:
    """Smoothed idf per term; ``order``, the doc ids sorted by (norm, id),
    so that rank r stands for document ``order[r]``; ``norms[r]``, the
    vector norm of document ``order[r]``; and per term its postings grouped
    by weight, one (tf * idf, docs) pair per distinct weight. ``docs`` is in
    rank space: a bitset, bit r set for document ``order[r]``, or, when that
    would take more bytes than the ranks (df * 64 < n), the ascending ranks.
    In rank order a document's norm never falls, so among documents of one
    dot product the score never rises, and each class of a query's pattern
    gives its best document first (see ``vector_retrieve``)."""
    idf: dict[str, float]
    order: list[int]
    norms: list[float]
    groups: dict[str, Groups]


def _tfidf_tables(entries: list[tuple[DockerSpec, str]]) -> TfidfTables:
    """Tables over the entries' rendered specs; a document's weights, and the
    squares summed into its norm, follow its terms' first-occurrence order.
    The groups are filled in rank order, keyed by tf (a term's weight is tf
    times its idf): a sparse term's ranks are appended, and a dense term's
    bits are set in a bytearray per weight, bit r at byte r // 8, read as
    one little-endian int at the end."""
    n = len(entries)
    doc_counts = [Counter(rendered_spec_text(s).split()) for s, _ in entries]
    df = Counter(chain.from_iterable(doc_counts))
    idf = {term: math.log((1.0 + n) / (1.0 + d)) + 1.0 for term, d in df.items()}
    doc_norms = []
    for counts in doc_counts:
        weights = list(map(mul, counts.values(), map(idf.__getitem__, counts)))
        doc_norms.append(math.sqrt(sum(map(mul, weights, weights))))
    order = sorted(range(n), key=doc_norms.__getitem__)  # stable: ties by id
    sparse = {term: {} for term, d in df.items() if d * 64 < n}
    dense = {term: {} for term, d in df.items() if d * 64 >= n}
    size = (n + 7) // 8
    for rank, doc_id in enumerate(order):
        byte, bit = rank >> 3, 1 << (rank & 7)
        for term, tf in doc_counts[doc_id].items():
            by_tf = dense.get(term)
            if by_tf is None:
                by_tf = sparse[term]
                ranks = by_tf.get(tf)
                if ranks is None:
                    by_tf[tf] = [rank]
                else:
                    ranks.append(rank)
            else:
                bits = by_tf.get(tf)
                if bits is None:
                    bits = by_tf[tf] = bytearray(size)
                bits[byte] |= bit
    groups = {term: tuple((tf * idf[term], tuple(ranks)) for tf, ranks in by_tf.items())
              for term, by_tf in sparse.items()}
    groups.update((term, tuple((tf * idf[term], int.from_bytes(bits, "little"))
                               for tf, bits in by_tf.items()))
                  for term, by_tf in dense.items())
    return TfidfTables(idf, order, [doc_norms[doc_id] for doc_id in order], groups)


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


def _bm25_impacts(entries: list[tuple[DockerSpec, str]], k1: float,
                  b: float) -> dict[str, dict[str, Groups]]:
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
    def impacts(self) -> dict[str, dict[str, Groups]]:
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
    """Raise ConfigError unless k1 is a number in [0, ``MAX_K1``] and b a
    number in [0, 1]; a bool is not a number here.

    The bound keeps every BM25 weight, idf * tf * (k1 + 1) / (tf + norm)
    with norm = k1 * (1 - b + b * length / avgdl), and every score finite
    for any index a Python list can hold: n documents and any field's
    length, tf or query terms are below 2**63, so idf <= ln(1 + 2n) < 45 and
    length / avgdl <= n. Then norm <= 1e9 * 2**63 and
    idf * tf * (k1 + 1) <= 45 * 2**63 * (1e9 + 1), both below 1e30; a weight
    is at most idf * (k1 + 1), and a score, a sum of fewer than 2**63
    weights, stays below 1e30 too, far from the float maximum (1.8e308)."""
    try:
        finite = math.isfinite(k1)
    except OverflowError:  # an int too large for a float
        finite = False
    if isinstance(k1, bool) or not (finite and k1 >= 0.0):
        raise ConfigError(f"k1 must be a finite number >= 0, got {k1!r}")
    if k1 > MAX_K1:
        raise ConfigError(f"k1 must be at most {MAX_K1:g}, got {k1!r}")
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


def _set_bits(docs: int) -> Iterator[int]:
    """The bits set in ``docs``, ascending. Each step jumps to the lowest set
    bit and reads the 64 bits from there, so a step costs one pass over
    ``docs`` and yields at least one bit."""
    base = 0
    while docs:
        low = (docs & -docs).bit_length() - 1
        word = (docs >> low) & 0xFFFF_FFFF_FFFF_FFFF
        base += low
        while word:
            bit = word & -word
            yield base + bit.bit_length() - 1
            word ^= bit
        docs >>= low + 64
        base += 64


def _query_groups(groups: Groups) -> tuple[list[tuple[float, int]], int]:
    """A query term's ``groups`` with sparse docs made bitsets, and their
    union (a sum, since a term's groups are disjoint)."""
    bitsets = [(weight, docs if isinstance(docs, int) else _bitset(docs))
               for weight, docs in groups]
    return bitsets, sum(docs for _, docs in bitsets)


def _split(docs: int, union: int,
           groups: list[tuple[float, int]]) -> list[tuple[int, float | None]]:
    """``docs`` split at one query term, whose ``groups`` have the given
    ``union``: its documents in none of them with weight None (``docs``
    itself when none is met), then one child per group met, in the groups'
    order, with that group's weight."""
    matched = docs & union
    if not matched:
        return [(docs, None)]
    split = [] if matched == docs else [(docs ^ matched, None)]
    for weight, group in groups:
        child = matched & group
        if child:
            split.append((child, weight))
            matched ^= child
            if not matched:
                break
    return split


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
    # per query term that the index holds: its groups as bitsets, and their union
    terms = [_query_groups(index.impacts[field_name][term])
             for field_name in SPEC_FIELDS for term in query_terms[field_name]
             if term in index.impacts[field_name]]
    maxima = [groups[0][0] for groups, _ in terms]
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
            held.extend((-partial, doc_id) for doc_id in islice(_set_bits(docs), k))
            continue
        tail = tails[step]
        groups, union = terms[step]
        for child, weight in _split(docs, union, groups):
            score = partial if weight is None else partial + weight
            heapq.heappush(heap, (-_bound(score, tail), -step - 1, child, score))
    held.sort()
    return [ScoredHit(doc_id, -score, index.entries[doc_id][1]) for score, doc_id in held[:k]]


def vector_retrieve(spec: DockerSpec, k: int,
                    entries: list[tuple[DockerSpec, str]]) -> list[ScoredHit]:
    """Top-k by TF-IDF cosine between the rendered query spec and each stored
    spec (the lexical stand-in for the sentence-embedding baseline); ties
    broken by ascending id.

    Uses smoothed idf, ln((1+N)/(1+df)) + 1, so identical rendered specs
    always score 1.0. The tables over an index's own ``entries`` are built
    once; over any other list, once per call. The documents, as one bitset
    in rank order (see ``TfidfTables``), are split into classes of one
    pattern of parts, walking the query's terms in first-occurrence order
    and each term's weight groups, as ``retrieve`` splits its nodes. A
    class's dot product is the sum of its parts in that order, as the dot
    product over the query's terms adds them, so each score is the same to
    the last bit. A document's score is its class's dot over the query's
    norm times its own, which does not rise with the rank, so a heap merges
    the classes by their lowest ranks left and stops at the k-th hit. A
    class's head is taken before any document of an equal score, so all
    the documents of one score are held before the first is given, and ties
    go to the ascending id, even where a higher id has the smaller norm.
    Documents that hold no part score 0.0 and come last, in ascending id.
    No per-document list is built per query.
    """
    if not entries:
        raise EmptyCorpus("retrieval over an empty corpus")
    if k <= 0:
        return []
    tables = entries.tfidf if isinstance(entries, IndexedEntries) else _tfidf_tables(entries)
    n = len(entries)
    default = math.log((1.0 + n) / 1.0) + 1.0
    query = [(term, tf * tables.idf.get(term, default))
             for term, tf in Counter(rendered_spec_text(spec).split()).items()]
    query_norm = math.sqrt(sum(w * w for _, w in query))
    # Split the documents into classes of one pattern, term by term in the
    # query's first-occurrence order and group by group. Each (query term,
    # weight group) pair is one part, the product of the two weights, which
    # a class's documents all hold or all lack. A class's parts are then in
    # the query's term order, as the dot product over the query's terms adds
    # them, so their sum gives every score to the last bit on any Python.
    classes = [((1 << n) - 1, ())]
    for term, weight in query:
        if term in tables.groups:
            groups, union = _query_groups(tables.groups[term])
            classes = [(child, parts if doc_weight is None else parts + (weight * doc_weight,))
                       for docs, parts in classes
                       for child, doc_weight in _split(docs, union, groups)]
    # Merge the classes best first. Every part is at least 1.0 (tf >= 1,
    # idf >= 1), so a class with parts scores above 0.0, and its score
    # dot / (query_norm * norm) does not rise with the rank: its lowest rank
    # left is its best document, its head. Entries are (-score, 0, rank,
    # dot, ranks) for a head and (-score, 1, doc id) for a document, so a
    # head comes before every document of an equal score. A class's first
    # head holds its bitset, and taking it makes the iterator of the ranks
    # after it. Taking a head puts the class's next head in its place; its
    # document is a hit at once when no entry left holds its score, and is
    # pushed as a document otherwise. So the documents of one score are
    # taken only once every class's head is below it, all of them in the
    # heap, and ties go to the ascending id.
    norms, order = tables.norms, tables.order
    heap, zero = [], 0
    for docs, parts in classes:
        if parts:
            dot = sum(parts)
            rank = (docs & -docs).bit_length() - 1
            heap.append((-(dot / (query_norm * norms[rank])), 0, rank, dot, docs))
        else:
            zero = docs
    heapq.heapify(heap)
    ids: list[int] = []
    scores: list[float] = []
    while heap and len(ids) < k:
        entry = heap[0]
        score = entry[0]
        if entry[1]:  # a document
            heapq.heappop(heap)
            doc_id = entry[2]
        else:
            _, _, rank, dot, ranks = entry
            if type(ranks) is int:
                ranks = _set_bits(ranks & ranks - 1)  # the bitset without its head
            following = next(ranks, None)
            if following is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (-(dot / (query_norm * norms[following])), 0,
                                         following, dot, ranks))
            doc_id = order[rank]
            if heap and heap[0][0] == score:
                heapq.heappush(heap, (score, 1, doc_id))
                continue
        ids.append(doc_id)
        scores.append(-score)
    # the documents that hold no part score 0.0, whatever their norms
    if len(ids) < k:
        ids += heapq.nsmallest(k - len(ids), map(order.__getitem__, _set_bits(zero)))
        scores += [0.0] * (len(ids) - len(scores))
    return [ScoredHit(doc_id, score, entries[doc_id][1])
            for doc_id, score in zip(ids[:k], scores)]


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
