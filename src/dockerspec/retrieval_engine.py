"""Dockerfile generation by retrieval.

Specs are rendered into per-field texts and indexed; a query spec scores
every document with Okapi BM25 summed over fields (a disjunctive,
should-style query). A TF-IDF cosine ranking over whole rendered specs is
provided as the lexical stand-in for an embedding-based baseline.

Building, saving or loading an index does no ranking work: it checks the
BM25 parameters and keeps the entries. Each ranker builds its table on its
first query over the index, and the index keeps it for later queries: for
BM25, per field each term's postings grouped by (tf, document length)
shape into (weight, docs) groups; for TF-IDF, the idf, the documents in
(norm, id) order, and per term its postings grouped by weight over that
order. Both encode a group's documents with ``_encode``: a bitset, or the
ascending numbers where the bitset would take more bytes.

Both rankers split the documents into classes that hold the same parts
and take the classes best first: BM25 by an upper bound over the terms
still to come, TF-IDF by each class's best document left, since within a
class the score falls with the norm. Both follow one tie rule: they take
classes while fewer than k documents are held or while the next one can
still reach the k-th score, then ``_hits`` sorts what they hold by
(descending score, ascending doc id) and keeps the top k. Both assume the
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
from typing import NamedTuple

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
    would take more bytes than the ranks, the ascending ranks (``_encode``).
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
    Each term's ranks are collected per tf (a term's weight is tf times its
    idf) in rank order, then encoded once."""
    n = len(entries)
    doc_counts = [Counter(rendered_spec_text(s).split()) for s, _ in entries]
    df = Counter(chain.from_iterable(doc_counts))
    idf = {term: math.log((1.0 + n) / (1.0 + d)) + 1.0 for term, d in df.items()}
    doc_norms = []
    for counts in doc_counts:
        weights = list(map(mul, counts.values(), map(idf.__getitem__, counts)))
        doc_norms.append(math.sqrt(sum(map(mul, weights, weights))))
    order = sorted(range(n), key=doc_norms.__getitem__)  # stable: ties by id
    postings: dict[str, dict[int, list[int]]] = {term: {} for term in df}
    for rank, doc_id in enumerate(order):
        for term, tf in doc_counts[doc_id].items():
            postings[term].setdefault(tf, []).append(rank)
    groups = {term: tuple((tf * idf[term], _encode(ranks, n)) for tf, ranks in by_tf.items())
              for term, by_tf in postings.items()}
    return TfidfTables(idf, order, [doc_norms[doc_id] for doc_id in order], groups)


class IndexedEntries(list):
    """An index's own (spec, dockerfile) list, read-only once indexed. Its
    TF-IDF tables are built on the first ``vector_retrieve`` over it and
    kept with it."""

    @cached_property
    def tfidf(self) -> TfidfTables:
        return _tfidf_tables(self)


def _bitset(ids, n: int) -> int:
    """The int with bit d set for each d in ``ids``, all below ``n``: bit d
    is set at byte d // 8 of a bytearray read as one little-endian int."""
    bits = bytearray((n + 7) >> 3)
    for i in ids:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def _encode(ids: list[int], n: int) -> int | tuple[int, ...]:
    """A group of ascending ``ids`` below ``n`` as a table keeps it: the ids
    when a bitset would take more bytes (len(ids) * 64 < n), else the
    bitset."""
    return tuple(ids) if len(ids) * 64 < n else _bitset(ids, n)


def _bm25_impacts(entries: list[tuple[DockerSpec, str]], k1: float,
                  b: float) -> dict[str, dict[str, Groups]]:
    """Per field, each term's postings grouped by shape: one (BM25 weight,
    docs) group per distinct (tf, document length), since a weight depends on
    the term's idf and the shape alone, highest weight first, so a term's
    maximum weight is its first group's. ``docs`` is a bitset, bit d set for
    doc d, or, when that would take more bytes than the ids, the ascending
    ids (``_encode``)."""
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
                groups.append((weight, _encode(ids, n)))
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


class ScoredHit(NamedTuple):
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


def _query_groups(groups: Groups, n: int) -> tuple[list[tuple[float, int]], int]:
    """A query term's ``groups`` over ``n`` documents with sparse docs made
    bitsets, and their union (a sum, since a term's groups are disjoint)."""
    bitsets = [(weight, docs if isinstance(docs, int) else _bitset(docs, n))
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


def _hits(held: list[tuple[float, int]], k: int,
          entries: list[tuple[DockerSpec, str]]) -> list[ScoredHit]:
    """The top k of ``held``, (-score, doc id) pairs, by descending score and
    then ascending id. Each ranker holds, of the documents that score at
    least its k-th score, every one that could be among the k lowest ids of
    its score, so ties go to the ascending id."""
    held.sort()
    return [ScoredHit(doc_id, -score, entries[doc_id][1]) for score, doc_id in held[:k]]


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
    of equal score that gives its lowest k ids. Nodes are taken while fewer
    than k ids are held or while the next bound reaches the k-th score, and
    ``_hits`` gives the top k.
    """
    if index.size == 0:
        raise EmptyCorpus("retrieval over an empty index")
    if k <= 0:
        return []
    query_terms = query_terms_for(spec)
    # per query term that the index holds: its groups as bitsets, and their union
    terms = [_query_groups(index.impacts[field_name][term], index.size)
             for field_name in SPEC_FIELDS for term in query_terms[field_name]
             if term in index.impacts[field_name]]
    maxima = [groups[0][0] for groups, _ in terms]
    tails = [maxima[step + 1:] for step in range(len(terms))]
    # (-bound, -next term, docs, partial): the highest bound first, the
    # deepest node of equal bounds first; nodes' docs are disjoint, so two
    # entries never compare their partials
    heap = [(-_bound(0.0, maxima), 0, (1 << index.size) - 1, 0.0)]
    held: list[tuple[float, int]] = []  # (-score, doc id); negation is exact
    while heap and (len(held) < k or heap[0][0] <= held[k - 1][0]):
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
    return _hits(held, k, index.entries)


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
    the classes by their lowest ranks left. It takes them while fewer than k
    documents are held or while the next one scores as high as the k-th,
    and ``_hits`` gives the top k, so ties go to the ascending id even where
    a higher id has the smaller norm. The class of documents that hold no
    part scores 0.0; it is merged as any other, but when it reaches the top
    it gives its k lowest ids at once, as a BM25 leaf does. No list of every
    document's score is built per query.
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
            groups, union = _query_groups(tables.groups[term], n)
            classes = [(child, parts if doc_weight is None else parts + (weight * doc_weight,))
                       for docs, parts in classes
                       for child, doc_weight in _split(docs, union, groups)]
    # Merge the classes best first. A class's score dot / (query_norm * norm)
    # does not rise with the rank, so its lowest rank left is its best
    # document, its head, and heads are taken in falling score order, so
    # held[k - 1] is the k-th score. Entries are (-score, head rank, dot,
    # rest of the class); a rank is in one class only, so two entries never
    # compare past it. A class's first entry holds its bitset, and taking it
    # makes the iterator of the ranks after its head. Every part is at least
    # 1.0 (tf >= 1, idf >= 1), so only the class with no parts has dot 0;
    # it scores 0.0 even where a norm is 0.0.
    norms, order = tables.norms, tables.order
    heap = []
    for docs, parts in classes:
        dot = sum(parts)
        rank = (docs & -docs).bit_length() - 1
        heap.append((-(dot / (query_norm * norms[rank])) if dot else -0.0, rank, dot, docs))
    heapq.heapify(heap)
    held: list[tuple[float, int]] = []  # (-score, doc id); negation is exact
    while heap and (len(held) < k or heap[0][0] <= held[k - 1][0]):
        score, rank, dot, ranks = heap[0]
        if not dot:
            # the class with no parts, still whole: all of it scores 0.0,
            # so its k lowest ids are all that _hits can take of it
            heapq.heappop(heap)
            held.extend((score, doc_id) for doc_id in
                        heapq.nsmallest(k, map(order.__getitem__, _set_bits(ranks))))
            continue
        if type(ranks) is int:
            ranks = _set_bits(ranks & ranks - 1)  # the bitset without its head
        following = next(ranks, None)
        if following is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (-(dot / (query_norm * norms[following])) if dot else -0.0,
                                     following, dot, ranks))
        held.append((score, order[rank]))
    return _hits(held, k, entries)


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
