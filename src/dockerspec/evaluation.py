"""Metrics and statistics for comparing generated Dockerfiles to targets.

Covers per-field adherence with dependency recall, Zhang-Shasha tree edit
distance with size normalization, BLEU-4, layer-digest matching, and the
Mann-Whitney / Benjamini-Hochberg / Cliff's delta trio used to compare
systems.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .dockerfile_syntax import DockerfileDocument, Node, ast_size, build_ast, parse_dockerfile
from .errors import (
    DockerspecError,
    EmptyCandidate,
    EmptyInput,
    EmptyManifest,
    EmptySample,
)
from .spec_inference import infer_spec
from .spec_model import SPEC_FIELDS, DockerSpec, WordLists


# ---------------------------------------------------------------------------
# adherence

@dataclass(frozen=True)
class AdherenceReport:
    """Per-field agreement; every non-dependency score is 0 or 1, the
    dependencies score is recall against the target set."""

    field_scores: dict[str, float]


def adherence(target: DockerSpec, obtained: DockerSpec) -> AdherenceReport:
    """Score each field 1/0 on equality; dependencies score recall
    (1.0 when the target set is empty: nothing required, nothing missed)."""
    scores: dict[str, float] = {}
    for name in SPEC_FIELDS:
        if name == "dependencies":
            if not target.dependencies:
                scores[name] = 1.0
            else:
                hit = len(target.dependencies & obtained.dependencies)
                scores[name] = hit / len(target.dependencies)
        else:
            scores[name] = 1.0 if getattr(target, name) == getattr(obtained, name) else 0.0
    return AdherenceReport(scores)


# ---------------------------------------------------------------------------
# tree edit distance (Zhang-Shasha, unit costs)

class SubtreePairMemo:
    """Subtree-distance tables keyed by shapes, for distances that measure
    trees against one memo.

    A shape id is a hash-consed ``(label code, child shape ids)``, interned
    in ``shapes``; label codes are interned in ``labels``. Two subtrees
    measured against one memo thus get one shape id exactly when they are
    equal as labeled ordered trees, and the distance between two subtrees
    depends only on their shapes. ``subtrees`` keeps, per shape of a root's
    child, what a table reads of that child (``_Subtree``). ``tables`` keeps,
    under ``(shape of a's child, shape of b's child)``, the distance from
    every subtree of the one to every subtree of the other (``_table``), so a
    later pair of children of those shapes, in the same trees or others,
    reads it instead of filling any forest. The last forest table, over the
    roots' children, is stored nowhere.
    """

    def __init__(self) -> None:
        self.labels: dict[str, int] = {}
        self.shapes: dict[tuple[int, tuple[int, ...]], int] = {}
        self.subtrees: dict[int, _Subtree] = {}
        self.tables: dict[tuple[int, int], list[list[int]]] = {}


def _postorder(root: Node, memo: SubtreePairMemo
               ) -> tuple[list[int], list[int], list[int], list[int]]:
    """Post-order label codes, per node the index of its leftmost leaf, per
    node the shape id of its subtree, interned in ``memo``, and per node the
    index of its parent (-1 for the root). Walks with an explicit stack, so
    depth is not bounded by the recursion limit."""
    codes, shape_ids = memo.labels, memo.shapes
    labels: list[int] = []
    leftmost: list[int] = []
    shapes: list[int] = []
    parents: list[int] = []
    # popping the last child first visits the tree in reverse post-order
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    # the indices of walked subtrees whose parent is not walked yet; a
    # node's children are the last of them
    pending: list[int] = []
    for node in reversed(order):
        index = len(labels)
        first = len(pending) - len(node.children)
        children = pending[first:]
        del pending[first:]
        for child in children:
            parents[child] = index
        label = codes.setdefault(node.label, len(codes))
        labels.append(label)
        leftmost.append(leftmost[children[0]] if children else index)
        shape = (label, tuple(shapes[child] for child in children))
        shapes.append(shape_ids.setdefault(shape, len(shape_ids)))
        parents.append(-1)
        pending.append(index)
    return labels, leftmost, shapes, parents


def _keyroots(leftmost: list[int]) -> list[int]:
    last_with_leftmost: dict[int, int] = {}
    for index, value in enumerate(leftmost):
        last_with_leftmost[value] = index
    return sorted(last_with_leftmost.values())


def _column(lj: int, j: int, labels_b: list[int], left_b: list[int]) -> tuple:
    """What a forest over ``b``'s nodes ``lj..j`` reads of ``b``, built once
    per keyroot: the nodes' bounds and labels, per node the offset of its
    leftmost leaf, the forest columns on ``j``'s left path past its leaf
    with their nodes, and the forest's first row."""
    # forest column y is node lj + y - 1; the forest left of that node's
    # subtree ends at column offsets[y - 1], which is 0 on j's left path
    offsets = [left_b[y] - lj for y in range(lj, j + 1)]
    path = [(y + 1, lj + y) for y, offset in enumerate(offsets) if y and not offset]
    return lj, j + 1, labels_b[lj:j + 1], offsets, path, list(range(j - lj + 2))


def _forest(li: int, i: int, labels_a: list[int], left_a: list[int],
            tree_dist: list[list[int]], column: tuple) -> None:
    """Fill the forest table of ``a``'s nodes ``li..i`` against the nodes of
    ``column``, row by row, and write the distances between the inner nodes
    on the two left paths into ``tree_dist``. A row is written after it is
    read, and a later row that shares its list (an equal shape) reads the
    same distances there, so the writes change no cell of the forest."""
    lj, stop, labels, offsets, path, first_row = column
    # forest[x][y]: distance between a's nodes li..li+x-1 and b's nodes
    # lj..lj+y-1; each cell is the cheapest of deleting the last node of a
    # (the row above + 1), inserting the last node of b (the cell to the
    # left + 1), and matching the two last subtrees whole (the forests left
    # of them + tree_dist)
    forest = [first_row]
    above = first_row
    for x, node in enumerate(range(li, i + 1), 1):
        dist_row = tree_dist[node]
        row = [x]
        append = row.append
        cell = x
        p = left_a[node] - li
        if p:
            before = forest[p]
            for q, dist, up in zip(offsets, dist_row[lj:stop], above[1:]):
                if up < cell:
                    cell = up
                cell += 1
                dist += before[q]
                if dist < cell:
                    cell = dist
                append(cell)
        else:
            # node is on i's left path: forest[0][q] is q, and where the
            # column is on j's left path too, matching the two subtrees is
            # relabelling node onto the column's node
            label = labels_a[node]
            diagonal = x - 1
            for q, other, dist, up in zip(offsets, labels, dist_row[lj:stop], above[1:]):
                if up < cell:
                    cell = up
                cell += 1
                dist = dist + q if q else diagonal + (label != other)
                if dist < cell:
                    cell = dist
                diagonal = up
                append(cell)
            if x > 1:  # row 1 is li, a leaf, whose row is the closed form
                for y, other in path:
                    dist_row[other] = row[y]
        forest.append(row)
        above = row


class _Subtree(NamedTuple):
    """What a table reads of one child of a root, indexed from the child's
    first post-order node: its labels, leftmost leaves, shapes and sizes;
    per label in it, the distance from one node of that label to each of
    its subtrees; as ``a``, the keyroots that fill forests, as (leftmost
    leaf, keyroot); and as ``b``, its leaves, as (node, label), and the
    ``_column`` data of its other keyroots."""

    labels: list[int]
    left: list[int]
    shapes: list[int]
    sizes: list[int]
    leaf_rows: dict[int, list[int]]
    runs: list[tuple[int, int]]
    leaves: list[tuple[int, int]]
    columns: list[tuple]


def _subtree(start: int, stop: int, labels: list[int], left: list[int],
             shapes: list[int], parents: list[int]) -> _Subtree:
    """The ``_Subtree`` over post-order nodes ``start`` to ``stop - 1``."""
    labels = labels[start:stop]
    left = [x - start for x in left[start:stop]]
    shapes = shapes[start:stop]
    parents = [x - start for x in parents[start:stop - 1]] + [-1]
    sizes = [y - x + 1 for y, x in enumerate(left)]
    # |T(y)| - 1 + (label not in T(y)), because the node can be kept as any
    # node of T(y) and every other node is inserted: each row starts as the
    # sizes and loses 1 on each node with the label and its ancestors, up
    # to the first one already lowered
    leaf_rows: dict[int, list[int]] = {}
    for y, label in enumerate(labels):
        row = leaf_rows.get(label)
        if row is None:
            leaf_rows[label] = row = sizes.copy()
        while y >= 0 and row[y] == sizes[y]:
            row[y] -= 1
            y = parents[y]
    keyroots = _keyroots(left)
    # the keyroots that fill forests: not a leaf, and a shape on no left
    # path of an earlier one, whose forests fill the shared rows first (a
    # shape first seen on the left path of a later keyroot does not count:
    # its row is filled only after the forests in between read it)
    runs = []
    seen = set()
    for i in keyroots:
        li = left[i]
        if li != i and shapes[i] not in seen:
            seen.update(shapes[x] for x in range(li + 1, i + 1) if left[x] == li)
            runs.append((li, i))
    leaves = [(y, label) for y, label in enumerate(labels) if left[y] == y]
    columns = [_column(left[j], j, labels, left) for j in keyroots if left[j] != j]
    return _Subtree(labels, left, shapes, sizes, leaf_rows, runs, leaves, columns)


def _table(a: _Subtree, b: _Subtree) -> list[list[int]]:
    """The distance from every subtree of ``a`` to every subtree of ``b``,
    one row per node of ``a``: Zhang-Shasha with every keyroot, the roots'
    included.

    ``b``'s keyroots are the outer loop and ``a``'s the inner one: a pair
    reads only pairs inside its two subtrees with an earlier keyroot of
    ``b``, or the same one and an earlier keyroot of ``a``. A leaf's row is
    the closed form in ``b``'s ``leaf_rows`` (its sizes when it lacks the
    label), shared and never written. Each distinct inner shape of ``a``
    gets one row, shared by its nodes: its columns at ``b``'s leaves are
    the closed form over ``a``, the others are filled by the forests of
    ``a``'s keyroots against each inner keyroot of ``b``. A keyroot of
    ``a`` whose shape lies on the left path of an earlier one fills no
    forest: that keyroot's pairs already filled the rows."""
    labels_a, left_a, shapes_a, sizes_a, leaf_rows_a, runs, _, _ = a
    _, _, _, sizes_b, leaf_rows_b, _, leaves, columns = b
    row_of_shape: dict[int, list[int]] = {}
    inner = []
    tree_dist = []
    for x, shape in enumerate(shapes_a):
        row = row_of_shape.get(shape)
        if row is None:
            if left_a[x] == x:
                row = leaf_rows_b.get(labels_a[x], sizes_b)
            else:
                row = [0] * len(sizes_b)
                inner.append((x, row))
            row_of_shape[shape] = row
        tree_dist.append(row)
    for y, label in leaves:
        values = leaf_rows_a.get(label, sizes_a)
        for x, row in inner:
            row[y] = values[x]
    for column in columns:
        for li, i in runs:
            _forest(li, i, labels_a, left_a, tree_dist, column)
    return tree_dist


def _root_children(post: tuple, memo: SubtreePairMemo
                   ) -> tuple[list[int], list[int], list[_Subtree]]:
    """The first and the last post-order index of each child of the root,
    in order, and each child's ``_Subtree``, built once per shape in
    ``memo``."""
    labels, left, shapes, parents = post
    starts, ends = [], []
    child = len(labels) - 2
    while child >= 0:
        starts.append(left[child])
        ends.append(child)
        child = left[child] - 1
    starts.reverse()
    ends.reverse()
    subtrees = memo.subtrees
    kids = []
    for start, end in zip(starts, ends):
        kid = subtrees.get(shapes[end])
        if kid is None:
            subtrees[shapes[end]] = kid = _subtree(start, end + 1, labels, left, shapes, parents)
        kids.append(kid)
    return starts, ends, kids


def _band(width: int, delta: int) -> tuple[int, int]:
    """The lowest and the highest diagonal t whose lower bound
    |t| + |t - delta| is at most ``width`` (which is at least |delta|)."""
    slack = (width - abs(delta)) // 2
    return min(0, delta) - slack, max(0, delta) + slack


def tree_edit_distance(a: Node, b: Node, memo: SubtreePairMemo | None = None) -> int:
    """Minimum number of unit-cost node insertions, deletions, and relabels
    turning ordered tree ``a`` into ``b``.

    Zhang & Shasha (SIAM J. Comput. 1989), filled only where an optimal
    mapping can reach, after Ukkonen's cut-off (Inf. Control 1985). When
    the two roots have equal labels, some optimal mapping maps root to root
    (a root mapped elsewhere or not at all can be remapped to the other
    root at no extra cost), so the distance d is that of the two child
    forests, of n1 and n2 nodes. Trees whose roots differ are scored the
    same way under two wrapper roots of one label, since the distance of
    two one-tree forests is that of the trees.

    The last forest table's cell (x, y), the first x nodes of ``a``'s
    forest in post-order against the first y of ``b``'s, lies only on paths
    that cost at least |t| + |t - Δ|, where t = y - x and Δ = n2 - n1: its
    two prefixes differ in size by |t|, and the two rests by |t - Δ|. Each
    cell of an optimal path, and each pair of subtrees it matches, thus has
    a bound of at most d. So for any U >= d, the band of cells whose bound
    is at most U gives d exactly, with every other cell at n1 + n2 + 1.

    A cell matches a subtree of ``a``'s root child k with one of ``b``'s
    child l: it reads the table of (k, l), every subtree of the one against
    every subtree of the other (``_table``), which ``memo`` (a fresh one
    when None) keeps under the two children's shapes. A pair's table is
    computed only when its rectangle of cells meets the band, so every
    cell of the band reads a computed one.

    U is the cost of the best alignment of the two child sequences, where
    deleting or inserting a child costs its size and matching two costs
    their table's root distance. That is the cost of a real mapping, so
    U >= d. The alignment first runs over the pairs that meet the band of
    width |Δ| + 2; when it costs more than that, the band of its cost gets
    its tables and the alignment runs once more, so the band of the final
    U has every table it reads. Rows of the band find the tables that their
    columns fall in by bisecting the children's spans.
    """
    memo = memo if memo is not None else SubtreePairMemo()
    if a.label != b.label:
        a, b = Node("", [a]), Node("", [b])
    post_a, post_b = _postorder(a, memo), _postorder(b, memo)
    n1, n2 = len(post_a[0]) - 1, len(post_b[0]) - 1
    if not n1 or not n2:
        return n1 + n2
    starts_a, ends_a, kids_a = _root_children(post_a, memo)
    starts_b, ends_b, kids_b = _root_children(post_b, memo)
    sizes_a = [len(kid.labels) for kid in kids_a]
    sizes_b = [len(kid.labels) for kid in kids_b]
    delta = n2 - n1
    far = n1 + n2 + 1
    tables = [[None] * len(kids_b) for _ in kids_a]
    roots = [[far] * len(kids_b) for _ in kids_a]
    stored = memo.tables

    def bound(width: int) -> int:
        # the tables of the pairs whose rectangle meets the band: for child
        # k, the children l of b whose last node is not left of the band at
        # k's first row and whose first node is not right of it at k's last
        tlo, thi = _band(width, delta)
        for kid, start, end, row_tables, row_roots in zip(
                kids_a, starts_a, ends_a, tables, roots):
            for l in range(bisect_left(ends_b, start + tlo), bisect_right(starts_b, end + thi)):
                if row_tables[l] is None:
                    key = (kid.shapes[-1], kids_b[l].shapes[-1])
                    table = stored.get(key)
                    if table is None:
                        stored[key] = table = _table(kid, kids_b[l])
                    row_tables[l] = table
                    row_roots[l] = table[-1][-1]
        # then the alignment of the children: above[l] aligns the first k
        # children of a with the first l of b
        above = [0]
        for size in sizes_b:
            above.append(above[-1] + size)
        for size_a, row_roots in zip(sizes_a, roots):
            cell = above[0] + size_a
            row = [cell]
            for up, diagonal, size_b, root in zip(above[1:], above, sizes_b, row_roots):
                cell += size_b
                up += size_a
                if up < cell:
                    cell = up
                diagonal += root
                if diagonal < cell:
                    cell = diagonal
                row.append(cell)
            above = row
        return above[-1]

    width = abs(delta) + 2
    upper = bound(width)
    if upper > width:
        upper = bound(upper)
    tlo, thi = _band(upper, delta)

    # the last forest table, as _forest fills one, but only on the band:
    # row x holds columns x + tlo .. x + thi, and every other cell is far.
    # Its node is in a's child k; tree_dist of node and b's node y - 1 is
    # in the table of k and the child of b that y - 1 falls in. Matching
    # subtrees on the two first children's left paths needs no relabelling
    # case: that table holds their distance, and forest[0][0] is 0
    left_a, offsets = post_a[1], post_b[1]
    last = min(n2, thi)
    above = list(range(last + 1)) + [far] * (n2 - last)
    forest = [above]
    k = 0
    for x in range(1, n1 + 1):
        node = x - 1
        if node > ends_a[k]:
            k += 1
        lo, hi = x + tlo, min(n2, x + thi)
        if lo <= 0:
            row = [x]
            cell = x
            lo = 1
        else:
            row = [far] * lo
            cell = far
        local, row_tables = node - starts_a[k], tables[k]
        dists = []
        l = bisect_right(starts_b, lo - 1) - 1
        while l < len(starts_b) and starts_b[l] < hi:
            start = starts_b[l]
            dists += row_tables[l][local][max(lo - 1 - start, 0):hi - start]
            l += 1
        before = forest[left_a[node]]
        append = row.append
        for q, dist, up in zip(offsets[lo - 1:hi], dists, above[lo:hi + 1]):
            if up < cell:
                cell = up
            cell += 1
            dist += before[q]
            if dist < cell:
                cell = dist
            append(cell)
        row += [far] * (n2 - hi)
        forest.append(row)
        above = row
    return above[n2]


@dataclass(frozen=True)
class DistanceReport:
    raw_distance: int
    normalized: float
    size_a: int
    size_b: int


def normalized_distance(a: Node, b: Node,
                        memo: SubtreePairMemo | None = None) -> DistanceReport:
    """Edit distance divided by the sum of the two tree sizes."""
    raw = tree_edit_distance(a, b, memo)
    size_a, size_b = ast_size(a), ast_size(b)
    return DistanceReport(raw, raw / (size_a + size_b), size_a, size_b)


# ---------------------------------------------------------------------------
# BLEU-4

def _ngram_counts(tokens: list[str], order: int) -> Counter:
    return Counter(tuple(tokens[i:i + order]) for i in range(len(tokens) - order + 1))


def bleu4(candidate: list[str], reference: list[str]) -> float:
    """Geometric mean of modified 1..4-gram precisions times the brevity
    penalty. A zero n-gram precision is smoothed to 1/(2 * candidate length).
    """
    if not candidate:
        raise EmptyCandidate("BLEU candidate is empty")
    c, r = len(candidate), len(reference)
    log_precision_sum = 0.0
    for order in range(1, 5):
        candidate_ngrams = _ngram_counts(candidate, order)
        reference_ngrams = _ngram_counts(reference, order)
        matched = sum(min(count, reference_ngrams[gram])
                      for gram, count in candidate_ngrams.items())
        total = max(c - order + 1, 0)
        precision = matched / total if total else 0.0
        if precision == 0.0:
            precision = 1.0 / (2.0 * c)
        log_precision_sum += math.log(precision)
    brevity = 1.0 if c > r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_precision_sum / 4.0)


# ---------------------------------------------------------------------------
# image layers

@dataclass(frozen=True)
class LayerReport:
    digest_equal: bool
    matching_layer_ratio: float

    def __post_init__(self):
        if self.digest_equal and self.matching_layer_ratio != 1.0:
            raise ValueError("equal image digests but differing layer sets")


def layer_match(original_layers: list[str], generated_layers: list[str],
                original_digest: str, generated_digest: str) -> LayerReport:
    """Share of original layer digests that also appear in the generated
    image, plus digest equality of the whole images (an unknown/empty image
    digest never compares equal)."""
    original = set(original_layers)
    if not original:
        raise EmptyManifest("original manifest has no layers")
    ratio = len(original & set(generated_layers)) / len(original)
    return LayerReport(bool(original_digest) and original_digest == generated_digest, ratio)


# ---------------------------------------------------------------------------
# statistics

def _midranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for position in range(i, j + 1):
            ranks[order[position]] = midrank
        i = j + 1
    return ranks


def _exact_p_value(ranks: list[float], n_a: int) -> float:
    """Two-sided permutation p-value for the rank sum of the first sample:
    the share of equally likely group assignments whose rank sum deviates
    from the null mean at least as much as the observed one. Doubling the
    ranks keeps midranks from ties in exact integers."""
    doubled = [int(round(2 * r)) for r in ranks]
    n = len(ranks)
    # ways[c][s] = number of c-subsets of the doubled ranks summing to s
    ways: list[Counter] = [Counter() for _ in range(n_a + 1)]
    ways[0][0] = 1
    for value in doubled:
        for c in range(n_a - 1, -1, -1):
            if not ways[c]:
                continue
            for s, count in list(ways[c].items()):
                ways[c + 1][s + value] += count
    center = n_a * (n + 1)  # doubled expected rank sum
    observed_deviation = abs(sum(doubled[:n_a]) - center)
    matching = sum(count for s, count in ways[n_a].items()
                   if abs(s - center) >= observed_deviation)
    return matching / math.comb(n, n_a)


def mann_whitney_u(sample_a: list[float], sample_b: list[float]) -> tuple[float, float]:
    """Mann-Whitney U of the first sample and the two-sided p-value.

    Exact permutation distribution when the combined size is at most 16,
    tie-corrected normal approximation (no continuity correction) otherwise.
    """
    if not sample_a or not sample_b:
        raise EmptySample("both samples must be non-empty")
    n_a, n_b = len(sample_a), len(sample_b)
    n = n_a + n_b
    ranks = _midranks(list(sample_a) + list(sample_b))
    rank_sum_a = sum(ranks[:n_a])
    u_a = rank_sum_a - n_a * (n_a + 1) / 2.0

    if n <= 16:
        return u_a, _exact_p_value(ranks, n_a)

    tie_term = 0.0
    for count in Counter(ranks).values():
        tie_term += count ** 3 - count
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return u_a, 1.0
    z = (u_a - n_a * n_b / 2.0) / math.sqrt(variance)
    return u_a, min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def benjamini_hochberg(p_values: list[float]) -> list[float]:
    """Step-up adjusted p-values: monotone, at least the raw value, capped
    at 1.0, returned in the input order."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running_min = 1.0
    for rank_index in range(m - 1, -1, -1):
        i = order[rank_index]
        running_min = min(running_min, p_values[i] * m / (rank_index + 1))
        adjusted[i] = running_min
    return adjusted


_DELTA_THRESHOLDS = ((0.147, "negligible"), (0.33, "small"), (0.474, "medium"))


def cliffs_delta(sample_a: list[float], sample_b: list[float]) -> tuple[float, str]:
    """Cliff's delta over all pairs plus its conventional magnitude label."""
    if not sample_a or not sample_b:
        raise EmptySample("both samples must be non-empty")
    greater = sum(1 for x in sample_a for y in sample_b if x > y)
    less = sum(1 for x in sample_a for y in sample_b if x < y)
    delta = (greater - less) / (len(sample_a) * len(sample_b))
    for threshold, label in _DELTA_THRESHOLDS:
        if abs(delta) < threshold:
            return delta, label
    return delta, "large"


# ---------------------------------------------------------------------------
# whole-run evaluation

@dataclass
class PairResult:
    index: int
    adherence: AdherenceReport | None = None
    distance: DistanceReport | None = None
    bleu: float | None = None
    error: str | None = None


@dataclass
class RunReport:
    pair_results: list[PairResult]
    adherence_means: dict[str, float]
    distance_summary: dict[str, float]
    bleu_mean: float | None
    evaluated_pairs: int
    failed_pairs: int


def infer_spec_for_generated(doc: DockerfileDocument, lists: WordLists,
                             target_dependencies: frozenset[str]) -> DockerSpec:
    """Spec of a parsed generated Dockerfile: ``infer_spec`` in its
    ``target_dependencies`` mode."""
    return infer_spec(doc, lists, target_dependencies)


@dataclass
class PreparedTarget:
    """A target Dockerfile prepared once for every output scored against it:
    its spec, tree and BLEU reference words, or the error string of the
    parse or inference that failed. ``memo`` is shared by the tree edit
    distances measured against this target, so a pair of root children
    whose two shapes an earlier output (or an earlier pair of the same
    output) had reads its stored subtree table, and a child shape seen
    before reuses its ``_Subtree``; it is dropped with the target."""

    words: list[str]
    spec: DockerSpec | None = None
    tree: Node | None = None
    error: str | None = None
    memo: SubtreePairMemo = field(default_factory=SubtreePairMemo)


def prepare_target(text: str, lists: WordLists) -> PreparedTarget:
    """The target ``text`` prepared for scoring; a failed parse or inference
    is kept as the error string every pair against it reports."""
    target = PreparedTarget(text.split())
    try:
        doc = parse_dockerfile(text)
        target.spec = infer_spec(doc, lists)
        target.tree = build_ast(doc)
    except DockerspecError as exc:
        target.error = f"{type(exc).__name__}: {exc}"
    return target


def evaluate_pair(index: int, target: PreparedTarget, generated_text: str,
                  lists: WordLists) -> PairResult:
    if target.error is not None:
        return PairResult(index, error=target.error)
    result = PairResult(index)
    try:
        generated_doc = parse_dockerfile(generated_text)
        obtained_spec = infer_spec_for_generated(generated_doc, lists, target.spec.dependencies)
        result.adherence = adherence(target.spec, obtained_spec)
        result.distance = normalized_distance(
            target.tree, build_ast(generated_doc), target.memo)
        result.bleu = bleu4(generated_text.split(), target.words)
    except DockerspecError as exc:
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def _run_report(results: list[PairResult]) -> RunReport:
    succeeded = [r for r in results if r.error is None]

    adherence_means = {}
    if succeeded:
        for name in SPEC_FIELDS:
            adherence_means[name] = statistics.fmean(
                r.adherence.field_scores[name] for r in succeeded)
    distances = [r.distance.normalized for r in succeeded]
    distance_summary = {}
    if distances:
        distance_summary = {
            "min": min(distances),
            "median": statistics.median(distances),
            "mean": statistics.fmean(distances),
            "max": max(distances),
            "stdev": statistics.pstdev(distances),
        }
    bleu_mean = statistics.fmean(r.bleu for r in succeeded) if succeeded else None
    return RunReport(
        pair_results=results,
        adherence_means=adherence_means,
        distance_summary=distance_summary,
        bleu_mean=bleu_mean,
        evaluated_pairs=len(succeeded),
        failed_pairs=len(results) - len(succeeded),
    )


def evaluate_systems(rows: list[tuple[str, dict[str, str]]],
                     lists: WordLists) -> dict[str, RunReport]:
    """Evaluate several systems target by target.

    Each row is a target text and, per system name, the text that system
    generated for it. Each target is prepared once and scored against every
    system's text; a system's pairs are numbered in row order. Pairs where
    parsing or inference fails are recorded and skipped; they never abort
    the run.
    """
    results: dict[str, list[PairResult]] = {}
    for target_text, generated in rows:
        target = prepare_target(target_text, lists)
        for system, generated_text in generated.items():
            pairs = results.setdefault(system, [])
            pairs.append(evaluate_pair(len(pairs), target, generated_text, lists))
    return {system: _run_report(pairs) for system, pairs in results.items()}


def evaluate_run(pairs: list[tuple[str, str]], lists: WordLists) -> RunReport:
    """Evaluate (target, generated) text pairs as one system of
    ``evaluate_systems``, each pair's target prepared on its own. Aggregates
    are means over the pairs that did not fail; with none, the BLEU mean is
    None and the other aggregates are empty.

    This is the documented one-system library API (the README's Library
    example); the ``evaluate`` command calls ``evaluate_systems``."""
    if not pairs:
        raise EmptyInput("no pairs to evaluate")
    return evaluate_systems([(target, {"": generated}) for target, generated in pairs],
                            lists)[""]


def compare_systems(distances_by_system: dict[str, list[float]]) -> list[dict]:
    """Pairwise Mann-Whitney tests over per-system distance distributions,
    with Benjamini-Hochberg adjustment across all pairings and Cliff's delta
    effect sizes. A system without distances (no evaluated pair) is left
    out."""
    names = sorted(name for name, distances in distances_by_system.items() if distances)
    pairings = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    raw = []
    for a, b in pairings:
        u, p = mann_whitney_u(distances_by_system[a], distances_by_system[b])
        delta, magnitude = cliffs_delta(distances_by_system[a], distances_by_system[b])
        raw.append({"systems": [a, b], "u_statistic": u, "p_value": p,
                    "delta": delta, "magnitude": magnitude})
    adjusted = benjamini_hochberg([item["p_value"] for item in raw])
    for item, p_adjusted in zip(raw, adjusted):
        item["p_adjusted"] = p_adjusted
    return raw
