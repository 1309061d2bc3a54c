"""Metrics and statistics for comparing generated Dockerfiles to targets.

Covers per-field adherence with dependency recall, Zhang-Shasha tree edit
distance with size normalization, BLEU-4, layer-digest matching, and the
Mann-Whitney / Benjamini-Hochberg / Cliff's delta trio used to compare
systems.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

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
    """Finished tree-distance columns of ``b``'s Zhang-Shasha keyroots,
    keyed by shapes, for distances that measure trees against one memo.

    A shape id is a hash-consed ``(label code, child shape ids)``, interned
    in ``shapes``; label codes are interned in ``labels``. Two subtrees
    measured against one memo thus get one shape id exactly when they are
    equal as labeled ordered trees. Once every keyroot of ``a`` has met a
    keyroot of ``b``, the distances from each subtree of ``a`` to the nodes
    on that keyroot's left path are final, and they depend only on ``a`` and
    the keyroot's shape: ``columns`` keeps them, one list per left-path node
    of one value per row of ``a``, under ``(a's root shape, the keyroot's
    shape)``, and a later keyroot of that shape copies them instead of
    filling any forest.
    """

    def __init__(self) -> None:
        self.labels: dict[str, int] = {}
        self.shapes: dict[tuple[int, tuple[int, ...]], int] = {}
        self.columns: dict[tuple[int, int], list[list[int]]] = {}


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


def _leaf_rows(wanted: set[int], labels: list[int], leftmost: list[int],
               parents: list[int]) -> dict[int, list[int]]:
    """Per label in ``wanted``, the distance from one node of that label to
    each subtree T(y) of a post-order tree: |T(y)| - 1 + (label not in
    T(y)), because the node can be kept as any node of T(y) and every other
    node is inserted. Each row starts as the sizes |T(y)| and loses 1 on
    each node with the label and its ancestors, up to the first one already
    lowered."""
    sizes = [y - left + 1 for y, left in enumerate(leftmost)]
    rows = {label: sizes.copy() for label in wanted}
    for y, label in enumerate(labels):
        row = rows.get(label)
        if row is not None:
            while y >= 0 and row[y] == sizes[y]:
                row[y] -= 1
                y = parents[y]
    return rows


def _column(lj: int, j: int, labels_b: list[int], left_b: list[int]) -> tuple:
    """What a forest over ``b``'s nodes ``lj..j`` reads of ``b``, built once
    per keyroot: the nodes' bounds and labels, per node the offset of its
    leftmost leaf, the forest columns on ``j``'s left path, and the
    forest's first row."""
    # forest column y is node lj + y - 1; the forest left of that node's
    # subtree ends at column offsets[y - 1], which is 0 on j's left path
    offsets = [left_b[y] - lj for y in range(lj, j + 1)]
    path_ys = [y + 1 for y, offset in enumerate(offsets) if not offset]
    return lj, j + 1, labels_b[lj:j + 1], offsets, path_ys, list(range(j - lj + 2))


def _forest(li: int, i: int, labels_a: list[int], left_a: list[int],
            tree_dist: list[list[int]], column: tuple) -> tuple[list[list[int]], list[int]]:
    """Fill the forest table of ``a``'s nodes ``li..i`` against the nodes of
    ``column``, row by row. Returns the distances between the nodes on the
    two left paths, one list per row of ``a``'s path, and the last row."""
    lj, stop, labels, offsets, path_ys, first_row = column
    path_values = []
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
            path_values.append([row[y] for y in path_ys])
        forest.append(row)
        above = row
    return path_values, above


def tree_edit_distance(a: Node, b: Node, memo: SubtreePairMemo | None = None) -> int:
    """Minimum number of unit-cost node insertions, deletions, and relabels
    turning ordered tree ``a`` into ``b``.

    Zhang & Shasha (SIAM J. Comput. 1989). ``tree_dist[x][y]`` is the
    distance between the subtrees of ``a``'s node ``x`` and ``b``'s node
    ``y`` (post-order). When the two roots have equal labels, some optimal
    mapping maps root to root (a root mapped elsewhere or not at all can be
    remapped to the other root at no extra cost), so the distance is that
    of the two child forests: the keyroots are those of the forests (each
    root's first child instead of the root), ``a``'s root gets no row, no
    pair involving a root is filled, and one last forest table over all
    non-root nodes, stored in no memo, gives the answer. Trees whose roots
    differ are scored the same way under two wrapper roots of one label,
    since the distance of two one-tree forests is that of the trees.

    ``b``'s keyroots are the outer loop and ``a``'s the inner one: a pair
    reads only pairs inside its two subtrees with an earlier keyroot of
    ``b``, or the same one and an earlier keyroot of ``a``, so once a
    keyroot of ``b`` is done, the columns on its left path are final.
    Subtree distances depend only on shapes, so each distinct shape of
    ``a`` gets one row, shared by its nodes, and a keyroot of ``a`` whose
    shape lies on the left path of an earlier keyroot is skipped: that
    keyroot's pairs already filled the rows. A keyroot of ``b`` whose shape
    ``memo`` (a fresh one when None) holds copies its finished columns and
    fills no forest; otherwise each pair with it fills a forest table row
    by row, from column data built once for the keyroot, and the columns
    are stored. A keyroot that is a leaf gets its whole row or column in
    closed form, from one row per distinct label built over the other tree.
    """
    memo = memo if memo is not None else SubtreePairMemo()
    if a.label != b.label:
        a, b = Node("", [a]), Node("", [b])
    labels_a, left_a, shapes_a, parents_a = _postorder(a, memo)
    labels_b, left_b, shapes_b, parents_b = _postorder(b, memo)
    size_a, size_b = len(labels_a), len(labels_b)
    keyroots_a = _keyroots(left_a[:-1])
    keyroots_b = _keyroots(left_b[:-1])
    rows_over_b = _leaf_rows({labels_a[i] for i in keyroots_a if left_a[i] == i},
                             labels_b, left_b, parents_b)
    rows_over_a = _leaf_rows({labels_b[j] for j in keyroots_b if left_b[j] == j},
                             labels_a, left_a, parents_a)

    # one row per distinct shape, in the order the shapes first occur; no
    # keyroot pair writes a leaf keyroot's row, so a leaf whose label has
    # one takes the closed form
    row_of_shape: dict[int, list[int]] = {}
    tree_dist = []
    for x in range(size_a - 1):
        row = row_of_shape.get(shapes_a[x])
        if row is None:
            row = rows_over_b.get(labels_a[x]) if left_a[x] == x else None
            row_of_shape[shapes_a[x]] = row = row if row is not None else [0] * size_b
        tree_dist.append(row)
    rows = list(row_of_shape.values())

    # the keyroots of a that fill forests: not a leaf, and a shape on no
    # left path of an earlier one, whose forests fill the rows first (a
    # shape first seen on the left path of a later keyroot does not count:
    # its row is filled only after the forests in between read it)
    runs = []
    seen = set()
    for i in keyroots_a:
        li = left_a[i]
        if li != i and shapes_a[i] not in seen:
            path = [x for x in range(li, i + 1) if left_a[x] == li]
            seen.update(shapes_a[x] for x in path)
            runs.append((li, i, [tree_dist[x] for x in path]))

    stored_columns = memo.columns
    for j in keyroots_b:
        lj = left_b[j]
        if lj == j:
            for row, value in zip(tree_dist, rows_over_a[labels_b[j]]):
                row[j] = value
            continue
        path_columns = [y for y in range(lj, j + 1) if left_b[y] == lj]
        key = (shapes_a[-1], shapes_b[j])
        stored = stored_columns.get(key)
        if stored is not None:
            for y, values in zip(path_columns, stored):
                for row, value in zip(rows, values):
                    row[y] = value
            continue
        column = _column(lj, j, labels_b, left_b)
        for li, i, path_rows in runs:
            # the forest reads no cell it would write, so writing them all
            # after it is the same as writing each as its row is done
            for dist_row, values in zip(path_rows, _forest(
                    li, i, labels_a, left_a, tree_dist, column)[0]):
                for y, value in zip(path_columns, values):
                    dist_row[y] = value
        stored_columns[key] = [[row[y] for row in rows] for y in path_columns]
    return _forest(0, size_a - 2, labels_a, left_a, tree_dist,
                   _column(0, size_b - 2, labels_b, left_b))[1][-1]


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
    distances measured against this target, so an output keyroot whose
    shape an earlier output (or an earlier keyroot of the same output) had
    copies its finished columns; it is dropped with the target."""

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
