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
from itertools import accumulate

from .dockerfile_syntax import (
    DockerfileDocument,
    Node,
    Runs,
    ast_size,
    build_ast,
    parse_dockerfile,
    split_runs,
)
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

    @property
    def dependency_recall(self) -> float:
        return self.field_scores["dependencies"]


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
    """Forest results of Zhang-Shasha keyroot pairs, keyed by the shapes of
    the two keyroot subtrees, for distances that measure trees against one
    memo.

    A shape id is a hash-consed ``(label code, child shape ids)``, interned
    in ``shapes``; label codes are interned in ``labels``. Two subtrees
    measured against one memo thus get one shape id exactly when they are
    equal as labeled ordered trees. A keyroot pair's forest reads only
    labels and distances within the two keyroot subtrees, so the left-path
    distances it writes depend only on the two shapes: ``pairs`` keeps them
    and a later pair of the same shapes writes them back instead of filling
    the forest again.
    """

    def __init__(self) -> None:
        self.labels: dict[str, int] = {}
        self.shapes: dict[tuple[int, tuple[int, ...]], int] = {}
        self.pairs: dict[tuple[int, int], list[list[int]]] = {}


def _postorder(root: Node, memo: SubtreePairMemo) -> tuple[list[int], list[int], list[int]]:
    """Post-order label codes, per node the index of its leftmost leaf, and
    per node the shape id of its subtree, interned in ``memo``."""
    codes, shape_ids = memo.labels, memo.shapes
    labels: list[int] = []
    leftmost: list[int] = []
    shapes: list[int] = []

    def walk(node: Node) -> int:
        first = None
        children = []
        for child in node.children:
            index = walk(child)
            if first is None:
                first = leftmost[index]
            children.append(shapes[index])
        index = len(labels)
        label = codes.setdefault(node.label, len(codes))
        labels.append(label)
        leftmost.append(first if first is not None else index)
        shapes.append(shape_ids.setdefault((label, tuple(children)), len(shape_ids)))
        return index

    walk(root)
    return labels, leftmost, shapes


def _keyroots(leftmost: list[int]) -> list[int]:
    last_with_leftmost: dict[int, int] = {}
    for index, value in enumerate(leftmost):
        last_with_leftmost[value] = index
    return sorted(last_with_leftmost.values())


def _leaf_distances(label: int, labels: list[int], leftmost: list[int]) -> list[int]:
    """Distance from one node labeled ``label`` to each subtree T(y) of a
    post-order tree: |T(y)| - 1 + (label not in T(y)), because the node can
    be kept as any node of T(y) and every other node is inserted."""
    seen = list(accumulate((other == label for other in labels), initial=0))
    return [y - left + (after == seen[left])
            for y, (left, after) in enumerate(zip(leftmost, seen[1:]))]


def tree_edit_distance(a: Node, b: Node, memo: SubtreePairMemo | None = None) -> int:
    """Minimum number of unit-cost node insertions, deletions, and relabels
    turning ordered tree ``a`` into ``b``.

    Zhang & Shasha (SIAM J. Comput. 1989). ``tree_dist[x][y]`` is the
    distance between the subtrees of ``a``'s node ``x`` and ``b``'s node
    ``y`` (post-order). A keyroot that is a leaf gets its whole row or
    column in closed form; each other keyroot pair fills a forest table
    row by row, from column data built once per keyroot of ``b``, unless
    ``memo`` (a fresh one when None) already holds the pair's shapes.
    """
    memo = memo if memo is not None else SubtreePairMemo()
    labels_a, left_a, shapes_a = _postorder(a, memo)
    labels_b, left_b, shapes_b = _postorder(b, memo)
    tree_dist = [[0] * len(labels_b) for _ in labels_a]
    stored_pairs = memo.pairs

    columns = []
    for j in _keyroots(left_b):
        lj = left_b[j]
        if lj == j:
            leaf_column = _leaf_distances(labels_b[j], labels_a, left_a)
            for row, value in zip(tree_dist, leaf_column):
                row[j] = value
            continue
        # forest column y is node lj + y - 1; the forest left of that node's
        # subtree ends at column offsets[y - 1], which is 0 on j's left path
        offsets = [left_b[y] - lj for y in range(lj, j + 1)]
        path_ys = [y + 1 for y, offset in enumerate(offsets) if not offset]
        columns.append((lj, j + 1, labels_b[lj:j + 1], offsets, path_ys,
                        [lj + y - 1 for y in path_ys], list(range(j - lj + 2)), shapes_b[j]))

    for i in _keyroots(left_a):
        li = left_a[i]
        if li == i:
            tree_dist[i] = _leaf_distances(labels_a[i], labels_b, left_b)
            continue
        path_rows = [tree_dist[node] for node in range(li, i + 1) if left_a[node] == li]
        shape = shapes_a[i]
        for lj, stop, labels, offsets, path_ys, path_columns, first_row, shape_b in columns:
            # the distances between the nodes on i's left path and those on
            # j's, one list per row; the forest computes them on a miss
            stored = stored_pairs.get((shape, shape_b))
            if stored is None:
                stored = stored_pairs[shape, shape_b] = []
                # forest[x][y]: distance between a's nodes li..li+x-1 and
                # b's nodes lj..lj+y-1; each cell is the cheapest of deleting
                # the last node of a (the row above + 1), inserting the last
                # node of b (the cell to the left + 1), and matching the two
                # last subtrees whole (the forests left of them + tree_dist)
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
                        # node is on i's left path: forest[0][q] is q, and
                        # where the column is on j's left path too, matching
                        # the two subtrees is relabelling node onto the
                        # column's node
                        label = labels_a[node]
                        diagonal = x - 1
                        for q, other, dist, up in zip(offsets, labels, dist_row[lj:stop],
                                                      above[1:]):
                            if up < cell:
                                cell = up
                            cell += 1
                            dist = dist + q if q else diagonal + (label != other)
                            if dist < cell:
                                cell = dist
                            diagonal = up
                            append(cell)
                        stored.append([row[y] for y in path_ys])
                    forest.append(row)
                    above = row
            # the forest reads no cell it would write, so writing them all
            # after it is the same as writing each as its row is done
            for dist_row, values in zip(path_rows, stored):
                for column, value in zip(path_columns, values):
                    dist_row[column] = value
    return tree_dist[-1][-1]


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
                             target_dependencies: frozenset[str],
                             runs: Runs | None = None) -> DockerSpec:
    """Spec of a parsed generated Dockerfile: ``infer_spec`` in its
    ``target_dependencies`` mode, reading ``runs`` when given."""
    return infer_spec(doc, lists, target_dependencies, runs)


@dataclass
class PreparedTarget:
    """A target Dockerfile prepared once for every output scored against it:
    its spec, tree and BLEU reference words, or the error string of the
    parse or inference that failed. ``memo`` is shared by the tree edit
    distances measured against this target and is dropped with it."""

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
        runs = split_runs(doc)
        target.spec = infer_spec(doc, lists, None, runs)
        target.tree = build_ast(doc, runs)
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
        runs = split_runs(generated_doc)
        obtained_spec = infer_spec_for_generated(
            generated_doc, lists, target.spec.dependencies, runs)
        result.adherence = adherence(target.spec, obtained_spec)
        result.distance = normalized_distance(
            target.tree, build_ast(generated_doc, runs), target.memo)
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
    None and the other aggregates are empty."""
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
