"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: tree edit distance is
the naive forest recursion over the textbook definition (plus a plain
Zhang-Shasha for trees too big for it), representative selection
re-tokenizes every compared instruction pair, BM25/TF-IDF scoring
is a literal formula transcription without an inverted index, and the
Mann-Whitney p-value enumerates group assignments with itertools.
"""

import itertools
import math
import random
from collections import Counter

from dockerspec.dockerfile_syntax import Node
from dockerspec.errors import KindMismatch
from dockerspec.spec_model import FLAG_FIELDS, DockerSpec

# ---------------------------------------------------------------------------
# tree edit distance: naive recursion over ordered forests


def _subtree_nodes(node):
    yield node
    for child in node.children:
        yield from _subtree_nodes(child)


def forest_edit_distance(forest_a: tuple, forest_b: tuple) -> int:
    """Textbook forest edit distance with unit costs.

    Forests are tuples of Nodes; the recursion removes the rightmost root of
    either forest or matches the two rightmost subtrees, taking the cheapest
    option. Exponential, fine for the tiny trees the tests use.
    """
    if not forest_a and not forest_b:
        return 0
    if not forest_a:
        right = forest_b[-1]
        return forest_edit_distance(forest_a, forest_b[:-1] + tuple(right.children)) + 1
    if not forest_b:
        right = forest_a[-1]
        return forest_edit_distance(forest_a[:-1] + tuple(right.children), forest_b) + 1
    va, vb = forest_a[-1], forest_b[-1]
    delete = forest_edit_distance(forest_a[:-1] + tuple(va.children), forest_b) + 1
    insert = forest_edit_distance(forest_a, forest_b[:-1] + tuple(vb.children)) + 1
    match = (forest_edit_distance(tuple(va.children), tuple(vb.children))
             + forest_edit_distance(forest_a[:-1], forest_b[:-1])
             + (0 if va.label == vb.label else 1))
    return min(delete, insert, match)


def naive_tree_edit_distance(a: Node, b: Node) -> int:
    return forest_edit_distance((a,), (b,))


def random_tree(rng: random.Random, max_nodes: int, labels: str = "abc") -> Node:
    """Uniform-ish random ordered tree with 1..max_nodes nodes."""
    n_nodes = rng.randint(1, max_nodes)
    nodes = [Node(rng.choice(labels))]
    for _ in range(n_nodes - 1):
        parent = rng.choice(nodes)
        child = Node(rng.choice(labels))
        parent.children.append(child)
        nodes.append(child)
    return nodes[0]


def _zs_postorder(root: Node) -> tuple[list[str], list[int]]:
    """Post-order labels and, per node, the index of its leftmost leaf."""
    labels: list[str] = []
    leftmost: list[int] = []

    def walk(node: Node) -> int:
        first = None
        for child in node.children:
            child_leftmost = walk(child)
            if first is None:
                first = child_leftmost
        index = len(labels)
        labels.append(node.label)
        leftmost.append(first if first is not None else index)
        return leftmost[index]

    walk(root)
    return labels, leftmost


def _zs_keyroots(leftmost: list[int]) -> list[int]:
    last_with_leftmost: dict[int, int] = {}
    for index, value in enumerate(leftmost):
        last_with_leftmost[value] = index
    return sorted(last_with_leftmost.values())


def zhang_shasha_reference(a: Node, b: Node) -> int:
    """Textbook Zhang-Shasha with unit costs: one full forest table per
    keyroot pair, every cell by the three-case recurrence. Polynomial, so it
    checks the library's tuned version on trees too big for the naive
    recursion."""
    labels_a, left_a = _zs_postorder(a)
    labels_b, left_b = _zs_postorder(b)
    size_a, size_b = len(labels_a), len(labels_b)
    tree_dist = [[0] * size_b for _ in range(size_a)]

    def forest_dist(i: int, j: int) -> None:
        i_offset = left_a[i] - 1
        j_offset = left_b[j] - 1
        m = i - left_a[i] + 2
        n = j - left_b[j] + 2
        fd = [[0] * n for _ in range(m)]
        for x in range(1, m):
            fd[x][0] = fd[x - 1][0] + 1
        for y in range(1, n):
            fd[0][y] = fd[0][y - 1] + 1
        for x in range(1, m):
            for y in range(1, n):
                if left_a[x + i_offset] == left_a[i] and left_b[y + j_offset] == left_b[j]:
                    relabel = 0 if labels_a[x + i_offset] == labels_b[y + j_offset] else 1
                    fd[x][y] = min(fd[x - 1][y] + 1,
                                   fd[x][y - 1] + 1,
                                   fd[x - 1][y - 1] + relabel)
                    tree_dist[x + i_offset][y + j_offset] = fd[x][y]
                else:
                    p = left_a[x + i_offset] - 1 - i_offset
                    q = left_b[y + j_offset] - 1 - j_offset
                    fd[x][y] = min(fd[x - 1][y] + 1,
                                   fd[x][y - 1] + 1,
                                   fd[p][q] + tree_dist[x + i_offset][y + j_offset])

    for i in _zs_keyroots(left_a):
        for j in _zs_keyroots(left_b):
            forest_dist(i, j)
    return tree_dist[size_a - 1][size_b - 1]


# ---------------------------------------------------------------------------
# representative selection: the straightforward per-triple version


def reference_instruction_jaccard(a, b) -> float:
    """Jaccard similarity of the argument token sets of two same-kind
    instructions (1.0 when both sets are empty)."""
    if a.kind != b.kind:
        raise KindMismatch(f"{a.kind} vs {b.kind}")
    tokens_a = set(a.argument_tokens())
    tokens_b = set(b.argument_tokens())
    if not tokens_a and not tokens_b:
        return 1.0
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


def _reference_typicality(entry, others) -> float:
    scores = []
    for inst in entry.document.instructions:
        best_matches = []
        for other in others:
            same_kind = [j for j in other.document.instructions if j.kind == inst.kind]
            best_matches.append(
                max((reference_instruction_jaccard(inst, j) for j in same_kind), default=0.0))
        # summing in sorted order keeps the score independent of member order
        scores.append(sum(sorted(best_matches)) / len(best_matches))
    return sum(scores) / len(scores)


def select_representative_reference(cluster):
    """The member with the highest mean best-counterpart Jaccard similarity
    to the other members; ties broken by fewer instructions, then hash.
    Re-tokenizes both instructions for every compared pair."""
    if len(cluster.members) == 1:
        return cluster.members[0]
    best_key = None
    best = None
    for idx, entry in enumerate(cluster.members):
        others = cluster.members[:idx] + cluster.members[idx + 1:]
        key = (-_reference_typicality(entry, others),
               len(entry.document.instructions),
               entry.content_hash)
        if best_key is None or key < best_key:
            best_key, best = key, entry
    return best


# ---------------------------------------------------------------------------
# retrieval scoring oracles


def naive_bm25_rankings(query_spec, corpus_specs, k1=1.2, b=0.75,
                        render=None) -> list[float]:
    """Per-document BM25 scores computed straight from the formula over
    rendered field texts (no postings, no shared code with the engine)."""
    field_docs = {}
    for spec in corpus_specs:
        for field_name, text in render(spec).items():
            field_docs.setdefault(field_name, []).append(text.split())
    n = len(corpus_specs)
    scores = [0.0] * n
    for field_name, texts in render(query_spec).items():
        query_tokens = texts.split()
        docs = field_docs[field_name]
        lengths = [len(d) for d in docs]
        avgdl = sum(lengths) / n
        if avgdl == 0:
            continue
        for term in query_tokens:
            df = sum(1 for d in docs if term in d)
            if df == 0:
                continue
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            for i, doc in enumerate(docs):
                tf = doc.count(term)
                if tf:
                    denom = tf + k1 * (1 - b + b * lengths[i] / avgdl)
                    scores[i] += idf * tf * (k1 + 1) / denom
    return scores


def naive_cosine_scores(query_text: str, corpus_texts: list[str]) -> list[float]:
    """TF-IDF cosine with smoothed idf ln((1+N)/(1+df)) + 1, written from the
    definition with explicit vectors over the full vocabulary."""
    n = len(corpus_texts)
    doc_tokens = [t.split() for t in corpus_texts]
    vocabulary = sorted({w for tokens in doc_tokens for w in tokens}
                        | set(query_text.split()))
    df = {w: sum(1 for tokens in doc_tokens if w in tokens) for w in vocabulary}
    idf = {w: math.log((1 + n) / (1 + df[w])) + 1 for w in vocabulary}

    def vector(tokens):
        counts = Counter(tokens)
        return [counts[w] * idf[w] for w in vocabulary]

    def cosine(u, v):
        dot = sum(x * y for x, y in zip(u, v))
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(y * y for y in v))
        return dot / (nu * nv) if nu and nv else 0.0

    q = vector(query_text.split())
    return [cosine(q, vector(tokens)) for tokens in doc_tokens]


def rankings_agree(impl_order: list[int], oracle_scores: list[float],
                   tolerance: float = 1e-9) -> bool:
    """True when the implementation's ranking is a valid descending order of
    the oracle's scores; only float-indistinguishable ties (within tolerance)
    may appear in either order."""
    if len(set(impl_order)) != len(impl_order):
        return False
    for earlier, later in zip(impl_order, impl_order[1:]):
        if oracle_scores[earlier] < oracle_scores[later] - tolerance:
            return False
    return True


# ---------------------------------------------------------------------------
# statistics oracles


def permutation_mann_whitney_p(sample_a, sample_b) -> float:
    """Two-sided permutation p-value by literal enumeration: the share of
    ways to choose which pooled values form group A whose U deviates from
    n_a*n_b/2 at least as much as the observed U."""
    pooled = list(sample_a) + list(sample_b)
    n_a = len(sample_a)

    def u_of(group_a_indices):
        group_a = [pooled[i] for i in group_a_indices]
        group_b = [pooled[i] for i in range(len(pooled)) if i not in group_a_indices]
        greater = sum(1 for x in group_a for y in group_b if x > y)
        ties = sum(1 for x in group_a for y in group_b if x == y)
        return greater + ties / 2.0

    mu = n_a * (len(pooled) - n_a) / 2.0
    observed = abs(u_of(frozenset(range(n_a))) - mu)
    assignments = list(itertools.combinations(range(len(pooled)), n_a))
    extreme = sum(1 for chosen in assignments
                  if abs(u_of(frozenset(chosen)) - mu) >= observed - 1e-12)
    return extreme / len(assignments)


def direct_cliffs_delta(sample_a, sample_b) -> float:
    wins = losses = 0
    for x in sample_a:
        for y in sample_b:
            if x > y:
                wins += 1
            elif x < y:
                losses += 1
    return (wins - losses) / (len(sample_a) * len(sample_b))


# ---------------------------------------------------------------------------
# random valid specs for property tests

_DEP_WORDS = ["nginx", "redis", "ffmpeg", "x265", "tomcat", "git", "curl",
              "vim", "htop", "golang", "maven", "jre8", "postgresql"]
_OS_CHOICES = ["any", "alpine", "debian10", "ubuntu2004", "centos7", "fedora34"]


def random_valid_spec(rng: random.Random) -> DockerSpec:
    os_name = rng.choice(_OS_CHOICES)
    managers = ["any"]
    for manager, prefixes in (("apt", ("ubuntu", "debian")),
                              ("apk", ("alpine",)),
                              ("yum", ("centos", "fedora", "rhel", "amazonlinux"))):
        if os_name.startswith(prefixes):
            managers.append(manager)
            break
    else:
        managers.extend(["apt", "apk", "yum"])
    deps = frozenset(rng.sample(_DEP_WORDS, rng.randint(0, 4)))
    flags = {name: rng.random() < 0.5 for name in FLAG_FIELDS}
    return DockerSpec(os=os_name, pkg_manager=rng.choice(managers),
                      dependencies=deps, **flags)
