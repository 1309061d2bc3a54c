"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: tree edit distance is
the naive forest recursion over the textbook definition (plus a plain
Zhang-Shasha for trees too big for it), representative selection
re-tokenizes every compared instruction pair, BM25/TF-IDF scoring
is a literal formula transcription without an inverted index (plus a
per-query BM25 scorer and a per-query TF-IDF ranker that the engine's
scores must match bit for bit),
and the Mann-Whitney p-value enumerates group assignments with itertools.
The shell lexer's reference is the character loop that it replaced, the
install-comment scopes' reference scans every boundary line and RUN once
per comment, spec inference's reference keeps the three statement
recognizers that the one classifier replaced, the parser's round-trip
checks re-parse the text that ``serialize_document`` renders here.
"""

import itertools
import math
import random
import re
from collections import Counter

from dockerspec.dockerfile_syntax import Node
from dockerspec.errors import (
    EmptyCorpus,
    InferenceIncomplete,
    KindMismatch,
    MalformedFrom,
    ShellSyntaxError,
)
from dockerspec.retrieval_engine import (
    ScoredHit,
    query_terms_for,
    render_spec_fields,
    rendered_spec_text,
)
from dockerspec.spec_inference import (
    extract_comment_candidates,
    infer_flags,
    infer_from_dependencies,
    infer_os,
    split_image_reference,
)
from dockerspec.spec_model import (
    FLAG_FIELDS,
    PKG_MANAGERS,
    SPEC_FIELDS,
    DockerSpec,
    allowed_managers,
)

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
    for inst in entry.instructions:
        best_matches = []
        for other in others:
            same_kind = [j for j in other.instructions if j.kind == inst.kind]
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
               len(entry.instructions),
               entry.content_hash)
        if best_key is None or key < best_key:
            best_key, best = key, entry
    return best


# ---------------------------------------------------------------------------
# shell lexing: the character loop that the token-table lexer replaced,
# kept verbatim


def tokenize_shell_reference(script: str) -> list[tuple[str, str]]:
    """Split a shell script into ("word", text) / ("op", connector) tokens.

    Quotes are honored (and stripped), backslash escapes the next character,
    and `$(...)` / backtick substitutions are kept as opaque word content.
    Here-documents are unsupported and raise ShellSyntaxError.
    """
    tokens: list[tuple[str, str]] = []
    buf: list[str] = []
    in_word = False
    i = 0
    n = len(script)

    def flush() -> None:
        nonlocal in_word
        if in_word:
            tokens.append(("word", "".join(buf)))
            buf.clear()
            in_word = False

    while i < n:
        c = script[i]
        if c == "'":
            end = script.find("'", i + 1)
            if end < 0:
                raise ShellSyntaxError("unterminated single quote")
            buf.append(script[i + 1:end])
            in_word = True
            i = end + 1
        elif c == '"':
            i += 1
            closed = False
            while i < n:
                c = script[i]
                if c == "\\" and i + 1 < n and script[i + 1] in '"\\$`':
                    buf.append(script[i + 1])
                    i += 2
                elif c == '"':
                    closed = True
                    i += 1
                    break
                else:
                    buf.append(c)
                    i += 1
            if not closed:
                raise ShellSyntaxError("unterminated double quote")
            in_word = True
        elif c == "\\":
            if i + 1 < n and script[i + 1] == "\n":
                pass  # escaped newline: line continuation, joins the lines
            elif i + 1 < n:
                buf.append(script[i + 1])
                in_word = True
            i += 2
        elif c == "$" and i + 1 < n and script[i + 1] == "(":
            depth = 0
            j = i + 1
            while j < n:
                if script[j] == "(":
                    depth += 1
                elif script[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                raise ShellSyntaxError("unterminated command substitution")
            buf.append(script[i:j + 1])
            in_word = True
            i = j + 1
        elif c == "`":
            end = script.find("`", i + 1)
            if end < 0:
                raise ShellSyntaxError("unterminated backquote substitution")
            buf.append(script[i:end + 1])
            in_word = True
            i = end + 1
        elif c == "<" and i + 1 < n and script[i + 1] == "<":
            raise ShellSyntaxError("here-documents are not supported")
        elif c == "#" and not in_word:
            while i < n and script[i] != "\n":
                i += 1
        elif script.startswith("&&", i) or script.startswith("||", i):
            flush()
            tokens.append(("op", script[i:i + 2]))
            i += 2
        elif c in ";|\n":
            flush()
            tokens.append(("op", c))
            i += 1
        elif c in " \t":
            flush()
            i += 1
        else:
            buf.append(c)
            in_word = True
            i += 1
    flush()
    return tokens


# ---------------------------------------------------------------------------
# Dockerfile text from a parsed document, for the parser's round-trip checks


def serialize_document(doc) -> str:
    """Render a parsed document back to text, one line per instruction.

    Relative order of instructions, comments, and blank lines is preserved,
    so re-parsing yields the same instruction sequence and the same comment
    scoping.
    """
    events = []
    for inst in doc.instructions:
        line = f"{inst.kind} {inst.raw_arguments}".rstrip()
        if (len(line) - len(line.rstrip("\\"))) % 2 == 1:
            # an odd backslash run, as parsed from a continuation dangling
            # at the end, would continue the line into the next one
            line += " \\"
        events.append((inst.line_span[0], 1, line))
    for comment in doc.comments:
        events.append((comment.line, 0, f"# {comment.text}".rstrip()))
    for blank in doc.blank_lines:
        events.append((blank, 0, ""))
    events.sort()
    return "\n".join(line for _, _, line in events) + "\n"


# ---------------------------------------------------------------------------
# spec inference: the three statement recognizers (install_command,
# _url_arguments and the dpkg/rpm option rule) that one classifier replaced,
# each still called wherever a field needs it; their code is unchanged but
# for one line: the dpkg/rpm rule reads the arguments without redirections,
# as the other two do


_URL = re.compile(r"[a-z][a-z0-9+.-]*://", re.IGNORECASE)
_REDIRECTION_PREFIX = re.compile(r"\d*(>>|>|<)")
_SEGMENT_SEPARATORS = re.compile(r"[-_.]")
_DOWNLOAD_COMMANDS = ("wget", "curl")
_CLONE_COMMANDS = ("git", "hg")
_VCS_PREFIXES = ("git+", "hg+", "svn+", "bzr+")
_INSTALLERS = {"apt": ("apt", "install"), "apt-get": ("apt", "install"),
               "yum": ("yum", "install"), "apk": ("apk", "add"),
               "pip": ("pip", "install"), "pip3": ("pip", "install"), "npm": ("npm", None)}
_LOCAL_INSTALLERS = {"dpkg": (("--install",), "i"), "rpm": (("--install", "--upgrade"), "iU")}


def _strip_redirections(arguments):
    kept = []
    skip_next = False
    for arg in arguments:
        if skip_next:
            skip_next = False
            continue
        match = _REDIRECTION_PREFIX.match(arg)
        if match:
            skip_next = match.end() == len(arg)
            continue
        kept.append(arg)
    return kept


def install_command(stmt):
    """The tool and package arguments of an install statement, or None."""
    if stmt.command not in _INSTALLERS:
        return None
    tool, subcommand = _INSTALLERS[stmt.command]
    args = _strip_redirections(stmt.arguments)
    if tool == "npm":
        subcommand = args[0] if args and args[0] in ("install", "i") else None
    if subcommand not in args:
        return None
    args.remove(subcommand)
    return tool, [a for a in args if not a.startswith(("-", "$"))]


def _url_arguments(stmt):
    command = stmt.command
    args = _strip_redirections(stmt.arguments)
    if command in _DOWNLOAD_COMMANDS:
        return [a for a in args if _URL.match(a)]
    if command in _CLONE_COMMANDS and args and args[0] == "clone":
        return [a for a in args if _URL.match(a) or a.startswith("git@")]
    return []


def _url_final_segment(url):
    path = url.split("://", 1)[-1].rstrip("/")
    return path.rsplit("/", 1)[-1]


def extract_installable_args(statements):
    """Package-manager install arguments and download URLs of the
    statements, each with its ``-``/``_``/``.`` words, lowercased."""
    words = set()

    def add(arg):
        arg = arg.lower()
        words.add(arg)
        words.update(w for w in _SEGMENT_SEPARATORS.split(arg) if w)

    for stmt in statements:
        install = install_command(stmt)
        for arg in install[1] if install else ():
            add(arg)
        for url in _url_arguments(stmt):
            words.add(url.lower())
            add(_url_final_segment(url))
    return words


def infer_pkg_manager(statements, os_name):
    installs = [install_command(stmt) for stmt in statements]
    detected = {i[0] for i in installs if i and i[0] in PKG_MANAGERS}
    if len(detected) != 1:
        return "any"
    manager = detected.pop()
    return manager if manager in allowed_managers(os_name) else "any"


def infer_downloads_external(statements):
    for stmt in statements:
        if _url_arguments(stmt):
            return True
        install = install_command(stmt)
        if install is not None:
            tool, packages = install
            if tool in ("pip", "npm") and any(
                    _URL.match(a) or a.startswith(_VCS_PREFIXES) for a in packages):
                return True
            if tool == "apk" and any(a.endswith(".apk") for a in packages):
                return True
        long_options, letters = _LOCAL_INSTALLERS.get(stmt.command, ((), ""))
        for arg in _strip_redirections(stmt.arguments):
            short = arg.startswith("-") and not arg.startswith("--") and "q" not in arg
            if arg in long_options or (short and any(letter in arg for letter in letters)):
                return True
    return False


def comment_dependencies_reference(doc, lists, runs) -> set[str]:
    """Comment candidates confirmed by an install argument in their scope.

    ``runs`` pairs each RUN instruction with its statements. A comment's
    scope is every RUN that starts after it and before the next comment line
    or blank line, found by scanning all of them for each comment.
    """
    boundary_lines = sorted({c.line for c in doc.comments} | set(doc.blank_lines))
    accepted = set()
    for comment in doc.comments:
        candidates = extract_comment_candidates(comment, lists.stop_words)
        if not candidates:
            continue
        terminator = next((b for b in boundary_lines if b > comment.line), float("inf"))
        statements = [stmt for inst, body in runs
                      if comment.line < inst.line_span[0] < terminator for stmt in body]
        installable = extract_installable_args(statements)
        accepted.update(c for c in candidates if c in installable)
    return accepted


def infer_spec_reference(doc, lists, target_dependencies=None) -> DockerSpec:
    """``infer_spec`` as it was before statements were classified once:
    each field's step runs its own recognizers over the statements, and
    comment scopes come from ``comment_dependencies_reference``."""
    runs = list(doc.runs.items())
    froms = doc.instructions_of_kind("FROM")
    if not froms:
        raise InferenceIncomplete("document has no FROM instruction")
    try:
        ref = split_image_reference(froms[0].raw_arguments)
    except MalformedFrom as exc:
        raise InferenceIncomplete(str(exc)) from exc

    statements = [stmt for _, body in runs for stmt in body]
    os_name = infer_os(ref, lists)
    if target_dependencies is None:
        dependencies = infer_from_dependencies(ref, lists)
        dependencies |= comment_dependencies_reference(doc, lists, runs)
        dependencies = {
            d for d in dependencies
            if d[0].isalpha() and d not in lists.os_words and d not in lists.stop_words
        }
    else:
        mentioned = extract_installable_args(statements)
        mentioned.update(ref.name_words + ref.tag_words)
        dependencies = {d for d in target_dependencies if d in mentioned}
    return DockerSpec(
        os=os_name,
        pkg_manager=infer_pkg_manager(statements, os_name),
        dependencies=frozenset(dependencies),
        downloads_external=infer_downloads_external(statements),
        **infer_flags(doc),
    )


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


def bm25_scores_reference(spec: DockerSpec, index) -> list[float]:
    """Per-document BM25 scores with nothing kept and nothing read from the
    index but its entries and parameters: each query counts the postings and
    field lengths from ``index.entries`` again, and computes every posting's
    part in field -> query-term -> ascending doc id order. Its scores are the
    reference to the last bit."""
    query_terms = query_terms_for(spec)
    n = index.size
    scores = [0.0] * n
    rendered = [render_spec_fields(doc_spec) for doc_spec, _ in index.entries]
    for field_name in SPEC_FIELDS:
        docs = [Counter(texts[field_name].split()) for texts in rendered]
        lengths = [len(texts[field_name].split()) for texts in rendered]
        avgdl = sum(lengths) / n
        if avgdl == 0.0:
            continue
        for term in query_terms[field_name]:
            postings = [(doc_id, counts[term]) for doc_id, counts in enumerate(docs)
                        if term in counts]
            if not postings:
                continue
            df = len(postings)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            for doc_id, tf in postings:
                norm = index.k1 * (1.0 - index.b + index.b * lengths[doc_id] / avgdl)
                scores[doc_id] += idf * tf * (index.k1 + 1.0) / (tf + norm)
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


def _reference_tfidf_vector(counts: Counter, idf: dict[str, float], n_docs: int) -> dict[str, float]:
    default = math.log((1.0 + n_docs) / 1.0) + 1.0
    return {term: tf * idf.get(term, default) for term, tf in counts.items()}


def _reference_cosine(a: dict[str, float], b: dict[str, float]) -> float:
    dot = sum(weight * b[term] for term, weight in a.items() if term in b)
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def vector_retrieve_reference(spec: DockerSpec, k: int,
                              entries: list[tuple[DockerSpec, str]]) -> list[ScoredHit]:
    """TF-IDF cosine top-k with no tables kept: every query re-counts every
    document, rebuilds the idf table and each document vector, and sorts
    all ids. Its scores are the reference to the last bit; ties go to the
    ascending id."""
    if not entries:
        raise EmptyCorpus("retrieval over an empty corpus")
    n = len(entries)
    doc_counts = [Counter(rendered_spec_text(s).split()) for s, _ in entries]
    df: Counter = Counter()
    for counts in doc_counts:
        df.update(counts.keys())
    idf = {term: math.log((1.0 + n) / (1.0 + d)) + 1.0 for term, d in df.items()}
    query_vector = _reference_tfidf_vector(Counter(rendered_spec_text(spec).split()), idf, n)
    similarities = [
        _reference_cosine(query_vector, _reference_tfidf_vector(counts, idf, n))
        for counts in doc_counts
    ]
    ranked = sorted(range(n), key=lambda i: (-similarities[i], i))[:max(k, 0)]
    return [ScoredHit(i, similarities[i], entries[i][1]) for i in ranked]


def rank_reference(scores: list[float], k: int) -> list[int]:
    """Top-k ids by a full sort: descending score, ties to the ascending id."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:max(k, 0)]


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
