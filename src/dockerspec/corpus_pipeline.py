"""Build a spec/Dockerfile corpus from a directory of Dockerfiles.

Filtering, deduplication, clustering by identical spec, representative
selection by instruction-level Jaccard similarity, normalization for
training, and the 80/10/10 split. Ingest splits each RUN body once, at the
filter's shell rule, and builds each entry's training text once from it.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .dockerfile_syntax import (
    DockerfileDocument,
    Instruction,
    ShellStatement,
    join_statements,
    parse_dockerfile,
    parse_exec_form,
)
from .errors import (
    InferenceIncomplete,
    KindMismatch,
    MalformedFrom,
    ParseError,
    SchemaError,
    ShellSyntaxError,
    TooFewEntries,
    read_input,
)
from .spec_inference import Runs, infer_spec, install_command, split_image_reference, split_runs
from .spec_model import DockerSpec, WordLists, spec_to_dict


@dataclass(frozen=True)
class CorpusEntry:
    """An eligible Dockerfile with its spec, source and training text (built once)."""

    spec: DockerSpec
    document: DockerfileDocument
    source: str
    training_text: str

    @property
    def content_hash(self) -> str:
        return self.document.content_hash


@dataclass
class SpecCluster:
    spec: DockerSpec
    members: list[CorpusEntry]


@dataclass
class DatasetSplit:
    train: list[CorpusEntry]
    evaluation: list[CorpusEntry]
    test: list[CorpusEntry]
    seed: int


def _is_numericish(word: str) -> bool:
    return all(c.isdigit() or c == "." for c in word) and any(c.isdigit() for c in word)


def filter_eligible(
    doc: DockerfileDocument,
    lists: WordLists,
    known_words: frozenset[str] | None = None,
) -> tuple[str | None, Runs | None]:
    """Decide whether a Dockerfile can enter the corpus.

    Returns the reason of the first failing rule, or None with the RUN split
    (``split_runs``) that the shell rule made. Rules in order: no comments,
    a multi-stage build, a malformed FROM, FROM words outside the
    vocabulary, a shell syntax error in a RUN body, an empty instruction.

    The vocabulary rule only applies when ``known_words`` is given (pass an
    empty set to restrict FROM words to the OS/stop lists alone); by default
    it is skipped, since a faithful evaluated vocabulary does not ship with
    the starter word lists.
    """
    if not doc.comments:
        return "no-comments", None
    if doc.from_count > 1:
        return "multi-stage", None
    if doc.from_count == 1:
        try:
            ref = split_image_reference(doc.instructions_of_kind("FROM")[0].raw_arguments)
        except MalformedFrom:
            return "malformed-from", None
        if known_words is not None:
            vocabulary = lists.os_words | lists.stop_words | known_words
            for word in ref.name_words + ref.tag_words:
                if word not in vocabulary and not _is_numericish(word) and len(word) >= 3:
                    return "unevaluated-from-word", None
    try:
        runs = split_runs(doc)
    except ShellSyntaxError:
        return "shell-syntax-error", None
    if any(not inst.raw_arguments for inst in doc.instructions):
        return "empty-instruction", None
    return None, runs


def dedup(entries: list[CorpusEntry]) -> list[CorpusEntry]:
    """Drop duplicate Dockerfiles by content hash, keeping first occurrences."""
    first: dict[str, CorpusEntry] = {}
    for entry in entries:
        first.setdefault(entry.content_hash, entry)
    return list(first.values())


def instruction_jaccard(a: Instruction, b: Instruction) -> float:
    """Jaccard similarity of the argument token sets of two same-kind
    instructions (1.0 when both sets are empty)."""
    if a.kind != b.kind:
        raise KindMismatch(f"{a.kind} vs {b.kind}")
    return _jaccard(frozenset(a.argument_tokens()), frozenset(b.argument_tokens()))


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    shared = len(a & b)
    # the union's size without building the union
    return shared / (len(a) + len(b) - shared)


def cluster_by_spec(entries: list[CorpusEntry]) -> list[SpecCluster]:
    """Group entries sharing an identical spec, preserving first-seen order."""
    clusters: dict[DockerSpec, SpecCluster] = {}
    for entry in entries:
        if entry.spec not in clusters:
            clusters[entry.spec] = SpecCluster(entry.spec, [])
        clusters[entry.spec].members.append(entry)
    return list(clusters.values())


def select_representative(cluster: SpecCluster) -> CorpusEntry:
    """The member with the highest mean best-counterpart Jaccard similarity
    to the other members; ties broken by fewer instructions, then hash.

    Each distinct ``(kind, token set)`` in the cluster gets one row, built
    on first use: per member, 1.0 if the member holds the same set (an equal
    set scores 1.0 and no set scores more), else the best Jaccard against
    the member's distinct sets of that kind, else 0.0. A member's score for one of its
    instructions is the mean of the row without the member's own column,
    summed in sorted order. These are the floats the per-instruction,
    per-member comparison gives, summed in the same order, so every score
    and every tie is the same bit for bit."""
    members = cluster.members
    if len(members) == 1:
        return members[0]
    items = [[(inst.kind, frozenset(inst.argument_tokens()))
              for inst in member.document.instructions] for member in members]
    sets_by_kind: list[dict[str, set[frozenset[str]]]] = []
    for member_items in items:
        kinds: dict[str, set[frozenset[str]]] = {}
        for kind, tokens in member_items:
            kinds.setdefault(kind, set()).add(tokens)
        sets_by_kind.append(kinds)
    rows: dict[tuple[str, frozenset[str]], list[float]] = {}

    def row(item: tuple[str, frozenset[str]]) -> list[float]:
        if item not in rows:
            kind, tokens = item
            rows[item] = [
                1.0 if tokens in same_kind
                else max((_jaccard(tokens, other) for other in same_kind), default=0.0)
                for same_kind in (kinds.get(kind, ()) for kinds in sets_by_kind)]
        return rows[item]

    def key(idx: int) -> tuple[float, int, str]:
        scores = []
        for item in items[idx]:
            matches = row(item)
            best_matches = matches[:idx] + matches[idx + 1:]
            # summing in sorted order keeps the score independent of member order
            scores.append(sum(sorted(best_matches)) / len(best_matches))
        return -(sum(scores) / len(scores)), len(items[idx]), members[idx].content_hash

    return members[min(range(len(members)), key=key)]


def _sorted_statement(stmt: ShellStatement) -> ShellStatement:
    install = install_command(stmt)
    packages = Counter(install[1] if install else ())
    if not packages:
        return stmt
    anchored = []
    movable = []
    for arg in stmt.arguments:
        if packages[arg] > 0:
            packages[arg] -= 1
            movable.append(arg)
        else:
            anchored.append(arg)
    return ShellStatement(stmt.command, tuple(anchored + sorted(movable)),
                          stmt.connector_to_next)


def normalize_for_training(doc: DockerfileDocument, runs: Runs | None = None) -> str:
    """Training-ready text: comment lines dropped, one logical line per
    instruction terminated by the ``<nl>`` marker, literal ``<nl>`` words
    dropped. A shell-form RUN is rebuilt from its statements in ``runs``
    (``split_runs(doc)`` if not given), install packages sorted after the
    flags; any other instruction, an exec-form RUN too, keeps its tokens."""
    bodies = dict(split_runs(doc) if runs is None else runs)
    lines = []
    for inst in doc.instructions:
        if inst.kind == "RUN" and parse_exec_form(inst.raw_arguments) is None:
            body = join_statements([
                ShellStatement(s.command, tuple(a for a in s.arguments if a != "<nl>"),
                               s.connector_to_next)
                for s in map(_sorted_statement, bodies[inst]) if s.command != "<nl>"])
        else:
            body = " ".join(t for t in inst.argument_tokens() if t != "<nl>")
        lines.append(" ".join([inst.kind] + ([body] if body else []) + ["<nl>"]))
    return "\n".join(lines) + "\n"


def token_length(text: str) -> int:
    """Whitespace-token count of a normalized Dockerfile."""
    return len(text.split())


def split_dataset(entries: list[CorpusEntry], seed: int) -> DatasetSplit:
    """Deterministic seeded shuffle followed by an 80/10/10 partition."""
    if len(entries) < 10:
        raise TooFewEntries(f"need at least 10 entries to split, got {len(entries)}")
    shuffled = list(entries)
    random.Random(seed).shuffle(shuffled)
    n = len(shuffled)
    n_train = round(0.8 * n)
    n_eval = min(round(0.1 * n), n - n_train)
    return DatasetSplit(
        train=shuffled[:n_train],
        evaluation=shuffled[n_train:n_train + n_eval],
        test=shuffled[n_train + n_eval:],
        seed=seed,
    )


@dataclass
class CorpusBuildResult:
    finetune: list[CorpusEntry] = field(default_factory=list)
    pretrain: list[CorpusEntry] = field(default_factory=list)
    split: DatasetSplit | None = None
    reasons: Counter = field(default_factory=Counter)


def _ingest_one(path: Path, lists: WordLists,
                known_words: frozenset[str] | None) -> tuple[str, CorpusEntry | None]:
    try:
        text = read_input(path, ParseError)
    except (OSError, ParseError):
        return "unreadable", None
    try:
        doc = parse_dockerfile(text)
    except ParseError:
        return "parse-error", None
    reason, runs = filter_eligible(doc, lists, known_words)
    if reason is not None:
        return reason, None
    try:
        spec = infer_spec(doc, lists, runs=runs)
    except InferenceIncomplete:
        return "inference-incomplete", None
    return "eligible", CorpusEntry(spec, doc, str(path), normalize_for_training(doc, runs))


def ingest_directory(
    directory: Path,
    lists: WordLists,
    known_words: frozenset[str] | None = None,
) -> tuple[list[CorpusEntry], Counter]:
    """Parse, filter, and infer specs for every file under ``directory``.

    Files are processed in sorted-path order. Returns the eligible entries
    plus a counter of outcomes per filter reason.
    """
    paths = sorted(p for p in Path(directory).rglob("*") if p.is_file())
    reasons: Counter = Counter()
    entries: list[CorpusEntry] = []
    for path in paths:
        reason, entry = _ingest_one(path, lists, known_words)
        reasons[reason] += 1
        if entry is not None:
            entries.append(entry)
    return entries, reasons


def build_corpus(entries: list[CorpusEntry], seed: int = 42,
                 max_tokens: int = 1024) -> CorpusBuildResult:
    """Dedup, cluster, pick representatives, enforce the token cap, split.

    Cluster members not chosen as representative, and representatives whose
    spec has no dependencies, end up in the pre-training stream; everything
    else is the fine-tuning set that gets the 80/10/10 split (left unsplit
    when fewer than 10 entries remain). ``reasons`` counts only the
    outcomes that happened.
    """
    result = CorpusBuildResult()
    deduped = dedup(entries)
    if len(deduped) < len(entries):
        result.reasons["duplicate"] = len(entries) - len(deduped)

    for cluster in cluster_by_spec(deduped):
        representative = select_representative(cluster)
        for member in cluster.members:
            if member is not representative:
                result.pretrain.append(member)
                result.reasons["discarded-cluster-member"] += 1
        if not representative.spec.dependencies:
            result.pretrain.append(representative)
            result.reasons["empty-dependencies"] += 1
        else:
            result.finetune.append(representative)

    within_cap = [e for e in result.finetune if token_length(e.training_text) <= max_tokens]
    if len(within_cap) < len(result.finetune):
        result.reasons["over-token-limit"] = len(result.finetune) - len(within_cap)
    result.finetune = within_cap

    try:
        result.split = split_dataset(result.finetune, seed)
    except TooFewEntries:
        result.split = None
    return result


def write_jsonl(path: Path, entries: list[CorpusEntry]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            record = {"spec": spec_to_dict(entry.spec), "dockerfile": entry.training_text,
                      "sha1": entry.content_hash, "source": entry.source}
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_corpus_records(path: Path) -> list[tuple[int, dict]]:
    """Read corpus JSONL records, each with its line number (spec left as a
    plain dict).

    Raises SchemaError naming ``path:line`` on undecodable bytes, a
    line that is not a JSON object, or a record without a spec or without a
    dockerfile string."""
    records = []
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{path}:{number}: not a JSONL record: {exc}") from exc
                if (not isinstance(record, dict) or "spec" not in record
                        or not isinstance(record.get("dockerfile"), str)):
                    raise SchemaError(
                        f"{path}:{number}: record must carry spec and a dockerfile string")
                records.append((number, record))
    except UnicodeDecodeError:
        # a stream decodes ahead of the lines it has returned, so its error
        # cannot name the line; only on this path is the file read whole
        read_input(path, SchemaError)
        raise
    return records
