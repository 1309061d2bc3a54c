"""Build a spec/Dockerfile corpus from a directory of Dockerfiles.

Filtering, deduplication, clustering by identical spec, representative
selection by instruction-level Jaccard similarity, normalization for
training, and the 80/10/10 split.
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
    parse_shell,
    run_statements,
)
from .errors import (
    InferenceIncomplete,
    KindMismatch,
    MalformedFrom,
    ParseError,
    SchemaError,
    ShellSyntaxError,
    TooFewEntries,
)
from .spec_inference import infer_spec, install_command, split_image_reference
from .spec_model import DockerSpec, WordLists, serialize_spec, spec_to_dict


@dataclass(frozen=True)
class CorpusEntry:
    spec: DockerSpec
    document: DockerfileDocument
    source: str

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
) -> tuple[bool, str | None]:
    """Decide whether a Dockerfile can enter the corpus.

    Rejects (first failing rule wins): documents without comments,
    multi-stage builds, FROM references with unvocabularied words, RUN
    bodies with shell syntax errors, and empty-argument instructions.

    The vocabulary rule only applies when ``known_words`` is given (pass an
    empty set to restrict FROM words to the OS/stop lists alone); by default
    it is skipped, since a faithful evaluated vocabulary does not ship with
    the starter word lists.
    """
    if not doc.comments:
        return False, "no-comments"
    if doc.from_count > 1:
        return False, "multi-stage"
    if doc.from_count == 1:
        try:
            ref = split_image_reference(doc.instructions_of_kind("FROM")[0].raw_arguments)
        except MalformedFrom:
            return False, "malformed-from"
        if known_words is not None:
            vocabulary = lists.os_words | lists.stop_words | known_words
            for word in ref.name_words + ref.tag_words:
                if word not in vocabulary and not _is_numericish(word) and len(word) >= 3:
                    return False, "unevaluated-from-word"
    for inst in doc.instructions_of_kind("RUN"):
        try:
            run_statements(inst)
        except ShellSyntaxError:
            return False, "shell-syntax-error"
    if any(not inst.raw_arguments for inst in doc.instructions):
        return False, "empty-instruction"
    return True, None


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
    return len(a & b) / len(a | b)


def cluster_by_spec(entries: list[CorpusEntry]) -> list[SpecCluster]:
    """Group entries sharing an identical spec, preserving first-seen order."""
    clusters: dict[str, SpecCluster] = {}
    for entry in entries:
        key = serialize_spec(entry.spec)
        if key not in clusters:
            clusters[key] = SpecCluster(entry.spec, [])
        clusters[key].members.append(entry)
    return list(clusters.values())


def select_representative(cluster: SpecCluster) -> CorpusEntry:
    """The member with the highest mean best-counterpart Jaccard similarity
    to the other members; ties broken by fewer instructions, then hash."""
    members = cluster.members
    if len(members) == 1:
        return members[0]
    token_sets = [[(inst.kind, frozenset(inst.argument_tokens()))
                   for inst in member.document.instructions] for member in members]

    def key(idx: int) -> tuple[float, int, str]:
        scores = []
        for kind, tokens in token_sets[idx]:
            best_matches = [
                max((_jaccard(tokens, other_tokens)
                     for other_kind, other_tokens in other if other_kind == kind), default=0.0)
                for other_idx, other in enumerate(token_sets) if other_idx != idx]
            # summing in sorted order keeps the score independent of member order
            scores.append(sum(sorted(best_matches)) / len(best_matches))
        return -(sum(scores) / len(scores)), len(token_sets[idx]), members[idx].content_hash

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


def normalize_for_training(doc: DockerfileDocument) -> str:
    """Training-ready text: comment lines dropped, one logical line per
    instruction terminated by the ``<nl>`` marker, package arguments of
    install statements sorted lexicographically (flags stay in place,
    before packages)."""
    lines = []
    for inst in doc.instructions:
        if inst.kind == "RUN" and parse_exec_form(inst.raw_arguments) is None:
            statements = [_sorted_statement(s) for s in parse_shell(inst.raw_arguments)]
            statements = [
                ShellStatement(s.command, tuple(a for a in s.arguments if a != "<nl>"),
                               s.connector_to_next)
                for s in statements if s.command != "<nl>"
            ]
            body = join_statements(statements)
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
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return "unreadable", None
    try:
        doc = parse_dockerfile(text)
    except ParseError:
        return "parse-error", None
    eligible, reason = filter_eligible(doc, lists, known_words)
    if not eligible:
        return reason, None
    try:
        spec = infer_spec(doc, lists)
    except (InferenceIncomplete, ShellSyntaxError):
        return "inference-incomplete", None
    return "eligible", CorpusEntry(spec, doc, str(path))


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
    when fewer than 10 entries remain).
    """
    result = CorpusBuildResult()
    deduped = dedup(entries)
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

    within_cap = []
    for entry in result.finetune:
        if token_length(normalize_for_training(entry.document)) <= max_tokens:
            within_cap.append(entry)
        else:
            result.reasons["over-token-limit"] += 1
    result.finetune = within_cap

    try:
        result.split = split_dataset(result.finetune, seed)
    except TooFewEntries:
        result.split = None
    return result


def entry_record(entry: CorpusEntry) -> dict:
    """The JSONL record for one corpus entry."""
    return {
        "spec": spec_to_dict(entry.spec),
        "dockerfile": normalize_for_training(entry.document),
        "sha1": entry.content_hash,
        "source": entry.source,
    }


def write_jsonl(path: Path, entries: list[CorpusEntry]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry_record(entry), sort_keys=True) + "\n")


def read_corpus_records(path: Path) -> list[tuple[int, dict]]:
    """Read corpus JSONL records, each with its line number (spec left as a
    plain dict).

    Raises SchemaError naming ``path:line`` on text that is not UTF-8, a
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
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{path}:{_undecodable_line(path)}: not UTF-8 text: {exc.reason}") from exc
    return records


def _undecodable_line(path: Path) -> int:
    """Number of the first line of ``path`` that is not UTF-8 (the last line
    if none). A text stream decodes ahead of the lines it has returned, so
    its error cannot say; no UTF-8 sequence spans a newline byte, so each
    line decodes alone."""
    number = 0
    with open(path, "rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    return number
