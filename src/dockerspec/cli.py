"""Command-line entry point.

Subcommands: ``parse``, ``infer-spec``, ``corpus build|stats``,
``index build``, ``generate``, ``evaluate`` (plus ``evaluate layers``).
Machine-readable output goes to stdout, diagnostics to stderr. Exit codes:
0 success, otherwise the ``exit_code`` of the error's class in ``errors``
(1 input/parse error, 2 inference incomplete, 3 configuration error); a
usage error or an OSError on an input or output path is also 3.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import stat
import sys
from pathlib import Path

import click

from . import corpus_pipeline as cp
from . import evaluation as ev
from . import retrieval_engine as re_engine
from .dockerfile_syntax import ast_to_json, ast_to_text, build_ast, parse_dockerfile
from .errors import ConfigError, DockerspecError, ParseError, SchemaError, read_input
from .spec_inference import infer_spec
from .spec_model import (
    WordLists,
    default_word_lists,
    deserialize_spec,
    load_word_list,
    serialize_spec,
)

_WORD_LIST_OPTIONS = [
    click.option("--os-words", "os_words_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="OS word list (one word per line)."),
    click.option("--stop-words", "stop_words_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="Stop word list (one word per line)."),
]


def word_list_options(command):
    for option in reversed(_WORD_LIST_OPTIONS):
        command = option(command)
    return command


# the streams `corpus build` writes beside OUT: pre-training, then the 80/10/10 split
_SIBLING_TAGS = ("pretrain", "train", "eval", "test")


def _sibling(out: Path, tag: str) -> Path:
    base = out.name[:-len(".jsonl")] if out.name.endswith(".jsonl") else out.name
    return out.with_name(f"{base}.{tag}.jsonl")


def _check_outputs(*paths: str) -> None:
    """Raise the OSError that writing the first unwritable path would, before
    any work: an empty path, a regular file or a missing directory as its
    parent, or a directory at the path, fails as ``open`` does, naming the
    path."""
    for path in paths:
        try:
            if not path:
                code = errno.ENOENT
            elif not stat.S_ISDIR(os.stat(Path(path).parent).st_mode):
                code = errno.ENOTDIR
            elif os.path.isdir(path):
                code = errno.EISDIR
            else:
                continue
        except OSError as exc:
            code = exc.errno
        raise OSError(code, os.strerror(code), path)


def _load_lists(os_words_path: str | None, stop_words_path: str | None) -> WordLists:
    defaults = default_word_lists()
    os_words = load_word_list(os_words_path) if os_words_path else defaults.os_words
    stop_words = load_word_list(stop_words_path) if stop_words_path else defaults.stop_words
    try:
        return WordLists(os_words, stop_words)
    except ValueError as exc:
        raise ConfigError(f"bad word lists: {exc}") from exc


def _check_config(command: click.Command, defaults, path: str, names: tuple = ()) -> None:
    """Click reads the config as nested default maps: the whole file and the
    value under each key that names a subcommand must be JSON objects, and
    every other key must name a parameter of the command it is under. The
    top level takes subcommands only: ``--config`` is read before them."""
    where = repr(" ".join(names)) if names else "the top level"
    if not isinstance(defaults, dict):
        raise ConfigError(f"{path}: bad config file: {where} must hold a JSON object")
    subcommands = getattr(command, "commands", {})
    params = [param.name for param in command.params] if names else []
    for name, value in defaults.items():
        if name in subcommands:
            _check_config(subcommands[name], value, path, names + (name,))
        elif name not in params:
            accepted = ", ".join(sorted(subcommands) + sorted(params))
            raise ConfigError(f"{path}: bad config file: unknown key {name!r} in {where};"
                              f" accepted keys: {accepted}")


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="JSON file with default option values per subcommand; flags win.")
@click.pass_context
def cli(ctx, config_path):
    """Infer Dockerfile specs, build corpora, retrieve, and evaluate."""
    if config_path:
        try:
            defaults = json.loads(read_input(config_path, ConfigError))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{config_path}: bad config file: {exc}") from exc
        _check_config(ctx.command, defaults, config_path)
        ctx.default_map = defaults


@cli.command("parse")
@click.argument("dockerfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "output_format", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def parse_command(dockerfile, output_format):
    """Parse a Dockerfile and dump its tree."""
    doc = parse_dockerfile(read_input(dockerfile, ParseError))
    tree = build_ast(doc)
    if output_format == "json":
        click.echo(json.dumps(ast_to_json(tree), sort_keys=True))
    else:
        click.echo(ast_to_text(tree))


@cli.command("infer-spec")
@click.argument("dockerfile", type=click.Path(exists=True, dir_okay=False))
@word_list_options
def infer_spec_command(dockerfile, os_words_path, stop_words_path):
    """Infer the spec of one Dockerfile and print it as canonical JSON."""
    lists = _load_lists(os_words_path, stop_words_path)
    doc = parse_dockerfile(read_input(dockerfile, ParseError))
    spec = infer_spec(doc, lists)
    click.echo(serialize_spec(spec), nl=False)


@cli.group("corpus")
def corpus_group():
    """Corpus construction from a directory of Dockerfiles."""


@corpus_group.command("build")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--max-tokens", type=int, default=1024, show_default=True)
@word_list_options
def corpus_build(directory, out_path, seed, max_tokens, os_words_path, stop_words_path):
    """Filter, dedup, cluster, and split Dockerfiles into a JSONL corpus.

    Writes OUT plus sibling .train/.eval/.test and .pretrain JSONL streams.
    """
    if max_tokens < 1:
        raise ConfigError("--max-tokens must be at least 1")
    # OUT first: a path without a file name (empty, or a directory) has no siblings
    _check_outputs(out_path)
    out = Path(out_path)
    siblings = [_sibling(out, tag) for tag in _SIBLING_TAGS]
    _check_outputs(*map(str, siblings))
    lists = _load_lists(os_words_path, stop_words_path)
    entries, reasons = cp.ingest_directory(Path(directory), lists)
    result = cp.build_corpus(entries, seed=seed, max_tokens=max_tokens)
    reasons += result.reasons
    if not result.finetune:
        over = result.reasons["over-token-limit"]
        if over:
            raise ParseError(f"no eligible Dockerfiles within --max-tokens {max_tokens}: "
                             f"all {over} are over it")
        raise ParseError("no eligible Dockerfiles")
    if result.split is None:
        click.echo("too few entries for an 80/10/10 split; corpus left unsplit",
                   err=True)

    # every stream is written, so no split of an earlier build is left beside OUT
    split = result.split or cp.DatasetSplit([], [], [], seed)
    cp.write_jsonl(out, result.finetune)
    parts = (result.pretrain, split.train, split.evaluation, split.test)
    for path, part in zip(siblings, parts, strict=True):
        cp.write_jsonl(path, part)
    click.echo(json.dumps({
        "corpus": str(out),
        "entries": len(result.finetune),
        "pretrain_entries": len(result.pretrain),
        "train": len(split.train),
        "eval": len(split.evaluation),
        "test": len(split.test),
        "reasons": dict(sorted(reasons.items())),
        "seed": seed,
    }, sort_keys=True))


@corpus_group.command("stats")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@word_list_options
def corpus_stats(directory, os_words_path, stop_words_path):
    """Report how many files each filter rule accepts or rejects."""
    lists = _load_lists(os_words_path, stop_words_path)
    entries, ingest_reasons = cp.ingest_directory(Path(directory), lists)
    result = cp.build_corpus(entries)
    stats = {
        "files": sum(ingest_reasons.values()),
        "eligible": ingest_reasons.get("eligible", 0),
        "finetune_entries": len(result.finetune),
        "pretrain_entries": len(result.pretrain),
        "reasons": dict(sorted((ingest_reasons + result.reasons).items())),
    }
    click.echo(json.dumps(stats, sort_keys=True))


@cli.group("index")
def index_group():
    """Retrieval index management."""


@index_group.command("build")
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--k1", type=float, default=re_engine.DEFAULT_K1, show_default=True)
@click.option("--b", type=float, default=re_engine.DEFAULT_B, show_default=True)
def index_build(corpus, out_path, k1, b):
    """Build an index file, for both rankers, from a corpus JSONL.

    The file is a header line with the BM25 parameters, then the corpus
    records, spec and dockerfile only, one per line. Loading it does no
    ranking work: the first BM25 query on a loaded index builds its table of
    BM25 impacts (per field and term, one weight and doc bitset per
    (tf, document length) shape), and the first TF-IDF query the TF-IDF
    tables.
    """
    re_engine.check_bm25_parameters(k1, b)
    _check_outputs(out_path)
    # writing the index over its own corpus would lose the corpus's records
    if os.path.exists(out_path) and os.path.samefile(corpus, out_path):
        raise ConfigError(f"--out {out_path} is the corpus file {corpus}; "
                          "write the index to another path")
    # one record at a time: only the entries are kept, and nothing is
    # written until every record has been read and checked
    index = re_engine.build_index(list(cp.read_corpus_records(Path(corpus))), k1=k1, b=b)
    re_engine.save_index(index, Path(out_path))
    click.echo(json.dumps({"index": out_path, "documents": index.size,
                           "k1": k1, "b": b}, sort_keys=True))


@cli.command("generate")
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Query spec JSON.")
@click.option("--index", "index_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Index file from `index build`.")
@click.option("-k", type=int, default=1, show_default=True)
@click.option("--method", type=click.Choice(["bm25", "tfidf"]), default="bm25",
              show_default=True)
def generate(spec_path, index_path, k, method):
    """Retrieve the best-matching Dockerfile(s) for a spec.

    Prints the top hit verbatim; with -k greater than 1, prints a JSON array
    of scored hits instead.
    """
    if k < 1:
        raise ConfigError("-k must be at least 1")
    try:
        spec = deserialize_spec(read_input(spec_path, ParseError))
    except SchemaError as exc:
        raise SchemaError(f"{spec_path}: {exc}") from exc
    index, entries = re_engine.load_index(Path(index_path))
    if method == "bm25":
        hits = re_engine.retrieve(spec, k, index)
    else:
        hits = re_engine.vector_retrieve(spec, k, entries)
    if k == 1:
        click.echo(hits[0].dockerfile_text, nl=False)
    else:
        click.echo(json.dumps(
            [{"doc_id": h.doc_id, "score": h.score, "dockerfile": h.dockerfile_text}
             for h in hits], sort_keys=True))


def _read_pairs(targets_dir: Path, system_dirs: dict[str, str]) -> list[tuple[str, dict[str, str]]]:
    """Each target that some system has an output for, read once, with the
    output of every system that has one; ``system_dirs`` maps each system's
    name to its directory, and targets and outputs are paired by filename."""
    target_files = {p.name: p for p in sorted(targets_dir.iterdir()) if p.is_file()}
    targets: dict[str, str] = {}
    systems: dict[str, dict[str, str]] = {}
    for system, output_dir in system_dirs.items():
        output_files = {p.name: p for p in sorted(Path(output_dir).iterdir()) if p.is_file()}
        outputs = {}
        for name in sorted(target_files):
            if name in output_files:
                if name not in targets:
                    targets[name] = read_input(target_files[name], ParseError)
                outputs[name] = read_input(output_files[name], ParseError)
            else:
                click.echo(f"no output for target {name}; skipped", err=True)
        if not outputs:
            raise ParseError(f"no target/output pairs found for {output_dir}")
        systems[system] = outputs
    return [(targets[name], {system: outputs[name] for system, outputs in systems.items()
                             if name in outputs})
            for name in sorted(targets)]


def _report_text(reports: dict[str, ev.RunReport]) -> str:
    systems = {}
    distances = {}
    for name, report in reports.items():
        systems[name] = {
            "adherence_means": report.adherence_means,
            "distance": report.distance_summary,
            "bleu4_mean": report.bleu_mean,
            "evaluated_pairs": report.evaluated_pairs,
            "failed_pairs": report.failed_pairs,
        }
        distances[name] = [r.distance.normalized for r in report.pair_results
                           if r.error is None]
    payload = {"systems": systems}
    if len(systems) > 1:
        for name in sorted(systems):
            if not distances[name]:
                click.echo(f"system {name}: no evaluated pairs; left out of comparisons",
                           err=True)
        payload["comparisons"] = ev.compare_systems(distances)
    return json.dumps(payload, sort_keys=True, indent=2)


@cli.group("evaluate", invoke_without_command=True)
@click.option("--targets", "targets_dir", type=click.Path(exists=True, file_okay=False),
              default=None, help="Directory of target Dockerfiles.")
@click.option("--outputs", "output_dirs", type=click.Path(exists=True, file_okay=False),
              multiple=True,
              help="Directory of generated Dockerfiles; repeat to compare systems.")
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None)
@word_list_options
@click.pass_context
def evaluate_group(ctx, targets_dir, output_dirs, report_path,
                   os_words_path, stop_words_path):
    """Compare generated Dockerfiles against their targets.

    Targets and outputs are paired by filename. Each --outputs directory is
    a system named by its resolved directory name, so those names must
    differ. The report carries per-field adherence means, the normalized
    tree-distance distribution, mean BLEU-4, and, when several --outputs
    are given, pairwise significance tests.
    """
    if ctx.invoked_subcommand is not None:
        return
    if targets_dir is None or not output_dirs:
        raise click.UsageError("evaluate requires --targets and at least one --outputs")
    # a system is named by its resolved directory; two of one name would merge
    system_dirs: dict[str, str] = {}
    for output_dir in output_dirs:
        name = Path(output_dir).resolve().name
        if name in system_dirs:
            raise click.UsageError(f"--outputs {system_dirs[name]} and {output_dir} "
                                   f"have the same directory name {name!r}")
        system_dirs[name] = output_dir
    if report_path is not None:
        _check_outputs(report_path)
    lists = _load_lists(os_words_path, stop_words_path)
    rows = _read_pairs(Path(targets_dir), system_dirs)
    # an unusable report path fails here at the latest, before any pair is evaluated
    report = open(report_path, "w", encoding="utf-8") if report_path is not None else None
    with report or contextlib.nullcontext():
        text = _report_text(ev.evaluate_systems(rows, lists))
        if report:
            report.write(text + "\n")
    click.echo(text)


def _read_manifest(path: str) -> tuple[list[str], str]:
    """The layer digests and the image digest of a manifest: a JSON list of
    layer digests, or an object with one under "layers" and an optional
    "image_digest" (missing or null means unknown, "")."""
    try:
        data = json.loads(read_input(path, ParseError))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad manifest {path}: {exc}") from exc
    if isinstance(data, dict):
        layers, digest = data.get("layers"), data.get("image_digest")
    else:
        layers, digest = data, None
    if not (isinstance(layers, list) and all(isinstance(d, str) for d in layers)
            and isinstance(digest, (str, type(None)))):
        raise ParseError(f"manifest {path} must be a JSON list of digest strings, or an "
                         f"object with one as \"layers\" and a string or null \"image_digest\"")
    return layers, digest or ""


@evaluate_group.command("layers")
@click.option("--original", "original_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--generated", "generated_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
def evaluate_layers(original_path, generated_path):
    """Compare layer-digest manifests from externally supplied builds."""
    original_layers, original_digest = _read_manifest(original_path)
    generated_layers, generated_digest = _read_manifest(generated_path)
    try:
        report = ev.layer_match(original_layers, generated_layers,
                                original_digest, generated_digest)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    click.echo(json.dumps({
        "digest_equal": report.digest_equal,
        "matching_layer_ratio": report.matching_layer_ratio,
    }, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        return 130
    except click.UsageError as exc:
        exc.show()
        return 3
    except click.ClickException as exc:
        exc.show()
        return 1
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except DockerspecError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
