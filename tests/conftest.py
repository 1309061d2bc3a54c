import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from dockerspec.spec_model import default_word_lists

FIXTURES = Path(__file__).parent / "fixtures"
BENCHMARK_GENERATOR = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"

def index_lines(path: Path) -> tuple[dict, list[str]]:
    """An index file's header as a dict, and its record lines as text."""
    header, *records = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return json.loads(header), records


def write_index(path: Path, header: dict, records: list[str]) -> None:
    """Write an index file of ``header`` and the record lines ``records``."""
    path.write_text(json.dumps(header) + "\n" + "".join(records), encoding="utf-8")


# base image, manager command template
_BASES = [
    ("ubuntu:20.04", "apt-get update && apt-get install -y {}"),
    ("debian:10-slim", "apt-get update && apt-get install -y {}"),
    ("alpine:3.14", "apk add --no-cache {}"),
    ("centos:7", "yum install -y {}"),
]

# dependency families with deliberate overlaps so near-miss retrieval works
_FAMILIES = [
    ["nginx"],
    ["nginx", "certbot"],
    ["nginx", "certbot", "curl"],
    ["redis"],
    ["redis", "htop"],
    ["redis", "htop", "vim"],
    ["postgresql"],
    ["postgresql", "vim"],
    ["ffmpeg"],
    ["ffmpeg", "x264"],
    ["ffmpeg", "x264", "yasm"],
    ["golang"],
    ["golang", "git"],
    ["maven"],
    ["maven", "git"],
    ["ruby"],
]


def render_family_dockerfile(family_index: int, variant: int,
                             rng: random.Random) -> str:
    base, install = _BASES[family_index % len(_BASES)]
    deps = _FAMILIES[family_index % len(_FAMILIES)]
    shuffled = list(deps)
    rng.shuffle(shuffled)
    lines = [f"FROM {base}", ""]
    lines.append(f"# Install {' '.join(deps)}")
    lines.append(f"RUN {install.format(' '.join(shuffled))}")
    lines.append("")
    for step in range(variant):
        lines.append(f"RUN echo build step {step}")
    if family_index % 3 == 0:
        lines.append("EXPOSE 8080")
    if family_index % 4 == 0:
        lines.append('CMD ["./start.sh"]')
    lines.append("")
    return "\n".join(lines)


def write_corpus_files(directory: Path, families: int = 16, variants: int = 4,
                       seed: int = 7, include_rejects: bool = True) -> list[Path]:
    """Write a deterministic synthetic Dockerfile corpus for pipeline tests.

    Every variant of a family infers the same spec (different text), so the
    pipeline sees multi-member clusters; a few duplicates and ineligible
    files exercise dedup and the filter reasons.
    """
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []

    def put(name: str, text: str) -> None:
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)

    for family_index in range(families):
        for variant in range(variants):
            put(f"fam{family_index:02d}v{variant}.Dockerfile",
                render_family_dockerfile(family_index, variant, rng))

    # exact duplicates of the first family's first variant
    duplicate = render_family_dockerfile(0, 0, random.Random(seed))
    put("dup1.Dockerfile", duplicate)
    put("dup2.Dockerfile", duplicate)

    # an empty-dependency entry (goes to the pre-training stream)
    put("nodeps.Dockerfile",
        "FROM ubuntu:20.04\n# prepare the build\nRUN echo ready\n")

    if include_rejects:
        put("nocomment.Dockerfile", "FROM alpine:3.14\nRUN apk add --no-cache git\n")
        put("multistage.Dockerfile",
            "FROM golang:1.19\n# Install app\nRUN echo build\nFROM alpine:3.14\n")
        put("shellerror.Dockerfile",
            "FROM debian:10\n# Install tools\nRUN apt-get update && \n")
        put("emptyarg.Dockerfile", "FROM debian:10\n# notes\nLABEL\n")
    return paths


def _run_benchmark_generator(function: str, *args):
    """Call ``function`` of ``perfbench/generate.py`` with ``args``."""
    spec = importlib.util.spec_from_file_location("benchmark_generate", BENCHMARK_GENERATOR)
    generate = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = generate  # dataclasses look their module up
    try:
        spec.loader.exec_module(generate)
        return getattr(generate, function)(*args)
    finally:
        del sys.modules[spec.name]


def write_benchmark_corpus(directory: Path, seed: int) -> None:
    """Write the benchmark's corpus workload input for ``seed`` (1,500
    Dockerfiles) with ``perfbench/generate.py``."""
    _run_benchmark_generator("write_corpus", directory, seed)


def write_benchmark_evaluate(directory: Path, seed: int) -> None:
    """Write the benchmark's evaluate workload input for ``seed`` with
    ``perfbench/generate.py``: 50 targets in ``targets/`` of about 60, 130
    or 230 tree nodes, and the ``<nl>`` outputs of systems ``a`` and ``b``
    under the same file names."""
    _run_benchmark_generator("write_evaluate", directory, seed)


def write_benchmark_index_corpus(path: Path, seed: int, scale: float = 1.0) -> None:
    """Write the corpus JSONL that the benchmark's retrieve workloads index
    for ``seed`` (8,000 records at scale 1.0) with ``perfbench/generate.py``."""
    records = _run_benchmark_generator("retrieve_inputs", seed, scale).records
    _run_benchmark_generator("write_corpus_jsonl", path, records)


@pytest.fixture(scope="session")
def benchmark_index_corpus(tmp_path_factory):
    """2,000 records of the benchmark's seed-1 index corpus, written once per
    test session."""
    path = tmp_path_factory.mktemp("benchmark_index_corpus") / "corpus.jsonl"
    write_benchmark_index_corpus(path, 1, scale=0.25)
    return path


@pytest.fixture(scope="session", params=[1, 2])
def benchmark_corpus_dir(request, tmp_path_factory):
    """The benchmark's corpus workload input at seeds 1 and 2, written once
    per test session."""
    directory = tmp_path_factory.mktemp(f"benchmark_corpus_{request.param}")
    write_benchmark_corpus(directory, request.param)
    return directory


@pytest.fixture(scope="session")
def word_lists():
    return default_word_lists()


@pytest.fixture(scope="session")
def tomcat_ffmpeg_text():
    return (FIXTURES / "tomcat-ffmpeg.Dockerfile").read_text(encoding="utf-8")


@pytest.fixture()
def corpus_dir(tmp_path):
    directory = tmp_path / "dockerfiles"
    write_corpus_files(directory)
    return directory
