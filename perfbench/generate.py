"""Seeded input generators for the dockerspec benchmark.

Every generator takes the workload seed and a scale factor (1.0 for the
measured workloads, a small value for smoke runs) and is deterministic: the
same seed and scale give byte-identical inputs. The *shape* of each input
(family sizes, RUN counts per large family, tree-size strata) is fixed by the
scale alone, so that run time does not swing with the seed; the seed picks
the contents (base images, packages, commands, perturbations).

The generators know nothing about dockerspec's algorithms: they write
Dockerfile text, corpus JSONL records and spec dicts, and the benchmark feeds
those to the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# ---------------------------------------------------------------------------
# Assumed traffic. No sample of real Dockerfiles or specs is in the
# repository, so every rate and weight below is an unverified assumption,
# not a measurement. They set how much work each operation does: a BM25
# query's cost is about the postings it touches, roughly the sum over its
# terms of each term's share of the corpus (sum of rate**2 over the flags
# alone is about 0.9 postings per document). Replace them with figures
# derived from a real spec sample once one is committed. The input *shapes*
# (family sizes, RUNs per family, reject shares, evaluate tree sizes and
# edit counts, further below) are assumptions of the same kind.

FLAG_RATES = {  # share of specs with the flag set, per flag
    "uses_env": 0.45, "uses_arg": 0.2, "uses_label": 0.25, "uses_expose": 0.4,
    "uses_cmd": 0.6, "uses_entrypoint": 0.3,
}
DOWNLOAD_RATE = 0.3  # share of specs that download external content
PIP_RATE = 0.2       # share of corpus families with a pip install line
ZIPF_EXPONENT = 1.1  # package popularity: weight of rank r is 1 / r**1.1
OS_CHOICES = (  # os, weight, image, admissible managers with weights
    ("any", 0.30, "python:3.11-slim", (("apt", 0.5), ("apk", 0.15), ("yum", 0.05), ("any", 0.3))),
    ("ubuntu2204", 0.20, "ubuntu:22.04", (("apt", 0.85), ("any", 0.15))),
    ("debian11", 0.15, "debian:11", (("apt", 0.85), ("any", 0.15))),
    ("alpine", 0.20, "alpine:3.18", (("apk", 0.85), ("any", 0.15))),
    ("centos7", 0.10, "centos:7", (("yum", 0.85), ("any", 0.15))),
    ("fedora34", 0.05, "fedora:34", (("yum", 0.85), ("any", 0.15))),
)
# dependencies per retrieve spec, with weights
DEPENDENCY_COUNTS = ((1, 0.25), (2, 0.25), (3, 0.2), (4, 0.15), (5, 0.1), (6, 0.05))

# ---------------------------------------------------------------------------

# Package names an install line can carry. None is an OS word or a stop word
# of the starter word lists, and each starts with a letter, so every one of
# them can become a spec dependency.
PACKAGES = (
    "curl", "git", "vim", "nginx", "redis", "postgresql", "ffmpeg", "x264",
    "yasm", "golang", "maven", "ruby", "nodejs", "npm", "python3", "perl",
    "openssl", "libssl-dev", "zlib1g-dev", "libffi-dev", "libpq-dev", "gcc",
    "make", "cmake", "autoconf", "automake", "libtool", "pkg-config", "wget",
    "unzip", "zip", "tar", "bzip2", "xz-utils", "jq", "htop", "tmux",
    "rsync", "openssh-client", "gnupg", "tzdata", "locales", "sudo", "bash",
    "zsh", "tini", "supervisor", "cron", "logrotate", "sqlite3", "mariadb-client",
    "mysql-client", "mongodb-tools", "memcached", "rabbitmq-server", "haproxy",
    "varnish", "apache2", "php", "php-fpm", "composer", "imagemagick",
    "ghostscript", "poppler-utils", "tesseract-ocr", "libxml2-dev",
    "libxslt1-dev", "libjpeg-dev", "libpng-dev", "libwebp-dev", "libtiff-dev",
    "fontconfig", "graphviz", "pandoc", "texlive", "openjdk", "ant", "gradle",
    "scala", "sbt", "kotlin", "erlang", "elixir", "rustc", "cargo", "clang",
    "llvm", "gdb", "valgrind", "strace", "lsof", "netcat", "socat", "dnsutils",
    "iputils-ping", "iproute2", "net-tools", "tcpdump", "nmap", "iptables",
    "ca-certificates", "certbot", "letsencrypt", "awscli", "kubectl", "helm",
    "terraform", "ansible", "docker-cli", "mercurial", "subversion", "bzr",
    "protobuf-compiler", "grpc-tools", "libzmq3-dev", "libevent-dev",
    "libuv1-dev", "libcurl4-openssl-dev", "libbz2-dev", "liblzma-dev",
    "libreadline-dev", "libncurses5-dev", "libsqlite3-dev", "libgdbm-dev",
    "tk-dev", "uuid-dev", "libgmp-dev", "libmpfr-dev", "libboost-dev",
    "libeigen3-dev", "libopencv-dev", "libhdf5-dev", "libnetcdf-dev",
    "gfortran", "libopenblas-dev", "liblapack-dev", "swig", "doxygen",
    "sphinx", "ccache", "ninja-build", "meson", "bison", "flex", "gettext",
    "texinfo", "patch", "diffutils", "findutils", "procps", "psmisc",
    "coreutils", "sed", "gawk", "grep", "tree", "nano", "emacs",
    "mutt", "postfix", "dovecot", "bind9", "squid", "openvpn", "wireguard",
    "samba", "nfs-common", "cifs-utils", "lvm2", "parted", "xfsprogs",
    "btrfs-progs", "smartmontools", "ipmitool", "chrony", "ntp", "rsyslog",
    "fluentd", "collectd", "telegraf", "prometheus", "grafana", "zabbix",
    "nagios", "elasticsearch", "kibana", "logstash", "kafka", "zookeeper",
    "cassandra", "couchdb", "influxdb", "neo4j", "solr", "tomcat", "jetty",
    "wildfly", "gunicorn", "uwsgi", "flask", "django", "celery", "numpy",
    "pandas", "scipy", "requests", "boto3", "pyyaml", "pillow", "lxml",
)

# Python packages for pip lines (pip does not set the package manager).
PIP_PACKAGES = ("flask", "django", "celery", "numpy", "pandas", "scipy",
                "requests", "boto3", "pyyaml", "pillow", "lxml", "gunicorn",
                "uwsgi")

# base image and the package manager its install lines use
BASES = (
    ("ubuntu:20.04", "apt"), ("ubuntu:22.04", "apt"), ("debian:10-slim", "apt"),
    ("debian:11", "apt"), ("alpine:3.14", "apk"), ("alpine:3.18", "apk"),
    ("centos:7", "yum"), ("fedora:34", "yum"), ("python:3.11-slim", "apt"),
    ("node:18-alpine", "apk"), ("nginx:1.25", "apt"), ("golang:1.21", "apt"),
)

APPS = ("web", "api", "worker", "proxy", "cache", "indexer", "renderer",
        "gateway", "agent", "backup", "report", "scheduler", "monitor", "mailer")

# spec-neutral shell statements: no install, download, or clone commands
NEUTRAL_STATEMENTS = (
    "mkdir -p /opt/{app}/data /var/log/{app}",
    "useradd --create-home --shell /bin/bash {app}",
    "chmod +x /usr/local/bin/{app}-entrypoint.sh",
    "ln -sf /usr/share/zoneinfo/UTC /etc/localtime",
    "chown -R {app}:{app} /opt/{app}",
    "sed -i s/#listen/listen/ /etc/{app}/{app}.conf",
    "rm -rf /tmp/* /var/tmp/*",
    "find /opt/{app} -name *.pyc -delete",
    "cd /opt/{app}",
    "make -j{n}",
    "make install",
    "cp /opt/{app}/build/{app} /usr/local/bin/{app}",
    "echo {app}={n} >> /etc/{app}/build.env",
    "mkdir -p /etc/{app}/conf.d",
    "touch /var/log/{app}/{app}.log",
    "groupadd --system {app}",
    "strip /usr/local/bin/{app}",
    "ldconfig",
    "update-ca-certificates",
    "test -x /usr/local/bin/{app}",
)

DOWNLOAD_STATEMENTS = (
    "curl -fsSL https://downloads.example.org/{app}/{app}-{n}.tar.gz -o /tmp/{app}.tar.gz",
    "wget -q https://releases.example.com/{app}/v{n}/{app}.tgz -O /tmp/{app}.tgz",
    "git clone --depth 1 https://github.com/example/{app}.git /opt/{app}/src",
)

INSTALL_COMMENTS = (
    "Install {pkgs}",
    "Install {pkgs} for the service",
    "install required packages: {pkgs}",
    "Install build dependencies {pkgs}",
    "Install the runtime libraries {pkgs}",
)

NEUTRAL_COMMENTS = (
    "Prepare the service directories",
    "Configure the runtime user",
    "Set up logging",
    "Build from source",
    "Tidy the image",
)

def _zipf_weights(n: int, exponent: float = ZIPF_EXPONENT) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


def _draw_distinct(rng: random.Random, pool, cum_weights, k: int) -> list[str]:
    chosen: list[str] = []
    while len(chosen) < k:
        item = rng.choices(pool, cum_weights=cum_weights)[0]
        if item not in chosen:
            chosen.append(item)
    return chosen


def _cumulative(weights: list[float]) -> list[float]:
    total = 0.0
    out = []
    for w in weights:
        total += w
        out.append(total)
    return out


_PACKAGE_CUM = _cumulative(_zipf_weights(len(PACKAGES)))


def _install_statements(manager: str, packages: list[str]) -> list[str]:
    joined = " ".join(packages)
    if manager == "apt":
        return ["apt-get update",
                f"apt-get install -y --no-install-recommends {joined}",
                "rm -rf /var/lib/apt/lists/*"]
    if manager == "apk":
        return [f"apk add --no-cache {joined}"]
    return [f"yum install -y {joined}", "yum clean all"]


def _run_lines(statements: list[str]) -> list[str]:
    """A RUN instruction as a multi-line ``&&`` chain with continuations."""
    if len(statements) == 1:
        return [f"RUN {statements[0]}"]
    lines = [f"RUN {statements[0]} \\"]
    for stmt in statements[1:-1]:
        lines.append(f"    && {stmt} \\")
    lines.append(f"    && {statements[-1]}")
    return lines


def _neutral_chain(rng: random.Random, app: str) -> list[str]:
    count = rng.choice((1, 1, 2, 2, 3, 4))
    return [rng.choice(NEUTRAL_STATEMENTS).format(app=app, n=rng.randint(2, 16))
            for _ in range(count)]


def _flags(rng: random.Random) -> dict[str, bool]:
    return {name: rng.random() < rate for name, rate in FLAG_RATES.items()}


# ---------------------------------------------------------------------------
# corpus workload: a directory of raw Dockerfiles

@dataclass
class _Family:
    """The spec-determining parts shared by every member of a family."""

    image: str
    manager: str
    app: str
    install_sets: list[list[str]]
    pip_packages: list[str]
    download: str | None
    neutral: list[list[str]]
    flags: dict[str, bool]


def _corpus_family(rng: random.Random, runs: int) -> _Family:
    image, manager = rng.choice(BASES)
    app = rng.choice(APPS)
    download = None
    if rng.random() < DOWNLOAD_RATE:
        download = rng.choice(DOWNLOAD_STATEMENTS).format(app=app, n=rng.randint(1, 9))
    pip_packages = []
    if rng.random() < PIP_RATE:
        pip_packages = rng.sample(PIP_PACKAGES, rng.randint(1, 3))
    install_runs = max(1, min(3, runs - (download is not None) - bool(pip_packages)))
    install_sets = [_draw_distinct(rng, PACKAGES, _PACKAGE_CUM, rng.randint(1, 4))
                    for _ in range(install_runs)]
    fixed = install_runs + (download is not None) + bool(pip_packages)
    neutral = [_neutral_chain(rng, app) for _ in range(max(0, runs - fixed))]
    return _Family(image, manager, app, install_sets, pip_packages, download,
                   neutral, _flags(rng))


def _render_member(family: _Family, rng: random.Random, member: int,
                   with_comments: bool = True) -> str:
    """One near-duplicate member: packages reordered, neutral RUNs varied,
    dropped or added, and a member-unique COPY line; the spec is unchanged."""
    app = family.app
    lines = [f"FROM {family.image}"]
    if family.flags["uses_arg"]:
        lines.append(f"ARG {app.upper()}_VERSION={rng.randint(1, 9)}.{rng.randint(0, 9)}")
    if family.flags["uses_label"]:
        lines.append(f"LABEL maintainer={app}@example.org")
    if family.flags["uses_env"]:
        lines.append(f"ENV {app.upper()}_HOME=/opt/{app}")
    lines.append("")
    for packages in family.install_sets:
        shuffled = list(packages)
        rng.shuffle(shuffled)
        lines.append("# " + rng.choice(INSTALL_COMMENTS).format(pkgs=" ".join(packages)))
        lines.extend(_run_lines(_install_statements(family.manager, shuffled)))
        lines.append("")
    if family.pip_packages:
        lines.append(f"# Install python packages {' '.join(family.pip_packages)}")
        lines.append(f"RUN pip install --no-cache-dir {' '.join(family.pip_packages)}")
        lines.append("")
    if family.download:
        lines.append(f"# Fetch the {app} release")
        lines.extend(_run_lines([family.download, f"mkdir -p /opt/{app}"]))
        lines.append("")
    neutral = [list(chain) for chain in family.neutral]
    for chain in neutral:
        if rng.random() < 0.5:
            chain[rng.randrange(len(chain))] = rng.choice(NEUTRAL_STATEMENTS).format(
                app=app, n=rng.randint(2, 16))
    if len(neutral) > 1 and rng.random() < 0.3:
        del neutral[rng.randrange(len(neutral))]
    if neutral and rng.random() < 0.3:
        neutral.insert(rng.randrange(len(neutral) + 1), _neutral_chain(rng, app))
    for chain in neutral:
        if rng.random() < 0.4:
            lines.append("# " + rng.choice(NEUTRAL_COMMENTS))
        lines.extend(_run_lines(chain))
    lines.append(f"COPY conf/{app}-{member}.conf /etc/{app}/{app}.conf")
    lines.append(f"WORKDIR /opt/{app}")
    if family.flags["uses_expose"]:
        lines.append(f"EXPOSE {rng.choice((80, 443, 3000, 5000, 8000, 8080))}")
    if family.flags["uses_entrypoint"]:
        lines.append(f'ENTRYPOINT ["/usr/local/bin/{app}-entrypoint.sh"]')
    if family.flags["uses_cmd"]:
        lines.append(f'CMD ["{app}", "--serve"]')
    if not with_comments:
        lines = [line for line in lines if not line.startswith("#")]
    return "\n".join(lines) + "\n"


# Family sizes at scale 1.0: a fixed heavy tail. Ten large near-duplicate
# families, forty medium ones, and many specs with one to three files.
_LARGE_SIZES = (48, 40, 34, 30, 26, 22, 20, 18, 16, 14)
_LARGE_RUNS = (6, 8, 5, 9, 7, 4, 10, 6, 8, 5)
_MEDIUM_SIZES = (8, 7, 6, 5, 4)
_SMALL_SIZES = (1, 1, 2, 1, 3, 1, 2, 1, 1, 2)
CORPUS_FILES = 1500
# ineligible or duplicate files per 1000 input files
_REJECTS_PER_MILLE = {
    "no-comments": 27, "multi-stage": 20, "heredoc": 13, "shell-error": 13,
    "non-utf8": 10, "duplicate": 17,
}


@dataclass
class CorpusManifest:
    files: int
    families: int
    family_sizes: list[int]
    rejects: dict[str, int]
    inferable: list[str] = field(default_factory=list)


def write_corpus(directory: Path, seed: int, scale: float = 1.0) -> CorpusManifest:
    """Write the raw Dockerfiles of the ``corpus`` workload.

    Returns the manifest, whose ``inferable`` lists the relative file names
    that parse and infer (every file except heredoc, shell-error and
    non-UTF-8 ones).
    """
    rng = random.Random(f"corpus-{seed}")
    total = max(40, round(CORPUS_FILES * scale))
    rejects = {kind: max(1, round(total * per / 1000))
               for kind, per in _REJECTS_PER_MILLE.items()}
    budget = total - sum(rejects.values())

    sizes_runs: list[tuple[int, int]] = []
    for size, runs in zip(_LARGE_SIZES, _LARGE_RUNS):
        sizes_runs.append((max(2, round(size * scale)), runs))
    for i in range(max(2, round(40 * scale))):
        sizes_runs.append((_MEDIUM_SIZES[i % len(_MEDIUM_SIZES)], 1 + i % 10))
    used = sum(s for s, _ in sizes_runs)
    i = 0
    while used < budget:
        size = min(_SMALL_SIZES[i % len(_SMALL_SIZES)], budget - used)
        sizes_runs.append((size, 1 + i % 10))
        used += size
        i += 1

    texts: list[tuple[str, bytes, bool]] = []  # (kind, content, inferable)
    member_texts: list[str] = []
    for family_index, (size, runs) in enumerate(sizes_runs):
        family = _corpus_family(rng, runs)
        for member in range(size):
            text = _render_member(family, rng, member)
            member_texts.append(text)
            texts.append(("member", text.encode("utf-8"), True))
        if family_index < rejects["no-comments"]:
            text = _render_member(family, rng, size, with_comments=False)
            texts.append(("no-comments", text.encode("utf-8"), True))

    for n in range(rejects["multi-stage"]):
        pkg = rng.choice(PACKAGES)
        text = (f"# Build stage\nFROM golang:1.21 AS build\n# Install {pkg}\n"
                f"RUN apt-get update && apt-get install -y {pkg}\n"
                f"RUN go build -o /out/app{n} ./cmd/app\n\n"
                f"FROM alpine:3.18\nCOPY --from=build /out/app{n} /usr/local/bin/app\n"
                f'CMD ["app"]\n')
        texts.append(("multi-stage", text.encode("utf-8"), True))
    for n in range(rejects["heredoc"]):
        pkg = rng.choice(PACKAGES)
        text = (f"FROM ubuntu:22.04\n# Install {pkg}\nRUN <<EOF\napt-get update\n"
                f"apt-get install -y {pkg}\nEOF\nWORKDIR /srv/{n}\n")
        texts.append(("heredoc", text.encode("utf-8"), False))
    for n in range(rejects["shell-error"]):
        pkg = rng.choice(PACKAGES)
        body = (f"apt-get update && apt-get install -y {pkg} &&" if n % 2 == 0
                else f'echo "unterminated {pkg}')
        text = f"FROM debian:11\n# Install {pkg}\nRUN {body}\nWORKDIR /srv/{n}\n"
        texts.append(("shell-error", text.encode("utf-8"), False))
    for n in range(rejects["non-utf8"]):
        pkg = rng.choice(PACKAGES)
        text = f"FROM alpine:3.18\n# Install {pkg} caf\xe9 {n}\nRUN apk add {pkg}\n"
        texts.append(("non-utf8", text.encode("latin-1"), False))
    for _ in range(rejects["duplicate"]):
        texts.append(("duplicate", rng.choice(member_texts).encode("utf-8"), True))

    order = list(range(len(texts)))
    rng.shuffle(order)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = CorpusManifest(len(texts), len(sizes_runs), [s for s, _ in sizes_runs],
                              rejects)
    for position, index in enumerate(order):
        _, content, inferable = texts[index]
        name = f"{position:05d}.Dockerfile"
        (directory / name).write_bytes(content)
        if inferable:
            manifest.inferable.append(name)
    return manifest


# ---------------------------------------------------------------------------
# retrieve workloads: a corpus JSONL of distinct specs plus held-out queries

SPEC_FIELDS = ("os", "pkg_manager", "dependencies", "downloads_external", "uses_env",
               "uses_arg", "uses_label", "uses_expose", "uses_cmd", "uses_entrypoint")
RETRIEVE_ENTRIES = 8000
RETRIEVE_QUERIES = 300  # retrieve-bm25 asks the first 150, retrieve-tfidf the first 50


def _weighted(rng: random.Random, pairs):
    values = [v for v, _ in pairs]
    return rng.choices(values, weights=[w for _, w in pairs])[0]


def _random_spec(rng: random.Random) -> tuple[dict, str]:
    row = rng.choices(OS_CHOICES, weights=[r[1] for r in OS_CHOICES])[0]
    os_name, _, image, managers = row
    deps = sorted(_draw_distinct(rng, PACKAGES, _PACKAGE_CUM,
                                 _weighted(rng, DEPENDENCY_COUNTS)))
    spec = {"os": os_name, "pkg_manager": _weighted(rng, managers), "dependencies": deps,
            "downloads_external": rng.random() < DOWNLOAD_RATE}
    spec.update(_flags(rng))
    return {name: spec[name] for name in SPEC_FIELDS}, image


def _normalized_dockerfile(spec: dict, image: str, rng: random.Random) -> str:
    """Training-normalized text (``<nl>`` form) consistent with a spec."""
    app = rng.choice(APPS)
    manager = spec["pkg_manager"] if spec["pkg_manager"] != "any" else "apt"
    lines = [f"FROM {image} <nl>"]
    if spec["uses_arg"]:
        lines.append(f"ARG VERSION=1.{rng.randint(0, 9)} <nl>")
    if spec["uses_env"]:
        lines.append(f"ENV {app.upper()}_HOME=/opt/{app} <nl>")
    if spec["uses_label"]:
        lines.append(f"LABEL maintainer={app}@example.org <nl>")
    lines.append("RUN " + " && ".join(_install_statements(manager, spec["dependencies"]))
                 + " <nl>")
    if spec["downloads_external"]:
        lines.append("RUN " + rng.choice(DOWNLOAD_STATEMENTS).format(app=app, n=3) + " <nl>")
    for _ in range(rng.randint(0, 3)):
        lines.append("RUN " + " && ".join(_neutral_chain(rng, app)) + " <nl>")
    if spec["uses_expose"]:
        lines.append("EXPOSE 8080 <nl>")
    if spec["uses_entrypoint"]:
        lines.append(f'ENTRYPOINT ["/usr/local/bin/{app}"] <nl>')
    if spec["uses_cmd"]:
        lines.append(f'CMD ["{app}"] <nl>')
    return "\n".join(lines) + "\n"


@dataclass
class RetrieveInputs:
    records: list[dict]
    queries: list[dict]


def retrieve_inputs(seed: int, scale: float = 1.0) -> RetrieveInputs:
    """Index entries with pairwise-distinct specs (one representative per
    spec, as ``corpus build`` emits) and held-out query specs drawn from the
    same distribution but absent from the index."""
    rng = random.Random(f"retrieve-{seed}")
    n_entries = max(50, round(RETRIEVE_ENTRIES * scale))
    n_queries = RETRIEVE_QUERIES if scale >= 1.0 else max(10, round(RETRIEVE_QUERIES * scale))
    seen: set[str] = set()
    records: list[dict] = []
    queries: list[dict] = []
    while len(records) < n_entries or len(queries) < n_queries:
        spec, image = _random_spec(rng)
        key = json.dumps(spec, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        # every tenth fresh spec is held out until the query set is full
        if len(queries) < n_queries and (len(seen) % 10 == 0 or len(records) >= n_entries):
            queries.append(spec)
            continue
        if len(records) >= n_entries:
            continue
        text = _normalized_dockerfile(spec, image, rng)
        records.append({"spec": spec, "dockerfile": text,
                        "sha1": hashlib.sha1(text.encode("utf-8")).hexdigest(),
                        "source": f"generated/{len(records):05d}.Dockerfile"})
    return RetrieveInputs(records, queries)


def write_corpus_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# evaluate workload: targets and two systems' perturbed outputs

EVALUATE_TARGETS = 50
# (share of targets, tree nodes): three size classes within 50-300 nodes, so
# that the median and the 90th-percentile pair each fall inside a class of
# pairs of similar cost rather than on a steep slope between sizes
_SIZE_CLASSES = ((0.3, 60), (0.4, 130), (0.3, 230))
_SMOKE_MAX_NODES = 80


@dataclass
class _Instruction:
    kind: str
    args: list[str]  # RUN: shell statements; other kinds: one argument string


def _tree_size(instructions: list[_Instruction]) -> int:
    """Node count of dockerspec's comparison tree for the rendered target
    (root, one node per instruction, per shell statement, per word)."""
    size = 1
    for inst in instructions:
        size += 1
        if inst.kind == "RUN":
            size += sum(len(stmt.split()) for stmt in inst.args)
        elif inst.args[0].startswith("["):
            size += len(json.loads(inst.args[0]))
        else:
            size += len(inst.args[0].split())
    return size


def _evaluate_target(rng: random.Random,
                     nodes: int) -> tuple[list[_Instruction], list[str], str]:
    """A target Dockerfile of about ``nodes`` tree nodes; returns its
    instructions, its text lines (with install comments) and its app name."""
    image, manager = rng.choice(BASES)
    app = rng.choice(APPS)
    flags = _flags(rng)
    head = [_Instruction("FROM", [image])]
    if flags["uses_env"]:
        head.append(_Instruction("ENV", [f"{app.upper()}_HOME=/opt/{app}"]))
    tail = [_Instruction("WORKDIR", [f"/opt/{app}"])]
    if flags["uses_expose"]:
        tail.append(_Instruction("EXPOSE", ["8080"]))
    if flags["uses_cmd"]:
        tail.append(_Instruction("CMD", [f'["{app}", "--serve"]']))
    body: list[tuple[str, _Instruction]] = []
    packages = _draw_distinct(rng, PACKAGES, _PACKAGE_CUM, rng.randint(2, 4))
    body.append((f"Install {' '.join(packages)}",
                 _Instruction("RUN", _install_statements(manager, packages))))
    while _tree_size(head + [i for _, i in body] + tail) < nodes:
        if rng.random() < 0.25:
            packages = _draw_distinct(rng, PACKAGES, _PACKAGE_CUM, rng.randint(1, 5))
            body.append((f"Install {' '.join(packages)}",
                         _Instruction("RUN", _install_statements(manager, packages))))
        else:
            body.append((rng.choice(NEUTRAL_COMMENTS),
                         _Instruction("RUN", _neutral_chain(rng, app))))
    lines = [f"FROM {image}"]
    lines.extend(f"{i.kind} {i.args[0]}" for i in head[1:])
    lines.append("")
    for comment, inst in body:
        lines.append(f"# {comment}")
        lines.extend(_run_lines(inst.args))
        lines.append("")
    lines.extend(f"{i.kind} {i.args[0]}" for i in tail)
    return head + [i for _, i in body] + tail, lines, app


# edit kinds in the order they are applied; system a takes the first one or
# two of its list, system b the first three to six of its list
_EDITS = {"a": ("edit", "swap-dependency"),
          "b": ("drop", "insert", "edit", "swap-dependency", "swap-base", "edit")}


def _perturb(rng: random.Random, instructions: list[_Instruction], actions,
             app: str) -> list[_Instruction]:
    """Drop, insert or edit RUNs, swap a dependency or the base image."""
    out = [_Instruction(i.kind, list(i.args)) for i in instructions]
    for action in actions:
        runs = [n for n, i in enumerate(out) if i.kind == "RUN"]
        if action == "drop" and len(runs) > 1:
            del out[rng.choice(runs)]
        elif action == "insert":
            out.insert(rng.randint(1, len(out)), _Instruction("RUN", _neutral_chain(rng, app)))
        elif action == "edit" and runs:
            stmts = out[rng.choice(runs)].args
            position = rng.randrange(len(stmts))
            if len(stmts) > 1 and rng.random() < 0.5:
                del stmts[position]
            else:
                stmts[position] = rng.choice(NEUTRAL_STATEMENTS).format(
                    app=app, n=rng.randint(2, 16))
        elif action == "swap-dependency" and runs:
            stmts = out[rng.choice(runs)].args
            position = rng.randrange(len(stmts))
            words = stmts[position].split()
            words[-1] = rng.choice(PACKAGES)
            stmts[position] = " ".join(words)
        else:
            out[0] = _Instruction("FROM", [rng.choice(BASES)[0]])
    return out


def _nl_form(instructions: list[_Instruction]) -> str:
    """The ``<nl>`` form that ``dockerspec generate`` prints."""
    lines = []
    for inst in instructions:
        body = " && ".join(inst.args) if inst.kind == "RUN" else inst.args[0]
        lines.append(f"{inst.kind} {body} <nl>")
    return "\n".join(lines) + "\n"


@dataclass
class EvaluateManifest:
    targets: int
    target_nodes: list[int]


def write_evaluate(directory: Path, seed: int, scale: float = 1.0) -> EvaluateManifest:
    """Write ``targets/``, ``a/`` and ``b/`` under ``directory``.

    Target sizes come from three size classes (``_SIZE_CLASSES``, each
    spread over +-5%) and the number of edits per output is fixed by the
    target's index, so the tree-edit-distance work hardly depends on the
    seed; the seed picks contents and edit kinds. System ``a`` makes one or
    two edits per file, system ``b`` three to six.
    """
    rng = random.Random(f"evaluate-{seed}")
    count = max(4, round(EVALUATE_TARGETS * scale))
    targets_nodes = []
    for share, nodes in _SIZE_CLASSES:
        members = round(share * count)
        targets_nodes.extend(nodes * (0.95 + 0.1 * (j + 0.5) / members)
                             for j in range(members))
    targets_nodes = targets_nodes[:count]
    # evaluate takes targets in name order; a fixed shuffle (the same for
    # every seed) spreads each size over the whole run, so that a percentile
    # does not rest on the host's speed during one stretch of it
    random.Random("evaluate-order").shuffle(targets_nodes)
    if scale < 1.0:
        targets_nodes = [min(n, _SMOKE_MAX_NODES) for n in targets_nodes]
    for sub in ("targets", "a", "b"):
        (directory / sub).mkdir(parents=True, exist_ok=True)
    sizes = []
    for index, nodes in enumerate(targets_nodes):
        instructions, lines, app = _evaluate_target(rng, round(nodes))
        sizes.append(_tree_size(instructions))
        name = f"t{index:03d}.Dockerfile"
        (directory / "targets" / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        for system, edits in (("a", 1 + index % 2), ("b", 3 + index % 4)):
            output = _perturb(rng, instructions, _EDITS[system][:edits], app)
            (directory / system / name).write_text(_nl_form(output), encoding="utf-8")
    return EvaluateManifest(len(sizes), sizes)
