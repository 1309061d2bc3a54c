#!/usr/bin/env python3
"""Compare BM25 query cost on the benchmark's retrieve traffic with the
repository's one measured retrieval anchor.

ROADMAP.md records 34 ms per BM25 query over 32,120 documents built from the
test suite's synthetic families (``tests/conftest.render_family_dockerfile``,
whose specs repeat with a period of 48). This script rebuilds that corpus,
times BM25 on it and on the ``retrieve-*`` workloads' generated index, and
prints postings per query and cost per posting and per document for both.
The cost per posting tells whether this machine and the engine agree with
the anchor; postings per document is what the assumed traffic in
``generate.py`` decides. Run from the root of a checkout:

    python3 perfbench/anchor.py [--seed 1] [--queries 48]
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ANCHOR_DOCS = 32120
ANCHOR_PERIOD = 48


def measure(label: str, entries, queries) -> None:
    from dockerspec import retrieval_engine as engine

    index = engine.build_index(entries)
    postings = statistics.fmean(
        sum(index.doc_frequency[f].get(t, 0) for f, terms in
            engine.query_terms_for(q).items() for t in terms) for q in queries)
    times_ms = []
    for query in queries:
        start = time.perf_counter()
        engine.retrieve(query, 10, index)
        times_ms.append((time.perf_counter() - start) * 1000.0)
    median = statistics.median(times_ms)
    docs = len(entries)
    print(f"{label}: {docs} docs, {postings:.0f} postings/query "
          f"({postings / docs:.2f}/doc), BM25 median {median:.1f} ms/query, "
          f"{median * 1000.0 / postings:.2f} us/posting, {median * 1e6 / docs:.0f} ns/doc")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--queries", type=int, default=48)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import generate
    from dockerspec import default_word_lists
    from dockerspec.dockerfile_syntax import parse_dockerfile
    from dockerspec.spec_inference import infer_spec
    from dockerspec.spec_model import spec_from_dict

    spec = importlib.util.spec_from_file_location("dockerspec_test_conftest",
                                                  ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    lists = default_word_lists()
    families = []
    for i in range(ANCHOR_PERIOD):
        text = conftest.render_family_dockerfile(i, 0, random.Random(7))
        families.append((infer_spec(parse_dockerfile(text), lists), text))
    measure("ROADMAP anchor corpus",
            [families[i % ANCHOR_PERIOD] for i in range(ANCHOR_DOCS)],
            [s for s, _ in families][:args.queries])

    inputs = generate.retrieve_inputs(args.seed)
    measure("retrieve-* traffic",
            [(spec_from_dict(r["spec"]), r["dockerfile"]) for r in inputs.records],
            [spec_from_dict(q) for q in inputs.queries[:args.queries]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
