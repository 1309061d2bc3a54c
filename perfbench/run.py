#!/usr/bin/env python3
"""dockerspec benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke        # every workload, tiny inputs

Workloads (see BENCHMARK.json for why each exists):

* ``corpus``   - ``corpus build`` over ~1.5k generated Dockerfiles, then
  ``infer-spec`` on each inferable file;
* ``retrieve-bm25``, ``retrieve-tfidf`` - ``index build`` over the same
  ~8k distinct specs, ``load_index``, then held-out specs answered by one
  ranker: ``retrieve`` (BM25, 150 queries a cycle) or ``vector_retrieve``
  (TF-IDF, 50 queries a cycle);
* ``evaluate`` - ``evaluate`` of two systems' outputs against ~50 targets.

Every workload reports the same end-to-end metrics, each a median over the
run:

* ``setup_s``     - what a fresh process pays before its first operation:
  ``load_index`` of the saved index (retrieve-*), or importing ``dockerspec``
  plus ``default_word_lists()`` in a fresh interpreter (corpus, evaluate);
* ``peak_rss_mb`` - peak resident set size of the benchmark process;
* ``batch_s``     - wall time of the batch command (``corpus build``,
  ``index build``, ``evaluate``);
* ``op_p50_ms``, ``op_p90_ms`` - latency of one operation in a closed loop
  with one client: ``infer-spec`` of one file, one held-out spec through
  the workload's ranker, or one (target, output) pair inside ``evaluate``.

``batch_s`` and ``op_*`` are scaled to a host of fixed speed: each timed
sample is multiplied by ``hostspeed.REFERENCE_S`` over the median time of a
reference loop run between operations around it (see ``hostspeed.py``).
``setup_s`` is not scaled: on corpus and evaluate it runs in another
process, and it is mostly decoding and unmarshalling in C, which the loop
does not track (scaled, its run-to-run spread on corpus rose from 0.04 to
0.26 of the median in five runs). The unscaled figures are in the detail
line.

With ``--trace 0`` the run repeats cycles of the workload until ``--seconds``
have passed and prints the end-to-end metrics. With ``--trace 1`` it
alternates an untraced and a traced cycle over the same inputs and prints the
per-layer metrics of the traced cycles, plus the tracing overhead (traced
minus untraced cycle time). The last stdout line is the result object; the
lines before it record the machine and the run's details (sizes, output
fingerprints). Exits 2 without a result when the program's sources are not
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SMOKE_SCALE = 0.04


def machine_record(seed: int) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    try:
        click_version = version("click")
    except PackageNotFoundError:
        click_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "click": click_version,
        "seed": seed,
        # corpus build runs with CLI defaults, so --jobs = os.cpu_count()
        "ingest_jobs": os.cpu_count(),
    }


def time_metrics(samples, scale) -> dict[str, float]:
    """Median set-up and batch seconds and op percentiles (ms); batch and
    op samples are passed through ``scale(seconds, end)`` first."""
    from workloads import percentile

    def scaled(kind):
        return [scale(seconds, end) for seconds, end in kind]

    op_ms = [s * 1000.0 for s in scaled(samples.op)]
    return {"setup_s": statistics.median(samples.setup),
            "batch_s": statistics.median(scaled(samples.batch)),
            "op_p50_ms": percentile(op_ms, 50),
            "op_p90_ms": percentile(op_ms, 90)}


def end_to_end(workload, peak_rss_mb: float) -> tuple[dict, dict]:
    """The gated metrics, times scaled by the host's speed, and the same
    times unscaled."""
    scaled = time_metrics(workload.samples, workload.host.scaled)
    raw = time_metrics(workload.samples, lambda seconds, end: seconds)
    metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "ms"}
               for name, value in scaled.items()}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return metrics, raw


def keep_going(start: float, last: float, seconds: float) -> bool:
    """Start another cycle while it is expected to end within ``seconds``."""
    return time.perf_counter() - start + last <= seconds


def run_untraced(workload, seconds: float) -> dict:
    # set-up samples before and after the cycles, so they span the run
    workload.measure_setup()
    start = time.perf_counter()
    last = 0.0
    while workload.cycles < workload.MIN_CYCLES or keep_going(start, last, seconds):
        begin = time.perf_counter()
        workload.cycle()
        last = time.perf_counter() - begin
    workload.measure_setup()
    workload.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, raw = end_to_end(workload, peak_rss_mb)
    workload.detail.update(cycles=workload.cycles, op_samples=len(workload.samples.op),
                           setup_samples_s=workload.samples.setup,
                           batch_samples_s=[s for s, _ in workload.samples.batch],
                           unscaled=raw,
                           host_loop_ms=statistics.median(workload.host.samples) * 1000.0,
                           host_samples=len(workload.host.samples),
                           per_operation=workload.per_operation())
    return metrics


def run_traced(workload, seconds: float) -> tuple[dict, int]:
    import layers
    from tracing import Tracer

    untraced, traced, per_cycle = [], [], []
    threads = 0
    workload.host.interval_s = float("inf")  # traced times are the program's alone
    start = time.perf_counter()
    while not traced or keep_going(start, untraced[-1] + traced[-1], seconds):
        begin = time.perf_counter()
        workload.cycle()
        untraced.append(time.perf_counter() - begin)
        tracer = Tracer()
        layers.install(tracer)
        try:
            begin = time.perf_counter()
            workload.cycle()
            traced.append(time.perf_counter() - begin)
        finally:
            tracer.restore()
        per_cycle.append(layers.metrics(tracer, workload.layer_extras()))
        threads = max(threads, tracer.threads_under("corpus_pipeline.ingest_directory"))
    values = {name: statistics.median(m[name] for m in per_cycle)
              for name, _ in layers.PER_LAYER}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    workload.detail.update(traced_cycles=len(traced),
                           untraced_cycle_s=statistics.median(untraced),
                           traced_cycle_s=statistics.median(traced))
    return ({name: {"value": values[name], "unit": unit}
             for name, unit in layers.PER_LAYER}, threads)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    import workloads

    tally = workloads.Tally()
    workload = workloads.WORKLOADS[name](seed, scale, tally)
    machine = machine_record(seed)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    previous = os.getcwd()
    os.chdir(work)  # relative paths keep the program's outputs identical across runs
    try:
        workload.prepare()
        if trace:
            metrics, threads = run_traced(workload, seconds)
            if name == "corpus":
                machine["ingest_threads_used"] = threads
        else:
            metrics = run_untraced(workload, seconds)
        workload.check()
    finally:
        os.chdir(previous)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"machine": machine}, sort_keys=True))
    print(json.dumps({"workload": name, "scale": scale, "detail": workload.detail},
                     sort_keys=True))
    for failure in tally.failures:
        print(f"failed: {failure}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=("corpus", "retrieve-bm25", "retrieve-tfidf", "evaluate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny scale, untraced and traced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not (SRC / "dockerspec" / "__init__.py").is_file():
        print(f"error: dockerspec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.smoke:
        import workloads

        ok = True
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                result = run_workload(name, args.seed, 0.0, trace, SMOKE_SCALE)
                ok = ok and result["correct"]
                print(json.dumps(result, sort_keys=True))
        return 0 if ok else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), 1.0)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
