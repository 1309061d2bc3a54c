"""Which program functions the traced run wraps, and the per-layer metrics
computed from its spans and counts.

Layers are the modules of ``dockerspec``. The metric names, units and
directions are those of ``per_layer`` in BENCHMARK.json; this module only
wires them to spans and counts. Which end-to-end metric each group should
move, and on which workload (a metric whose layer a workload does not
exercise reads 0 there, which is also the prediction for that workload):

* ``dockerfile_syntax.*`` and ``spec_inference.*`` -> ``batch_s`` and
  ``op_*`` on corpus and evaluate (``build_ast`` on evaluate only);
  ``parse_shell.calls_per_run`` of 1.0 is the parse-once ideal;
* ``corpus_pipeline.*`` and ``spec_model.serialize_spec.calls`` ->
  ``batch_s`` on corpus; no move elsewhere;
* ``spec_model.spec_from_dict.calls`` -> ``setup_s`` and ``batch_s`` on the
  retrieve workloads;
* ``retrieval_engine.build_index`` (the ``index build`` path only),
  ``save_index``, ``index_bytes`` -> ``batch_s`` on the retrieve workloads;
  ``load_index.busy_s`` (inclusive) and its parts ``load_index.self_s`` and
  ``load_index.build_index.self_s`` (the index rebuilt inside
  ``load_index``) -> ``setup_s`` there;
* ``retrieval_engine.retrieve.self_s``, ``postings_per_query`` -> ``op_*``
  on retrieve-bm25; ``vector_retrieve.self_s`` -> ``op_*`` on
  retrieve-tfidf; no move on corpus or evaluate;
* ``evaluation.*`` -> ``batch_s`` and ``op_*`` on evaluate; no move
  elsewhere;
* ``cli.main.self_s`` -> ``batch_s`` on every workload, ``op_*`` on corpus;
* ``trace.*`` -> the traced run itself: spans recorded, and traced minus
  untraced cycle time.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracing import Tracer

_BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                        .read_text(encoding="utf-8"))
# (metric, unit) in report order
PER_LAYER = tuple((m["name"], m["unit"]) for m in _BENCHMARK["per_layer"])

# Spans at every call the CLI makes into the library, so that cli.main's self
# time is only the argument, file and JSON work around them.
_SPANNED = {
    "dockerfile_syntax": ("parse_dockerfile", "parse_shell", "build_ast"),
    "spec_inference": ("infer_spec",),
    "spec_model": ("serialize_spec", "spec_from_dict", "default_word_lists"),
    "corpus_pipeline": ("filter_eligible", "build_corpus", "select_representative",
                        "normalize_for_training", "write_jsonl", "read_corpus_records"),
    "retrieval_engine": ("build_index", "save_index", "load_index", "retrieve",
                         "vector_retrieve"),
    "evaluation": ("evaluate_run", "evaluate_pair", "infer_spec_for_generated",
                   "bleu4", "compare_systems"),
    "cli": ("main",),
}
# about 10^5 calls or more per cycle: counted, no span
_COUNTED = {"corpus_pipeline": ("instruction_jaccard",)}


def install(tracer: Tracer) -> None:
    """Wrap the program's layer-boundary functions for one traced cycle."""
    import importlib

    from dockerspec.dockerfile_syntax import ast_size

    modules = {name: importlib.import_module(f"dockerspec.{name}")
               for name in ("dockerfile_syntax", "spec_inference", "spec_model",
                            "corpus_pipeline", "retrieval_engine", "evaluation", "cli")}

    def count_runs(doc, args, kwargs):
        tracer.add("dockerfile_syntax.run_instructions_read",
                   sum(1 for inst in doc.instructions if inst.kind == "RUN"))

    def count_nodes(args, kwargs):
        tracer.add("evaluation.tree_nodes", ast_size(args[0]) + ast_size(args[1]))

    def count_files(result, args, kwargs):
        reasons = result[1]
        tracer.add("corpus_pipeline.files_read", sum(reasons.values()))
        tracer.add("corpus_pipeline.files_eligible", reasons.get("eligible", 0))

    hooks = {"dockerfile_syntax.parse_dockerfile": {"after": count_runs},
             # load_index rebuilds the index; keep that apart from index build
             "retrieval_engine.build_index": {"name_under": {
                 "retrieval_engine.load_index": "retrieval_engine.load_index.build_index"}}}
    for module_name, functions in _SPANNED.items():
        for function in functions:
            name = f"{module_name}.{function}"
            tracer.patch(modules[module_name], function,
                         lambda f, name=name: tracer.spanned(name, f, **hooks.get(name, {})))
    for module_name, functions in _COUNTED.items():
        for function in functions:
            tracer.patch(modules[module_name], function,
                         lambda f, name=f"{module_name}.{function}": tracer.counted(name, f))
    tracer.patch(modules["evaluation"], "tree_edit_distance",
                 lambda f: tracer.spanned("evaluation.tree_edit_distance", f,
                                          before=count_nodes))

    def ingest_wrapper(original):
        def ingest(*args, **kwargs):
            # spans opened by the pool's threads hang under this one
            tracer.fallback_parent = tracer.current()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.fallback_parent = None
        return tracer.spanned("corpus_pipeline.ingest_directory", ingest, after=count_files)

    tracer.patch(modules["corpus_pipeline"], "ingest_directory", ingest_wrapper)


def metrics(tracer: Tracer, extras: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced cycle, 0 where not exercised."""
    self_s = tracer.self_times()
    busy_s = tracer.busy_times()
    counts = tracer.counts
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".busy_s"):
            values[name] = busy_s.get(name[:-len(".busy_s")], 0.0)
        else:
            values[name] = counts.get(name, 0)
    runs = counts.get("dockerfile_syntax.run_instructions_read", 0)
    values["dockerfile_syntax.parse_shell.calls_per_run"] = (
        counts.get("dockerfile_syntax.parse_shell.calls", 0) / runs if runs else 0.0)
    files = counts.get("corpus_pipeline.files_read", 0)
    values["corpus_pipeline.eligible_ratio"] = (
        counts.get("corpus_pipeline.files_eligible", 0) / files if files else 0.0)
    pairs = counts.get("evaluation.tree_edit_distance.calls", 0)
    values["evaluation.tree_nodes_per_pair"] = (
        counts.get("evaluation.tree_nodes", 0) / pairs if pairs else 0.0)
    values["trace.spans"] = len(tracer.spans)
    values.update(extras)
    return values
