"""One repetition of a benchmark workload, in a fresh interpreter.

Started by ``run.py``; never run by hand. The package keeps module-global
generator memos for the life of a process, so a second repetition in the
same interpreter would time memo hits: every repetition gets its own
process. The worker writes what it computed to ``--out`` as JSON; the
parent checks it against answers from ``reference.py``.

Tasks:
  setup         stop once ``import dissoc`` and argument parsing are done
  verify-all    ``dissoc verify --suite all --format json`` via ``dissoc.cli.main``
  corpus-build  generate, code, store and reload every corpus order
  family-scale  suites and counting calls on large families and random graphs
  pmap          fixed cost of the suites' process pool
"""

import argparse
import json
import os
import time

import dissoc
import dissoc.cli
from dissoc import Status

CORPUS_PLAN = [
    ("tree", "generate_trees", "tree_code", range(1, 15)),
    ("caterpillar", "generate_caterpillars", "tree_code", range(1, 15)),
    ("unicyclic", "generate_unicyclic", "unicyclic_code", range(3, 14)),
]
SAMPLED_SETS = 32


def verify_all(args, inputs):
    out = os.path.join(args.work, "verify.json")
    argv = ["verify", "--suite", "all", "--format", "json", "--jobs", str(args.jobs), "--output", out]
    return {"exit_code": dissoc.cli.main(argv), "report": out}


def corpus_build(args, inputs):
    cache = dissoc.cli.CorpusCache(os.path.join(args.work, "cache"))
    orders = []
    for kind, generator, coder, order_range in CORPUS_PLAN:
        for n in order_range:
            graphs = list(getattr(dissoc.canon, generator)(n))
            codes = {getattr(dissoc.canon, coder)(g).text for g in graphs}
            before = set(os.listdir(cache.directory))
            cache.store(kind, n, graphs)
            written = sorted(set(os.listdir(cache.directory)) - before)
            loaded = cache.load(kind, n)
            orders.append({
                "kind": kind,
                "n": n,
                "count": len(graphs),
                "distinct_codes": len(codes),
                "roundtrip": loaded == graphs,
                "files": written,
            })
    return {"cache_dir": cache.directory, "orders": orders}


def _counts(g):
    mds = dissoc.mds
    total = mds.phi(g)
    excluded = mds.phi_refined(g, [(0, Status.EXCLUDED)])
    profile = mds.mds_profile(g)
    sets = list(mds.enumerate_mds(g))
    step = max(1, len(sets) // SAMPLED_SETS)
    return {
        "phi": total,
        "excluded0": excluded,
        "profile_total": profile.total,
        "profile_excluded0": profile.per_vertex[0][0],
        "profile_sums_ok": all(sum(t) == profile.total for t in profile.per_vertex),
        "sets": len(sets),
        "ascending": all(a < b for a, b in zip(sets, sets[1:])),
        "sample": sets[::step][:SAMPLED_SETS],
    }


def family_scale(args, inputs):
    reports = dissoc.suites.run_suite("paths", orders=(3, inputs["paths_to"]), jobs=1)
    reports += dissoc.suites.run_suite("cycle", orders=(4, inputs["cycles_to"]), jobs=1)
    graphs = [dissoc.families.parse_family(spec) for spec in inputs["families"]]
    graphs += [dissoc.graphs.from_edges(n, [tuple(e) for e in edges]) for n, edges in inputs["random"]]
    return {
        "reports": [r.to_dict() for r in reports],
        "graphs": [_counts(g) for g in graphs],
    }


def pmap_cost(args, inputs):
    """Median of run_suite("main", orders=(6, 6)) at jobs=2 minus at jobs=1."""
    dissoc.suites.run_suite("main", orders=(6, 6), jobs=1)
    diffs = []
    for _ in range(7):
        start = time.perf_counter()
        dissoc.suites.run_suite("main", orders=(6, 6), jobs=2)
        middle = time.perf_counter()
        dissoc.suites.run_suite("main", orders=(6, 6), jobs=1)
        diffs.append((middle - start) - (time.perf_counter() - middle))
    diffs.sort()
    return {"fixed_cost_ms": diffs[len(diffs) // 2] * 1000}


TASKS = {
    "verify-all": verify_all,
    "corpus-build": corpus_build,
    "family-scale": family_scale,
    "pmap": pmap_cost,
}


def main():
    # Package functions are looked up on their modules at call time, never
    # bound here by name, so that the traced run's rebinding applies.
    parser = argparse.ArgumentParser()
    parser.add_argument("--task", required=True, choices=["setup"] + sorted(TASKS))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--inputs")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = {"setup_at": time.monotonic(), "dissoc_file": dissoc.__file__}
    if args.task != "setup":
        inputs = None
        if args.inputs:
            with open(args.inputs, encoding="utf-8") as fh:
                inputs = json.load(fh)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        result.update(TASKS[args.task](args, inputs))
        if tracer is not None:
            result["trace"] = tracer.summary()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
