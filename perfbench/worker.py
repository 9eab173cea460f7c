"""One benchmark worker: a fresh process that sets up one workload, runs one
pass of it, and prints a JSON report as its last line of standard output.

    python3 perfbench/worker.py WORKLOAD SEED PASS TRACE T0 [--setup-only]

The inputs come from SEED and PASS together: each pass of a run lists the
graphs' vertices and edges in its own seeded order, so that the run's median
is taken over several orders rather than one.  T0 is `time.monotonic()`
read by the parent just before it started this process, so `setup_s`
covers interpreter start, the confhom import and the building of every
input graph.  A fresh process per pass keeps in-process caches (such as the
memoized star counts behind `formulas.predict`) from carrying over between
passes, and makes `peak_rss_mb` that of one pass.
"""

import time
import json
import os
import random
import resource
import sys

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# per-layer metrics in the benchmark's JSON: seconds of self time for the
# layers every workload exercises, and counts for all layers
LAYER_SECONDS = ("graph.build_family", "swiatkowski.build", "complexes.check",
                 "homology.morse", "homology.snf", "bench.check")
LAYER_COUNTS = (
    "graph.subdivide.calls", "swiatkowski.build.cells", "abrams.build.cells",
    "complexes.check.entries", "homology.morse.pairs",
    "homology.morse.protected", "homology.snf.calls", "homology.snf.torsion",
    "cycles.product_cycle.count", "homology.generators.calls",
    "homology.solve_boundary.calls", "blowup.delta_rank_check.calls",
    "cycles.verify_chain_identity.calls", "formulas.predict.calls")


def import_confhom():
    """Import confhom from this checkout's source tree, never from an
    installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "confhom", "__init__.py")):
        raise SystemExit(f"no confhom source tree under {src}")
    sys.path.insert(0, src)
    import confhom
    if not os.path.abspath(confhom.__file__).startswith(src + os.sep):
        raise SystemExit(f"confhom imported from {confhom.__file__}, not {src}")


def layer_metrics(tr, wall):
    """Per-layer metrics of one traced pass."""
    selfs = spans.self_times(tr.spans)
    out = {f"{name}.s": selfs.get(name, (0.0, 0))[0] for name in LAYER_SECONDS}
    out["trace.unattributed_s"] = (selfs["bench.pass"][0]
                                   + selfs["bench.case"][0])
    out["trace.wall_s"] = wall
    c = tr.counts
    out.update({name: c[name] for name in LAYER_COUNTS})
    out["homology.morse.kept_frac"] = (
        c["homology.morse.cells_out"] / c["homology.morse.cells_in"])
    offered = c["cycles.span_rank.offered"]
    out["cycles.span_rank.yield"] = (
        c["cycles.span_rank.rank"] / offered if offered else 0.0)
    return out


def main(argv):
    workload, seed, pass_no = argv[0], int(argv[1]), int(argv[2])
    trace, t0 = argv[3] == "1", float(argv[4])
    tr = spans.Tracer() if trace else spans.NullTracer()
    import_confhom()
    import cases
    todo = cases.workload_cases(workload, random.Random(f"{seed}/{pass_no}"),
                                tr)
    report = {"setup_s": time.monotonic() - t0}
    if "--setup-only" not in argv:
        start = time.perf_counter()
        failures = cases.run_pass(todo, tr)
        wall = time.perf_counter() - start
        report.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=len(todo), failures=failures)
        if trace:
            report["layers"] = layer_metrics(tr, wall)
            report["table"] = {"self_s": spans.self_times(tr.spans),
                               "counts": dict(tr.counts)}
            report["spans"] = tr.spans
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
