"""Smoke test of the benchmark itself, in a few seconds:

    python3 perfbench/smoke.py

Runs a tiny version of each workload untraced and traced, checks that the
traced split of homology() gives what homology() gives, and shows that the
exact-result gate counts a wrong reference, an exception and a resource-limit
abort as failed cases.  Exits 1 if any of this does not hold.
"""

import io
import json
import os
import random
import sys

import spans
import worker

worker.import_confhom()

import cases  # noqa: E402  (needs the confhom import path set above)
from confhom import build_family, build_swiatkowski, homology  # noqa: E402


def tiny_small_sweep(rng, tr):
    return [cases._cross_model(rng, tr, "theta:3", 2),
            cases._k2p(rng, tr, 3, 3),
            cases._closed_form(rng, tr, "net:2", 2, {0: 1, 1: 3}),
            cases._relation("theta3"),
            cases._circle_dressing(rng, tr),
            cases._delta_rank(rng, tr, "net:4", "w", 3, 1, 9),
            cases._generators(rng, tr, "k4", 3, 2, 3),
            cases._predictions()[0]]


TINY = {
    "halfedge-compute": lambda rng, tr: cases.halfedge_cases(
        rng, tr, specs=(("k4", 3, True),)),
    "class-span": lambda rng, tr: cases.class_span_cases(
        rng, tr, specs=(("wheel:5", 3, 2, 12),)),
    "small-sweep": tiny_small_sweep,
}


def main():
    problems = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as f:
        per_layer = {m["name"] for m in json.load(f)["per_layer"]}
    per_layer.discard("trace.overhead_s")  # the runner adds it

    for name, build in TINY.items():
        for tr in (spans.NullTracer(), spans.Tracer()):
            todo = build(random.Random(7), tr)
            failures = cases.run_pass(todo, tr)
            mode = "traced" if tr.enabled else "untraced"
            check(not failures, f"tiny {name}, {mode}: {len(todo)} cases pass")
            if tr.enabled:
                layers = worker.layer_metrics(tr, 1.0)
                check(layers["homology.morse.pairs"] > 0
                      and per_layer <= set(layers),
                      f"tiny {name}, traced: every per-layer metric recorded")

    for fam, n, reduce in (("k4", 3, "all"), ("theta:3", 2, None)):
        cx = build_swiatkowski(build_family(fam), n, reduce_vertices=reduce)
        split = cases.homology_by_layers(spans.Tracer(), cx)
        check(split.dims == homology(cx).dims,
              f"{fam} n={n}: traced split equals homology()")

    good = TINY["halfedge-compute"](random.Random(7), spans.NullTracer())[0]
    wrong = dict(good.expected)
    wrong[2] = (wrong[2][0] + 1, ())

    def over_limit(tr):
        return build_swiatkowski(build_family("k4"), 3, max_cells=10)

    gated = [good,
             cases.Case("wrong reference", good.run, wrong),
             cases.Case("raises", lambda tr: 1 // 0, 0),
             cases.Case("resource limit", over_limit, None)]
    failures = cases.run_pass(gated, spans.NullTracer(), log=io.StringIO())
    check(failures == ["wrong reference", "raises", "resource limit"],
          f"gate: fail_frac {len(failures)}/{len(gated)} > 0 with a wrong "
          "reference, an exception and a resource-limit abort")

    if problems:
        sys.exit(f"smoke: {len(problems)} check(s) failed")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
