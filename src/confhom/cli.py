"""Command-line front end: homology computation, closed-form prediction,
verification suites, relation checks, and complex dumps.

Output is deterministic for a fixed configuration up to the elapsed_ms
field.  Exit status is 0 exactly when every requested check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .complexes import ResourceLimitExceeded
from .cycles import RELATIONS, CycleSpec, make_cycle, verify_chain_identity
from .formulas import predict
from .graph import Graph, GraphError, build_family, order_vertices, subdivide_for
from .homology import homology
from .swiatkowski import build_swiatkowski
from .verify import SUITES, run_suite
from .abrams import build_abrams


def _load_graph(source: str) -> Graph:
    if source.startswith("@") or source.endswith(".json") or os.path.exists(source):
        path = source[1:] if source.startswith("@") else source
        with open(path, "r", encoding="utf-8") as fh:
            return Graph.from_json(fh.read(), name=os.path.basename(path))
    return build_family(source)


def _parse_dims(text):
    """None, a dimension or an inclusive (lo, hi) range from "d" or "lo-hi"
    with 0 <= lo <= hi; anything else raises ValueError."""
    if text is None:
        return None
    m = re.fullmatch(r"([0-9]+)(?:-([0-9]+))?", text)
    if m is None or (m[2] is not None and int(m[1]) > int(m[2])):
        raise ValueError(f"--dims {text!r}: expected d or lo-hi "
                         "with 0 <= lo <= hi")
    return int(m[1]) if m[2] is None else (int(m[1]), int(m[2]))


def _emit(data, fmt, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(data, stream, indent=2, sort_keys=True)
        stream.write("\n")
    elif fmt == "csv":
        rows = data if isinstance(data, list) else [data]
        flat = [_flatten(r) for r in rows]
        keys = sorted({k for r in flat for k in r})
        stream.write(",".join(keys) + "\n")
        for r in flat:
            stream.write(",".join(str(r.get(k, "")) for k in keys) + "\n")
    else:
        _emit_text(data, stream)


def _flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _emit_text(data, stream):
    if isinstance(data, list):
        for row in data:
            status = "PASS" if row.get("ok") else "FAIL"
            stream.write(f"[{status}] {row.get('suite','')}: {row.get('label','')}"
                         f" expected={row.get('expected')} got={row.get('got')}"
                         f" ({row.get('note','')})\n")
        return
    for k, v in data.items():
        stream.write(f"{k}: {v}\n")


def cmd_compute(args):
    t0 = time.perf_counter()
    g = _load_graph(args.graph)
    n = args.n
    dims = _parse_dims(args.dims)
    try:
        if args.model == "abrams":
            sg = subdivide_for(g, n)
            og = order_vertices(sg)
            cx = build_abrams(og, n, max_cells=args.max_cells)
        else:
            reduce_vertices = "all" if args.reduce else None
            cx = build_swiatkowski(g, n, reduce_vertices=reduce_vertices,
                                   max_cells=args.max_cells)
        if args.time_budget and time.perf_counter() - t0 > args.time_budget:
            raise ResourceLimitExceeded("time budget exhausted after build")
        h = homology(cx, dims=dims, reduce=args.reduce)
    except ResourceLimitExceeded as exc:
        _emit({"aborted": str(exc), "graph": args.graph, "n": n}, args.format)
        return 2
    out = h.to_json_dict()
    out.update({
        "graph": args.graph,
        "model": args.model,
        "n": n,
        "cells": list(h.cells),
        "reduced_cells": list(h.reduced_cells),
        "euler": h.euler,
        "elapsed_ms": round(h.elapsed_ms, 3),
    })
    morse = cx.morse_complex() if args.reduce else None
    if morse is not None:
        # read off the flow that homology() built: its memo holds the
        # critical cells and the lower cells it expanded
        memo = morse[1].memo
        out["critical_cells"] = morse[0].meta["critical_cells"]
        if "search" in morse[0].meta:  # (kind, root) per component
            out["search"] = morse[0].meta["search"]
        out["flow_memo"] = len(memo)
        out["flow_empty"] = sum(not flow for flow in memo.values())
    _emit(out, args.format)
    return 0


def cmd_predict(args):
    p = predict(args.family, args.n, args.d)
    out = {"dims": {str(args.d): {"betti": p.value, "torsion": []}},
           "family": p.family, "n": p.n,
           "provenance": p.provenance,
           "in_range": p.in_range}
    _emit(out, args.format)
    return 0 if p.in_range else 3


def cmd_verify(args):
    rows = run_suite(args.suite)
    data = [r.as_dict() for r in rows]
    _emit(data, args.format)
    failed = [r for r in rows if not r.ok]
    if failed:
        sys.stderr.write(f"{len(failed)} of {len(rows)} rows failed\n")
    return min(len(failed), 120)


def cmd_cycles(args):
    if args.relation:
        names = RELATIONS if args.relation == "all" else [args.relation]
        rows = []
        ok_all = True
        for name in names:
            rep = verify_chain_identity(name)
            ok_all = ok_all and rep.holds
            rows.append({"suite": "relations", "label": name,
                         "expected": "holds", "got": rep.level,
                         "ok": rep.holds, "note": "; ".join(rep.details)})
        _emit(rows, args.format)
        return 0 if ok_all else 1
    for flag, value in (("--graph", args.graph), ("-n", args.n),
                        ("--spec", args.spec)):
        if value is None:
            raise ValueError(f"cycles needs {flag} when no --relation is given")
    g = _load_graph(args.graph)
    spec = CycleSpec.from_json(args.spec)
    if args.model == "abrams":
        cx = build_abrams(order_vertices(subdivide_for(g, args.n)), args.n)
    else:
        cx = build_swiatkowski(g, args.n)
    chain = make_cycle(cx, spec)
    _emit({"cells": len(chain.data), "dim": chain.dim,
           "boundary_zero": not chain.boundary(),
           "chain": chain.describe()}, args.format)
    return 0


def cmd_dump_complex(args):
    g = _load_graph(args.graph)
    if args.model == "abrams":
        cx = build_abrams(order_vertices(subdivide_for(g, args.n)), args.n,
                          max_cells=args.max_cells)
    else:
        cx = build_swiatkowski(g, args.n, max_cells=args.max_cells)
    data = cx.to_json_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
    else:
        json.dump(data, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="confhom",
        description="Exact homology of graph configuration spaces")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=True,
                       help="family DSL (wheel:5, theta:4, ...) or JSON path")
        p.add_argument("--model", choices=("abrams", "swiatkowski"),
                       default="swiatkowski")
        p.add_argument("-n", type=int, required=True, help="particle count")
        p.add_argument("--max-cells", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")

    p = sub.add_parser("compute", help="Betti numbers and torsion")
    common(p)
    p.add_argument("--dims", default=None, help="single dim or lo-hi range")
    p.add_argument("--no-reduce", dest="reduce", action="store_false")
    p.add_argument("--time-budget", type=float, default=None,
                   help="soft limit in seconds")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("predict", help="closed-form Betti prediction")
    p.add_argument("family")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cycles", help="relation checks / cycle construction")
    p.add_argument("--relation", default=None,
                   help=", ".join(RELATIONS) + ", or all")
    p.add_argument("--graph", default=None)
    p.add_argument("--model", choices=("abrams", "swiatkowski"),
                   default="swiatkowski")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--spec", default=None, help="cycle spec as JSON")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(fn=cmd_cycles)

    p = sub.add_parser("dump-complex", help="dump cells and boundary triplets")
    common(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_dump_complex)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 64


if __name__ == "__main__":
    sys.exit(main())
