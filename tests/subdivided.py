"""Product cycles on once-subdivided graphs, for the tests that compare them
with the products on the graph itself.

Each edge e of a graph gets a midpoint "e.m" and splits into "e:0", from
its first end, and "e:1".  Merging the two halves again is the chain map
that carries these products to the graph's own complex.  A part of the
graph lifts to the split graph: a junction keeps the halves at its hub, a
circle runs through both halves of each edge.  Here every carrier edge,
branch halves included, leaves the dressing regions.
"""

import itertools

from confhom import verify as V
from confhom.cycles import (CycleSpec, _cycle_route, _spec_particles,
                            _spec_support, product_cycle)
from confhom.graph import Graph, build_family


def split_edges(g):
    vertices = list(g.vertices)
    edges = []
    for eid, u, v in g.edges:
        mid = f"{eid}.m"
        vertices.append(mid)
        edges += [(f"{eid}:0", u, mid), (f"{eid}:1", mid, v)]
    return Graph(vertices, edges, name=f"{g.name}+mid")


def _half_at(g, eid, v):
    return f"{eid}:{0 if g.endpoints(eid)[0] == v else 1}"


def lift(g, spec):
    """The junction or circle `spec` of g as a part of split_edges(g)."""
    if spec.kind == "Y":
        return CycleSpec(kind="Y", hub=spec.hub, branches=tuple(
            _half_at(g, e, spec.hub) for e in spec.branches))
    route = _cycle_route(g, list(spec.cycle))
    return CycleSpec(kind="O", cycle=tuple(
        _half_at(g, e, v) for e, u, w in zip(spec.cycle, route, route[1:])
        for v in (u, w)))


def dressed_products(cx, g, part_lists):
    """The products of the lifted part lists in cx, a complex of
    split_edges(g), each dressed once per distribution of the free
    particles over the regions."""
    sub = cx.encoding.graph
    cycles = []
    for parts in part_lists:
        parts = [lift(g, p) for p in parts]
        used_e, used_v = set(), set()
        for p in parts:
            es, vs = _spec_support(sub, p)
            used_e |= es
            used_v |= vs
        free = cx.encoding.n - sum(map(_spec_particles, parts))
        for dist in V._distributions(free, V._regions(sub, used_e, used_v)):
            cycles.append(product_cycle(cx, parts, dressing={"edges": dist}))
    return cycles


def k33_products(cx):
    """The 69 dressed products of two parts in cx, the half-edge complex of
    once-subdivided K33 at n=4: every pair of junctions, then each square
    with each junction off it."""
    g = build_family("k33")
    parts = V._k33_parts(g)
    ys = [p for p in parts if p.kind == "Y"]
    squares = [p for p in parts if p.kind == "O"]
    pairs = [list(pair) for pair in itertools.combinations(ys, 2)]
    pairs += [[o, y] for o in squares for y in ys
              if y.hub not in _spec_support(g, o)[1]]
    return dressed_products(cx, g, pairs)
