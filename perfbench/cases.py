"""The benchmark's three workloads: fixed input lists, the seeded shuffle,
the timed calls into confhom's public functions, and the exact reference
that every result must equal.

Each workload is a closed loop with one caller: a case starts only after
the previous case has returned and been checked.  The seed changes only the
order of the cases and the order in which each input graph lists its
vertices and edges; homology does not depend on either, so the references
hold for every seed.

References come from `confhom.tables`, from the closed forms in
`confhom.formulas`, from agreement between the two models, from span = beta_d,
and for H_1 of 3-connected graphs from Ko and Park, "Characteristics of
graph braid groups" (Discrete Comput. Geom. 48, 2012): for n >= 2 particles,
H_1 is Z^(b_1(G)+1) for a planar graph and Z^b_1(G) + Z/2 otherwise.  No
case calls `confhom.verify`, whose module-global result cache would make a
repeated case free.
"""

from __future__ import annotations

import itertools
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

from confhom import (CycleSpec, Graph, HomologyResult, SnfResult, blowup,
                     build_abrams, build_family, build_swiatkowski,
                     delta_rank_check, formulas, homology,
                     homology_generators, make_cycle, morse_reduce,
                     order_vertices, predict, product_cycle,
                     smith_normal_form, solve_boundary, span_rank,
                     subdivide_for, tables, verify_chain_identity)


@dataclass(frozen=True)
class Case:
    """One closed-loop step: `run(tracer)` makes the timed calls and
    returns a plain value that must equal `expected` exactly."""
    name: str
    run: Callable
    expected: object


def run_pass(cases, tr, log=sys.stderr):
    """Run every case once, in order; return the names of failed cases.

    A case fails when its result differs from the reference or when it
    raises, ResourceLimitExceeded included.
    """
    failures = []
    with tr.span("bench.pass"):
        for case in cases:
            with tr.span("bench.case", case.name):
                try:
                    got = case.run(tr)
                except Exception:
                    failures.append(case.name)
                    print(f"case {case.name} raised:", file=log)
                    traceback.print_exc(file=log)
                    continue
                with tr.span("bench.check"):
                    ok = got == case.expected
            if not ok:
                failures.append(case.name)
                print(f"case {case.name}: got {got!r}, expected "
                      f"{case.expected!r}", file=log)
    return failures


# -- inputs -----------------------------------------------------------------

def family(tr, name, rng):
    """A named family graph listing its vertices and edges in seeded order."""
    with tr.span("graph.build_family"):
        g = build_family(name)
    return shuffled(g, rng)


def shuffled(g, rng):
    vertices, edges = list(g.vertices), list(g.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return Graph(vertices, edges, name=g.name)


def subdivide_once(g):
    """Split every edge (eid, u, v) into eid:0 = (u, eid.m) and
    eid:1 = (eid.m, v)."""
    vertices = list(g.vertices)
    edges = []
    for eid, u, v in g.edges:
        mid = f"{eid}.m"
        vertices.append(mid)
        edges += [(f"{eid}:0", u, mid), (f"{eid}:1", mid, v)]
    return Graph(vertices, edges, name=f"{g.name}+mid")


# -- layer calls --------------------------------------------------------------
# Each helper puts one span around one call into a layer's public function
# and records that layer's counters.

def build_sw(tr, g, n, reduce_vertices=None):
    with tr.span("swiatkowski.build"):
        cx = build_swiatkowski(g, n, reduce_vertices=reduce_vertices)
    tr.count("swiatkowski.build.cells", cx.n_cells())
    return cx


def build_ab(tr, g, n):
    with tr.span("graph.subdivide"):
        og = order_vertices(subdivide_for(g, n))
    tr.count("graph.subdivide.calls")
    with tr.span("abrams.build"):
        cx = build_abrams(og, n)
    tr.count("abrams.build.cells", cx.n_cells())
    return cx


def compute_homology(tr, cx, dims=None):
    """`homology(cx, dims)` with its checks on; traced, the same work split
    at its layer boundaries."""
    if tr.enabled:
        return homology_by_layers(tr, cx, dims)
    return homology(cx, dims=dims)


def homology_by_layers(tr, cx, dims=None):
    """What `homology(cx, dims)` computes, through the calls it makes, in
    the order it makes them: the d^2 = 0 check, one Morse reduction, Smith
    normal forms of the reduced boundaries, and the Euler identity."""
    with tr.span("complexes.check"):
        cx.check_boundary_squared()
    tr.count("complexes.check.entries", sum(
        len(cx.boundary_triplets(d)[1]) for d in range(2, cx.top_dim + 1)))
    if dims is None:
        wanted = range(cx.top_dim + 1)
    elif isinstance(dims, int):
        wanted = [dims]
    else:
        wanted = range(dims[0], dims[1] + 1)
    with tr.span("homology.morse"):
        rcx = morse_reduce(cx)[0]
    stats = rcx.meta["reduction"]
    tr.count("homology.morse.pairs", stats.pairs)
    tr.count("homology.morse.protected", stats.protected)
    tr.count("homology.morse.cells_in", sum(stats.original))
    tr.count("homology.morse.cells_out", sum(stats.reduced))

    snf = {}

    def snf_of(d):
        if d not in snf:
            if d < 1 or d > rcx.top_dim:
                snf[d] = SnfResult(0, ())
            else:
                with tr.span("homology.snf"):
                    snf[d] = smith_normal_form(
                        rcx.boundary_triplets(d),
                        shape=(rcx.dims[d - 1], rcx.dims[d]))
                tr.count("homology.snf.calls")
                tr.count("homology.snf.torsion", len(snf[d].torsion))
        return snf[d]

    out = {}
    for d in wanted:
        cd = rcx.dims[d] if d <= rcx.top_dim else 0
        betti = cd - snf_of(d).rank - snf_of(d + 1).rank
        if betti < 0:
            raise ArithmeticError(f"negative Betti number at dimension {d}")
        out[d] = (betti, snf_of(d + 1).torsion)
    euler = cx.euler_characteristic()
    if dims is None and sum((-1) ** d * b for d, (b, _) in out.items()) != euler:
        raise ArithmeticError("Euler check failed")
    return HomologyResult(dims=out, cells=list(cx.dims),
                          reduced_cells=list(rcx.dims), euler=euler)


# -- references -------------------------------------------------------------

def table_row(fam, n):
    """{d: (betti, torsion)} for the `confhom.tables` row of (fam, n)."""
    if fam.startswith("petersen"):  # rows at n = 4 only
        b2, tor = tables.PETERSEN_N4_CORE[fam]
        return {2: (b2, tor)}
    if fam.startswith("wheel:"):
        row = tables.WHEEL_BETTI[(int(fam.split(":")[1]), n)]
    else:
        row = {"k4": tables.K4_BETTI, "k33": tables.K33_BETTI}[fam][n]
    return {d: (b, ()) for d, b in row.items()}


def h1_three_connected(g, planar):
    b1 = len(g.edges) - len(g.vertices) + 1
    return (b1 + 1, ()) if planar else (b1, (2,))


def full_reference(fam, g, n, planar, top):
    """Reference groups in dimensions 0..top: H_0 = Z, H_1 by Ko-Park, the
    table row, and above the row the family's closed form where it has
    one."""
    ref = {0: (1, ()), 1: h1_three_connected(g, planar)}
    ref.update(table_row(fam, n))
    if not fam.startswith("petersen"):
        row_top = max(ref)
        for d in range(row_top + 1, top + 1):
            ref[d] = (formulas.predict(fam, n, d).value, ())
    return ref


# -- workload: halfedge-compute ----------------------------------------------

# (family, n, planar): k33 n=7 has 247,707 cells, wheel:6 n=6 168,681 and
# petersen:10 n=4 56,020 with Z/2 torsion in H_1 and H_2.
HALFEDGE = (("k33", 7, False), ("wheel:6", 6, True), ("petersen:10", 4, False))


def halfedge_cases(rng, tr, specs=HALFEDGE):
    """homology() of the fully reduced half-edge complex: build, d^2 check,
    Morse reduction and SNF, one reduction per case, no cycle layer."""
    cases = []
    for fam, n, planar in specs:
        g = family(tr, fam, rng)
        # the all-reduced complex has one generator per state-carrying
        # vertex, so its top dimension is min(n, #vertices of degree >= 2)
        top = min(n, sum(1 for v in g.vertices if g.degree(v) >= 2))
        ref = full_reference(fam, g, n, planar, top)

        def run(tr, g=g, n=n, dims=tuple(ref)):
            h = compute_homology(tr, build_sw(tr, g, n, reduce_vertices="all"))
            return {d: (h.betti(d), h.torsion(d)) for d in dims}

        cases.append(Case(f"{fam} n={n}", run, ref))
    return cases


# -- workload: class-span -----------------------------------------------------

def _route(g, cycle):
    a, b = g.endpoints(cycle[0])
    route = [a if a not in g.endpoints(cycle[1]) else b]
    for eid in cycle:
        u, v = g.endpoints(eid)
        route.append(v if route[-1] == u else u)
    return route


def carrier(g, spec):
    """(edges, vertices) a circle or junction cycle occupies."""
    if spec.kind == "O":
        return set(spec.cycle), set(_route(g, spec.cycle))
    return set(spec.branches), {spec.hub}


def _regions(g, used_e, used_v):
    """One representative edge per free-particle region: edges off the
    carrier, joined only through vertices off the carrier."""
    free = [e for e in g.edges if e[0] not in used_e]
    adj = {}
    for eid, u, v in free:
        for x in (u, v):
            if x not in used_v:
                adj.setdefault(x, []).append(eid)
    rep = {}
    for eid, u, v in free:
        if eid in rep:
            continue
        comp, todo, seen = {eid}, [x for x in (u, v) if x not in used_v], set()
        while todo:
            x = todo.pop()
            if x in seen:
                continue
            seen.add(x)
            for e2 in adj[x]:
                comp.add(e2)
                _, a, b = g.edge(e2)
                todo += [y for y in (a, b) if y not in used_v]
        low = min(comp)
        for e2 in comp:
            rep[e2] = low
    return sorted(set(rep.values()))


def _distributions(total, bins):
    """Every way to put `total` particles on the bins, as {bin: count}."""
    if not bins:
        if total == 0:
            yield {}
        return
    for cut in itertools.combinations(range(total + len(bins) - 1),
                                      len(bins) - 1):
        sizes = [b - a - 1 for a, b in
                 zip((-1,) + cut, cut + (total + len(bins) - 1,))]
        yield {b: k for b, k in zip(bins, sizes) if k}


def dressed_products(g, n, part_lists):
    """(parts, edge dressing) for every product of the part lists with its
    free particles spread over the complement's regions in all ways."""
    out = []
    for parts in part_lists:
        used_e, used_v = set(), set()
        for p in parts:
            es, vs = carrier(g, p)
            used_e |= es
            used_v |= vs
        free = n - sum(1 if p.kind == "O" else 2 for p in parts)
        if free < 0:
            continue
        for dist in _distributions(free, _regions(g, used_e, used_v)):
            out.append((parts, dist))
    return out


def _disjoint(g, parts):
    supports = [carrier(g, p) for p in parts]
    return all(not (a[0] & b[0]) and not (a[1] & b[1])
               for a, b in itertools.combinations(supports, 2))


def wheel_pairs(m):
    """Support-disjoint pairs, at most one circle, from junction cycles at
    the rim and hub, the triangles and the rim circle of the subdivided
    wheel of order m."""
    r = m - 1
    rim_y = [CycleSpec(kind="Y", hub=f"r{i}",
                       branches=(f"c{(i - 1) % r}:1", f"c{i}:0", f"s{i}:1"))
             for i in range(r)]
    hub_y = [CycleSpec(kind="Y", hub="h",
                       branches=tuple(f"s{i}:0" for i in t))
             for t in itertools.combinations(range(r), 3)]
    triangles = [CycleSpec(kind="O", cycle=(
        f"s{i}:0", f"s{i}:1", f"c{i}:0", f"c{i}:1",
        f"s{(i + 1) % r}:1", f"s{(i + 1) % r}:0")) for i in range(r)]
    rim = CycleSpec(kind="O", cycle=tuple(
        f"c{i}:{k}" for i in range(r) for k in (0, 1)))
    return [list(pair) for pair in itertools.combinations(
        rim_y + hub_y + triangles + [rim], 2)
        if sum(p.kind == "O" for p in pair) <= 1]


def k33_pairs(sub):
    """Pairs of junction cycles, and each square circle with every junction
    cycle disjoint from it, in the subdivided K_{3,3}."""
    hubs = [f"a{i}" for i in range(3)] + [f"b{j}" for j in range(3)]
    ys = [CycleSpec(kind="Y", hub=v, branches=tuple(
        sorted(sub.edges[e][0] for e, _ in sub.half_edges(v)))) for v in hubs]
    squares = []
    for i, j in itertools.combinations(range(3), 2):
        for k, l in itertools.combinations(range(3), 2):
            squares.append(CycleSpec(kind="O", cycle=(
                f"e{i}{k}:0", f"e{i}{k}:1", f"e{j}{k}:1", f"e{j}{k}:0",
                f"e{j}{l}:0", f"e{j}{l}:1", f"e{i}{l}:1", f"e{i}{l}:0")))
    return ([list(p) for p in itertools.combinations(ys, 2)]
            + [[o, y] for o in squares for y in ys])


# (family, n, d, product classes)
CLASS_SPAN = (("wheel:6", 4, 2, 155), ("k33", 4, 2, 69))


def class_span_cases(rng, tr, specs=CLASS_SPAN):
    """Generation check on once-subdivided graphs: homology, every dressed
    product cycle, and span_rank, which must equal beta_d."""
    cases = []
    for fam, n, d, n_products in specs:
        with tr.span("graph.build_family"):
            g = build_family(fam)
        sub = shuffled(subdivide_once(g), rng)
        pairs = (wheel_pairs(int(fam.split(":")[1])) if fam.startswith("wheel")
                 else k33_pairs(sub))
        pairs = [p for p in pairs if _disjoint(sub, p)]
        products = dressed_products(sub, n, pairs)
        if len(products) != n_products:
            raise RuntimeError(f"{fam}: {len(products)} product classes, "
                               f"expected {n_products}")
        beta = table_row(fam, n)[d][0]

        def run(tr, sub=sub, n=n, d=d, products=products):
            cx = build_sw(tr, sub, n, reduce_vertices="all")
            h = compute_homology(tr, cx, dims=d)
            with tr.span("cycles.product_cycle"):
                cycles = [product_cycle(cx, parts, dressing={"edges": dist})
                          for parts, dist in products]
            tr.count("cycles.product_cycle.count", len(cycles))
            with tr.span("cycles.span_rank"):
                rank = span_rank(cx, cycles, d)
            tr.count("cycles.span_rank.offered", len(cycles))
            tr.count("cycles.span_rank.rank", rank)
            return h.betti(d), rank

        cases.append(Case(f"{fam}+mid n={n} span d={d}", run, (beta, beta)))
    return cases


# -- workload: small-sweep ----------------------------------------------------

def _nonzero(h):
    return {d: (b, tuple(t)) for d, (b, t) in h.dims.items() if b or t}


def _cross_model(rng, tr, fam, n):
    g = family(tr, fam, rng)

    def run(tr):
        cube = _nonzero(compute_homology(tr, build_ab(tr, g, n)))
        half = _nonzero(compute_homology(tr, build_sw(tr, g, n)))
        return cube == half

    return Case(f"{fam} n={n} cube = half-edge", run, True)


def _k2p(rng, tr, p, n):
    g = family(tr, f"theta:{p}", rng)
    vals = formulas.k2p_values(p, n)

    def run(tr):
        cx = build_sw(tr, g, n)
        h = compute_homology(tr, cx)
        return cx.euler_characteristic(), h.betti(1), h.betti(2), cx.top_dim

    return Case(f"theta:{p} n={n}", run,
                (vals["euler"], vals["beta1_chi_consistent"], vals["beta2"],
                 2))


def _closed_form(rng, tr, fam, n, ref):
    g = family(tr, fam, rng)

    def run(tr):
        cx = build_sw(tr, g, n, reduce_vertices="all")
        return _nonzero(compute_homology(tr, cx))

    return Case(f"{fam} n={n}", run,
                {d: (b, ()) for d, b in ref.items() if b})


def _formula_cases(rng, tr):
    cases = []
    for m in tables.TREE_NET_GRID["m"]:
        for n in tables.TREE_NET_GRID["n"]:
            dims = range(n + 2)
            cases.append(_closed_form(rng, tr, f"linear_tree:{m}", n, {
                d: formulas.betti_tree_linear(m, n, d) for d in dims}))
            # the sun-graph form leaves out the class of one particle
            # circulating the ring, which the engine counts in H_1
            net = {d: formulas.betti_net(m, n, d) for d in dims}
            net[1] += 1
            cases.append(_closed_form(rng, tr, f"net:{m}", n, net))
    for n in range(3, 8):
        g = build_family("k4")
        ref = {d: formulas.betti_K4(n, d) for d in range(2, n + 2)}
        ref[0], ref[1] = 1, h1_three_connected(g, planar=True)[0]
        cases.append(_closed_form(rng, tr, "k4", n, ref))
    return cases


def _relation(name):
    def run(tr):
        with tr.span("cycles.verify_chain_identity"):
            rep = verify_chain_identity(name)
        tr.count("cycles.verify_chain_identity.calls")
        return rep.holds

    return Case(f"relation {name}", run, True)


def _circle_dressing(rng, tr):
    """Two dressings of a circle class, joined by a path off the carrier,
    bound an explicit 2-chain in the cube complex."""
    g = shuffled(Graph(["v0", "v1", "v2", "v3", "v4"],
                       [("t0", "v0", "v1"), ("t1", "v1", "v2"),
                        ("a", "v2", "v3"), ("b", "v3", "v4"),
                        ("c", "v2", "v4")]), rng)

    def run(tr):
        with tr.span("graph.subdivide"):
            og = order_vertices(g, "v0")
        tr.count("graph.subdivide.calls")
        with tr.span("abrams.build"):
            cx = build_abrams(og, 2)
        tr.count("abrams.build.cells", cx.n_cells())
        with tr.span("cycles.make_cycle"):
            c1, c2 = (make_cycle(cx, CycleSpec(kind="O", cycle=("a", "b", "c"),
                                               dressing_vertices=(v,)))
                      for v in ("v0", "v1"))
        with tr.span("homology.solve_boundary"):
            filled = solve_boundary(cx, c1 - c2)
        tr.count("homology.solve_boundary.calls")
        return filled is not None and filled.boundary() == c1 - c2

    return Case("circle dressings bound", run, True)


def _delta_rank(rng, tr, fam, v, n, d, beta):
    g = family(tr, fam, rng)

    def run(tr):
        with tr.span("blowup.delta_rank_check"):
            rep = delta_rank_check(blowup(g, v), n, d)
        tr.count("blowup.delta_rank_check.calls")
        return rep.holds, rep.beta_reduced

    return Case(f"{fam} blown up at {v} n={n} d={d}", run, (True, beta))


def _generators(rng, tr, fam, n, d, beta):
    g = family(tr, fam, rng)

    def run(tr):
        cx = build_sw(tr, g, n)
        with tr.span("homology.generators"):
            gens = homology_generators(cx, d)
        tr.count("homology.generators.calls")
        return len(gens), all(z and not z.boundary() for z in gens)

    return Case(f"{fam} n={n} H_{d} generators", run, (beta, True))


def _predictions():
    rows = ([("k4", n, row) for n, row in tables.K4_BETTI.items()]
            + [("k33", n, row) for n, row in tables.K33_BETTI.items()]
            + [(f"wheel:{m}", n, row)
               for (m, n), row in tables.WHEEL_BETTI.items()])
    cases = []
    for fam, n, row in rows:
        def run(tr, fam=fam, n=n, dims=tuple(row)):
            with tr.span("formulas.predict"):
                got = tuple(predict(fam, n, d).value for d in dims)
            tr.count("formulas.predict.calls", len(dims))
            return got

        cases.append(Case(f"predict {fam} n={n}", run, tuple(row.values())))
    return cases


def small_sweep_cases(rng, tr):
    """About a hundred small cases where fixed costs per call dominate: both
    models, the unreduced basis, generators and lifting, boundary solving,
    the blowup rank check, the chain relations and the closed forms."""
    cases = [_cross_model(rng, tr, fam, n) for fam, n in tables.CROSS_MODEL_SET]
    cases += [_k2p(rng, tr, p, n) for p in tables.K2P_GRID["p"]
              for n in tables.K2P_GRID["n"]]
    cases += _formula_cases(rng, tr)
    cases += [_relation(name) for name in
              ("y-ab", "theta5", "theta3", "theta-dist", "prod-rel")]
    cases.append(_circle_dressing(rng, tr))
    cases.append(_delta_rank(rng, tr, "wheel:5", "h", 4, 2,
                             tables.WHEEL_BETTI[(5, 4)][2]))
    cases.append(_delta_rank(rng, tr, "net:4", "w", 3, 1,
                             formulas.betti_net(4, 3, 1) + 1))
    cases.append(_generators(rng, tr, "k4", 3, 2, tables.K4_BETTI[3][2]))
    cases += _predictions()
    return cases


WORKLOADS = {
    "halfedge-compute": halfedge_cases,
    "class-span": class_span_cases,
    "small-sweep": small_sweep_cases,
}


def workload_cases(name, rng, tr):
    """The workload's cases in seeded order."""
    cases = WORKLOADS[name](rng, tr)
    rng.shuffle(cases)
    return cases
