"""The algebraic Morse complex of all-reduced half-edge complexes: the
matching rule against brute force, the basis change, the flow's cycle
check, and homology and class ranks against the generic reduction."""

import itertools
import os
import tracemalloc

import pytest

from confhom import complexes, tables
from confhom.complexes import BoundaryError
from confhom.critical import (MorseFlow, MorseMatching, _spread,
                              search_references)
from confhom.graph import Graph, build_family
from confhom.homology import EngineError, homology, morse_reduce
from confhom.swiatkowski import SwEncoding, build_swiatkowski

TWO_TRIANGLES = Graph(list("abcdef"), [
    ("x1", "a", "b"), ("x2", "b", "c"), ("x3", "c", "a"),
    ("y1", "d", "e"), ("y2", "e", "f"), ("y3", "f", "d")])
MULTIGRAPH = Graph(list("abcd"), [
    ("p", "a", "b"), ("q", "a", "b"), ("r", "b", "c"), ("s", "c", "a"),
    ("t", "a", "c"), ("u", "c", "d")])


def _graph(fam):
    return {"2tri": TWO_TRIANGLES, "multi": MULTIGRAPH}.get(fam) or \
        build_family(fam)


def _encoding(g, n):
    return SwEncoding(g, n, [v for v in g.vertices if g.degree(v) >= 2])


def _every_y_cell(m):
    """Every y key of the matching's complex, by brute force."""
    out = []
    codes = [range(len(units)) for _, _, units, _ in m.faces_data]
    for states in itertools.product(*codes):
        k = sum(1 for c in states if c)
        if k > m.n:
            continue
        pack = sum(c << shift for c, (shift, _, _, _)
                   in zip(states, m.faces_data))
        out += [pack + p for p in _spread(m.unit, m.n - k)]
    return out


def _nonzero(h):
    return {d: (b, t) for d, (b, t) in h.dims.items() if b or t}


BRUTE = [("k33", 4), ("wheel:5", 4), ("k4", 4), ("theta:4", 3), ("net:4", 3),
         ("petersen:10", 3), ("2tri", 3), ("multi", 3), ("k4", 0),
         ("lasso", 2), ("linear_tree:3", 3)]


class TestRule:
    @pytest.mark.parametrize("fam,n", BRUTE)
    def test_matching_against_brute_force(self, fam, n):
        m = MorseMatching(_encoding(_graph(fam), n))
        every = _every_y_cell(m)
        critical = set()
        for key in every:
            got = m.classify(key)
            if got is None:
                critical.add(key)
                continue
            partner, coeff, lower = got
            # an involution with a unit coefficient, upper above lower
            assert m.classify(partner) == (key, coeff, not lower)
            upper, low = (partner, key) if lower else (key, partner)
            assert dict(m.faces(upper))[low] == coeff in (1, -1)
        listed = m.critical_cells()
        assert sorted(critical) == sorted(itertools.chain(*listed))
        assert all(dim == sorted(dim) for dim in listed)
        # every cell flows without meeting a cycle of gradient paths
        flow = MorseFlow(m, listed)
        for key in every:
            flow.cell(key)

    @pytest.mark.parametrize("fam,n", BRUTE)
    def test_basis_change_is_a_chain_map(self, fam, n):
        g = _graph(fam)
        cx = build_swiatkowski(g, n, reduce_vertices="all")
        m = MorseMatching(cx.meta["encoding"])

        def phi(terms):
            acc = {}
            for key, coeff in terms:
                for y, x in m.from_builder(key):
                    acc[y] = acc.get(y, 0) + coeff * x
            return {y: x for y, x in acc.items() if x}

        def d(chain):
            acc = {}
            for y, x in chain.items():
                for f, w in m.faces(y):
                    acc[f] = acc.get(f, 0) + x * w
            return {f: x for f, x in acc.items() if x}

        for dim in range(1, cx.top_dim + 1):
            for key in cx.cells[dim]:
                assert phi(cx.cell_faces(dim, key)) == d(phi([(key, 1)]))

    def test_references_are_parent_edges(self):
        g = build_family("wheel:5")
        order, refs = search_references(g)
        hub = max(g.vertices, key=g.degree)
        assert order[0] == hub and refs[hub] == 0
        for v in order[1:]:
            eidx, _ = g.half_edges(v)[refs[v]]
            assert g.other_end(eidx, v) in order[:order.index(v)]

    def test_a_cycle_of_gradient_paths_raises(self):
        # references running round a triangle match every cell, and the
        # gradient paths from an edge go round it
        g = Graph(list("abc"), [("ab", "a", "b"), ("bc", "b", "c"),
                                ("ca", "c", "a")])
        refs = {}
        for v, e in (("a", "ab"), ("b", "bc"), ("c", "ca")):
            refs[v] = [g.edges[i][0] for i, _ in g.half_edges(v)].index(e)
        m = MorseMatching(_encoding(g, 1), order=list("abc"), refs=refs)
        assert all(m.classify(key) is not None for key in _every_y_cell(m))
        flow = MorseFlow(m, m.critical_cells())
        with pytest.raises(EngineError, match="cycle"):
            flow.cell(m.unit[g.edge_index("ab")])

    @pytest.mark.parametrize("fam,n,count", [
        ("wheel:7", 7, 30226), ("k33", 8, 2558), ("k33", 7, 1227),
        ("wheel:6", 6, 3541), ("k44e", 6, 11561)])
    def test_critical_counts_are_pinned(self, fam, n, count):
        cells = MorseMatching(_encoding(build_family(fam), n)).critical_cells()
        assert sum(map(len, cells)) == count


# the core-table complexes above 260k cells (517k to 1.9M), which the
# generic reduction would take minutes over
CORE_TOO_LARGE = {("k33", 8), ("wheel:6", 7), ("wheel:7", 6), ("wheel:7", 7)}
CORE = [row for row in (
    [("k4", n) for n in tables.K4_BETTI]
    + [("k33", n) for n in tables.K33_BETTI]
    + [(f"wheel:{m}", n) for m, n in tables.WHEEL_BETTI]
    + [("k5", n) for n in tables.K5_BETTI if n <= 5]
    + [(fam, 4) for fam in tables.PETERSEN_N4_CORE])
    if row not in CORE_TOO_LARGE]


def _without_morse(cx):
    """cx made to take the generic path: no Morse complex, cached or to
    come."""
    cx._morse_complex = cx._morse = None
    return cx


class TestTwoPaths:
    @pytest.mark.parametrize("fam,n", CORE + [c for c in BRUTE
                                              if c not in CORE])
    def test_homology_agrees_with_the_generic_reduction(self, fam, n):
        cx = build_swiatkowski(_graph(fam), n, reduce_vertices="all")
        h = homology(cx, check=False)
        mcx = cx.morse_complex()[0]
        assert h.reduced_cells == morse_reduce(mcx)[0].dims
        mcx.check_boundary_squared()
        generic = homology(_without_morse(cx), check=False)
        assert _nonzero(h) == _nonzero(generic)
        assert h.euler == generic.euler == cx.euler_characteristic()

    def test_span_rank_agrees_on_the_subdivided_k33(self):
        # the 69 dressed products of test_transport_replays_the_cached_trail
        from confhom import verify as V
        from confhom.cycles import _spec_support, product_cycle, span_rank
        g = build_family("k33")
        sub = V._subdivide_edges(g, {e[0] for e in g.edges})
        ys, os_ = V._k33_parts(g, sub)
        part_lists = [[ys[u], ys[v]] for u, v in itertools.combinations(ys, 2)]
        for o in os_.values():
            for v in ys:
                es, vs = _spec_support(sub, o)
                es2, vs2 = _spec_support(sub, ys[v])
                if not (es & es2) and not (vs & vs2):
                    part_lists.append([o, ys[v]])
        ranks = []
        for cx in (build_swiatkowski(sub, 4, reduce_vertices="all"),
                   _without_morse(build_swiatkowski(sub, 4,
                                                    reduce_vertices="all"))):
            cycles = []
            for parts in part_lists:
                used_e, used_v = set(), set()
                for p in parts:
                    es, vs = _spec_support(sub, p)
                    used_e |= es
                    used_v |= vs
                free = 4 - sum({"O": 1, "Y": 2}[p.kind] for p in parts)
                for dist in V._distributions(free,
                                             V._regions(sub, used_e, used_v)):
                    cycles.append(product_cycle(cx, parts,
                                                dressing={"edges": dist}))
            assert len(cycles) == 69
            ranks.append(span_rank(cx, cycles, 2))
            # fewer cycles span less, by the same amount on both paths
            ranks.append(span_rank(cx, cycles[::3], 2))
        assert ranks[:2] == ranks[2:] and ranks[0] == 19 > ranks[1]
        assert cx._reduction is not None  # the generic path's trail

    @pytest.mark.parametrize("build", [
        lambda g: build_swiatkowski(g, 3, reduce_vertices="all", max_dim=1),
        lambda g: build_swiatkowski(g, 3, reduce_vertices="essential"),
        lambda g: build_swiatkowski(g, 3)],
        ids=["truncated", "partly-reduced", "canonical"])
    def test_other_complexes_take_the_generic_path(self, monkeypatch, build):
        import importlib
        hom = importlib.import_module("confhom.homology")
        calls = []
        real = hom._reduce
        monkeypatch.setattr(hom, "_reduce",
                            lambda cx: calls.append(cx) or real(cx))
        cx = build(build_family("lasso"))
        assert cx.morse_complex() is None
        homology(cx)
        assert calls == [cx]

    def test_all_reduced_complexes_reduce_only_the_morse_complex(
            self, monkeypatch):
        import importlib
        hom = importlib.import_module("confhom.homology")
        calls = []
        real = hom._reduce
        monkeypatch.setattr(hom, "_reduce",
                            lambda cx: calls.append(cx) or real(cx))
        cx = build_swiatkowski(build_family("k33"), 4, reduce_vertices="all")
        assert homology(cx).betti_vector() == (1, 4, 19, 1, 0)
        assert calls == [cx.morse_complex()[0]] and cx._reduction is None

    @pytest.mark.parametrize("where", ["in-process", "worker"])
    def test_flipped_sign_drops_both_caches(self, monkeypatch, where):
        if where == "worker":
            monkeypatch.setattr(complexes, "PARALLEL_CHECK_ENTRIES", 0)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                                raising=False)
        else:
            monkeypatch.setattr(complexes, "PARALLEL_CHECK_ENTRIES", 10 ** 18)
        cx = build_swiatkowski(build_family("k33"), 5, reduce_vertices="all")
        morse_reduce(cx)
        assert cx.morse_complex() is not None
        vals = cx.boundary_triplets(3)[2]
        vals[len(vals) // 2] *= -1
        with pytest.raises(BoundaryError, match="dimension 3"):
            homology(cx)
        assert cx._morse is None and cx._reduction is None

    def test_peak_memory_of_homology(self):
        # k33 n=5 all-reduced: the Morse path never loads the 26,679 cells
        # into per-cell containers, which the generic reduction does at
        # about 15 MB under tracemalloc
        cx = build_swiatkowski(build_family("k33"), 5, reduce_vertices="all")
        assert cx.n_cells() == 26679
        tracemalloc.start()
        try:
            h = homology(cx, check=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.betti_vector() == (1, 4, 28, 10, 0, 0)
        assert peak < 5_000_000
