"""Cube-model complex: reference cell counts, the alternating boundary
formula, subdivision guards, an independent rational-rank oracle for the
two-particle complete-graph space, and the Farley-Sabalka matching by
brute force and against the generic reduction."""

import hashlib
import itertools
import time
from fractions import Fraction

import pytest

from confhom import abrams, tables
from confhom.abrams import (AbramsEncoding, CubeMatching, abrams_boundary,
                            build_abrams, cell)
from confhom.complexes import BoundaryError, ResourceLimitExceeded
from confhom.critical import MorseFlow
from confhom.formulas import betti_K4
from confhom.graph import (Graph, GraphError, InsufficientSubdivision,
                           build_family, order_vertices, subdivide_for)
from confhom.homology import (EngineError, class_span_rank, homology,
                              homology_generators)
from confhom.swiatkowski import build_swiatkowski


def ordered(fam_or_graph, n=None, root=None):
    g = fam_or_graph if isinstance(fam_or_graph, Graph) else build_family(fam_or_graph)
    if n is not None:
        g = subdivide_for(g, n)
    return order_vertices(g, root)


class TestCells:
    def test_d2_y_is_a_hexagon(self):
        cx = build_abrams(ordered("star:3", root="l0"), 2)
        assert cx.dims == [6, 6]
        # a single closed circuit: every vertex cell meets exactly two edges
        rows, cols, vals = cx.boundary_triplets(1)
        meet = {}
        for r in rows:
            meet[r] = meet.get(r, 0) + 1
        assert all(v == 2 for v in meet.values())
        assert set(vals) == {1, -1}

    def test_single_edge_one_particle(self):
        g = Graph(["a", "b"], [("e", "a", "b")])
        cx = build_abrams(order_vertices(g, "a"), 1)
        assert cx.dims == [2, 1]
        assert homology(cx).betti_vector() == (1, 0)

    @pytest.mark.parametrize("fam,b1", [("k4", 3), ("wheel:5", 4)])
    def test_one_particle_space_is_the_graph(self, fam, b1):
        g = build_family(fam)
        cx = build_abrams(order_vertices(g), 1)
        h = homology(cx)
        assert h.betti_vector() == (1, b1)
        assert b1 == g.first_betti()

    def test_dimension_bound(self):
        cx = build_abrams(ordered("k4", n=2), 2)
        assert cx.top_dim <= 2


class TestBoundaryFormula:
    def test_one_cell(self):
        og = order_vertices(build_family("lasso"), "v1")
        faces = dict(abrams_boundary([(2, 3), 1], og))
        assert faces == {frozenset({2, 1}): 1, frozenset({3, 1}): -1}

    def test_two_cell_signs(self):
        og = order_vertices(build_family("lasso"), "v1")
        faces = dict(abrams_boundary([(1, 2), (3, 4)], og))
        # first edge contributes with sign -1, second with +1
        assert faces[frozenset({2, (3, 4)})] == -1
        assert faces[frozenset({1, (3, 4)})] == 1
        assert faces[frozenset({(1, 2), 4})] == 1
        assert faces[frozenset({(1, 2), 3})] == -1

    def test_boundary_squared_subdivided_k4(self):
        cx = build_abrams(ordered("k4", n=2), 2)
        cx.check_boundary_squared()


class TestGuards:
    def test_insufficient_subdivision(self):
        with pytest.raises(InsufficientSubdivision) as err:
            build_abrams(order_vertices(build_family("k4")), 3)
        assert "loop" in str(err.value) or "path" in str(err.value)

    def test_multigraph_rejected(self):
        with pytest.raises(GraphError):
            order_vertices(build_family("theta:3"))

    def test_max_cells_and_the_listing_order(self):
        # the cells come in the order of their sorted items (the digest was
        # taken when the builder still recursed); one over the limit is
        # refused, naming the count, and the count itself builds
        og = ordered("k4", 3)
        cx = build_abrams(og, 3, max_cells=816)
        assert cx.dims == [120, 336, 288, 72]
        assert hashlib.sha256(repr(cx.cells).encode()).hexdigest()[:16] == (
            "49ba868f4d2760a5")
        with pytest.raises(
                ResourceLimitExceeded,
                match=r"complex has 816 cells, over max_cells=815$"):
            build_abrams(og, 3, max_cells=815)

    def test_max_cells_refuses_before_listing(self):
        og = ordered("k4", 5)
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitExceeded,
                           match=r"complex has 592476 cells, over "
                                 r"max_cells=592475$"):
            build_abrams(og, 5, max_cells=592475)
        assert time.perf_counter() - t0 < 0.1

    def test_a_listing_that_differs_from_the_count_raises(self, monkeypatch):
        og = ordered("k4", 3)
        real = abrams._cell_counts
        monkeypatch.setattr(abrams, "_cell_counts",
                            lambda enc, n: [x + 1 for x in real(enc, n)])
        cx = build_abrams(og, 3)
        with pytest.raises(EngineError, match="counted"):
            cx.cells


def rational_rank(rows, ncols, triplets):
    """Plain Gaussian elimination over fractions; independent of the engine."""
    mat = {}
    for r, c, v in zip(*triplets):
        mat.setdefault(c, {})[r] = mat.setdefault(c, {}).get(r, 0) + v
    cols = [dict((r, Fraction(v)) for r, v in col.items() if v)
            for col in mat.values()]
    rank = 0
    pivots = []  # (row, column dict)
    for col in cols:
        col = dict(col)
        for prow, pcol in pivots:
            if prow in col:
                factor = col[prow] / pcol[prow]
                for r, v in pcol.items():
                    col[r] = col.get(r, Fraction(0)) - factor * v
                    if not col[r]:
                        del col[r]
        if col:
            prow = min(col)
            pivots.append((prow, col))
            rank += 1
    return rank


class TestK4TwoParticles:
    def test_betti_via_independent_rank_oracle(self):
        cx = build_abrams(order_vertices(build_family("k4")), 2)
        assert cx.dims == [6, 12, 3]
        r1 = rational_rank(cx.dims[0], cx.dims[1], cx.boundary_triplets(1))
        r2 = rational_rank(cx.dims[1], cx.dims[2], cx.boundary_triplets(2))
        oracle = (cx.dims[0] - r1, cx.dims[1] - r1 - r2, cx.dims[2] - r2)
        assert oracle == (1, 4, 0)
        assert homology(cx).betti_vector() == oracle


class TestOrderingInvariance:
    @pytest.mark.parametrize("fam,n", [("lasso", 2), ("k4", 2)])
    def test_homology_independent_of_root(self, fam, n):
        g = subdivide_for(build_family(fam), n)
        roots = [v for v in g.vertices][:4]
        results = []
        for root in roots:
            if g.degree(root) > 2 and not any(
                    g.degree(v) <= 2 for v in [root]):
                pass
            og = order_vertices(g, root)
            h = homology(build_abrams(og, n))
            results.append(tuple((h.betti(d), h.torsion(d)) for d in h.dims))
        assert len(set(results)) == 1


class TestCrossModel:
    @pytest.mark.parametrize("fam,n", [("star:3", 2), ("star:3", 3),
                                       ("theta:3", 2), ("k4", 2), ("k4", 3)])
    def test_models_agree(self, fam, n):
        g = build_family(fam)
        ha = homology(build_abrams(order_vertices(subdivide_for(g, n)), n))
        hs = homology(build_swiatkowski(g, n))
        top = max(max(ha.dims), max(hs.dims))
        for d in range(top + 1):
            assert ha.betti(d) == hs.betti(d), f"dim {d}"
            assert ha.torsion(d) == hs.torsion(d), f"dim {d}"


class TestCellHelper:
    def test_disjointness_enforced(self):
        cx = build_abrams(order_vertices(build_family("lasso"), "v1"), 2)
        with pytest.raises(GraphError):
            cell(cx, [(2, 3), 2])  # vertex on the chosen edge
        with pytest.raises(GraphError):
            cell(cx, [(2, 3), (3, 4)])  # edges sharing an endpoint

    def test_every_disjoint_item_set_is_a_cell(self):
        # the keys `AbramsEncoding.encode` accepts are exactly the cells
        g = subdivide_for(build_family("k4"), 3)
        cx = build_abrams(order_vertices(g), 3)
        enc = cx.encoding
        items = list(g.vertices) + [e[0] for e in g.edges]
        accepted = set()
        for triple in itertools.combinations(items, 3):
            try:
                accepted.add(enc.encode(triple))
            except GraphError:
                pass
        assert accepted == {key for keys in cx.cells for key in keys}


# the brute-force inputs of the matching: every cross-model row and more
MATCHING_ROWS = tables.CROSS_MODEL_SET + [
    ("k33", 3), ("wheel:5", 3), ("petersen:10", 2), ("lasso", 2),
    ("lasso", 3), ("net:4", 3), ("linear_tree:3", 3)]


def _roots(g):
    """The default root (None) and explicit ones: the first and the last
    vertex of the highest degree, and the last vertex of degree <= 2."""
    top = max(map(g.degree, g.vertices))
    hubs = [v for v in g.vertices if g.degree(v) == top]
    low = [v for v in g.vertices if g.degree(v) <= 2]
    return list(dict.fromkeys([None, hubs[0], hubs[-1]] + low[-1:]))


def _matchings(fam, n):
    g = subdivide_for(build_family(fam), n)
    return [(root, build_abrams(order_vertices(g, root), n))
            for root in _roots(g)]


def _acyclic(m, cells):
    """True when the gradient graph has no cycle, by a full depth-first
    search: each lower cell a leads to every face but a of its partner
    that is itself a lower cell."""
    enc = m.enc
    step = {}
    for key in cells:
        got = m.classify(key)
        if got is not None and got[2]:
            step[key] = [f for f, _ in enc.cell_faces(got[0]) if f != key]
    state = {}  # 1 on the search's path, 2 done
    for start in step:
        if start in state:
            continue
        state[start] = 1
        stack = [(start, iter(step[start]))]
        while stack:
            key, todo = stack[-1]
            for f in todo:
                if f not in step:
                    continue
                if state.get(f) == 1:
                    return False
                if f not in state:
                    state[f] = 1
                    stack.append((f, iter(step[f])))
                    break
            else:
                state[key] = 2
                stack.pop()
    return True


def _nonzero(h):
    return {d: (b, t) for d, (b, t) in h.dims.items() if b or t}


def _reference_flow(m):
    """The flow of m read off the definition, recursively: every face of a
    lower cell's partner, no compiled step and no walk."""
    memo = {}

    def flow(key):
        if key not in memo:
            got = m.classify(key)
            acc = {key: 1} if got is None else {}
            if got is not None and got[2]:
                partner, eps, _ = got
                for f, w in m.enc.cell_faces(partner):
                    if f != key:
                        for g, x in flow(f).items():
                            acc[g] = acc.get(g, 0) - eps * w * x
            memo[key] = {g: x for g, x in acc.items() if x}
        return memo[key]
    return flow


class TestMatching:
    @pytest.mark.parametrize("fam,n", MATCHING_ROWS)
    def test_matching_against_brute_force(self, fam, n):
        for root, cx in _matchings(fam, n):
            enc = cx.encoding
            m = CubeMatching(enc)
            every = [key for dim in cx.cells for key in dim]
            critical = set()
            for key in every:
                got = m.classify(key)
                if got is None:
                    critical.add(key)
                    continue
                partner, coeff, lower = got
                # an involution with a unit coefficient, upper above lower
                assert m.classify(partner) == (key, coeff, not lower), root
                upper, low = (partner, key) if lower else (key, partner)
                assert dict(enc.cell_faces(upper))[low] == coeff in (1, -1)
            listed = m.critical_cells()
            assert sorted(critical) == sorted(itertools.chain(*listed)), root
            assert all(dim == sorted(dim) for dim in listed)
            assert _acyclic(m, every), root

    @pytest.mark.parametrize("fam,n", MATCHING_ROWS)
    def test_flow_equals_the_reference_flow(self, fam, n):
        # the flow both models share, on every cell of the cube complex
        for root, cx in _matchings(fam, n):
            m = CubeMatching(cx.encoding)
            flow = MorseFlow(m, m.critical_cells())
            reference = _reference_flow(m)
            for dim in cx.cells:
                for key in dim:
                    assert flow.cell(key) == reference(key), root

    @pytest.mark.parametrize("fam,n", MATCHING_ROWS)
    def test_homology_agrees_with_the_generic_reduction(self, fam, n):
        for root, cx in _matchings(fam, n):
            h = homology(cx)
            assert callable(cx._cells) and cx._reduction is None
            mcx = cx.morse_complex()[0]
            assert mcx.meta["critical_cells"] == mcx.dims
            generic = build_abrams(cx.encoding.og, n)
            generic._morse_complex = None
            g = homology(generic)
            assert _nonzero(h) == _nonzero(g), root
            assert (h.euler == g.euler == cx.euler_characteristic()
                    == mcx.euler_characteristic())
            assert generic._reduction is not None

    @pytest.mark.parametrize("fam,n,d", [("k4", 3, 1), ("k4", 3, 2),
                                         ("lasso", 3, 1)])
    def test_class_ranks_read_the_morse_complex(self, fam, n, d):
        # generators from the generic reduction, ranked through the flow
        cx = build_abrams(ordered(fam, n), n)
        gens = homology_generators(cx, d)
        assert cx.morse_complex() is not None
        assert class_span_rank(cx, gens, d) == homology(cx).betti(d) > 0
        assert class_span_rank(cx, gens[1:], d) == len(gens) - 1

    def test_homology_lists_no_cell(self):
        cx = build_abrams(ordered("k4", 4), 4)
        assert homology(cx).betti_vector() == (1, 4, 9, 0, 0)
        assert callable(cx._cells) and callable(cx._boundaries)
        assert cx._reduction is None and not cx._checked
        assert cx.morse_complex()[0]._checked

    def test_a_flipped_face_sign_is_caught(self, monkeypatch):
        # the first 2-cell table the matching reads has one sign flipped
        real = AbramsEncoding.cell_faces
        flipped = []

        def cell_faces(self, key):
            faces = real(self, key)
            if len(faces) == 4 and flipped in ([], [key]):
                flipped[:] = [key]
                (face, w), *rest = faces
                faces = [(face, -w), *rest]
            return faces
        cx = build_abrams(ordered("k4", 3), 3)
        monkeypatch.setattr(AbramsEncoding, "cell_faces", cell_faces)
        with pytest.raises(BoundaryError) as info:
            homology(cx)
        assert str(info.value) == (
            "dd != 0 at dimension 2, edge part "
            f"{cx.encoding.describe(flipped[0])}")
        assert cx._morse is None and cx._reduction is None

    def test_a_dropped_critical_cell_breaks_the_euler_check(self,
                                                            monkeypatch):
        real = CubeMatching.critical_cells

        def lose_one(m):
            cells = real(m)
            cells[1].pop()
            return cells
        monkeypatch.setattr(CubeMatching, "critical_cells", lose_one)
        with pytest.raises(EngineError, match="Euler characteristic"):
            homology(build_abrams(ordered("k4", 3), 3))

    def test_a_flipped_sign_in_the_triplets_is_read_off_the_morse_path(self):
        # the flow reads no triplet: the generic path's readers meet the
        # flipped sign, and the Morse path's answer does not change
        cx = build_abrams(ordered("k4", 3), 3)
        vals = cx.boundary_triplets(2)[2]
        vals[len(vals) // 2] *= -1
        with pytest.raises(BoundaryError, match="dimension"):
            homology(cx, reduce=False)
        assert homology(cx).betti_vector() == (1, 4, 3, 0)


# cube against half-edge beyond CROSS_MODEL_SET, which the benchmark reads
CROSS_MODEL_ROWS = [("k4", 5), ("k33", 4), ("wheel:5", 4)]


class TestCrossModelMorse:
    @pytest.mark.parametrize("fam,n", CROSS_MODEL_ROWS)
    def test_models_agree(self, fam, n):
        g = build_family(fam)
        cx = build_abrams(order_vertices(subdivide_for(g, n)), n)
        ha = homology(cx)
        hs = homology(build_swiatkowski(g, n))
        assert _nonzero(ha) == _nonzero(hs)
        assert callable(cx._cells) and cx._reduction is None

    @pytest.mark.extended
    def test_k4_six_particles_against_the_formula(self):
        cx = build_abrams(ordered("k4", 6), 6)
        h = homology(cx)  # 15.4M cells, whose Euler characteristic it checks
        assert [h.betti(d) for d in range(2, 5)] == [
            betti_K4(6, d) for d in range(2, 5)]
        assert not any(h.torsion(d) for d in h.dims)
