"""Cube-model complex: reference cell counts, the alternating boundary
formula, subdivision guards, and an independent rational-rank oracle for
the two-particle complete-graph space."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from confhom.abrams import abrams_boundary, build_abrams, cell
from confhom.complexes import ResourceLimitExceeded
from confhom.graph import (Graph, GraphError, InsufficientSubdivision,
                           build_family, order_vertices, subdivide_for)
from confhom.homology import homology
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
        # refused, and the count itself builds
        og = ordered("k4", 3)
        cx = build_abrams(og, 3, max_cells=816)
        assert cx.dims == [120, 336, 288, 72]
        assert hashlib.sha256(repr(cx.cells).encode()).hexdigest()[:16] == (
            "49ba868f4d2760a5")
        with pytest.raises(ResourceLimitExceeded,
                           match=r"cell count exceeded max_cells=815$"):
            build_abrams(og, 3, max_cells=815)


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
