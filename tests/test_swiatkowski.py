"""Half-edge complex: cell counts against a brute-force enumeration of the
canonical basis, boundary squares to zero, reduced variants, and support."""

import hashlib
import itertools
from array import array

import pytest

from confhom.complexes import Chain, ResourceLimitExceeded
from confhom.graph import Graph, GraphError, build_family
from confhom.homology import homology
from confhom.swiatkowski import (EMPTY, OCCUPIED, build_swiatkowski, cell,
                                 support)


def brute_counts(g, n):
    """Independent canonical-basis enumeration: per stateful vertex one of
    {empty, occupied, one half-edge}, the rest of the particles on edges."""
    sites = [v for v in g.vertices if g.degree(v) >= 2]
    state_sets = []
    for v in sites:
        states = [("empty", 0, 0), ("occupied", 1, 0)]
        states += [(("h", k), 1, 1) for k in range(g.degree(v))]
        state_sets.append(states)
    counts = {}
    for combo in itertools.product(*state_sets):
        used = sum(w for _, w, _ in combo)
        d = sum(h for _, _, h in combo)
        if used > n:
            continue
        r = n - used
        # weak compositions of r over the edges
        m = len(g.edges)
        total = 0
        for cuts in itertools.combinations(range(r + m - 1), m - 1) if m else [()]:
            total += 1
        counts[d] = counts.get(d, 0) + total
    return [counts.get(d, 0) for d in range(max(counts) + 1)]


def _basis(g, reduce_vertices):
    """The reduce_vertices argument for a basis name: "essential" names the
    graph's essential vertices."""
    if reduce_vertices == "essential":
        return g.essential_vertices()
    return reduce_vertices


CORPUS = [("star:3", 2), ("star:3", 3), ("theta:3", 2), ("theta:3", 3),
          ("k4", 2), ("net:2", 2), ("lasso", 2)]


class TestCellCounts:
    def test_theta3_reference_counts(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        assert cx.dims == [13, 24, 9]

    @pytest.mark.parametrize("fam,n", CORPUS)
    def test_counts_match_bruteforce(self, fam, n):
        g = build_family(fam)
        cx = build_swiatkowski(g, n)
        assert cx.dims == brute_counts(g, n)

    def test_determinism(self):
        g = build_family("theta:4")
        a = build_swiatkowski(g, 3).to_json_dict()
        b = build_swiatkowski(g, 3).to_json_dict()
        assert a == b

    @pytest.mark.parametrize("build,digest", [
        (lambda: build_swiatkowski(build_family("k33"), 4,
                                   reduce_vertices="all"), "55949a0e49db169b"),
        (lambda: build_swiatkowski(build_family("k4"), 3), "e6423f171cbd5e66"),
        (lambda: build_swiatkowski(build_family("k4"), 3,
                                   reduce_vertices=("v0",)),
         "1b019fe314f9d8ad"),
    ], ids=["k33-n4-all", "k4-n3-canonical", "k4-n3-reduced-at-v0"])
    def test_cells_are_listed_on_first_read(self, build, digest):
        # the builder counts the dims; the keys are listed once, on first
        # read, and the digests pin their order
        cx = build()
        assert callable(cx._cells)
        cells = cx.cells
        assert cx.cells is cells and list(map(len, cells)) == cx.dims
        assert hashlib.sha256(repr(cells).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("build,digest", [
        (lambda: build_swiatkowski(build_family("k33"), 4,
                                   reduce_vertices="all"), "12e63569b1e8ce80"),
        (lambda: build_swiatkowski(build_family("k4"), 3), "8eee2cab6049a300"),
        (lambda: build_swiatkowski(build_family("k4"), 3,
                                   reduce_vertices=("v0",)),
         "85e31f9a22208825"),
    ], ids=["k33-n4-all", "k4-n3-canonical", "k4-n3-reduced-at-v0"])
    def test_triplets_are_written_on_first_read(self, build, digest):
        # every basis writes its triplets once, on first read; the digests,
        # taken when the builder wrote them as runs of columns, pin them
        cx = build()
        assert callable(cx._boundaries)
        written = cx.boundaries
        assert cx.boundaries is written and sorted(written) == list(
            range(1, cx.top_dim + 1))
        assert all(len(b) == 3 and all(isinstance(a, array) for a in b)
                   for b in written.values())
        trips = [[list(a) for a in cx.boundary_triplets(d)]
                 for d in range(1, cx.top_dim + 1)]
        assert hashlib.sha256(repr(trips).encode()).hexdigest()[:16] == digest

    def test_max_cells(self):
        with pytest.raises(ResourceLimitExceeded):
            build_swiatkowski(build_family("k4"), 4, max_cells=10)

    def test_max_cells_refuses_with_the_exact_count(self):
        # wheel:7 n=7 all-reduced has 1,894,020 cells: one over the limit
        # is refused from the closed-form count, before any cell is listed
        with pytest.raises(ResourceLimitExceeded, match="1894020"):
            build_swiatkowski(build_family("wheel:7"), 7,
                              reduce_vertices="all", max_cells=1894019)

    @pytest.mark.parametrize("fam,n,basis", [("k4", 4, None),
                                             ("k33", 3, "all"),
                                             ("lasso", 2, None)])
    def test_max_cells_at_the_count_builds(self, fam, n, basis):
        g = build_family(fam)
        total = build_swiatkowski(g, n, reduce_vertices=basis).n_cells()
        cx = build_swiatkowski(g, n, reduce_vertices=basis, max_cells=total)
        assert cx.n_cells() == total
        with pytest.raises(ResourceLimitExceeded, match=f"has {total} cells"):
            build_swiatkowski(g, n, reduce_vertices=basis,
                              max_cells=total - 1)

    @pytest.mark.parametrize("n,total", [(0, 1), (1, 0), (2, 0)])
    def test_max_cells_without_edges(self, n, total):
        # with no edge and no site, the complex has one cell for n=0 and
        # none for n >= 1, the zero rule of the edge distributions
        g = Graph(["a"], [])
        assert build_swiatkowski(g, n, max_cells=total).n_cells() == total
        if total:
            with pytest.raises(ResourceLimitExceeded):
                build_swiatkowski(g, n, max_cells=total - 1)


class TestBoundary:
    @pytest.mark.parametrize("fam,n", CORPUS)
    def test_boundary_squares_to_zero(self, fam, n):
        build_swiatkowski(build_family(fam), n).check_boundary_squared()

    @pytest.mark.parametrize("reduce_vertices", [None, "essential", "all"])
    def test_reduced_variants_square_to_zero(self, reduce_vertices):
        g = build_family("k4")
        cx = build_swiatkowski(g, 3,
                               reduce_vertices=_basis(g, reduce_vertices))
        cx.check_boundary_squared()

    def test_top_dimension_bounded_by_stateful_sites(self):
        g = build_family("theta:4")
        cx = build_swiatkowski(g, 5)
        assert cx.top_dim <= 2


class TestHomology:
    def test_y_two_particles_circle(self):
        h = homology(build_swiatkowski(build_family("star:3"), 2))
        assert h.betti_vector() == (1, 1)

    def test_k23_euler(self):
        cx = build_swiatkowski(build_family("theta:3"), 3)
        assert cx.euler_characteristic() == -2

    @pytest.mark.parametrize("n", [2, 3])
    def test_subdivision_invariance_theta3(self, n):
        h1 = homology(build_swiatkowski(build_family("theta:3"), n))
        h2 = homology(build_swiatkowski(build_family("complete_bipartite:2,3"), n))
        top = max(max(h1.dims), max(h2.dims))
        for d in range(top + 1):
            assert h1.betti(d) == h2.betti(d)
            assert h1.torsion(d) == h2.torsion(d)

    @pytest.mark.parametrize("fam,n", CORPUS)
    def test_reduction_options_agree(self, fam, n):
        g = build_family(fam)
        hs = [homology(build_swiatkowski(g, n, reduce_vertices=rv))
              for rv in (None, g.essential_vertices(), "all")]
        tops = max(max(h.dims) for h in hs)
        for d in range(tops + 1):
            assert len({h.betti(d) for h in hs}) == 1
            assert len({h.torsion(d) for h in hs}) == 1

    def test_euler_identity(self):
        cx = build_swiatkowski(build_family("theta:4"), 3)
        h = homology(cx)
        alt = sum((-1) ** d * h.betti(d) for d in h.dims)
        assert alt == cx.euler_characteristic() == -4


class TestReducedAt:
    def test_y_single_particle_ranks(self):
        cx = build_swiatkowski(build_family("star:3"), 1,
                               reduce_vertices=("c",))
        assert cx.dims == [3, 2]

    @pytest.mark.parametrize("n", [2, 3])
    def test_homology_matches_unreduced(self, n):
        g = build_family("theta:3")
        h1 = homology(build_swiatkowski(g, n))
        h2 = homology(build_swiatkowski(g, n, reduce_vertices=("u",)))
        for d in set(h1.dims) | set(h2.dims):
            assert h1.betti(d) == h2.betti(d)
            assert h1.torsion(d) == h2.torsion(d)

    def test_lasso_first_homology(self):
        h = homology(build_swiatkowski(build_family("lasso"), 2,
                                       reduce_vertices=("v2",)))
        assert h.betti(1) == 2

    def test_rejects_a_leaf(self):
        with pytest.raises(GraphError, match="cannot reduce degree-1"):
            build_swiatkowski(build_family("star:3"), 2,
                              reduce_vertices=("l0",))


class TestSupportAndCells:
    def test_single_cell_support(self):
        g = build_family("theta:3")
        cx = build_swiatkowski(g, 3)
        c = cell(cx, {"u": ("h", "e1")}, {"e2": 2})
        edges, verts = support(c)
        assert edges == {"e1", "e2"}
        assert verts == {"u"}

    def test_empty_chain_support(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        edges, verts = support(Chain(cx, 1, {}))
        assert edges == set() and verts == set()

    def test_occupied_vertex_cell(self):
        g = build_family("theta:3")
        cx = build_swiatkowski(g, 2)
        c = cell(cx, {"u": "v", "v": "v"}, {})
        assert c.dim == 0
        edges, verts = support(c)
        assert verts == {"u", "v"} and edges == set()

    def test_particle_count_enforced(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        with pytest.raises(GraphError):
            cell(cx, {"u": "v"}, {"e1": 3})


def _theta2_beside_an_edge():
    """Two parallel edges beside a single edge: disconnected, with
    parallel edges and leaves."""
    return Graph(["u", "v", "a", "b"],
                 [("e1", "u", "v"), ("e2", "u", "v"), ("f", "a", "b")])


class TestEncodingIsExact:
    """The keys `SwEncoding.encode` accepts are exactly the cells of the
    complex: cycle construction relies on this instead of looking keys up.
    Every set of up to n+1 vertices is tried in every state, on every edge
    of the graph, with every multiplicity from -1 to n+1 that gives n
    particles in all."""

    @pytest.mark.parametrize("g,reduce_vertices", [
        (build_family("lasso"), None),
        (build_family("lasso"), "essential"),
        (build_family("lasso"), "all"),
        (build_family("theta:3"), None),
        (build_family("theta:3"), "all"),
        (_theta2_beside_an_edge(), None),
        (_theta2_beside_an_edge(), "all"),
        (build_family("star:3"), None),
    ], ids=["lasso", "lasso-essential", "lasso-all", "multigraph",
            "multigraph-all", "disconnected", "disconnected-all", "star"])
    def test_accepted_keys_are_the_cells(self, g, reduce_vertices):
        n = 2
        cx = build_swiatkowski(g, n,
                               reduce_vertices=_basis(g, reduce_vertices))
        enc = cx.encoding
        eids = [e[0] for e in g.edges]
        # both kinds of half-edge state everywhere: the one of the other
        # basis is refused
        states = {v: ["v"] + [(kind, e) for kind in "hd" for e in eids]
                  for v in g.vertices}
        mults = {}
        for ms in itertools.product(range(-1, n + 2), repeat=len(eids)):
            mults.setdefault(sum(ms), []).append(dict(zip(eids, ms)))
        accepted = set()
        for k in range(n + 2):
            for verts in itertools.combinations(g.vertices, k):
                for specs in itertools.product(*(states[v] for v in verts)):
                    for edges in mults.get(n - k, ()):
                        try:
                            accepted.add(enc.encode(dict(zip(verts, specs)),
                                                    edges))
                        except GraphError:
                            pass
        assert accepted == {key for keys in cx.cells for key in keys}
        # decode is the inverse of encode on every cell
        assert all(enc.encode(*enc.decode(key)) == key for key in accepted)

    @pytest.mark.parametrize("fam,reduce_vertices,site,spec", [
        ("theta:3", "all", "u", ("h", "e2")),
        ("lasso", None, "v2", ("d", "a")),
    ], ids=["h-at-a-reduced-site", "d-at-an-unreduced-site"])
    def test_a_state_of_the_other_basis_is_refused(self, fam, reduce_vertices,
                                                    site, spec):
        # ("h", e2) at a reduced site once gave h(e2) - h(e1), and ("d", a)
        # at an unreduced one h(a): a cell, but not the one written
        cx = build_swiatkowski(build_family(fam), 1,
                               reduce_vertices=reduce_vertices)
        with pytest.raises(GraphError, match=repr(site)):
            cx.encoding.encode({site: spec})
        with pytest.raises(GraphError, match=repr(site)):
            cell(cx, {site: spec})


class TestDecodingIsPinned:
    """Digests taken when `describe` and `support` still read the state
    tables digit by digit: the one decoder gives the same words and
    supports for every cell, in the canonical, one-site and all-reduced
    bases."""

    @pytest.mark.parametrize("fam,basis,digest", [
        ("lasso", None, "873d0d86186d9d01"),
        ("lasso", ("v2",), "e548702970d33235"),
        ("lasso", "all", "e287effdbc2dcacf"),
        ("theta:3", None, "2a13227e8eb31a64"),
        ("theta:3", ("u",), "47c762a250185831"),
        ("theta:3", "all", "e676d84d4170e1c7"),
    ], ids=["lasso", "lasso-one-site", "lasso-all", "theta3", "theta3-one-site",
            "theta3-all"])
    def test_describe_and_support(self, fam, basis, digest):
        cx = build_swiatkowski(build_family(fam), 3, reduce_vertices=basis)
        rows = []
        for d, keys in enumerate(cx.cells):
            for key in keys:
                edges, verts = cx.encoding.support(key)
                rows.append((d, key, cx.describe(d, key), sorted(edges),
                             sorted(verts)))
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest


def _decoded(enc, key):
    """(dimension, faces) of one cell read off its digits, one cell at a
    time: the per-cell rule that the state-part tables replace."""
    states, _ = enc.digits(key)
    faces, sign = [], 1
    for i, s in enumerate(states):
        _, is_h, info = enc.state_tables[i][s]
        if not is_h:
            continue
        if info[0] == "h":
            faces.append((key + (EMPTY - s) * enc.splace[i]
                          + enc.eplace[info[1]], sign))
            faces.append((key + (OCCUPIED - s) * enc.splace[i], -sign))
        else:
            faces.append((key + (EMPTY - s) * enc.splace[i]
                          + enc.eplace[info[1]], sign))
            faces.append((key + (EMPTY - s) * enc.splace[i]
                          + enc.eplace[info[2]], -sign))
        sign = -sign
    return sum(1 for i, s in enumerate(states)
               if enc.state_tables[i][s][1]), faces


class TestStatePartTables:
    @pytest.mark.parametrize("fam", ["theta:3", "lasso", "k4"])
    @pytest.mark.parametrize("reduce_vertices", [None, "essential", "all"],
                             ids=["canonical", "essential", "all"])
    def test_tables_equal_the_per_cell_decode(self, fam, reduce_vertices):
        g = build_family(fam)
        cx = build_swiatkowski(g, 3,
                               reduce_vertices=_basis(g, reduce_vertices))
        enc = cx.encoding
        for d, keys in enumerate(cx.cells):
            for key in keys:
                dim, faces = _decoded(enc, key)
                assert dim == d == enc.dim_of(key)
                assert enc.cell_faces(key) == cx.cell_faces(d, key) == faces
        # one table per state part met, not one per cell
        assert len(enc._parts) == len({key // enc.edge_span
                                       for keys in cx.cells for key in keys})
