"""Distinguished cycles: exact reference chains, zero boundaries, product
construction in both models, the named relations, and class-span ranks."""

import hashlib
import itertools
from dataclasses import replace
from math import gcd

import networkx as nx
import pytest

from confhom.cycles import (CycleError, CycleSpec, make_cycle, product_cycle,
                            span_rank, verify_chain_identity)
from confhom.graph import build_family, order_vertices, subdivide_for
from confhom.homology import homology, morse_reduce, solve_boundary
from confhom.swiatkowski import build_swiatkowski, cell as scell
from confhom.abrams import build_abrams, cell as acell


class TestYCycle:
    def test_exact_form_on_y_graph(self):
        cx = build_swiatkowski(build_family("star:3"), 2)
        got = make_cycle(cx, CycleSpec(kind="Y", hub="c",
                                       branches=("e0", "e1", "e2")))
        expected = None
        for e, plus, minus in (("e0", "e1", "e2"), ("e1", "e2", "e0"),
                               ("e2", "e0", "e1")):
            term = (scell(cx, {"c": ("h", plus)}, {e: 1})
                    - scell(cx, {"c": ("h", minus)}, {e: 1}))
            expected = term if expected is None else expected + term
        assert got == expected
        assert not got.boundary()

    def test_cube_model_reference_cells(self):
        og = order_vertices(build_family("lasso"), "v1")
        cx = build_abrams(og, 2)
        got = make_cycle(cx, CycleSpec(kind="Y", hub="v2",
                                       branches=("t", "a", "c")))
        expected = (acell(cx, [(2, 3), 1]) + acell(cx, [(1, 2), 3])
                    + acell(cx, [(2, 4), 3]) - acell(cx, [(2, 3), 4])
                    - acell(cx, [(1, 2), 4]) - acell(cx, [(2, 4), 1]))
        assert got == expected

    def test_dressed(self):
        cx = build_swiatkowski(build_family("theta:3"), 3)
        z = make_cycle(cx, CycleSpec(kind="Y", hub="u",
                                     branches=("e1", "e2", "e3"),
                                     dressing_edges=(("e1", 1),)))
        assert z.dim == 1 and not z.boundary()

    def test_dressing_vertex_overlap_rejected(self):
        cx = build_swiatkowski(build_family("theta:3"), 3)
        with pytest.raises(CycleError):
            make_cycle(cx, CycleSpec(kind="Y", hub="u",
                                     branches=("e1", "e2", "e3"),
                                     dressing_vertices=("u",)))


    @pytest.mark.parametrize("branches", [
        ("e1", "e2"), ("e1", "e2", "e3", "e4"), ("e1", "e2", "e2")],
        ids=["two", "four", "repeated"])
    def test_a_junction_needs_three_distinct_branches(self, branches):
        cx = build_swiatkowski(build_family("theta:4"), 3)
        with pytest.raises(CycleError, match="three distinct branches"):
            make_cycle(cx, CycleSpec(kind="Y", hub="u", branches=branches,
                                     dressing_edges=(("e4", 1),)))

    def test_branches_meet_at_the_hub(self):
        cx = build_swiatkowski(build_family("lasso"), 2)
        with pytest.raises(CycleError, match="not incident to hub"):
            make_cycle(cx, CycleSpec(kind="Y", hub="v2",
                                     branches=("t", "a", "b")))


class TestOCycle:
    def test_lasso_parked_particle(self):
        og = order_vertices(build_family("lasso"), "v1")
        cx = build_abrams(og, 2)
        got = make_cycle(cx, CycleSpec(kind="O", cycle=("a", "b", "c"),
                                       dressing_vertices=("v1",)))
        expected = (acell(cx, [(2, 3), 1]) + acell(cx, [(3, 4), 1])
                    - acell(cx, [(2, 4), 1]))
        assert got == expected

    def test_half_edge_model_o_cycle(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        z = make_cycle(cx, CycleSpec(kind="O", cycle=("e1", "e2"),
                                     dressing_edges=(("e3", 1),)))
        assert z.dim == 1 and not z.boundary()

    def test_bad_cycle_rejected(self):
        cx = build_swiatkowski(build_family("theta:4"), 1)
        with pytest.raises(CycleError):
            make_cycle(cx, CycleSpec(kind="O", cycle=("e1",)))


class TestThetaCycle:
    def test_generates_top_homology(self):
        cx = build_swiatkowski(build_family("theta:4"), 3)
        z = make_cycle(cx, CycleSpec(kind="Theta",
                                     edges=("e1", "e2", "e3", "e4")))
        assert z.dim == 2
        assert not z.boundary()
        assert len(z.data) == 24
        assert gcd(*z.data.values()) == 1
        assert homology(cx).betti(2) == 1
        assert span_rank(cx, [z], 2) == 1

    def test_requires_parallel_edges(self):
        g = build_family("k4")
        cx = build_swiatkowski(g, 3)
        with pytest.raises(CycleError):
            make_cycle(cx, CycleSpec(kind="Theta",
                                     edges=("e01", "e02", "e03", "e12")))


class TestProducts:
    def test_theta3_double_junction(self):
        cx = build_swiatkowski(build_family("theta:3"), 4)
        z = product_cycle(cx, [CycleSpec(kind="Y", hub="u",
                                         branches=("e1", "e2", "e3")),
                               CycleSpec(kind="Y", hub="v",
                                         branches=("e1", "e2", "e3"))])
        assert z.dim == 2 and z and not z.boundary()
        assert span_rank(cx, [z], 2) == 1 == homology(cx).betti(2)

    def test_cube_model_double_junction(self):
        g = subdivide_for(build_family("k4"), 4)
        cx = build_abrams(order_vertices(g), 4)

        def branches(v):
            return tuple(g.edges[eidx][0] for eidx, _ in g.half_edges(v))

        z = product_cycle(cx, [CycleSpec(kind="Y", hub="v0", branches=branches("v0")),
                               CycleSpec(kind="Y", hub="v3", branches=branches("v3"))])
        assert z.dim == 2 and not z.boundary()

    def test_shared_vertex_rejected(self):
        cx = build_swiatkowski(build_family("theta:3"), 4)
        spec = CycleSpec(kind="Y", hub="u", branches=("e1", "e2", "e3"))
        with pytest.raises(CycleError):
            product_cycle(cx, [spec, spec])

    def test_particle_count_mismatch(self):
        cx = build_swiatkowski(build_family("theta:3"), 5)
        with pytest.raises(CycleError):
            product_cycle(cx, [CycleSpec(kind="Y", hub="u",
                                         branches=("e1", "e2", "e3")),
                               CycleSpec(kind="Y", hub="v",
                                         branches=("e1", "e2", "e3"))])

    @pytest.mark.parametrize("model", ["swiatkowski", "abrams"])
    def test_an_empty_product_is_refused(self, model):
        g = build_family("theta:3")
        cx = (build_swiatkowski(g, 1) if model == "swiatkowski"
              else build_abrams(order_vertices(subdivide_for(g, 1)), 1))
        with pytest.raises(CycleError, match="at least one part"):
            product_cycle(cx, [], {"edges": {"e1": 1}})

    def test_a_complex_without_an_encoding_is_refused(self):
        # a reduced complex has neither its builder's cells nor its
        # encoding: it was once taken for a half-edge complex and gave a
        # bare KeyError
        cx = build_swiatkowski(build_family("theta:3"), 2)
        rcx = morse_reduce(cx)[0]
        assert rcx.encoding is None
        with pytest.raises(CycleError, match="no cell encoding"):
            make_cycle(rcx, CycleSpec(kind="Y", hub="u",
                                      branches=("e1", "e2", "e3")))

    def test_factors_with_a_common_site_do_not_multiply(self):
        # product_cycle refuses shared vertices before it multiplies; the
        # multiplication of parts refuses them too
        from confhom.cycles import _y_cycle
        cx = build_swiatkowski(build_family("theta:3"), 4,
                               reduce_vertices="all")
        y = _y_cycle(cx.encoding, "u", ("e1", "e2", "e3"))
        with pytest.raises(CycleError, match="share vertex state"):
            y * y

    @pytest.mark.parametrize("other,dressing", [
        ("same", []), ("circle", ["e13.1"])])
    def test_cube_factors_sharing_an_item_are_refused(self, other, dressing):
        # the junction at v0 and the triangle through it share the vertex
        # v0 and the edges e01:0 and e02:0
        g = subdivide_for(build_family("k4"), 4)
        cx = build_abrams(order_vertices(g), 4)
        y = CycleSpec(kind="Y", hub="v0",
                      branches=("e01:0", "e02:0", "e03:0"))
        o = CycleSpec(kind="O", cycle=(
            "e01:0", "e01:1", "e01:2", "e12:0", "e12:1", "e12:2",
            "e02:2", "e02:1", "e02:0"))
        with pytest.raises(CycleError, match="parts 0 and 1 share"):
            product_cycle(cx, [y, y if other == "same" else o],
                          {"vertices": dressing})

    def test_cube_factors_whose_cells_meet_do_not_multiply(self):
        # a branch end of the junction is no carrier vertex, but some of the
        # junction's cells cover it, so a particle parked there is refused
        # before any key is made
        g = subdivide_for(build_family("k4"), 4)
        cx = build_abrams(order_vertices(g), 4)
        y = CycleSpec(kind="Y", hub="v0",
                      branches=("e01:0", "e02:0", "e03:0"))
        with pytest.raises(CycleError,
                           match=r"share vertex state at \['e01.1'\]"):
            product_cycle(cx, [y], {"vertices": ["e01.1", "e23.1"]})

    def test_empty_span(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        assert span_rank(cx, [], 1) == 0

    def test_a_product_with_a_boundary_is_refused(self, monkeypatch):
        # the product is verified: a factor builder that gives a half-edge
        # with a particle beside it, which has a boundary, is caught
        from confhom import cycles

        def half_edge(enc, spec):
            key, k = enc.encode_part({"u": ("h", "e1")}, {"e2": 1})
            return cycles._Part(enc, {key: 1}, k)

        monkeypatch.setattr(cycles, "_half_edge_part", half_edge)
        cx = build_swiatkowski(build_family("theta:3"), 2)
        with pytest.raises(CycleError,
                           match="product chain has nonzero boundary"):
            product_cycle(cx, [CycleSpec(kind="Y", hub="u",
                                         branches=("e1", "e2", "e3"))])

    def test_span_rank_refuses_a_non_cycle_and_a_wrong_dimension(self):
        # both are refused before any reduction or Morse complex is built
        cx = build_swiatkowski(build_family("theta:3"), 2)
        edge = scell(cx, {"u": ("h", "e1")}, {"e2": 1})
        with pytest.raises(ValueError, match="input chain is not a cycle"):
            span_rank(cx, [edge], 1)
        y = make_cycle(cx, CycleSpec(kind="Y", hub="u",
                                     branches=("e1", "e2", "e3")))
        with pytest.raises(ValueError, match="cycle of wrong dimension"):
            span_rank(cx, [y], 2)
        assert cx._morse is None and cx._reduction is None
        assert span_rank(cx, [y], 1) == 1


class TestRelations:
    def test_y_ab_exact(self):
        rep = verify_chain_identity("y-ab")
        assert rep.holds and rep.level == "chain"

    def test_theta5_zero_chain(self):
        rep = verify_chain_identity("theta5")
        assert rep.holds and rep.level == "chain"

    def test_theta3_membership(self):
        rep = verify_chain_identity("theta3")
        assert rep.holds

    def test_theta_dist(self):
        rep = verify_chain_identity("theta-dist")
        assert rep.holds
        assert rep.level in ("chain", "homology")

    def test_prod_rel(self):
        rep = verify_chain_identity("prod-rel")
        assert rep.holds

    def test_unknown_relation(self):
        with pytest.raises(CycleError):
            verify_chain_identity("nope")


class TestDressingEquivalence:
    def test_two_parkings_joined_by_a_path_are_homologous(self):
        from confhom.graph import Graph
        g = Graph(["v0", "v1", "v2", "v3", "v4"],
                  [("t0", "v0", "v1"), ("t1", "v1", "v2"), ("a", "v2", "v3"),
                   ("b", "v3", "v4"), ("c", "v2", "v4")])
        cx = build_abrams(order_vertices(g, "v0"), 2)
        c1 = make_cycle(cx, CycleSpec(kind="O", cycle=("a", "b", "c"),
                                      dressing_vertices=("v0",)))
        c2 = make_cycle(cx, CycleSpec(kind="O", cycle=("a", "b", "c"),
                                      dressing_vertices=("v1",)))
        assert solve_boundary(cx, c1 - c2) is not None
        # distinct parkings still represent the same nonzero class
        assert solve_boundary(cx, c1) is None


class TestSubdivision:
    def test_wheel_products_span_on_the_graph_and_its_subdivision(self):
        # merging each edge's two halves is a quasi-isomorphism that
        # carries the subdivided products to the graph's own; both sets
        # span beta_2 = 22 of wheel:5 n=4
        from confhom import verify as V
        from subdivided import dressed_products, split_edges
        g = build_family("wheel:5")
        pairs = V._disjoint_products(g, V._wheel_parts(g), 2)
        cx = build_swiatkowski(split_edges(g), 4, reduce_vertices="all")
        cycles = dressed_products(cx, g, pairs)
        _, got, count = V._product_span("wheel:5", 4, 2, V._wheel_parts)
        assert span_rank(cx, cycles, 2) == got == 22
        assert len(cycles) == count == 62

    def test_junction_branches_stay_dressable(self):
        # junctions at r0 and r1 share the rim edge c0, which is its own
        # pocket; blocking branch edges as well spans only 22 of 34
        from confhom import verify as V
        g = build_family("wheel:5")
        assert V._regions(g, set(), {"r0", "r1"}) == ["c0", "c1"]
        assert V._product_span("wheel:5", 5, 2, V._wheel_parts)[1:] == (34, 130)


def _digest(chains):
    data = repr([sorted(z.data.items()) for z in chains]).encode()
    return hashlib.sha256(data).hexdigest()[:16]


class TestProductChainsArePinned:
    """Digests of the chains taken when products were still assembled as
    per-vertex states and edge multiplicities and encoded cell by cell:
    the packed parts give the same keys and coefficients, in the reduced
    basis, the canonical one and the essential one (reduced hubs,
    canonical midpoints)."""

    @pytest.mark.parametrize("fam,basis,count,digest", [
        ("wheel:5", "all", 62, "273ea0f724d740ca"),
        ("wheel:5", None, 62, "fafcbd4ccbdc7a13"),
        ("k33", "all", 69, "528a0f4711fae256"),
        ("k33", "essential", 69, "f8e324f1ee53eea6"),
    ])
    def test_products_on_the_subdivided_graph(self, fam, basis, count, digest):
        from confhom import verify as V
        from subdivided import dressed_products, k33_products, split_edges
        g = build_family(fam)
        sub = split_edges(g)
        if basis == "essential":
            basis = sub.essential_vertices()
        cx = build_swiatkowski(sub, 4, reduce_vertices=basis)
        cycles = (k33_products(cx) if fam == "k33" else dressed_products(
            cx, g, V._disjoint_products(g, V._wheel_parts(g), 2)))
        assert len(cycles) == count
        assert _digest(cycles) == digest

    @pytest.mark.parametrize("basis,digest", [
        (None, "61854d17ad3be22a"), ("all", "f4635460b9468464")])
    def test_theta_surfaces_and_junction_pairs(self, basis, digest):
        g = build_family("theta:5")
        cx = build_swiatkowski(g, 4, reduce_vertices=basis)
        es = [e[0] for e in g.edges]
        triples = list(itertools.combinations(es, 3))
        cycles = [make_cycle(cx, CycleSpec(kind="Theta", edges=quad,
                                           dressing_edges=((es[0], 1),)))
                  for quad in itertools.combinations(es, 4)]
        cycles += [product_cycle(cx, [
            CycleSpec(kind="Y", hub="u", branches=a),
            CycleSpec(kind="Y", hub="v", branches=b)])
            for a in triples for b in triples]
        assert len(cycles) == 105
        assert _digest(cycles) == digest


def _canonical(g, route):
    """A vertex cycle from its least vertex towards its lesser neighbour,
    in the order of g's vertices: networkx lists cycles in an order and
    orientation that vary with the string hash seed."""
    at = [g.vertices.index(v) for v in route]
    i = at.index(min(at))
    at = at[i:] + at[:i]
    if at[-1] < at[1]:
        at = at[:1] + at[:0:-1]
    return [g.vertices[i] for i in at]


def _cube_products(fam, n):
    """Every one- and two-part product of junctions and circles (of up to
    14 edges) of the cube complex of fam subdivided for n, each dressed on
    two runs of vertices from either end of the vertex list: (the chains,
    the number of refused products)."""
    g = subdivide_for(build_family(fam), n)
    cx = build_abrams(order_vertices(g), n)
    ys = [CycleSpec(kind="Y", hub=v, branches=tri) for v in g.vertices
          for tri in itertools.combinations(
              [g.edges[e][0] for e, _ in g.half_edges(v)], 3)]
    simple = nx.Graph((u, v) for _, u, v in g.edges)
    eid = {frozenset((u, v)): e for e, u, v in g.edges}
    os_ = [CycleSpec(kind="O", cycle=tuple(
        eid[frozenset(uv)] for uv in zip(c, c[1:] + c[:1])))
        for c in sorted(_canonical(g, c) for c in
                        nx.simple_cycles(simple, length_bound=14))]
    products = ([[p] for p in ys + os_]
                + [list(p) for p in itertools.combinations(ys, 2)]
                + [[o, y] for o in os_ for y in ys]
                + [list(p) for p in itertools.combinations(os_, 2)])
    chains, refused = [], 0
    for parts in products:
        free = n - sum(2 if p.kind == "Y" else 1 for p in parts)
        for vs in (g.vertices, g.vertices[::-1]):
            for dv in itertools.islice(itertools.combinations(vs, free), 2):
                try:
                    chains.append(product_cycle(cx, parts,
                                                {"vertices": list(dv)}))
                except ValueError:
                    refused += 1
    return chains, refused


class TestCubeChainsArePinned:
    """Digests of the cube chains taken when the cube model still multiplied
    lists of (edge items, vertex items, coeff) and added one cell per term:
    the packed parts give the same keys and coefficients."""

    def test_the_cube_cycles_of_the_tests_and_relations(self):
        # the chains of the cube tests above, of the y-ab relation and of
        # the verify suite's construction and circle-dressing rows
        from confhom.graph import Graph
        lasso = build_abrams(order_vertices(build_family("lasso"), "v1"), 2)
        pocket = build_abrams(order_vertices(Graph(
            ["v0", "v1", "v2", "v3", "v4"],
            [("t0", "v0", "v1"), ("t1", "v1", "v2"), ("a", "v2", "v3"),
             ("b", "v3", "v4"), ("c", "v2", "v4")]), "v0"), 2)
        g = subdivide_for(build_family("k4"), 4)
        k4 = build_abrams(order_vertices(g), 4)

        def junction(v):
            return CycleSpec(kind="Y", hub=v, branches=tuple(
                g.edges[eidx][0] for eidx, _ in g.half_edges(v)))

        circle = CycleSpec(kind="O", cycle=("a", "b", "c"))
        chains = [
            make_cycle(lasso, CycleSpec(kind="Y", hub="v2",
                                        branches=("t", "a", "c"))),
            make_cycle(lasso, replace(circle, dressing_vertices=("v1",))),
            make_cycle(pocket, replace(circle, dressing_vertices=("v0",))),
            make_cycle(pocket, replace(circle, dressing_vertices=("v1",))),
            product_cycle(k4, [junction("v0"), junction("v3")]),
        ]
        assert [z.dim for z in chains] == [1, 1, 1, 1, 2]
        assert _digest(chains) == "bc89eb0087651fa9"

    @pytest.mark.parametrize("fam,count,refused,digest", [
        ("k4", 25, 227, "cc7be050a44b9c25"),
        ("theta:4", 28, 336, "5d7b175ee567b056"),
        ("theta:3", 4, 54, "480b59ec709de7e2"),
        ("wheel:5", 74, 482, "bd1a3e99ed3505ad"),
    ])
    def test_products_of_junctions_and_circles(self, fam, count, refused,
                                                digest):
        chains, got_refused = _cube_products(fam, 4)
        assert (len(chains), got_refused) == (count, refused)
        assert _digest(chains) == digest


class TestSpecJson:
    def test_roundtrip(self):
        text = ('{"kind":"Y","hub":"v2","branches":["e1","e2","e3"],'
                '"dressing":{"vertices":[],"edges":{"e4":1}}}')
        spec = CycleSpec.from_json(text)
        assert spec.kind == "Y"
        assert spec.hub == "v2"
        assert spec.dressing_edges == (("e4", 1),)
        again = CycleSpec.from_json(spec.to_json_dict())
        assert again == spec
