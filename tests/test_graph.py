import json

import pytest

from confhom.graph import (Graph, GraphError, InsufficientSubdivision,
                           build_family, check_subdivided, order_vertices,
                           parse_family, subdivide_for)


def degrees(g):
    return sorted(g.degree(v) for v in g.vertices)


class TestFamilies:
    def test_wheel5(self):
        g = build_family("wheel:5")
        assert len(g.vertices) == 5
        assert len(g.edges) == 8

    def test_theta4(self):
        g = build_family("theta:4")
        assert len(g.vertices) == 2
        assert len(g.edges) == 4
        assert not g.is_simple()

    def test_petersen10(self):
        g = build_family("petersen:10")
        assert len(g.vertices) == 10
        assert len(g.edges) == 15
        assert degrees(g) == [3] * 10

    def test_petersen_members(self):
        for k, nv in ((6, 6), (7, 7), (8, 8), (9, 9)):
            g = build_family(f"petersen:{k}")
            assert len(g.vertices) == nv
            assert len(g.edges) == 15

    def test_k44e(self):
        g = build_family("k44e")
        assert len(g.vertices) == 8
        assert len(g.edges) == 15
        assert degrees(g) == [3, 3, 4, 4, 4, 4, 4, 4]

    def test_net(self):
        g = build_family("net:4")
        assert len(g.vertices) == 9
        assert len(g.edges) == 9
        assert degrees(g) == [1, 1, 1, 1, 2, 3, 3, 3, 3]

    def test_linear_tree(self):
        g = build_family("linear_tree:3")
        assert len(g.vertices) == 8
        assert len(g.edges) == 7
        assert degrees(g) == [1, 1, 1, 1, 1, 3, 3, 3]

    def test_lasso_and_star(self):
        lasso = build_family("lasso")
        assert len(lasso.vertices) == 4 and len(lasso.edges) == 4
        star = build_family("star:4")
        assert degrees(star) == [1, 1, 1, 1, 4]

    def test_aliases(self):
        assert parse_family("k4") == parse_family("complete:4")
        assert parse_family("y") == parse_family("star:3")
        assert parse_family("k33").family == "complete_bipartite"

    def test_determinism(self):
        a = build_family("complete_bipartite:2,4").to_json()
        b = build_family("complete_bipartite:2,4").to_json()
        assert a == b

    def test_errors(self):
        with pytest.raises(GraphError):
            build_family("wheel:3")
        with pytest.raises(GraphError):
            build_family("nosuchfamily:2")
        with pytest.raises(GraphError):
            build_family("theta:1")
        with pytest.raises(GraphError):
            Graph(["a"], [("e", "a", "a")])  # self-loop
        with pytest.raises(GraphError):
            Graph(["a"], [("e", "a", "b")])  # unknown endpoint

    @pytest.mark.parametrize("query", ["degree", "half_edges", "edge",
                                       "edge_index", "endpoints"])
    def test_unknown_ids_are_named(self, query):
        with pytest.raises(GraphError, match="'zz'"):
            getattr(build_family("lasso"), query)("zz")


class TestJson:
    def test_roundtrip(self):
        g = build_family("wheel:5")
        h = Graph.from_json(g.to_json())
        assert list(h.vertices) == list(g.vertices)
        assert [(u, v) for _, u, v in h.edges] == [(u, v) for _, u, v in g.edges]

    def test_shape(self):
        data = json.loads(build_family("theta:3").to_json())
        assert set(data) == {"vertices", "edges"}
        assert data["edges"] == [["u", "v"]] * 3


class TestSubdivision:
    def test_y_unchanged(self):
        g = build_family("star:3")
        assert subdivide_for(g, 2) is g

    def test_k23_unchanged(self):
        g = build_family("complete_bipartite:2,3")
        assert subdivide_for(g, 2) is g

    def test_k4_n3_splits_every_edge(self):
        g = build_family("k4")
        s = subdivide_for(g, 3)
        assert len(s.edges) == 2 * len(g.edges)
        assert len(s.vertices) == len(g.vertices) + len(g.edges)
        # both conditions hold on the output
        check_subdivided(s, 3)

    def test_idempotent(self):
        s = subdivide_for(build_family("k4"), 3)
        assert subdivide_for(s, 3) is s

    def test_multigraph_becomes_simple(self):
        s = subdivide_for(build_family("theta:3"), 1)
        assert s.is_simple()
        check_subdivided(s, 1)

    def test_check_raises_with_witness(self):
        with pytest.raises(InsufficientSubdivision) as err:
            check_subdivided(build_family("k4"), 3)
        assert err.value.witness

    def test_check_rejects_multigraph(self):
        with pytest.raises(InsufficientSubdivision):
            check_subdivided(build_family("theta:3"), 1)


class TestOrdering:
    def test_y_from_leaf(self):
        g = build_family("star:3")
        og = order_vertices(g, "l0")
        assert og.labels["l0"] == 1
        assert og.labels["c"] == 2
        assert sorted(og.labels[v] for v in ("l1", "l2")) == [3, 4]

    def test_path_chain(self):
        g = Graph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c")])
        og = order_vertices(g, "a")
        assert [og.labels[v] for v in ("a", "b", "c")] == [1, 2, 3]

    def test_lasso_edge_names(self):
        og = order_vertices(build_family("lasso"), "v1")
        names = {og.edge_name(i) for i in range(4)}
        assert names == {"e_1^2", "e_2^3", "e_3^4", "e_2^4"}
        assert og.labels == {"v1": 1, "v2": 2, "v3": 3, "v4": 4}

    def test_tau_below_iota(self):
        og = order_vertices(subdivide_for(build_family("k4"), 2))
        assert len(og.edge_tau_iota) == len(og.graph.edges)
        for t, i in og.edge_tau_iota:
            assert t < i

    def test_errors(self):
        two = Graph(["a", "b"], [])
        with pytest.raises(GraphError):
            order_vertices(two)  # disconnected
        with pytest.raises(GraphError):
            order_vertices(build_family("star:3"), "zz")
        with pytest.raises(GraphError):
            order_vertices(build_family("theta:3"))  # not simple
