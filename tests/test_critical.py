"""The algebraic Morse complex of all-reduced half-edge complexes: the
matching rule against brute force, the basis change, the flow's cycle
check, the flow against the unpruned flow on named and randomly drawn
multigraphs, and homology and class ranks against the generic reduction."""

import gc
import hashlib
import itertools
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhom import tables
from confhom.abrams import CubeMatching, build_abrams
from confhom.complexes import BoundaryError, Chain, ChainComplex
from confhom.critical import (MorseFlow, MorseMatching, _eligible,
                              choose_search, critical_counts, half_edge_ends,
                              search)
from confhom.graph import Graph, build_family, order_vertices, subdivide_for
from confhom.homology import EngineError, homology, morse_reduce
from confhom.swiatkowski import (OCCUPIED, SwEncoding, _edge_parts,
                                build_swiatkowski)
from flipped import flip_y_table

TWO_TRIANGLES = Graph(list("abcdef"), [
    ("x1", "a", "b"), ("x2", "b", "c"), ("x3", "c", "a"),
    ("y1", "d", "e"), ("y2", "e", "f"), ("y3", "f", "d")])
MULTIGRAPH = Graph(list("abcd"), [
    ("p", "a", "b"), ("q", "a", "b"), ("r", "b", "c"), ("s", "c", "a"),
    ("t", "a", "c"), ("u", "c", "d")])

TWO_WHEELS = Graph(
    [f"{p}.{v}" for p, w in (("a", "wheel:5"), ("b", "wheel:4"))
     for v in build_family(w).vertices],
    [(f"{p}.{e}", f"{p}.{u}", f"{p}.{v}")
     for p, w in (("a", "wheel:5"), ("b", "wheel:4"))
     for e, u, v in build_family(w).edges])


def _graph(fam):
    return {"2tri": TWO_TRIANGLES, "multi": MULTIGRAPH}.get(fam) or \
        build_family(fam)


def _encoding(g, n):
    return SwEncoding(g, n, [v for v in g.vertices if g.degree(v) >= 2])


def _shuffled(g, seed):
    """g with its vertices and its edges each listed in a seeded random
    order, as `perfbench/cases.py` `shuffled` lists its inputs."""
    rng = random.Random(seed)
    vertices, edges = list(g.vertices), list(g.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return Graph(vertices, edges, name=g.name)


def _searches(g):
    """(kind, root, order, refs) of the BFS and the DFS from every vertex of
    nonzero degree, the other components searched breadth first from their
    first vertex: every candidate of `choose_search`."""
    ends = half_edge_ends(g)
    out = []
    for root in g.vertices:
        for kind in ("bfs", "dfs") if g.degree(root) else ():
            order, refs = search(ends, root, kind)[:2]
            for v in g.vertices:
                if v not in refs and g.degree(v):
                    o, r = search(ends, v, "bfs")[:2]
                    order, refs = order + o, {**refs, **r}
            out.append((kind, root, order, refs))
    return out


def _hub_bfs(g):
    """Breadth first from the first vertex of maximum degree, the search
    the pinned counts and digests below were taken with (g connected)."""
    return search(half_edge_ends(g), max(g.vertices, key=g.degree),
                  "bfs")[:2]


def _meets_the_condition(g, order, refs):
    """Every reference edge joins its vertex to an earlier one, or is its
    other end's reference too."""
    rank = {v: i for i, v in enumerate(order)}
    for v in order:
        eidx, end = g.half_edges(v)[refs[v]]
        w = g.other_end(eidx, v)
        if rank[w] > rank[v] and g.half_edges(w)[refs[w]] != (eidx, 1 - end):
            return False
    return True


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
        out += [pack + p for p in _edge_parts(m.unit, m.n - k)]
    return out


def _faces(m, key):
    """The boundary of one y cell as [(face key, coeff), ...]."""
    return [(key + d, w) for d, w in m.face_terms(key)]


def _with_homology(cx):
    assert homology(cx).betti_vector() == (1, 4, 19, 1, 0)
    return cx


def _nonzero(h):
    return {d: (b, t) for d, (b, t) in h.dims.items() if b or t}


BRUTE = [("k33", 4), ("wheel:5", 4), ("k4", 4), ("theta:4", 3), ("net:4", 3),
         ("petersen:10", 3), ("2tri", 3), ("multi", 3), ("k4", 0),
         ("lasso", 2), ("linear_tree:3", 3)]


def _cyclic_triangle():
    """A triangle whose references run round it, with its matching."""
    g = Graph(list("abc"), [("ab", "a", "b"), ("bc", "b", "c"),
                            ("ca", "c", "a")])
    refs = {}
    for v, e in (("a", "ab"), ("b", "bc"), ("c", "ca")):
        refs[v] = [g.edges[i][0] for i, _ in g.half_edges(v)].index(e)
    return g, MorseMatching(_encoding(g, 1), order=list("abc"), refs=refs)


def _by_degree_dfs():
    """wheel:5 and the (order, refs) of a depth-first search from r0 that
    takes each vertex's neighbours by decreasing degree."""
    g = build_family("wheel:5")
    refs = {"r0": 0}
    order = ["r0"]

    def visit(v):
        by_degree = sorted(g.half_edges(v),
                           key=lambda h: -g.degree(g.other_end(h[0], v)))
        for eidx, end in by_degree:
            w = g.other_end(eidx, v)
            if w not in refs:
                refs[w] = g.half_edges(w).index((eidx, 1 - end))
                order.append(w)
                visit(w)
    visit("r0")
    return g, order, refs


def _unpruned_flow(m):
    """The flow of m read off the definition: every face of a lower
    cell's partner, no tables of followed faces, no cycle check."""
    memo = {}

    def flow(key):
        if key not in memo:
            got = m.classify(key)
            acc = {key: 1} if got is None else {}
            if got is not None and got[2]:
                partner, eps, _ = got
                for f, w in _faces(m, partner):
                    if f != key:
                        for g, x in flow(f).items():
                            acc[g] = acc.get(g, 0) - eps * w * x
            memo[key] = {g: x for g, x in acc.items() if x}
        return memo[key]
    return flow


def _only_finished(m, flow, full=None):
    """The memo holds listed critical cells and lower cells the flow
    finished, with the flow of `full`, which lists every critical cell,
    when given: no cell the flow was still expanding."""
    for key, val in flow.memo.items():
        assert type(val) is dict
        got = m.classify(key)
        assert val == {key: 1} if got is None else got[2]
        assert full is None or val == full.cell(key)


@st.composite
def _multigraphs(draw):
    """A connected multigraph without self-loops on up to 5 vertices and 7
    edges: a random spanning tree and extra edges, multi-edges allowed,
    vertices and edges listed in a drawn order."""
    size = draw(st.integers(2, 5))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, size)]
    ends += draw(st.lists(st.tuples(st.integers(0, size - 1),
                                    st.integers(0, size - 1))
                          .filter(lambda e: e[0] != e[1]),
                          max_size=8 - size))
    names = draw(st.permutations([f"v{i}" for i in range(size)]))
    ends = draw(st.permutations(ends))
    return Graph(names, [(f"e{j}", f"v{a}", f"v{b}")
                         for j, (a, b) in enumerate(ends)])


def _split(m, key):
    """(followed, skipped) for the lower cell key: the faces of its partner
    other than key, as (key delta, flow coefficient) pairs, that its step
    follows (a unit step as the one face (delta, 1)) and the others."""
    partner, eps, _ = m.classify(key)
    step = m.step(key)
    followed = ((step, 1),) if type(step) is int else step
    skipped = [(f - key, -eps * w) for f, w in _faces(m, partner)
               if f != key]
    for face in followed:
        skipped.remove(face)  # every followed face is one of them
    return followed, skipped


def _check_drawn_flow(data):
    # the chosen search and one other candidate: the flow equals the
    # unpruned flow on every y cell, and every face the flow skips is
    # upper or has an empty flow
    g = data.draw(_multigraphs())
    enc = _encoding(g, data.draw(st.sampled_from((3, 2, 1))))
    chosen = choose_search(enc)[:2]
    other = data.draw(st.sampled_from(_searches(g)))[2:]
    every = _every_y_cell(MorseMatching(enc, *chosen))
    for order, refs in (chosen, other):
        m = MorseMatching(enc, order, refs)
        flow = MorseFlow(m, m.critical_cells())
        unpruned = _unpruned_flow(m)
        for key in every:
            assert flow.cell(key) == unpruned(key)
            got = m.classify(key)
            if got is not None and got[2]:
                for d, _ in _split(m, key)[1]:
                    upper = m.classify(key + d)
                    assert upper is not None and not upper[2] or \
                        not unpruned(key + d)


class TestRule:
    @pytest.mark.parametrize("fam,n", BRUTE)
    def test_matching_against_brute_force(self, fam, n):
        g = _graph(fam)
        enc = _encoding(g, n)
        every = _every_y_cell(MorseMatching(enc, *choose_search(enc)[:2]))
        for _, _, order, refs in _searches(g):
            m = MorseMatching(enc, order, refs)
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
                assert dict(_faces(m, upper))[low] == coeff in (1, -1)
            listed = m.critical_cells()
            assert sorted(critical) == sorted(itertools.chain(*listed))
            assert all(dim == sorted(dim) for dim in listed)
            # every cell flows without meeting a cycle of gradient paths,
            # and the memo keeps only critical and lower cells
            flow = MorseFlow(m, listed)
            for key in every:
                flow.cell(key)
            assert all(m.classify(key) is None or m.classify(key)[2]
                       for key in flow.memo)

    @pytest.mark.parametrize("fam,n", BRUTE)
    def test_count_equals_listing(self, fam, n):
        g = _graph(fam)
        enc = _encoding(g, n)
        for _, _, order, refs in _searches(g):
            listed = MorseMatching(enc, order, refs).critical_cells()
            assert critical_counts(enc, order, refs) == list(map(len, listed))

    @pytest.mark.parametrize("fam,n", BRUTE)
    def test_basis_change_is_a_chain_map(self, fam, n):
        g = _graph(fam)
        cx = build_swiatkowski(g, n, reduce_vertices="all")
        m = MorseMatching(cx.encoding, *choose_search(cx.encoding)[:2])

        def phi(terms):
            acc = {}
            for key, coeff in terms:
                for y, x in m.from_builder(key):
                    acc[y] = acc.get(y, 0) + coeff * x
            return {y: x for y, x in acc.items() if x}

        def d(chain):
            acc = {}
            for y, x in chain.items():
                for f, w in _faces(m, y):
                    acc[f] = acc.get(f, 0) + x * w
            return {f: x for f, x in acc.items() if x}

        for dim in range(1, cx.top_dim + 1):
            for key in cx.cells[dim]:
                assert phi(cx.cell_faces(dim, key)) == d(phi([(key, 1)]))

    @pytest.mark.parametrize("fam,n", BRUTE)
    def test_basis_change_equals_the_per_cell_conversion(self, fam, n):
        # the tables per state part and per edge part give each cell's y
        # terms as its own digits do
        g = _graph(fam)
        cx = build_swiatkowski(g, n, reduce_vertices="all")
        enc = cx.encoding

        def convert(m, key):
            states, mults = enc.digits(key)
            terms = [(sum(x * u for x, u in zip(mults, m.unit)), 1)]
            for (shift, _, _, _), r, c in zip(m.faces_data, m.ref_code,
                                               states):
                if not c:
                    continue
                if r == 0:
                    opts = ((c << shift, 1),)
                elif c == r:
                    opts = ((r << shift, -1),)
                else:
                    opts = ((c << shift, 1), (r << shift, -1))
                terms = [(k + s, x * y) for k, x in terms for s, y in opts]
            return terms

        _, _, order, refs = _searches(g)[-1]
        for m in (MorseMatching(enc, *choose_search(enc)[:2]),
                  MorseMatching(enc, order, refs)):
            for keys in cx.cells:
                for key in keys:
                    assert m.from_builder(key) == convert(m, key)

    def test_references_are_parent_edges(self):
        for fam in ("wheel:5", "k44e", "lasso", "2tri", "multi",
                    "linear_tree:3"):
            # a search takes each vertex's half-edges by ascending degree
            # of the other end, ends of degree 1 last, then by position
            g = _graph(fam)
            ends = half_edge_ends(g)
            for v in g.vertices:
                row = [(g.degree(w) == 1, g.degree(w), p)
                       for _, w, _, p in ends[v]]
                assert row == sorted(row)
                for eidx, w, q, p in ends[v]:
                    e, end = g.half_edges(v)[p]
                    assert e == eidx and g.half_edges(w)[q] == (eidx, 1 - end)
                assert sorted(p for *_, p in ends[v]) == \
                    list(range(g.degree(v)))
            # every candidate meets the acyclicity condition: a reference
            # edge leads to the parent, and a root's is the edge the first
            # vertex was reached by, that vertex's reference too
            for kind, root, order, refs in _searches(g):
                assert _meets_the_condition(g, order, refs)
                eidx, end = g.half_edges(root)[refs[root]]
                assert order[0] == root
                assert order[1] == g.other_end(eidx, root)
                assert g.half_edges(order[1])[refs[order[1]]] == \
                    (eidx, 1 - end)
                # the search's own count of each |E_v|
                o, r, sizes = search(ends, root, kind)
                rank = {v: i for i, v in enumerate(o)}
                assert sizes == {v: len(_eligible(ends, v, rank, r))
                                 for v in o}
            # the choice is the first candidate with the fewest critical
            # cells, roots by decreasing degree, DFS before BFS
            enc = _encoding(g, 3)
            order, refs, searches, counts = choose_search(enc)
            assert counts == critical_counts(enc, order, refs)
            assert len(searches) == (2 if fam == "2tri" else 1)
            if len(searches) == 1:
                (kind, root), = searches
                assert (order, refs) == search(ends, root, kind)[:2]
                reached = search(ends, g.vertices[0], "bfs")[0]
                assert min((sum(critical_counts(enc, o, r)), -g.degree(v),
                            reached.index(v), k != "dfs")
                           for k, v, o, r in _searches(g)) == \
                    (sum(counts), -g.degree(root), reached.index(root),
                     kind != "dfs")
            if fam == "lasso":
                # the BFS from the chosen root ties, and the DFS is kept
                o, r = search(ends, root, "bfs")[:2]
                assert kind == "dfs"
                assert critical_counts(enc, o, r) == counts

    def test_a_cycle_of_gradient_paths_raises(self):
        # references running round a triangle match every cell, and the
        # gradient paths from an edge go round it
        g, m = _cyclic_triangle()
        assert all(m.classify(key) is not None for key in _every_y_cell(m))
        flow = MorseFlow(m, m.critical_cells())
        with pytest.raises(EngineError, match="cycle"):
            flow.cell(m.unit[g.edge_index("ab")])
        _only_finished(m, flow)

    @pytest.mark.parametrize("model", ["half-edge", "cube"])
    def test_an_unlisted_critical_cell_raises(self, model):
        # a critical cell in the flow of a lower cell is left out of the
        # list: the flow meets it there, and keeps only what it finished
        if model == "half-edge":
            enc = _encoding(build_family("k33"), 3)
            m = MorseMatching(enc, *choose_search(enc)[:2])
        else:
            m = CubeMatching(build_abrams(order_vertices(subdivide_for(
                build_family("k4"), 3)), 3).encoding)
        cells = m.critical_cells()
        full = MorseFlow(m, cells)
        for key in cells[2]:
            full.boundary(key)
        lower, val = next((key, val) for key, val in full.memo.items()
                          if m.classify(key) is not None and val)
        dropped = next(iter(val))
        flow = MorseFlow(m, [[key for key in dim if key != dropped]
                             for dim in cells])
        with pytest.raises(EngineError, match=f"^cell {dropped} is critical "
                           "but not listed$"):
            flow.cell(lower)
        _only_finished(m, flow, full)

    @pytest.mark.parametrize("fam,n,memo,empty", [
        ("wheel:5", 5, 1268, 107), ("k33", 5, 2050, 227)])
    def test_each_lower_cell_is_classified_once(self, monkeypatch, fam, n,
                                                memo, empty):
        # the flow classifies a lower cell once, walked or expanded, and
        # keeps it; the memo is the one `confhom compute` reports on
        lower = []
        real = MorseMatching.step

        def step(m, key, classify=False):
            got = real(m, key, classify)
            if got is not None and got is not False and not classify:
                lower.append(key)
            return got
        monkeypatch.setattr(MorseMatching, "step", step)
        cx = build_swiatkowski(build_family(fam), n, reduce_vertices="all")
        mcx, flow = cx.morse_complex()
        assert len(lower) == len(flow.memo) - sum(mcx.dims)
        assert (len(flow.memo), sum(not f for f in flow.memo.values())) == \
            (memo, empty)

    def test_a_search_out_of_position_order_forms_a_cycle(self):
        # a depth-first search that takes each vertex's neighbours by
        # decreasing degree goes from r0 to the hub first, not to r1 by
        # r0's first half-edge: r0's reference edge is then in E_r1,
        # scanned after r0, and the gradient paths go round.  With r0's
        # reference on the edge the search left it by, the same order
        # meets the condition and every cell flows.
        g, order, refs = _by_degree_dfs()
        assert order == ["r0", "h", "r1", "r2", "r3"]
        assert not _meets_the_condition(g, order, refs)
        enc = _encoding(g, 4)
        m = MorseMatching(enc, order, refs)
        flow = MorseFlow(m, m.critical_cells())
        with pytest.raises(EngineError, match="cycle"):
            for key in _every_y_cell(m):
                flow.cell(key)
        _only_finished(m, flow)
        hub_edge, end = g.half_edges("h")[refs["h"]]
        refs["r0"] = g.half_edges("r0").index((hub_edge, 1 - end))
        assert _meets_the_condition(g, order, refs)
        m = MorseMatching(enc, order, refs)
        flow = MorseFlow(m, m.critical_cells())
        for key in _every_y_cell(m):
            flow.cell(key)

    @pytest.mark.parametrize("fam,n", [
        ("wheel:5", 5), ("wheel:6", 6), ("wheel:7", 7), ("k44e", 5),
        ("lasso", 3), ("petersen:10", 4), ("k33", 7)])
    def test_the_choice_does_not_depend_on_the_listing(self, fam, n):
        # the chosen search's critical cells, counted in closed form, are
        # those of the family's own listing on every seeded listing: the
        # searches read degrees, and positions only between neighbours of
        # equal degree (so drawn multigraphs are not asked for this)
        g = build_family(fam)
        own = choose_search(_encoding(g, n))[3]
        for seed in range(10):
            assert choose_search(_encoding(_shuffled(g, seed), n))[3] == own

    @pytest.mark.parametrize("fam,n,count", [
        ("wheel:7", 7, 30226), ("k33", 8, 2558), ("k33", 7, 1227),
        ("wheel:6", 6, 3541), ("k44e", 6, 11561)])
    def test_critical_counts_are_pinned(self, fam, n, count):
        g = build_family(fam)
        cells = MorseMatching(_encoding(g, n), *_hub_bfs(g)).critical_cells()
        assert sum(map(len, cells)) == count

    @pytest.mark.parametrize("fam,n,kind,root,count", [
        ("wheel:7", 7, "dfs", "r0", 2938), ("wheel:6", 6, "dfs", "r0", 765),
        ("wheel:5", 5, "dfs", "r0", 198), ("k33", 8, "bfs", "a0", 2558),
        ("k44e", 6, "dfs", "a0", 10473)])
    def test_chosen_counts_are_pinned(self, fam, n, kind, root, count):
        enc = _encoding(build_family(fam), n)
        order, refs, searches, counts = choose_search(enc)
        assert searches == [(kind, root)] and sum(counts) == count
        assert list(map(len, MorseMatching(enc, order, refs)
                        .critical_cells())) == counts

    @pytest.mark.parametrize("fam,n", BRUTE + [("cyclic", 1),
                                               ("by-degree", 4)])
    def test_pruned_faces_are_upper(self, fam, n):
        # per lower cell, the followed faces are partner's faces other than
        # the cell, with the flow's weights; a skipped face, one of the
        # others, is upper or has an empty flow, and on the cyclic
        # triangle and the by-degree search of wheel:5, which break (C),
        # only upper faces are skipped
        if fam == "cyclic":
            _, m = _cyclic_triangle()
        elif fam == "by-degree":
            g, order, refs = _by_degree_dfs()
            m = MorseMatching(_encoding(g, n), order, refs)
        else:
            enc = _encoding(_graph(fam), n)
            m = MorseMatching(enc, *choose_search(enc)[:2])
        unpruned = _unpruned_flow(m)
        for key in _every_y_cell(m):
            got = m.classify(key)
            if got is None or not got[2]:
                continue
            for d, _ in _split(m, key)[1]:
                upper = m.classify(key + d)
                assert upper is not None and not upper[2] or \
                    fam not in ("cyclic", "by-degree") and \
                    not unpruned(key + d)

    @given(st.data())
    @settings.get_profile("draws")
    def test_random_multigraphs_flow_as_unpruned(self, data):
        _check_drawn_flow(data)

    @pytest.mark.extended
    @given(st.data())
    @settings.get_profile("draws-extended")
    def test_random_multigraphs_flow_as_unpruned_at_length(self, data):
        _check_drawn_flow(data)

    @pytest.mark.parametrize("fam,n", BRUTE)
    def test_flow_equals_the_unpruned_flow(self, fam, n):
        g = _graph(fam)
        enc = _encoding(g, n)
        every = _every_y_cell(MorseMatching(enc, *choose_search(enc)[:2]))
        for _, _, order, refs in _searches(g):
            m = MorseMatching(enc, order, refs)
            flow = MorseFlow(m, m.critical_cells())
            unpruned = _unpruned_flow(m)
            for key in every:
                assert flow.cell(key) == unpruned(key)

    @pytest.mark.parametrize("fam,n,digest", [
        ("k33", 5, "6a3cc23324cb966b"), ("wheel:5", 5, "0bb1a07ce8465ac8")])
    def test_morse_complex_is_pinned(self, fam, n, digest):
        # the flow may get cheaper, but the differential of the search
        # from the hub must not drift: built here as `morse_complex` does
        g = build_family(fam)
        m = MorseMatching(_encoding(g, n), *_hub_bfs(g))
        cells = m.critical_cells()
        flow = MorseFlow(m, cells)
        triplets = []
        for d in range(1, len(cells)):
            index = {key: i for i, key in enumerate(cells[d - 1])}
            rows, cols, vals = [], [], []
            for c, key in enumerate(cells[d]):
                for f, x in flow.boundary(key).items():
                    rows.append(index[f])
                    cols.append(c)
                    vals.append(x)
            triplets.append([rows, cols, vals])
        data = repr([list(map(len, cells))] + triplets)
        assert hashlib.sha256(data.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("fam,n,digest", [
        ("k33", 5, "6a3cc23324cb966b"), ("wheel:5", 5, "6ab8a663ff17027a")])
    def test_the_chosen_morse_complex_is_pinned(self, fam, n, digest):
        # k33 has no better search than the hub's: its Morse complex is the
        # one pinned above, byte for byte
        cx = build_swiatkowski(build_family(fam), n, reduce_vertices="all")
        mcx = cx.morse_complex()[0]
        data = repr([mcx.dims] + [[list(a) for a in mcx.boundary_triplets(d)]
                                  for d in range(1, mcx.top_dim + 1)])
        assert hashlib.sha256(data.encode()).hexdigest()[:16] == digest

    def test_a_lost_critical_cell_breaks_the_euler_check(self, monkeypatch):
        from confhom.cycles import span_rank
        from confhom.homology import homology_generators
        g = build_family("theta:4")
        cx = build_swiatkowski(g, 3, reduce_vertices="all")
        gens = homology_generators(cx, 1)  # from the generic reduction
        real = MorseMatching.critical_cells

        def lose_one(m):
            cells = real(m)
            cells[1].pop()
            return cells
        monkeypatch.setattr(MorseMatching, "critical_cells", lose_one)
        with pytest.raises(EngineError, match="Euler characteristic"):
            homology(build_swiatkowski(g, 3, reduce_vertices="all"), dims=1)
        with pytest.raises(EngineError, match="Euler characteristic"):
            span_rank(cx, gens, 1)
        # the canonical basis reads the same critical cells, against the
        # Euler characteristic of its own cell count
        with pytest.raises(EngineError, match="Euler characteristic"):
            homology(build_swiatkowski(g, 3), dims=1)


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


def _not_snf(reduced):
    """The complexes among `reduced` that are not the one-map complexes
    smith_normal_form loads each matrix into."""
    return [cx for cx in reduced if cx.meta != {"model": "snf"}]


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

    def test_morse_complex_chains_have_boundaries(self):
        # a Morse complex has no faces callback: Chain.boundary reads its
        # triplets, and the flow is a chain map into it
        rng = random.Random(3)
        cx = build_swiatkowski(build_family("k33"), 4, reduce_vertices="all")
        mcx, flow = cx.morse_complex()
        assert mcx.encoding is None
        for d in range(1, mcx.top_dim + 1):
            for key in mcx.cells[d]:
                assert (Chain(mcx, d, {key: 1}).boundary()
                        == Chain(mcx, d - 1, flow.boundary(key)))
        for d in range(1, cx.top_dim + 1):
            z = Chain(cx, d, {k: rng.choice((-1, 2)) for k in
                              rng.sample(list(cx.cells[d]), 5)})
            assert (flow.chain(z, mcx).boundary()
                    == flow.chain(z.boundary(), mcx))

    def test_each_component_chooses_its_search(self):
        # wheel:5 and wheel:4 side by side: one search per component, the
        # counts of the whole complex in the Morse complex's meta, and the
        # homology of the generic reduction
        cx = build_swiatkowski(TWO_WHEELS, 3, reduce_vertices="all")
        h = homology(cx, check=False)
        mcx = cx.morse_complex()[0]
        assert mcx.meta["search"] == [("dfs", "a.r0"), ("dfs", "b.r0")]
        assert mcx.meta["critical_cells"] == mcx.dims == [4, 47, 81, 17]
        ends = half_edge_ends(TWO_WHEELS)
        (o1, r1), (o2, r2) = [search(ends, f"{p}.h", "bfs")[:2]
                              for p in "ab"]
        from_hubs = critical_counts(cx.encoding, o1 + o2, {**r1, **r2})
        assert sum(from_hubs) > sum(mcx.dims)
        generic = homology(_without_morse(cx), check=False)
        assert _nonzero(h) == _nonzero(generic)
        assert h.betti_vector() == (4, 25, 42, 0)

    def test_span_rank_agrees_on_the_subdivided_k33(self):
        # the 69 dressed products of test_transport_replays_the_cached_trail
        from confhom.cycles import span_rank
        from subdivided import k33_products, split_edges
        sub = split_edges(build_family("k33"))
        ranks = []
        for cx in (build_swiatkowski(sub, 4, reduce_vertices="all"),
                   _without_morse(build_swiatkowski(sub, 4,
                                                    reduce_vertices="all"))):
            cycles = k33_products(cx)
            assert len(cycles) == 69
            ranks.append(span_rank(cx, cycles, 2))
            # fewer cycles span less, by the same amount on both paths
            ranks.append(span_rank(cx, cycles[::3], 2))
        assert ranks[:2] == ranks[2:] and ranks[0] == 19 > ranks[1]
        assert cx._reduction is not None  # the generic path's trail

    @pytest.mark.parametrize("build", [
        lambda g: build_swiatkowski(g, 3,
                                    reduce_vertices=g.essential_vertices()),
        lambda g: build_swiatkowski(g, 3)],
        ids=["partly-reduced", "canonical"])
    def test_other_bases_reduce_only_the_morse_complex(self, monkeypatch,
                                                       build):
        # the Morse complex of the all-reduced basis serves every basis:
        # the full complex lists no cell and writes no boundary
        import importlib
        from confhom import swiatkowski
        hom = importlib.import_module("confhom.homology")
        calls = []
        real = hom._reduce
        monkeypatch.setattr(hom, "_reduce",
                            lambda cx: calls.append(cx) or real(cx))

        def refuse(*args):
            raise AssertionError("the boundaries were written")

        monkeypatch.setattr(swiatkowski, "_write_boundaries", refuse)
        cx = build(build_family("lasso"))
        assert homology(cx).betti_vector() == (1, 3, 0, 0)
        # every other call reduces a one-map complex of smith_normal_form
        assert _not_snf(calls) == [cx.morse_complex()[0]]
        assert cx._reduction is None
        assert callable(cx._cells) and callable(cx._boundaries)

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
        assert _not_snf(calls) == [cx.morse_complex()[0]]
        assert cx._reduction is None

    def test_flipped_sign_drops_both_caches(self):
        # a reader of the triplets meets the flipped sign; the Morse path
        # reads none, so its answer does not change
        cx = build_swiatkowski(build_family("k33"), 5, reduce_vertices="all")
        morse_reduce(cx)
        assert cx.morse_complex() is not None
        vals = cx.boundary_triplets(3)[2]
        vals[len(vals) // 2] *= -1
        with pytest.raises(BoundaryError, match="dimension 3"):
            homology(cx, reduce=False)
        assert cx._morse is None and cx._reduction is None
        assert homology(cx).betti_vector() == (1, 4, 28, 10, 0, 0)

    def test_flipped_y_table_drops_both_caches(self, monkeypatch):
        cx = build_swiatkowski(build_family("k33"), 5, reduce_vertices="all")
        morse_reduce(cx)
        flipped = flip_y_table(monkeypatch.setattr, 3)
        with pytest.raises(BoundaryError) as info:
            homology(cx)
        assert str(info.value) == ("dd != 0 at dimension 3, y state part "
                                   f"{flipped[0]}")
        assert cx._morse is None and cx._reduction is None

    def test_the_morse_complex_is_checked_once(self, monkeypatch):
        # the triplets are checked by their readers, once; the Morse path
        # checks its Morse complex, once
        calls = []
        real = ChainComplex.check_boundary_squared
        monkeypatch.setattr(ChainComplex, "check_boundary_squared",
                            lambda cx: calls.append(cx) or real(cx))
        cx = build_swiatkowski(build_family("k33"), 4, reduce_vertices="all")
        homology(cx)
        homology(cx, dims=2)
        mcx = cx.morse_complex()[0]
        assert calls == [mcx] and mcx._checked and not cx._checked
        homology(cx, reduce=False)
        homology(cx, reduce=False, dims=2)
        assert calls == [mcx, cx] and cx._checked
        fresh = build_swiatkowski(build_family("k33"), 4,
                                  reduce_vertices="all")
        homology(fresh, check=False)
        assert calls == [mcx, cx]

    def test_each_table_is_proved_once(self, monkeypatch):
        # a table is proved when it compiles, whatever `check` says; a
        # table that fails is not kept, so each attempt fails again
        proved = []
        real = MorseMatching._prove
        monkeypatch.setattr(MorseMatching, "_prove", lambda m, st, faces: (
            proved.append(st) or real(m, st, faces)))
        cx = build_swiatkowski(build_family("k33"), 4, reduce_vertices="all")
        homology(cx, check=False)
        homology(cx, dims=2)
        tables = cx.morse_complex()[1].matching._tables
        assert sorted(proved) == sorted(tables)
        flipped = flip_y_table(monkeypatch.setattr, 2)
        fresh = build_swiatkowski(build_family("k33"), 4,
                                  reduce_vertices="all")
        for check in (True, False):
            with pytest.raises(BoundaryError) as info:
                homology(fresh, check=check)
            assert str(info.value) == ("dd != 0 at dimension 2, y state "
                                       f"part {flipped[0]}")
            assert fresh._morse is None

    def test_a_one_site_table_is_proved_by_the_tables_citing_it(
            self, monkeypatch):
        # the faces of a one-site table have no faces, so its own proof is
        # empty: a flipped sign there fails the proof of a two-site table
        # that has it as a face
        flipped = flip_y_table(monkeypatch.setattr, 1)
        cx = build_swiatkowski(build_family("k33"), 4, reduce_vertices="all")
        with pytest.raises(BoundaryError, match="dimension 2") as info:
            homology(cx)
        monkeypatch.undo()
        st = int(str(info.value).rsplit(" ", 1)[1])
        m = MorseMatching(cx.encoding, *choose_search(cx.encoding)[:2])
        assert flipped[0] in {st + (delta >> m.state_shift)
                              for delta, _ in m._table(st)[1]}

    def test_a_broken_morse_complex_is_caught(self):
        # the Morse complex's differential comes from the flow, not from
        # the checked triplets: flip one entry whose row has a boundary
        cx = build_swiatkowski(build_family("k33"), 4, reduce_vertices="all")
        mcx = cx.morse_complex()[0]
        lower = {}
        for r, c, v in zip(*mcx.boundary_triplets(2)):
            lower[c, r] = lower.get((c, r), 0) + v
        bounding = {c for (c, _), v in lower.items() if v}  # 2-cells
        rows, _, vals = mcx.boundary_triplets(3)
        i = next(i for i, r in enumerate(rows) if r in bounding)
        vals[i] = -vals[i]
        with pytest.raises(BoundaryError, match="dimension 3"):
            homology(cx)
        assert not cx._checked and not mcx._checked and cx._morse is None

    def test_a_dropped_complex_is_freed_at_once(self):
        # nothing the Morse path attaches refers back to cx, so dropping
        # cx frees it without the cyclic collector; nor do the tables the
        # encoding and the matching cache for the cycle layer
        from confhom.cycles import CycleSpec, product_cycle, span_rank
        cx = build_swiatkowski(build_family("k33"), 4, reduce_vertices="all")
        homology(cx)
        z = product_cycle(cx, [
            CycleSpec(kind="Y", hub="a0", branches=("e00", "e01", "e02")),
            CycleSpec(kind="Y", hub="b0", branches=("e00", "e10", "e20"))])
        assert span_rank(cx, [z], 2) == 1
        assert cx.encoding._parts and cx._morse[1].matching._y_terms
        del z
        ref = weakref.ref(cx)
        gc.disable()
        try:
            del cx
            assert ref() is None
        finally:
            gc.enable()
        # nor does the function that lists the cells, before or after it ran
        cx = build_swiatkowski(build_family("k33"), 4, reduce_vertices="all")
        homology(cx)
        assert len(cx.cells[2]) == cx.dims[2] and cx.index(2)
        ref = weakref.ref(cx)
        gc.disable()
        try:
            del cx
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("build", [
        lambda: build_swiatkowski(build_family("k33"), 4),
        lambda: build_swiatkowski(build_family("k33"), 4,
                                  reduce_vertices="all"),
        lambda: build_abrams(order_vertices(subdivide_for(
            build_family("k4"), 3)), 3),
        # the Morse path's listing of the critical cells as well
        lambda: _with_homology(build_swiatkowski(build_family("k33"), 4,
                                                 reduce_vertices="all")),
        lambda: _with_homology(build_abrams(order_vertices(subdivide_for(
            build_family("k33"), 4)), 4)),
    ], ids=["None", "all", "cube", "all-homology", "cube-homology"])
    def test_the_build_leaves_no_garbage_cycle(self, build):
        # nothing the build makes refers to itself, so its temporaries go
        # when it returns, not when the collector next runs, which the d^2
        # check and the Morse path hold off
        gc.collect()
        gc.disable()
        try:
            cx = build()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert cx.n_cells()

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

    def test_peak_memory_of_the_build_and_homology(self):
        # k33 n=6, traced from before the build: 6.85 MB when the builder
        # listed all 87,139 all-reduced cells, 3.00 MB now that the Morse
        # path lists none; the canonical basis, 596,083 cells, reads the
        # same Morse complex at 2.34 MB
        for basis, cells in (("all", 87139), (None, 596083)):
            tracemalloc.start()
            try:
                cx = build_swiatkowski(build_family("k33"), 6,
                                       reduce_vertices=basis)
                h = homology(cx)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert cx.n_cells() == cells
            assert h.betti_vector() == (1, 4, 37, 39, 0, 0, 0)
            assert peak < 4_500_000

    def test_peak_memory_of_the_checked_homology(self):
        # the same with the triplets written and checked: the slot proof
        # gathers about 32k targets at a time, where the column check held
        # every column's entries as tuples, at about 9 MB
        cx = build_swiatkowski(build_family("k33"), 5, reduce_vertices="all")
        tracemalloc.start()
        try:
            cx.check_boundary_squared()
            h = homology(cx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cx._checked and h.betti_vector() == (1, 4, 28, 10, 0, 0)
        assert peak < 5_000_000


def _bases(g, n):
    """The builds of the differential: the canonical basis, each essential
    vertex reduced alone, and one seeded random subset of the sites."""
    rng = random.Random(f"{g.name}/{n}")
    subset = tuple(v for v in g.vertices if g.degree(v) >= 2
                   and rng.random() < 0.5)
    return ([lambda: build_swiatkowski(g, n)]
            + [lambda v=v: build_swiatkowski(g, n, reduce_vertices=(v,))
               for v in g.essential_vertices()]
            + [lambda: build_swiatkowski(g, n, reduce_vertices=subset)])


def _agrees_with_the_generic_reduction(g, n):
    for build in _bases(g, n):
        cx = build()
        h = homology(cx)
        mcx = cx.morse_complex()[0]
        generic = homology(_without_morse(build()))
        assert _nonzero(h) == _nonzero(generic)
        assert (h.euler == generic.euler == cx.euler_characteristic()
                == mcx.euler_characteristic())
        assert callable(cx._cells) and cx._reduction is None


class TestEveryBasis:
    """Canonical and partly reduced complexes read the Morse complex of the
    all-reduced basis through the retraction pi: their homology and class
    ranks against the generic reduction of the complex itself, and the
    checks of pi."""

    @pytest.mark.parametrize("fam,n", BRUTE + [
        row for row in tables.CROSS_MODEL_SET if row not in BRUTE])
    def test_homology_agrees_with_the_generic_reduction(self, fam, n):
        _agrees_with_the_generic_reduction(_graph(fam), n)

    @pytest.mark.extended
    @pytest.mark.parametrize("fam", ["k4", "k33", "wheel:5"])
    def test_homology_agrees_at_five_particles(self, fam):
        _agrees_with_the_generic_reduction(build_family(fam), 5)

    @pytest.mark.parametrize("fam,v,n", [("wheel:5", "h", 4),
                                         ("net:4", "w", 3)])
    def test_blowup_class_ranks_agree(self, fam, v, n):
        # the connecting map's columns in the canonical n-particle complex
        # of the blown-up graph, ranked through pi and the flow and by the
        # generic reduction
        from confhom.blowup import _delta_columns, blowup, sequence_complexes
        from confhom.homology import class_span_rank, homology_generators
        ctx = blowup(build_family(fam), v)
        cx_low, cx_n, _ = sequence_complexes(ctx, n)
        generic = _without_morse(sequence_complexes(ctx, n)[1])
        ranks = []
        for d in range(1, n):
            gens = homology_generators(cx_low, d)
            for cx in (cx_n, generic):
                cols = _delta_columns(ctx, gens, cx, ctx.reference_edge)
                flat = [z for e in ctx.half_edges[1:] for z in cols[e]]
                ranks.append(class_span_rank(cx, flat, d) if flat else 0)
        assert ranks[::2] == ranks[1::2] and any(ranks)
        assert cx_n._reduction is None and generic._reduction is not None

    def test_a_flipped_sign_in_the_triplets_is_read_off_the_morse_path(self):
        # pi and the flow read no triplet of the canonical complex: its
        # readers, the generic path's, meet the flipped sign
        cx = build_swiatkowski(build_family("k33"), 3)
        assert homology(cx).betti_vector() == (1, 4, 8, 0)
        vals = cx.boundary_triplets(2)[2]
        vals[len(vals) // 2] *= -1
        with pytest.raises(BoundaryError, match="dimension 2"):
            homology(cx, reduce=False)
        assert cx._morse is None and cx._reduction is None
        assert homology(cx).betti_vector() == (1, 4, 8, 0)

    @pytest.mark.parametrize("table", ["retract", "include", "homotopy"])
    def test_a_flipped_retraction_table_drops_both_caches(self, table):
        # one sign flipped in one site's pi, iota or H: the check of the
        # site's identities names the dimension and the one-site state
        # part of the code whose identities fail
        cx = build_swiatkowski(build_family("k33"), 3)
        enc = cx.encoding
        i = 1
        h0 = OCCUPIED + 1
        row = getattr(enc, table)[i]
        if table == "retract":  # pi(h_1) = -x_1
            k, edge, sign = row[h0 + 1]
            row[h0 + 1] = (k, edge, -sign)
            code = h0 + 1
        elif table == "include":  # iota(x_1) = h_1 + h_0
            (c1, w1), (c0, w0) = row[1]
            row[1] = ((c1, w1), (c0, -w0))
            code = h0 + 1
        else:  # H(v) = -h_0
            c, w = row[OCCUPIED]
            row[OCCUPIED] = (c, -w)
            code = OCCUPIED
        st, faces = enc.site_rule(i)[code]
        with pytest.raises(BoundaryError) as info:
            homology(cx)
        assert str(info.value) == (
            "the retraction is not a homotopy equivalence at dimension "
            f"{len(faces) // 2}, state part {st}")
        assert cx._morse is None and cx._reduction is None

    def test_a_flipped_canonical_table_breaks_the_chain_map(self):
        # one sign flipped in the table of a face of a product's cells:
        # the face's state part is converted, and so checked, first
        from confhom.cycles import CycleSpec, product_cycle, span_rank
        cx = build_swiatkowski(build_family("k33"), 4)
        homology(cx)
        z = product_cycle(cx, [
            CycleSpec(kind="Y", hub="a0", branches=("e00", "e01", "e02")),
            CycleSpec(kind="Y", hub="b0", branches=("e00", "e10", "e20"))])
        enc = cx.encoding
        face = next(f // enc.edge_span for key in z.data
                    for f, _ in enc.cell_faces(key)
                    if cx._morse[1].matching._convert(f // enc.edge_span))
        states, hsites, ((delta, w), *rest) = enc.part(face)
        enc._parts[face] = (states, hsites, ((delta, -w), *rest))
        with pytest.raises(BoundaryError, match="not a chain map at dimension "
                           f"1, state part {face}$"):
            span_rank(cx, [z], 2)
        assert cx._morse is None and cx._reduction is None

    def test_a_face_that_pi_sends_to_zero_is_proved(self):
        # pi sends h_0 to 0, so a sign flipped in a face that holds h_0
        # leaves the chain map identity intact; d^2 = 0 on the state part
        # citing it fails
        g = build_family("theta:4")
        cx = build_swiatkowski(g, 3)
        enc = cx.encoding
        u, v = (enc.site_of[w] for w in ("u", "v"))
        h0 = OCCUPIED + 1
        # h_0 at u and h_1 at v; its third face is h_0 at u, with the
        # particle of v on v's edge 1
        st = enc.encode_part({"u": ("h", enc.specs[u][h0][1]),
                              "v": ("h", enc.specs[v][h0 + 1][1])})[0]
        st //= enc.edge_span
        states, hsites, faces = enc.part(st)
        (delta, w) = faces[2]
        assert not cx.morse_complex()[1].matching._convert(
            st + delta // enc.edge_span)
        enc._parts[st] = (states, hsites,
                          faces[:2] + ((delta, -w),) + faces[3:])
        with pytest.raises(BoundaryError, match=f"dd != 0 at dimension 2, "
                           f"state part {st}$"):
            cx.morse_complex()[1].matching.from_builder(st * enc.edge_span)
