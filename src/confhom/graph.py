"""Multigraph data model, named graph families, subdivision, and the
spanning-tree vertex ordering used by the discrete cube-complex boundary map.

Vertices and edges carry opaque hashable ids (strings in all built-in
families).  Multi-edges are allowed, self-loops are not.  The per-vertex
"clockwise" order of edge ends is the order in which edges appear in the
input edge list; every construction here is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import ceil


class GraphError(ValueError):
    pass


class InsufficientSubdivision(GraphError):
    """Raised when a graph violates the subdivision conditions for n particles.

    Carries the violated condition and a witness path or loop.
    """

    def __init__(self, condition, witness, n):
        self.condition = condition
        self.witness = witness
        self.n = n
        super().__init__(
            f"graph not sufficiently subdivided for n={n}: {condition} "
            f"(witness: {witness})"
        )


class Graph:
    """Finite multigraph without self-loops.

    edges are (edge_id, endpoint_a, endpoint_b) triples; a bare (a, b) pair
    gets the id "e<k>" from its position.
    """

    def __init__(self, vertices, edges, name=""):
        self.name = name
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("duplicate vertex ids")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        norm = []
        for k, e in enumerate(edges):
            if len(e) == 3:
                eid, u, v = e
            else:
                u, v = e
                eid = f"e{k}"
            if u not in self._vindex or v not in self._vindex:
                raise GraphError(f"edge {eid!r} references unknown vertex")
            if u == v:
                raise GraphError(f"edge {eid!r} is a self-loop")
            norm.append((eid, u, v))
        self.edges = tuple(norm)
        self._eindex = {e[0]: i for i, e in enumerate(self.edges)}
        if len(self._eindex) != len(self.edges):
            raise GraphError("duplicate edge ids")
        # half-edge incidence in input order; this fixes the "clockwise"
        # direction order at every vertex
        inc = {v: [] for v in self.vertices}
        for i, (eid, u, v) in enumerate(self.edges):
            inc[u].append((i, 0))
            inc[v].append((i, 1))
        self._incidence = {v: tuple(hs) for v, hs in inc.items()}

    # -- basic queries ----------------------------------------------------

    def degree(self, v):
        return len(self.half_edges(v))

    def half_edges(self, v):
        """Edge ends at v as (edge_index, end) pairs, in clockwise order."""
        try:
            return self._incidence[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def edge(self, eid):
        return self.edges[self.edge_index(eid)]

    def edge_index(self, eid):
        try:
            return self._eindex[eid]
        except KeyError:
            raise GraphError(f"unknown edge {eid!r}") from None

    def endpoints(self, eid):
        _, u, v = self.edge(eid)
        return u, v

    def other_end(self, eidx, v):
        _, a, b = self.edges[eidx]
        if v == a:
            return b
        if v == b:
            return a
        raise GraphError(f"{v!r} is not an endpoint of edge {self.edges[eidx][0]!r}")

    def is_simple(self):
        seen = set()
        for _, u, v in self.edges:
            key = frozenset((u, v))
            if key in seen:
                return False
            seen.add(key)
        return True

    def essential_vertices(self):
        return tuple(v for v in self.vertices if self.degree(v) >= 3)

    def is_connected(self):
        if not self.vertices:
            return True
        return len(self._component(self.vertices[0])) == len(self.vertices)

    def _component(self, start):
        seen = {start}
        todo = [start]
        while todo:
            v = todo.pop()
            for eidx, _ in self._incidence[v]:
                w = self.other_end(eidx, v)
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    def first_betti(self):
        """|E| - |V| + #components of the underlying graph."""
        comps = 0
        seen = set()
        for v in self.vertices:
            if v not in seen:
                comps += 1
                seen |= self._component(v)
        return len(self.edges) - len(self.vertices) + comps

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return json.dumps(
            {"vertices": list(self.vertices),
             "edges": [[u, v] for _, u, v in self.edges]},
            separators=(",", ":"))

    @classmethod
    def from_json(cls, text, name=""):
        data = json.loads(text)
        return cls(data["vertices"], [tuple(e) for e in data["edges"]], name=name)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        name = f" {self.name!r}" if self.name else ""
        return f"<Graph{name} |V|={len(self.vertices)} |E|={len(self.edges)}>"


# -- subdivision ----------------------------------------------------------

def _segments(g: Graph):
    """Maximal chains between vertices of degree != 2.

    Returns (length, [vertex ids along the chain]) for every such chain.
    Cycles made entirely of degree-2 vertices are not segments (they are
    handled by the girth condition).
    """
    ends = [v for v in g.vertices if g.degree(v) != 2]
    out = []
    seen_edges = set()
    for s in ends:
        for eidx, _ in g.half_edges(s):
            if eidx in seen_edges:
                continue
            path = [s]
            prev, cur, ce = s, g.other_end(eidx, s), eidx
            used = [eidx]
            while g.degree(cur) == 2:
                path.append(cur)
                nxt = [(ei, g.other_end(ei, cur))
                       for ei, _ in g.half_edges(cur) if ei != ce]
                ce, cur = nxt[0][0], nxt[0][1]
                used.append(ce)
            path.append(cur)
            seen_edges.update(used)
            if cur != s or len(used) > 1:
                # a chain from s back to s is a cycle, not a path between
                # distinct vertices
                if cur != s:
                    out.append((len(used), path))
    return out


def _girth(g: Graph):
    """Length of a shortest cycle and a witness vertex list; (None, None)
    if the graph is a forest.  Parallel edges give cycles of length 2."""
    best = None
    witness = None
    for i, (eid, u, v) in enumerate(g.edges):
        # shortest u-v path avoiding edge i
        dist = {u: 0}
        par = {u: None}
        todo = [u]
        while todo:
            nxt = []
            for x in todo:
                for eidx, _ in g.half_edges(x):
                    if eidx == i:
                        continue
                    y = g.other_end(eidx, x)
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        par[y] = x
                        nxt.append(y)
            todo = nxt
        if v in dist:
            cyc = dist[v] + 1
            if best is None or cyc < best:
                best = cyc
                path = [v]
                while path[-1] is not None and par[path[-1]] is not None:
                    path.append(par[path[-1]])
                witness = path
    return best, witness


def check_subdivided(g: Graph, n: int):
    """Raise InsufficientSubdivision unless g satisfies both conditions for
    n particles: essential paths >= n-1 edges and loops >= n+1 edges."""
    if not g.is_simple():
        raise InsufficientSubdivision("graph must be simple", "parallel edges", n)
    for length, path in _segments(g):
        if length < n - 1:
            raise InsufficientSubdivision(
                f"path between vertices of degree != 2 has {length} < n-1 edges",
                path, n)
    girth, cyc = _girth(g)
    if girth is not None and girth < n + 1:
        raise InsufficientSubdivision(
            f"loop with {girth} < n+1 edges", cyc, n)


def subdivide_for(g: Graph, n: int) -> Graph:
    """Uniformly subdivide every edge into k parts, with k the smallest
    integer making g sufficiently subdivided (and simple) for n particles.

    Idempotent on graphs that already satisfy both conditions.
    """
    if n < 1:
        raise GraphError("n must be >= 1")
    k = 1
    segs = _segments(g)
    if segs:
        shortest = min(length for length, _ in segs)
        k = max(k, ceil((n - 1) / shortest)) if n > 1 else k
    girth, _ = _girth(g)
    if girth is not None:
        k = max(k, ceil((n + 1) / girth))
    if k == 1 and not g.is_simple():
        k = 2
    if k == 1:
        return g
    vertices = list(g.vertices)
    edges = []
    for eid, u, v in g.edges:
        chain = [u] + [f"{eid}.{i}" for i in range(1, k)] + [v]
        vertices.extend(chain[1:-1])
        for i in range(k):
            edges.append((f"{eid}:{i}", chain[i], chain[i + 1]))
    return Graph(vertices, edges, name=f"{g.name}/{k}" if g.name else "")


# -- spanning-tree vertex order -------------------------------------------

class OrderedGraph:
    """A simple connected graph with the depth-first vertex labelling.

    Labels run 1..|V| with label(root) = 1; every edge e gets
    tau(e) < iota(e), its lower- and higher-labelled endpoints.  At each
    vertex, direction 0 points along the tree towards the root and the
    remaining directions follow the clockwise (incidence-list) order.
    """

    def __init__(self, graph: Graph, root, labels, tree_edges):
        self.graph = graph
        self.root = root
        self.labels = dict(labels)
        self.spanning_tree = frozenset(tree_edges)
        # edge order: by (tau, iota) label pair
        self.edge_tau_iota = []
        for eid, u, v in graph.edges:
            lu, lv = self.labels[u], self.labels[v]
            self.edge_tau_iota.append((min(lu, lv), max(lu, lv)))
        self.edge_order = sorted(
            range(len(graph.edges)), key=lambda i: self.edge_tau_iota[i])

    def edge_name(self, eidx):
        t, i = self.edge_tau_iota[eidx]
        return f"e_{t}^{i}"


def order_vertices(g: Graph, root=None) -> OrderedGraph:
    """Label the vertices of a simple connected graph by the clockwise
    depth-first rule: consecutive labels along degree-2 chains, backtracking
    to the nearest vertex with an unexplored lowest direction."""
    if not g.is_simple():
        raise GraphError("vertex ordering requires a simple graph")
    if not g.vertices:
        raise GraphError("empty graph")
    if root is None:
        # prefer a leaf, then a degree-2 vertex, so the root ends up with
        # degree 1 in the spanning tree and below every junction
        for want in (1, 2):
            cand = [v for v in g.vertices if g.degree(v) == want]
            if cand:
                root = cand[0]
                break
        else:
            root = g.vertices[0]
    if root not in g._vindex:
        raise GraphError(f"root {root!r} not in graph")
    if not g.is_connected():
        raise GraphError("graph is not connected")

    labels = {root: 1}
    tree = set()

    def directions(v, parent_eidx):
        inc = g.half_edges(v)
        if parent_eidx is None:
            return list(inc)
        k = next(i for i, (e, _) in enumerate(inc) if e == parent_eidx)
        rot = list(inc[k:]) + list(inc[:k])
        return rot[1:]  # parent direction is 0; children follow clockwise

    stack = [(root, iter(directions(root, None)))]
    while stack:
        v, it = stack[-1]
        for eidx, _ in it:
            w = g.other_end(eidx, v)
            if w not in labels:
                labels[w] = len(labels) + 1
                tree.add(g.edges[eidx][0])
                stack.append((w, iter(directions(w, eidx))))
                break
        else:
            stack.pop()
    return OrderedGraph(g, root, labels, tree)


# -- named families --------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple = ()

    def __str__(self):
        if not self.params:
            return self.family
        return f"{self.family}:{','.join(str(p) for p in self.params)}"


_ALIASES = {
    "y": ("star", (3,)),
    "k4": ("complete", (4,)),
    "k5": ("complete", (5,)),
    "k6": ("complete", (6,)),
    "k33": ("complete_bipartite", (3, 3)),
    "k331": ("complete_tripartite", (3, 3, 1)),
    "tree": ("linear_tree", None),
}

# The seven graphs closed under triangle-Y exchanges starting from K6,
# keyed by vertex count; the two 8-vertex members are distinguished below.
_PETERSEN_EDGES = {
    7: [(0, 3), (0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6),
        (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 5)],
    8: [(0, 5), (0, 6), (0, 7), (1, 3), (1, 4), (1, 5), (1, 6),
        (2, 3), (2, 4), (2, 5), (2, 6), (3, 5), (3, 7), (4, 5), (4, 7)],
    9: [(0, 5), (0, 6), (0, 7), (1, 4), (1, 6), (1, 8), (2, 3), (2, 4),
        (2, 5), (2, 6), (3, 7), (3, 8), (4, 5), (4, 7), (5, 8)],
}


def parse_family(text: str) -> FamilySpec:
    """Parse a family DSL string such as "wheel:5" or "complete_bipartite:2,4"."""
    name, _, rest = text.strip().partition(":")
    name = name.lower()
    params = tuple(int(p) for p in rest.split(",")) if rest else ()
    if name in _ALIASES:
        fam, fixed = _ALIASES[name]
        return FamilySpec(fam, fixed if fixed is not None else params)
    return FamilySpec(name, params)


def build_family(spec) -> Graph:
    """Construct a named family graph with deterministic vertex/edge ids."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    fam, p = spec.family, spec.params

    def need(count, cond=True):
        if len(p) != count or not cond:
            raise GraphError(f"bad parameters for family {fam!r}: {p}")

    if fam == "star":
        need(1, p and p[0] >= 1)
        k = p[0]
        return Graph(["c"] + [f"l{i}" for i in range(k)],
                     [(f"e{i}", "c", f"l{i}") for i in range(k)],
                     name=str(spec))
    if fam == "linear_tree":
        need(1, p and p[0] >= 1)
        m = p[0]
        verts = ["s0"] + [f"x{i}" for i in range(1, m + 1)] + ["s1"]
        verts += [f"l{i}" for i in range(1, m + 1)]
        spine = ["s0"] + [f"x{i}" for i in range(1, m + 1)] + ["s1"]
        edges = [(f"p{i}", spine[i], spine[i + 1]) for i in range(m + 1)]
        edges += [(f"q{i}", f"x{i}", f"l{i}") for i in range(1, m + 1)]
        return Graph(verts, edges, name=str(spec))
    if fam == "net":
        need(1, p and p[0] >= 2)
        m = p[0]
        ring = [f"x{i}" for i in range(1, m + 1)] + ["w"]
        verts = ring + [f"l{i}" for i in range(1, m + 1)]
        edges = [(f"c{i}", ring[i], ring[(i + 1) % (m + 1)]) for i in range(m + 1)]
        edges += [(f"q{i}", f"x{i}", f"l{i}") for i in range(1, m + 1)]
        return Graph(verts, edges, name=str(spec))
    if fam == "wheel":
        need(1, p and p[0] >= 4)
        m = p[0]
        rim = [f"r{i}" for i in range(m - 1)]
        edges = [(f"c{i}", rim[i], rim[(i + 1) % (m - 1)]) for i in range(m - 1)]
        edges += [(f"s{i}", "h", rim[i]) for i in range(m - 1)]
        return Graph(rim + ["h"], edges, name=str(spec))
    if fam == "complete":
        need(1, p and p[0] >= 2)
        k = p[0]
        verts = [f"v{i}" for i in range(k)]
        edges = [(f"e{i}{j}", f"v{i}", f"v{j}")
                 for i in range(k) for j in range(i + 1, k)]
        return Graph(verts, edges, name=str(spec))
    if fam == "complete_bipartite":
        need(2, len(p) == 2 and min(p) >= 1)
        a, b = p
        verts = [f"a{i}" for i in range(a)] + [f"b{j}" for j in range(b)]
        edges = [(f"e{i}{j}", f"a{i}", f"b{j}")
                 for i in range(a) for j in range(b)]
        return Graph(verts, edges, name=str(spec))
    if fam == "complete_tripartite":
        need(3, len(p) == 3 and min(p) >= 1)
        parts = [[f"{c}{i}" for i in range(k)] for c, k in zip("abc", p)]
        verts = [v for part in parts for v in part]
        edges = []
        for x in range(3):
            for y in range(x + 1, 3):
                for u in parts[x]:
                    for v in parts[y]:
                        edges.append((f"e_{u}_{v}", u, v))
        return Graph(verts, edges, name=str(spec))
    if fam == "theta":
        need(1, p and p[0] >= 2)
        k = p[0]
        return Graph(["u", "v"], [(f"e{i}", "u", "v") for i in range(1, k + 1)],
                     name=str(spec))
    if fam == "lasso":
        if p:
            raise GraphError("lasso takes no parameters")
        return Graph(["v1", "v2", "v3", "v4"],
                     [("t", "v1", "v2"), ("a", "v2", "v3"),
                      ("b", "v3", "v4"), ("c", "v2", "v4")],
                     name="lasso")
    if fam in ("petersen", "petersen_family"):
        need(1, p and p[0] in (6, 7, 8, 9, 10))
        k = p[0]
        if k == 6:
            g = build_family(FamilySpec("complete", (6,)))
            return Graph(g.vertices, g.edges, name=str(spec))
        if k == 10:
            verts = [f"v{i}" for i in range(10)]
            edges = [(f"o{i}", f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]
            edges += [(f"s{i}", f"v{i}", f"v{i + 5}") for i in range(5)]
            edges += [(f"i{i}", f"v{5 + i}", f"v{5 + (i + 2) % 5}") for i in range(5)]
            return Graph(verts, edges, name=str(spec))
        raw = _PETERSEN_EDGES[k]
        verts = [f"v{i}" for i in range(k)]
        edges = [(f"e{i}", f"v{u}", f"v{v}") for i, (u, v) in enumerate(raw)]
        return Graph(verts, edges, name=str(spec))
    if fam == "k44e":
        # the 8-vertex Petersen-family member: K_{4,4} minus one edge
        if p:
            raise GraphError("k44e takes no parameters")
        verts = [f"a{i}" for i in range(4)] + [f"b{j}" for j in range(4)]
        edges = [(f"e{i}{j}", f"a{i}", f"b{j}")
                 for i in range(4) for j in range(4) if not (i == 3 and j == 3)]
        return Graph(verts, edges, name="k44e")
    raise GraphError(f"unknown family {fam!r}")
