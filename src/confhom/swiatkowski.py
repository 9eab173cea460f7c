"""The bigraded half-edge chain complex of a multigraph, restricted to a
fixed particle number, with optional difference-generator reduction at
chosen vertices.

A cell assigns every vertex of degree >= 2 a state (empty, occupied, or one
of its half-edges), every edge a particle multiplicity, and has dimension
equal to the number of half-edge states.  Degree-1 vertices carry no state.
The boundary of a half-edge is (its edge) - (its vertex); products follow
the alternating-sign rule in a fixed global vertex order.

Reduced sites replace {occupied, h_0..h_{d-1}} by differences h_k - h_0
against the site's first half-edge; reduced and unreduced complexes have
the same homology.  A complex with every site reduced and no dimension cap
carries the builder of its algebraic Morse complex (`confhom.critical`),
which `homology` and class ranks use in place of reducing it cell by cell.
"""

from __future__ import annotations

from array import array
from itertools import chain
from math import comb

from .complexes import Chain, ChainComplex, ResourceLimitExceeded
from .graph import Graph, GraphError

EMPTY = 0
OCCUPIED = 1


class SwEncoding:
    """Packed-integer cell encoding for one (graph, n, reduced set) build."""

    def __init__(self, g: Graph, n: int, reduced):
        self.graph = g
        self.n = n
        self.reduced = frozenset(reduced)
        self.sites = tuple(v for v in g.vertices if g.degree(v) >= 2)
        self.site_of = {v: i for i, v in enumerate(self.sites)}
        # edge digits (least significant), then site digits
        self.eplace = []
        place = 1
        for _ in g.edges:
            self.eplace.append(place)
            place *= n + 1
        self.splace = []
        self.nstates = []
        self.state_tables = []  # per site: list of (weight, is_h, face_info)
        for v in self.sites:
            hs = g.half_edges(v)
            if v in self.reduced:
                # 0 = empty, k = h_k - h_0 for k = 1..deg-1
                table = [(0, False, None)]
                e0 = hs[0][0]
                for eidx, _ in hs[1:]:
                    table.append((1, True, ("d", eidx, e0)))
            else:
                # 0 = empty, 1 = occupied vertex, 2+k = half-edge k
                table = [(0, False, None), (1, False, None)]
                for eidx, _ in hs:
                    table.append((1, True, ("h", eidx)))
            self.splace.append(place)
            self.nstates.append(len(table))
            self.state_tables.append(table)
            place *= len(table)

    # -- decoding ---------------------------------------------------------

    def digits(self, key):
        """(state codes per site, multiplicities per edge)."""
        mults = []
        k = key
        for _ in self.eplace:
            k, m = k // (self.n + 1), k % (self.n + 1)
            mults.append(m)
        states = []
        for ns in self.nstates:
            k, s = k // ns, k % ns
            states.append(s)
        return states, mults

    def dim_of(self, key):
        states, _ = self.digits(key)
        return sum(1 for i, s in enumerate(states)
                   if self.state_tables[i][s][1])

    def describe(self, key):
        states, mults = self.digits(key)
        parts = []
        for i, s in enumerate(states):
            v = self.sites[i]
            w, is_h, info = self.state_tables[i][s]
            if s == EMPTY:
                continue
            if not is_h:
                parts.append(f"{v}")
            elif info[0] == "h":
                parts.append(f"h({v},{self.graph.edges[info[1]][0]})")
            else:
                e1 = self.graph.edges[info[1]][0]
                e0 = self.graph.edges[info[2]][0]
                parts.append(f"(h({v},{e1})-h({v},{e0}))")
        for j, m in enumerate(mults):
            if m:
                eid = self.graph.edges[j][0]
                parts.append(eid if m == 1 else f"{eid}^{m}")
        return "|".join(parts) if parts else "1"

    # -- encoding ---------------------------------------------------------

    def encode(self, states=None, edges=None):
        """Build a packed cell from {vertex: state} and {edge_id: mult}.

        State specs: "v" (occupied), ("h", edge_id), ("d", edge_id) for the
        difference generator h(edge_id) - h(reference).
        """
        g = self.graph
        key = 0
        total = 0
        for v, spec in (states or {}).items():
            i = self.site_of[v]
            table = self.state_tables[i]
            code = None
            if spec == "v":
                if v in self.reduced:
                    raise GraphError(f"site {v!r} is reduced; no occupied state")
                code = OCCUPIED
            else:
                kind, eid = spec
                eidx = g.edge_index(eid)
                for c, (_, is_h, info) in enumerate(table):
                    if is_h and info[1] == eidx:
                        code = c
                        break
                if code is None:
                    raise GraphError(f"no half-edge of {eid!r} at {v!r}")
            key += code * self.splace[i]
            total += table[code][0]
        for eid, m in (edges or {}).items():
            j = g.edge_index(eid)
            key += m * self.eplace[j]
            total += m
        if total != self.n:
            raise GraphError(f"cell has {total} particles, expected {self.n}")
        return key

    def cell_faces(self, key):
        """Boundary of a single cell as [(face_key, coeff), ...]."""
        states, _ = self.digits(key)
        out = []
        sign = 1
        for i, s in enumerate(states):
            w, is_h, info = self.state_tables[i][s]
            if not is_h:
                continue
            if info[0] == "h":
                eidx = info[1]
                out.append((key + (EMPTY - s) * self.splace[i]
                            + self.eplace[eidx], sign))
                out.append((key + (OCCUPIED - s) * self.splace[i], -sign))
            else:
                _, eidx, e0 = info
                out.append((key + (EMPTY - s) * self.splace[i]
                            + self.eplace[eidx], sign))
                out.append((key + (EMPTY - s) * self.splace[i]
                            + self.eplace[e0], -sign))
            sign = -sign
        return out

    def support(self, key):
        """Edges and vertices of the graph carried by one cell."""
        g = self.graph
        states, mults = self.digits(key)
        edges, verts = set(), set()
        for i, s in enumerate(states):
            v = self.sites[i]
            _, is_h, info = self.state_tables[i][s]
            if s == EMPTY:
                continue
            if not is_h:
                verts.add(v)
            elif info[0] == "h":
                edges.add(g.edges[info[1]][0])
                verts.add(v)
            else:
                edges.add(g.edges[info[1]][0])
                edges.add(g.edges[info[2]][0])
                verts.add(v)
        for j, m in enumerate(mults):
            if m:
                edges.add(g.edges[j][0])
        return edges, verts


def _resolve_reduced(g: Graph, reduce_vertices):
    if reduce_vertices is None:
        return frozenset()
    if reduce_vertices == "essential":
        return frozenset(g.essential_vertices())
    if reduce_vertices == "all":
        return frozenset(v for v in g.vertices if g.degree(v) >= 2)
    return frozenset(reduce_vertices)


def build_swiatkowski(g: Graph, n: int, max_dim=None, reduce_vertices=None,
                      max_cells=None) -> ChainComplex:
    """Particle-number-n slice of the half-edge complex of g.

    reduce_vertices: None for the canonical basis (degree-1 vertices are
    always reduced away), "essential"/"all", or an iterable of vertices to
    present by difference generators.
    """
    if n < 0:
        raise GraphError("n must be >= 0")
    reduced = _resolve_reduced(g, reduce_vertices)
    for v in reduced:
        if g.degree(v) < 2:
            raise GraphError(f"cannot reduce degree-{g.degree(v)} vertex {v!r}")
    enc = SwEncoding(g, n, reduced)
    nsites = len(enc.sites)
    nedges = len(g.edges)
    dim_cap = (max_dim + 1) if max_dim is not None else nsites

    # edge-distribution packings, cached per remaining particle count
    comp_cache = {}

    def compositions(r):
        if r in comp_cache:
            return comp_cache[r]
        if nedges == 0:
            vals = [0] if r == 0 else []
            comp_cache[r] = vals
            return vals
        out = []

        def rec(j, left, acc):
            if j == nedges - 1:
                out.append(acc + left * enc.eplace[j])
                return
            for m in range(left + 1):
                rec(j + 1, left - m, acc + m * enc.eplace[j])

        rec(0, r, 0)
        comp_cache[r] = out
        return out

    # enumerate state combinations, then splice in edge distributions.
    # faces lists (dstate, edge, sign): a face changes one site's state by
    # dstate and, when edge is not None, moves its particle onto that edge.
    combos = []  # (state_pack, used, h_count, faces)

    def rec_state(i, pack, used, hcount, faces):
        if i == nsites:
            if used <= n:
                combos.append((pack, used, hcount, tuple(faces)))
            return
        table = enc.state_tables[i]
        place = enc.splace[i]
        for code, (w, is_h, info) in enumerate(table):
            if used + w > n:
                continue
            if is_h:
                if hcount + 1 > dim_cap:
                    continue
                sign = 1 if hcount % 2 == 0 else -1
                faces.append(((EMPTY - code) * place, info[1], sign))
                if info[0] == "h":
                    faces.append(((OCCUPIED - code) * place, None, -sign))
                else:
                    faces.append(((EMPTY - code) * place, info[2], -sign))
                rec_state(i + 1, pack + code * place, used + w,
                          hcount + 1, faces)
                del faces[-2:]
            else:
                rec_state(i + 1, pack + code * place, used + w, hcount, faces)

    rec_state(0, 0, 0, 0, [])

    if max_cells is not None:
        # a state combination with `used` particles on its sites takes
        # len(compositions(n - used)) cells: count them before building any
        if nedges:
            total = sum(comb(n - used + nedges - 1, nedges - 1)
                        for _, used, _, _ in combos)
        else:
            total = sum(1 for _, used, _, _ in combos if used == n)
        if total > max_cells:
            raise ResourceLimitExceeded(
                f"complex has {total} cells, over max_cells={max_cells}")

    top = min(dim_cap, max((h for _, _, h, _ in combos), default=0))
    cells = [[] for _ in range(top + 1)]
    runs = [[] for _ in range(top + 1)]  # (pack, used, faces, start, stop)
    run_start = {}  # state pack -> first index of its run in its dimension
    for pack, used, hcount, faces in combos:
        if hcount > top:
            continue
        dist = compositions(n - used)
        if dist:
            lst = cells[hcount]
            start = len(lst)
            lst += map(pack.__add__, dist)
            run_start[pack] = start
            runs[hcount].append((pack, used, faces, start, len(lst)))

    positions = {}  # r -> {distribution: index in compositions(r)}
    shift_cache = {}

    def shifted(r, j):
        """Position in compositions(r + 1) of each distribution of
        compositions(r) with one more particle on edge j."""
        if (r, j) not in shift_cache:
            if r + 1 not in positions:
                positions[r + 1] = {
                    ep: i for i, ep in enumerate(compositions(r + 1))}
            pos = positions[r + 1]
            step = enc.eplace[j]
            shift_cache[r, j] = [pos[ep + step] for ep in compositions(r)]
        return shift_cache[r, j]

    # All cells of a run share one state pack, and the i-th cell's face
    # sits in the run of the face's state pack: at position i, or at the
    # shifted position when a particle moves onto an edge.  The faces are
    # listed face by face and interleaved into each column's face order.
    boundaries = {}
    for d in range(1, top + 1):
        rows = array("l")
        cols = array("l")
        vals = array("b")
        for pack, used, faces, start, stop in runs[d]:
            face_rows = []
            for dstate, edge, _ in faces:
                s0 = run_start[pack + dstate]
                face_rows.append(
                    range(s0, s0 + stop - start) if edge is None
                    else map(s0.__add__, shifted(n - used, edge)))
            rows.extend(chain.from_iterable(zip(*face_rows)))
            cols.extend(chain.from_iterable(
                zip(*[range(start, stop)] * len(faces))))
            vals.extend(array("b", [sign for _, _, sign in faces])
                        * (stop - start))
        boundaries[d] = (rows, cols, vals)

    def morse():
        # imported on first use: importing confhom does not load it
        from .critical import morse_complex
        return morse_complex(enc)

    meta = {"model": "swiatkowski", "graph": g, "n": n,
            "reduced": reduced, "encoding": enc}
    cx = ChainComplex([len(c) for c in cells], boundaries, cells=cells,
                      meta=meta,
                      describe=lambda d, key: enc.describe(key),
                      cell_faces=lambda d, key: enc.cell_faces(key),
                      morse_complex=(morse if max_dim is None
                                     and reduced.issuperset(enc.sites)
                                     else None))
    return cx


def build_reduced_at(g: Graph, n: int, v) -> ChainComplex:
    """Complex with vertex v presented by half-edge differences against its
    first half-edge; all other vertices stay canonical.  Same homology as
    the unreduced complex in every dimension."""
    if g.degree(v) < 3:
        raise GraphError(f"vertex {v!r} is not essential")
    return build_swiatkowski(g, n, reduce_vertices=(v,))


def support(chain: Chain):
    """Union of member-cell supports: a set of edge ids and vertex ids."""
    enc = chain.complex.meta.get("encoding")
    if enc is None:
        raise ValueError("support is defined for half-edge model chains")
    edges, verts = set(), set()
    for key in chain.data:
        e, v = enc.support(key)
        edges |= e
        verts |= v
    return edges, verts


def cell(cx: ChainComplex, states=None, edges=None) -> Chain:
    """Single-cell chain helper for tests and cycle construction."""
    enc = cx.meta["encoding"]
    key = enc.encode(states, edges)
    d = enc.dim_of(key)
    if key not in cx.index(d):
        raise GraphError("cell not present in this complex")
    return Chain(cx, d, {key: 1})
