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
the same homology.  Every complex carries the builder of the algebraic
Morse complex of the all-reduced basis of its graph and n
(`confhom.critical`), which `homology` and class ranks use in place of
reducing it cell by cell; the encoding's retraction tables carry a cell of
any basis onto the all-reduced one.

The encoding (`SwEncoding`) is the one owner of this cell format, and the
complex holds it (`ChainComplex.encoding`).  It packs cells (`encode`),
unpacks them into vertex states and edge multiplicities (`decode`), and
gives each site's two faces per state once (`face_rule`), which both the
builder's triplets and the per-state-part tables read.  Other modules build,
describe and carry cells through these, never through the key's digits.

The cells sharing one state of the sites form a run, one cell per edge
part.  The builder counts the cells in closed form, per number of
particles and h-sites on the sites, which gives the dims, the Euler
characteristic and the `max_cells` refusal.  It lists the cell keys when
a consumer first reads `cells`, and writes the boundaries as slot-major
triplets, run by run, when one first reads `boundaries`; their readers
prove them (`ChainComplex.check_boundary_squared`).  The Morse path does
neither: it proves d^2 = 0 on the tables it reads (`confhom.critical`).
"""

from __future__ import annotations

from array import array
from itertools import repeat
from math import comb
from operator import add

from .complexes import Chain, ChainComplex, ResourceLimitExceeded
from .graph import Graph, GraphError

EMPTY = 0
OCCUPIED = 1


class SwEncoding:
    """Packed-integer cell encoding for one (graph, n, reduced set) build.

    A key is its state part times `edge_span` plus its edge part: the edge
    multiplicities in base n+1 (least significant), then the site state
    codes.  A cell's dimension and boundary depend on its state part alone,
    so they are read from a table per state part (`part`), built on first
    use and cached on the instance: the state codes, the h-sites (the sites
    with a half-edge state, in site order) and the face deltas with their
    signs.  Decoding a key digit by digit (`digits`) happens once per state
    part, not once per cell, except in `decode`, which gives a cell as the
    vertex states and edge multiplicities `encode` takes.
    """

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
        self.edge_span = place
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
        # per site and code: the state spec `decode` gives, and the face
        # rule, None for a code without a half-edge or else the two faces
        # as (state key delta, edge index or None, sign relative to the
        # cell's sign at this site): a face empties the site and puts its
        # particle on an edge or, at an unreduced site, on the vertex
        self.edge_ids = [eid for eid, _, _ in g.edges]
        self.specs = []
        self.face_rule = []
        for table, place in zip(self.state_tables, self.splace):
            specs, rules = [], []
            for code, (_, is_h, info) in enumerate(table):
                if not is_h:
                    specs.append("v" if code == OCCUPIED else None)
                    rules.append(None)
                    continue
                emptied = (EMPTY - code) * place
                specs.append((info[0], self.edge_ids[info[1]]))
                rules.append(((emptied, info[1], 1),
                              ((OCCUPIED - code) * place, None, -1)
                              if info[0] == "h" else (emptied, info[2], -1)))
            self.specs.append(specs)
            self.face_rule.append(rules)
        # per site and code, the retraction onto the all-reduced basis of
        # the same graph and n (see Bases in `confhom.critical`): pi as None
        # (pi sends the state to 0) or (reduced code, edge index or None,
        # sign), iota as ((code, sign), ...) per reduced code, and the
        # homotopy H as None or (code, sign).  A reduced site keeps its
        # codes; an unreduced one sends its particle onto the edge e_0 of
        # h_0, h_0 to 0 and h_k to x_k = h_k - h_0, and H(v) = h_0.
        self.retract, self.include, self.homotopy = [], [], []
        h0 = OCCUPIED + 1
        for v, table in zip(self.sites, self.state_tables):
            if v in self.reduced:
                codes = range(len(table))
                self.retract.append([(c, None, 1) for c in codes])
                self.include.append([((c, 1),) for c in codes])
                self.homotopy.append([None] * len(table))
                continue
            e0 = table[h0][2][1]
            ks = range(1, len(table) - h0)
            self.retract.append([(EMPTY, None, 1), (EMPTY, e0, 1), None]
                                + [(k, None, 1) for k in ks])
            self.include.append([((EMPTY, 1),)]
                                + [((h0 + k, 1), (h0, -1)) for k in ks])
            self.homotopy.append([None, (h0, 1)] + [None] * (len(table) - 2))
        self._parts = {}  # state part -> (states, h-sites, face deltas)
        self._occupancy = {}  # state part -> `occupancy`, for the cycles
        # one copy of every equal tuple in the tables: a face pair depends
        # on its site, code and sign only, not on the rest of the part
        self._shared = {}

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

    def part(self, st):
        """The table of state part st: (state codes per site, h-sites,
        ((face key delta, coeff), ...)), from the face rule of each h-site;
        the signs alternate over the h-sites in site order."""
        got = self._parts.get(st)
        if got is not None:
            return got
        share = self._shared.setdefault
        states, _ = self.digits(st * self.edge_span)
        hsites, faces, sign = [], [], 1
        for i, s in enumerate(states):
            rule = self.face_rule[i][s]
            if rule is None:
                continue
            hsites.append(i)
            for delta, edge, rel in rule:
                face = (delta if edge is None else delta + self.eplace[edge],
                        rel * sign)
                faces.append(share(face, face))
            sign = -sign
        hsites, faces = tuple(hsites), tuple(faces)
        got = self._parts[st] = (tuple(states), share(hsites, hsites),
                                 share(faces, faces))
        return got

    def site_rule(self, i):
        """Site i alone, per code: (the state part of that code alone, its
        faces as ((face code, edge index or None, sign), ...)), read from
        the face rule."""
        place = self.splace[i]
        return [(c * place, tuple((c + delta // place, edge, w)
                                  for delta, edge, w in rule or ()))
                for c, rule in enumerate(self.face_rule[i])]

    def occupancy(self, key):
        """(the vertices whose sites hold a state, the h-sites): the places
        that factors of a product must not share, and the generators whose
        order signs it.  Edges are not places: occupying one is module
        multiplication."""
        st = key // self.edge_span
        got = self._occupancy.get(st)
        if got is None:
            states, hsites, _ = self.part(st)
            got = self._occupancy[st] = (
                [self.sites[i] for i, s in enumerate(states) if s], hsites)
        return got

    def dim_of(self, key):
        return len(self.part(key // self.edge_span)[1])

    def decode(self, key):
        """({vertex: state spec}, {edge_id: mult}) of a key, the inverse of
        `encode`: the sites and edges in order, empty sites and edges left
        out.  The specs are those `encode_part` takes."""
        states, mults = self.digits(key)
        return ({self.sites[i]: self.specs[i][s]
                 for i, s in enumerate(states) if s},
                {self.edge_ids[j]: m for j, m in enumerate(mults) if m})

    def reference(self, v):
        """The edge id of v's first half-edge, h_0 of a reduced site."""
        return self.edge_ids[self.graph.half_edges(v)[0][0]]

    def describe(self, key):
        states, edges = self.decode(key)
        parts = []
        for v, spec in states.items():
            if spec == "v":
                parts.append(f"{v}")
            elif spec[0] == "h":
                parts.append(f"h({v},{spec[1]})")
            else:
                parts.append(f"(h({v},{spec[1]})-h({v},{self.reference(v)}))")
        for eid, m in edges.items():
            parts.append(eid if m == 1 else f"{eid}^{m}")
        return "|".join(parts) if parts else "1"

    # -- encoding ---------------------------------------------------------

    def encode_part(self, states=None, edges=None):
        """(key, particles) of {vertex: state} and {edge_id: mult}: a part
        of a cell, whose particle count is not checked.  Keys of parts with
        no common site add up to the key of their product, up to sign.

        State specs: "v" (occupied), ("h", edge_id) at an unreduced site,
        and ("d", edge_id) at a reduced site for the difference generator
        h(edge_id) - h(reference); anything else raises GraphError."""
        g = self.graph
        key = 0
        total = 0
        for v, spec in (states or {}).items():
            if v not in self.site_of:
                raise GraphError(f"{v!r} is not a vertex of degree >= 2")
            i = self.site_of[v]
            if spec == "v":
                if v in self.reduced:
                    raise GraphError(f"site {v!r} is reduced; no occupied state")
            else:
                kind, eid = spec
                basis = "d" if v in self.reduced else "h"
                if kind != basis:
                    raise GraphError(f"site {v!r} takes ({basis!r}, edge) "
                                     f"states, not {kind!r}")
                g.edge_index(eid)  # an unknown edge raises GraphError
                spec = (kind, eid)
                if spec not in self.specs[i]:
                    raise GraphError(f"no half-edge of {eid!r} at {v!r}")
            # every state but the empty one holds one particle
            key += self.specs[i].index(spec) * self.splace[i]
            total += 1
        for eid, m in (edges or {}).items():
            j = g.edge_index(eid)
            if not isinstance(m, int) or m < 0:
                raise GraphError(f"edge {eid!r} has multiplicity {m!r}")
            key += m * self.eplace[j]
            total += m
        return key, total

    def encode(self, states=None, edges=None):
        """Build a packed cell from {vertex: state} and {edge_id: mult}, as
        `encode_part` does, with n particles in all.  The keys this accepts
        are exactly the cells of the complex built with this encoding;
        anything else raises GraphError."""
        key, total = self.encode_part(states, edges)
        if total != self.n:
            raise GraphError(f"cell has {total} particles, expected {self.n}")
        return key

    def cell_faces(self, key):
        """Boundary of a single cell as [(face_key, coeff), ...]."""
        return [(key + delta, w)
                for delta, w in self.part(key // self.edge_span)[2]]

    def support(self, key):
        """Edges and vertices of the graph carried by one cell."""
        states, edges = self.decode(key)
        edges = set(edges)
        for v, spec in states.items():
            if spec != "v":
                edges.add(spec[1])
                if spec[0] == "d":
                    edges.add(self.reference(v))
        return edges, set(states)


def _resolve_reduced(g: Graph, reduce_vertices):
    if reduce_vertices is None:
        return frozenset()
    if reduce_vertices == "all":
        return frozenset(v for v in g.vertices if g.degree(v) >= 2)
    return frozenset(reduce_vertices)


def _edge_parts(eplace, r):
    """Edge parts of r particles on the edges whose digits have the places
    eplace, the first edge's multiplicity varying slowest: the order of the
    cells in one run."""
    if not eplace:
        return [0] if r == 0 else []
    parts = [(0, r)]  # (edge part so far, particles left)
    for place in eplace[:-1]:
        parts = [(acc + m * place, left - m)
                 for acc, left in parts for m in range(left + 1)]
    return [acc + left * eplace[-1] for acc, left in parts]


def _state_combos(enc, n, faces):
    """Every state combination of the sites with at most n particles on
    them, the first site's code varying slowest, as (state pack, particles
    on the sites, h-site count, faces): the order of the runs.  With
    `faces`, faces lists (state delta, edge or None, sign), the face rule
    of each h-site with the cell's sign there; else it is empty, for the
    listing, which reads no face.  A recursive closure would refer to
    itself, and that cycle would keep the combinations alive until the
    cyclic collector ran, which the d^2 check and the reduction hold off."""
    combos = [(0, 0, 0, ())]
    for table, place, rules in zip(enc.state_tables, enc.splace,
                                   enc.face_rule):
        grown = []
        for pack, used, hcount, fs in combos:
            sign = -1 if hcount % 2 else 1
            for code, (w, is_h, _) in enumerate(table):
                if used + w > n:
                    continue
                rule = rules[code] if faces else None
                if rule is None:
                    grown.append((pack + code * place, used + w,
                                  hcount + is_h, fs))
                    continue
                (da, ea, sa), (db, eb, sb) = rule
                grown.append((pack + code * place, used + w, hcount + 1,
                              fs + ((da, ea, sa * sign),
                                    (db, eb, sb * sign))))
        combos = grown
    return combos


def _cell_counts(enc, n):
    """Cells per dimension, counted without listing a state combination: a
    combination with `used` particles on its sites takes one cell per edge
    part of the other n - used, comb(n - used + E - 1, E - 1) of them (1 or
    0 without edges), so only the number of combinations per (used, h-site
    count) matters."""
    nedges = len(enc.eplace)
    ways = {(0, 0): 1}  # (used, h-sites) -> state combinations
    for table in enc.state_tables:
        grown = {}
        for (used, hcount), count in ways.items():
            for w, is_h, _ in table:
                if used + w <= n:
                    at = (used + w, hcount + is_h)
                    grown[at] = grown.get(at, 0) + count
        ways = grown
    dims = [0] * (max(h for _, h in ways) + 1)
    for (used, hcount), count in ways.items():
        dims[hcount] += count * (comb(n - used + nedges - 1, nedges - 1)
                                 if nedges else int(used == n))
    return dims


def _list_cells(enc, n, dims):
    """The cell keys per dimension in canonical order: per run, its state
    pack plus each edge part."""
    parts = [_edge_parts(enc.eplace, r) for r in range(n + 1)]
    cells = [[] for _ in dims]
    for pack, used, hcount, _ in _state_combos(enc, n, False):
        cells[hcount] += map(pack.__add__, parts[n - used])
    return cells


def _write_boundaries(enc, n, dims):
    """The boundaries as slot-major triplets (see
    `ChainComplex.check_boundary_squared`): slot k's rows for every column,
    in column order, then slot k+1's; `cols` is `array("l", range(n)) * F`
    and `vals` an array("b").

    The cells sharing one state pack form a run, one cell per edge part,
    and every d-cell has its 2d faces in one slot order, with one sign per
    slot.  The i-th cell's face in a slot sits in the run of the face's
    state pack: at position i, or, when a particle moves onto edge j, at
    the position of the i-th edge part with one more particle on j."""
    edge_parts = [_edge_parts(enc.eplace, r) for r in range(n + 1)]
    runs = [[] for _ in dims]  # (pack, used, faces, run length)
    run_start = {}  # state pack -> first index of its run in its dimension
    filled = [0] * len(dims)
    for pack, used, hcount, faces in _state_combos(enc, n, True):
        size = len(edge_parts[n - used])
        if size:
            run_start[pack] = filled[hcount]
            filled[hcount] += size
            runs[hcount].append((pack, used, faces, size))
    shifted = {}  # (r, j) -> positions of the edge parts of r, moved on j

    def positions(r, j):
        if (r, j) not in shifted:
            pos = {ep: i for i, ep in enumerate(edge_parts[r + 1])}
            step = enc.eplace[j]
            shifted[r, j] = [pos[ep + step] for ep in edge_parts[r]]
        return shifted[r, j]

    boundaries = {}
    for d in range(1, len(dims)):
        first_faces = runs[d][0][2] if runs[d] else ()
        rows, vals = array("l"), array("b")
        for slot, (_, _, sign) in enumerate(first_faces):
            col = []
            for pack, used, faces, size in runs[d]:
                delta, edge, _ = faces[slot]
                o = run_start[pack + delta]
                col += (range(o, o + size) if edge is None
                        else map(add, positions(n - used, edge), repeat(o)))
            # fromlist copies a list 1.5-2 times faster than extend takes
            # an iterator's items
            rows.fromlist(col)
            vals.extend(array("b", [sign]) * dims[d])
        boundaries[d] = (rows, array("l", range(dims[d])) * len(first_faces),
                         vals)
    return boundaries


def build_swiatkowski(g: Graph, n: int, reduce_vertices=None,
                      max_cells=None) -> ChainComplex:
    """Particle-number-n slice of the half-edge complex of g.

    reduce_vertices: None for the canonical basis (degree-1 vertices are
    always reduced away), "all", or an iterable of vertices to present by
    difference generators.

    The build counts the cells in closed form, which gives the dims, the
    Euler characteristic and the `max_cells` refusal; the cell keys and
    the boundary triplets are written when a consumer first reads `cells`
    and `boundaries`, which the Morse path never does.  Every basis gets the
    Morse complex of the all-reduced basis, whose critical cells are
    checked against this basis's Euler characteristic; homology and class
    ranks read it, and generators and boundary solving reduce the complex
    itself.
    """
    if n < 0:
        raise GraphError("n must be >= 0")
    reduced = _resolve_reduced(g, reduce_vertices)
    for v in reduced:
        if g.degree(v) < 2:
            raise GraphError(f"cannot reduce degree-{g.degree(v)} vertex {v!r}")
    enc = SwEncoding(g, n, reduced)
    dims = _cell_counts(enc, n)
    total = sum(dims)
    if max_cells is not None and total > max_cells:
        raise ResourceLimitExceeded(
            f"complex has {total} cells, over max_cells={max_cells}")

    # The callbacks hold the encoding, n and the dims, not cx: a reference
    # cycle through cx would keep every dropped complex alive until the
    # cyclic collector runs
    euler = sum((-1) ** d * size for d, size in enumerate(dims))

    def morse():
        # imported on first use: importing confhom does not load it
        from .critical import morse_complex
        return morse_complex(enc, euler)

    return ChainComplex(dims, lambda: _write_boundaries(enc, n, dims),
                        cells=lambda: _list_cells(enc, n, dims),
                        meta={"model": "swiatkowski"}, encoding=enc,
                        morse_complex=morse)


def support(chain: Chain):
    """Union of member-cell supports: a set of edge ids and vertex ids."""
    enc = chain.complex.encoding
    if not isinstance(enc, SwEncoding):
        raise ValueError("support is defined for half-edge model chains")
    edges, verts = set(), set()
    for key in chain.data:
        e, v = enc.support(key)
        edges |= e
        verts |= v
    return edges, verts


def cell(cx: ChainComplex, states=None, edges=None) -> Chain:
    """Single-cell chain of the cell `SwEncoding.encode` makes of the
    states and edges."""
    enc = cx.encoding
    key = enc.encode(states, edges)
    return Chain(cx, enc.dim_of(key), {key: 1})
