"""The discrete cube complex of n disjoint closed cells of a sufficiently
subdivided simple graph.

A d-cell is a set of n pairwise disjoint items, d of them edges and n-d
vertices; disjointness means no listed vertex is an endpoint of a listed
edge and no two listed edges share an endpoint.  The boundary alternates
over the cell's edges sorted by their lower-labelled endpoints.

The encoding (`AbramsEncoding`) is the one owner of this item layout.  It
packs cells and parts of cells (`encode`, `encode_part`) and gives a key's
covered vertices and edge items (`occupancy`), through which the cycle
layer multiplies cube parts as it does half-edge ones.

Count.  A d-cell is a matching of d edges with n - d of the |V| - 2d
vertices it leaves, so there are m_d * C(|V| - 2d, n - d) of them, where
m_d counts the d-edge matchings.  `_cell_counts` counts the matchings by a
pass over the edges in item order that keeps, per set of covered vertices
that later edges still meet, the matchings by size.  The count gives the
dims, the Euler characteristic and the `max_cells` refusal; the cells are
listed, and the boundary triplets written, when a consumer first reads
`cells` or `boundaries`, and a listing that differs from the count raises
EngineError.

Matching.  Homology and class ranks read the Morse complex of the discrete
gradient of Farley and Sabalka ("Discrete Morse theory and graph braid
groups", AGT 5, 2005), read off the labels of `order_vertices`: the root
has label 1, and for v != root, e(v) is the tree edge with iota = v.
  - A vertex item v of a cell c is blocked if v is the root or tau(e(v)) is
    covered by c.
  - An edge e of c is order-respecting if it is in the tree and no vertex
    item w of c has tau(e(w)) = tau(e) and tau(e) < w < iota(e).
  - With v the least unblocked vertex and m the least iota over the
    order-respecting edges: if v exists and v < m (or there is no m), c is
    matched up to c - v + e(v); else, if m exists, down to c - e + iota(e)
    for the edge e with iota(e) = m; else c is critical.
It is an involution.  Up: v's parent p is not covered, so no earlier
sibling of v is an item (it would be unblocked and below v) and e(v) is
order-respecting in c' = c - v + e(v); no edge of c meets p, so removing v
makes no other edge order-respecting; and covering p and v blocks more
vertices, so every unblocked vertex of c' is above v, which is c''s m.  So
c' is matched down, by e(v), to c.  Down: removing e uncovers tau(e), which
unblocks m and the children of tau(e), all above m as e is
order-respecting; no other edge meets tau(e), so adding m breaks no
order-respecting edge, whose iotas all lie above m.  So c - e + iota(e) has
least unblocked vertex m below its m, and is matched up, by e(m) = e, to c.
The partner is a face of the upper cell with coefficient +-1, as every
face is.  Farley and Sabalka prove the gradient acyclic for a root of
degree one in the tree; the brute-force test searches the whole gradient
graph of small complexes at roots of every degree, and the flow's
back-edge check (`confhom.critical.MorseFlow`) stays for every complex.

Critical cells are those with every vertex blocked and no order-respecting
edge, and `CubeMatching.critical_cells` lists them directly: the edges
come from the non-tree edges and the tree edges whose iota has an earlier
sibling in the tree, and the vertices are added in label order, each only
if it is the root or its parent is covered; a tree edge then needs an
earlier sibling of its iota among the vertices.

Proof.  The Morse path reads the faces of the critical cells and of the
matched upper cells, as integer deltas of the key.  A cell's faces and
their deltas depend on its edge part only, since the vertex items are
carried along, so they are read from a table per edge part, made from the
encoding's face rule (`cell_faces`) and proved on first use: the terms of
the faces of its faces, read from the face tables (proved first), must
cancel in classes of equal delta, else BoundaryError.  That proves d^2 = 0
on every cell whose faces the flow reads, once per edge part.  The Morse
complex's own differential comes from the flow, and `homology` checks it
as it checks any complex; the full complex's triplets are written and
checked only by the generic path (`homology(cx, reduce=False)`,
generators, boundary solving, `to_json_dict`).
"""

from __future__ import annotations

from array import array
from math import comb

from .complexes import (BoundaryError, Chain, ChainComplex,
                        ResourceLimitExceeded)
from .graph import GraphError, OrderedGraph, check_subdivided
from .homology import EngineError


class AbramsEncoding:
    """Bitmask cell encoding: items are vertices by label then edges by
    (tau, iota); a cell is the OR of its item bits."""

    def __init__(self, og: OrderedGraph, n: int):
        self.og = og
        self.graph = g = og.graph
        self.n = n
        self.nv = len(g.vertices)
        # item i < nv: vertex with label i+1; item nv+j: j-th edge by (tau, iota)
        self.vertices = sorted(g.vertices, key=og.labels.get)
        self.edge_items = list(og.edge_order)
        self.n_items = self.nv + len(self.edge_items)
        # per edge item: the bits of its iota and tau endpoints
        self.edge_ends = [(1 << (j - 1), 1 << (t - 1)) for t, j in
                          (og.edge_tau_iota[e] for e in self.edge_items)]
        # per item: the bits of the vertices its closed cell covers
        self.vsets = ([1 << i for i in range(self.nv)]
                      + [iota | tau for iota, tau in self.edge_ends])
        self.edge_item_of = {eidx: self.nv + j
                             for j, eidx in enumerate(self.edge_items)}

    def item_for(self, x):
        """Item index for a vertex id, vertex label (int), edge id, or
        (tau, iota) label pair."""
        og, g = self.og, self.og.graph
        if isinstance(x, int):
            if not 1 <= x <= self.nv:
                raise GraphError(f"no vertex with label {x}")
            return x - 1
        if isinstance(x, tuple):
            for j, eidx in enumerate(self.edge_items):
                if og.edge_tau_iota[eidx] == x:
                    return self.nv + j
            raise GraphError(f"no edge with labels {x}")
        if x in g._vindex:
            return og.labels[x] - 1
        if x in g._eindex:
            return self.edge_item_of[g.edge_index(x)]
        raise GraphError(f"unknown item {x!r}")

    def encode_part(self, items):
        """(key, item count) of pairwise disjoint items (see `item_for`): a
        part of a cell, whose item count is not checked; a repeated or
        overlapping item raises GraphError.  Keys of parts whose closed
        cells cover no common vertex add up to the key of their union."""
        key = 0
        vmask = 0
        count = 0
        for x in items:
            it = self.item_for(x)
            bit = 1 << it
            if key & bit:
                raise GraphError(f"repeated item {x!r}")
            if self.vsets[it] & vmask:
                raise GraphError(f"item {x!r} is not disjoint from the rest")
            key |= bit
            vmask |= self.vsets[it]
            count += 1
        return key, count

    def encode(self, items):
        """Packed cell of n pairwise disjoint items, as `encode_part` packs
        them.  The keys this accepts are exactly the cells of the complex
        built with this encoding; anything else raises GraphError."""
        key, count = self.encode_part(items)
        if count != self.n:
            raise GraphError(f"cell has {count} items, expected {self.n}")
        return key

    def items(self, key):
        out = []
        while key:
            low = key & -key
            out.append(low.bit_length() - 1)
            key ^= low
        return out

    def occupancy(self, key):
        """(the vertices the key's closed cells cover, its edge items): the
        places that factors of a product must not share, and the generators
        whose order signs it.  The edges of one cell share no endpoint, so
        their items, sorted by (tau, iota), come in tau order."""
        items = self.items(key)
        covered = 0
        for k in items:
            covered |= self.vsets[k]
        return ([self.vertices[i] for i in self.items(covered)],
                [k for k in items if k >= self.nv])

    def dim_of(self, key):
        return sum(1 for k in self.items(key) if k >= self.nv)

    def describe(self, key):
        names = []
        for k in self.items(key):
            if k < self.nv:
                names.append(str(k + 1))
            else:
                names.append(self.og.edge_name(self.edge_items[k - self.nv]))
        return "{" + ",".join(names) + "}"

    def cell_faces(self, key):
        """Alternating faces replacing each edge by its endpoints."""
        out = []
        sign = -1  # (-1)^i for the i-th edge of the cell, i from 1
        for k in self.items(key >> self.nv):
            iota_bit, tau_bit = self.edge_ends[k]
            base = key & ~(1 << (self.nv + k))
            out.append((base | iota_bit, sign))
            out.append((base | tau_bit, -sign))
            sign = -sign
        return out


def abrams_boundary(items, og: OrderedGraph):
    """Boundary of one cell given as an item collection; returns a list of
    (frozenset of item names, coeff) pairs evaluated by the alternating
    face formula."""
    items = tuple(items)
    enc = AbramsEncoding(og, len(items))
    key = enc.encode(items)
    out = []
    for fk, coeff in enc.cell_faces(key):
        names = frozenset(
            k + 1 if k < enc.nv else og.edge_tau_iota[enc.edge_items[k - enc.nv]]
            for k in enc.items(fk))
        out.append((names, coeff))
    return out


def _cell_counts(enc, n):
    """Cells per dimension in closed form (see Count), without empty top
    dimensions."""
    gone = [0] * len(enc.edge_ends)  # per edge: vertices no later edge meets
    last = {}
    for j, (iota, tau) in enumerate(enc.edge_ends):
        last[iota] = last[tau] = j
    for bit, j in last.items():
        gone[j] |= bit
    states = {0: [1] + [0] * n}  # live covered vertices -> matchings by size
    for (iota, tau), dead in zip(enc.edge_ends, gone):
        ends = iota | tau
        grown = {}
        for mask, row in states.items():
            moves = [(mask, row)]
            if not mask & ends:
                moves.append((mask | ends, [0] + row[:n]))
            for key, add in moves:
                key &= ~dead
                have = grown.get(key)
                grown[key] = add if have is None else [
                    a + b for a, b in zip(have, add)]
        states = grown
    matchings = [sum(col) for col in zip(*states.values())]
    dims = [m * comb(enc.nv - 2 * d, n - d) if enc.nv >= 2 * d else 0
            for d, m in enumerate(matchings)]
    while len(dims) > 1 and not dims[-1]:
        dims.pop()
    return dims


def _list_cells(enc, n, dims):
    """The cell keys per dimension, each dimension in the order of the
    cells' sorted items; EngineError unless they are `dims` many."""
    nv, n_items = enc.nv, enc.n_items
    vsets = enc.vsets
    # depth first over the items of a cell, lowest item first, so the
    # cells of each dimension come in the order of their sorted items.  A
    # recursive closure would refer to itself, and that cycle would keep
    # the cells alive after the listing until the cyclic collector ran.
    by_dim = {}
    stack = [(0, n, 0, 0, 0)]  # (first item, items left, vmask, edges, key)
    while stack:
        start, left, vmask, edges, key = stack.pop()
        if left > 1:
            # pushed highest first, so the lowest item's cells come first
            for k in range(n_items - left, start - 1, -1):
                vs = vsets[k]
                if not vs & vmask:
                    stack.append((k + 1, left - 1, vmask | vs,
                                  edges + (1 if k >= nv else 0), key | 1 << k))
            continue
        # the last item: every one disjoint from the rest completes a cell
        for k in range(start, n_items):
            if not vsets[k] & vmask:
                by_dim.setdefault(edges + (1 if k >= nv else 0),
                                  []).append(key | 1 << k)
    cells = [by_dim.get(d, []) for d in range(max(by_dim, default=0) + 1)]
    if list(map(len, cells)) != dims:
        raise EngineError(f"{list(map(len, cells))} cells listed per "
                          f"dimension, {dims} counted")
    return cells


def _write_boundaries(enc, cells):
    """The boundary triplets of the listed cells, slot-major (see
    `ChainComplex.check_boundary_squared`)."""
    nv = enc.nv
    index = [{key: i for i, key in enumerate(c)} for c in cells]
    # every d-cell has 2d faces, two per edge in the order of the edges'
    # bits, and their signs alternate over the edges, so all columns of one
    # dimension share the first one's signs.  The slots of the i-th edge
    # of every cell, its iota face and then its tau face, are filled by
    # clearing the lowest edge bit left in each cell.
    ends = {1 << j: pair for j, pair in enumerate(enc.edge_ends)}
    boundaries = {}
    for d in range(1, len(cells)):
        low = index[d - 1]
        lst = cells[d]
        rows = array("l")
        left = [key >> nv for key in lst]
        for _ in range(d):
            bits = [e & -e for e in left]
            left = [e ^ b for e, b in zip(left, bits)]
            bases = [key ^ (b << nv) for key, b in zip(lst, bits)]
            for end in (0, 1):
                rows.fromlist([low[base | ends[b][end]]
                               for base, b in zip(bases, bits)])
        signs = array("b", [w for _, w in enc.cell_faces(lst[0])])
        vals = array("b")
        for w in signs:
            vals.extend(array("b", [w]) * len(lst))
        boundaries[d] = (rows, array("l", range(len(lst))) * len(signs), vals)
    return boundaries


class CubeMatching:
    """The Farley-Sabalka matching of the cube complex encoded by enc (see
    Matching), on the encoding's own keys; it serves `MorseFlow` as the
    half-edge matching does, with faces as integer deltas of the key."""

    def __init__(self, enc):
        og = enc.og
        tree = og.spanning_tree
        nv = self.nv = enc.nv
        self.enc = enc
        self.vmask = (1 << nv) - 1
        self.ends = enc.vsets[nv:]  # per edge: the bits of both endpoints
        self.iota = []  # per edge: the item of its iota
        self.parent = [0] * nv  # per vertex: the bit of tau(e(v)), 0 at root
        self.up = [None] * nv  # per vertex: the edge e(v)
        for j, eidx in enumerate(enc.edge_items):
            tau, iota = og.edge_tau_iota[eidx]
            self.iota.append(iota - 1)
            if og.graph.edges[eidx][0] in tree:
                self.parent[iota - 1] = 1 << (tau - 1)
                self.up[iota - 1] = j
        # per edge: the vertices whose presence breaks its order-respecting
        # test, the earlier siblings of its iota; None for a non-tree edge
        self.between = [None] * len(self.iota)
        for v, j in enumerate(self.up):
            if j is not None:
                p = self.parent[v]
                self.between[j] = sum(1 << w for w in range(p.bit_length(), v)
                                      if self.parent[w] == p)
        self._faces = {}  # edge part -> proved ((key delta, coeff), ...)
        self._followed = {}  # (partner's edge part, edge) -> flow terms

    def classify(self, key):
        """None for a critical cell, else (partner, [d upper : lower], is
        the cell the lower one): the rule's move on key."""
        nv = self.nv
        vs = key & self.vmask
        es = key >> nv
        covered = vs
        m = mj = None
        x = es
        while x:
            low = x & -x
            x ^= low
            j = low.bit_length() - 1
            covered |= self.ends[j]
            between = self.between[j]
            if between is not None and not vs & between and (
                    m is None or self.iota[j] < m):
                m, mj = self.iota[j], j
        x = vs & ~1  # the root is blocked
        while x:
            low = x & -x
            v = low.bit_length() - 1
            if m is not None and v > m:
                break
            if not covered & self.parent[v]:
                j = self.up[v]
                # e(v)'s iota face, after the cell's edges below it
                sign = 1 if (es & ((1 << j) - 1)).bit_count() & 1 else -1
                return key - low + (1 << (nv + j)), sign, True
            x ^= low
        if m is None:
            return None
        sign = 1 if (es & ((1 << mj) - 1)).bit_count() & 1 else -1
        return key - (1 << (nv + mj)) + (1 << m), sign, False

    def _table(self, es):
        """The faces of every cell with edge part es as ((key delta,
        coeff), ...), from the encoding's face rule, proved on first use:
        the terms of the faces' faces, from their tables (proved first),
        must cancel in classes of equal delta, else BoundaryError."""
        got = self._faces.get(es)
        if got is None:
            base = es << self.nv
            got = tuple((f - base, w) for f, w in self.enc.cell_faces(base))
            sums = {}
            for delta, w in got:
                for delta2, w2 in self._table((base + delta) >> self.nv):
                    sums[delta + delta2] = sums.get(delta + delta2, 0) + w * w2
            if any(sums.values()):
                raise BoundaryError(f"dd != 0 at dimension {len(got) // 2}, "
                                    f"edge part {self.enc.describe(base)}")
            self._faces[es] = got
        return got

    # -- one cell -----------------------------------------------------------

    def face_terms(self, key):
        """Boundary of one cell as ((key delta, coeff), ...)."""
        return self._table(key >> self.nv)

    def step(self, key):
        """The flow's step from one cell: None for a critical cell, False
        for an upper one, and for a lower cell a the (key delta, coeff)
        terms of flow(a) = sum of coeff * flow(a + delta): every face of
        a's partner b but a, with coefficient -[db : f]/[db : a]; a unit
        step, one face with coefficient 1, as its delta alone."""
        got = self.classify(key)
        if got is None:
            return None
        partner, sign, lower = got
        if not lower:
            return False
        es, lift = partner >> self.nv, partner - key
        followed = self._followed.get((es, lift))
        if followed is None:
            followed = tuple((lift + delta, -sign * w)
                             for delta, w in self._table(es)
                             if delta != -lift)
            if len(followed) == 1 and followed[0][1] == 1:
                followed = followed[0][0]
            self._followed[es, lift] = followed
        return followed

    def from_builder(self, key):
        """The matching reads the complex's own keys."""
        return ((key, 1),)

    # -- all cells ----------------------------------------------------------

    def critical_cells(self):
        """Sorted critical keys per dimension, listed directly (see
        Matching), on explicit stacks: a recursive closure would refer to
        itself, and that cycle would keep the lists alive after the
        listing until the cyclic collector ran."""
        nv, n = self.nv, self.enc.n
        edges = [j for j, between in enumerate(self.between)
                 if between is None or between]
        cells = [[] for _ in range(n + 1)]
        # disjoint sets of those edges: (next edge, edge part, covered, d)
        stack = [(0, 0, 0, 0)]
        while stack:
            start, es, covered, d = stack.pop()
            if d < n:
                for k in range(start, len(edges)):
                    j = edges[k]
                    if not covered & self.ends[j]:
                        stack.append((k + 1, es | 1 << j,
                                      covered | self.ends[j], d + 1))
            # tree edges need an earlier sibling of their iota as a vertex
            need = [self.between[j] for j in self.enc.items(es)
                    if self.between[j] is not None]
            key = es << nv
            # vertices in label order: (next vertex, vertex part, left)
            vstack = [(0, 0, n - d)]
            while vstack:
                start, vs, left = vstack.pop()
                if not left:
                    if all(vs & b for b in need):
                        cells[d].append(key | vs)
                    continue
                have = covered | vs
                for v in range(start, nv - left + 1):
                    bit = 1 << v
                    if not have & bit and (not v or have & self.parent[v]):
                        vstack.append((v + 1, vs | bit, left - 1))
        while len(cells) > 1 and not cells[-1]:
            cells.pop()
        return [sorted(dim) for dim in cells]


def build_abrams(og: OrderedGraph, n: int, max_cells=None) -> ChainComplex:
    """Cube complex of n-point disjoint configurations on an ordered graph.

    The graph must be simple and sufficiently subdivided for n; violations
    raise InsufficientSubdivision with a witness.  The build counts the
    cells in closed form, which gives the dims, the Euler characteristic
    and the `max_cells` refusal; the cells are listed and the triplets
    written when a consumer first reads `cells` or `boundaries`, which the
    Morse path, the one homology and class ranks read, never does.
    """
    if n < 1:
        raise GraphError("n must be >= 1")
    check_subdivided(og.graph, n)
    enc = AbramsEncoding(og, n)
    dims = _cell_counts(enc, n)
    total = sum(dims)
    if max_cells is not None and total > max_cells:
        raise ResourceLimitExceeded(
            f"complex has {total} cells, over max_cells={max_cells}")

    # The callbacks hold the encoding, n and the dims, not cx: a reference
    # cycle through cx would keep every dropped complex alive until the
    # cyclic collector runs
    euler = sum((-1) ** d * size for d, size in enumerate(dims))
    listed = []

    def cells():
        if not listed:
            listed.append(_list_cells(enc, n, dims))
        return listed[0]

    def morse():
        # imported on first use: importing confhom does not load it
        from .critical import assemble
        return assemble(CubeMatching(enc), euler, {"model": "abrams-morse"})

    return ChainComplex(dims, lambda: _write_boundaries(enc, cells()),
                        cells=cells, meta={"model": "abrams"}, encoding=enc,
                        morse_complex=morse)


def cell(cx: ChainComplex, items) -> Chain:
    """Single-cell chain from item names (vertex labels/ids, edge ids, or
    (tau, iota) pairs)."""
    enc = cx.encoding
    key = enc.encode(items)
    return Chain(cx, enc.dim_of(key), {key: 1})
