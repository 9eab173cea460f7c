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
"""

from __future__ import annotations

from array import array

from .complexes import Chain, ChainComplex, ResourceLimitExceeded
from .graph import GraphError, OrderedGraph, check_subdivided


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


def build_abrams(og: OrderedGraph, n: int, max_cells=None) -> ChainComplex:
    """Cube complex of n-point disjoint configurations on an ordered graph.

    The graph must be simple and sufficiently subdivided for n; violations
    raise InsufficientSubdivision with a witness.
    """
    if n < 1:
        raise GraphError("n must be >= 1")
    g = og.graph
    check_subdivided(g, n)
    enc = AbramsEncoding(og, n)
    nv, n_items = enc.nv, enc.n_items
    vsets = enc.vsets

    # depth first over the items of a cell, lowest item first, so the
    # cells of each dimension come in the order of their sorted items.  A
    # recursive closure would refer to itself, and that cycle would keep
    # the cells alive after the build until the cyclic collector ran.
    by_dim = {}
    total = 0
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
                total += 1
        if max_cells is not None and total > max_cells:
            raise ResourceLimitExceeded(
                f"cell count exceeded max_cells={max_cells}")

    top = max(by_dim) if by_dim else 0
    cells = [by_dim.get(d, []) for d in range(top + 1)]
    index = [{key: i for i, key in enumerate(cells[d])} for d in range(top + 1)]

    # every d-cell has 2d faces, two per edge in the order of the edges'
    # bits, and their signs alternate over the edges, so all columns of one
    # dimension share the first one's signs.  The triplets are written
    # slot-major (see `check_boundary_squared`): the slots of the i-th edge
    # of every cell, its iota face and then its tau face, are filled by
    # clearing the lowest edge bit left in each cell.
    ends = {1 << j: pair for j, pair in enumerate(enc.edge_ends)}
    boundaries = {}
    for d in range(1, top + 1):
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

    return ChainComplex([len(c) for c in cells], boundaries, cells=cells,
                        meta={"model": "abrams"}, encoding=enc)


def cell(cx: ChainComplex, items) -> Chain:
    """Single-cell chain from item names (vertex labels/ids, edge ids, or
    (tau, iota) pairs)."""
    enc = cx.encoding
    key = enc.encode(items)
    return Chain(cx, enc.dim_of(key), {key: 1})
