"""Algebraic Morse complex of the fully reduced half-edge complex.

When every site (vertex of degree >= 2) is reduced, the half-edge complex
is a free module over the polynomial ring Z[E] of the edges, cut to
particle number n (An, Drummond-Cole and Knudsen, arXiv:1708.02351): its
basis is the vertex-state sets S, a site of S carries one difference
generator, and a cell is m * x_S for a monomial m in the edges.  A matching
that looks at one cell at a time names the critical cells without building
anything else, and algebraic Morse theory (Skoldberg, Trans. AMS 358, 2006)
gives a smaller complex with the same homology.

Basis.  Each vertex v gets a reference half-edge r(v): its parent edge in
a breadth-first search, run per connected component from a vertex of
maximum degree, and at a root its first half-edge.  The Morse layer works
in the basis y_{v,j} = h_j - h_{r(v)}, j != r(v), so that d(m * y_S)
follows the builder's sign rule with e_{r(v)} in place of e_0.  A builder
cell, in x_{v,c} = h_c - h_0, maps over by x_c = y_c - y_0 for c != r and
x_r = -y_0, and by the identity where r = 0: a unimodular chain
isomorphism, needed only to carry chains into the Morse complex.  A
generator's code in a y key is its half-edge position, except that
y_{v,0} takes the code r(v), which is free.

Rule.  E_v, the eligible edges at v, are v's non-reference edges whose
other end comes later in the search order or uses the edge as its
reference; an edge is eligible at one end at most.  Scan the sites in
search order:
  - v in S with generator k: match down to m * e_{v,k} * y_{S-v} if
    e_{v,k} is in E_v and m has no edge of E_v at a position below k;
  - v not in S: if m has an edge of E_v, match up with the lowest such
    position k, to (m / e_{v,k}) * y_{S+v:k}.
A cell that reaches the end of the scan is critical.  Both moves change m
only at edges of E_v, which no other site looks at, so the matching is an
involution, and every pair has coefficient +-1.

Listing.  Critical cells are listed per state set S: the edges of E_v are
forbidden for v not in S; for v in S whose generator k is eligible, m needs
an edge of E_v below k (if there is none, S has no critical cell); every
other edge is free.

Flow.  The Morse differential of a critical cell c is flow(d c), where the
flow fixes critical cells, sends upper cells of pairs to 0, and sends a
lower cell a paired with b to -(1/[db : a]) times the flow of b's other
faces.  It is an iterative depth-first search with a memo, so no recursion
limit applies; reaching a cell that is still being expanded is a back edge,
a cycle of gradient paths, and raises EngineError.  The memo stays with the
Morse complex, so that carrying cycles into it (`MorseFlow.chain`) reuses
it.
"""

from __future__ import annotations

from array import array

from .complexes import Chain, ChainComplex, pause_gc
from .homology import EngineError

_EMPTY = {}  # the flow of an upper cell; shared, never mutated


def search_references(g):
    """(order, refs): the vertices of nonzero degree in breadth-first order,
    one component after another, each searched from its first vertex of
    maximum degree; refs[v] is the position in g.half_edges(v) of v's
    parent edge, or 0 at a root."""
    def search(root):
        refs = {root: 0}
        order = [root]
        for v in order:
            for eidx, end in g.half_edges(v):
                w = g.other_end(eidx, v)
                if w not in refs:
                    refs[w] = g.half_edges(w).index((eidx, 1 - end))
                    order.append(w)
        return order, refs

    order, refs = [], {}
    for v in g.vertices:
        if v not in refs and g.degree(v):
            component, _ = search(v)
            o, r = search(max(component, key=g.degree))
            order += o
            refs.update(r)
    return order, refs


def _spread(units, t):
    """Edge parts of the keys that put t particles on the edges with these
    units, in every way."""
    if not units:
        return [0] if t == 0 else []
    u, rest = units[0], units[1:]
    if not rest:
        return [t * u]
    return [k * u + p for k in range(t + 1) for p in _spread(rest, t - k)]


class MorseMatching:
    """The matching on the y basis of one all-reduced half-edge complex.

    A y key packs each edge's multiplicity into n.bit_length() bits, then
    each site's generator code (0 = empty) above them, sites in the
    builder's order, which fixes the signs.  `order` and `refs` default to
    `search_references`.
    """

    def __init__(self, enc, order=None, refs=None):
        g = enc.graph
        if order is None:
            order, refs = search_references(g)
        rank = {v: i for i, v in enumerate(order)}
        self.enc = enc
        self.n = enc.n
        bits = max(1, self.n.bit_length())
        self.unit = [1 << (bits * e) for e in range(len(g.edges))]
        field = [((1 << bits) - 1) * u for u in self.unit]
        shift = bits * len(g.edges)
        # per site, in builder order: (shift, mask, unit of the edge of each
        # code, unit of the reference edge)
        self.faces_data = []
        # per site: (shift, mask, field mask of E_v, [(field mask, unit,
        # code) of E_v by position], {eligible code: field mask of the E_v
        # edges below it})
        self.rule = []
        self.ref_code = []
        self.eligible_edges = set()
        for v in enc.sites:
            hs = g.half_edges(v)
            r = refs[v]
            mask = (1 << (len(hs) - 1).bit_length()) - 1
            units = [None] + [self.unit[hs[0 if c == r else c][0]]
                              for c in range(1, len(hs))]
            self.faces_data.append((shift, mask, units, self.unit[hs[r][0]]))
            up = []
            below = {}
            emask = 0
            for p, (eidx, end) in enumerate(hs):
                w = g.other_end(eidx, v)
                if p != r and (rank[w] > rank[v] or g.half_edges(w)[refs[w]]
                               == (eidx, 1 - end)):
                    code = p if p else r
                    below[code] = emask
                    emask |= field[eidx]
                    up.append((field[eidx], self.unit[eidx], code))
                    self.eligible_edges.add(eidx)
            self.rule.append((shift, mask, emask, up, below))
            self.ref_code.append(r)
            shift += mask.bit_length()
        self.scan = sorted(range(len(enc.sites)),
                           key=lambda i: rank[enc.sites[i]])

    # -- one cell -----------------------------------------------------------

    def faces(self, key):
        """Boundary of one y cell as [(face key, coeff), ...]."""
        out = []
        sign = 1
        for shift, mask, units, ref_unit in self.faces_data:
            c = (key >> shift) & mask
            if c:
                base = key - (c << shift)
                out.append((base + units[c], sign))
                out.append((base + ref_unit, -sign))
                sign = -sign
        return out

    def classify(self, key):
        """None for a critical cell, else (partner, [d upper : lower], is
        the cell the lower one)."""
        rule = self.rule
        for i in self.scan:
            shift, mask, emask, up, below = rule[i]
            c = (key >> shift) & mask
            if c:
                low = below.get(c)
                if low is not None and not key & low:
                    return (key - (c << shift) + self.faces_data[i][2][c],
                            self._sign(key, i), False)
            elif key & emask:
                for fmask, unit, code in up:
                    if key & fmask:
                        return (key - unit + (code << shift),
                                self._sign(key, i), True)
        return None

    def _sign(self, key, i):
        """Sign of site i's term in the boundary of a cell that has site i
        in its state set and agrees with key at every other site."""
        odd = 0
        for shift, mask, _, _ in self.faces_data[:i]:
            if (key >> shift) & mask:
                odd ^= 1
        return -1 if odd else 1

    # -- all cells ----------------------------------------------------------

    def critical_cells(self):
        """Sorted critical y keys per dimension, listed per state set."""
        n = self.n
        always_free = [u for e, u in enumerate(self.unit)
                       if e not in self.eligible_edges]
        cells = [[] for _ in range(min(n, len(self.rule)) + 1)]

        def monomials(out, acc, left, groups, free):
            """Every edge part with `left` particles, at least one in each
            group of units and any number on the free units."""
            if not groups:
                out.extend(acc + p for p in _spread(free, left))
                return
            for t in range(1, left - len(groups) + 2):
                for p in _spread(groups[0], t):
                    monomials(out, acc + p, left - t, groups[1:], free)

        def visit(s, states, k, groups, free):
            if s == len(self.scan):
                monomials(cells[k], states, n - k, groups, always_free + free)
                return
            i = self.scan[s]
            shift, _, _, up, below = self.rule[i]
            units = [u for _, u, _ in up]
            visit(s + 1, states, k, groups, free)  # v not in S: E_v forbidden
            if k == n:
                return
            for c in range(1, len(self.faces_data[i][2])):
                if c not in below:  # not eligible: E_v is free
                    visit(s + 1, states + (c << shift), k + 1, groups,
                          free + units)
                    continue
                at = [code for _, _, code in up].index(c)
                if at:  # m needs an E_v edge below c; the rest are free
                    visit(s + 1, states + (c << shift), k + 1,
                          groups + [units[:at]], free + units[at:])

        visit(0, 0, 0, [], [])
        while len(cells) > 1 and not cells[-1]:
            cells.pop()
        return [sorted(dim) for dim in cells]

    # -- bases --------------------------------------------------------------

    def from_builder(self, key):
        """A builder cell (x basis) as [(y key, coeff), ...]."""
        states, mults = self.enc.digits(key)
        base = sum(m * u for m, u in zip(mults, self.unit))
        terms = [(base, 1)]
        for (shift, _, _, _), r, c in zip(self.faces_data, self.ref_code,
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


class MorseFlow:
    """The memoised gradient-path flow of a matching: y cells to chains of
    critical cells, as {critical key: coeff}."""

    def __init__(self, matching, critical):
        self.matching = matching
        self.memo = {key: {key: 1} for dim in critical for key in dim}

    def cell(self, key):
        """flow(key), expanding lower cells depth first."""
        memo = self.memo
        val = memo.get(key)
        if val is not None:
            return val
        classify = self.matching.classify
        faces = self.matching.faces
        stack = []
        active = set()

        def enter(cell):
            """Push a frame for an unflowed lower cell, or return the flow
            of a critical or upper one."""
            got = classify(cell)
            if got is None:
                raise EngineError(f"cell {cell} is critical but not listed")
            partner, eps, lower = got
            if not lower:
                memo[cell] = _EMPTY
                return _EMPTY
            if cell in active:
                raise EngineError("the gradient paths form a cycle")
            active.add(cell)
            stack.append([cell, -eps, faces(partner), 0, {}])
            return None

        val = enter(key)
        if val is not None:
            return val
        while stack:
            frame = stack[-1]
            cell, scale, fs, i, acc = frame
            while i < len(fs):
                f, w = fs[i]
                if f != cell:
                    val = memo.get(f)
                    if val is None:
                        val = enter(f)
                        if val is None:
                            frame[3] = i
                            break
                    q = scale * w
                    for g, x in val.items():
                        acc[g] = acc.get(g, 0) + q * x
                i += 1
            else:
                stack.pop()
                active.discard(cell)
                memo[cell] = {g: x for g, x in acc.items() if x} or _EMPTY
        return memo[key]

    def boundary(self, key):
        """The Morse differential of a critical cell: flow(d key)."""
        acc = {}
        for f, w in self.matching.faces(key):
            for g, x in self.cell(f).items():
                acc[g] = acc.get(g, 0) + w * x
        return {g: x for g, x in acc.items() if x}

    def chain(self, z: Chain, mcx: ChainComplex) -> Chain:
        """A chain of the builder's complex carried into the Morse complex
        mcx: the basis change, then the flow."""
        acc = {}
        from_builder = self.matching.from_builder
        for key, coeff in z.data.items():
            for y, x in from_builder(key):
                for g, v in self.cell(y).items():
                    acc[g] = acc.get(g, 0) + coeff * x * v
        return Chain(mcx, z.dim, acc)


@pause_gc
def morse_complex(enc):
    """(Morse complex, flow) of the all-reduced half-edge complex encoded by
    enc: one cell per critical cell, in sorted key order per dimension."""
    matching = MorseMatching(enc)
    cells = matching.critical_cells()
    flow = MorseFlow(matching, cells)
    boundaries = {}
    for d in range(1, len(cells)):
        index = {key: i for i, key in enumerate(cells[d - 1])}
        rows, cols, vals = array("l"), array("l"), array("l")
        for c, key in enumerate(cells[d]):
            for g, x in flow.boundary(key).items():
                rows.append(index[g])
                cols.append(c)
                vals.append(x)
        boundaries[d] = (rows, cols, vals)
    meta = {"model": "swiatkowski-morse", "graph": enc.graph, "n": enc.n}
    mcx = ChainComplex([len(c) for c in cells], boundaries, cells=cells,
                       meta=meta)
    return mcx, flow
