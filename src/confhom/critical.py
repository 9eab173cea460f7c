"""Algebraic Morse complex of the fully reduced half-edge complex, which
every basis of the half-edge complex reads, and the flow and assembly
that both models' matchings share.

Shared.  `MorseFlow` and `assemble` read a matching only through
`critical_cells`, `face_terms`, `step` and `from_builder`, with faces as
integer deltas of the key; they serve the half-edge matching below
(`MorseMatching`) and the Farley-Sabalka matching of the cube complex
(`confhom.abrams.CubeMatching`), whose `from_builder` is the identity.
`step` classifies a cell in one call and gives a lower cell's terms, a
unit step (one term, coefficient 1) as its delta alone; the flow walks a
chain of unit steps in a loop, and gives every cell on it the flow of its
end (see Flow).  Memo values may be shared between cells and are never
mutated.

When every site (vertex of degree >= 2) is reduced, the half-edge complex
is a free module over the polynomial ring Z[E] of the edges, cut to
particle number n (An, Drummond-Cole and Knudsen, arXiv:1708.02351): its
basis is the vertex-state sets S, a site of S carries one difference
generator, and a cell is m * x_S for a monomial m in the edges.  A matching
that looks at one cell at a time names the critical cells without building
anything else, and algebraic Morse theory (Skoldberg, Trans. AMS 358, 2006)
gives a smaller complex with the same homology.

Bases.  A canonical or partly reduced complex of the same graph and n
reads the same Morse complex, through a retraction onto the all-reduced
basis that is per site and keeps the particle count.  At an unreduced site
v with first half-edge h_0 on edge e_0, pi sends the occupied state v to
e_0 (the particle moves onto the edge), h_0 to 0 and h_k to x_k = h_k -
h_0; iota sends x_k to h_k - h_0; and H sends v to h_0 and every other
state to 0.  At a reduced site pi and iota are the identity and H is 0.
The tables are the encoding's (`SwEncoding.retract`, `include`,
`homotopy`), and `_check_retraction` proves at each site and code, on the
site's face rules in both bases, that pi and iota are chain maps, pi . iota
= id and iota . pi - id = d H + H d; so the site complexes are homotopy
equivalent.  The complex is their tensor product over Z[E] with the sign
rule of `SwEncoding.part`, cut to particle number n, which every map
keeps; so pi is a homotopy equivalence of the whole complex, with the
homotopy that applies iota . pi at the sites before one site, H at it and
the identity after it, summed over the sites and signed by the h-sites
before it.  Its homology is then that of the Morse complex.
`morse_complex` checks the critical cells against the Euler
characteristic of the basis's own closed-form count.  Cycles reach the
Morse complex through flow . from_builder . pi: when `from_builder` first
converts a state part it checks that the composite is a chain map there,
its faces' parts converted first, and proves d^2 = 0 on the part's own
table, which pi alone does not imply, as pi sends h_0 to 0.  Homology
reads no state part of such a complex: it reads the site tables and the
Morse complex only.

Basis.  Each vertex v of nonzero degree gets a reference half-edge r(v)
from a search of its component (see Order and Choice): the edge the search
reached v by, and at its root the edge the first vertex was reached by.
The Morse layer works in the basis y_{v,j} = h_j - h_{r(v)}, j != r(v), so
d(m * y_S) follows the builder's sign rule with e_{r(v)} in place of e_0.
A builder cell, in x_{v,c} = h_c - h_0, maps over by x_c = y_c - y_0 for
c != r and x_r = -y_0, and by the identity where r = 0: a unimodular chain
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

Order.  The matching is acyclic when
  (C) every site's reference edge joins it to a vertex earlier in the
      search order, or is its other end's reference edge as well,
so that the edge is in E_p for a site p scanned earlier or in no E_w at
all (a free edge).  Proof: give a cell m * y_S the word (f, phi_v1,
phi_v2, ...) over the sites in scan order, compared lexicographically,
where f counts m's particles on free edges and phi_v = (m's particles on
E_v, minus the sum of their positions at v, 1 if v is not in S else 0).
Let a = m * y_S be matched up at v with position k, e = e_{v,k} and
b = (m / e) * y_{S+v:k}.  Every face of b other than a that is lower has a
larger word than a:
  - at v, e_{r(v)} in place of e: by (C) the first entry to change is f or
    phi_p for a site p scanned before v, and its count rises;
  - at u in S, u != v: u leaves S and its particle goes onto an edge e' at
    u (e_{u,c} or e_{r(u)}), e leaves m and v joins S.  Only f and the
    entries of u, v and e''s owner w change.  If e' is free, or w comes
    before u and v, that count rises.  Else if u comes before v, phi_u
    gains e' or keeps its E_u part while its last entry goes from 0 to 1.
    Else v comes first: the sites before v are as in a, where no move
    applies, so the face is lower only if v has no down move, that is, if
    its E_v part has an edge below k.  a's had none, so that edge is e', at
    a position j < k, and phi_v keeps its count while its position sum
    falls by k - j.
The words are finitely many, so no gradient path comes back to a cell.
A BFS or DFS meets (C) in any order of the half-edges, as a vertex's
reference edge leads to the vertex the search reached it from and the
root's is the edge the first vertex was reached by, that vertex's too.
The searches take half-edges by ascending degree of the other end, then
position, but ends of degree 1 last: a leaf reached first from the root
would hold the one free edge, and the memo grows on trees and nets.

Listing.  Critical cells are listed per state set S: the edges of E_v are
forbidden for v not in S; for v in S whose generator k is eligible, m needs
an edge of E_v below k (if there is none, S has no critical cell); every
other edge is free.

Count.  Those conditions are per site, on disjoint sets E_v, so the
critical cells of dimension d are the coefficient of x^n y^d in
(1-x)^-F * prod_v (1 + y x S_v(x)), where F is the number of free edges
and S_v sums (1-x)^-|E_v| over v's codes outside E_v, and
(1-x)^-|E_v| - (1-x)^-(|E_v|-at) over the codes of E_v with at > 0 edges
of E_v below them.  It depends only on F and each site's degree and |E_v|.

Choice.  Per component, the candidates are the DFS and the BFS from each
vertex, roots by decreasing degree, then as a BFS from the component's
first vertex reaches them; the one with the fewest critical cells is kept,
the earlier on a tie, so the count follows the graph, not its listing,
but for ties of equal-degree neighbours.  The complex's count is the
product of its components' series, so the components are chosen in turn,
each for the fewest cells of the whole with the others at their current
choice (their first candidates to begin with).

Flow.  The Morse differential of a critical cell c is flow(d c), where the
flow fixes critical cells, sends upper cells of pairs to 0, and sends a
lower cell a paired with b to -(1/[db : a]) times the flow of b's other
faces.  It is an iterative depth-first search with a memo, so no recursion
limit applies.  A chain of unit steps is walked in a loop, not expanded
cell by cell: in the half-edge model 61-73 % of the lower cells follow
only b's face at v by r(v), within their state part.  A cell in progress
holds a marker in the memo; reaching one is a back edge, a cycle of
gradient paths, and raises EngineError, and an error takes every marker
out.

Tables.  A cell's move, its sign and its faces depend on the monomial m
only through mask tests, so each state set S (the key's part above the
edge fields) is compiled once, on first use, into one shared table: the
scan's tests in order (down at v in S: the E_v field masks below v's code,
with the partner's key delta; up at v not in S: the field masks of E_v and
the up moves' deltas), the sign of each test (the parity of the sites of S
before it in builder order), and the key deltas and coefficients of the
faces.  Classifying a cell is then one table lookup and a few mask tests.

Proof.  The Morse path proves d^2 = 0 on the tables it reads, not on the
builder's triplets, which it never writes.  d is Z[E]-linear and a face's key
delta does not depend on m, so d^2(m * y_S) is m times the sum of the
terms (delta_1 + delta_2, w_1 * w_2) over the faces of S's table and the
faces of each face's table (S - v); d^2 = 0 on every cell of S exactly
when these terms cancel in classes of equal delta.  Each table is proved
so when it compiles, its faces' tables compiled and proved first, and a
table that fails raises BoundaryError naming its dimension and state
part.  The faces of a table with one occupied site have no faces, so its
own proof is empty: its signs are constrained only through the two-site
tables that cite it.  The cycle layer reads the builder's tables
(`SwEncoding.part`) and carries its chains over by `from_builder`, which
checks, when it first converts a builder state part, that d_y .
from_builder = from_builder . d_x on it, an identity of polynomials in
the edges, and that the faces of its faces cancel; the faces' state parts
are converted, and so checked, first (see Bases).  The Morse complex's own
differential comes from the flow, and `homology` checks it as it checks
any complex.

Pruning.  Let a = m * y_S be a lower cell, matched up at v with code k,
and b = (m / e_{v,k}) * y_{S+v:k} its partner.  A face of b at a site u of
S scanned after v, adding the edge e (e_{u,c_u} or e_{r(u)}), is upper,
matched down at v, unless (i) e is an edge of E_v at a position below k,
or (ii) e is in E_w for a site w not in S scanned before v.  Proof: b is
matched down at v, so no site scanned before v has a move on b.  The face
differs from b only in u's state, which only u reads, and in the edge e,
which only its owner w reads.  An added edge never creates a down move;
it creates an up move only at an owner w not in S, case (ii) when w is
scanned before v; and it breaks v's down move (m / e_{v,k} has no edge of
E_v below k) only in case (i).  So the flow of a reads a compiled list,
per (S, v, k) and built the first time such a move fires from a record
of S made once, of b's other faces at v and at sites scanned before v and
of the faces in cases (i) and (ii); the faces it skips have flow 0.

Dead faces.  When the search meets (C), the list also drops faces whose
flow is empty.  A cell is ready at a site t when t is in S with a
generator whose edge is in E_t and m has no edge of E_t below it: the scan
matches it down at t unless a site before t moves, so it is not critical.
Let p(t) be the site whose E holds e_{r(t)} (none when that edge is free),
and rho(t) the edge's position there; by (C) p(t) comes before t.  By (C),
and as an edge at u outside E_u lies in E_x for its other end x, scanned
before u, every face in the list of a move at w adds an edge of E_w, of E
at a site before w, or a free edge.  So for a lower cell moved up at w
with code k:
  (a) a site t at which it is ready comes after w, and every listed face
      is ready at t but t's own reference face, which is listed only when
      p(t) is not in S and either p(t) = w with rho(t) < k (t is resolved;
      w keeps an edge below k) or p(t) comes before w (t hands over: by
      (b) the face is ready at w);
  (b) every listed face but w's reference face and the case-(i) faces is
      ready at w, as m has no edge of E_w below k.
The faces at sites before v and the case-(ii) faces are then ready at v.
Let P be the sites before v and U those of P in S (the others hold no
edge of their E, as no site before v moves on a).  While some site at or
before v is ready, every move is at a site of P; a site joins S only by
moving up on its own E and leaves it by dropping its particle on its code
or reference edge, so the sites of P that ever hold an edge of their E are
in M: U, the owner of the face's edge, the owners p(.) and code-edge
owners in P of the face's S (b's S but the face's site), and every p(t)
of a site t of M.  A face ready at v is dropped when either test holds.
  - Z test: v is not in Z, the sites t of M and v whose p = p(t) exists
    with (z1) p in U and E_p longer than rho(t) + 1, (z2) the face's edge
    in E_p above rho(t), (z3) a site of M with p(.) = p above rho(t),
    (z4) a site of M between p and v with a p(.), and a site of the face's
    S with p(.) = p above rho(t) or with a code edge in E_p above it, or
    (z5) a site of Z between p and t.  Proof: along every gradient path
    from the face some site at or before v is ready and has no p(.) (it
    stays ready) or is not in Z.  By (a) such a t stays ready until it
    hands over, to a site of M between p(t) and t, not in Z by (z5), or is
    resolved by a move of p(t) that reads an edge of E_p(t) above rho(t).
    That edge was in the face (z1, z2); or an earlier move of p(t) read an
    edge above rho(t) too (p(t) then dropped its generator on its code
    edge, or another site dropped on E_p(t) below that move's code, case
    (i)): trace that edge instead; or another site dropped it, a site of M
    after its own up move (z3), or, at a move of some w, a site of the
    face's S (codes outside a site's E are never moved up to) or of M (z3
    again), and by (b) w, a site of M between p(t) and v, was left ready,
    which (z4) allows only when w has no p(.).
  - Root test: p = p(v) is in the face's S with a code of E_p and has no
    p(.), and every site of M between p and v has p(.) = p or none.
    Proof: (p in S) + (the ready sites at or before v whose p(.) is p or
    none) is 2 on the face and at most 1 on a critical cell, and it never
    falls: with a free reference edge and its code edge in E_p, p leaves
    S only by a face of a move at a site of M between p and v, which (b)
    leaves ready, and a ready t with p(t) = p is resolved only by a move
    of p, which puts p in S, or hands over to such a site.
The tests read the move, the face's site and its edge's owner, so each
verdict is made once, when the move's list is compiled.

Memo.  The memo holds the critical cells and the lower cells the flow has
expanded or walked, each with its flow, which may be empty; an upper cell
costs one table lookup to recognise again, so it gets no entry.  The memo
stays with the Morse complex, so that carrying cycles into it
(`MorseFlow.chain`) reuses it.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from math import comb

from .complexes import BoundaryError, Chain, ChainComplex, pause_gc
from .homology import EngineError
from .swiatkowski import SwEncoding, _edge_parts

_EMPTY = {}  # the flow of an upper cell; shared, never mutated
_ACTIVE = object()  # the memo entry of a cell the flow is expanding


def half_edge_ends(g):
    """Per vertex, its half-edges as (edge index, other end, its position
    there, its position here), in search order (see Order)."""
    out = {}
    rank = {v: (g.degree(v) == 1, g.degree(v)) for v in g.vertices}
    for v in g.vertices:
        out[v] = row = []
        for p, (eidx, end) in enumerate(g.half_edges(v)):
            w = g.other_end(eidx, v)
            row.append((eidx, w, g.half_edges(w).index((eidx, 1 - end)), p))
        row.sort(key=lambda h: rank[h[1]])
    return out


def search(ends, root, kind):
    """(order, refs, sizes) of the breadth-first ("bfs") or depth-first
    ("dfs") search of root's component, taking half-edges in the order of
    `ends` (see Order): the vertices as reached, refs[v] the position of
    the edge v was reached by (at the root, the edge the first vertex was
    reached by), and sizes[v] = |E_v|, which by (C) is v's half-edges to
    later vertices but the root's reference, counted as the search goes."""
    refs = {root: ends[root][0][3]}  # the edge to the first vertex reached
    rank, sizes, order = {root: 0}, {root: -1}, [root]
    if kind == "bfs":
        for v in order:
            rv, size = rank[v], sizes[v]
            for _, w, q, _ in ends[v]:
                if w not in rank:
                    refs[w], rank[w], sizes[w] = q, len(order), 0
                    order.append(w)
                size += rank[w] > rv
            sizes[v] = size
        return order, refs, sizes
    stack = [(root, iter(ends[root]))]
    while stack:
        v, todo = stack[-1]
        for _, w, q, _ in todo:
            if w not in rank:
                refs[w], rank[w], sizes[w] = q, len(order), 0
                order.append(w)
                stack.append((w, iter(ends[w])))
                sizes[v] += 1
                break
            sizes[v] += rank[w] > rank[v]
        else:
            stack.pop()
    return order, refs, sizes


def _eligible(ends, v, rank, refs):
    """E_v as (position, edge index) pairs, in position order."""
    r, rv = refs[v], rank[v]
    return sorted((p, eidx) for eidx, w, q, p in ends[v]
                  if p != r and (rank[w] > rv or refs[w] == q))


def _mul(a, b, n):
    """The product of two series in x and y, each given as rows per power
    of y of the coefficients of x^0..x^n, cut at x^n."""
    out = [[0] * (n + 1) for _ in range(min(len(a) + len(b) - 1, n + 1))]
    for d, ra in enumerate(a):
        for e, rb in enumerate(b[:len(out) - d]):
            row = out[d + e]
            for i, x in enumerate(ra):
                if x:
                    for j in range(n + 1 - i):
                        row[i + j] += x * rb[j]
    return out


def _free_series(a, n):
    """(1 - x)^-a up to x^n: the monomials on a edges, by degree."""
    return [comb(a - 1 + j, j) for j in range(n + 1)] if a else \
        [1] + [0] * n


def _count_series(sites, free, n):
    """The critical cells as a series in x (particles) and y (dimension),
    from each site's (degree, |E_v|) and the number of free edges."""
    table = [_free_series(free, n)]
    for deg, e in sites:
        full = _free_series(e, n)
        s = [(deg - 1 - e) * c for c in full]  # codes outside E_v
        for at in range(1, e):  # an E_v edge below the code's
            s = [x + c - c2 for x, c, c2 in
                 zip(s, full, _free_series(e - at, n))]
        if any(s):
            table = _mul(table, [[1] + [0] * n, [0] + s[:n]], n)
    return table


def _search_key(ends, sites, edges, sizes):
    """(sites, free) of _count_series for one search: the sorted (degree,
    |E_v|) of these sites, |E_v| from sizes, and how many of these edges
    are in no E_v."""
    key = sorted((len(ends[v]), sizes[v]) for v in sites)
    return tuple(key), edges - sum(e for _, e in key)


def _dims(table, n):
    """Critical cells per dimension of a count series with n particles,
    without empty top dimensions."""
    counts = [row[n] for row in table]
    while len(counts) > 1 and not counts[-1]:
        counts.pop()
    return counts


def critical_counts(enc, order, refs):
    """The critical cells per dimension of MorseMatching(enc, order, refs),
    counted without listing them."""
    g = enc.graph
    ends = half_edge_ends(g)
    rank = {v: i for i, v in enumerate(order)}
    sizes = {v: len(_eligible(ends, v, rank, refs)) for v in enc.sites}
    key = _search_key(ends, enc.sites, len(g.edges), sizes)
    return _dims(_count_series(*key, enc.n), enc.n)


def choose_search(enc):
    """(order, refs, searches, counts): the search the matching uses (see
    Choice), its (kind, root) per component, and its critical cells per
    dimension."""
    g, n = enc.graph, enc.n
    ends = half_edge_ends(g)
    components = []
    seen = set()
    tables = {}  # _search_key -> _count_series: many searches share one
    for v in g.vertices:
        if v in seen or not g.degree(v):
            continue
        component = search(ends, v, "bfs")[0]
        seen.update(component)
        sites = [w for w in component if g.degree(w) >= 2]
        edges = sum(map(g.degree, component)) // 2
        candidates = []
        for root in sorted(component, key=g.degree, reverse=True):
            for kind in ("dfs", "bfs"):
                order, refs, sizes = search(ends, root, kind)
                key = _search_key(ends, sites, edges, sizes)
                if key not in tables:
                    tables[key] = _count_series(*key, n)
                candidates.append((key, kind, root, order, refs))
        components.append(candidates)
    chosen = [0] * len(components)

    def product(skip=None):
        table = [[1] + [0] * n]
        for k, candidates in enumerate(components):
            if k != skip:
                table = _mul(table, tables[candidates[chosen[k]][0]], n)
        return table

    for c, candidates in enumerate(components):
        # the other components' cells by particle number, in all dimensions
        rest = [sum(col) for col in zip(*product(skip=c))]
        cells = {key: sum(r * row[n - j] for row in tables[key]
                          for j, r in enumerate(rest) if r)
                 for key, *_ in candidates}
        chosen[c] = min(range(len(candidates)),
                        key=lambda i: cells[candidates[i][0]])
    order, refs, searches = [], {}, []
    for i, candidates in zip(chosen, components):
        _, kind, root, o, r = candidates[i]
        order += o
        refs.update(r)
        searches.append((kind, root))
    return order, refs, searches, _dims(product(), n)


class MorseMatching:
    """The matching on the y basis of the all-reduced half-edge complex of
    enc's graph and n; enc, of any basis, is the one `from_builder` reads.

    A y key packs each edge's multiplicity into n.bit_length() bits, then
    each site's generator code (0 = empty) above them, sites in the
    builder's order, which fixes the signs.  `order` and `refs` are a
    search, as `choose_search` gives them.
    """

    def __init__(self, enc, order, refs):
        g = enc.graph
        rank = {v: i for i, v in enumerate(order)}
        ends = half_edge_ends(g)
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
            for p, eidx in _eligible(ends, v, rank, refs):
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
        self.scan_pos = [0] * len(self.scan)
        self.before = []  # per scan position: the E_w of the sites before it
        for pos, i in enumerate(self.scan):
            self.scan_pos[i] = pos
            self.before.append(sum(self.rule[w][2] for w in self.scan[:pos]))
        self.state_shift = bits * len(g.edges)
        # per site: its up moves as (field mask, partner's key delta,
        # option), in position order; option j is the move (site, code)
        self.moves = []
        self.options = []
        for i, (shift, _, _, up, _) in enumerate(self.rule):
            self.moves.append(tuple(
                (fmask, (code << shift) - unit, len(self.options) + j)
                for j, (fmask, unit, code) in enumerate(up)))
            self.options += [(i, code) for _, _, code in up]
        # per site and builder code: its y terms as ((key delta, coeff),
        # ...), pi onto the all-reduced x basis and then x to y, checked
        _check_retraction(enc)
        self.to_y = []
        for (shift, _, _, _), r, pis in zip(self.faces_data, self.ref_code,
                                            enc.retract):
            row = []
            for pi in pis:
                if pi is None:
                    row.append(())
                    continue
                k, edge, sign = pi
                base = 0 if edge is None else self.unit[edge]
                if not k or r == 0:
                    opts = ((base + (k << shift), sign),)
                elif k == r:
                    opts = ((base + (r << shift), -sign),)
                else:
                    opts = ((base + (k << shift), sign),
                            (base + (r << shift), -sign))
                row.append(opts)
            self.to_y.append(row)
        self._tables = {}  # state part -> (tests, faces, {option: step})
        self._records = {}  # state part -> what its up moves read (`_record`)
        self._reach = None  # the dead-face rule's tables, on first use
        self._rows = None  # per site and code, its entry in a record
        self._shared = {}  # one copy of every equal tuple in the tables
        self._y_terms = {}  # builder state part -> its y terms
        self._y_base = {}  # builder edge part -> its y key
        # a face's builder edge part (one particle on one edge, or none)
        # -> its y key
        self._edge_unit = dict(zip(enc.eplace, self.unit))
        self._edge_unit[0] = 0

    def _share(self, t):
        return self._shared.setdefault(t, t)

    def _codes_and_signs(self, st):
        """The site codes of state part st in builder order, and the sign
        of each site's term in the boundary: -1 after an odd number of
        occupied sites."""
        base = st << self.state_shift
        codes = [(base >> shift) & mask for shift, mask, _, _ in
                 self.faces_data]
        signs, odd = [], 0
        for c in codes:
            signs.append(-1 if odd else 1)
            odd ^= bool(c)
        return codes, signs

    def _table(self, st):
        """The compiled table of state part st, built and proved on first
        use: (tests, faces, the steps of its up moves).  tests are the
        scan's (mask, up moves, partner delta, sign) in order: a down test
        (up moves None) fires when the key has no bit of mask, an up test
        when it has one.  faces are the (key delta, coeff) of the boundary
        terms."""
        got = self._tables.get(st)
        if got is None:
            got = self._compile(st)
            self._prove(st, got[1])
            got = self._tables[st] = got + ({},)
        return got

    def _prove(self, st, faces):
        """Raise BoundaryError unless d^2 = 0 on every cell of state part
        st (see Proof): the terms of the faces' faces, read from the face
        tables, cancel in classes of equal key delta."""
        sums = {}
        for delta, w in faces:
            for delta2, w2 in self._table(st + (delta >> self.state_shift))[1]:
                sums[delta + delta2] = sums.get(delta + delta2, 0) + w * w2
        if any(sums.values()):
            raise BoundaryError(f"dd != 0 at dimension {len(faces) // 2}, "
                                f"y state part {st}")

    def _compile(self, st):
        """The table of state part st, unproved."""
        share = self._share
        codes, signs = self._codes_and_signs(st)
        tests = []
        for i in self.scan:
            shift, _, emask, _, below = self.rule[i]
            c = codes[i]
            if c:
                low = below.get(c)
                if low is not None:
                    delta = self.faces_data[i][2][c] - (c << shift)
                    tests.append(share((low, None, delta, signs[i])))
                    if not low:  # fires on every key: the scan ends here
                        break
            elif emask:
                tests.append(share((emask, self.moves[i], None, signs[i])))
        faces = []
        for (shift, _, units, ref_unit), c, sign in zip(self.faces_data,
                                                        codes, signs):
            if c:
                faces.append(share((units[c] - (c << shift), sign)))
                faces.append(share((ref_unit - (c << shift), -sign)))
        return share(tuple(tests)), share(tuple(faces))

    # -- one cell -----------------------------------------------------------

    def face_terms(self, key):
        """Boundary of one y cell as its table's ((key delta, coeff), ...)."""
        return self._table(key >> self.state_shift)[1]

    def step(self, key, classify=False):
        """The flow's step from one cell (see Flow): None for a critical
        cell, False for an upper one, and for a lower cell a the terms of
        flow(a) = sum of coeff * flow(a + delta) over the faces of a's
        partner that Pruning and Dead faces keep, as ((delta, coeff), ...),
        or as the delta alone for a unit step.  With classify, `classify`'s
        answer in place of the step: the scan is this one."""
        st = key >> self.state_shift
        tests, _, steps = self._tables.get(st) or self._table(st)
        for mask, moves, delta, sign in tests:
            if key & mask:
                if moves:
                    for fmask, partner, j in moves:
                        if key & fmask:
                            if classify:
                                return key + partner, sign, True
                            got = steps.get(j)
                            return self._follow(st, j) if got is None else got
            elif moves is None:
                return (key + delta, sign, False) if classify else False
        return None

    def classify(self, key):
        """None for a critical cell, else (partner, [d upper : lower], is
        the cell the lower one)."""
        return self.step(key, True)

    def _follow(self, st, j):
        """The step of the up move j (an option: site i, code k) on the
        lower cells a of state part st, compiled on first use and kept: the
        faces of a's partner b but a that Pruning and Dead faces keep, as
        (key delta from a, coefficient -[db : f]/[db : a]) in b's face
        order.  It reads st's record (`_record`)."""
        if self._rows is None:
            self._reach, self._rows = self._reach_tables()
        reach = self._reach
        rec = self._records.get(st)
        if rec is None:
            rec = self._records[st] = self._record(st)
        sites, held = rec
        i, k = self.options[j]
        shift, _, units, _ = self.faces_data[i]
        v = self.scan_pos[i]
        partner = (k << shift) - units[k]
        below = self.rule[i][4][k]  # (i) the E_v edges below k
        keep = below | self.before[v] & ~held  # (ii) E_w, w before v not in S
        at = bisect(sites, (i,))  # b's sites: st's with i after `at` of them
        sites = sites[:at] + (self._rows[i][k],) + sites[at:]
        q = 1 if at & 1 else -1  # the coefficient of b's first code face
        dead = {}  # (site, owner of the edge it adds) -> v stays stuck
        got = []
        for u, s, code_x, ref_x, c, _, _ in sites:
            for x, w in ((code_x, q), (ref_x, -q)):
                if s > v and not x & keep:
                    continue  # upper
                if u != i and not x & below and reach:  # ready at v
                    o = reach[0].get(x)
                    stuck = dead.get((u, o))
                    if stuck is None:
                        stuck = dead[u, o] = self._stuck(sites, v, u, o)
                    if stuck:
                        continue
                delta = partner - c + x
                if delta:  # not a itself
                    got.append(self._share((delta, w)))
            q = -q
        # a unit step, b's face at v by r(v) alone, as its delta
        got = got[0][0] if len(got) == 1 else tuple(got)
        self._tables[st][2][j] = got
        return got

    def _record(self, st):
        """What every up move on state part st reads: its occupied sites in
        builder order as (site, scan position, unit of the code edge, unit
        of the reference edge, code << shift, (owner, position) of the code
        edge if outside the site's E, whether the code is eligible), and the
        OR of their E_w.  The E_w are disjoint, so the E_w of the empty
        sites before v are `before[v]` less that OR."""
        codes = self._codes_and_signs(st)[0]
        sites = tuple([row[c] for row, c in zip(self._rows, codes) if c])
        return sites, sum(self.rule[u][2] for u, *_ in sites)

    def _reach_tables(self):
        """(reach, rows): the dead-face rule's tables (see Dead faces),
        sites by scan position: {edge unit of an E: (owner, position in
        it)}, p and rho per site, |E| per site, p-ancestry masks (the site
        and each p above it), masks of the sites with the same p and a
        higher rho and of the sites whose p is the site, and the mask of the
        sites with no p; False when the search breaks (C), on which the
        rule's proof rests.  rows holds per builder site and code the
        site's entry in a record (see `_record`)."""
        pos, scan = self.scan_pos, self.scan
        own = {unit: (pos[i], r) for i, (_, _, _, up, _) in
               enumerate(self.rule) for r, (_, unit, _) in enumerate(up)}
        rows = [[None] + [(u, pos[u], x, ref_unit, c << shift, None if
                           own[x][0] == pos[u] else own[x], c in rule[4])
                          for c, x in enumerate(units[1:], 1)]
                for u, ((shift, _, units, ref_unit), rule) in
                enumerate(zip(self.faces_data, self.rule))]
        par, rho = [None] * len(scan), [0] * len(scan)
        for i, (_, _, _, ref_unit) in enumerate(self.faces_data):
            if ref_unit in own:
                par[pos[i]], rho[pos[i]] = own[ref_unit]
                if par[pos[i]] > pos[i]:
                    return False, rows
        anc, lone = [], 0
        higher, kids = [0] * len(scan), [0] * len(scan)
        for s, p in enumerate(par):
            anc.append(1 << s | (0 if p is None else anc[p]))
            if p is None:
                lone |= 1 << s
                continue
            kids[p] |= 1 << s
            for t in range(s):
                if par[t] == p:
                    lo, hi = (t, s) if rho[t] < rho[s] else (s, t)
                    higher[lo] |= 1 << hi
        sizes = [len(self.rule[i][3]) for i in scan]
        return (own, par, rho, sizes, anc, higher, kids, lone), rows

    def _stuck(self, sites, v, u, o):
        """Whether the face of b (its occupied sites `sites`, as `_record`
        gives them) at site u, adding an edge of E_o (o = (owner, position)
        by scan position, None for a free edge), leaves the site at scan
        position v ready for good, by the Z test or the root test of Dead
        faces."""
        _, par, rho, sizes, anc, higher, kids, lone = self._reach
        p = par[v]
        if p is None:
            return True
        state = fell = 0  # U, and the sites of b's S but u
        moved = 0 if o is None else anc[o[0]]  # M, all before v
        drops = {}  # site -> highest position a code edge of S drops on
        root = False  # p in b's S with a code of E_p, the face not at p
        for w, s, _, _, _, out, eligible in sites:
            if s < v:
                state |= 1 << s
                moved |= anc[s]
                if s == p:
                    root = eligible and w != u
            if w == u:
                continue
            fell |= 1 << s
            for z in (par[s], out and out[0]):
                if z is not None and z < v:
                    moved |= anc[z]
            if out and out[1] > drops.get(out[0], -1):
                drops[out[0]] = out[1]
        if root and par[p] is None and \
                not moved & -(2 << p) & ~lone & ~kids[p]:
            return True  # the root test
        z = 0  # Z
        todo = moved | 1 << v
        while todo:
            t = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            p, r = par[t], rho[t]
            if p is not None and (
                    state >> p & 1 and sizes[p] > r + 1
                    or o is not None and o[0] == p and o[1] > r
                    or moved & higher[t]
                    or z & ((1 << t) - 1) & -(2 << p)
                    or moved & -(2 << p) & ~lone and (
                        fell & higher[t] or drops.get(p, -1) > r)):
                z |= 1 << t
        return not z >> v & 1

    # -- all cells ----------------------------------------------------------

    def critical_cells(self):
        """Sorted critical y keys per dimension, listed per state set.  The
        search runs on an explicit stack: a recursive closure would refer to
        itself, and that cycle would keep the lists alive after the listing
        until the cyclic collector ran."""
        n = self.n
        end = len(self.scan)
        cells = [[] for _ in range(min(n, len(self.rule)) + 1)]
        # (scan position, state key, generators, groups of units of which
        # the monomial needs at least one each, units it may use freely)
        stack = [(0, 0, 0, (), [u for e, u in enumerate(self.unit)
                                if e not in self.eligible_edges])]
        while stack:
            s, states, k, groups, free = stack.pop()
            if s == end:
                # every edge part with n - k particles, at least one in each
                # group and any number on the free units
                if len(groups) > n - k:
                    continue
                accs = [(states, n - k)]
                later = len(groups)
                for units in groups:
                    later -= 1
                    accs = [(acc + p, left - t) for acc, left in accs
                            for t in range(1, left - later + 1)
                            for p in _edge_parts(units, t)]
                cells[k].extend(acc + p for acc, left in accs
                                for p in _edge_parts(free, left))
                continue
            stack.append((s + 1, states, k, groups, free))  # v not in S
            if k == n:
                continue
            i = self.scan[s]
            shift, _, _, up, below = self.rule[i]
            units = [u for _, u, _ in up]
            for c in range(1, len(self.faces_data[i][2])):
                if c not in below:  # not eligible: E_v is free
                    stack.append((s + 1, states + (c << shift), k + 1,
                                  groups, free + units))
                    continue
                at = [code for _, _, code in up].index(c)
                if at:  # m needs an E_v edge below c; the rest are free
                    stack.append((s + 1, states + (c << shift), k + 1,
                                  groups + (units[:at],), free + units[at:]))
        while len(cells) > 1 and not cells[-1]:
            cells.pop()
        return [sorted(dim) for dim in cells]

    # -- bases --------------------------------------------------------------

    def from_builder(self, key):
        """A builder cell, of any basis, as [(y key, coeff), ...]: the y
        terms of its state part shifted by the y base of its edge part."""
        st, ep = divmod(key, self.enc.edge_span)
        terms = self._y_state_terms(st)
        base = self._y_base.get(ep)
        if base is None:
            _, mults = self.enc.digits(ep)
            base = self._y_base[ep] = sum(m * u for m, u in zip(mults,
                                                                 self.unit))
        return [(base + y, x) for y, x in terms]

    def _y_state_terms(self, st):
        """The builder state part st in the y basis, as ((y key delta,
        coeff), ...), converted, checked and cached on first use."""
        terms = self._y_terms.get(st)
        if terms is None:
            terms = self._convert(st)
            self._check_chain_map(st, terms)
            self._y_terms[st] = terms
        return terms

    def _check_chain_map(self, st, terms):
        """Raise BoundaryError unless d_y . from_builder = from_builder . d_x
        and d^2 = 0 on the builder state part st, whose y terms are `terms`
        (see Proof): the faces of its table in `SwEncoding.part`, converted
        (and so checked) first, against the faces of the y terms' tables;
        then the faces of its faces, which must cancel."""
        enc = self.enc
        span, shift = enc.edge_span, self.state_shift
        faces = enc.part(st)[2]
        dim = len(faces) // 2
        sums = {}
        for y, x in terms:
            for delta, w in self._table(y >> shift)[1]:
                sums[y + delta] = sums.get(y + delta, 0) + x * w
        for delta, w in faces:
            face, ep = divmod(st * span + delta, span)
            base = self._edge_unit[ep]
            for y, x in self._y_state_terms(face):
                sums[y + base] = sums.get(y + base, 0) - w * x
        if any(sums.values()):
            raise BoundaryError(
                f"the basis change is not a chain map at dimension {dim}, "
                f"state part {st}")
        sums = {}
        for delta, w in faces:
            for delta2, w2 in enc.part(st + delta // span)[2]:
                sums[delta + delta2] = sums.get(delta + delta2, 0) + w * w2
        if any(sums.values()):
            raise BoundaryError(f"dd != 0 at dimension {dim}, state part {st}")

    def _convert(self, st):
        """The product over the sites of the builder state part st of each
        site's y terms (`to_y`): no term when pi sends a site's state to 0."""
        terms = [(0, 1)]
        for row, c in zip(self.to_y, self.enc.part(st)[0]):
            if c:
                terms = [(k + s, x * y) for k, x in terms for s, y in row[c]]
        return tuple(terms)


def _apply(table, chain):
    """A map given per code as ((code, edge or None, coeff), ...) applied
    to a chain of one site, [(code, edges, coeff), ...], edges sorted."""
    return [(c2, edges if e is None else tuple(sorted(edges + (e,))), x * w)
            for c, edges, x in chain for c2, e, w in table[c]]


def _sum(*chains):
    """{(code, edges): coeff} of the chains added up, zeros dropped."""
    out = {}
    for chain in chains:
        for c, edges, x in chain:
            out[c, edges] = out.get((c, edges), 0) + x
    return {k: x for k, x in out.items() if x}


_RETRACTIONS = set()  # the site tables `_check_retraction` has proved


def _check_retraction(enc):
    """Raise BoundaryError unless the retraction tables of enc (`retract`,
    `include` and `homotopy` of `SwEncoding`) give, at every site and code,
    chain maps pi and iota with pi . iota = id and iota . pi - id = d H +
    H d (see Bases); d is the site's face rule in enc and in the
    all-reduced encoding of the same graph and n.  The error names the
    dimension and the one-site state part of the failing code.  The
    identities hold or fail alike when the edges are renamed one to one, so
    each site's edges are renamed in the order they first appear, and
    tables equal to ones proved before are not proved again."""
    red = SwEncoding(enc.graph, enc.n, enc.sites)
    for i in range(len(enc.sites)):
        rule = enc.site_rule(i)
        names = {None: None}

        def renamed(rows):
            return tuple(tuple((c, names.setdefault(e, len(names) - 1), w)
                               for c, e, w in row) for row in rows)

        d = renamed(faces for _, faces in rule)
        d_red = renamed(faces for _, faces in red.site_rule(i))
        pi = renamed((got,) if got else () for got in enc.retract[i])
        iota = renamed(tuple((c, None, w) for c, w in got)
                       for got in enc.include[i])
        h = renamed(((got[0], None, got[1]),) if got else ()
                    for got in enc.homotopy[i])
        tables = (d, d_red, pi, iota, h)
        if tables in _RETRACTIONS:
            continue
        for c, (st, faces) in enumerate(rule):
            one = [(c, (), 1)]
            image = _apply(pi, one)
            checks = [(_apply(d_red, image), _apply(pi, _apply(d, one))),
                      (_apply(iota, image),
                       one + _apply(d, _apply(h, one))
                       + _apply(h, _apply(d, one)))]
            for k, _, _ in image:
                back = [(k, (), 1)]
                checks += [(_apply(pi, _apply(iota, back)), back),
                           (_apply(d, _apply(iota, back)),
                            _apply(iota, _apply(d_red, back)))]
            if any(_sum(a) != _sum(b) for a, b in checks):
                raise BoundaryError(
                    f"the retraction is not a homotopy equivalence at "
                    f"dimension {len(faces) // 2}, state part {st}")
        _RETRACTIONS.add(tables)


class MorseFlow:
    """The memoised gradient-path flow of a matching (see Shared, Flow and
    Memo): its cells, y cells of the half-edge matching or cube cells, to
    chains of critical cells, as {critical key: coeff}.  A chain of unit
    steps is walked in a loop, and every cell on it gets the flow of its
    end, so memo values may be shared between cells; none is mutated."""

    def __init__(self, matching, critical):
        self.matching = matching
        self.memo = {key: {key: 1} for dim in critical for key in dim}

    def _flow(self, base, terms):
        """The sum of q * flow(base + delta) over terms (delta, q), as
        {critical key: coeff}: a depth-first search over the lower cells
        that walks each chain of unit steps in a loop (see Flow).  A frame
        holds its cell, its terms, their sum so far and the cells that get
        its flow: the walk that led to it and its own cell, last.  A cell
        in progress holds _ACTIVE in the memo; an error takes every such
        entry out again."""
        memo = self.memo
        step = self.matching.step
        stack = []
        cell, todo, acc, walk = base, iter(terms), {}, ()
        try:
            while True:
                for delta, q in todo:
                    f = cell + delta
                    val = memo.get(f)
                    if val is None:
                        s = step(f)
                        walked = []
                        while type(s) is int:  # flow(f) = flow(f + s)
                            memo[f] = _ACTIVE
                            walked.append(f)
                            f += s
                            val = memo.get(f)
                            if val is not None:
                                break
                            s = step(f)
                        if val is None:
                            if s is None:
                                raise EngineError(f"cell {f} is critical but "
                                                  f"not listed")
                            if s is not False:  # expand f first
                                memo[f] = _ACTIVE
                                walked.append(f)
                                stack.append((cell, todo, acc, walk, q))
                                cell, todo, acc, walk = f, iter(s), {}, walked
                                break
                            val = _EMPTY  # an upper cell
                        for g in walked:
                            memo[g] = val
                    if val is _ACTIVE:
                        raise EngineError("the gradient paths form a cycle")
                    for g, x in val.items():
                        acc[g] = acc.get(g, 0) + q * x
                else:
                    val = {g: x for g, x in acc.items() if x} \
                        if 0 in acc.values() else acc
                    if not stack:
                        return val
                    val = val or _EMPTY
                    for g in walk:
                        memo[g] = val
                    cell, todo, acc, walk, q = stack.pop()
                    for g, x in val.items():
                        acc[g] = acc.get(g, 0) + q * x
        except BaseException:
            for g in [g for g, val in memo.items() if val is _ACTIVE]:
                del memo[g]
            raise

    def cell(self, key):
        """flow(key)."""
        val = self.memo.get(key)
        return self._flow(key, ((0, 1),)) if val is None else val

    def boundary(self, key):
        """The Morse differential of a critical cell: flow(d key)."""
        return self._flow(key, self.matching.face_terms(key))

    def chain(self, z: Chain, mcx: ChainComplex) -> Chain:
        """A chain of the builder's complex carried into the Morse complex
        mcx: the basis change, then the flow."""
        from_builder = self.matching.from_builder
        terms = [(y, coeff * x) for key, coeff in z.data.items()
                 for y, x in from_builder(key)]
        return Chain(mcx, z.dim, self._flow(0, terms))


@pause_gc
def morse_complex(enc, euler):
    """(Morse complex, flow) of the all-reduced half-edge complex of enc's
    graph and n, for the complex encoded by enc in any basis, whose Euler
    characteristic is euler (see `assemble`); its meta records the search
    too.  The flow carries enc's cells in through pi (see Bases), whose
    site tables are proved first.  Raises BoundaryError when they fail, and
    EngineError when the listed critical cells differ from their count."""
    order, refs, searches, counts = choose_search(enc)
    return assemble(MorseMatching(enc, order, refs), euler,
                    {"model": "swiatkowski-morse", "search": searches}, counts)


@pause_gc
def assemble(matching, euler, meta, counts=None):
    """(Morse complex, flow) of a matching on a complex whose Euler
    characteristic is euler: one cell per critical cell the matching lists,
    in sorted key order per dimension, with the differential of each read
    from the flow.  Both models build theirs here: the half-edge matching
    of this module and the cube matching of `confhom.abrams`.  The meta is
    `meta` with the critical cells per dimension.  Raises EngineError when
    the critical cells do not give that Euler characteristic or differ from
    `counts`, the number per dimension a closed form gives."""
    cells = matching.critical_cells()
    listed = list(map(len, cells))
    got = sum((-1) ** d * size for d, size in enumerate(listed))
    if got != euler:
        raise EngineError(f"the critical cells give Euler characteristic "
                          f"{got}, the complex {euler}")
    if counts is not None and listed != counts:
        raise EngineError(f"{listed} critical cells listed per dimension, "
                          f"{counts} counted")
    flow = MorseFlow(matching, cells)
    boundaries = {}
    for d in range(1, len(cells)):
        index = {key: i for i, key in enumerate(cells[d - 1])}
        rows, cols, vals = array("l"), array("l"), array("l")
        for c, key in enumerate(cells[d]):
            got = flow.boundary(key)
            rows.extend(map(index.__getitem__, got))
            cols.extend([c] * len(got))
            vals.extend(got.values())
        boundaries[d] = (rows, cols, vals)
    mcx = ChainComplex(listed, boundaries, cells=cells,
                       meta=dict(meta, critical_cells=listed))
    return mcx, flow
