"""Vertex blowup and the associated short exact sequence of half-edge
complexes, with numerical verification of the connecting-map rank
bookkeeping on the induced long sequence.

Blowing up a vertex detaches every incident edge into a leaf edge.  Chains
of the blown-up graph's complex embed into the complex reduced at that
vertex; projecting onto the difference-generator components is the reverse
map, one component per non-reference half-edge.  Both maps carry a cell
between complexes through its vertex states and edge multiplicities, which
the source complex's encoding decodes (`SwEncoding.decode`) and the
target's encodes; no key is taken apart here.  The connecting map carries
each homology generator once into the n-particle encoding, as a part of
n-1 particles (`cycles._Part`), and dresses it with edges there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import Chain, ChainComplex
from .cycles import _Part
from .graph import Graph, GraphError
from .homology import class_span_rank, homology, homology_generators
from .swiatkowski import build_swiatkowski


@dataclass
class BlowupContext:
    graph: Graph
    vertex: object
    blown: Graph
    half_edges: tuple      # edge ids at the vertex, clockwise; [0] is h_0
    leaf_of: dict          # edge id -> new leaf vertex id

    @property
    def reference_edge(self):
        return self.half_edges[0]


def blowup(g: Graph, v) -> BlowupContext:
    """Detach all edges at v into leaf edges; v disappears and each of its
    edge ends gets a fresh degree-1 endpoint."""
    if g.degree(v) < 2:
        raise GraphError(f"vertex {v!r} has degree {g.degree(v)}; nothing to blow up")
    hes = tuple(g.edges[eidx][0] for eidx, _ in g.half_edges(v))
    leaf_of = {}
    vertices = [w for w in g.vertices if w != v]
    edges = []
    for eid, a, b in g.edges:
        if a == v or b == v:
            leaf = f"{v}*{eid}"
            leaf_of[eid] = leaf
            vertices.append(leaf)
            edges.append((eid, leaf, b if a == v else a))
        else:
            edges.append((eid, a, b))
    blown = Graph(vertices, edges, name=f"{g.name}!{v}" if g.name else f"!{v}")
    return BlowupContext(graph=g, vertex=v, blown=blown,
                         half_edges=hes, leaf_of=leaf_of)


def _recode(chain_data, src_enc, encode):
    """{key: coeff} of src_enc carried cell by cell through the vertex
    states and edge multiplicities to the keys `encode` makes of them."""
    return {encode(*src_enc.decode(key)): coeff
            for key, coeff in chain_data.items()}


def phi(ctx: BlowupContext, chain: Chain, target: ChainComplex) -> Chain:
    """Embed a chain of the blown-up graph's complex into the complex of the
    original graph reduced at the blown vertex (the vertex site stays empty)."""
    return Chain(target, chain.dim, _recode(chain.data, chain.complex.encoding,
                                            target.encoding.encode))


def psi(ctx: BlowupContext, chain: Chain, targets: dict) -> dict:
    """Project a chain of the reduced complex onto its difference-generator
    components: one (n-1)-particle chain of the blown-up graph per
    non-reference half-edge.  targets maps edge ids to the receiving
    complexes; components follow the (h_0 - h) convention."""
    enc = chain.complex.encoding
    v = ctx.vertex
    site = enc.site_of[v]
    out = {e: {} for e in ctx.half_edges[1:]}
    for key, coeff in chain.data.items():
        states, edges = enc.decode(key)
        spec = states.pop(v, None)
        if spec is None:
            continue
        if spec == "v" or spec[0] != "d":
            raise ValueError("complex is not reduced at the blown vertex")
        eid = spec[1]
        # the sign of moving the vertex factor past the h-sites before it,
        # times -1: the difference generator is h - h_0, the decomposition
        # uses h_0 - h
        before = enc.part(key // enc.edge_span)[1].index(site)
        tkey = targets[eid].encoding.encode(states, edges)
        out[eid][tkey] = out[eid].get(tkey, 0) + (coeff if before % 2
                                                  else -coeff)
    return {eid: Chain(targets[eid], max(chain.dim - 1, 0), data)
            for eid, data in out.items()}


@dataclass
class DeltaReport:
    """Rank bookkeeping for the connecting map of the blowup sequence."""
    n: int
    d: int
    beta_reduced: int
    rank_delta_d: int
    ker_rank_d_minus_1: int
    coker_rank_d: int
    domain_rank_d: int
    holds: bool
    details: dict = field(default_factory=dict)


def _delta_columns(ctx, gens, cx_n, e_ref):
    """Cycles (e(h_0) - e(h)) * z in the n-particle complex for each
    homology generator z of the (n-1)-particle complex: z is carried once
    into the n-particle encoding, as a part of n-1 particles, and dressed
    with each edge."""
    enc = cx_n.encoding
    parts = [_Part(enc, _recode(z.data, z.complex.encoding,
                                lambda *cell: enc.encode_part(*cell)[0]),
                   enc.n - 1) for z in gens]
    return {eid: [p.dressed({e_ref: 1}).add(p.dressed({eid: 1}), -1)
                  .chain(cx_n) for p in parts]
            for eid in ctx.half_edges[1:]}


def sequence_complexes(ctx: BlowupContext, n: int):
    """The three complexes of the blowup sequence at particle number n:
    (n-1 on the blown graph, n on the blown graph, n on the original graph
    reduced at the blown vertex)."""
    return (build_swiatkowski(ctx.blown, n - 1),
            build_swiatkowski(ctx.blown, n),
            build_swiatkowski(ctx.graph, n, reduce_vertices=(ctx.vertex,)))


def delta_rank_check(ctx: BlowupContext, n: int, d: int) -> DeltaReport:
    """Verify that the reduced complex's Betti number splits as the
    cokernel rank of the connecting map at (n, d) plus its kernel rank at
    (n, d-1), with the connecting map realized on explicit generators."""
    e_ref = ctx.reference_edge
    cx_low, cx_n, cx_tilde = sequence_complexes(ctx, n)
    beta_tilde = homology(cx_tilde, dims=d).betti(d)
    h_low = homology(cx_low, dims=(max(d - 1, 0), d))
    h_n = homology(cx_n)
    nh = len(ctx.half_edges) - 1

    def delta_data(dim):
        if dim < 0:
            return 0, 0, 0
        beta_low = h_low.betti(dim)
        if dim == 0:
            # every difference of point classes vanishes when the blown
            # complex is connected
            if h_n.betti(0) != 1 or beta_low != 1:
                raise GraphError("rank check needs connected complexes at "
                                 "dimension 0")
            return 0, nh * beta_low, nh * beta_low
        gens = homology_generators(cx_low, dim)
        if len(gens) != beta_low:
            raise GraphError("generator count disagrees with Betti number")
        cols = _delta_columns(ctx, gens, cx_n, e_ref)
        flat = [z for eid in ctx.half_edges[1:] for z in cols[eid]]
        rank = class_span_rank(cx_n, flat, dim) if flat else 0
        dom = nh * len(gens)
        return rank, dom - rank, dom

    rank_d, _, dom_d = delta_data(d)
    _, ker_dm1, _ = delta_data(d - 1)
    coker_d = h_n.betti(d) - rank_d
    holds = beta_tilde == coker_d + ker_dm1
    return DeltaReport(
        n=n, d=d, beta_reduced=beta_tilde, rank_delta_d=rank_d,
        ker_rank_d_minus_1=ker_dm1, coker_rank_d=coker_d,
        domain_rank_d=dom_d, holds=holds,
        details={"beta_blown_d": h_n.betti(d)})
