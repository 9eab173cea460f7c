"""Distinguished cycles of configuration complexes: circle classes,
junction exchange classes, the four-edge theta surface class, their
products, and the named chain-level relations among them.

Every cycle is built by `product_cycle`: a single dressed cycle is the
product of one part.  The complex's encoding decides the model, and a
complex without one (reduced, Morse, JSON) is refused.  Both models share
one product algebra (An, Drummond-Cole and Knudsen, arXiv:1708.02351): a
part is {key: coeff} of packed keys from the encoding's `encode_part`
(`_Part`), and the product of parts that share no place is the sum of
their keys, signed by the order of their generators, both of which the
encoding gives (`occupancy`).  In the half-edge model the places are the
sites with a state and the generators the half-edge states, in the
complex's own basis, canonical or reduced; the complex is a module over
the edge monomials, so an edge dressing adds one constant key.  In the
cube model the places are the vertices the closed cells cover and the
generators the edges, in tau order; its free particles sit on vertices.
The particle count is checked on the finished cells, and the result is
verified to have zero boundary.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

from .abrams import build_abrams, cell as acell
from .complexes import Chain, ChainComplex
from .graph import build_family, order_vertices
from .homology import class_span_rank, solve_boundary
from .swiatkowski import SwEncoding, build_swiatkowski


class CycleError(ValueError):
    pass


@dataclass(frozen=True)
class CycleSpec:
    """kind "O": carrier is an edge-id cycle; kind "Y": hub plus 3 ordered
    branch edges; kind "Theta": 4 parallel edges between one vertex pair.
    The dressing places free particles disjointly from the carrier."""
    kind: str
    cycle: tuple = ()
    hub: object = None
    branches: tuple = ()
    edges: tuple = ()
    dressing_vertices: tuple = ()
    dressing_edges: tuple = ()  # ((edge_id, multiplicity), ...)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text) if isinstance(text, str) else dict(text)
        dressing = d.get("dressing", {})
        return cls(
            kind=d["kind"],
            cycle=tuple(d.get("cycle", ())),
            hub=d.get("hub"),
            branches=tuple(d.get("branches", ())),
            edges=tuple(d.get("edges", ())),
            dressing_vertices=tuple(dressing.get("vertices", ())),
            dressing_edges=tuple(sorted(dressing.get("edges", {}).items())),
        )

    def to_json_dict(self):
        out = {"kind": self.kind}
        if self.cycle:
            out["cycle"] = list(self.cycle)
        if self.hub is not None:
            out["hub"] = self.hub
        if self.branches:
            out["branches"] = list(self.branches)
        if self.edges:
            out["edges"] = list(self.edges)
        out["dressing"] = {"vertices": list(self.dressing_vertices),
                           "edges": dict(self.dressing_edges)}
        return out


# -- parts ------------------------------------------------------------------

class _Part:
    """A chain under construction, {key: coeff}, for the encoding enc of
    either model, with `particles` particles on every term.  The keys are
    parts of cells, as the encoding's `encode_part` packs them.  Parts that
    share no place multiply by key addition, signed by the order of their
    generators (`occupancy`), and dressing a half-edge part with edges adds
    one constant key.  No key carries: cube parts that share a place are
    refused, and half-edge digits hold while the particles are at most n,
    as `product_cycle` checks first."""

    __slots__ = ("enc", "terms", "particles")

    def __init__(self, enc, terms, particles):
        self.enc = enc
        self.terms = terms
        self.particles = particles

    def add(self, other, coeff=1):
        out = dict(self.terms)
        for k, v in other.terms.items():
            nv = out.get(k, 0) + coeff * v
            if nv:
                out[k] = nv
            else:
                del out[k]
        return _Part(self.enc, out, self.particles)

    def __mul__(self, other):
        """The product, each term signed by the order of the generators: -1
        to the number of pairs of a generator of self after one of other."""
        occupancy = self.enc.occupancy
        left = [(k, v, *occupancy(k)) for k, v in self.terms.items()]
        right = [(k, v, *occupancy(k)) for k, v in other.terms.items()]
        shared = ({p for _, _, places, _ in left for p in places}
                  & {p for _, _, places, _ in right for p in places})
        if shared:
            raise CycleError(f"factors share vertex state at {sorted(shared)}")
        out = {}
        for ka, va, _, ga in left:
            for kb, vb, _, gb in right:
                inv = sum(1 for x in ga for y in gb if y < x)
                key = ka + kb
                nv = out.get(key, 0) + (-va * vb if inv % 2 else va * vb)
                if nv:
                    out[key] = nv
                else:
                    del out[key]
        return _Part(self.enc, out, self.particles + other.particles)

    def dressed(self, edges):
        """The half-edge part times the edge monomial {edge_id: mult}."""
        offset, k = self.enc.encode_part(edges=edges)
        return _Part(self.enc, {key + offset: v
                                for key, v in self.terms.items()},
                     self.particles + k)

    def chain(self, cx: ChainComplex) -> Chain:
        """The finished chain in cx, the complex of the encoding: n
        particles on every cell, and one dimension."""
        if self.particles != self.enc.n:
            raise CycleError(f"chain carries {self.particles} particles, "
                             f"complex has {self.enc.n}")
        dims = {self.enc.dim_of(key) for key in self.terms}
        if len(dims) > 1:
            raise CycleError("mixed-dimension chain")
        return Chain(cx, dims.pop() if dims else 0, self.terms)


# -- half-edge parts ---------------------------------------------------------

def _h_diff(enc, v, e_plus, e_minus):
    """(h at e_plus) - (h at e_minus) at vertex v, in the encoding's basis.
    At a reduced site h_k - h_0 is the generator ("d", e_k), so a term at
    the reference half-edge e_0 drops out."""
    if v in enc.reduced:
        kind, ref = "d", enc.reference(v)
    else:
        kind, ref = "h", None
    terms = {}
    for e, coeff in ((e_plus, 1), (e_minus, -1)):
        if e != ref:
            terms[enc.encode_part({v: (kind, e)})[0]] = coeff
    return _Part(enc, terms, 1)


def _cycle_route(g, edge_ids):
    """Vertex route v_0, v_1, ... around an embedded cycle given by edges."""
    if len(edge_ids) < 2:
        raise CycleError("a cycle needs at least two edges")
    u0, v0 = g.endpoints(edge_ids[0])
    _, e2 = g.endpoints(edge_ids[1])[0], set(g.endpoints(edge_ids[1]))
    start = u0 if u0 not in e2 else v0
    route = [start]
    for eid in edge_ids:
        u, v = g.endpoints(eid)
        if route[-1] == u:
            route.append(v)
        elif route[-1] == v:
            route.append(u)
        else:
            raise CycleError(f"edges do not form a cycle at {eid!r}")
    if route[-1] != route[0]:
        raise CycleError("edge list does not close up")
    if len(set(route[:-1])) != len(route) - 1:
        raise CycleError("cycle revisits a vertex")
    return route


def _o_cycle(enc, edge_ids):
    """Sum over cycle vertices of (outgoing - incoming) half-edge states,
    oriented from the least vertex."""
    route = _cycle_route(enc.graph, list(edge_ids))
    k = len(edge_ids)
    out = _Part(enc, {}, 1)
    for i in range(k):
        out = out.add(_h_diff(enc, route[i], edge_ids[i],
                              edge_ids[(i - 1) % k]))
    return out


def _y_cycle(enc, hub, branches):
    """The junction cycle at hub, after `_spec_support` has checked its
    three branches."""
    ei, ej, ek = branches
    out = _Part(enc, {}, 2)
    for e, (plus, minus) in ((ei, (ej, ek)), (ej, (ek, ei)), (ek, (ei, ej))):
        out = out.add(_h_diff(enc, hub, plus, minus).dressed({e: 1}))
    return out


def _theta_cycle(enc, edge_ids):
    """The two-junction surface class on four parallel edges."""
    g = enc.graph
    ends = {frozenset(g.endpoints(e)) for e in edge_ids}
    if len(ends) != 1:
        raise CycleError("theta cycle needs parallel edges")
    u, v = sorted(next(iter(ends)), key=g._vindex.get)
    i, j, k, l = edge_ids
    out = _Part(enc, {}, 3)
    for sign, top, rest in ((-1, j, (i, k, l)), (1, k, (i, j, l)),
                            (-1, l, (i, j, k))):
        out = out.add(_h_diff(enc, u, i, top) * _y_cycle(enc, v, rest), sign)
    return out


# -- specs ------------------------------------------------------------------

def _spec_support(g, spec: CycleSpec):
    edges, verts = set(), set()
    if spec.kind == "O":
        route = _cycle_route(g, list(spec.cycle))
        edges |= set(spec.cycle)
        verts |= set(route)
    elif spec.kind == "Y":
        if len(spec.branches) != 3 or len(set(spec.branches)) != 3:
            raise CycleError("a junction cycle needs three distinct branches")
        for e in spec.branches:
            if spec.hub not in g.endpoints(e):
                raise CycleError(
                    f"branch {e!r} is not incident to hub {spec.hub!r}")
        edges |= set(spec.branches)
        verts.add(spec.hub)
    elif spec.kind == "Theta":
        if len(spec.edges) != 4:
            raise CycleError("theta cycle needs exactly four edges")
        edges |= set(spec.edges)
        u, v = g.endpoints(spec.edges[0])
        verts |= {u, v}
    else:
        raise CycleError(f"unknown cycle kind {spec.kind!r}")
    return edges, verts


def _spec_particles(spec: CycleSpec):
    base = {"O": 1, "Y": 2, "Theta": 3}[spec.kind]
    return (base + len(spec.dressing_vertices)
            + sum(m for _, m in spec.dressing_edges))


def _half_edge_part(enc, spec: CycleSpec):
    """The half-edge part of one undressed spec, after `_spec_support` has
    checked it."""
    if spec.kind == "O":
        return _o_cycle(enc, spec.cycle)
    if spec.kind == "Y":
        return _y_cycle(enc, spec.hub, spec.branches)
    return _theta_cycle(enc, spec.edges)


def _cube_part(enc, spec: CycleSpec):
    """The cube part of one undressed O or Y spec, after `_spec_support` has
    checked it: a circle is its edges, signed by the direction of the route
    against the labels, and a junction is six terms of one branch edge and
    the end of another."""
    og = enc.og
    g = og.graph
    lab = og.labels
    if spec.kind == "O":
        route = _cycle_route(g, list(spec.cycle))
        return _Part(enc, {enc.encode_part([eid])[0]:
                           1 if lab[route[i]] < lab[route[i + 1]] else -1
                           for i, eid in enumerate(spec.cycle)}, 1)
    if spec.kind == "Y":
        ends = {}
        for e in spec.branches:
            u, v = g.endpoints(e)
            ends[e] = v if u == spec.hub else u
        below = [e for e in spec.branches if lab[ends[e]] < lab[spec.hub]]
        if len(below) != 1:
            raise CycleError("junction needs exactly one branch towards the root")
        e0 = below[0]
        e1, e2 = sorted((e for e in spec.branches if e != e0),
                        key=lambda e: lab[ends[e]])
        u0, u1, u2 = ends[e0], ends[e1], ends[e2]
        terms = (((e1, u0), 1), ((e0, u1), 1), ((e2, u1), 1),
                 ((e1, u2), -1), ((e0, u2), -1), ((e2, u0), -1))
        return _Part(enc, {enc.encode_part(items)[0]: coeff
                           for items, coeff in terms}, 2)
    raise CycleError("cube-model products take O and Y parts")


# -- public operations ---------------------------------------------------------

def make_cycle(cx: ChainComplex, spec) -> Chain:
    """One distinguished cycle: the one-part `product_cycle` of the spec's
    carrier, dressed as the spec says."""
    if isinstance(spec, (str, dict)):
        spec = CycleSpec.from_json(spec)
    carrier = replace(spec, dressing_vertices=(), dressing_edges=())
    return product_cycle(cx, [carrier],
                         {"vertices": spec.dressing_vertices,
                          "edges": dict(spec.dressing_edges)})


def product_cycle(cx: ChainComplex, parts, dressing=None) -> Chain:
    """Product of pairwise support-disjoint undressed cycles with a disjoint
    free-particle dressing ({"vertices": [...], "edges": {edge: mult}}); a
    d-cycle for d parts.  Every distinguished cycle is built here, and the
    result is verified to have zero boundary."""
    parts = [CycleSpec.from_json(p) if isinstance(p, (str, dict)) else p
             for p in parts]
    enc = cx.encoding
    if enc is None:
        raise CycleError("cycles are built in a half-edge or cube complex; "
                         "this complex has no cell encoding")
    half_edge = isinstance(enc, SwEncoding)
    g = enc.graph
    dressing = dressing or {}
    dress_v = tuple(dressing.get("vertices", ()))
    dress_e = dict(dressing.get("edges", {}))
    if not parts:
        raise CycleError("a product needs at least one part")
    for p in parts:
        if p.dressing_vertices or p.dressing_edges:
            raise CycleError("dress the product, not its factors")
    supports = [_spec_support(g, p) for p in parts]
    total = (sum(map(_spec_particles, parts)) + len(dress_v)
             + sum(dress_e.values()))
    if total != enc.n:
        raise CycleError(
            f"product carries {total} particles, complex has {enc.n}")
    # In the half-edge model edge occupation is module multiplication, so
    # only the state-carrying vertices must be disjoint; the cube model
    # needs disjoint closed supports.
    strict = not half_edge
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            shared = supports[i][1] & supports[j][1]
            if strict:
                shared |= supports[i][0] & supports[j][0]
            if shared:
                raise CycleError(f"parts {i} and {j} share {sorted(shared)}")
    all_e = set().union(*(s[0] for s in supports))
    all_v = set().union(*(s[1] for s in supports))
    for v in dress_v:
        if v in all_v:
            raise CycleError(f"dressing vertex {v!r} overlaps a carrier")
    if strict and dress_e:
        for e in dress_e:
            if e in all_e:
                raise CycleError(f"dressing edge {e!r} overlaps a carrier")
        raise CycleError("cube-model dressings place particles on vertices")

    part = _half_edge_part if half_edge else _cube_part
    factors = [part(enc, p) for p in parts]
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    if dress_v:
        parked, k = enc.encode_part({v: "v" for v in dress_v} if half_edge
                                    else dress_v)
        prod = prod * _Part(enc, {parked: 1}, k)
    if dress_e:
        prod = prod.dressed(dress_e)
    chain = prod.chain(cx)
    if chain.boundary():
        raise CycleError("product chain has nonzero boundary")
    return chain


def span_rank(cx: ChainComplex, cycles, d) -> int:
    """Rank of the classes of the given d-cycles in d-dimensional homology."""
    return class_span_rank(cx, list(cycles), d)


# -- named relation checks ------------------------------------------------------

@dataclass
class IdentityReport:
    name: str
    holds: bool
    level: str  # "chain" or "homology"
    details: list = field(default_factory=list)

    def __str__(self):
        status = "ok" if self.holds else "FAILED"
        return f"{self.name}: {status} ({self.level}) " + "; ".join(self.details)


def _theta_complex(p, n):
    g = build_family(f"theta:{p}")
    return g, build_swiatkowski(g, n)


def verify_chain_identity(name) -> IdentityReport:
    """Evaluate one named relation in its standard context and report
    whether it holds exactly or only up to boundaries."""
    if name not in _RELATION_CHECKS:
        raise CycleError(f"unknown relation {name!r}")
    return _RELATION_CHECKS[name]()


def _verify_y_ab():
    g = build_family("lasso")
    og = order_vertices(g, "v1")
    cx = build_abrams(og, 2)
    # one particle around the triangle, the other parked on vertex 1
    c_ab = make_cycle(cx, CycleSpec(kind="O", cycle=("a", "b", "c"),
                                    dressing_vertices=("v1",)))
    # both particles around the triangle
    c2 = (acell(cx, [(2, 4), 3]) - acell(cx, [(2, 3), 4])
          - acell(cx, [(3, 4), 2]))
    if c2.boundary():
        raise CycleError("two-particle circle is not a cycle")
    c_y = make_cycle(cx, CycleSpec(kind="Y", hub="v2", branches=("t", "a", "c")))
    s = acell(cx, [(1, 2), (3, 4)])
    lhs = c_ab + c2 - c_y
    holds = lhs == s.boundary()
    return IdentityReport("y-ab", holds, "chain",
                          [f"|lhs|={len(lhs.data)}",
                           "S = {e_1^2, e_3^4}"])


def _verify_theta5():
    g, cx = _theta_complex(5, 3)
    edges = [e[0] for e in g.edges]
    total = None
    sign = 1
    for quad in itertools.combinations(edges, 4):
        term = make_cycle(cx, CycleSpec(kind="Theta", edges=quad)) * sign
        total = term if total is None else total + term
        sign = -sign
    holds = not total
    return IdentityReport("theta5", holds, "chain",
                          [f"residual support {len(total.data)}"])


def _verify_theta_dist():
    g = build_family("theta:4")
    cx = build_swiatkowski(g, 4)
    e = [ed[0] for ed in g.edges]
    details = []
    holds_all = True
    level = "chain"
    cases = [
        (e[0], e[1], (e[0], e[1], e[3]), (e[0], e[1], e[2])),
        (e[0], e[2], (e[0], e[1], e[2]), (e[0], e[2], e[3])),
        (e[0], e[3], (e[0], e[1], e[3]), (e[0], e[2], e[3])),
    ]
    enc = cx.encoding
    theta = _theta_cycle(enc, tuple(e))
    # (e_a - e_b) * theta == c_A c'_B - c_B c'_A with the index sets below
    for ea, eb, tri_a, tri_b in cases:
        lhs = theta.dressed({ea: 1}).add(theta.dressed({eb: 1}), -1)
        rhs = (_y_cycle(enc, "u", tri_a) * _y_cycle(enc, "v", tri_b)).add(
            _y_cycle(enc, "u", tri_b) * _y_cycle(enc, "v", tri_a), -1)
        lhs_c = lhs.chain(cx)
        rhs_c = rhs.chain(cx)
        if lhs_c == rhs_c or lhs_c == -rhs_c:
            details.append(f"({ea}-{eb}): chain")
            continue
        diff = lhs_c - rhs_c
        if diff.boundary():
            holds_all = False
            details.append(f"({ea}-{eb}): lhs-rhs not a cycle")
            continue
        level = "homology"
        if (solve_boundary(cx, diff) is not None
                or solve_boundary(cx, lhs_c + rhs_c) is not None):
            details.append(f"({ea}-{eb}): homology")
        else:
            holds_all = False
            details.append(f"({ea}-{eb}): classes differ")
    return IdentityReport("theta-dist", holds_all, level, details)


def _verify_prod_rel():
    g = build_family("theta:5")
    cx = build_swiatkowski(g, 4)
    e = [ed[0] for ed in g.edges]
    t = lambda *ix: tuple(e[i - 1] for i in ix)
    terms = [
        (t(1, 2, 3), t(1, 4, 5), 1), (t(1, 4, 5), t(1, 2, 3), 1),
        (t(1, 2, 5), t(1, 3, 4), 1), (t(1, 3, 4), t(1, 2, 5), 1),
        (t(1, 2, 4), t(1, 3, 5), -1), (t(1, 3, 5), t(1, 2, 4), -1),
    ]
    enc = cx.encoding
    total = _Part(enc, {}, 4)
    for tri_a, tri_b, sgn in terms:
        prod = _y_cycle(enc, "u", tri_a) * _y_cycle(enc, "v", tri_b)
        total = total.add(prod, sgn)
    chain = total.chain(cx)
    if not chain:
        return IdentityReport("prod-rel", True, "chain", ["sum is zero"])
    if chain.boundary():
        return IdentityReport("prod-rel", False, "chain",
                              ["sum is not even a cycle"])
    filled = solve_boundary(cx, chain)
    if filled is not None:
        return IdentityReport("prod-rel", True, "homology",
                              [f"sum bounds; support {len(chain.data)}"])
    return IdentityReport("prod-rel", False, "homology", ["nontrivial class"])


def _verify_theta3():
    g = build_family("theta:3")
    cx = build_swiatkowski(g, 2)
    e = [ed[0] for ed in g.edges]
    c1 = make_cycle(cx, CycleSpec(kind="Y", hub="u", branches=tuple(e)))
    c2 = make_cycle(cx, CycleSpec(kind="Y", hub="v", branches=tuple(e)))
    filled = solve_boundary(cx, c1 - c2)
    if filled is None:
        filled = solve_boundary(cx, c1 + c2)
        if filled is None:
            return IdentityReport("theta3", False, "homology",
                                  ["junction classes differ"])
    return IdentityReport("theta3", True, "homology",
                          [f"bounding chain support {len(filled.data)}"])


_RELATION_CHECKS = {"y-ab": _verify_y_ab, "theta5": _verify_theta5,
                    "theta3": _verify_theta3, "theta-dist": _verify_theta_dist,
                    "prod-rel": _verify_prod_rel}
# the named chain-level relations, in reporting order
RELATIONS = tuple(_RELATION_CHECKS)
