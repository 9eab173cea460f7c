"""Distinguished cycles of configuration complexes: circle classes,
junction exchange classes, the four-edge theta surface class, their
products, and the named chain-level relations among them.

Every cycle is built by `product_cycle`: a single dressed cycle is the
product of one part.  In the half-edge model the product is assembled
symbolically (per-vertex states plus edge multiplicities) and then encoded
into the target complex, so the same construction works in canonical and
reduced bases.  The result is verified to have zero boundary.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

from .abrams import build_abrams, cell as acell
from .complexes import Chain, ChainComplex
from .graph import build_family, order_vertices
from .homology import class_span_rank, solve_boundary
from .swiatkowski import build_swiatkowski


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


# -- symbolic half-edge chains ----------------------------------------------
# cell: (states, edges) with states a tuple of (vertex, spec) sorted by the
# graph's vertex order and edges a sorted tuple of (edge_id, mult).

def _sym_canon(states, edges):
    return (tuple(sorted(states.items(), key=lambda kv: kv[0])),
            tuple(sorted((e, m) for e, m in edges.items() if m)))


def _h_positions(g, cell):
    states, _ = cell
    vorder = g._vindex
    return sorted(vorder[v] for v, spec in states if spec != "v")


def _sym_mul(g, A, B):
    """Product of symbolic chains with the alternating-order sign."""
    out = {}
    for ca, va in A.items():
        pa = _h_positions(g, ca)
        sa, ea = dict(ca[0]), dict(ca[1])
        for cb, vb in B.items():
            sb, eb = dict(cb[0]), dict(cb[1])
            clash = set(sa) & set(sb)
            if clash:
                raise CycleError(f"factors share vertex state at {sorted(clash)}")
            pb = _h_positions(g, cb)
            inv = sum(1 for x in pa for y in pb if y < x)
            sign = -1 if inv % 2 else 1
            states = dict(sa)
            states.update(sb)
            edges = dict(ea)
            for e, m in eb.items():
                edges[e] = edges.get(e, 0) + m
            key = _sym_canon(states, edges)
            nv = out.get(key, 0) + sign * va * vb
            if nv:
                out[key] = nv
            else:
                del out[key]
    return out


def _sym_scale_edges(chain, edges):
    out = {}
    for (states, es), v in chain.items():
        ed = dict(es)
        for e, m in edges.items():
            ed[e] = ed.get(e, 0) + m
        out[_sym_canon(dict(states), ed)] = v
    return out


def _sym_add(A, B, coeff=1):
    out = dict(A)
    for k, v in B.items():
        nv = out.get(k, 0) + coeff * v
        if nv:
            out[k] = nv
        else:
            del out[k]
    return out


def _encode_sym(cx: ChainComplex, sym) -> Chain:
    """Encode a symbolic chain.  Every key the encoding accepts is a cell of
    cx, and a cell's dimension is its number of half-edge states."""
    enc = cx.meta["encoding"]
    data = {}
    dim = None
    for (states, edges), v in sym.items():
        d = sum(1 for _, spec in states if spec != "v")
        if dim is None:
            dim = d
        elif dim != d:
            raise CycleError("mixed-dimension chain")
        key = enc.encode(dict(states), dict(edges))
        data[key] = data.get(key, 0) + v
    return Chain(cx, dim if dim is not None else 0, data)


def _h_diff(cx, v, e_plus, e_minus):
    """(h at e_plus) - (h at e_minus) at vertex v, in this complex's basis."""
    reduced = cx.meta["reduced"]
    if v in reduced:
        g = cx.meta["graph"]
        ref = g.edges[g.half_edges(v)[0][0]][0]
        out = {}
        if e_plus != ref:
            out[_sym_canon({v: ("d", e_plus)}, {})] = 1
        if e_minus != ref:
            out[_sym_canon({v: ("d", e_minus)}, {})] = -1
        return out
    return {_sym_canon({v: ("h", e_plus)}, {}): 1,
            _sym_canon({v: ("h", e_minus)}, {}): -1}


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


def _sym_o_cycle(g, edge_ids, cx):
    """Sum over cycle vertices of (outgoing - incoming) half-edge states,
    oriented from the least vertex."""
    route = _cycle_route(g, list(edge_ids))
    k = len(edge_ids)
    out = {}
    for i in range(k):
        v = route[i]
        e_in = edge_ids[(i - 1) % k]
        e_out = edge_ids[i]
        out = _sym_add(out, _h_diff(cx, v, e_out, e_in))
    return out


def _sym_y_cycle(g, hub, branches, cx):
    ei, ej, ek = branches
    for e in branches:
        if hub not in g.endpoints(e):
            raise CycleError(f"branch {e!r} is not incident to hub {hub!r}")
    if len(set(branches)) != 3:
        raise CycleError("a junction cycle needs three distinct branches")
    out = {}
    for e, pair in ((ei, (ej, ek)), (ej, (ek, ei)), (ek, (ei, ej))):
        term = _sym_scale_edges(_h_diff(cx, hub, pair[0], pair[1]), {e: 1})
        out = _sym_add(out, term)
    return out


def _sym_theta_cycle(g, edge_ids, cx):
    """The two-junction surface class on four parallel edges."""
    ends = {frozenset(g.endpoints(e)) for e in edge_ids}
    if len(ends) != 1:
        raise CycleError("theta cycle needs parallel edges")
    u, v = sorted(next(iter(ends)), key=g._vindex.get)
    i, j, k, l = edge_ids
    out = {}
    for sign, top, rest in ((-1, j, (i, k, l)), (1, k, (i, j, l)),
                            (-1, l, (i, j, k))):
        cy = _sym_y_cycle(g, v, rest, cx)
        diff = _h_diff(cx, u, i, top)
        out = _sym_add(out, _sym_mul(g, diff, cy), coeff=sign)
    return out


# -- parts ------------------------------------------------------------------

def _spec_support(g, spec: CycleSpec):
    edges, verts = set(), set()
    if spec.kind == "O":
        route = _cycle_route(g, list(spec.cycle))
        edges |= set(spec.cycle)
        verts |= set(route)
    elif spec.kind == "Y":
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


def _sym_spec(cx, spec: CycleSpec):
    """Symbolic chain of one undressed part, after `_spec_support` has
    checked it."""
    g = cx.meta["graph"]
    if spec.kind == "O":
        return _sym_o_cycle(g, spec.cycle, cx)
    if spec.kind == "Y":
        return _sym_y_cycle(g, spec.hub, spec.branches, cx)
    return _sym_theta_cycle(g, spec.edges, cx)


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
    g = cx.meta["graph"]
    model = cx.meta.get("model")
    dressing = dressing or {}
    dress_v = tuple(dressing.get("vertices", ()))
    dress_e = dict(dressing.get("edges", {}))
    for p in parts:
        if p.dressing_vertices or p.dressing_edges:
            raise CycleError("dress the product, not its factors")
    supports = [_spec_support(g, p) for p in parts]
    total = (sum(map(_spec_particles, parts)) + len(dress_v)
             + sum(dress_e.values()))
    if total != cx.meta.get("n"):
        raise CycleError(
            f"product carries {total} particles, complex has {cx.meta.get('n')}")
    # In the half-edge model edge occupation is module multiplication, so
    # only the state-carrying vertices must be disjoint; the cube model
    # needs disjoint closed supports.
    strict = model == "abrams"
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            shared = supports[i][1] & supports[j][1]
            if strict:
                shared |= supports[i][0] & supports[j][0]
            if shared:
                raise CycleError(f"parts {i} and {j} share {sorted(shared)}")
    all_e = set().union(*(s[0] for s in supports)) if supports else set()
    all_v = set().union(*(s[1] for s in supports)) if supports else set()
    for v in dress_v:
        if v in all_v:
            raise CycleError(f"dressing vertex {v!r} overlaps a carrier")
    if strict:
        for e in dress_e:
            if e in all_e:
                raise CycleError(f"dressing edge {e!r} overlaps a carrier")

    if model == "swiatkowski":
        sym = None
        for p in parts:
            s = _sym_spec(cx, p)
            sym = s if sym is None else _sym_mul(g, sym, s)
        if dress_v:
            parked = _sym_canon({v: "v" for v in dress_v}, {})
            sym = _sym_mul(g, sym, {parked: 1})
        if dress_e:
            sym = _sym_scale_edges(sym, dress_e)
        chain = _encode_sym(cx, sym)
    elif model == "abrams":
        if dress_e:
            raise CycleError("cube-model dressings place particles on vertices")
        factors = [make_cycle_part_abrams(cx, p) for p in parts]
        chain = None
        for combo, coeff in _abrams_product_terms(cx, factors):
            term = acell(cx, combo + list(dress_v)) * coeff
            chain = term if chain is None else chain + term
    else:
        raise CycleError(f"unknown model {model!r}")
    if chain.boundary():
        raise CycleError("product chain has nonzero boundary")
    return chain


def make_cycle_part_abrams(cx, spec):
    """Undressed one-part cycle as [(edge items, vertex items, coeff)]."""
    g = cx.meta["graph"]
    og = cx.meta["ordered"]
    if spec.kind == "O":
        route = _cycle_route(g, list(spec.cycle))
        out = []
        for i, eid in enumerate(spec.cycle):
            u, w = route[i], route[i + 1]
            sign = 1 if og.labels[u] < og.labels[w] else -1
            out.append(([eid], [], sign))
        return out
    if spec.kind == "Y":
        lab = og.labels
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
        return [([e1], [u0], 1), ([e0], [u1], 1), ([e2], [u1], 1),
                ([e1], [u2], -1), ([e0], [u2], -1), ([e2], [u0], -1)]
    raise CycleError("cube-model products take O and Y parts")


def _abrams_product_terms(cx, factors):
    og = cx.meta["ordered"]
    g = cx.meta["graph"]

    def tau_of(eid):
        return og.tau(g.edge_index(eid))

    def rec(i, items_e, items_v, coeff, taus):
        if i == len(factors):
            inv = sum(1 for a in range(len(taus)) for b in range(a + 1, len(taus))
                      if taus[a] > taus[b])
            sign = -1 if inv % 2 else 1
            yield (items_e + items_v, coeff * sign)
            return
        for es, vs, c in factors[i]:
            yield from rec(i + 1, items_e + es, items_v + vs,
                           coeff * c, taus + [tau_of(e) for e in es])

    yield from rec(0, [], [], 1, [])


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
    # (e_a - e_b) * theta == c_A c'_B - c_B c'_A with the index sets below
    for ea, eb, tri_a, tri_b in cases:
        theta = _sym_theta_cycle(g, tuple(e), cx)
        lhs = _sym_add(_sym_scale_edges(theta, {ea: 1}),
                       _sym_scale_edges(theta, {eb: 1}), coeff=-1)
        prod1 = _sym_mul(g, _sym_y_cycle(g, "u", tri_a, cx),
                         _sym_y_cycle(g, "v", tri_b, cx))
        prod2 = _sym_mul(g, _sym_y_cycle(g, "u", tri_b, cx),
                         _sym_y_cycle(g, "v", tri_a, cx))
        rhs = _sym_add(prod1, prod2, coeff=-1)
        lhs_c = _encode_sym(cx, lhs)
        rhs_c = _encode_sym(cx, rhs)
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
    total = None
    for tri_a, tri_b, sgn in terms:
        prod = _sym_mul(g, _sym_y_cycle(g, "u", tri_a, cx),
                        _sym_y_cycle(g, "v", tri_b, cx))
        total = prod if total is None else _sym_add(total, prod, coeff=sgn)
    chain = _encode_sym(cx, total) if total else Chain(cx, 2, {})
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
