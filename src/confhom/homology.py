"""Exact integral homology: unit-pivot complex reduction (an acyclic
matching realized as a sequence of elementary reductions), Smith normal
form (the same reduction of a one-map complex, then a dense Smith normal
form of the block it leaves), boundary-equation solving, and
homology-class ranks.

All arithmetic is exact; Python integers are arbitrary precision, so no
overflow handling is needed anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import floordiv, mod, mul

from .complexes import BoundaryError, Chain, ChainComplex, pause_gc


class EngineError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# dense Smith normal form (with optional transforms)
# ---------------------------------------------------------------------------

def snf_dense(mat, transforms=False):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (divisors, U, Uinv, V) with U*mat*V diagonal when transforms is
    requested, else (divisors, None, None, None).  Divisors are positive and
    form a divisibility chain.
    """
    A = [list(row) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)] if transforms else None
    Uinv = [[int(i == j) for j in range(m)] for i in range(m)] if transforms else None
    V = [[int(i == j) for j in range(n)] for i in range(n)] if transforms else None

    def row_op(i, j, q):  # row_i -= q * row_j
        Ai, Aj = A[i], A[j]
        for k in range(n):
            Ai[k] -= q * Aj[k]
        if transforms:
            Ui, Uj = U[i], U[j]
            for k in range(m):
                Ui[k] -= q * Uj[k]
            for r in range(m):  # inverse: col_j += q * col_i
                Uinv[r][j] += q * Uinv[r][i]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            A[r][i] -= q * A[r][j]
        if transforms:
            for r in range(n):
                V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if transforms:
            U[i], U[j] = U[j], U[i]
            for r in range(m):
                Uinv[r][i], Uinv[r][j] = Uinv[r][j], Uinv[r][i]

    def swap_cols(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        if transforms:
            for r in range(n):
                V[r][i], V[r][j] = V[r][j], V[r][i]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        if transforms:
            U[i] = [-x for x in U[i]]
            for r in range(m):
                Uinv[r][i] = -Uinv[r][i]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                v = Ai[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        while True:
            if A[t][t] < 0:
                negate_row(t)
            p = A[t][t]
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // p
                    if q:
                        row_op(i, t, q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // p
                    if q:
                        col_op(j, t, q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot clears its row and column; enforce divisibility
            offender = None
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # add offending row to the pivot row
        t += 1
    divisors = [A[k][k] for k in range(t)]
    return divisors, U, Uinv, V


@dataclass
class SnfResult:
    """Rank and elementary divisors d_1 | d_2 | ... of an integer matrix."""
    rank: int
    divisors: tuple

    @property
    def torsion(self):
        return tuple(d for d in self.divisors if d > 1)


def smith_normal_form(matrix, shape=None) -> SnfResult:
    """Smith normal form data of a dense (list of rows) or sparse
    ((rows, cols, vals) with shape=(m, n), repeated entries summed) integer
    matrix.

    The matrix is the one map of a complex with m 1-cells, n 2-cells and
    no 0-cells, so that no row is protected; `_reduce` eliminates its unit
    pivots, one divisor 1 each, and `snf_dense` takes the nonzero block
    left over."""
    if shape is None:
        shape = (len(matrix), max(map(len, matrix), default=0))
        matrix = ([i for i, row in enumerate(matrix) for _ in row],
                  [j for row in matrix for j in range(len(row))],
                  [v for row in matrix for v in row])
    rcx, (trail, *_) = _reduce(ChainComplex([0, *shape], {2: matrix},
                                            meta={"model": "snf"}))
    rows, cols, vals = rcx.boundary_triplets(2)
    rpos = {r: i for i, r in enumerate(sorted(set(rows)))}
    cpos = {c: j for j, c in enumerate(sorted(set(cols)))}
    block = [[0] * len(cpos) for _ in rpos]
    for r, c, v in zip(rows, cols, vals):
        block[rpos[r]][cpos[c]] = v
    divisors = snf_dense(block)[0]
    if any(d == 0 for d in divisors):
        raise EngineError("zero divisor in SNF chain")
    return SnfResult(rank=len(trail) + len(divisors),
                     divisors=tuple([1] * len(trail) + divisors))


# ---------------------------------------------------------------------------
# complex reduction (acyclic matching via elementary reductions)
# ---------------------------------------------------------------------------

@dataclass
class ReductionStats:
    original: list
    reduced: list
    pairs: int
    protected: int


@pause_gc
def morse_reduce(cx: ChainComplex, track=()):
    """Shrink a complex by repeated elementary reductions on unit entries.

    Returns (reduced complex, transported chains, trail info).  The reduced
    complex has at most as many cells in every dimension and identical
    homology; its boundary is the induced one.  Chains in `track` (cycles
    of positive dimension) are transported to the reduced complex.  The
    trail info (see `_reduce`) supports lifting reduced-complex cycles back
    and solving boundaries.

    The elimination runs once per complex: the reduced complex and the
    trail are cached on `cx`, and every call, with or without `track`,
    reuses them; transport replays the cached trail.  This relies on a
    complex not being mutated after it is built.  `homology` with
    reduce=False never calls this, so it bypasses the cache; on a complex
    with a Morse complex, `homology` and `class_span_rank` call it on the
    Morse complex, so that a call on the full complex stays the generic
    path.
    """
    if cx._reduction is None:
        cx._reduction = _reduce(cx)
    rcx, trail_info = cx._reduction
    if any(ch.dim == 0 for ch in track):
        raise EngineError("cannot transport 0-dimensional classes")
    moved = _forward(cx, trail_info, track) if track else []
    return rcx, [_to_chain(cx, rcx, ch.dim, z, trail_info[1])
                 for ch, z in zip(track, moved)], trail_info


def _reduce(cx: ChainComplex):
    """The one elimination behind `morse_reduce` and `smith_normal_form`:
    returns the reduced complex and (trail, offsets, dim_of, quotient).
    Cells carry global ids, offset by dimension.  Trail entry (a, b, bd_b,
    cofaces_a) records the pair with b's boundary at elimination time (so
    the pivot is bd_b[a]) and the coefficients (c_1, lam_1, c_2, lam_2,
    ...) of a in its other cofaces c_i at that time.  `quotient` holds the
    protected vertices the elimination quotiented out (one per component,
    on an augmented complex), else it is empty."""
    dims = cx.dims
    top = cx.top_dim
    offsets = [0]
    for d in range(top + 1):
        offsets.append(offsets[-1] + dims[d])
    N = offsets[-1]

    dim_of = b"".join(bytes([d]) * dims[d] for d in range(top + 1))

    # Memory: the per-cell containers are most of the reduction's peak.
    # A coboundary is a dict with None values rather than a set: from five
    # entries on a dict is the smaller of the two, and it iterates in
    # insertion order.  Every cell id is taken from one list `ids`, so each
    # id is a single int object shared by all boundary dicts, coboundaries,
    # queues and the trail, instead of a new int per triplet entry.
    ids = list(range(N))
    bdry = [None] * N
    cobdry = [None] * N
    for d in range(1, top + 1):
        rows, cols, vals = cx.boundary_triplets(d)
        face_ids = ids[offsets[d - 1]:offsets[d]]
        cell_ids = ids[offsets[d]:offsets[d + 1]]
        for r, c, v in zip(rows, cols, vals):
            if not v:
                continue
            g = cell_ids[c]
            f = face_ids[r]
            bd = bdry[g]
            if bd is None:
                bdry[g] = {f: v}
            elif f in bd:
                v += bd[f]
                if v:
                    bd[f] = v
                else:
                    del bd[f]
                    del cobdry[f][g]
                continue
            else:
                bd[f] = v
            cb = cobdry[f]
            if cb is None:
                cobdry[f] = {g: None}
            else:
                cb[g] = None

    alive = bytearray([1]) * N
    trail = []

    # one protected critical 0-cell per connected piece of the 1-skeleton,
    # which is all that H_0 depends on (0-cells have g == local index)
    parent = ids[:dims[0]]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    augmented = True  # every 1-cell's boundary coefficients sum to 0
    for bd in bdry[offsets[1]:offsets[2]] if top >= 1 else ():
        if bd:
            if sum(bd.values()):
                augmented = False
            faces = iter(bd)
            ra = find(next(faces))
            for f in faces:
                rb = find(f)
                if ra != rb:
                    parent[rb] = ra
    protected = []
    seen_comp = set()
    for g in ids[:dims[0]]:
        r = find(g)
        if r not in seen_comp:
            seen_comp.add(r)
            protected.append(g)
    protected_set = set(protected)

    # hq holds coreduction candidates (boundary of size 1) and fq free-face
    # candidates (coboundary of size 1), both popped in cell-id order; fq
    # is built in ascending order, so it is already a heap.
    # Quotienting out each protected vertex (dropping it from all
    # coboundaries) keeps the rank of d_1 only on an augmented complex;
    # otherwise the protected vertices just never get paired.
    hq = []
    if augmented:
        for v0 in protected:
            cb = cobdry[v0]
            if cb:
                for g in cb:
                    bd = bdry[g]
                    del bd[v0]
                    if len(bd) == 1:
                        hq.append(g)
                cobdry[v0] = None
    hq += [g for g, bd in zip(ids, bdry) if bd is not None and len(bd) == 1]
    heapify(hq)  # duplicates are skipped at pop
    fq = [g for g, cb in zip(ids, cobdry) if cb is not None and len(cb) == 1]

    gq = []
    gq_ready = False

    def eliminate(a, b):
        bb = bdry[b]  # kept by the trail; nothing changes it once b dies
        eps = bb[a]
        rest = [(f, w) for f, w in bb.items() if f != a]
        cof = []
        # a is never one of the faces in `rest`, so cobdry[a] stays fixed
        for c in cobdry[a]:
            if c == b:
                continue
            bc = bdry[c]
            lam = bc.pop(a)
            cof += (c, lam)
            q = -lam * eps
            for f, w in rest:
                old = bc.get(f)
                if old is None:
                    bc[f] = q * w
                    cobdry[f][c] = None
                elif (nv := old + q * w):
                    bc[f] = nv
                else:
                    del bc[f]
                    cb = cobdry[f]
                    del cb[c]
                    if len(cb) == 1:
                        heappush(fq, f)
            if len(bc) == 1:
                heappush(hq, c)
            if gq_ready and bc:
                heappush(gq, (len(bc), c))
        # one flat tuple per pair, () when a has no other coface: the trail
        # lives as long as the complex, so it holds as few objects as it can
        trail.append((a, b, bb, tuple(cof)))
        # drop b from coboundaries of its faces
        for f, _ in rest:
            cb = cobdry[f]
            del cb[b]
            if len(cb) == 1:
                heappush(fq, f)
        # drop the b-term from boundaries of b's cofaces
        cbb = cobdry[b]
        if cbb:
            for x in cbb:
                bx = bdry[x]
                del bx[b]
                if len(bx) == 1:
                    heappush(hq, x)
                if gq_ready and bx:
                    heappush(gq, (len(bx), x))
        # drop a from coboundaries of a's own faces
        ba = bdry[a]
        if ba:
            for f in ba:
                cb = cobdry[f]
                del cb[a]
                if len(cb) == 1:
                    heappush(fq, f)
        alive[a] = alive[b] = 0
        bdry[a] = bdry[b] = None
        cobdry[a] = cobdry[b] = None

    while True:
        progressed = False
        while hq:
            g = heappop(hq)
            bd = bdry[g]
            if not alive[g] or bd is None or len(bd) != 1:
                continue
            a, eps = next(iter(bd.items()))
            if eps in (1, -1) and alive[a] and a not in protected_set:
                eliminate(a, g)
                progressed = True
        if progressed:
            continue
        while fq:
            a = heappop(fq)
            cb = cobdry[a]
            if (not alive[a] or cb is None or len(cb) != 1
                    or a in protected_set):
                continue
            b = next(iter(cb))
            if alive[b] and bdry[b].get(a) in (1, -1):
                eliminate(a, b)
                progressed = True
                break
        if progressed:
            continue
        # no zero-fill moves left: fall back to the smallest unit pivot
        if not gq_ready:
            gq = [(len(bdry[g]), g) for g in ids
                  if alive[g] and bdry[g]]
            heapify(gq)
            gq_ready = True
        made = False
        while gq:
            size, b = heappop(gq)
            bd = bdry[b]
            if not alive[b] or bd is None or len(bd) != size or not bd:
                continue
            best = None
            for a, v in bd.items():
                if v in (1, -1) and a not in protected_set:
                    cb = cobdry[a]
                    k = (len(cb) if cb else 0, a)
                    if best is None or k < best[0]:
                        best = (k, a)
            if best is None:
                continue
            eliminate(best[1], b)
            made = True
            break
        if not made:
            break

    # assemble the reduced complex
    new_index = {}
    out_cells = [[] for _ in range(top + 1)]
    for d in range(top + 1):
        src = cx.cells[d]
        for i in range(dims[d]):
            g = offsets[d] + i
            if alive[g]:
                new_index[g] = len(out_cells[d])
                out_cells[d].append(src[i])
    boundaries = {}
    for d in range(1, top + 1):
        rows, cols, vals = [], [], []
        for i in range(dims[d]):
            g = offsets[d] + i
            if not alive[g]:
                continue
            bd = bdry[g]
            if not bd:
                continue
            c = new_index[g]
            for f in sorted(bd):
                rows.append(new_index[f])
                cols.append(c)
                vals.append(bd[f])
        boundaries[d] = (rows, cols, vals)
    while len(out_cells) > 1 and not out_cells[-1]:
        out_cells.pop()
        boundaries.pop(len(out_cells), None)

    stats = ReductionStats(
        original=list(dims), reduced=[len(c) for c in out_cells],
        pairs=len(trail), protected=len(protected))
    rcx = ChainComplex([len(c) for c in out_cells], boundaries,
                       cells=out_cells,
                       meta={"model": "reduced", "reduction": stats})
    return rcx, (trail, offsets, dim_of, protected_set if augmented else set())


def _to_chain(cx: ChainComplex, target: ChainComplex, d, z, offsets):
    """Chain of `target` from {global id of a d-cell of cx: coeff}."""
    off = offsets[d]
    keys = cx.cells[d]
    return Chain(target, d, {keys[g - off]: v for g, v in z.items()})


def _to_ids(cx: ChainComplex, ch: Chain, offsets):
    """{global id: coeff} of a chain of cx."""
    idx = cx.index(ch.dim)
    off = offsets[ch.dim]
    return {off + idx[key]: coeff for key, coeff in ch.data.items()}


def _forward(cx: ChainComplex, trail_info, chains, homotopy=None):
    """The map f of the trail's homotopy equivalence: each chain of cx on
    the reduced complex as {global id: coeff}, by replaying the trail in
    order.  Pair (a, b) clears a chain's a-term with z[a]*eps*d(b), eps =
    d(b)[a], and drops its b-term.  Each clearing adds z[a]*eps at b to the
    chain's dict in `homotopy`, when given: that collects h(chain)."""
    trail, offsets = trail_info[:2]
    tracked = []
    where = {}  # cell -> ids of the tracked chains whose support holds it
    for ti, ch in enumerate(chains):
        z = _to_ids(cx, ch, offsets)
        for g in z:
            where.setdefault(g, set()).add(ti)
        tracked.append(z)
    for a, b, bb, _ in trail:
        touched = where.pop(a, None)
        if touched:
            eps = bb[a]
            for ti in touched:
                z = tracked[ti]
                q = z.pop(a) * eps
                if homotopy is not None:
                    homotopy[ti][b] = q
                for f, w in bb.items():
                    if f == a:
                        continue
                    nv = z.get(f, 0) - q * w
                    if nv:
                        if f not in z:
                            where.setdefault(f, set()).add(ti)
                        z[f] = nv
                    else:
                        del z[f]
                        where[f].discard(ti)
        touched = where.pop(b, None)
        if touched:
            for ti in touched:
                del tracked[ti][b]
    return tracked


def _backward(trail_info, d, z):
    """The map g of the trail's homotopy equivalence on a d-chain z as
    {global id: coeff}, in place: the reverse replay sets each pair's b
    to clear the a-term of d(z), and adds to b-terms z already holds."""
    trail, _, dim_of, _ = trail_info
    for a, b, bb, cof in reversed(trail):
        if dim_of[b] != d:
            continue
        s = 0
        for c, lam in zip(cof[::2], cof[1::2]):
            zc = z.get(c)
            if zc:
                s += lam * zc
        if s:
            z[b] = z.get(b, 0) - bb[a] * s
            if not z[b]:
                del z[b]
    return z


def lift_cycle(cx: ChainComplex, reduced_chain: Chain, trail_info):
    """Lift a cycle of the reduced complex back to the original complex by
    replaying the reduction trail in reverse."""
    d = reduced_chain.dim
    offsets = trail_info[1]
    z = _backward(trail_info, d, _to_ids(cx, reduced_chain, offsets))
    out = _to_chain(cx, cx, d, z, offsets)
    if out.boundary():
        raise EngineError("lifted chain is not a cycle")
    return out


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

@dataclass
class HomologyResult:
    """Per-dimension Betti number and torsion coefficients."""
    dims: dict
    cells: list = field(default_factory=list)
    reduced_cells: list = field(default_factory=list)
    euler: int = 0
    elapsed_ms: float = 0.0

    def betti(self, d):
        return self.dims.get(d, (0, ()))[0]

    def torsion(self, d):
        return tuple(self.dims.get(d, (0, ()))[1])

    def betti_vector(self):
        top = max(self.dims) if self.dims else 0
        return tuple(self.betti(d) for d in range(top + 1))

    def to_json_dict(self):
        return {"dims": {str(d): {"betti": b, "torsion": list(t)}
                         for d, (b, t) in sorted(self.dims.items())}}


def _checked_morse(cx: ChainComplex, reduce, check=True):
    """The (Morse complex, flow) pair a result of cx is read from when
    `reduce` (`cx.morse_complex()`, None when the builder attached none),
    else None; with `check`, after the d^2 checks that result needs.

    A half-edge complex, in any basis, and a cube complex are read through
    a Morse complex and need no proof of their triplets: the tables the
    Morse complex is built from, and the site tables of the retraction
    pi from a half-edge basis onto the all-reduced one, are proved as they
    are first read (see `confhom.critical` and `confhom.abrams`), and the
    Morse complex's differential, which comes from the flow, is checked
    once, when it is first used.  Any other complex (JSON, reduced) and any
    complex with `reduce` off has its triplets checked, once per complex
    (a complex whose check passed is not checked again).  A failed check
    or table proof raises BoundaryError and drops the cached reduction and
    Morse complex of cx."""
    try:
        morse = cx.morse_complex() if reduce else None
        if morse is None:
            if check and not cx._checked:
                cx.check_boundary_squared()
        elif check and not morse[0]._checked:
            morse[0].check_boundary_squared()
    except BoundaryError:
        cx._drop_caches()
        raise
    return morse


def homology(cx: ChainComplex, dims=None, reduce=True, check=True) -> HomologyResult:
    """Betti numbers and torsion coefficients of a chain complex.

    dims: None for all dimensions, an int, or an inclusive (lo, hi) range;
    a dimension below 0 or above the top has the zero group.

    reduce: take Smith normal forms of a reduced complex, by one of two
    paths.  A complex with a Morse complex (`cx.morse_complex()`: every
    half-edge complex, in the canonical, a partly reduced or the
    all-reduced basis, and every cube complex) is not loaded cell by cell:
    its Morse complex (of the all-reduced basis of the half-edge complex's
    graph and n, or the Farley-Sabalka one of the cube complex) is built
    from the critical cells, cached in `cx._morse`, and `morse_reduce`
    finishes it.  Any other complex (JSON complexes) goes through
    `morse_reduce(cx)`, cached in `cx._reduction`.  `reduced_cells` counts
    the reduced complex of the path taken; the Euler identity ties the
    full complex's cell counts to the Betti numbers either way.  With
    reduce off, each map of cx goes to `smith_normal_form`, which reduces
    it alone, as a one-map complex, and caches nothing on cx.

    check: run the exact d^2 = 0 check before any result is read, in this
    process (see `_checked_morse`).  On the Morse path the tables the Morse
    complex is built from, and the retraction's site tables, are proved as
    they are first read, whatever `check` says, and `check` adds the check
    of the Morse complex itself; cx's cells are not listed and its
    triplets are neither written nor proved.  On any other path
    `cx.check_boundary_squared` runs, once per complex.  If a check fails,
    BoundaryError is raised and the complex's cached reduction and Morse
    complex are dropped.
    """
    t0 = time.perf_counter()
    morse = _checked_morse(cx, reduce, check)
    if dims is None:
        wanted = range(0, cx.top_dim + 1)
    elif isinstance(dims, int):
        wanted = [dims]
    else:
        wanted = range(dims[0], dims[1] + 1)
    if reduce:
        rcx = morse_reduce(cx if morse is None else morse[0])[0]
    else:
        rcx = cx

    snf_cache = {}

    def snf_of(d):
        if d in snf_cache:
            return snf_cache[d]
        if d < 1 or d > rcx.top_dim:
            res = SnfResult(0, ())
        else:
            trips = rcx.boundary_triplets(d)
            res = smith_normal_form(trips, shape=(rcx.dims[d - 1], rcx.dims[d]))
        snf_cache[d] = res
        return res

    out = {}
    for d in wanted:
        cd = rcx.dims[d] if 0 <= d <= rcx.top_dim else 0
        lower = snf_of(d)
        upper = snf_of(d + 1)
        betti = cd - lower.rank - upper.rank
        if betti < 0:
            raise EngineError(f"negative Betti number at dimension {d}")
        out[d] = (betti, upper.torsion)
    result = HomologyResult(
        dims=out, cells=list(cx.dims), reduced_cells=list(rcx.dims),
        euler=cx.euler_characteristic())
    if dims is None:
        alt = sum((-1) ** d * b for d, (b, _) in out.items())
        if alt != result.euler:
            raise EngineError(
                f"Euler check failed: cells give {result.euler}, "
                f"Betti numbers give {alt}")
    result.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return result


# ---------------------------------------------------------------------------
# boundary solving and homology-class ranks
# ---------------------------------------------------------------------------

def _dense(rcx: ChainComplex, d):
    """d_d of rcx as a dense list of rows: dims[d-1] rows, none for d < 1,
    by dims[d] columns, none above the top dimension."""
    nrows = rcx.dims[d - 1] if 1 <= d <= rcx.top_dim + 1 else 0
    ncols = rcx.dims[d] if d <= rcx.top_dim else 0
    out = [[0] * ncols for _ in range(nrows)]
    for r, c, v in zip(*rcx.boundary_triplets(d)):
        out[r][c] += v
    return out


def solve_boundary(cx: ChainComplex, b: Chain):
    """A chain x with boundary(x) == b, or None if b is not a boundary.

    Solved exactly through the generic reduction of cx, after its d^2 check,
    as for generators.  The trail is a chain homotopy equivalence: f to the
    reduced complex (`_forward`), g back (`_backward`), and h with
    id - g.f = d.h + h.d.  For a cycle b, Smith transforms of the reduced
    d_{dim b + 1} alone give y with d(y) = f(b), and x = g(y) + h(b) has
    d(x) = b, which is verified.  No matrix spans cx, so no size cap applies.
    On an augmented complex f(b) is read modulo the quotiented vertices, and
    a d(x) that differs from b only on them means b bounds nothing.
    """
    if b.complex is not cx:
        raise ValueError("chain belongs to another complex")
    d = b.dim + 1
    if d > cx.top_dim:
        return None if b else Chain(cx, d, {})
    if b.boundary():
        return None
    _checked_morse(cx, False)
    rcx, _, trail_info = morse_reduce(cx)
    offsets, quotient = trail_info[1], trail_info[3]
    h = {}
    fb = {g: v for g, v in _forward(cx, trail_info, [b], [h])[0].items()
          if g not in quotient}
    divisors, U, _, V = snf_dense(_dense(rcx, d), transforms=True)
    vec = [0] * len(U)
    for key, coeff in _to_chain(cx, rcx, d - 1, fb, offsets).data.items():
        vec[rcx.index(d - 1)[key]] = coeff
    ub = [sum(map(mul, row, vec)) for row in U]
    if any(map(mod, ub, divisors)) or any(ub[len(divisors):]):
        return None
    w = list(map(floordiv, ub, divisors))
    y = Chain(rcx, d, {rcx.cells[d][i]: sum(map(mul, row, w))
                       for i, row in enumerate(V)})
    # h(b) holds only eliminated cells and y only surviving ones
    z = _backward(trail_info, d, _to_ids(cx, y, offsets) | h)
    out = _to_chain(cx, cx, d, z, offsets)
    miss = out.boundary() - b
    if not miss:
        return out
    if _to_ids(cx, miss, offsets).keys() <= quotient:
        return None
    raise EngineError("boundary solve verification failed")


def class_span_rank(cx: ChainComplex, cycles, d):
    """Rank of the span of the cycles' classes in d-dimensional homology.

    The cycles are carried to a reduced complex: into the Morse complex
    (for a half-edge complex by pi onto the all-reduced basis, the basis
    change and the flow; for a cube complex by the flow alone), and then
    along its trail, when cx has a Morse complex (every half-edge and cube
    complex), else along the trail of cx.  The complexes the
    rank is read from are d^2-checked first, as by `homology`, and the
    basis change into the Morse complex is checked on each state part it
    converts; a failure drops the caches of cx."""
    for z in cycles:
        if z.complex is not cx:
            raise ValueError("cycle belongs to another complex")
        if z.dim != d:
            raise ValueError("cycle of wrong dimension")
        if z.boundary():
            raise ValueError("input chain is not a cycle")
    if not cycles:
        return 0
    morse = _checked_morse(cx, True)
    if morse is not None:
        mcx, flow = morse
        try:  # the basis change is checked on each state part it converts
            track = [flow.chain(z, mcx) for z in cycles]
        except BoundaryError:
            cx._drop_caches()
            raise
        rcx, moved, _ = morse_reduce(mcx, track=track)
    else:
        rcx, moved, _ = morse_reduce(cx, track=cycles)
    if d > rcx.top_dim:
        return 0
    # rank of [d_{d+1} | cycles] minus rank of d_{d+1}
    nrows = rcx.dims[d]
    ncols = rcx.dims[d + 1] if d < rcx.top_dim else 0
    trips = rcx.boundary_triplets(d + 1)
    base = smith_normal_form(trips, shape=(nrows, ncols)).rank
    rows, cols, vals = (list(t) for t in trips)
    idx = rcx.index(d)
    for k, z in enumerate(moved, start=ncols):
        for key, v in z.data.items():
            rows.append(idx[key])
            cols.append(k)
            vals.append(v)
    full = smith_normal_form((rows, cols, vals),
                             shape=(nrows, ncols + len(moved))).rank
    return full - base


def homology_generators(cx: ChainComplex, d):
    """Explicit cycles generating the free part of d-dimensional homology,
    read from the generic reduction of cx after the d^2 check of its
    triplets, on half-edge complexes too: lifting through the Morse
    complex needs the map back from it, which does not exist yet.

    With U d_{d+1} V diagonal of rank r, the first r columns of U^-1 span
    the saturated image of d_{d+1} and are cycles; the cycles in the span
    of the other columns, the kernel of d_d on them, give the free part."""
    _checked_morse(cx, False)
    rcx, _, trail_info = morse_reduce(cx)
    if not 0 <= d <= rcx.top_dim:
        return []
    divisors, _, Uinv, _ = snf_dense(_dense(rcx, d + 1), transforms=True)
    rest = [row[len(divisors):] for row in Uinv]
    k = len(Uinv) - len(divisors)
    if not k:
        return []
    # d_d on the other columns; a zero row stands in for d_0
    m1 = [[sum(map(mul, row, col)) for col in zip(*rest)]
          for row in _dense(rcx, d)] or [[0] * k]
    r1, _, _, V = snf_dense(m1, transforms=True)
    kernel = list(zip(*V))[len(r1):]
    gens = [Chain(rcx, d, {key: sum(map(mul, row, vec))
                           for key, row in zip(rcx.cells[d], rest)})
            for vec in kernel]
    return [lift_cycle(cx, z, trail_info) for z in gens]
