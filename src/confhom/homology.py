"""Exact integral homology: unit-pivot complex reduction (an acyclic
matching realized as a sequence of elementary reductions), sparse/dense
Smith normal form, boundary-equation solving, and homology-class ranks.

All arithmetic is exact; Python integers are arbitrary precision, so no
overflow handling is needed anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .complexes import Chain, ChainComplex, pause_gc


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


# ---------------------------------------------------------------------------
# sparse elimination for a single matrix
# ---------------------------------------------------------------------------

def _sparse_from_triplets(nrows, ncols, rows, cols, vals):
    colmap = {}
    rowmap = {}
    for r, c, v in zip(rows, cols, vals):
        if not v:
            continue
        col = colmap.setdefault(c, {})
        col[r] = col.get(r, 0) + v
        if col[r] == 0:
            del col[r]
    for c in list(colmap):
        if not colmap[c]:
            del colmap[c]
            continue
        for r in colmap[c]:
            rowmap.setdefault(r, set()).add(c)
    return colmap, rowmap


def _sparse_unit_eliminate(colmap, rowmap):
    """Eliminate unit pivots by column operations; returns the unit rank."""
    rank = 0
    heap = [(len(col), c) for c, col in colmap.items()]
    heapify(heap)
    while heap:
        size, c = heappop(heap)
        col = colmap.get(c)
        if col is None or len(col) != size:
            continue
        pivot_row = None
        best = None
        for r, v in col.items():
            if v in (1, -1):
                k = (len(rowmap.get(r, ())), r)
                if best is None or k < best:
                    best = k
                    pivot_row = r
        if pivot_row is None:
            continue  # no unit entry; leave for the dense stage
        rank += 1
        eps = col[pivot_row]
        targets = [c2 for c2 in rowmap.get(pivot_row, ()) if c2 != c]
        for c2 in targets:
            col2 = colmap[c2]
            lam = col2.get(pivot_row)
            if not lam:
                continue
            q = -lam * eps  # eps in {1,-1}
            for r, v in col.items():
                nv = col2.get(r, 0) + q * v
                if nv:
                    if r not in col2:
                        rowmap.setdefault(r, set()).add(c2)
                    col2[r] = nv
                else:
                    if r in col2:
                        del col2[r]
                        rowmap[r].discard(c2)
            if col2:
                heappush(heap, (len(col2), c2))
            else:
                del colmap[c2]
        # retire the pivot column and row
        for r in col:
            s = rowmap.get(r)
            if s is not None:
                s.discard(c)
                if not s:
                    del rowmap[r]
        del colmap[c]
    return rank


def _leftover_dense(colmap):
    """Collect the non-eliminated block as a dense matrix."""
    if not colmap:
        return []
    rows = sorted({r for col in colmap.values() for r in col})
    rpos = {r: i for i, r in enumerate(rows)}
    out = [[0] * len(colmap) for _ in rows]
    for j, c in enumerate(sorted(colmap)):
        for r, v in colmap[c].items():
            out[rpos[r]][j] = v
    return out


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
    ((rows, cols, vals) with shape=(m, n)) integer matrix."""
    if shape is not None:
        rows, cols, vals = matrix
        colmap, rowmap = _sparse_from_triplets(shape[0], shape[1], rows, cols, vals)
    else:
        m = len(matrix)
        n = len(matrix[0]) if m else 0
        rows = []
        cols = []
        vals = []
        for i in range(m):
            for j in range(n):
                if matrix[i][j]:
                    rows.append(i)
                    cols.append(j)
                    vals.append(matrix[i][j])
        colmap, rowmap = _sparse_from_triplets(m, n, rows, cols, vals)
    unit_rank = _sparse_unit_eliminate(colmap, rowmap)
    divisors, _, _, _ = snf_dense(_leftover_dense(colmap))
    if any(d == 0 for d in divisors):
        raise EngineError("zero divisor in SNF chain")
    return SnfResult(rank=unit_rank + len(divisors),
                     divisors=tuple([1] * unit_rank + divisors))


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
def morse_reduce(cx: ChainComplex, track=(), record_trail=False):
    """Shrink a complex by repeated elementary reductions on unit entries.

    Returns (reduced complex, transported chains, trail).  The reduced
    complex has at most as many cells in every dimension and identical
    homology; its boundary is the induced one.  Chains in `track` (cycles
    of positive dimension) are transported to the reduced complex.  The
    trail, returned when asked for, supports lifting reduced-complex
    cycles back.

    The elimination runs once per complex: the reduced complex and the
    trail are cached on `cx`, and every call, with or without `track`,
    reuses them; transport replays the cached trail.  This relies on a
    complex not being mutated after it is built.  `homology` and
    `class_span_rank` with reduce=False never call this, so they bypass
    the cache; on a complex with a Morse complex they call it on the Morse
    complex, so that a call on the full complex stays the generic path.
    """
    if cx._reduction is None:
        cx._reduction = _reduce(cx)
    rcx, trail_info = cx._reduction
    moved = _transport(cx, rcx, trail_info, track) if track else []
    return rcx, moved, trail_info if record_trail else None


def _reduce(cx: ChainComplex):
    """The one elimination behind `morse_reduce`: returns the reduced
    complex and (trail, offsets, dim_of).  Cells carry global ids, offset
    by dimension.  Trail entry (a, b, bd_b, cofaces_a) records the pair
    with b's boundary at elimination time (so the pivot is bd_b[a]) and
    the coefficients (c_1, lam_1, c_2, lam_2, ...) of a in its other
    cofaces c_i at that time."""
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
        src = cx.cells[d] if cx.cells is not None else range(dims[d])
        for i in range(dims[d]):
            g = offsets[d] + i
            if alive[g]:
                new_index[g] = len(out_cells[d])
                out_cells[d].append(src[i] if cx.cells is not None else i)
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

    meta = dict(cx.meta)
    meta["reduction"] = ReductionStats(
        original=list(dims), reduced=[len(c) for c in out_cells],
        pairs=len(trail), protected=len(protected))
    rcx = ChainComplex([len(c) for c in out_cells], boundaries,
                       cells=out_cells, meta=meta,
                       describe=cx._describe)
    columns = {}

    def faces(d, key):
        if d not in columns:
            columns[d] = rcx._columns(d)
        return columns[d][rcx.index(d)[key]]

    rcx._cell_faces = faces
    return rcx, (trail, offsets, dim_of)


def _to_chain(cx: ChainComplex, target: ChainComplex, d, z, offsets):
    """Chain of `target` from {global id of a d-cell of cx: coeff}."""
    off = offsets[d]
    if cx.cells is None:
        return Chain(target, d, {g - off: v for g, v in z.items()})
    keys = cx.cells[d]
    return Chain(target, d, {keys[g - off]: v for g, v in z.items()})


def _transport(cx: ChainComplex, rcx: ChainComplex, trail_info, chains):
    """Carry cycles of cx to its reduced complex rcx by replaying the trail
    in order: pair (a, b) clears a chain's a-term with a multiple of d(b)
    and drops its b-term."""
    trail, offsets, _ = trail_info
    tracked = []
    where = {}  # cell -> ids of the tracked chains whose support holds it
    for ti, ch in enumerate(chains):
        if ch.dim == 0:
            raise EngineError("cannot transport 0-dimensional classes")
        idx = cx.index(ch.dim)
        off = offsets[ch.dim]
        z = {}
        for key, coeff in ch.data.items():
            g = off + idx[key]
            z[g] = coeff
            where.setdefault(g, set()).add(ti)
        tracked.append(z)
    for a, b, bb, _ in trail:
        touched = where.pop(a, None)
        if touched:
            eps = bb[a]
            for ti in touched:
                z = tracked[ti]
                q = -z.pop(a) * eps
                for f, w in bb.items():
                    if f == a:
                        continue
                    nv = z.get(f, 0) + q * w
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
    return [_to_chain(cx, rcx, ch.dim, z, offsets)
            for ch, z in zip(chains, tracked)]


def lift_cycle(cx: ChainComplex, reduced_chain: Chain, trail_info):
    """Lift a cycle of the reduced complex back to the original complex by
    replaying the reduction trail in reverse."""
    trail, offsets, dim_of = trail_info
    d = reduced_chain.dim
    idx = cx.index(d)
    off = offsets[d]
    z = {}
    for key, coeff in reduced_chain.data.items():
        z[off + idx[key]] = coeff
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


def homology(cx: ChainComplex, dims=None, reduce=True, check=True) -> HomologyResult:
    """Betti numbers and torsion coefficients of a chain complex.

    dims: None for all dimensions, an int, or an inclusive (lo, hi) range.

    reduce: take Smith normal forms of a reduced complex, by one of two
    paths.  A complex with a Morse complex (`cx.morse_complex()`, the full
    all-reduced half-edge complex) is not loaded cell by cell: its Morse
    complex is built from the critical cells, cached in `cx._morse`, and
    `morse_reduce` finishes it.  Any other complex goes through
    `morse_reduce(cx)`, cached in `cx._reduction`.  `reduced_cells` counts
    the reduced complex of the path taken; the Euler identity ties the
    full complex's cell counts to the Betti numbers either way.

    check: run the exact d^2 = 0 check of `cx.check_boundary_squared`,
    once per complex (a complex whose check passed is not checked again).
    On a large complex, with two or more CPUs, the check runs in a worker
    process while this process reduces the complex and takes Smith normal
    forms; otherwise it runs here first (see `ChainComplex.start_check`).
    Either way the check completes before any result is returned: if it
    fails, BoundaryError is raised, also in place of an error the
    reduction raised meanwhile, and the complex's cached reduction and
    Morse complex are dropped.
    """
    t0 = time.perf_counter()
    wait_for_check = cx.start_check() if check else None
    try:
        result = _homology(cx, dims, reduce)
    finally:
        if wait_for_check:
            wait_for_check()
    result.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return result


def _homology(cx: ChainComplex, dims, reduce):
    if dims is None:
        wanted = range(0, cx.top_dim + 1)
    elif isinstance(dims, int):
        wanted = [dims]
    else:
        wanted = range(dims[0], dims[1] + 1)
    if reduce:
        morse = cx.morse_complex()
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
        cd = rcx.dims[d] if d <= rcx.top_dim else 0
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
    return result


# ---------------------------------------------------------------------------
# boundary solving and homology-class ranks
# ---------------------------------------------------------------------------

def solve_boundary(cx: ChainComplex, b: Chain):
    """A chain x with boundary(x) == b, or None if b is not a boundary.

    Solved exactly over the integers through Smith transforms of the
    boundary matrix one dimension up.
    """
    d = b.dim + 1
    if d > cx.top_dim:
        return None if b else Chain(cx, d, {})
    nrows = cx.dims[d - 1]
    ncols = cx.dims[d]
    if nrows * ncols > 6_000_000:
        raise EngineError(
            "boundary solve needs dense transforms; complex too large "
            f"({nrows}x{ncols})")
    rows, cols, vals = cx.boundary_triplets(d)
    dense = [[0] * ncols for _ in range(nrows)]
    for r, c, v in zip(rows, cols, vals):
        dense[r][c] += v
    divisors, U, _, V = snf_dense(dense, transforms=True)
    vec = [0] * nrows
    for key, coeff in b.data.items():
        vec[cx.index(d - 1)[key]] = coeff
    ub = [sum(U[i][k] * vec[k] for k in range(nrows)) for i in range(nrows)]
    r = len(divisors)
    y = [0] * ncols
    for i in range(nrows):
        if i < r:
            if ub[i] % divisors[i]:
                return None
            y[i] = ub[i] // divisors[i]
        elif ub[i]:
            return None
    x = [sum(V[i][k] * y[k] for k in range(min(ncols, len(y)))) for i in range(ncols)]
    cells = cx.cells[d] if cx.cells is not None else list(range(ncols))
    out = Chain(cx, d, {cells[i]: x[i] for i in range(ncols) if x[i]})
    if out.boundary() != b:
        raise EngineError("boundary solve verification failed")
    return out


def class_span_rank(cx: ChainComplex, cycles, d, reduce=True):
    """Rank of the span of the cycles' classes in d-dimensional homology.

    With reduce, the cycles are carried to a reduced complex: by the flow
    into the Morse complex and then along its trail when cx has a Morse
    complex, else along the trail of cx."""
    for z in cycles:
        if z.dim != d:
            raise ValueError("cycle of wrong dimension")
        if z.boundary():
            raise ValueError("input chain is not a cycle")
    if not cycles:
        return 0
    morse = cx.morse_complex() if reduce else None
    if morse is not None:
        mcx, flow = morse
        rcx, moved, _ = morse_reduce(
            mcx, track=[flow.chain(z, mcx) for z in cycles])
    elif reduce:
        rcx, moved, _ = morse_reduce(cx, track=cycles)
    else:
        rcx, moved = cx, cycles
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
    """Explicit cycles generating the free part of d-dimensional homology."""
    rcx, _, trail_info = morse_reduce(cx, record_trail=True)
    if d > rcx.top_dim:
        return []
    nd = rcx.dims[d]
    lo = rcx.boundary_triplets(d)
    hi = rcx.boundary_triplets(d + 1) if d + 1 <= rcx.top_dim else ([], [], [])
    m1 = [[0] * nd for _ in range(rcx.dims[d - 1])] if d >= 1 else []
    for r, c, v in zip(*lo):
        m1[r][c] += v
    n_hi = rcx.dims[d + 1] if d + 1 <= rcx.top_dim else 0
    m2 = [[0] * n_hi for _ in range(nd)]
    for r, c, v in zip(*hi):
        m2[r][c] += v
    # kernel of m1
    if d == 0 or not m1:
        kernel = [[int(i == j) for j in range(nd)] for i in range(nd)]
    else:
        divisors, _, _, V = snf_dense(m1, transforms=True)
        r1 = len(divisors)
        kernel = [[V[i][j] for j in range(r1, nd)] for i in range(nd)]
    k = len(kernel[0]) if kernel else 0
    if k == 0:
        return []
    # express the image of m2 in the kernel basis: solve kernel * X = m2
    divisors, U, _, V = snf_dense(kernel, transforms=True)
    if len(divisors) != k or any(dv != 1 for dv in divisors):
        raise EngineError("kernel basis is not primitive")
    um2 = [[sum(U[i][t] * m2[t][j] for t in range(nd)) for j in range(n_hi)]
           for i in range(k)]
    X = [[sum(V[i][t] * um2[t][j] for t in range(k)) for j in range(n_hi)]
         for i in range(k)]
    divisors2, _, Uinv2, _ = snf_dense(X, transforms=True)
    r2 = len(divisors2)
    gens = []
    cells = rcx.cells[d] if rcx.cells is not None else list(range(nd))
    for j in range(r2, k):
        vec = [sum(kernel[i][t] * Uinv2[t][j] for t in range(k))
               for i in range(nd)]
        data = {cells[i]: vec[i] for i in range(nd) if vec[i]}
        gens.append(Chain(rcx, d, data))
    return [lift_cycle(cx, z, trail_info) for z in gens]
