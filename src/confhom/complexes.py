"""Graded free integer chain complexes with sparse boundary matrices.

Cells are stored as packed integer keys per dimension (the packing is
model-specific and owned by the builder); boundary matrices are triplet
arrays mapping d-cells to (d-1)-chains.
"""

from __future__ import annotations

import functools
import gc
from array import array
from operator import itemgetter

# Entries of the (d-2)-targets the slot proof of `check_boundary_squared`
# gathers at once: the columns it takes per step shrink as the number of
# (upper slot, lower slot) pairs grows, so that the gathered targets take
# about 1 MB whatever the dimension.  Slots are recognised and converted
# to shared ints in runs of this many entries too.
SLOT_CHUNK_ENTRIES = 1 << 15


class BoundaryError(ValueError):
    pass


class ResourceLimitExceeded(RuntimeError):
    pass


def pause_gc(fn):
    """Run fn with the cyclic garbage collector off, restoring it after.

    The d^2 check and the reduction allocate up to millions of acyclic
    dicts, sets and tuples, which the collector would otherwise rescan
    again and again while they are alive; none of them can form a cycle.
    A collector the caller had already turned off stays off.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()
    return wrapper


class ChainComplex:
    """Indexed cell lists per dimension plus sparse integer boundaries.

    boundaries[d] is (rows, cols, vals) with rows indexing (d-1)-cells,
    cols indexing d-cells.  The triplets may come in any order; entries
    repeated at one (row, col) are summed and zero entries are ignored.
    `cells[d]` lists packed cell keys in canonical order; `describe` and
    `cell_faces` are builder-supplied callbacks used for pretty-printing
    and for evaluating boundaries of sparse chains without materializing
    column slices.

    A complex is not mutated after it is built, and it keeps two caches.
    `homology.morse_reduce` caches its one reduction (reduced complex and
    trail) in `_reduction`; generators and lifting always use it, and so
    do homology and class ranks of any complex without a Morse complex.
    A builder may attach a `morse_complex` callback returning (Morse
    complex, flow): `build_swiatkowski` does so for the full all-reduced
    complex (see `confhom.critical`).  `morse_complex()` calls it once and
    caches the pair in `_morse`; homology and class ranks then reduce the
    small Morse complex instead, carrying cycles into it by the flow.
    `homology(cx, reduce=False)` bypasses both caches.  A failed d^2 check
    drops both.  `_checked` records that the d^2 check passed, so
    `homology`, class ranks and generators run it once per complex, in
    the calling process.
    """

    def __init__(self, dims, boundaries, cells=None, meta=None,
                 describe=None, cell_faces=None, morse_complex=None):
        self.dims = list(dims)
        self.boundaries = boundaries
        self.cells = cells
        self.meta = meta or {}
        self._describe = describe
        self._cell_faces = cell_faces
        self._morse_complex = morse_complex
        self._index = {}
        self._reduction = None
        self._morse = None
        self._checked = False

    @property
    def top_dim(self):
        return len(self.dims) - 1

    def n_cells(self):
        return sum(self.dims)

    def euler_characteristic(self):
        return sum((-1) ** d * c for d, c in enumerate(self.dims))

    def index(self, d):
        """Packed key -> local index for dimension d (cached)."""
        if d not in self._index:
            if self.cells is None:
                self._index[d] = {i: i for i in range(self.dims[d])}
            else:
                self._index[d] = {key: i for i, key in enumerate(self.cells[d])}
        return self._index[d]

    def describe(self, d, key):
        if self._describe is None:
            return f"cell[{d}][{key}]"
        return self._describe(d, key)

    def cell_faces(self, d, key):
        """Boundary of one cell as [(face_key, coeff), ...]."""
        if self._cell_faces is not None:
            return self._cell_faces(d, key)
        raise NotImplementedError("complex has no cell_faces callback")

    def morse_complex(self):
        """(Morse complex, flow) from the builder's callback, built once and
        cached; None when the builder attached none."""
        if self._morse is None and self._morse_complex is not None:
            self._morse = self._morse_complex()
        return self._morse

    def _drop_caches(self):
        """Forget the reduction and the Morse complex of an invalid complex."""
        self._reduction = None
        self._morse = None

    def boundary_triplets(self, d):
        if d <= 0 or d > self.top_dim:
            return array("l"), array("l"), array("l")
        return self.boundaries.get(d, (array("l"), array("l"), array("l")))

    @pause_gc
    def check_boundary_squared(self):
        """Raise BoundaryError unless d(d(cell)) == 0 for every cell of
        every dimension >= 2, summing each column's entries wherever they
        sit in the triplets.

        Each dimension d is first given to the slot proof (`_slots_cancel`),
        which both builders' layout admits.  The triplets of dimension d are
        written slot-major: every column has F entries, and the entries of
        slot k for columns 0..n-1 form one contiguous run, so entry k*n + c
        is slot k of column c, `cols` is `array("l", range(n)) * F`, and
        every entry of slot k has the value v_k.  Let the triplets of
        dimension d-1 be laid out alike, with G slots of values w_l, and
        write rows_k[c] and lower_l[r] for the row in slot k of column c and
        in slot l of column r.  Then

            d(d(e_c)) = sum over k, l of v_k * w_l * e_{T_kl[c]},
            T_kl[c] = lower_l[rows_k[c]],

        so if the F*G target vectors T_kl fall into classes of equal vectors
        whose coefficients v_k * w_l sum to 0, the terms of each class cancel
        in every column.  The proof gathers the vectors over a few thousand
        columns at a time and groups them there, so equal only over those
        columns is enough.  Repeated rows and zero values need no special
        case, because the sum is linear in the entries.

        A dimension whose layout is not uniform (explicit, JSON, Morse and
        reduced complexes) or whose classes do not all cancel is checked
        column by column: each column's d^2 is accumulated in a dict, and
        the first column with a non-zero entry is named in the error.  So
        the check is exact either way, and only the column check rejects a
        complex.

        The check runs every time it is called.  A pass is recorded on the
        complex, and `homology` then does not check it again; a failure
        drops any cached reduction and Morse complex, so that no consumer
        reuses either for an invalid complex.
        """
        lower = None
        for d in range(2, self.top_dim + 1):
            if _slots_cancel(self.boundary_triplets(d), self.dims[d],
                             self.boundary_triplets(d - 1), self.dims[d - 1],
                             self.dims[d - 2]):
                lower = None
                continue
            if lower is None:
                lower = self._columns(d - 1)
            upper = self._columns(d)
            for c, col in enumerate(upper):
                acc = {}
                for r, v in col:
                    for g, w in lower[r]:
                        acc[g] = acc.get(g, 0) + v * w
                if any(acc.values()):
                    self._drop_caches()
                    raise BoundaryError(f"dd != 0 at dimension {d}, cell {c}")
            lower = upper
        self._checked = True

    def _columns(self, d):
        """List over d-cells of [(row, val), ...], zero entries dropped."""
        out = [[] for _ in range(self.dims[d])]
        rows, cols, vals = self.boundary_triplets(d)
        for r, c, v in zip(rows, cols, vals):
            if v:
                out[c].append((r, v))
        return out

    # -- shared dump format -------------------------------------------------

    def to_json_dict(self):
        return {
            "dims": list(self.dims),
            "boundary": {
                str(d): [[int(r), int(c), int(v)]
                         for r, c, v in zip(*self.boundaries[d])]
                for d in sorted(self.boundaries)
            },
        }

    @classmethod
    def from_json_dict(cls, data):
        """Complex from `to_json_dict` output.  It is input from outside the
        program, so ValueError names the dimension and the entry of a
        negative dim, a boundary key outside 1..top, or a triplet whose row
        or column names no cell."""
        dims = list(data["dims"])
        for d, size in enumerate(dims):
            if size < 0:
                raise ValueError(f"dims[{d}] = {size} is negative")
        boundaries = {}
        for dstr, trips in data["boundary"].items():
            d = int(dstr)
            if not 1 <= d < len(dims):
                raise ValueError(f"boundary key {dstr!r} is outside "
                                 f"1..{len(dims) - 1}")
            for t in trips:
                for what, x, size in (("row", t[0], dims[d - 1]),
                                      ("column", t[1], dims[d])):
                    if not 0 <= x < size:
                        raise ValueError(
                            f"boundary entry {list(t)} of dimension {d}: "
                            f"{what} {x} is outside range({size})")
            rows = array("l", (t[0] for t in trips))
            cols = array("l", (t[1] for t in trips))
            vals = array("l", (t[2] for t in trips))
            boundaries[d] = (rows, cols, vals)
        cx = cls(dims, boundaries, cells=None, meta={"model": "json"})

        columns = {}

        def faces(d, key):
            if d not in columns:
                columns[d] = cx._columns(d)
            return columns[d][key]

        cx._cell_faces = faces
        return cx

    def __repr__(self):
        return f"<ChainComplex dims={self.dims} model={self.meta.get('model')}>"


def _slot_width(trips, n):
    """Entries per column F when the triplets of n > 0 columns are arrays
    written slot-major, else None.  Slot-major means that every column has
    F entries and that slot k's entries for columns 0..n-1 form the run
    [k*n, (k+1)*n): `cols` is `array("l", range(n)) * F`, and every entry
    of one slot has the same value.  `cols` and `vals` are compared slot by
    slot against their expected values, a chunk of columns at a time, so
    no array of the full length is made; the rows are not looked at."""
    rows, cols, vals = trips
    if (not n or not rows or len(rows) % n or len(cols) != len(rows)
            or len(vals) != len(rows)
            or not all(isinstance(a, array) for a in trips)):
        return None
    for a in range(0, n, SLOT_CHUNK_ENTRIES):
        b = min(n, a + SLOT_CHUNK_ENTRIES)
        expected = array(cols.typecode, range(a, b))
        for k in range(0, len(rows), n):
            if (cols[k + a:k + b] != expected
                    or vals[k + a:k + b] != vals[k:k + 1] * (b - a)):
                return None
    return len(rows) // n


def _getter(slot):
    """Gather the items at the indices `slot` of a sequence, as a tuple;
    itemgetter gathers in C, but returns a bare item for one index."""
    if len(slot) > 1:
        return itemgetter(*slot)
    return lambda seq, i=slot[0]: (seq[i],)


def _slots_cancel(upper, n, lower, m, p):
    """True when the slot proof of `ChainComplex.check_boundary_squared`
    shows that the boundary triplets `upper`, of n columns, composed with
    the triplets `lower`, of m columns and rows among p cells, give 0;
    False when it cannot, which says nothing about d^2 itself.

    Each lower slot becomes a list of one shared int object per cell (a
    row outside range(p) raises), so a gather only copies references and
    equal targets compare by identity."""
    f = _slot_width(upper, n)
    g = _slot_width(lower, m) if f else None
    if not g:
        return False
    rows, v, w = upper[0], upper[2][::n], lower[2][::m]
    ids = list(range(p))
    lower_slots = []
    for start in range(0, g * m, m):
        targets = []
        for a in range(start, start + m, SLOT_CHUNK_ENTRIES):
            targets += _getter(
                lower[0][a:min(start + m, a + SLOT_CHUNK_ENTRIES)])(ids)
        lower_slots.append(targets)
    step = max(1, SLOT_CHUNK_ENTRIES // (f * g))
    for a in range(0, n, step):
        b = min(n, a + step)
        sums = {}
        for vk, k in zip(v, range(0, f * n, n)):
            gather = _getter(rows[k + a:k + b])
            for wl, targets in zip(w, lower_slots):
                key = gather(targets)
                sums[key] = sums.get(key, 0) + vk * wl
        if any(sums.values()):
            return False
    return True


class Chain:
    """Finitely supported integer combination of cells of one dimension."""

    __slots__ = ("complex", "dim", "data")

    def __init__(self, cx: ChainComplex, dim: int, data=None):
        self.complex = cx
        self.dim = dim
        self.data = {k: v for k, v in (data or {}).items() if v}

    def copy(self):
        return Chain(self.complex, self.dim, dict(self.data))

    def __add__(self, other):
        self._compat(other)
        out = dict(self.data)
        for k, v in other.data.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return Chain(self.complex, self.dim, out)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar: int):
        return Chain(self.complex, self.dim,
                     {k: v * scalar for k, v in self.data.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        return (isinstance(other, Chain) and self.dim == other.dim
                and self.data == other.data)

    def __bool__(self):
        return bool(self.data)

    def _compat(self, other):
        if other.complex is not self.complex or other.dim != self.dim:
            raise ValueError("chains belong to different complexes or dimensions")

    def boundary(self):
        if self.dim == 0:
            return Chain(self.complex, 0, {})
        out = {}
        for key, coeff in self.data.items():
            for fk, w in self.complex.cell_faces(self.dim, key):
                nv = out.get(fk, 0) + coeff * w
                if nv:
                    out[fk] = nv
                else:
                    del out[fk]
        return Chain(self.complex, self.dim - 1, out)

    def is_cycle(self):
        return not self.boundary()

    def to_vector(self):
        """Map to {local index: coeff} using the complex's cell index."""
        idx = self.complex.index(self.dim)
        return {idx[k]: v for k, v in self.data.items()}

    def describe(self):
        items = sorted(self.data.items(), key=lambda kv: str(kv[0]))
        return " + ".join(
            f"{v}*{self.complex.describe(self.dim, k)}" for k, v in items)

    def __repr__(self):
        return f"<Chain dim={self.dim} |support|={len(self.data)}>"
