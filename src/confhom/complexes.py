"""Graded free integer chain complexes with sparse boundary matrices.

Cells are integer keys per dimension, which a builder may leave to be
listed on first read; a complex without keys lists range(dims[d]).  A
builder's complex holds its encoding, the one owner of the model's cell
format: it packs and decodes the keys, describes a cell and gives its
faces.  Boundary matrices are triplet arrays mapping d-cells to
(d-1)-chains, which a builder may leave to be written on first read too.
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
# to shared ints in chunks of this many entries too.
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
    """Cell keys per dimension plus sparse integer boundaries.

    boundaries[d] is (rows, cols, vals) with rows indexing (d-1)-cells,
    cols indexing d-cells.  The triplets may come in any order; entries
    repeated at one (row, col) are summed and zero entries are ignored.
    A builder may pass a function in place of the dict: `boundaries`
    calls it on first read (by `boundary_triplets`,
    `check_boundary_squared`, `to_json_dict` or a reader of the dict) and
    keeps what it returns, so the Morse path of `homology`, which reads no
    boundary of the full complex, never has them written.
    `cells[d]` lists the cell keys in canonical order, and is never None:
    a complex given no keys (JSON and explicit complexes) lists
    range(dims[d]), so a cell's key is its index.  A builder may pass a
    function in place of the lists: `cells` calls it on first read and
    keeps what it returns, so a consumer that needs only the dims and the
    boundaries (the Morse path of `homology`) never lists a cell.

    `encoding` is the builder's cell encoding (`SwEncoding`,
    `AbramsEncoding`), which alone knows what a key means: `describe` and
    `cell_faces` read it, and cycles and cells are built through it.
    Reduced, Morse and JSON complexes have none; their cells are described
    by index and their faces come from the triplets.

    A complex is not mutated after it is built, and it keeps two caches.
    `homology.morse_reduce` caches its one reduction (reduced complex and
    trail) in `_reduction`; generators, lifting and boundary solving always
    use it, and so do homology and class ranks of any complex without a
    Morse complex.
    A builder may attach a `morse_complex` callback returning (Morse
    complex, flow): `build_swiatkowski` does so for every basis, each
    reading the Morse complex of the all-reduced basis of its graph and n
    (see `confhom.critical`), and `build_abrams` for every cube complex,
    reading its Farley-Sabalka Morse complex (see `confhom.abrams`); JSON,
    Morse and reduced complexes have none.  `morse_complex()` calls it
    once and caches the pair in `_morse`; homology and class ranks then
    reduce the small Morse complex instead, carrying cycles into it by the
    flow.
    `homology(cx, reduce=False)` bypasses both caches.  A failed d^2 check
    drops both.  `_checked` records that the d^2 check of the boundaries
    passed, so `homology` off the Morse path, class ranks without a Morse
    complex, generators, boundary solving and `to_json_dict` run it once
    per complex, in the calling process.  The
    Morse path neither writes nor checks them, and leaves `_checked`
    unset: it proves the tables it reads instead (see `confhom.critical`
    and `confhom.abrams`).
    """

    def __init__(self, dims, boundaries, cells=None, meta=None,
                 encoding=None, morse_complex=None):
        self.dims = list(dims)
        self._boundaries = boundaries
        self._cells = (cells if cells is not None
                       else [range(size) for size in self.dims])
        self.meta = meta or {}
        self.encoding = encoding
        self._morse_complex = morse_complex
        self._index = {}
        self._faces = {}
        self._reduction = None
        self._morse = None
        self._checked = False

    @property
    def cells(self):
        """Cell keys per dimension, listed on first read when the builder
        passed a function."""
        if callable(self._cells):
            self._cells = self._cells()
        return self._cells

    @property
    def boundaries(self):
        """{d: triplets}, written on first read when the builder passed a
        function."""
        if callable(self._boundaries):
            self._boundaries = self._boundaries()
        return self._boundaries

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
            self._index[d] = {key: i for i, key in enumerate(self.cells[d])}
        return self._index[d]

    def describe(self, d, key):
        if self.encoding is None:
            return f"cell[{d}][{key}]"
        return self.encoding.describe(key)

    def cell_faces(self, d, key):
        """Boundary of one cell as [(face_key, coeff), ...]: from the
        encoding, else from the columns of the complex's own triplets, read
        once per dimension."""
        if self.encoding is not None:
            return self.encoding.cell_faces(key)
        if d not in self._faces:
            keys = self.cells[d - 1]
            self._faces[d] = [[(keys[r], v) for r, v in col]
                              for col in self._columns(d)]
        return self._faces[d][self.index(d)[key]]

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
        """(rows, cols, vals) of dimension d, empty outside 1..top."""
        b = self.boundaries.get(d) if 0 < d <= self.top_dim else None
        if b is None:
            return array("l"), array("l"), array("l")
        return b

    @pause_gc
    def check_boundary_squared(self):
        """Raise BoundaryError unless d(d(cell)) == 0 for every cell of
        every dimension >= 2, summing each column's entries wherever they
        sit in the triplets.

        Each dimension is validated first, once.  Triplets must have one
        row, column and value per entry, rows in range(dims[d-1]) and
        columns in range(dims[d]); else the error names the dimension and
        the entry.

        Each pair of dimensions is given first to the slot proof
        (`_slots_cancel`), which both builders' layout admits.  The
        triplets of dimension d are written slot-major: every column has F
        entries, and the entries of slot k for columns 0..n-1 form one
        contiguous run, so entry k*n + c is slot k of column c, `cols` is
        `array("l", range(n)) * F`, and every entry of slot k has the value
        v_k.  Let the triplets of dimension d-1 be laid out alike, with G
        slots of values w_l, and write rows_k[c] and lower_l[r] for the row
        in slot k of column c and in slot l of column r.  Then

            d(d(e_c)) = sum over k, l of v_k * w_l * e_{T_kl[c]},
            T_kl[c] = lower_l[rows_k[c]],

        so if the F*G target vectors T_kl fall into classes of equal vectors
        whose coefficients v_k * w_l sum to 0, the terms of each class cancel
        in every column.  The proof gathers the vectors over a few thousand
        columns at a time and groups them there, so equal only over those
        columns is enough.  Repeated rows and zero values need no special
        case, because the sum is linear in the entries.  Each dimension's
        slot layout is recognised once per check.

        A dimension whose layout is not uniform (explicit, JSON, Morse and
        reduced complexes) or whose classes do not all cancel is checked
        column by column: each column's d^2 is accumulated in a dict, and
        the first column with a non-zero entry is named in the error.  So
        the check is exact whichever proof passes, and only the column
        check and the validation reject a complex.

        The check runs every time it is called, on boundaries a builder
        left unwritten once they are written.  A pass is recorded on the
        complex, and `homology` then does not check it again; a failure
        drops any cached reduction and Morse complex, so that no consumer
        reuses either for an invalid complex.
        """
        try:
            self._check_boundary_squared()
        except BoundaryError:
            self._drop_caches()
            raise
        self._checked = True

    def _check_boundary_squared(self):
        dims = self.dims
        widths = [None] + [_check_entries(self.boundary_triplets(d), d, dims)
                           for d in range(1, self.top_dim + 1)]
        lower = None
        for d in range(2, self.top_dim + 1):
            if widths[d] and widths[d - 1] and _slots_cancel(
                    self.boundary_triplets(d), widths[d],
                    self.boundary_triplets(d - 1), widths[d - 1],
                    dims[d - 2]):
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
                    raise BoundaryError(f"dd != 0 at dimension {d}, cell {c}")
            lower = upper

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
        """{"dims", "boundary"} with the triplets of every dimension, after
        the d^2 check (once per complex), so no unproved boundary leaves
        the program."""
        if not self._checked:
            self.check_boundary_squared()
        return {
            "dims": list(self.dims),
            "boundary": {
                str(d): [[int(r), int(c), int(v)]
                         for r, c, v in zip(*self.boundary_triplets(d))]
                for d in sorted(self.boundaries)
            },
        }

    @classmethod
    def from_json_dict(cls, data):
        """Complex from `to_json_dict` output.  It is input from outside the
        program, so ValueError names the dimension and the entry of a
        negative dim, a boundary key outside 1..top, or a triplet whose row
        or column names no cell (the last a BoundaryError)."""
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
            rows, cols, vals = ([t[i] for t in trips] for i in range(3))
            _check_entries((rows, cols, vals), d, dims)
            boundaries[d] = (array("l", rows), array("l", cols),
                             array("l", vals))
        return cls(dims, boundaries, meta={"model": "json"})

    def __repr__(self):
        return f"<ChainComplex dims={self.dims} model={self.meta.get('model')}>"


def _check_entries(trips, d, dims):
    """Raise BoundaryError unless the triplets of dimension d have as many
    rows as columns and values, rows in range(dims[d-1]) and columns in
    range(dims[d]); the error names the first entry out of range.  Returns
    the slot width (`_slot_width`): a slot-major layout has its columns
    proved equal to range(dims[d]) * F already, so they are not scanned
    again."""
    rows, cols, vals = trips
    if not len(rows) == len(cols) == len(vals):
        raise BoundaryError(
            f"boundary of dimension {d} has {len(rows)} rows, {len(cols)} "
            f"columns and {len(vals)} values")
    width = _slot_width(trips, dims[d])
    for what, xs, size in (("row", rows, dims[d - 1]),
                           ("column", cols if width is None else (), dims[d])):
        if xs and not (min(xs) >= 0 and max(xs) < size):
            i = next(i for i, x in enumerate(xs) if not 0 <= x < size)
            raise BoundaryError(
                f"boundary entry {[rows[i], cols[i], vals[i]]} of dimension "
                f"{d}: {what} {xs[i]} is outside range({size})")
    return width


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


def _slots_cancel(upper, f, lower, g, p):
    """True when the slot proof of `ChainComplex.check_boundary_squared`
    shows that the boundary triplets `upper`, slot-major with f slots,
    composed with the triplets `lower`, slot-major with g slots and rows in
    range(p), give 0; False when it cannot, which says nothing about d^2
    itself.

    Each lower slot becomes a list of one shared int object per cell, so a
    gather only copies references and equal targets compare by identity."""
    n, m = len(upper[0]) // f, len(lower[0]) // g
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

    def describe(self):
        items = sorted(self.data.items(), key=lambda kv: str(kv[0]))
        return " + ".join(
            f"{v}*{self.complex.describe(self.dim, k)}" for k, v in items)

    def __repr__(self):
        return f"<Chain dim={self.dim} |support|={len(self.data)}>"
