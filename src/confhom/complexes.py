"""Graded free integer chain complexes with sparse boundary matrices.

Cells are integer keys per dimension, which a builder may leave to be
listed on first read; a complex without keys lists range(dims[d]).  A
builder's complex holds its encoding, the one owner of the model's cell
format: it packs and decodes the keys, describes a cell and gives its
faces.  Boundary matrices are triplet arrays mapping d-cells to
(d-1)-chains, or runs of columns (`SlotRuns`) that expand into such
arrays; a builder may leave them to be written on first read too.
"""

from __future__ import annotations

import functools
import gc
from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import add, itemgetter, lt, mul, sub

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
    """Cell keys per dimension plus sparse integer boundaries.

    boundaries[d] is (rows, cols, vals) with rows indexing (d-1)-cells,
    cols indexing d-cells.  The triplets may come in any order; entries
    repeated at one (row, col) are summed and zero entries are ignored.
    A builder may instead give boundaries[d] as runs of columns
    (`SlotRuns`): `boundary_triplets(d)` expands them on first use and
    puts the triplets in their place, so every reader, the d^2 check
    included, sees one form of each dimension at a time.  It may also
    pass a function in place of the dict: `boundaries` calls it on first
    read (by `boundary_triplets`, `check_boundary_squared`, `to_json_dict`
    or a reader of the dict) and keeps what it returns, so the Morse path
    of `homology`, which reads no boundary of the full complex, never has
    them written.
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
    (triplets or runs) passed, so `homology` off the Morse path, class
    ranks without a Morse complex, generators, boundary solving and
    `to_json_dict` run it once per complex, in the calling process.  The
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
        """{d: triplets or runs}, written on first read when the builder
        passed a function."""
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
        """(rows, cols, vals) of dimension d, empty outside 1..top; runs
        are expanded here, once, and replaced by their triplets."""
        b = self.boundaries.get(d) if 0 < d <= self.top_dim else None
        if b is None:
            return array("l"), array("l"), array("l")
        if isinstance(b, SlotRuns):
            b = self.boundaries[d] = b.expand()
        return b

    @pause_gc
    def check_boundary_squared(self):
        """Raise BoundaryError unless d(d(cell)) == 0 for every cell of
        every dimension >= 2, summing each column's entries wherever they
        sit in the triplets.

        Each dimension is validated first, once.  Triplets must have one
        row, column and value per entry, rows in range(dims[d-1]) and
        columns in range(dims[d]); else the error names the dimension and
        the entry.  Runs (`SlotRuns`) are kept as they are only if they
        pass `_runs_valid`: both lists of starts rise strictly from 0 to
        the number of cells, every offset is the start of a run below,
        every map has its run's length and its values lie in range of that
        run below.  Any other runs are expanded and validated as triplets.

        The run proof (`_runs_cancel`) takes a pair of run-described
        dimensions, with slot values v_k in dimension d and w_l in d-1.
        Slot k of dimension d sends column s_j + i of run j to row
        o_kj + f_kj(i) of dimension d-1, where o_kj is the start of run
        q = q(k, j) below and f_kj an index map, and slot l of dimension d-1
        sends that row on to o'_lq + f'_lq(f_kj(i)).  So over the whole run
        the target of the slot pair (k, l) is the offset o'_lq plus the
        composite map f'_lq . f_kj, and pairs with equal offsets and equal
        composites (compared by content) hit the same cell in every column
        of the run.  When the pairs fall into such classes whose
        coefficients v_k * w_l sum to 0, d^2 is 0 on the whole run.  As in
        the slot proof below, the classes are formed over a chunk of runs at
        once, so equal only over those runs is enough.  The validation is
        what makes this exact: the offsets o_kj are the runs that dimension
        d-1 describes, and no map value leaves its run or wraps around.

        Any pair of dimensions the run proof does not prove is expanded
        (the triplets replace the runs) and given to the slot proof
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
        runs = {}  # d -> validated runs, while boundaries[d] holds them
        stats = {}
        for d in range(1, self.top_dim + 1):
            b = self.boundaries.get(d)
            if isinstance(b, SlotRuns):
                if id(b.table) not in stats:
                    stats[id(b.table)] = _map_stats(b.table)
                if _runs_valid(b, dims[d], dims[d - 1], stats[id(b.table)]):
                    runs[d] = b
                    continue
            _check_entries(self.boundary_triplets(d), d, dims)
        widths = {}
        composites = None
        lower = None
        for d in range(2, self.top_dim + 1):
            if d in runs and d - 1 in runs:
                if composites is None or composites.table is not runs[d].table:
                    composites = _Composites(runs[d].table)
                if _runs_cancel(runs[d], runs[d - 1], composites):
                    lower = None
                    continue
            for e in (d - 1, d):
                if e not in widths:
                    runs.pop(e, None)
                    widths[e] = _slot_width(self.boundary_triplets(e),
                                            dims[e])
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
    range(dims[d]); the error names the first entry out of range."""
    rows, cols, vals = trips
    if not len(rows) == len(cols) == len(vals):
        raise BoundaryError(
            f"boundary of dimension {d} has {len(rows)} rows, {len(cols)} "
            f"columns and {len(vals)} values")
    for what, xs, size in (("row", rows, dims[d - 1]),
                           ("column", cols, dims[d])):
        if xs and not (min(xs) >= 0 and max(xs) < size):
            i = next(i for i, x in enumerate(xs) if not 0 <= x < size)
            raise BoundaryError(
                f"boundary entry {[rows[i], cols[i], vals[i]]} of dimension "
                f"{d}: {what} {xs[i]} is outside range({size})")


@dataclass(slots=True)
class SlotRuns:
    """The boundary of one dimension as runs of columns, the form in which
    `build_swiatkowski` writes it: the half-edge complex is a free module
    over the edge monomials, and one run holds the cells of one state of
    the vertices, one cell per monomial.

    The columns 0..n-1 fall into runs [starts[j], starts[j+1]), and the
    rows into the runs of the dimension below, which start at
    `face_starts`; the last entry of either list is its number of cells.
    Every column has F = len(signs) faces in one slot order, and slot k has
    the value signs[k] in every column.  Slot k sends column starts[j] + i
    to row

        offsets[k][j] + table[maps[k][j]][i],

    where offsets[k][j] is the start of a run below and the index map
    table[maps[k][j]] gives, for each column of run j, a position in that
    run.  The table of maps is shared by every dimension of a complex.
    """

    starts: list
    face_starts: list
    signs: list
    offsets: list
    maps: list
    table: list

    def expand(self):
        """The slot-major triplets (see `check_boundary_squared`): slot k's
        rows for every column, in column order, then slot k+1's; `cols` is
        `array("l", range(n)) * F` and `vals` an array("b")."""
        n = self.starts[-1]
        table = self.table
        rows = array("l")
        vals = array("b")
        for sign, offsets, maps in zip(self.signs, self.offsets, self.maps):
            slot = []
            for o, m in zip(offsets, maps):
                f = table[m]
                slot += (range(o + f.start, o + f.stop, f.step)
                         if type(f) is range else map(add, f, repeat(o)))
            # fromlist copies a list 1.5-2 times faster than extend takes
            # an iterator's items
            rows.fromlist(slot)
            vals.extend(array("b", [sign]) * n)
        return rows, array("l", range(n)) * len(self.signs), vals


def _rising(starts, n):
    """True when starts rise strictly from 0 to n."""
    return (len(starts) > 0 and starts[0] == 0 and starts[-1] == n
            and all(map(lt, starts, starts[1:])))


def _map_stats(table):
    """Length, least and largest value of every map of a table."""
    return (list(map(len, table)), [min(f, default=0) for f in table],
            [max(f, default=0) for f in table])


def _runs_valid(runs, n, m, stats):
    """True when `runs` describes a boundary of n columns with rows among m
    cells: both lists of starts rise strictly from 0 to n and to m, every
    slot has one offset and one map id per run, every offset is the start
    of a run below, and every map has its run's length and its values in
    range(length of that run below).  `stats` is `_map_stats(runs.table)`.
    Then every row is in range(m), and no map index wraps around."""
    starts, face_starts = runs.starts, runs.face_starts
    if not (_rising(starts, n) and _rising(face_starts, m)
            and len(runs.offsets) == len(runs.maps) == len(runs.signs)):
        return False
    lengths = list(map(sub, starts[1:], starts))
    room = dict(zip(face_starts, map(sub, face_starts[1:], face_starts)))
    lens, lows, highs = stats
    for offsets, maps in zip(runs.offsets, runs.maps):
        if len(offsets) != len(lengths) or len(maps) != len(lengths):
            return False
        if not lengths:
            continue
        if min(maps) < 0 or max(maps) >= len(lens):
            return False
        below = list(map(room.get, offsets))
        if (None in below or list(map(lens.__getitem__, maps)) != lengths
                or min(map(lows.__getitem__, maps)) < 0
                or not all(map(lt, map(highs.__getitem__, maps), below))):
            return False
    return True


class _Composites(dict):
    """Key ml * len(table) + mk -> a small int naming the content of the
    composite map table[ml] . table[mk]; composites with equal contents
    get the same int.  Each content is computed and hashed once."""

    def __init__(self, table):
        super().__init__()
        self.table = table
        self.ids = {}

    def __missing__(self, key):
        ml, mk = divmod(key, len(self.table))
        content = tuple(map(self.table[ml].__getitem__, self.table[mk]))
        self[key] = cid = self.ids.setdefault(content, len(self.ids))
        return cid


def _runs_cancel(upper, lower, composites):
    """True when the run proof of `ChainComplex.check_boundary_squared`
    shows that the runs `upper` composed with the runs `lower` give 0;
    False when it cannot, which says nothing about d^2 itself.  Both must
    have passed `_runs_valid`; `composites` is a `_Composites` of their
    shared table.

    The runs are taken a chunk at a time, and each slot's lower runs are
    gathered once per chunk; a key of each slot pair per run is then the
    lower offset and the id of the composite map."""
    if upper.face_starts != lower.starts or upper.table is not lower.table:
        return False
    run_of = {s: q for q, s in enumerate(lower.starts)}
    t = len(upper.table)
    # lower map ids times t, to which an upper map id adds a composite key
    scaled = [list(map(mul, maps, repeat(t))) for maps in lower.maps]
    nruns = len(upper.starts) - 1
    step = max(1, SLOT_CHUNK_ENTRIES // (len(upper.signs) * len(lower.signs)))
    for a in range(0, nruns, step):
        b = min(nruns, a + step)
        sums = {}
        for v, offsets, maps in zip(upper.signs, upper.offsets, upper.maps):
            gather = _getter(_getter(offsets[a:b])(run_of))
            maps = maps[a:b]
            for w, low, low_scaled in zip(lower.signs, lower.offsets, scaled):
                key = (gather(low), tuple(map(
                    composites.__getitem__,
                    map(add, gather(low_scaled), maps))))
                sums[key] = sums.get(key, 0) + v * w
        if any(sums.values()):
            return False
    return True


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
