"""Graded free integer chain complexes with sparse boundary matrices.

Cells are stored as packed integer keys per dimension (the packing is
model-specific and owned by the builder); boundary matrices are triplet
arrays mapping d-cells to (d-1)-chains.
"""

from __future__ import annotations

import functools
import gc
import os
from array import array

# Boundary entries in dimensions >= 2 from which `ChainComplex.start_check`
# runs the d^2 check in a worker process beside the reduction.  Measured on
# a 2-core host (Python 3.11): spawning a worker that imports confhom and
# returns takes 0.15-0.25 s, the check runs at 1.2-1.7 us per entry and the
# reduction takes about twice as long as the check.  With the worker,
# homology() of wheel:5 n=5 all-reduced (53k entries) went from 0.17 to
# 0.33 s, of k33 n=5 all-reduced (102k) from 0.51 to 0.42 s and of
# wheel:6 n=5 all-reduced (185k) from 0.82 to 0.61 s.  From 150k entries
# the check alone takes as long as a worker start, which keeps a margin
# over the crossover.
PARALLEL_CHECK_ENTRIES = 150_000


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

    A complex is not mutated after it is built: `homology.morse_reduce`
    caches its one reduction (reduced complex and trail) in `_reduction`,
    and homology, class ranks, generators and lifting all reuse it.
    `homology(cx, reduce=False)` bypasses the cache.  `_checked` records
    that the d^2 check passed, so `start_check` runs it once per complex.
    """

    def __init__(self, dims, boundaries, cells=None, meta=None,
                 describe=None, cell_faces=None):
        self.dims = list(dims)
        self.boundaries = boundaries
        self.cells = cells
        self.meta = meta or {}
        self._describe = describe
        self._cell_faces = cell_faces
        self._index = {}
        self._reduction = None
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

    def boundary_triplets(self, d):
        if d <= 0 or d > self.top_dim:
            return array("l"), array("l"), array("l")
        return self.boundaries.get(d, (array("l"), array("l"), array("l")))

    @pause_gc
    def check_boundary_squared(self):
        """Raise BoundaryError unless d(d(cell)) == 0 for every cell of
        every dimension >= 2, summing each column's entries wherever they
        sit in the triplets.

        This runs the check in this process, every time it is called, and
        the check is complete when it returns.  A pass is recorded on the
        complex; a failure drops any cached reduction, so that no consumer
        reuses a reduction of an invalid complex.  `homology` goes through
        `start_check`, which may run this same check in a worker process.
        """
        lower = None
        for d in range(2, self.top_dim + 1):
            if lower is None:
                lower = self._columns(d - 1)
            upper = self._columns(d)
            for c, col in enumerate(upper):
                acc = {}
                for r, v in col:
                    for g, w in lower[r]:
                        acc[g] = acc.get(g, 0) + v * w
                if any(acc.values()):
                    self._reduction = None
                    raise BoundaryError(f"dd != 0 at dimension {d}, cell {c}")
            lower = upper
        self._checked = True

    def start_check(self):
        """Start the d^2 check of `check_boundary_squared`.  Return None
        once it has passed, or a function that waits for it: the function
        returns once the check has passed and raises BoundaryError if it
        failed.  A complex whose check passed is not checked again.

        The check runs in one spawned worker process, while the caller goes
        on working, when the complex has at least PARALLEL_CHECK_ENTRIES
        boundary entries in dimensions >= 2, this process may run on two
        or more CPUs, and it is not daemonic (daemonic processes cannot
        have children).  Otherwise, or if the worker cannot start, it runs
        here before `start_check` returns; if the worker dies, the waiting
        function runs it here.  Like any spawned process, the worker imports
        the caller's main script, so a script that reaches this at import
        time needs an `if __name__ == "__main__":` guard: without one the
        worker fails with a multiprocessing error and the check runs here.

        The triplets reach the worker through a file, not through a pickle:
        each boundary array is written with `array.tofile` to a file made by
        `tempfile.mkstemp`, and the worker reads them back with
        `array.fromfile`.  So this process holds no copy of the triplets
        while it reduces.  This process deletes the file whatever the
        outcome: in the waiting function once the check has passed, failed
        or lost its worker, and at once if the worker cannot start.
        """
        if self._checked:
            return None
        started = self._submit_check()
        if started is None:
            self.check_boundary_squared()
            return None
        pool, future, path = started

        def wait():
            from concurrent.futures.process import BrokenProcessPool
            try:
                future.result()
            except BrokenProcessPool:
                self.check_boundary_squared()
            except BoundaryError:
                self._reduction = None
                raise
            else:
                self._checked = True
            finally:
                pool.shutdown()
                os.unlink(path)

        return wait

    def _submit_check(self):
        """(pool, future, payload path) of the check running in a spawned
        worker, or None when it is to run in this process (see
        `start_check`)."""
        entries = sum(len(self.boundary_triplets(d)[0])
                      for d in range(2, self.top_dim + 1))
        if (entries < PARALLEL_CHECK_ENTRIES
                or not hasattr(os, "sched_getaffinity")
                or len(os.sched_getaffinity(0)) < 2):
            return None
        import multiprocessing
        if multiprocessing.current_process().daemon:
            return None
        import tempfile
        from concurrent.futures import ProcessPoolExecutor
        pool = path = started = None
        try:
            pool = ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("spawn"))
            fd, path = tempfile.mkstemp(prefix="confhom-d2-", suffix=".bin")
            layout = []
            with open(fd, "wb") as f:
                for d in range(1, self.top_dim + 1):
                    arrays = [a if isinstance(a, array) else array("q", a)
                              for a in self.boundary_triplets(d)]
                    for a in arrays:
                        a.tofile(f)
                    layout.append((d, tuple((a.typecode, len(a))
                                            for a in arrays)))
            started = (pool, pool.submit(_check_triplets, self.dims, path,
                                         layout), path)
        except (OSError, NotImplementedError, OverflowError):
            # no processes, semaphores or room for the payload, or an entry
            # that does not fit in 64 bits
            pass
        finally:
            if started is None:
                if pool is not None:
                    pool.shutdown()
                if path is not None:
                    os.unlink(path)
        return started

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
        dims = list(data["dims"])
        boundaries = {}
        for dstr, trips in data["boundary"].items():
            rows = array("l", (t[0] for t in trips))
            cols = array("l", (t[1] for t in trips))
            vals = array("l", (t[2] for t in trips))
            boundaries[int(dstr)] = (rows, cols, vals)
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


def _check_triplets(dims, path, layout):
    """Worker-process entry point of `ChainComplex.start_check`: the d^2
    check of the complex with these cell counts, whose boundary triplets
    are read from the file at `path`.  `layout` lists, in file order, one
    (dimension, ((typecode, length) of rows, cols and vals)) per dimension.
    """
    boundaries = {}
    with open(path, "rb") as f:
        for d, specs in layout:
            arrays = []
            for code, length in specs:
                a = array(code)
                a.fromfile(f, length)
                arrays.append(a)
            boundaries[d] = tuple(arrays)
    ChainComplex(dims, boundaries).check_boundary_squared()


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
