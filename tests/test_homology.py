"""Engine checks: Smith normal form against independent oracles, unit-pivot
reduction soundness, boundary solving, and generator extraction."""

import concurrent.futures
import errno
import faulthandler
import gc
import hashlib
import importlib
import itertools
import multiprocessing
import os
import random
from array import array
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhom import complexes
from confhom.complexes import BoundaryError, Chain, ChainComplex
from confhom.graph import build_family, order_vertices, subdivide_for
from confhom.homology import (EngineError, ReductionStats, homology,
                              homology_generators, lift_cycle, morse_reduce,
                              smith_normal_form, snf_dense, solve_boundary)
from confhom.swiatkowski import build_swiatkowski
from confhom.abrams import build_abrams


def snf_oracle(mat):
    """Textbook brute-force SNF: move the smallest entry to the corner,
    clear its row and column, fix divisibility, recurse."""
    A = [row[:] for row in mat]
    divisors = []
    t = 0
    m, n = len(A), len(A[0]) if A else 0
    while True:
        entries = [(abs(A[i][j]), i, j) for i in range(t, m)
                   for j in range(t, n) if A[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        while True:
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]
            p = A[t][t]
            moved = False
            for i in range(t + 1, m):
                q = A[i][t] // p
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                if A[i][t]:
                    A[t], A[i] = A[i], A[t]
                    moved = True
                    break
            if moved:
                continue
            for j in range(t + 1, n):
                q = A[t][j] // p
                if q:
                    for row in A:
                        row[j] -= q * row[t]
                if A[t][j]:
                    for row in A:
                        row[t], row[j] = row[j], row[t]
                    moved = True
                    break
            if moved:
                continue
            bad = next((i for i in range(t + 1, m)
                        for j in range(t + 1, n) if A[i][j] % p), None)
            if bad is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
        divisors.append(A[t][t])
        t += 1
    return divisors


def minor_gcd_divisors(mat):
    """Determinant-divisor characterization: d_k = gcd(k-minors)/gcd((k-1)-minors)."""
    m, n = len(mat), len(mat[0]) if mat else 0
    gs = [1]
    k = 1
    while k <= min(m, n):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[mat[i][j] for j in cols] for i in rows]
                g = gcd(g, _det(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        gs.append(g)
        k += 1
    return [gs[i] // gs[i - 1] for i in range(1, len(gs))]


def _det(a):
    a = [row[:] for row in a]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


class TestSmithNormalForm:
    def test_reference_matrix(self):
        res = smith_normal_form([[2, 4], [6, 8]])
        assert res.rank == 2
        assert res.divisors == (2, 4)

    def test_zero_matrix(self):
        res = smith_normal_form([[0, 0], [0, 0]])
        assert res.rank == 0
        assert res.divisors == ()

    def test_one_by_one(self):
        assert smith_normal_form([[2]]).divisors == (2,)

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
                    min_size=1, max_size=5).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_both_oracles(self, rows):
        res = smith_normal_form(rows)
        assert list(res.divisors) == snf_oracle(rows)
        assert [d for d in res.divisors if d] == minor_gcd_divisors(rows)

    @given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=6),
                    min_size=1, max_size=6).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=80, deadline=None)
    def test_divisor_chain(self, rows):
        res = smith_normal_form(rows)
        for a, b in zip(res.divisors, res.divisors[1:]):
            assert b % a == 0


def toy_complex(d2_entry=2):
    """One vertex, one loop edge, one disc attached d2_entry times."""
    boundaries = {
        1: (array("l"), array("l"), array("l")),
        2: (array("l", [0]), array("l", [0]), array("l", [d2_entry])),
    }
    return ChainComplex([1, 1, 1], boundaries, cells=[[0], [0], [0]])


class TestTorsion:
    def test_projective_plane_like(self):
        h = homology(toy_complex(2))
        assert h.betti_vector() == (1, 0, 0)
        assert h.torsion(1) == (2,)

    def test_without_reduction(self):
        h = homology(toy_complex(2), reduce=False)
        assert h.torsion(1) == (2,)


class TestMorseReduce:
    def test_circle_reduces_to_two_cells(self):
        cx = build_abrams(order_vertices(build_family("star:3"), "l0"), 2)
        rcx, _, _ = morse_reduce(cx)
        assert rcx.dims == [1, 1]
        assert homology(rcx).betti_vector() == (1, 1)

    def test_contractible_reduces_to_a_point(self):
        from confhom.graph import Graph
        g = Graph(["a", "b"], [("e", "a", "b")])
        cx = build_swiatkowski(g, 4)  # all particles on one edge
        rcx, _, _ = morse_reduce(cx)
        assert rcx.dims == [1]

    @pytest.mark.parametrize("fam,n", [("theta:4", 3), ("k33", 3),
                                       ("k4", 3), ("lasso", 2)])
    def test_reduction_preserves_homology(self, fam, n):
        cx = build_swiatkowski(build_family(fam), n)
        h1 = homology(cx, reduce=True)
        h2 = homology(cx, reduce=False)
        for d in set(h1.dims) | set(h2.dims):
            assert h1.betti(d) == h2.betti(d)
            assert h1.torsion(d) == h2.torsion(d)

    def test_transport_keeps_classes(self):
        from confhom.cycles import CycleSpec, make_cycle
        cx = build_swiatkowski(build_family("theta:3"), 2)
        z = make_cycle(cx, CycleSpec(kind="Y", hub="u",
                                     branches=("e1", "e2", "e3")))
        rcx, (moved,), _ = morse_reduce(cx, track=[z])
        assert not moved.boundary()

    def test_lift_roundtrip(self):
        cx = build_swiatkowski(build_family("theta:4"), 3)
        gens = homology_generators(cx, 1)
        assert len(gens) == homology(cx).betti(1) == 6
        for z in gens:
            assert not z.boundary()


    @pytest.mark.parametrize("build,stats,digest", [
        (lambda: build_swiatkowski(build_family("k33"), 5,
                                   reduce_vertices="all"),
         ReductionStats(original=[1287, 5940, 9900, 7200, 2160, 192],
                        reduced=[1, 5, 29, 10], pairs=13317, protected=1),
         "a896ef3d61f5f27e"),
        (lambda: build_swiatkowski(build_family("k4"), 4),
         ReductionStats(original=[501, 1656, 1836, 756, 81],
                        reduced=[1, 4, 9], pairs=2408, protected=1),
         "931b8a667dca4cc5"),
        (lambda: build_abrams(order_vertices(
            subdivide_for(build_family("k4"), 3)), 3),
         ReductionStats(original=[120, 336, 288, 72], reduced=[1, 4, 3],
                        pairs=404, protected=1),
         "c8991fc81fb8eaab"),
    ], ids=["k33-n5-all", "k4-n4-canonical", "cube-k4-n3"])
    def test_matching_is_pinned(self, build, stats, digest):
        # the statistics and the ordered sequence of eliminated pairs must
        # not drift when the reduction is made cheaper
        rcx, _, (trail, _, _) = morse_reduce(build(), record_trail=True)
        assert rcx.meta["reduction"] == stats
        pairs = repr([(a, b) for a, b, _, _ in trail]).encode()
        assert hashlib.sha256(pairs).hexdigest()[:16] == digest

    def test_non_augmented_complex_keeps_torsion(self):
        # d_1 = (2): its column does not sum to 0, so quotienting the
        # protected vertex would change the rank of d_1
        cx = ChainComplex.from_json_dict(
            {"dims": [1, 1], "boundary": {"1": [[0, 0, 2]]}})
        reduced = homology(cx)
        assert reduced.dims == homology(cx, reduce=False).dims
        assert reduced.torsion(0) == (2,) and reduced.betti_vector() == (0, 0)

    def test_zero_entries_are_ignored(self):
        cx = ChainComplex.from_json_dict(
            {"dims": [2, 2], "boundary": {"1": [[0, 0, 0], [1, 0, 1],
                                                [0, 0, -1], [1, 1, 0]]}})
        rcx, _, _ = morse_reduce(cx)
        assert homology(cx).dims == homology(cx, reduce=False).dims
        assert homology(rcx).betti_vector() == (1, 1)

    def test_collector_state_is_restored(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        assert gc.isenabled()
        morse_reduce(cx)
        cx.check_boundary_squared()
        assert gc.isenabled()
        gc.disable()
        try:
            morse_reduce(cx)
            cx.check_boundary_squared()
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestSolveBoundary:
    def test_boundary_of_a_cell_is_solvable(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        key = cx.cells[2][0]
        b = Chain(cx, 2, {key: 1}).boundary()
        x = solve_boundary(cx, b)
        assert x is not None and x.boundary() == b

    def test_nontrivial_cycle_is_not_a_boundary(self):
        cx = build_abrams(order_vertices(build_family("star:3"), "l0"), 2)
        rows, cols, vals = cx.boundary_triplets(1)
        # the hexagon's single 1-cycle: alternate signs around the circuit
        from confhom.cycles import CycleSpec, make_cycle
        from confhom.homology import homology_generators
        z = homology_generators(cx, 1)[0]
        assert solve_boundary(cx, z) is None

    def test_dimension_guard(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        # no cells lie above the top dimension: a nonzero top-dimensional
        # chain bounds nothing, and the zero chain bounds the empty chain
        top = Chain(cx, cx.top_dim, {cx.cells[-1][0]: 1})
        assert solve_boundary(cx, top) is None
        x = solve_boundary(cx, Chain(cx, cx.top_dim, {}))
        assert x == Chain(cx, cx.top_dim + 1, {})


class TestErrors:
    def test_boundary_violation_detected(self):
        boundaries = {
            1: (array("l", [0]), array("l", [0]), array("l", [1])),
            2: (array("l", [0]), array("l", [0]), array("l", [1])),
        }
        bad = ChainComplex([1, 1, 1], boundaries, cells=[[0], [0], [0]])
        with pytest.raises(BoundaryError):
            homology(bad)


    def test_interleaved_columns_are_summed_whole(self):
        # two discs, each bounded by a + b - c on a triangle, with the
        # entries of their columns listed alternately: a 2-sphere
        cx = ChainComplex.from_json_dict({"dims": [3, 3, 2], "boundary": {
            "1": [[0, 0, -1], [1, 0, 1], [1, 1, -1], [2, 1, 1],
                  [0, 2, -1], [2, 2, 1]],
            "2": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1],
                  [2, 0, -1], [2, 1, -1]]}})
        cx.check_boundary_squared()
        assert homology(cx).betti_vector() == (1, 0, 1)

    @pytest.mark.parametrize("model", ["swiatkowski", "abrams"])
    @pytest.mark.parametrize("where", ["dim2", "top"])
    def test_one_flipped_sign_is_detected(self, model, where):
        if model == "swiatkowski":
            cx = build_swiatkowski(build_family("k4"), 4)
        else:
            cx = build_abrams(order_vertices(
                subdivide_for(build_family("k4"), 3)), 3)
        cx.check_boundary_squared()
        d = 2 if where == "dim2" else cx.top_dim
        vals = cx.boundary_triplets(d)[2]
        for k in (0, len(vals) // 2, len(vals) - 1):
            vals[k] = -vals[k]
            with pytest.raises(BoundaryError, match=f"dimension {d}"):
                cx.check_boundary_squared()
            vals[k] = -vals[k]
        cx.check_boundary_squared()


def _k33_all(n):
    return build_swiatkowski(build_family("k33"), n, reduce_vertices="all")


def _k33_n6_flipped():
    """k33 n=6 all-reduced with one sign flipped in dimension 3."""
    cx = _k33_all(6)
    vals = cx.boundary_triplets(3)[2]
    vals[len(vals) // 2] *= -1
    return cx


def _comparable(h):
    h.elapsed_ms = 0.0
    return h


def _no_processes(*args, **kwargs):
    raise OSError(errno.EAGAIN, "cannot start a process")


class _DyingPool(concurrent.futures.ProcessPoolExecutor):
    """A real pool whose worker exits at once, breaking the pool."""

    def submit(self, fn, *args, **kwargs):
        return super().submit(os._exit, 1)


def _homology_in_daemon(queue):
    """Target of a daemonic process: homology of k33 n=5 with the worker
    path otherwise forced, and the number of d^2 checks run in process;
    an error is sent instead, so that the test need not wait it out."""
    complexes.PARALLEL_CHECK_ENTRIES = 0
    os.sched_getaffinity = lambda pid: {0, 1}
    calls = []
    real = ChainComplex.check_boundary_squared
    ChainComplex.check_boundary_squared = lambda cx: calls.append(cx) or real(cx)
    try:
        queue.put((homology(_k33_all(5)).betti_vector(), len(calls)))
    except Exception as exc:
        queue.put(repr(exc))
        raise


class TestCheckOnce:
    def test_a_passed_check_is_not_repeated(self, monkeypatch):
        calls = []
        real = ChainComplex.check_boundary_squared
        monkeypatch.setattr(ChainComplex, "check_boundary_squared",
                            lambda cx: calls.append(cx) or real(cx))
        cx = build_swiatkowski(build_family("theta:4"), 2)
        homology(cx)
        homology(cx, dims=1)
        assert calls == [cx] and cx._checked
        homology(cx, check=False)
        assert calls == [cx]
        bad = toy_complex(2)
        bad.boundaries[1] = (array("l", [0]), array("l", [0]),
                             array("l", [1]))
        for _ in range(2):
            with pytest.raises(BoundaryError):
                homology(bad)
        assert calls == [cx, bad, bad] and not bad._checked

    def test_failed_check_drops_the_cached_reduction(self, monkeypatch):
        monkeypatch.setattr(complexes, "PARALLEL_CHECK_ENTRIES", 10 ** 18)
        cx = _k33_n6_flipped()
        morse_reduce(cx)
        with pytest.raises(BoundaryError, match="dimension 3"):
            homology(cx)
        assert cx._reduction is None


class TestCheckWorker:
    """`homology` with the d^2 check in a worker process beside the
    reduction, forced by a threshold of 0 entries."""

    @pytest.fixture
    def in_process(self, monkeypatch):
        """Force the worker path and list the checks run in this process;
        a wait that hangs ends the run with a traceback after 300 s."""
        monkeypatch.setattr(complexes, "PARALLEL_CHECK_ENTRIES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        calls = []
        real = ChainComplex.check_boundary_squared
        monkeypatch.setattr(ChainComplex, "check_boundary_squared",
                            lambda cx: calls.append(cx) or real(cx))
        faulthandler.dump_traceback_later(300, exit=True)
        yield calls
        faulthandler.cancel_dump_traceback_later()

    def test_worker_and_in_process_results_agree(self, monkeypatch,
                                                 in_process):
        worker_cx = _k33_all(5)
        by_worker = _comparable(homology(worker_cx))
        assert in_process == [] and worker_cx._checked
        monkeypatch.setattr(complexes, "PARALLEL_CHECK_ENTRIES", 10 ** 18)
        here_cx = _k33_all(5)
        here = _comparable(homology(here_cx))
        assert in_process == [here_cx]
        assert by_worker == here
        assert (morse_reduce(worker_cx)[0].meta["reduction"]
                == morse_reduce(here_cx)[0].meta["reduction"]
                == ReductionStats(original=[1287, 5940, 9900, 7200, 2160, 192],
                                  reduced=[1, 5, 29, 10], pairs=13317,
                                  protected=1))
        # checked once: no second worker, no check in process
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _no_processes)
        assert _comparable(homology(worker_cx)) == here
        assert in_process == [here_cx]

    def test_flipped_sign_fails_through_the_worker(self, in_process):
        cx = _k33_n6_flipped()
        with pytest.raises(BoundaryError, match="dimension 3"):
            homology(cx)
        assert in_process == []
        assert cx._reduction is None and not cx._checked

    def test_check_failure_takes_precedence(self, monkeypatch, in_process):
        hom = importlib.import_module("confhom.homology")

        def failing(cx, *args, **kwargs):
            raise EngineError("reduction failed")

        monkeypatch.setattr(hom, "morse_reduce", failing)
        cx = _k33_n6_flipped()
        with pytest.raises(BoundaryError) as raised:
            homology(cx)
        assert isinstance(raised.value.__context__, EngineError)
        valid = _k33_all(5)
        with pytest.raises(EngineError):
            homology(valid)
        assert valid._checked and in_process == []

    @pytest.mark.parametrize("pool", [_no_processes, _DyingPool],
                             ids=["cannot-start", "dies"])
    def test_worker_failure_falls_back_to_this_process(
            self, monkeypatch, in_process, pool):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        cx = _k33_n6_flipped()
        with pytest.raises(BoundaryError, match="dimension 3"):
            homology(cx)
        assert in_process == [cx] and cx._reduction is None

    def test_daemonic_caller_checks_in_process(self):
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        proc = ctx.Process(target=_homology_in_daemon, args=(queue,),
                           daemon=True)
        proc.start()
        try:
            got = queue.get(timeout=300)
        finally:
            proc.join(timeout=60)
        assert not proc.is_alive() and proc.exitcode == 0
        assert got == ((1, 4, 28, 10, 0, 0), 1)


class TestGenerators:
    def test_theta3_first_homology_generators(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        gens = homology_generators(cx, 1)
        assert len(gens) == 3
        from confhom.cycles import span_rank
        assert span_rank(cx, gens, 1) == 3


def _digest(chains):
    data = repr([sorted(z.data.items()) for z in chains]).encode()
    return hashlib.sha256(data).hexdigest()[:16]


class TestSharedReduction:
    """One elimination per complex, cached on it; transport and lifting
    replay its trail.  Digests were taken before the cache existed, when
    transport ran inside a second elimination."""

    def test_consumers_share_one_elimination(self, monkeypatch):
        import importlib
        from confhom.cycles import CycleSpec, make_cycle, span_rank
        # the package re-exports the function homology under the module's name
        hom = importlib.import_module("confhom.homology")
        calls = []
        real = hom._reduce
        monkeypatch.setattr(hom, "_reduce",
                            lambda cx: calls.append(cx) or real(cx))
        cx = build_swiatkowski(build_family("theta:4"), 2)
        h = homology(cx)
        ys = [make_cycle(cx, CycleSpec(kind="Y", hub="u", branches=tri))
              for tri in itertools.combinations(("e1", "e2", "e3", "e4"), 3)]
        assert span_rank(cx, ys, 1) == 3
        gens = homology_generators(cx, 1)
        assert len(gens) == h.betti(1)
        assert calls == [cx]
        homology(cx, reduce=False)
        homology(cx, dims=1)
        assert calls == [cx]

    def test_no_reduction_leaves_the_cache_empty(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        homology(cx, reduce=False)
        assert cx._reduction is None
        rcx, _, _ = morse_reduce(cx)
        assert morse_reduce(cx)[0] is rcx

    def test_transport_replays_the_cached_trail(self):
        from confhom import verify as V
        from confhom.cycles import _spec_support, product_cycle, span_rank
        g = build_family("k33")
        sub = V._subdivide_edges(g, {e[0] for e in g.edges})
        cx = build_swiatkowski(sub, 4, reduce_vertices="all")
        ys, os_ = V._k33_parts(g, sub)
        part_lists = [[ys[u], ys[v]] for u, v in itertools.combinations(ys, 2)]
        for o in os_.values():
            for v in ys:
                es, vs = _spec_support(sub, o)
                es2, vs2 = _spec_support(sub, ys[v])
                if not (es & es2) and not (vs & vs2):
                    part_lists.append([o, ys[v]])
        cycles = []
        for parts in part_lists:
            used_e, used_v = set(), set()
            for p in parts:
                es, vs = _spec_support(sub, p)
                used_e |= es
                used_v |= vs
            free = 4 - sum({"O": 1, "Y": 2}[p.kind] for p in parts)
            for dist in V._distributions(free, V._regions(sub, used_e, used_v)):
                cycles.append(product_cycle(cx, parts, dressing={"edges": dist}))
        assert len(cycles) == 69
        assert homology(cx, dims=2).betti(2) == 19
        rcx, moved, _ = morse_reduce(cx, track=cycles)
        assert rcx is cx._reduction[0]
        assert _digest(moved) == "d2d250245f2ed513"
        assert all(z.complex is rcx and not z.boundary() for z in moved)
        assert span_rank(cx, cycles, 2) == 19

    @pytest.mark.parametrize("fam,n,d,count,digest", [
        ("theta:4", 3, 1, 6, "90fc0ea9e72782ca"),
        ("theta:4", 3, 2, 1, "19042a8f4a70b844"),
        ("k4", 3, 2, 3, "5958c11f2cb88aeb"),
    ])
    def test_lifted_generators_are_unchanged(self, fam, n, d, count, digest):
        from confhom.cycles import span_rank
        cx = build_swiatkowski(build_family(fam), n)
        assert homology(cx).betti(d) == count
        gens = homology_generators(cx, d)
        assert len(gens) == count
        assert all(z.complex is cx and not z.boundary() for z in gens)
        assert span_rank(cx, gens, d) == count
        assert _digest(gens) == digest

    def test_span_of_cycles_above_the_reduced_top_dimension(self):
        # a filled triangle reduces to one point, so the boundary of its
        # 2-cell spans nothing in H_1
        from confhom.cycles import span_rank
        cx = ChainComplex.from_json_dict({"dims": [3, 3, 1], "boundary": {
            "1": [[0, 0, -1], [1, 0, 1], [1, 1, -1], [2, 1, 1],
                  [0, 2, 1], [2, 2, -1]],
            "2": [[0, 0, 1], [1, 0, 1], [2, 0, 1]]}})
        z = Chain(cx, 2, {0: 1}).boundary()
        assert z and morse_reduce(cx)[0].dims == [1]
        assert span_rank(cx, [z], 1) == 0
        assert span_rank(cx, [z], 1, reduce=False) == 0
