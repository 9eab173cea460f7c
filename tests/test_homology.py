"""Engine checks: Smith normal form against independent oracles, unit-pivot
reduction soundness, the d^2 = 0 check, boundary solving, and generator
extraction."""

import functools
import gc
import hashlib
import importlib
import itertools
import multiprocessing.process
import random
import re
import subprocess
import tracemalloc
from array import array
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhom import complexes
from confhom.complexes import BoundaryError, Chain, ChainComplex
from confhom.graph import Graph, build_family, order_vertices, subdivide_for
from confhom.homology import (EngineError, ReductionStats, homology,
                              homology_generators, morse_reduce,
                              smith_normal_form, solve_boundary)
from confhom.swiatkowski import build_swiatkowski
from confhom.abrams import build_abrams
from flipped import flip_y_table


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

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_sparse_triplets_match_the_dense_sum(self, data):
        # triplets in any order, with zero values, repeated (row, col)
        # entries (some cancelling), empty rows and trailing empty columns
        m, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 6))
        used = data.draw(st.integers(0, n))  # columns past `used` are empty
        entries = data.draw(st.lists(st.tuples(
            st.integers(0, max(m - 1, 0)), st.integers(0, max(used - 1, 0)),
            st.integers(-4, 4)), max_size=14 if m and used else 0))
        entries += [(r, c, -v) for r, c, v in data.draw(
            st.lists(st.sampled_from(entries), max_size=4)
            if entries else st.just([]))]
        entries = data.draw(st.permutations(entries))
        dense = [[0] * n for _ in range(m)]
        for r, c, v in entries:
            dense[r][c] += v
        kind = data.draw(st.sampled_from(
            [list, functools.partial(array, "l")]))
        trips = tuple(kind([e[k] for e in entries]) for k in range(3))
        res = smith_normal_form(trips, shape=(m, n))
        assert list(res.divisors) == snf_oracle(dense)
        assert res.rank == len(res.divisors)

    def test_sparse_cancelling_and_empty_columns(self):
        # (0, 0) cancels, so only the 2 at (1, 1) is left in a 3 x 4 matrix
        res = smith_normal_form(([0, 1, 0], [0, 1, 0], [1, 2, -1]),
                                shape=(3, 4))
        assert (res.rank, res.divisors) == (1, (2,))
        # every column is eliminated, and with it the top dimension
        res = smith_normal_form(([0, 1, 1], [1, 0, 0], [1, 1, 0]),
                                shape=(2, 2))
        assert (res.rank, res.divisors) == (2, (1, 1))
        assert smith_normal_form(([], [], []), shape=(3, 0)).rank == 0


def _essential(fam, n):
    """The half-edge complex of a family reduced at its essential
    vertices."""
    g = build_family(fam)
    return build_swiatkowski(g, n, reduce_vertices=g.essential_vertices())


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
        rcx, _, (trail, _, _, _) = morse_reduce(build())
        assert rcx.meta["reduction"] == stats
        pairs = repr([(a, b) for a, b, _, _ in trail]).encode()
        assert hashlib.sha256(pairs).hexdigest()[:16] == digest

    @pytest.mark.parametrize("morse", [False, True],
                             ids=["canonical", "morse"])
    def test_a_reduced_complex_carries_only_its_reduction(self, morse):
        # its cells are neither the builder's nor the Morse complex's, so
        # it keeps none of their meta; the encoding holds the graph and n
        cx = build_swiatkowski(build_family("theta:3"), 2,
                               reduce_vertices="all" if morse else None)
        assert cx.meta == {"model": "swiatkowski"}
        rcx = morse_reduce(cx.morse_complex()[0] if morse else cx)[0]
        assert sorted(rcx.meta) == ["model", "reduction"]
        assert repr(rcx) == f"<ChainComplex dims={rcx.dims} model=reduced>"

    def test_peak_memory_of_the_reduction(self):
        # k33 n=5 all-reduced, 26,679 cells: the per-cell containers and the
        # trail the reduction keeps peak at about 15 MB under tracemalloc
        cx = build_swiatkowski(build_family("k33"), 5, reduce_vertices="all")
        assert cx.n_cells() == 26679
        tracemalloc.start()
        try:
            morse_reduce(cx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000

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


SOLVE_CORPUS = {
    "canonical": lambda: build_swiatkowski(build_family("theta:4"), 3),
    "essential": lambda: _essential("k4", 3),
    "all-lasso": lambda: build_swiatkowski(build_family("lasso"), 3,
                                           reduce_vertices="all"),
    "cube-k4-n3": lambda: build_abrams(order_vertices(
        subdivide_for(build_family("k4"), 3)), 3),
    # a 2-sphere (two discs on a triangle) and a disjoint circle
    "json": lambda: ChainComplex.from_json_dict({"dims": [5, 5, 2],
                                                 "boundary": {
        "1": [[0, 0, -1], [1, 0, 1], [1, 1, -1], [2, 1, 1], [0, 2, -1],
              [2, 2, 1], [3, 3, -1], [4, 3, 1], [3, 4, 1], [4, 4, -1]],
        "2": [[0, 0, 1], [1, 0, 1], [2, 0, -1], [0, 1, 1], [1, 1, 1],
              [2, 1, -1]]}}),
}


def _random_chain(cx, d, rng, size=4):
    keys = cx.cells[d] if cx.cells is not None else range(cx.dims[d])
    return Chain(cx, d, {k: rng.choice((-2, -1, 1, 3))
                         for k in rng.sample(list(keys),
                                             min(size, cx.dims[d]))})


class TestSolveBoundary:
    def test_boundary_of_a_cell_is_solvable(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        key = cx.cells[2][0]
        b = Chain(cx, 2, {key: 1}).boundary()
        x = solve_boundary(cx, b)
        assert x is not None and x.boundary() == b

    def test_nontrivial_cycle_is_not_a_boundary(self):
        # the hexagon's single 1-cycle
        cx = build_abrams(order_vertices(build_family("star:3"), "l0"), 2)
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

    @pytest.mark.parametrize("name", sorted(SOLVE_CORPUS))
    def test_random_boundaries_solve(self, name):
        rng = random.Random(13)
        cx = SOLVE_CORPUS[name]()
        for d in range(1, cx.top_dim + 1):
            for _ in range(3):
                b = _random_chain(cx, d, rng).boundary()
                x = solve_boundary(cx, b)
                assert x is not None and x.dim == d and x.boundary() == b

    @pytest.mark.parametrize("name", sorted(SOLVE_CORPUS))
    def test_generators_do_not_bound(self, name):
        cx = SOLVE_CORPUS[name]()
        h = homology(cx)
        found = 0
        for d in range(1, cx.top_dim + 1):
            gens = homology_generators(cx, d)
            assert len(gens) == h.betti(d)
            found += len(gens)
            for z in gens:
                assert solve_boundary(cx, z) is None
                assert solve_boundary(cx, 2 * z) is None
        assert found

    @pytest.mark.parametrize("name", ["canonical", "cube-k4-n3", "json"])
    def test_vertices(self, name):
        # augmented complexes: a vertex is a boundary only as part of a
        # 0-chain whose sum on every component is 0
        cx = SOLVE_CORPUS[name]()
        quotient = morse_reduce(cx)[2][3]
        assert len(quotient) == homology(cx).betti(0)
        e = (cx.cells[1] if cx.cells is not None else range(cx.dims[1]))[0]
        b = Chain(cx, 1, {e: 1}).boundary()
        x = solve_boundary(cx, b)
        assert x is not None and x.boundary() == b
        v, w = sorted(b.data)
        for odd in (Chain(cx, 0, {v: 1}), Chain(cx, 0, {v: 2, w: -1})):
            assert solve_boundary(cx, odd) is None

    def test_vertices_of_two_components(self):
        cx = SOLVE_CORPUS["json"]()
        assert solve_boundary(cx, Chain(cx, 0, {0: 1, 2: -1})) is not None
        assert solve_boundary(cx, Chain(cx, 0, {0: 1, 3: -1})) is None
        assert solve_boundary(cx, Chain(cx, 0, {0: 1, 1: 1, 3: -2})) is None

    def test_vertex_of_a_non_augmented_complex(self):
        # d_1 = (2): nothing is quotiented, and 2v bounds while v does not
        cx = ChainComplex.from_json_dict(
            {"dims": [1, 1], "boundary": {"1": [[0, 0, 2]]}})
        assert morse_reduce(cx)[2][3] == set()
        assert solve_boundary(cx, Chain(cx, 0, {0: 2})) == Chain(cx, 1, {0: 1})
        assert solve_boundary(cx, Chain(cx, 0, {0: 1})) is None

    def test_torsion_class(self):
        # the loop of toy_complex(2) has order 2 in H_1
        cx = toy_complex(2)
        loop = Chain(cx, 1, {0: 1})
        assert solve_boundary(cx, loop) is None
        assert solve_boundary(cx, 2 * loop) == Chain(cx, 2, {0: 1})

    def test_non_cycle_bounds_nothing(self):
        cx = SOLVE_CORPUS["canonical"]()
        assert solve_boundary(cx, Chain(cx, 1, {cx.cells[1][0]: 1})) is None

    def test_beyond_the_old_dense_limit(self):
        # k4 n=5 canonical: d_2 is 4356 x 5616, about 24 M entries, which a
        # dense solve over the whole complex once refused
        cx = build_swiatkowski(build_family("k4"), 5)
        assert cx.dims[1] * cx.dims[2] > 24_000_000
        b = _random_chain(cx, 2, random.Random(5), size=6).boundary()
        x = solve_boundary(cx, b)
        assert x is not None and x.boundary() == b
        rcx = morse_reduce(cx)[0]
        assert rcx.dims[1] * rcx.dims[2] < 1000

    def test_chain_of_another_complex_is_refused(self):
        from confhom.cycles import CycleSpec, make_cycle, span_rank
        g = build_family("theta:4")
        cx = build_swiatkowski(g, 2)
        other = build_swiatkowski(g, 2, reduce_vertices="all")
        z = make_cycle(cx, CycleSpec(kind="Y", hub="u",
                                     branches=("e1", "e2", "e3")))
        with pytest.raises(ValueError, match="another complex"):
            solve_boundary(other, z)
        with pytest.raises(ValueError, match="another complex"):
            span_rank(other, [z], 1)


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

    @pytest.mark.parametrize("data, message", [
        ({"dims": [2, -1], "boundary": {}}, r"dims\[1\] = -1 is negative"),
        ({"dims": [2, 1], "boundary": {"2": [[0, 0, 1]]}},
         r"boundary key '2' is outside 1\.\.1"),
        ({"dims": [2, 1], "boundary": {"1": [[-1, 0, 1], [0, 0, -1]]}},
         r"entry \[-1, 0, 1\] of dimension 1: row -1 is outside range\(2\)"),
        ({"dims": [2, 1], "boundary": {"1": [[2, 0, 1], [0, 0, -1]]}},
         r"entry \[2, 0, 1\] of dimension 1: row 2 is outside range\(2\)"),
        ({"dims": [2, 1], "boundary": {"1": [[1, 0, 1], [0, 1, -1]]}},
         r"entry \[0, 1, -1\] of dimension 1: column 1 is outside "
         r"range\(1\)"),
    ], ids=["negative-dim", "key-above-top", "negative-row", "row-too-large",
            "column-too-large"])
    def test_json_complex_is_validated_on_load(self, data, message):
        with pytest.raises(ValueError, match=message):
            ChainComplex.from_json_dict(data)

    @pytest.mark.parametrize("d, entry, message", [
        (1, 0, r"entry \[5, 0, 1\] of dimension 1: row 5 is outside "
               r"range\(2\)"),
        (2, 1, r"entry \[0, 1, -1\] of dimension 2: column 1 is outside "
               r"range\(1\)"),
    ], ids=["row", "column"])
    def test_entries_out_of_range_are_refused(self, d, entry, message):
        # an interval with both ends on vertex 0 and a disc on it, written
        # slot-major by hand; one entry is then moved out of range
        boundaries = {e: (array("l", [0, 0]), array("l", [0, 0]),
                          array("l", [1, -1])) for e in (1, 2)}
        boundaries[d][d - 1][entry] = 5 if d == 1 else 1
        cx = ChainComplex([2, 1, 1], boundaries)
        with pytest.raises(BoundaryError, match=message):
            cx.check_boundary_squared()
        assert not cx._checked

    def test_unequal_triplet_lengths_are_refused(self):
        cx = toy_complex(2)
        cx.boundaries[2] = (array("l", [0, 0]), array("l", [0]),
                            array("l", [1]))
        with pytest.raises(BoundaryError, match=r"dimension 2 has 2 rows, "
                           r"1 columns and 1 values"):
            cx.check_boundary_squared()

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


class TestCheckOnce:
    def test_a_passed_check_is_not_repeated(self, monkeypatch):
        calls = []
        real = ChainComplex.check_boundary_squared
        monkeypatch.setattr(ChainComplex, "check_boundary_squared",
                            lambda cx: calls.append(cx) or real(cx))
        # a canonical complex is read through the Morse complex of the
        # all-reduced basis, which is checked once; its triplets are not
        # read
        cx = build_swiatkowski(build_family("theta:4"), 2)
        homology(cx)
        homology(cx, dims=1)
        mcx = cx.morse_complex()[0]
        assert calls == [mcx] and mcx._checked and not cx._checked
        # a dimension below 0 has the zero group, as one above the top
        assert homology(cx, dims=-1).dims == {-1: (0, ())}
        assert homology(cx, dims=(-2, 0)).dims == {-2: (0, ()), -1: (0, ()),
                                                   0: (1, ())}
        homology(cx, check=False)
        homology(cx, reduce=False)
        homology(cx, reduce=False, dims=1)
        assert calls == [mcx, cx] and cx._checked
        bad = toy_complex(2)
        bad.boundaries[1] = (array("l", [0]), array("l", [0]),
                             array("l", [1]))
        for _ in range(2):
            with pytest.raises(BoundaryError):
                homology(bad)
        assert calls == [mcx, cx, bad, bad] and not bad._checked

    def test_failed_check_drops_the_cached_reduction(self):
        # the triplets are read, and so checked, off the Morse path
        cx = _k33_n6_flipped()
        morse_reduce(cx)
        with pytest.raises(BoundaryError, match="dimension 3"):
            homology(cx, reduce=False)
        assert cx._reduction is None and not cx._checked

    def test_failed_table_proof_drops_the_cached_reduction(self,
                                                           monkeypatch):
        cx = _k33_all(6)
        morse_reduce(cx)
        flip_y_table(monkeypatch.setattr, 3)
        with pytest.raises(BoundaryError, match="dimension 3, y state"):
            homology(cx)
        assert cx._reduction is None and cx._morse is None

    def _refuse_processes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("homology started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        monkeypatch.setattr(subprocess, "Popen", refuse)

    def test_homology_starts_no_process(self, monkeypatch):
        # the Morse path proves its tables and checks the Morse complex;
        # the triplets are written and proved, in process, when first read
        self._refuse_processes(monkeypatch)
        cx = _k33_all(5)
        assert homology(cx).betti_vector() == (1, 4, 28, 10, 0, 0)
        assert not cx._checked and cx.morse_complex()[0]._checked
        cx.check_boundary_squared()
        assert cx._checked

    def test_a_failed_table_proof_starts_no_process(self, monkeypatch):
        self._refuse_processes(monkeypatch)
        flip_y_table(monkeypatch.setattr, 2)
        with pytest.raises(BoundaryError, match="dimension 2, y state"):
            homology(_k33_all(5))


def _comparable(h):
    h.elapsed_ms = 0.0
    return h


def _homology_in_daemon(queue, flip=None):
    """Target of a daemonic process, which may start no child of its own:
    homology of k33 n=5, the number of d^2 checks run, and the stats of
    the generic reduction; an error is sent instead, so that the test need
    not wait it out.  With `flip`, one y table of that many occupied sites
    is compiled with a flipped sign."""
    calls = []
    real = ChainComplex.check_boundary_squared
    ChainComplex.check_boundary_squared = lambda cx: calls.append(cx) or real(cx)
    if flip:
        flip_y_table(setattr, flip)
    try:
        cx = _k33_all(5)
        h = _comparable(homology(cx))
        queue.put((h, len(calls), morse_reduce(cx)[0].meta["reduction"]))
    except Exception as exc:
        queue.put(repr(exc))
        raise


def _run_in_daemon(flip=None):
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    proc = ctx.Process(target=_homology_in_daemon, args=(queue, flip),
                       daemon=True)
    proc.start()
    try:
        got = queue.get(timeout=300)
    finally:
        proc.join(timeout=60)
    # an error is sent and raised again, so the process fails
    assert not proc.is_alive()
    assert proc.exitcode == (1 if isinstance(got, str) else 0)
    return got


class TestCheckBeforeEveryResult:
    """Class ranks and generators are read only from complexes whose d^2
    check passed, as homology is."""

    def _flipped(self, **kwargs):
        cx = build_swiatkowski(build_family("theta:4"), 3, **kwargs)
        vals = cx.boundary_triplets(2)[2]
        vals[0] = -vals[0]
        return cx

    def test_class_rank(self):
        # class ranks of an all-reduced complex read no triplet: its
        # readers off the Morse path meet the flipped sign
        from confhom.cycles import CycleSpec, product_cycle, span_rank
        cx = self._flipped(reduce_vertices="all")
        z = product_cycle(cx, [CycleSpec(kind="Y", hub="u",
                                         branches=("e1", "e2", "e3"))],
                          dressing={"edges": {"e4": 1}})
        assert span_rank(cx, [z], 1) == 1
        for read in (lambda: homology(cx, reduce=False),
                     lambda: homology_generators(cx, 1)):
            with pytest.raises(BoundaryError, match="dimension 2"):
                read()
            assert cx._morse is None and cx._reduction is None

    def test_class_rank_of_a_flipped_x_table(self):
        # the basis change into the Morse complex is checked on each state
        # part it converts and on their faces: one sign flipped in the
        # table of a face of the product's cells
        from confhom.cycles import CycleSpec, product_cycle, span_rank
        cx = build_swiatkowski(build_family("k33"), 4, reduce_vertices="all")
        homology(cx)
        z = product_cycle(cx, [
            CycleSpec(kind="Y", hub="a0", branches=("e00", "e01", "e02")),
            CycleSpec(kind="Y", hub="b0", branches=("e00", "e10", "e20"))])
        enc = cx.encoding
        face = enc.cell_faces(next(iter(z.data)))[0][0] // enc.edge_span
        states, hsites, ((delta, w), *rest) = enc.part(face)
        enc._parts[face] = (states, hsites, ((delta, -w), *rest))
        with pytest.raises(BoundaryError, match="not a chain map at dimension "
                           f"1, state part {face}"):
            span_rank(cx, [z], 2)
        assert cx._morse is None and cx._reduction is None

    def test_generators(self):
        cx = self._flipped()
        with pytest.raises(BoundaryError, match="dimension 2"):
            homology_generators(cx, 1)
        assert cx._reduction is None

    def test_solve_boundary(self):
        cx = self._flipped()
        b = Chain(cx, 2, {cx.cells[2][0]: 1}).boundary()
        with pytest.raises(BoundaryError, match="dimension 2"):
            solve_boundary(cx, b)
        assert cx._reduction is None

    # The twins of the two tests above: a canonical complex's homology and
    # class ranks read pi, not the triplets, so a sign flipped in pi's
    # tables fails there, and the generic trail of generators and solving
    # does not read pi.

    def test_generators_beside_a_flipped_homotopy(self):
        from confhom.swiatkowski import OCCUPIED
        cx = build_swiatkowski(build_family("theta:4"), 3)
        enc = cx.encoding
        c, w = enc.homotopy[0][OCCUPIED]
        enc.homotopy[0][OCCUPIED] = (c, -w)
        st = enc.site_rule(0)[OCCUPIED][0]
        with pytest.raises(BoundaryError, match="homotopy equivalence at "
                           f"dimension 0, state part {st}$"):
            homology(cx)
        assert cx._morse is None
        assert len(homology_generators(cx, 1)) == 6

    def test_solve_boundary_beside_a_flipped_canonical_part(self):
        # one sign flipped in the table of a face of a product's cells:
        # the face's state part is converted, and so checked, first
        from confhom.cycles import CycleSpec, product_cycle, span_rank
        cx = build_swiatkowski(build_family("theta:4"), 4)
        z = product_cycle(cx, [
            CycleSpec(kind="Y", hub="u", branches=("e1", "e2", "e3")),
            CycleSpec(kind="Y", hub="v", branches=("e1", "e2", "e4"))])
        enc = cx.encoding
        face = next(iter(enc.cell_faces(next(iter(z.data)))))[0]
        face //= enc.edge_span
        states, hsites, ((delta, w), *rest) = enc.part(face)
        enc._parts[face] = (states, hsites, ((delta, -w), *rest))
        with pytest.raises(BoundaryError, match="not a chain map at dimension "
                           f"1, state part {face}$"):
            span_rank(cx, [z], 2)
        assert cx._morse is None and cx._reduction is None
        b = Chain(cx, 1, {cx.cells[1][0]: 1}).boundary()
        assert solve_boundary(cx, b).boundary() == b


class TestCheckWorker:
    """`homology` called from a caller's worker process, and beside a
    failing reduction: the d^2 check runs first, in the calling process."""

    def test_worker_and_in_process_results_agree(self):
        by_worker, _, worker_stats = _run_in_daemon()
        here_cx = _k33_all(5)
        here = _comparable(homology(here_cx))
        assert by_worker == here
        assert (worker_stats == morse_reduce(here_cx)[0].meta["reduction"]
                == ReductionStats(original=[1287, 5940, 9900, 7200, 2160, 192],
                                  reduced=[1, 5, 29, 10], pairs=13317,
                                  protected=1))

    def test_check_failure_takes_precedence(self, monkeypatch):
        reductions = []

        def failing(cx, *args, **kwargs):
            reductions.append(cx)
            raise EngineError("reduction failed")

        monkeypatch.setattr(importlib.import_module("confhom.homology"),
                            "morse_reduce", failing)
        cx = _k33_n6_flipped()
        with pytest.raises(BoundaryError, match="dimension 3"):
            homology_generators(cx, 3)
        assert reductions == [] and not cx._checked
        valid = _k33_all(5)
        with pytest.raises(EngineError, match="reduction failed"):
            homology(valid)
        mcx = valid.morse_complex()[0]
        assert mcx._checked and reductions == [mcx] and not valid._checked

    def test_table_proof_failure_takes_precedence(self, monkeypatch):
        reductions = []

        def failing(cx, *args, **kwargs):
            reductions.append(cx)
            raise EngineError("reduction failed")

        monkeypatch.setattr(importlib.import_module("confhom.homology"),
                            "morse_reduce", failing)
        flip_y_table(monkeypatch.setattr, 3)
        cx = _k33_all(6)
        with pytest.raises(BoundaryError, match="dimension 3, y state"):
            homology(cx)
        assert reductions == [] and cx._morse is None

    def test_daemonic_caller_checks_in_process(self):
        # the Morse complex is checked; the tables it is built from are
        # proved as they compile, and the triplets are not written
        h, checks, _ = _run_in_daemon()
        assert (h.betti_vector(), checks) == ((1, 4, 28, 10, 0, 0), 1)

    def test_daemonic_caller_proves_tables_in_process(self):
        got = _run_in_daemon(flip=2)
        assert got.startswith("BoundaryError('dd != 0 at dimension 2, y state")


def _verdict(cx):
    """None when cx passes the d^2 check, else the error's message."""
    try:
        cx.check_boundary_squared()
    except BoundaryError as exc:
        return str(exc)
    return None


def _column_verdict(cx, monkeypatch):
    """The verdict of the column-by-column check alone."""
    with monkeypatch.context() as m:
        m.setattr(complexes, "_slots_cancel", lambda *args: False)
        return _verdict(cx)


def _slots_cancel_at(cx, d):
    """The slot proof of dimension d on the expanded triplets."""
    upper, lower = cx.boundary_triplets(d), cx.boundary_triplets(d - 1)
    f = complexes._slot_width(upper, cx.dims[d])
    g = complexes._slot_width(lower, cx.dims[d - 1])
    return bool(f and g) and complexes._slots_cancel(upper, f, lower, g,
                                                     cx.dims[d - 2])


SLOT_BUILDERS = {
    "swiatkowski-canonical": lambda: build_swiatkowski(build_family("k4"), 4),
    "swiatkowski-all": lambda: _k33_all(4),
    "abrams": lambda: build_abrams(order_vertices(
        subdivide_for(build_family("k4"), 3)), 3),
}


# Mutants of one entry i of a slot-major boundary with n columns and
# n_lower rows: entry i is slot i // n of column i % n.  Each returns the
# columns whose d^2 it makes non-zero.

def _flip_sign(rows, cols, vals, i, n, n_lower):
    vals[i] = -vals[i]
    return {i % n}


def _move_row(rows, cols, vals, i, n, n_lower):
    rows[i] = (rows[i] + 1) % n_lower
    return {i % n}


def _move_column(rows, cols, vals, i, n, n_lower):
    cols[i] = (cols[i] + 1) % n
    return {i % n, cols[i]}


def _swap_rows(rows, cols, vals, i, n, n_lower):
    # slots 0 and 1 of every column carry values of opposite sign
    j = i % n
    rows[j], rows[j + n] = rows[j + n], rows[j]
    return {j}


def _swap_entries(rows, cols, vals, i, n, n_lower):
    j = i % n
    rows[j], rows[j + n] = rows[j + n], rows[j]
    vals[j], vals[j + n] = vals[j + n], vals[j]
    return set()


class TestSlotProof:
    """The d^2 check proves uniform slot layouts slot pair by slot pair and
    checks anything else column by column; both give one verdict."""

    @pytest.mark.parametrize("build", SLOT_BUILDERS.values(),
                             ids=SLOT_BUILDERS.keys())
    @pytest.mark.parametrize("mutate", [
        _flip_sign, _move_row, _move_column, _swap_rows, _swap_entries],
        ids=["flipped-sign", "moved-row", "moved-column", "swapped-rows",
             "swapped-entries"])
    def test_mutants_get_the_column_verdict(self, monkeypatch, build, mutate):
        cx = build()
        for d in range(2, cx.top_dim + 1):
            assert _slots_cancel_at(cx, d)
        assert _verdict(cx) is _column_verdict(cx, monkeypatch) is None
        # a mutant of dimension 1 shows in the check of dimension 2
        for d in (1, 2, cx.top_dim):
            rows, _, vals = cx.boundary_triplets(d)
            assert vals[0] == -vals[cx.dims[d]]
            for i in (0, len(rows) // 2 + 1, len(rows) - 1):
                mutant = build()
                broken = mutate(*mutant.boundary_triplets(d), i,
                                cx.dims[d], cx.dims[d - 1])
                assert not _slots_cancel_at(mutant, max(d, 2))
                verdict = _verdict(mutant)
                assert verdict == _column_verdict(mutant, monkeypatch)
                if not broken:
                    assert verdict is None
                elif d == 1:
                    assert verdict.startswith("dd != 0 at dimension 2, ")
                else:
                    assert verdict == (f"dd != 0 at dimension {d}, "
                                       f"cell {min(broken)}")

    def test_uniform_layout_cancelling_only_per_column_passes(self):
        # two vertices, two parallel edges and two loops, each edge's faces
        # as (-1, +1); disc 0 is bounded by the parallel edges and cancels
        # between its slots' vertices, disc 1 by the loops and cancels
        # within each loop, so no pairing of slots holds in both columns.
        # The triplets are slot-major: slot 0 of every column, then slot 1.
        cx = ChainComplex.from_json_dict({"dims": [2, 4, 2], "boundary": {
            "1": [[0, 0, -1], [0, 1, -1], [0, 2, -1], [1, 3, -1],
                  [1, 0, 1], [1, 1, 1], [0, 2, 1], [1, 3, 1]],
            "2": [[0, 0, 1], [2, 1, 1], [1, 0, -1], [3, 1, -1]]}})
        for d in (1, 2):
            assert complexes._slot_width(cx.boundary_triplets(d),
                                         cx.dims[d]) == 2
        assert not _slots_cancel_at(cx, 2)
        assert _verdict(cx) is None

    @pytest.mark.parametrize("build", SLOT_BUILDERS.values(),
                             ids=SLOT_BUILDERS.keys())
    def test_builders_write_slot_major(self, build):
        cx = build()
        for d in range(1, cx.top_dim + 1):
            n = cx.dims[d]
            rows, cols, vals = cx.boundary_triplets(d)
            f = len(rows) // n
            assert f == 2 * d and cols == array("l", range(n)) * f
            for k in range(f):
                assert set(vals[k * n:(k + 1) * n]) == {vals[k * n]}

    def test_column_major_layout_falls_back_to_the_column_check(
            self, monkeypatch):
        valid = SLOT_BUILDERS["swiatkowski-canonical"]()

        def column_major():
            boundaries = {}
            for d in range(1, valid.top_dim + 1):
                rows, cols, vals = valid.boundary_triplets(d)
                order = sorted(range(len(cols)), key=cols.__getitem__)
                boundaries[d] = tuple(array(a.typecode, map(a.__getitem__,
                                                            order))
                                      for a in (rows, cols, vals))
            return ChainComplex(valid.dims, boundaries)

        columns = []
        real = ChainComplex._columns
        monkeypatch.setattr(ChainComplex, "_columns",
                            lambda cx, d: columns.append(d) or real(cx, d))
        cx = column_major()
        for d in range(1, cx.top_dim + 1):
            assert complexes._slot_width(cx.boundary_triplets(d),
                                         cx.dims[d]) is None
        assert _verdict(cx) is None
        assert columns == list(range(1, cx.top_dim + 1))
        bad = column_major()
        rows, cols, vals = bad.boundary_triplets(2)
        i = len(vals) // 2
        vals[i] = -vals[i]
        assert _verdict(bad) == f"dd != 0 at dimension 2, cell {cols[i]}"

    def test_each_slot_layout_is_recognised_once(self, monkeypatch):
        widths = []
        real = complexes._slot_width
        monkeypatch.setattr(complexes, "_slot_width", lambda trips, n: (
            widths.append(n) or real(trips, n)))
        cx = SLOT_BUILDERS["abrams"]()
        cx.check_boundary_squared()
        assert widths == cx.dims[1:]

    @pytest.mark.parametrize("build", [
        lambda: build_swiatkowski(build_family("k4"), 3),
        lambda: _essential("k33", 3),
        lambda: build_swiatkowski(build_family("lasso"), 3,
                                  reduce_vertices="all"),
        lambda: build_swiatkowski(build_family("k33"), 3,
                                  reduce_vertices=("a0",)),
        lambda: build_abrams(order_vertices(
            subdivide_for(build_family("theta:3"), 3)), 3),
        lambda: build_swiatkowski(build_family("k4"), 3,
                                  reduce_vertices=("v0",)),
        lambda: build_swiatkowski(_two_pieces(), 3),
        lambda: build_swiatkowski(_two_pieces(), 3, reduce_vertices="all"),
        lambda: build_swiatkowski(build_family("theta:4"), 3),
    ], ids=["canonical", "essential", "all-lasso", "one-site", "cube",
            "reduced-at", "disconnected", "disconnected-all", "multigraph"])
    def test_builder_complexes_never_fall_back(self, monkeypatch, build):
        def refuse(cx, d):
            raise AssertionError(f"column check reached at dimension {d}")

        monkeypatch.setattr(ChainComplex, "_columns", refuse)
        cx = build()
        cx.check_boundary_squared()
        assert cx._checked


def _two_pieces():
    """A theta graph beside a star: disconnected, with parallel edges."""
    return Graph(["u", "v", "c", "l0", "l1", "l2"],
                 [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v"),
                  ("s0", "c", "l0"), ("s1", "c", "l1"), ("s2", "c", "l2")])


RUN_BUILDERS = {
    "all-reduced": lambda: _k33_all(3),
    "canonical": lambda: build_swiatkowski(build_family("k4"), 3),
    "essential": lambda: _essential("lasso", 3),
    "reduced-at": lambda: build_swiatkowski(build_family("k33"), 3,
                                            reduce_vertices=("a0",)),
    "disconnected": lambda: build_swiatkowski(_two_pieces(), 3),
    "disconnected-all": lambda: build_swiatkowski(_two_pieces(), 3,
                                                  reduce_vertices="all"),
    "multigraph": lambda: build_swiatkowski(build_family("theta:4"), 3),
}


def _runs(cx, d):
    """(start, stop) of each run of dimension d: the columns of the cells
    of one state part, which the builder writes together."""
    span = cx.encoding.edge_span
    parts = [key // span for key in cx.cells[d]]
    starts = [i for i, st in enumerate(parts) if not i or st != parts[i - 1]]
    return list(zip(starts, starts[1:] + [len(parts)]))


# Mutants of the slot-major triplets of one dimension with n columns, at
# slot k over the run (a, b), whose faces lie in the run `face` below; each
# changes every column of the run, or the entries around it.  One that
# cannot apply there returns False.

def _flip_slot_sign(trips, n, k, run, face, face_runs):
    vals = trips[2]
    vals[k * n:(k + 1) * n] = array("b", [-vals[k * n]]) * n


def _swap_slot_rows(rows, n, s, t, run):
    a, b = run
    rows[s * n + a:s * n + b], rows[t * n + a:t * n + b] = (
        rows[t * n + a:t * n + b], rows[s * n + a:s * n + b])


def _swap_slots(trips, n, k, run, face, face_runs):
    # k and k ^ 1 are the two faces of one site, k and k ^ 2 are not
    for other in (k ^ 1, k ^ 2):
        if other < len(trips[0]) // n:
            _swap_slot_rows(trips[0], n, k, other, run)
            return


def _negate_run(trips, n, k, run, face, face_runs):
    # swapping the two faces of every site negates each column of the run
    for s in range(0, len(trips[0]) // n, 2):
        _swap_slot_rows(trips[0], n, s, s + 1, run)


def _shift_rows(trips, n, k, run, by):
    rows = trips[0]
    for i in range(k * n + run[0], k * n + run[1]):
        rows[i] += by


def _move_offset(trips, n, k, run, face, face_runs):
    _shift_rows(trips, n, k, run, 1)


def _retarget(trips, n, k, run, face, face_runs):
    # another run below of the same length: a valid layout
    other = [a for a, b in face_runs
             if b - a == face[1] - face[0] and a != face[0]]
    if not other:
        return False
    _shift_rows(trips, n, k, run, other[len(other) // 2] - face[0])


def _shift_columns(trips, n, k, run, face, face_runs):
    cols = trips[1]
    cols[:] = array(cols.typecode, [c + 1 for c in cols])


def _bump(trips, n, k, run, face, face_runs):
    below = face[1] - face[0]
    if below == 1:
        return False
    i = k * n + run[1] - 1
    trips[0][i] = face[0] + (trips[0][i] - face[0] + 1) % below


def _before_face(trips, n, k, run, face, face_runs):
    trips[0][k * n + (run[0] + run[1]) // 2] = face[0] - 1


def _after_face(trips, n, k, run, face, face_runs):
    trips[0][k * n + run[0]] = face[1]


def _extra_entry(trips, n, k, run, face, face_runs):
    for a, x in zip(trips, (face[0], run[0], trips[2][k * n])):
        a.append(x)


def _missing_entry(trips, n, k, run, face, face_runs):
    for a in trips:
        del a[k * n + run[1] - 1]


RUN_MUTANTS = {
    "flipped-sign": _flip_slot_sign,
    "swapped-slots": _swap_slots,
    "negated-run": _negate_run,
    "moved-offset": _move_offset,
    "retargeted-offset": _retarget,
    "shifted-starts": _shift_columns,
    "changed-map": _bump,
    "negative-map": _before_face,
    "map-out-of-range": _after_face,
    "long-map": _extra_entry,
    "short-map": _missing_entry,
}


@functools.cache
def _run_base(fam, basis):
    return build_swiatkowski(build_family(fam), 4, reduce_vertices=basis)


def _copy(cx):
    """A complex with copies of the triplets of cx, and no encoding."""
    return ChainComplex(cx.dims, {
        d: tuple(array(a.typecode, a) for a in trips)
        for d, trips in cx.boundaries.items()})


class TestRunProof:
    """The half-edge builder writes its triplets run by run, one run of
    columns per state part: they give the encoding's cell faces, the slot
    proof passes them, and no mutant of a whole run of one slot passes it:
    the check gives the column check's verdict."""

    @pytest.mark.parametrize("build", RUN_BUILDERS.values(),
                             ids=RUN_BUILDERS.keys())
    def test_expansion_gives_each_cells_faces(self, build):
        cx = build()
        enc = cx.encoding
        for d in range(1, cx.top_dim + 1):
            n, index = cx.dims[d], cx.index(d - 1)
            rows, cols, vals = cx.boundary_triplets(d)
            assert cx.boundaries[d] == (rows, cols, vals)
            f = len(rows) // n
            assert cols == array("l", range(n)) * f
            for c, key in enumerate(cx.cells[d]):
                assert ([(rows[i], vals[i]) for i in range(c, f * n, n)]
                        == [(index[face], w)
                            for face, w in enc.cell_faces(key)])

    @pytest.mark.parametrize("basis", ["all", None])
    @pytest.mark.parametrize("fam", ["theta:4", "k4", "wheel:5"])
    def test_run_proof_passes_the_builders_runs(self, monkeypatch, fam,
                                                basis):
        def refuse(*args):
            raise AssertionError("column check reached")

        monkeypatch.setattr(ChainComplex, "_columns", refuse)
        cx = build_swiatkowski(build_family(fam), 4, reduce_vertices=basis)
        cx.check_boundary_squared()
        assert cx._checked and cx.top_dim >= 2

    @pytest.mark.parametrize("mutate", RUN_MUTANTS.values(),
                             ids=RUN_MUTANTS.keys())
    @pytest.mark.parametrize("basis", ["all", None])
    @pytest.mark.parametrize("fam", ["theta:4", "k4", "wheel:4"])
    def test_mutants_get_the_column_verdict(self, monkeypatch, fam, basis,
                                            mutate):
        base = _run_base(fam, basis)
        top = base.top_dim
        for d in (1, 2, top):
            n, rows = base.dims[d], base.boundary_triplets(d)[0]
            runs, face_runs = _runs(base, d), _runs(base, d - 1)
            f = len(rows) // n
            for k, j in ((0, 0), (f - 1, len(runs) // 2),
                         (f // 2, len(runs) - 1)):
                # the run below that holds slot k of run j
                face = next(r for r in face_runs
                            if r[0] <= rows[k * n + runs[j][0]] < r[1])
                got, same = _copy(base), _copy(base)
                if False in [mutate(cx.boundaries[d], n, k, runs[j], face,
                                    face_runs) for cx in (got, same)]:
                    continue
                verdict = _column_verdict(same, monkeypatch)
                assert _verdict(got) == verdict
                if verdict is not None and verdict.startswith("dd != 0"):
                    bad = int(re.search(r"dimension (\d+)", verdict)[1])
                    assert not _slots_cancel_at(got, bad)
                # negated columns are a change of basis only in the top
                # dimension, where they are the faces of no cell; a run
                # retargeted to a like run below may still give a complex
                if mutate is _negate_run and d == top:
                    assert verdict is None
                elif mutate is not _retarget:
                    assert verdict is not None

    def test_face_runs_must_be_the_runs_below(self, monkeypatch):
        # an interval whose two ends are swapped by its second face, and a
        # disc whose faces read the interval's one run as two: each side is
        # a valid slot-major layout, but not of one complex
        cx = ChainComplex.from_json_dict({"dims": [2, 2, 1], "boundary": {
            "1": [[0, 0, 1], [1, 1, 1], [1, 0, -1], [0, 1, -1]],
            "2": [[0, 0, 1], [1, 0, -1]]}})
        for d in (1, 2):
            assert complexes._slot_width(cx.boundary_triplets(d),
                                         cx.dims[d]) == 2
        assert not _slots_cancel_at(cx, 2)
        assert (_verdict(cx) == _column_verdict(cx, monkeypatch)
                == "dd != 0 at dimension 2, cell 0")

    @pytest.mark.parametrize("basis", ["all", None])
    def test_json_round_trip_of_runs(self, basis):
        def build():
            return build_swiatkowski(build_family("k4"), 3,
                                     reduce_vertices=basis)

        cx = build()
        assert callable(cx._boundaries)
        loaded = ChainComplex.from_json_dict(cx.to_json_dict())
        assert homology(loaded).dims == homology(build()).dims


class TestGenerators:
    def test_theta3_first_homology_generators(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        gens = homology_generators(cx, 1)
        assert len(gens) == 3
        from confhom.cycles import span_rank
        assert span_rank(cx, gens, 1) == 3

    def test_dimensions_outside_the_complex_have_no_generators(self):
        # homology() reads both as the zero group
        cx = build_swiatkowski(build_family("theta:3"), 2)
        h = homology(cx, dims=(-1, 3))
        assert h.dims[-1] == h.dims[3] == (0, ())
        assert homology_generators(cx, -1) == []
        assert homology_generators(cx, 3) == []

    def test_a_wrong_map_back_is_refused(self, monkeypatch):
        # generators and solving verify what the map back from the reduced
        # complex gives: with it replaced by the identity on cell ids, the
        # lifted generator is no cycle and the solution bounds another
        # chain, and both raise
        hom = importlib.import_module("confhom.homology")
        monkeypatch.setattr(hom, "_backward", lambda trail_info, d, z: z)
        cx = build_swiatkowski(build_family("k4"), 3)
        with pytest.raises(EngineError, match="lifted chain is not a cycle"):
            homology_generators(cx, 1)
        b = Chain(cx, 2, {cx.cells[2][0]: 1}).boundary()
        with pytest.raises(EngineError,
                           match="boundary solve verification failed"):
            solve_boundary(cx, b)


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
        b = Chain(cx, 2, {cx.cells[2][0]: 1}).boundary()
        assert solve_boundary(cx, b).boundary() == b
        assert solve_boundary(cx, gens[0]) is None
        # homology and class ranks reduce the Morse complex of the
        # all-reduced basis; generators and solving reduce cx; every other
        # call reduces a one-map complex of smith_normal_form
        def not_snf():
            return [c for c in calls if c.meta != {"model": "snf"}]

        assert not_snf() == [cx.morse_complex()[0], cx]
        homology(cx, reduce=False)
        homology(cx, dims=1)
        assert not_snf() == [cx.morse_complex()[0], cx]

    def test_no_reduction_leaves_the_cache_empty(self):
        cx = build_swiatkowski(build_family("theta:3"), 2)
        homology(cx, reduce=False)
        assert cx._reduction is None
        rcx, _, _ = morse_reduce(cx)
        assert morse_reduce(cx)[0] is rcx

    def test_transport_replays_the_cached_trail(self):
        from confhom.cycles import span_rank
        from subdivided import k33_products, split_edges
        cx = build_swiatkowski(split_edges(build_family("k33")), 4,
                               reduce_vertices="all")
        cycles = k33_products(cx)
        assert len(cycles) == 69
        assert homology(cx, dims=2).betti(2) == 19
        rcx, moved, _ = morse_reduce(cx, track=cycles)
        assert rcx is cx._reduction[0]
        assert _digest(moved) == "d2d250245f2ed513"
        assert all(z.complex is rcx and not z.boundary() for z in moved)
        assert span_rank(cx, cycles, 2) == 19

    def test_the_cycle_layer_indexes_no_cell(self):
        # the encoding alone decides what a cell is, and the Morse path
        # reads classes from the Morse complex: nothing looks a key of the
        # full complex up
        from confhom.cycles import span_rank
        from subdivided import k33_products, split_edges
        cx = build_swiatkowski(split_edges(build_family("k33")), 4,
                               reduce_vertices="all")
        assert homology(cx).betti(2) == 19
        cycles = k33_products(cx)
        assert len(cycles) == 69 and span_rank(cx, cycles, 2) == 19
        assert cx._index == {}

    def test_the_morse_path_lists_no_cell(self, monkeypatch):
        # homology, product cycles and class ranks of a half-edge complex,
        # in any basis, read its dims, its encoding and its Morse complex:
        # the cell list is never built, no key is indexed and no boundary
        # is written
        from confhom import swiatkowski
        from confhom.cycles import CycleSpec, product_cycle, span_rank

        def refuse(*args):
            raise AssertionError("the boundaries were written")

        monkeypatch.setattr(swiatkowski, "_write_boundaries", refuse)
        for basis in ("all", None):
            cx = build_swiatkowski(build_family("k33"), 4,
                                   reduce_vertices=basis)
            assert homology(cx).betti_vector() == (1, 4, 19, 1, 0)
            z = product_cycle(cx, [
                CycleSpec(kind="Y", hub="a0", branches=("e00", "e01", "e02")),
                CycleSpec(kind="Y", hub="b0", branches=("e00", "e10", "e20"))])
            assert span_rank(cx, [z], 2) == 1
            assert callable(cx._cells) and cx._index == {}
            assert callable(cx._boundaries) and not cx._checked

    @pytest.mark.parametrize("read", ["check", "json"])
    def test_the_generic_readers_write_and_prove_the_runs(self, monkeypatch,
                                                          read):
        proved = []
        real = ChainComplex.check_boundary_squared
        monkeypatch.setattr(ChainComplex, "check_boundary_squared",
                            lambda cx: proved.append(cx) or real(cx))
        cx = build_swiatkowski(build_family("k33"), 4, reduce_vertices="all")
        assert callable(cx._boundaries)
        if read == "check":
            cx.check_boundary_squared()
        else:
            data = cx.to_json_dict()
            assert sorted(data["boundary"]) == ["1", "2", "3", "4"]
        assert proved == [cx] and cx._checked
        assert sorted(cx.boundaries) == [1, 2, 3, 4]
        written = cx.boundaries
        assert all(isinstance(b, tuple) for b in written.values())
        # written once and proved once
        cx.to_json_dict()
        assert proved == [cx] and cx.boundaries is written

    @pytest.mark.parametrize("fam,n", [("k33", 4), ("petersen:10", 3)])
    def test_the_json_round_trip_agrees_with_the_morse_path(self, fam, n):
        cx = build_swiatkowski(build_family(fam), n, reduce_vertices="all")
        loaded = ChainComplex.from_json_dict(cx.to_json_dict())
        assert loaded.morse_complex() is None and loaded.dims == cx.dims
        generic, morse = homology(loaded), homology(cx)
        assert generic.dims == morse.dims
        assert loaded._reduction is not None and cx._morse is not None

    def test_the_cycle_layer_decodes_each_part_once(self, monkeypatch):
        # cells are read through tables per state part (dimension, faces,
        # the factors' signs) and per edge part (the basis change into the
        # Morse complex): a key is decoded digit by digit once per part
        # met, not once per cell
        from confhom.cycles import span_rank
        from confhom.swiatkowski import SwEncoding
        from subdivided import k33_products, split_edges
        cx = build_swiatkowski(split_edges(build_family("k33")), 4,
                               reduce_vertices="all")
        assert homology(cx).betti(2) == 19
        decoded = []
        real = SwEncoding.digits
        monkeypatch.setattr(SwEncoding, "digits", lambda self, key:
                            decoded.append(key) or real(self, key))
        cycles = k33_products(cx)
        assert len(cycles) == 69 and span_rank(cx, cycles, 2) == 19
        # a state part is decoded as a key with no edge part, so the empty
        # state part, which the check of the basis change reaches through
        # the faces, is decoded as key 0
        span = cx.encoding.edge_span
        states = [key // span for key in decoded if key % span == 0]
        edges = [key for key in decoded if key % span]
        assert all(key < span for key in edges)
        assert len(set(states)) == len(states)
        assert len(set(edges)) == len(edges)
        cells = [key for z in cycles for key in z.data]
        assert set(edges) == {key % span for key in cells}
        assert {key // span for key in cells} <= set(states)
        assert len(decoded) < len(cells) / 5

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
