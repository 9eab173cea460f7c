"""Acceptance gate: every numbered criterion checked at exact integer
equality, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Heavy rows marked `slow` still run by default; `extended` rows
(opt-in, not desk-scale) are excluded unless selected explicitly.
"""

import random

import pytest

from confhom import (betti_K4, betti_K33, betti_wheel, build_family,
                     build_swiatkowski, enumerate_groupings, homology,
                     k2p_values, smith_normal_form)
from confhom import tables
from confhom.verify import (Row, _engine, suite_cross_model,
                            suite_formula_engine, suite_generation,
                            suite_paper_tables_core,
                            suite_paper_tables_extended, suite_relations)

from test_homology import snf_oracle


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" — {detail}" if detail else "")
    print(line)
    assert ok, line


def _rows_ok(rows):
    bad = [r for r in rows if not r.ok]
    return not bad, "; ".join(f"{r.label}: {r.got}!={r.expected}" for r in bad[:4])


@pytest.fixture(scope="module")
def core_rows():
    return suite_paper_tables_core()


@pytest.mark.slow
def test_criterion_01_k4_table(core_rows):
    rows = [r for r in core_rows if r.label.startswith("k4 ")]
    assert len(rows) == 7
    ok, detail = _rows_ok(rows)
    report("criterion 1: K4 Betti table n=3..9, torsion-free", ok, detail)


@pytest.mark.slow
def test_criterion_02_k4_formula_matches_engine():
    ok = True
    bad = []
    for n in range(3, 10):
        h, _ = _engine("k4", n)
        for d in (2, 3, 4, 5):
            if h.betti(d) != betti_K4(n, d):
                ok = False
                bad.append((n, d, h.betti(d), betti_K4(n, d)))
        if h.betti(5) != 0:
            ok = False
    report("criterion 2: K4 closed forms = engine, H_5 = 0", ok, str(bad[:4]))


@pytest.mark.slow
def test_criterion_03_k33_table(core_rows):
    rows = [r for r in core_rows if r.label.startswith("k33 ")]
    assert len(rows) == 7
    ok, detail = _rows_ok(rows)
    for n in range(2, 9):
        h, _ = _engine("k33", n)
        if h.betti(2) != betti_K33(n, 2) or h.betti(3) != betti_K33(n, 3):
            ok = False
            detail += f" formula mismatch at n={n}"
    report("criterion 3: K33 Betti table n=2..8 and closed forms", ok, detail)


@pytest.mark.slow
def test_criterion_04_wheel_table(core_rows):
    rows = [r for r in core_rows if r.label.startswith("wheel:")]
    assert len(rows) == len(tables.WHEEL_BETTI)
    ok, detail = _rows_ok(rows)
    for (m, n), ds in tables.WHEEL_BETTI.items():
        for d, val in ds.items():
            if betti_wheel(m, n, d) != val:
                ok = False
                detail += f" formula W{m} n={n} d={d}"
    report("criterion 4: wheel tables (W5 n<=8, W6/W7 n<=7), engine and "
           "closed forms, torsion-free", ok, detail)


def test_criterion_05_grouping_table():
    got = {}
    for m in (5, 6, 7):
        for k in range(1, m):
            for g in enumerate_groupings(m, k):
                got[(m, g.composition)] = (g.count, g.mu)
    ok = got == tables.WHEEL_GROUPINGS
    report("criterion 5: rim grouping table (compositions, counts, leaves) "
           "for orders 5..7", ok)


@pytest.mark.slow
def test_criterion_06_petersen_torsion(core_rows):
    rows = [r for r in core_rows if r.label.startswith("petersen:")]
    assert len(rows) == 2
    ok, detail = _rows_ok(rows)
    # torsion of H_d agrees with degree-(d+1) cohomology from the transposed
    # boundary: elementary divisors are transpose-invariant, checked live
    g = build_family("petersen:10")
    cx = build_swiatkowski(g, 4, reduce_vertices="all")
    from confhom.homology import morse_reduce
    rcx, _, _ = morse_reduce(cx)
    rows_, cols_, vals_ = rcx.boundary_triplets(3)
    fwd = smith_normal_form((rows_, cols_, vals_),
                            shape=(rcx.dims[2], rcx.dims[3]))
    rev = smith_normal_form((cols_, rows_, vals_),
                            shape=(rcx.dims[3], rcx.dims[2]))
    ok = ok and fwd.divisors == rev.divisors and fwd.torsion == (2,)
    report("criterion 6: Petersen-family torsion rows (P10, P9 at n=4) and "
           "cohomology cross-check", ok, detail)


@pytest.mark.parametrize("basis", ["all", None],
                         ids=["all-reduced", "canonical"])
def test_criterion_06_k44e_n4_engine(basis):
    # the evidence behind the k44e xfail below: two bases of the half-edge
    # complex give the same groups
    cx = build_swiatkowski(build_family("k44e"), 4, reduce_vertices=basis)
    h = homology(cx)
    assert h.betti_vector() == (1, 8, 108, 46, 0)
    assert {d: h.torsion(d) for d in h.dims if h.torsion(d)} == {
        1: (2,), 2: (2,)}


@pytest.mark.xfail(strict=True, reason="the table's K_{4,4}-e row at n=4 "
                   "(beta_2 = 144, H_2 torsion (Z/2)^2) disagrees with every "
                   "independent route: the half-edge complex in the "
                   "canonical, essential-reduced and all-reduced bases, "
                   "shuffled vertex and edge orders, K_{4,4}-e built with "
                   "networkx, and the cube complex of the subdivided graph "
                   "all give beta = (1, 8, 108, 46) with torsion Z/2 in H_1 "
                   "and in H_2")
def test_criterion_06_k44e_n4_as_stated():
    b2, tor = tables.PETERSEN_N4_EXTENDED["k44e"]
    h, _ = _engine("k44e", 4)
    assert (h.betti(2), h.torsion(2)) == (b2, tor)


@pytest.mark.extended
def test_extended_tables():
    # every extended row holds except the two K_{4,4}-e rows (n=4 above;
    # at n=6 the engine gives beta_3 = 930 with (Z/2)^13, the table 1460
    # with (Z/2)^73)
    rows = suite_paper_tables_extended()
    assert {r.label for r in rows if not r.ok} == {"k44e n=4", "k44e n=6"}


def test_criterion_07_k2p(core_rows):
    rows = [r for r in core_rows if r.label.startswith("theta:")]
    assert len(rows) == 12
    ok, detail = _rows_ok(rows)
    h, _ = _engine("theta:4", 3)
    ok = ok and h.betti_vector() == (1, 6, 1)
    resolved = all(_engine(f"theta:{p}", n)[0].betti(1) == p * (p - 1) // 2
                   for p in (3, 4, 5) for n in (3, 4))
    ok = ok and resolved
    report("criterion 7: two-junction families: Euler characteristic, "
           "second Betti, genus-3 surface at (4,3); first Betti resolved "
           "to p(p-1)/2", ok, detail)


def test_criterion_08_tree_and_net_lemmas():
    from confhom import betti_net, betti_tree_linear
    ok = True
    detail = ""
    for m in (2, 3, 4):
        for n in range(1, 7):
            ht, _ = _engine(f"linear_tree:{m}", n)
            hn, _ = _engine(f"net:{m}", n)
            for d in range(0, max(ht.dims) + 1):
                if ht.betti(d) != betti_tree_linear(m, n, d):
                    ok = False
                    detail += f" tree m={m} n={n} d={d}"
            for d in range(0, max(hn.dims) + 1):
                expected = betti_net(m, n, d)
                if d == 1:
                    expected += 1  # circulation class, see the d=1 xfail test
                if hn.betti(d) != expected:
                    ok = False
                    detail += f" net m={m} n={n} d={d}"
            if any(ht.torsion(d) for d in ht.dims) or any(
                    hn.torsion(d) for d in hn.dims):
                ok = False
    report("criterion 8: caterpillar formula all dimensions; sun formula "
           "exact for d>=2, engine = stated+1 at d=1 (recorded)", ok, detail)


@pytest.mark.xfail(strict=True, reason="the stated sun-graph count at d=1 "
                   "omits the class where particles circulate the ring; the "
                   "engine, Euler characteristics and the blowup sequence all "
                   "give the stated value plus one")
def test_criterion_08_net_first_betti_as_stated():
    from confhom import betti_net
    h, _ = _engine("net:4", 3)
    assert h.betti(1) == betti_net(4, 3, 1)


def test_criterion_09_relation_suite():
    rows = suite_relations()
    ok, detail = _rows_ok(rows)
    levels = {r.label: r.got for r in rows}
    ok = ok and "chain" in str(levels.get("y-ab")) and "chain" in str(
        levels.get("theta5"))
    report("criterion 9: relation suite (exact 2-chain, zero alternating "
           "sum, membership, distribution and product relations)", ok, detail)


@pytest.mark.slow
def test_criterion_10_generation():
    rows = suite_generation()
    ok, detail = _rows_ok(rows)
    report("criterion 10: product classes span the second homology on core "
           "wheel rows and K33; third-homology span 9 of 10", ok, detail)


@pytest.mark.slow
def test_criterion_11_property_suites():
    ok = True
    detail = ""
    # boundary squares to zero and reduction invariance on the small corpus
    from confhom import build_abrams, order_vertices, subdivide_for
    corpus = [("star:3", 2), ("theta:3", 3), ("theta:4", 3), ("k4", 3),
              ("lasso", 2), ("net:2", 3)]
    for fam, n in corpus:
        g = build_family(fam)
        cx = build_swiatkowski(g, n)
        cx.check_boundary_squared()
        h1 = homology(cx, reduce=True)
        h2 = homology(cx, reduce=False)
        for d in set(h1.dims) | set(h2.dims):
            if (h1.betti(d), h1.torsion(d)) != (h2.betti(d), h2.torsion(d)):
                ok = False
                detail += f" reduction mismatch {fam} n={n} d={d}"
    rows = suite_cross_model()
    ok2, d2 = _rows_ok(rows)
    ok = ok and ok2
    detail += d2
    # SNF oracle: randomized small matrices, both paths exact
    rng = random.Random(20260809)
    for case in range(1000):
        if case < 700:
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
        else:
            m = rng.randint(6, 8)
            n = rng.randint(6, 8)
        mat = [[rng.randint(-9, 9) if rng.random() < 0.5 else 0
                for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(mat)
        if list(res.divisors) != snf_oracle(mat):
            ok = False
            detail += f" SNF mismatch case {case}"
            break
        for a, b in zip(res.divisors, res.divisors[1:]):
            if b % a:
                ok = False
                detail += f" chain broken case {case}"
    report("criterion 11: boundary squares to zero, Euler identity, "
           "reduction invariance, cross-model agreement, SNF oracle "
           "(1000 randomized cases)", ok, detail)


@pytest.mark.slow
def test_criterion_12_structural_facts(core_rows):
    ok = True
    torsion_values = set()
    for r in core_rows:
        if "nonzero above dimension" in r.note:
            ok = False
    for fam, n in [("k4", 6), ("k33", 5), ("wheel:5", 5), ("petersen:10", 4)]:
        h, g = _engine(fam, n)
        cap = min(n, len(g.essential_vertices()))
        for d in h.dims:
            if d > cap and (h.betti(d) or h.torsion(d)):
                ok = False
            torsion_values.update(h.torsion(d))
    report("criterion 12: homology vanishes above min(n, junction count); "
           f"observed torsion values {sorted(torsion_values) or 'none'} "
           "(all equal to 2)", ok and torsion_values <= {2})
