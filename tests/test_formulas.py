"""Closed forms: reference values, internal consistency between the closed
second-Betti form and the grouping sum, the special low-order cases, and
the engine-backed star term."""

import pytest

from confhom.formulas import (FormulaPrediction, _binom, betti_K4, betti_K33,
                              betti_net, betti_tree_linear, betti_wheel,
                              enumerate_groupings, fan_y_count, k2p_values,
                              predict, star_beta1, _wheel_general)
from confhom.tables import WHEEL_BETTI, WHEEL_GROUPINGS


class TestTreesAndNets:
    def test_tree_reference(self):
        assert betti_tree_linear(3, 4, 2) == 3
        assert betti_tree_linear(5, 4, 0) == 1

    def test_net_reference(self):
        assert betti_net(4, 4, 2) == 6
        assert betti_net(4, 6, 2) == 60
        assert betti_net(3, 4, 3) == 0  # empty binomial

    def test_ranges(self):
        with pytest.raises(ValueError):
            betti_tree_linear(0, 2, 1)
        with pytest.raises(ValueError):
            betti_net(1, 2, 1)


class TestK4:
    @pytest.mark.parametrize("n,d,value", [
        (5, 2, 15), (9, 3, 80), (8, 4, 1), (9, 4, 6), (3, 2, 3), (2, 2, 0),
        (4, 5, 0), (12, 5, 0),
    ])
    def test_values(self, n, d, value):
        assert betti_K4(n, d) == value

    def test_identity(self):
        for n in range(3, 30):
            assert 3 + 6 * (n - 3) == 6 * n - 15

    def test_d1_has_no_closed_form(self):
        assert betti_K4(5, 1) is None


class TestK33:
    @pytest.mark.parametrize("n,d,value", [
        (6, 3, 39), (8, 4, 15), (4, 2, 19), (3, 2, 8), (2, 2, 0),
        (4, 3, 1), (5, 3, 10), (8, 3, 157), (12, 6, 1), (14, 6, 45),
    ])
    def test_values(self, n, d, value):
        assert betti_K33(n, d) == value


class TestGroupings:
    def test_reproduces_reference_table(self):
        got = {}
        for m in (5, 6, 7):
            for k in range(1, m):
                for g in enumerate_groupings(m, k):
                    got[(m, g.composition)] = (g.count, g.mu)
        assert got == WHEEL_GROUPINGS

    @pytest.mark.parametrize("m,k,expected", [
        (7, 2, {(1, 1): (9, 4), (2,): (6, 3)}),
        (5, 4, {(4,): (1, 4)}),
        (6, 3, {(2, 1): (5, 5), (3,): (5, 4)}),
    ])
    def test_reference_rows(self, m, k, expected):
        got = {g.composition: (g.count, g.mu) for g in enumerate_groupings(m, k)}
        assert got == expected

    def test_range_check(self):
        with pytest.raises(ValueError):
            enumerate_groupings(5, 0)
        with pytest.raises(ValueError):
            enumerate_groupings(5, 5)


class TestWheel:
    @pytest.mark.parametrize("m,n,d,value", [
        (5, 6, 2, 46), (6, 5, 3, 15), (7, 7, 4, 24), (5, 3, 2, 8),
        (7, 7, 3, 527), (5, 8, 4, 13),
    ])
    def test_reference_values(self, m, n, d, value):
        assert betti_wheel(m, n, d) == value

    def test_full_reference_table(self):
        for (m, n), ds in WHEEL_BETTI.items():
            for d, val in ds.items():
                assert betti_wheel(m, n, d) == val, (m, n, d)

    def test_closed_beta2_equals_grouping_sum(self):
        for m in range(5, 9):
            for n in range(3, 11):
                assert betti_wheel(m, n, 2) == _wheel_general(m, n, 2), (m, n)

    def test_w5_beta3_special_form(self):
        # independent evaluation of the order-5 third-Betti expression
        from math import comb
        for n in range(5, 10):
            special = (4 * (n - 4) + 4 * comb(n - 4, 2)
                       + 2 * star_beta1(4, n - 4)
                       + 4 * sum(star_beta1(3, k + 2) + comb(k + 3, 2) - 1
                                 for k in range(0, n - 5)))
            assert betti_wheel(5, n, 3) == special, n

    def test_low_particle_vanishing(self):
        for m in (5, 6, 7):
            for d in (2, 3, 4):
                assert betti_wheel(m, 2 * d - 2, d) == 0

    def test_order_four_delegates(self):
        for n in range(3, 10):
            for d in (2, 3, 4, 5):
                assert betti_wheel(4, n, d) == betti_K4(n, d)

    def test_order_below_four_rejected(self):
        with pytest.raises(ValueError):
            betti_wheel(3, 4, 2)


class TestFan:
    def test_two_leaf_fans_have_no_junction_cycles(self):
        assert star_beta1(2, 5) == 0

    def test_fan_count_reference(self):
        # a fan with 3 leaves and 4 spokes for 2 particles: one junction
        # class on the star plus (C(3,1) - 1) per extra spoke
        assert fan_y_count(2, 3, 4) == 1 + 2


class TestStarTerm:
    @pytest.mark.parametrize("mu,n,value", [
        (3, 2, 1), (4, 1, 0), (5, 1, 0), (3, 3, 3), (4, 2, 3), (4, 3, 11),
    ])
    def test_values(self, mu, n, value):
        assert star_beta1(mu, n) == value

    def test_memoized(self):
        assert star_beta1(4, 3) is star_beta1(4, 3) or star_beta1(4, 3) == 11


class TestK2p:
    def test_reference(self):
        v = k2p_values(4, 3)
        assert v["beta2"] == 1 and v["beta2_n3"] == 1 and v["euler"] == -4
        assert k2p_values(3, 3)["euler"] == -2
        assert k2p_values(5, 3)["beta2_n3"] == 4

    def test_both_first_betti_candidates_reported(self):
        v = k2p_values(5, 4)
        assert v["beta1_lemma"] == 20
        assert v["beta1_chi_consistent"] == 10

    def test_range(self):
        with pytest.raises(ValueError):
            k2p_values(2, 3)


class TestBinomialConventions:
    def test_stated_edge_cases(self):
        assert _binom(0, 0) == 1
        assert _binom(0, -1) == 0
        assert _binom(-1, -1) == 1

    def test_other_negative_flagged(self):
        with pytest.warns(UserWarning):
            assert _binom(-1, 0) == 0


class TestPredict:
    def test_dispatch(self):
        assert predict("wheel:7", 7, 3).value == 527
        assert predict("k4", 3, 2).value == 3
        assert predict("net:4", 6, 2).value == 60
        assert predict("linear_tree:3", 4, 2).value == 3

    def test_out_of_range(self):
        p = predict("k4", 5, 1)
        assert isinstance(p, FormulaPrediction)
        assert not p.in_range

    def test_wheel_table_raises_no_warning(self):
        # groupings that leave a negative number of free particles add 0
        # without reaching the flagged C(-1, 0)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = {(m, n): {d: predict(f"wheel:{m}", n, d).value for d in ds}
                   for (m, n), ds in WHEEL_BETTI.items()}
        assert got == WHEEL_BETTI
        assert got[(7, 5)][3] == 36
