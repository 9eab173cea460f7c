"""Closed-form Betti-number predictions for the benchmark graph families.

Wheel-graph counts are assembled from groupings of adjacent junction runs on
the rim and from one-junction cycle counts on star graphs; the star term is
computed by the engine on the fly (star complexes are tiny) and memoized.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import comb


@dataclass(frozen=True)
class FormulaPrediction:
    family: str
    n: int
    d: int
    value: object  # int, or None when out of the formula's validity range
    provenance: str = ""

    @property
    def in_range(self):
        return self.value is not None


def _binom(a, b):
    """Binomial with the wheel-count edge conventions: C(0,0)=1, C(0,-1)=0,
    C(-1,-1)=1; any other negative case counts as zero (and is flagged)."""
    if b < 0:
        return 1 if (a, b) == (-1, -1) else 0
    if a < 0:
        warnings.warn(f"binomial C({a},{b}) outside stated conventions; using 0",
                      stacklevel=2)
        return 0
    return comb(a, b)


# -- trees, nets ------------------------------------------------------------

def betti_tree_linear(m, n, d):
    """Betti numbers of the n-particle space of the m-junction caterpillar."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return comb(m, d) * comb(n, 2 * d)


def betti_net(m, n, d):
    """Betti numbers of the n-particle space of the m-junction sun graph;
    stated for d >= 1 (dimension 0 is the single connected component)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if d == 0:
        return 1
    return comb(m, d) * comb(n - 1, 2 * d - 1) if n >= 1 else 0


# -- K4 ----------------------------------------------------------------------

def betti_K4(n, d):
    """Piecewise closed forms for the complete graph on four vertices;
    d = 1 has no closed form here and returns None."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d == 0:
        return 1
    if d == 1:
        return None
    if d == 2:
        return 6 * n - 15 if n >= 3 else 0
    if d == 3:
        return 4 * comb(n - 3, 3)
    if d == 4:
        return comb(n - 3, 5)
    return 0


# -- K_{3,3} ------------------------------------------------------------------

def betti_K33(n, d):
    if n < 1:
        raise ValueError("n must be >= 1")
    if d == 0:
        return 1
    if d == 1:
        return None
    if d == 2:
        if n <= 2:
            return 0
        if n == 3:
            return 8
        return 9 * n - 17
    if d == 3:
        if n <= 3:
            return 0
        return 1 + 9 * (n - 4) + comb(6, 3) * comb(n - 4, 2)
    if d == 4:
        return comb(6, 4) * comb(n - 4, 4)
    if d == 5:
        return comb(6, 5) * comb(n - 4, 6)
    if d == 6:
        return comb(n - 4, 8)
    return 0


# -- wheels -------------------------------------------------------------------

@dataclass(frozen=True)
class Grouping:
    """A multiset of run lengths of adjacent rim junctions, with its number
    of placements N around the rim and the leaf count mu of the fan left at
    the hub after removing the junctions."""
    composition: tuple
    count: int
    mu: int


def enumerate_groupings(m, k):
    """All ways to pick k rim junctions of a wheel of order m, grouped by
    the multiset of maximal run lengths around the (m-1)-cycle.

    Counts placements by explicit enumeration of rim subsets decomposed
    into circular runs; a subset covering the whole rim counts as the
    single run (m-1).
    """
    r = m - 1
    if not 1 <= k <= r:
        raise ValueError(f"need 1 <= k <= {r}")
    counts = {}
    for mask in range(1 << r):
        if bin(mask).count("1") != k:
            continue
        if mask == (1 << r) - 1:
            runs = (r,)
        else:
            # rotate so position 0 is unoccupied, then split linear runs
            shift = next(i for i in range(r) if not mask >> i & 1)
            rot = ((mask >> shift) | (mask << (r - shift))) & ((1 << r) - 1)
            runs = []
            run = 0
            for i in range(r):
                if rot >> i & 1:
                    run += 1
                elif run:
                    runs.append(run)
                    run = 0
            if run:
                runs.append(run)
            runs = tuple(sorted(runs, reverse=True))
        counts[runs] = counts.get(runs, 0) + 1
    out = []
    for comp in sorted(counts, key=lambda c: (len(c), c)):
        mu = min(r, len(comp) + sum(comp))
        out.append(Grouping(comp, counts[comp], mu))
    return out


@lru_cache(maxsize=None)
def star_beta1(mu, n):
    """First Betti number of the n-particle space of the mu-edge star,
    computed by the engine and memoized."""
    if mu < 1 or n < 0:
        raise ValueError("need mu >= 1 and n >= 0")
    if n <= 1 or mu <= 2:
        return 0
    from .graph import build_family
    from .homology import homology
    from .swiatkowski import build_swiatkowski
    cx = build_swiatkowski(build_family(f"star:{mu}"), n)
    return homology(cx, dims=1).betti(1)


def fan_y_count(n, mu, spokes):
    """Independent one-junction cycles for n particles on a fan with mu
    leaves and the given spoke count."""
    return star_beta1(mu, n) + (_binom(n + mu - 2, n - 1) - 1) * (spokes - mu)


def _wheel_general(m, n, d):
    """Sum over rim-junction groupings: cycle products with one rim circle,
    all-rim products, and hub-junction products against the leftover fan."""
    r = m - 1
    total = 0
    if 1 <= d - 1 <= r:
        for grp in enumerate_groupings(m, d - 1):
            l = len(grp.composition)
            total += (grp.count * (r - grp.mu)
                      * _binom(n - d - l, d - l - 1))
            inner = 0
            for k in range(0, n - 2 * d + 1):
                inner += (fan_y_count(k + 2, grp.mu, r)
                          * _binom(n - d - l - k - 2, d - l - 2))
            total += grp.count * inner
    if 1 <= d <= r:
        for grp in enumerate_groupings(m, d):
            l = len(grp.composition)
            if n - d - l < 0:
                continue  # no placement of n-d-l free particles: adds 0
            total += grp.count * _binom(n - d - l, d - l)
    return total


def betti_wheel(m, n, d):
    """Closed-form Betti numbers for wheel graphs of order m >= 4.

    Order 4 is the complete graph on four vertices and uses its own piecewise
    forms; d = 1 has no closed form here and returns None.
    """
    if m < 4:
        raise ValueError("wheel order must be >= 4")
    if n < 1:
        raise ValueError("n must be >= 1")
    if m == 4:
        return betti_K4(n, d)
    if d == 0:
        return 1
    if d == 1:
        return None
    if n < 2 * d - 1:
        return 0
    if d == 2:
        if n == 2:
            return 0
        if n == 3:
            return (m - 1) * (m - 3)
        return ((n - 2) * (m - 1) * (m - 3) + (m - 1) * (n - 4)
                + comb(m - 1, 2))
    return _wheel_general(m, n, d)


# -- K_{2,p} ------------------------------------------------------------------

def k2p_values(p, n):
    """Euler characteristic, both first-Betti candidates, and the second
    Betti number of the n-particle space of the p-edge theta graph."""
    if p < 3 or n < 3:
        raise ValueError("need p >= 3 and n >= 3")
    euler = ((p - 1) ** 2 * comb(n - 3 + p, p - 1)
             - 2 * (p - 1) * comb(n - 2 + p, p - 1)
             + comb(n - 1 + p, p - 1))
    beta1_lemma = p * (p - 1)
    beta1_chi = p * (p - 1) // 2
    beta2 = euler + beta1_chi - 1
    return {
        "euler": euler,
        "beta1_lemma": beta1_lemma,
        "beta1_chi_consistent": beta1_chi,
        "beta2": beta2,
        "beta2_n3": comb(p - 1, 3),
    }


# -- dispatch ----------------------------------------------------------------

def predict(family, n, d) -> FormulaPrediction:
    """Closed-form prediction for a family DSL string, e.g. "wheel:7"."""
    from .graph import parse_family
    spec = parse_family(family)
    fam, p = spec.family, spec.params
    if fam == "wheel":
        v = betti_wheel(p[0], n, d)
        return FormulaPrediction(str(spec), n, d, v, "wheel grouping sum")
    if fam == "complete" and p == (4,):
        return FormulaPrediction(str(spec), n, d, betti_K4(n, d),
                                 "K4 piecewise")
    if fam == "complete_bipartite" and p == (3, 3):
        return FormulaPrediction(str(spec), n, d, betti_K33(n, d),
                                 "K33 piecewise")
    if fam == "linear_tree":
        return FormulaPrediction(str(spec), n, d,
                                 betti_tree_linear(p[0], n, d),
                                 "caterpillar product count")
    if fam == "net":
        return FormulaPrediction(str(spec), n, d, betti_net(p[0], n, d),
                                 "sun-graph product count")
    if fam == "star":
        if d == 0:
            return FormulaPrediction(str(spec), n, d, 1, "connected")
        v = star_beta1(p[0], n) if d == 1 else 0
        return FormulaPrediction(str(spec), n, d, v, "engine-memoized star")
    if fam == "theta":
        vals = k2p_values(p[0], n) if n >= 3 else None
        if vals is None:
            return FormulaPrediction(str(spec), n, d, None, "out of range")
        v = {0: 1, 1: vals["beta1_chi_consistent"], 2: vals["beta2"]}.get(d, 0)
        return FormulaPrediction(str(spec), n, d, v,
                                 "theta Euler-consistent forms")
    raise ValueError(f"no closed form for family {family!r}")
