"""Exact integral homology of graph configuration spaces.

Two discrete models of the n-particle configuration space of a graph (the
disjoint-cell cube complex and the half-edge complex), integral homology
via unit-pivot reduction plus Smith normal form, distinguished cycles and
their relations, vertex blowups with connecting-map bookkeeping, and
closed-form Betti predictions for the benchmark families.
"""

from .abrams import abrams_boundary, build_abrams
from .blowup import BlowupContext, blowup, delta_rank_check, phi, psi
from .complexes import BoundaryError, Chain, ChainComplex, ResourceLimitExceeded
from .cycles import (CycleSpec, make_cycle, product_cycle, span_rank,
                     verify_chain_identity)
from .formulas import (FormulaPrediction, betti_K4, betti_K33, betti_net,
                       betti_tree_linear, betti_wheel, enumerate_groupings,
                       k2p_values, predict, star_beta1)
from .graph import (FamilySpec, Graph, GraphError, InsufficientSubdivision,
                    OrderedGraph, build_family, check_subdivided,
                    order_vertices, parse_family, subdivide_for)
from .homology import (HomologyResult, SnfResult, homology,
                       homology_generators, lift_cycle, morse_reduce,
                       smith_normal_form, solve_boundary)
from .swiatkowski import build_swiatkowski, support

__version__ = "0.1.0"

__all__ = [
    "BlowupContext", "BoundaryError", "Chain", "ChainComplex", "CycleSpec",
    "FamilySpec", "FormulaPrediction", "Graph", "GraphError",
    "HomologyResult", "InsufficientSubdivision", "OrderedGraph", "SnfResult",
    "ResourceLimitExceeded",
    "abrams_boundary", "betti_K33", "betti_K4", "betti_net",
    "betti_tree_linear", "betti_wheel", "blowup", "build_abrams",
    "build_family", "build_swiatkowski",
    "check_subdivided", "delta_rank_check", "enumerate_groupings",
    "homology", "homology_generators", "k2p_values", "lift_cycle",
    "make_cycle", "morse_reduce", "order_vertices", "parse_family", "phi",
    "predict", "product_cycle", "psi", "smith_normal_form", "solve_boundary",
    "span_rank", "star_beta1", "subdivide_for", "support",
    "verify_chain_identity",
]
