"""Exact-arithmetic toolkit for minimal free resolutions of monomial ideals
and the posets that support them: Taylor complexes, minimization, bases with
minimal boundary support, incidence posets, conic chain complexes, cavity
filling to homology-CW posets, and rigidity checks.
"""

from .exactla import FieldSpec, SparseMatrix, kernel_basis, rank, solve
from .monomials import MonomialIdeal, divides, join_closure, lcm, lcm_lattice, minimalize
from .posets import Poset, OrientedComplex, is_hcw, reduced_homology
from .gradedcomplex import (BettiTable, ChainComplex, GradedFreeComplex,
                            bar_reduce, betti_table, is_resolution, minimize,
                            strand, taylor_complex)
from .minsupport import (BasisChangeLog, boundary_support,
                         is_minimal_support_cycle, make_minimal_support_basis,
                         noncomparable_supports)
from .conic import (ConicComplex, conic_complex, conic_vs_simplicial,
                    homogenize, supports_resolution)
from .incidence import (ConicIsoCertificate, conic_iso_check, incidence_poset,
                        poset_isomorphic, verify_mfr_support)
from .hcw import HcwReport, antichain_form, fill_cavity, hcw_support, hcwify
from .rigidity import betti_poset, check_rigid_iff_hcw, is_rigid

__all__ = [
    "FieldSpec", "SparseMatrix", "kernel_basis", "rank", "solve",
    "MonomialIdeal", "divides", "join_closure", "lcm", "lcm_lattice",
    "minimalize",
    "Poset", "OrientedComplex", "is_hcw", "reduced_homology",
    "ChainComplex", "BettiTable", "GradedFreeComplex", "bar_reduce",
    "betti_table", "is_resolution", "minimize", "strand", "taylor_complex",
    "BasisChangeLog", "boundary_support", "is_minimal_support_cycle",
    "make_minimal_support_basis", "noncomparable_supports",
    "ConicComplex", "conic_complex", "conic_vs_simplicial", "homogenize",
    "supports_resolution",
    "ConicIsoCertificate", "conic_iso_check", "incidence_poset",
    "poset_isomorphic", "verify_mfr_support",
    "HcwReport", "antichain_form", "fill_cavity", "hcw_support", "hcwify",
    "betti_poset", "check_rigid_iff_hcw", "is_rigid",
]

__version__ = "0.1.0"
