import posetres

# The public names.  Removing or renaming one is an API change that
# CHANGES.md records; this list is updated with it.
PUBLIC = [
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


def test_public_api_is_pinned():
    assert posetres.__all__ == PUBLIC
    assert all(hasattr(posetres, name) for name in PUBLIC)
