from posetres import (BettiTable, FieldSpec, betti_poset, betti_table,
                      check_rigid_iff_hcw, incidence_poset, is_hcw, is_rigid,
                      make_minimal_support_basis, minimalize, minimize,
                      poset_isomorphic, taylor_complex)
from conftest import SQUAREFREE3, M_GENS, RP2_GENS
from helpers import maximal_elements

Q = FieldSpec(0)
GF2 = FieldSpec(2)


def betti_of(gens, F):
    return betti_table(minimize(taylor_complex(minimalize(gens), F)))


def test_koszul_is_rigid():
    T = betti_of([(1, 0), (0, 1)], Q)
    rigid, witness = is_rigid(T)
    assert rigid and witness is None


def test_squarefree3_violates_r1():
    T = betti_of(SQUAREFREE3, Q)
    rigid, witness = is_rigid(T)
    assert not rigid
    assert witness == (1, (1, 1, 1), None)
    assert T.entries[(1, (1, 1, 1))] == 2


def test_m_ideal_not_rigid():
    rigid, _ = is_rigid(betti_of(M_GENS, Q))
    assert not rigid


def test_betti_poset_shapes():
    BP = betti_poset(betti_of([(1, 0), (0, 1)], Q))
    assert len(BP) == 3 and len(maximal_elements(BP)) == 1
    BP3 = betti_poset(betti_of(SQUAREFREE3, Q))
    assert len(BP3) == 4
    assert sorted(maximal_elements(BP3)) == [(1, 1, 1)]
    assert not is_hcw(BP3, Q)  # rank-2 homology at the top filter


def test_r2_violation_detected():
    T = BettiTable({(0, (1, 0)): 1, (0, (2, 1)): 1})
    rigid, witness = is_rigid(T)
    assert not rigid and witness == (0, (1, 0), (2, 1))


def test_rigid_iff_hcw_examples():
    assert check_rigid_iff_hcw(minimalize([(1, 0), (0, 1)]), Q)
    assert check_rigid_iff_hcw(minimalize(SQUAREFREE3), Q)
    assert check_rigid_iff_hcw(minimalize(M_GENS), Q)
    assert check_rigid_iff_hcw(minimalize(RP2_GENS), GF2)
    assert check_rigid_iff_hcw(minimalize(RP2_GENS), Q)


def test_rigidity_is_field_sensitive():
    rigid2, _ = is_rigid(betti_of(RP2_GENS, GF2))
    rigid0, _ = is_rigid(betti_of(RP2_GENS, Q))
    assert (rigid2, rigid0) == (False, True)


def test_rigid_ideal_betti_poset_matches_incidence_poset():
    I = minimalize(RP2_GENS)
    M2, _ = make_minimal_support_basis(minimize(taylor_complex(I, Q)))
    T = betti_table(M2)
    rigid, _ = is_rigid(T)
    assert rigid
    BP = betti_poset(T)
    assert poset_isomorphic(BP, incidence_poset(M2))
