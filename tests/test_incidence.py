import pytest

from posetres import (FieldSpec, conic_iso_check, incidence_poset,
                      make_minimal_support_basis, minimalize, minimize,
                      poset_isomorphic, taylor_complex, verify_mfr_support)
from posetres.errors import DegenerateColumn, NotMinimalSupport
from posetres.gradedcomplex import GradedFreeComplex
from conftest import SQUAREFREE3, load_fixture_complex, random_corpus

Q = FieldSpec(0)
GF2 = FieldSpec(2)


def test_koszul_incidence_is_v():
    T = taylor_complex(minimalize([(1, 0), (0, 1)]), Q)
    P = incidence_poset(T)
    assert len(P) == 3
    assert len(P.maximal_elements()) == 1
    assert len(P.minimal_elements()) == 2


def test_degenerate_column_detected():
    C = GradedFreeComplex(1, Q, {0: [("a", (1,))], 1: [("b", (2,))]}, {1: {}})
    with pytest.raises(DegenerateColumn):
        incidence_poset(C)


def test_two_m_bases_give_13_element_nonisomorphic_posets():
    A = load_fixture_complex("two_res_a.json", 0)
    B = load_fixture_complex("two_res_b.json", 0)
    PA, PB = incidence_poset(A), incidence_poset(B)
    assert len(PA) == len(PB) == 13
    tops_a = sorted(len(PA.down_set(t).maximal_elements())
                    for t in PA.elements if PA.dim(t) == 2)
    tops_b = sorted(len(PB.down_set(t).maximal_elements())
                    for t in PB.elements if PB.dim(t) == 2)
    assert tops_a == [3, 3] and tops_b == [3, 4]
    assert not poset_isomorphic(PA, PB)
    assert poset_isomorphic(PA, PA)


def test_rp2_incidence_has_33_elements():
    C = load_fixture_complex("pp_res.json", 2)
    P = incidence_poset(C)
    assert len(P) == 33
    assert [sum(1 for e in P.elements if P.dim(e) == n)
            for n in range(4)] == [10, 15, 7, 1]
    assert {e for e in P.elements if P.dim(e) == 0} == \
        {b for b, _ in C.labels[0]}


def test_conic_iso_certificates_exist():
    T = taylor_complex(minimalize([(1, 0), (0, 1)]), Q)
    assert conic_iso_check(T).scalars
    C = load_fixture_complex("pp_res.json", 2)
    cert = conic_iso_check(C)
    assert len(cert.scalars) == 33
    assert all(v for v in cert.scalars.values())


def test_conic_iso_rejects_damaged_basis():
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    (b1, _), (b2, _) = M.labels[1]
    d = {n: {c: dict(col) for c, col in cols.items()}
         for n, cols in M.d.items()}
    col = d[1][b2]
    for r, v in M.column(b1).items():
        col[r] = Q.add(col.get(r, Q.zero), v)  # a zero is dropped by D
    D = GradedFreeComplex(M.num_vars, Q, M.labels, d)
    with pytest.raises(NotMinimalSupport):
        conic_iso_check(D)


def test_verify_mfr_support_end_to_end():
    I = minimalize(SQUAREFREE3)
    C, _ = make_minimal_support_basis(minimize(taylor_complex(I, Q)))
    assert verify_mfr_support(I, C, Q)

    from conftest import RP2_GENS, M_GENS
    rp2 = minimalize(RP2_GENS)
    assert verify_mfr_support(rp2, load_fixture_complex("pp_res.json", 2), GF2)
    m = minimalize(M_GENS)
    assert verify_mfr_support(m, load_fixture_complex("two_res_a.json", 0), Q)
    assert verify_mfr_support(m, load_fixture_complex("two_res_b.json", 0), Q)
    # wrong ideal: degree-0 labels disagree
    assert not verify_mfr_support(rp2, C, Q)


def test_incidence_poset_is_memoized_on_the_complex():
    C = load_fixture_complex("pp_res.json", 2)
    P = incidence_poset(C)
    assert incidence_poset(C) is P
    assert conic_iso_check(C).poset is P
    # a copy of C is another complex with its own, equal poset
    D = GradedFreeComplex.from_json(C.to_json(), GF2)
    assert incidence_poset(D) is not P
    assert incidence_poset(D).to_json() == P.to_json()


def test_incidence_memo_is_per_complex():
    posets = []
    for I in random_corpus(100):
        C = make_minimal_support_basis(minimize(taylor_complex(I, GF2)))[0]
        fresh = GradedFreeComplex.from_json(C.to_json(), GF2)
        P = incidence_poset(C)
        assert P.to_json() == incidence_poset(fresh).to_json()
        posets.append(P)
    assert len({id(P) for P in posets}) == len(posets)


def test_failed_incidence_poset_is_not_memoized():
    C = GradedFreeComplex(1, Q, {0: [("a", (1,))], 1: [("b", (2,))]}, {1: {}})
    for _ in range(2):
        with pytest.raises(DegenerateColumn):
            incidence_poset(C)
