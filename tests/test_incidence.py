import random

import networkx as nx
import pytest

from posetres import (FieldSpec, Poset, conic_iso_check, hcwify,
                      incidence_poset, make_minimal_support_basis,
                      minimalize, minimize, poset_isomorphic, taylor_complex,
                      verify_mfr_support)
from posetres.errors import DegenerateColumn, NotMinimal, NotMinimalSupport
from posetres.gradedcomplex import GradedFreeComplex
from conftest import SQUAREFREE3, load_fixture_complex, random_corpus
from helpers import down_set, maximal_elements, minimal_elements
from test_hcw_memo import K6_EDGES, _incidence

Q = FieldSpec(0)
GF2 = FieldSpec(2)


def test_koszul_incidence_is_v():
    T = taylor_complex(minimalize([(1, 0), (0, 1)]), Q)
    P = incidence_poset(T)
    assert len(P) == 3
    assert len(maximal_elements(P)) == 1
    assert len(minimal_elements(P)) == 2


def test_degenerate_column_detected():
    C = GradedFreeComplex(1, Q, {0: [("a", (1,))], 1: [("b", (2,))]}, {1: {}})
    with pytest.raises(DegenerateColumn):
        incidence_poset(C)


def test_two_m_bases_give_13_element_nonisomorphic_posets():
    A = load_fixture_complex("two_res_a.json", 0)
    B = load_fixture_complex("two_res_b.json", 0)
    PA, PB = incidence_poset(A), incidence_poset(B)
    assert len(PA) == len(PB) == 13
    tops_a = sorted(len(maximal_elements(down_set(PA, t)))
                    for t in PA.elements if PA.dim(t) == 2)
    tops_b = sorted(len(maximal_elements(down_set(PB, t)))
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


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_verify_mfr_support_rejects_a_complex_with_a_unit_entry(p):
    """The Taylor complex of three squarefree quadrics has unit entries,
    and so has the conic complex of its incidence poset, whose entries lie
    on C's covers: verify_mfr_support raises betti_table's NotMinimal."""
    F, I = FieldSpec(p), minimalize(SQUAREFREE3)
    T = taylor_complex(I, F)
    assert not T.is_minimal()
    with pytest.raises(NotMinimal, match="^complex has a unit entry; "
                                         "Betti labels unreliable$"):
        verify_mfr_support(I, T, F)


def test_incidence_poset_is_memoized_on_the_complex():
    C = load_fixture_complex("pp_res.json", 2)
    P = incidence_poset(C)
    assert incidence_poset(C) is P
    assert conic_iso_check(C).poset is P
    # a copy of C is another complex with its own, equal poset
    D = GradedFreeComplex.from_json(C.to_json())
    assert incidence_poset(D) is not P
    assert incidence_poset(D).to_json() == P.to_json()


def test_incidence_memo_is_per_complex():
    posets = []
    for I in random_corpus(100):
        C = make_minimal_support_basis(minimize(taylor_complex(I, GF2)))[0]
        fresh = GradedFreeComplex.from_json(C.to_json())
        P = incidence_poset(C)
        assert P.to_json() == incidence_poset(fresh).to_json()
        posets.append(P)
    assert len({id(P) for P in posets}) == len(posets)


def test_failed_incidence_poset_is_not_memoized():
    C = GradedFreeComplex(1, Q, {0: [("a", (1,))], 1: [("b", (2,))]}, {1: {}})
    for _ in range(2):
        with pytest.raises(DegenerateColumn):
            incidence_poset(C)


def _cover_digraph(P):
    G = nx.DiGraph()
    G.add_nodes_from(P.elements)
    G.add_edges_from(P.covers)
    return G


def _sorted_covers(P):
    return sorted(P.covers, key=lambda c: (P.index[c[0]], P.index[c[1]]))


def _relabelled(P, rng):
    """P on new ids, its elements and relations listed in a shuffled order."""
    ids = list(range(len(P)))
    rng.shuffle(ids)
    new = {e: ("x", i) for e, i in zip(P.elements, ids)}
    elements = [new[e] for e in P.elements]
    relations = [(new[lo], new[hi]) for lo, hi in _sorted_covers(P)]
    rng.shuffle(elements)
    rng.shuffle(relations)
    return Poset(elements, relations)


def _moved_cover(P, rng):
    """P with the lower end of one cover moved to another element of the
    same dimension, or None if no cover's lower end can move."""
    covers = _sorted_covers(P)
    rng.shuffle(covers)
    for lo, hi in covers:
        others = [x for x in P.elements if x != lo and P.dim(x) == P.dim(lo)]
        if others:
            moved = (rng.choice(others), hi)
            return Poset(P.elements, [c if c != (lo, hi) else moved
                                      for c in covers])
    return None


def _assert_agrees_with_networkx(pairs):
    for P, R in pairs:
        assert poset_isomorphic(P, R) == nx.is_isomorphic(
            _cover_digraph(P), _cover_digraph(R)), (P.to_json(), R.to_json())


def _pairs_with_copies(posets, rng):
    """Each poset against a relabelled copy and against a relabelled copy
    with one cover moved."""
    for P in posets:
        yield P, _relabelled(P, rng)
        X = _moved_cover(P, rng)
        if X is not None:
            yield P, _relabelled(X, rng)


@pytest.mark.parametrize("p", [0, 2, 3])
def test_poset_isomorphic_agrees_with_networkx_on_the_corpus(p):
    """The corpus incidence posets and their hcwify outputs, each against
    its copies, and each against the next."""
    F, rng = FieldSpec(p), random.Random(p)
    posets = []
    for I in random_corpus(100):
        P = _incidence(I, F)
        posets += [P, hcwify(P, F)[0]]
    pairs = list(_pairs_with_copies(posets, rng))
    assert sum(not poset_isomorphic(P, R) for P, R in pairs) > 50
    _assert_agrees_with_networkx(pairs + list(zip(posets, posets[1:])))


def test_poset_isomorphic_agrees_with_networkx_on_k6_13():
    P = _incidence(minimalize(K6_EDGES[:13]), GF2)
    assert len(P) == 97
    rng = random.Random(13)
    pairs = [pair for _ in range(3) for pair in _pairs_with_copies([P], rng)]
    assert [poset_isomorphic(P, R) for _, R in pairs] == [True, False] * 3
    _assert_agrees_with_networkx(pairs)


def test_poset_isomorphic_on_empty_and_one_element_posets():
    empty, one = Poset([], []), Poset(["a"], [])
    pairs = [(X, Y) for X in (empty, one) for Y in (empty, one, Poset([1], []))]
    assert [poset_isomorphic(X, Y) for X, Y in pairs] == [
        True, False, False, False, True, True]
    _assert_agrees_with_networkx(pairs)
