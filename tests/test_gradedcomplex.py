import pytest

from oracle import betti_numbers
from posetres import (FieldSpec, GradedFreeComplex, bar_reduce, betti_table,
                      is_resolution, minimalize, minimize, strand,
                      taylor_complex)
from posetres.errors import (NotAComplex, NotMinimal, PosetresError,
                             ShapeError, TooLarge)
from conftest import SQUAREFREE3

Q = FieldSpec(0)


def koszul_xy():
    return taylor_complex(minimalize([(1, 0), (0, 1)]), Q)


def test_taylor_koszul():
    T = koszul_xy()
    assert T.ranks() == (2, 1)
    assert T.labels[1][0][1] == (1, 1)


def test_taylor_ranks_are_binomial():
    T = taylor_complex(minimalize(SQUAREFREE3), Q)
    assert T.ranks() == (3, 3, 1)
    T.check_complex()


def test_taylor_cap():
    gens = [tuple(1 if i == j else 0 for i in range(17)) for j in range(17)]
    with pytest.raises(TooLarge):
        taylor_complex(minimalize(gens), Q)


def test_homogeneity_enforced():
    with pytest.raises(ShapeError):
        GradedFreeComplex(1, Q, {0: [("a", (2,))], 1: [("b", (1,))]},
                          {1: {("a", "b"): Q(1)}})


def test_not_a_complex_detected():
    T = taylor_complex(minimalize(SQUAREFREE3), Q)
    diffs = {n: dict(m) for n, m in T.diffs.items()}
    (k, v), = [(k, v) for k, v in diffs[2].items()][:1]
    diffs[2][k] = Q.neg(v)
    bad = GradedFreeComplex(3, Q, T.labels, diffs)
    with pytest.raises(NotAComplex):
        minimize(bad)


def test_minimize_koszul_unchanged():
    assert minimize(koszul_xy()).ranks() == (2, 1)


def test_minimize_squarefree_matches_oracle():
    I = minimalize(SQUAREFREE3)
    M = minimize(taylor_complex(I, Q))
    assert M.ranks() == (3, 2)
    assert betti_table(M).entries == betti_numbers(SQUAREFREE3, 0)


def test_minimize_preserves_strand_homology():
    I = minimalize([(2, 1, 0), (0, 1, 2), (1, 0, 1), (2, 0, 2)])
    T = taylor_complex(I, Q)
    M = minimize(T)
    from posetres import join_closure
    for alpha in sorted(join_closure(I.generators)):
        assert strand(T, alpha).homology_ranks() == \
            strand(M, alpha).homology_ranks()


def test_bar_reduce_koszul():
    B = bar_reduce(koszul_xy())
    A = B.matrix(1)
    vals = sorted(A.entries.values())
    assert vals == [Q(-1), Q(1)]


def test_strand_koszul():
    T = koszul_xy()
    S = strand(T, (1, 0))
    assert S.ranks() == (1,)
    S2 = strand(T, (1, 1))
    assert S2.ranks() == (2, 1)
    h = S2.homology_ranks()
    assert h[0] == 1 and h.get(1, 0) == 0


def test_betti_table_requires_minimal():
    I = minimalize(SQUAREFREE3)
    T = taylor_complex(I, Q)
    with pytest.raises(NotMinimal):
        betti_table(T)
    tab = betti_table(minimize(T))
    assert tab.totals() == (3, 2)
    assert tab.entries[(0, (1, 1, 0))] == 1


def test_is_resolution_taylor():
    ok, report = is_resolution(taylor_complex(minimalize(SQUAREFREE3), Q))
    assert ok
    assert all(h.get(0) == 1 for h in report.values())


def test_no_zero_bar_columns_after_minimize():
    I = minimalize([(2, 1, 0), (0, 1, 2), (1, 0, 1)])
    M = minimize(taylor_complex(I, Q))
    for n in range(1, M.top + 1):
        cols_hit = {c for (_, c) in M.diffs.get(n, {})}
        assert cols_hit == {b for b, _ in M.labels.get(n, [])}


def test_json_roundtrip():
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    R = GradedFreeComplex.from_json(M.to_json())
    assert R.labels == M.labels
    assert R.diffs == M.diffs


def test_json_rejects_bad_exponent():
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    obj = M.to_json()
    obj["differentials"][0][0]["exponent"] = [9, 9, 9]
    with pytest.raises(ShapeError):
        GradedFreeComplex.from_json(obj)


def test_json_rejects_bad_scalar():
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    obj = M.to_json()
    obj["characteristic"] = 3
    for bad in ("1/3", "abc", 2.5):
        obj["differentials"][0][0]["scalar"] = bad
        with pytest.raises(PosetresError):
            GradedFreeComplex.from_json(obj)
