import hashlib
import json
from itertools import combinations

import pytest

from posetres import (FieldSpec, bar_reduce, kernel_basis, betti_table, boundary_support,
                      divides,
                      is_minimal_support_cycle, make_minimal_support_basis,
                      minimalize, minimize, noncomparable_supports,
                      taylor_complex)
from posetres.errors import NotACycle, NotFound, NotMinimal
from posetres.gradedcomplex import GradedFreeComplex
from conftest import (M_GENS, RP2_GENS, SQUAREFREE3, load_fixture_complex,
                      random_corpus)

Q = FieldSpec(0)
K6_13 = [tuple(int(v in e) for v in range(6))
         for e in combinations(range(6), 2)][:13]


def test_boundary_support_koszul():
    T = taylor_complex(minimalize([(1, 0), (0, 1)]), Q)
    b = T.labels[1][0][0]
    assert boundary_support(T, b) == {lab for lab, _ in T.labels[0]}
    with pytest.raises(NotFound):
        boundary_support(T, "nope")


def test_fixture_top_supports_have_sizes_three_and_four():
    A = load_fixture_complex("two_res_a.json", 0)
    B = load_fixture_complex("two_res_b.json", 0)
    assert sorted(len(boundary_support(A, b)) for b, _ in A.labels[2]) == [3, 3]
    assert sorted(len(boundary_support(B, b)) for b, _ in B.labels[2]) == [3, 4]


def test_circuit_test_on_augmentation_kernel():
    # three generators with a common augmentation: pair supports are minimal
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    Cbar = bar_reduce(M)
    for b, _ in M.labels[1]:
        assert is_minimal_support_cycle(Cbar, 0, dict(M.column(b)))
    # a full-support kernel vector of the augmentation is not minimal
    ids = [i for i, _ in M.labels[0]]
    z = {ids[0]: Q(2), ids[1]: Q(-1), ids[2]: Q(-1)}
    assert not is_minimal_support_cycle(Cbar, 0, z)


def test_circuit_test_rejects_non_cycles():
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    Cbar = bar_reduce(M)
    ids = [i for i, _ in M.labels[0]]
    with pytest.raises(NotACycle):
        is_minimal_support_cycle(Cbar, 0, {ids[0]: Q(1)})


def test_fixture_columns_all_pass_circuit_test():
    C = load_fixture_complex("pp_res.json", 2)
    Cbar = bar_reduce(C)
    for n in range(1, C.top + 1):
        for b, _ in C.labels[n]:
            assert is_minimal_support_cycle(Cbar, n - 1, dict(C.column(b)))


def test_make_minimal_requires_minimal_input():
    T = taylor_complex(minimalize(SQUAREFREE3), Q)
    with pytest.raises(NotMinimal):
        make_minimal_support_basis(T)


def test_make_minimal_support_is_idempotent_and_verified():
    for I in random_corpus(8, seed=7):
        M = minimize(taylor_complex(I, Q))
        C1, log1 = make_minimal_support_basis(M)
        assert betti_table(C1).entries == betti_table(M).entries
        Cbar = bar_reduce(C1)
        for n in range(1, C1.top + 1):
            for b, _ in C1.labels[n]:
                assert is_minimal_support_cycle(Cbar, n - 1, dict(C1.column(b)))
        C2, log2 = make_minimal_support_basis(C1)
        assert not log2.steps
        assert all(boundary_support(C1, b) == boundary_support(C2, b)
                   for n in range(1, C1.top + 1) for b, _ in C1.labels[n])
        assert noncomparable_supports(C1)


def test_repair_of_a_damaged_basis():
    # add one d_2 column of the squarefree resolution to the other: the
    # second column's boundary support grows and must be repaired
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    (b1, d1), (b2, d2) = M.labels[1]
    assert d1 == d2 == (1, 1, 1)
    d = {n: {c: dict(col) for c, col in cols.items()}
         for n, cols in M.d.items()}
    col = d[1][b2]
    for r, v in M.column(b1).items():
        col[r] = Q.add(col.get(r, Q.zero), v)  # a zero is dropped by D
    D = GradedFreeComplex(M.num_vars, Q, M.labels, d)
    Cbar = bar_reduce(D)
    assert not is_minimal_support_cycle(Cbar, 0, dict(D.column(b2)))
    R, log = make_minimal_support_basis(D)
    assert log.steps
    Rbar = bar_reduce(R)
    for b, _ in R.labels[1]:
        assert is_minimal_support_cycle(Rbar, 0, dict(R.column(b)))
    assert log.to_json()["steps"]


def test_noncomparable_detects_duplicates():
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    (b1, _), (b2, _) = M.labels[1]
    d = {n: {c: dict(col) for c, col in cols.items()}
         for n, cols in M.d.items()}
    d[1][b2] = M.column(b1)
    D = GradedFreeComplex(M.num_vars, Q, M.labels, d)
    assert not noncomparable_supports(D)


def test_bar_support_correspondence():
    M = minimize(taylor_complex(minimalize([(2, 1, 0), (0, 1, 2), (1, 0, 1)]), Q))
    Cbar = bar_reduce(M)
    for n in range(1, M.top + 1):
        for b, _ in M.labels[n]:
            upstairs = boundary_support(M, b)
            downstairs = set(Cbar.d[n][b])
            assert upstairs == downstairs


def _circuit_by_deletion(Cbar, n, zd):
    """Reference circuit test: no cycle lives on supp(zd) minus one id."""
    S = list(zd)
    return not any(kernel_basis(Cbar.matrix(n, cols=[b for b in S if b != c]),
                                Cbar.field)
                   for c in S)


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_circuit_rank_count_matches_deletion_loop(p):
    F = FieldSpec(p)
    seen = {True: 0, False: 0}
    for I in [minimalize(RP2_GENS), minimalize(M_GENS)] + random_corpus(100):
        M = minimize(taylor_complex(I, F))
        Cbar = bar_reduce(M)
        for n in range(1, M.top + 1):
            cols = [dict(M.column(b)) for b, _ in M.labels[n]]
            sums = [{r: v for r in a.keys() | b.keys()
                     if (v := F.add(a.get(r, F.zero), b.get(r, F.zero)))}
                    for a, b in zip(cols, cols[1:])]
            for z in cols + sums:
                got = is_minimal_support_cycle(Cbar, n - 1, z)
                assert got == _circuit_by_deletion(Cbar, n - 1, z)
                seen[got] += 1
    assert seen[True] and seen[False]


def damaged(M):
    """M after a change of basis b2 -> b2 + x^(deg b2 - deg b1) b1 for each
    basis element b2 and the first other b1 of its degree whose label
    divides its own: the bar columns add up, and the b1-row of the next
    differential loses the b2-row."""
    F = M.field
    d = {n: {c: dict(col) for c, col in cols.items()}
         for n, cols in M.d.items()}
    for n, labs in M.labels.items():
        for b2, g2 in labs:
            b1 = next((b for b, g in labs if b != b2 and divides(g, g2)), None)
            if b1 is None or n not in d:
                continue
            col = d[n][b2]
            for r, v in d[n][b1].items():
                col[r] = F.add(col.get(r, F.zero), v)
            for g in d.get(n + 1, {}).values():
                if b2 in g:
                    g[b1] = F.sub(g.get(b1, F.zero), g[b2])
    return GradedFreeComplex(M.num_vars, F, M.labels, d)


def test_minimal_support_basis_pins_corpus_and_k6():
    """to_json and change log of the rewrite of every minimal resolution of
    the corpus and K6-13 over p in {0, 2, 3, 5}, as it is and damaged;
    the SHA-256 was recorded before the rewrite read the column store."""
    h, steps = hashlib.sha256(), 0
    for I in random_corpus(100) + [minimalize(K6_13)]:
        for p in (0, 2, 3, 5):
            M = minimize(taylor_complex(I, FieldSpec(p)))
            for C in (M, damaged(M)):
                out, log = make_minimal_support_basis(C)
                steps += len(log.steps)
                h.update(json.dumps([out.to_json(), log.to_json()],
                                    sort_keys=True, separators=(",", ":")
                                    ).encode())
    assert steps == 269
    assert h.hexdigest() == ("5b6a445acf973d83863ea7ad53b0af98d"
                             "ba518a0e28bda3c65ec464fdac66db3")


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_minimal_support_basis_returns_its_input_exactly_when_unchanged(p):
    """make_minimal_support_basis(C)[0] is C itself when the log is empty
    (every minimal resolution here), and a new complex when a column was
    replaced (some damaged ones)."""
    F, seen = FieldSpec(p), set()
    K6_10 = minimalize(K6_13[:10])
    for I in random_corpus(100) + [minimalize(RP2_GENS), minimalize(M_GENS),
                                   K6_10]:
        M = minimize(taylor_complex(I, F))
        for C in (M, damaged(M)):
            out, log = make_minimal_support_basis(C)
            assert (out is C) == (not log.steps)
            seen.add((C is M, bool(log.steps)))
    assert seen == {(True, False), (False, False), (False, True)}
