"""`rank` by lowest-row column reduction, and the clearing across degrees in
`ChainComplex.homology_ranks`, against the dense elimination of the
oracle: on hypothesis matrices whose columns cancel, and on the order,
filter, conic, bar and strand complexes of the pipeline, whose
`kernel_basis` is also checked against the dense RREF."""

from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from oracle import _rank, _reduced_homology_ranks, dense_kernel, dense_rref
from posetres import (ChainComplex, FieldSpec, SparseMatrix, bar_reduce,
                      betti_poset, betti_table, conic_complex, hcw_support,
                      incidence_poset, is_hcw, join_closure, kernel_basis,
                      make_minimal_support_basis, minimalize, minimize, rank,
                      strand, taylor_complex)
from posetres import gradedcomplex
from posetres.cli import main
from conftest import M_GENS, RP2_GENS, random_corpus
from test_hcw_memo import K6_EDGES


def _dense(A, p):
    """The rows of a SparseMatrix, each entry reduced mod p (p > 0)."""
    M = [[0] * A.cols for _ in range(A.rows)]
    for (r, c), v in A.entries.items():
        M[r][c] = (v.numerator * pow(v.denominator, -1, p) % p
                   if p and type(v) is Fraction else v % p if p else v)
    return M


def _lows(M, p):
    """The lowest rows of any basis of the column space of M in which no two
    vectors end in the same row: row i is one iff the rows from i on have
    a larger rank than the rows after i."""
    ranks = [_rank(M[i:], p) for i in range(len(M) + 1)]
    return {i for i in range(len(M)) if ranks[i] > ranks[i + 1]}


def _values(p):
    """Unreduced entries: ints from -2p to 2p (multiples of p included) over
    GF(p), small ints and Fractions over Q."""
    if p:
        return st.integers(-2 * p, 2 * p)
    return st.integers(-3, 3) | st.fractions(max_denominator=4).filter(
        lambda x: abs(x) <= 3)


@st.composite
def cancelling_columns(draw, p):
    """Columns (lists over r rows) of raw values, some of them repeats or
    sums of multiples of earlier ones, summed without reducing mod p."""
    r = draw(st.integers(0, 6))
    values = _values(p)
    cols = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["new", "repeat", "sum"]) if cols
                    else st.just("new"))
        if kind == "new":
            cols.append(draw(st.lists(st.just(0) | values, min_size=r,
                                      max_size=r)))
        elif kind == "repeat":
            cols.append(list(draw(st.sampled_from(cols))))
        else:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            f, g = draw(values), draw(values)
            cols.append([f * x + g * y for x, y in zip(a, b)])
    return r, cols


def _matrix(r, cols):
    """A SparseMatrix with r rows and the nonzero entries of the columns."""
    return SparseMatrix(r, len(cols), [(i, j, v) for j, col in enumerate(cols)
                                       for i, v in enumerate(col) if v])


def test_rank_skips_the_given_columns():
    F = FieldSpec(0)
    I3 = _matrix(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(I3, F, skip={0}) == 2
    assert rank(I3, FieldSpec(2), skip={0, 2}) == 1
    lows = {7}
    assert rank(_matrix(3, [[1, 1, 0], [2, 2, 0], [0, 0, 5]]), F,
                lows=lows) == 2
    assert lows == {7, 1, 2}
    # a stored 2 over GF(2) and a stored 3 over GF(3) are no entries
    assert rank(_matrix(2, [[2, 0], [0, 3]]), FieldSpec(2)) == 1
    assert rank(_matrix(2, [[2, 0], [0, 3]]), FieldSpec(3)) == 1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 2, 3, 5]).flatmap(
    lambda p: st.tuples(st.just(p), cancelling_columns(p))))
def test_rank_and_lows_match_the_oracle(case):
    p, (r, cols) = case
    F = FieldSpec(p)
    A = _matrix(r, cols)
    M = _dense(A, p)
    lows = set()
    assert rank(A, F, lows=lows) == _rank(M, p)
    assert lows == _lows(M, p)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 2, 3, 5]).flatmap(
    lambda p: st.tuples(st.just(p), cancelling_columns(p))), st.data())
def test_clearing_by_the_lows_of_the_matrix_above_keeps_the_rank(case, data):
    # B's columns are combinations of kernel vectors of A, so A o B = 0, and
    # the rows of B are the columns of A: each lowest row of a reduced
    # column of B is a column of A that depends on the ones before it.
    p, (r, cols) = case
    F = FieldSpec(p)
    A = _matrix(r, cols)
    ker = kernel_basis(A, F)
    values = _values(p)
    B = []
    for _ in range(data.draw(st.integers(0, 5))):
        col = [F.zero] * A.cols
        for v in ker:
            f = F(data.draw(st.just(0) | values))
            col = [F.add(x, F.mul(f, y)) for x, y in zip(col, v)]
        B.append(col)
    B = _matrix(A.cols, B)
    lows = set()
    rank(B, F, lows=lows)
    assert lows == _lows(_dense(B, p), p)
    assert rank(A, F, skip=lows) == rank(A, F) == _rank(_dense(A, p), p)


def _complexes(I, F, taylor_strands):
    """Order, filter, conic, bar and strand complexes of the pipeline on I."""
    T = taylor_complex(I, F)
    M = minimize(T)
    P = incidence_poset(make_minimal_support_basis(M)[0])
    alphas = sorted(join_closure(I.generators))
    out = [P.order_complex(), *map(P.filter_complex, P.elements),
           conic_complex(P, F), conic_complex(P, F, augmented=True),
           bar_reduce(M), ChainComplex(F, M.basis, bar_reduce(M).d, True),
           *(strand(M, a) for a in alphas)]
    if taylor_strands:
        out += [bar_reduce(T), *(strand(T, a) for a in alphas)]
    return out


def _check_complexes(complexes, F):
    """homology_ranks, and the rank and kernel_basis of each d_n, against
    the oracle: its simplicial homology of the faces of an order or filter
    complex (the ranks follow from it, top down), else its ranks of the
    dense matrices; the kernel, scalar types included, is the one read off
    the dense RREF of d_n."""
    p = F.characteristic
    for C in complexes:
        lo = -1 if C.augmented else 0
        degrees = range(lo + 1, C.top + 1)
        if hasattr(C, "faces"):
            h = _reduced_homology_ranks(
                [f for fs in C.faces.values() for f in fs], p)
            rk = {C.top + 1: 0}
            for n in reversed(degrees):
                rk[n] = len(C.basis.get(n, ())) - h.get(n, 0) - rk[n + 1]
        else:
            rk = {n: _rank(_dense(C.matrix(n), p), p) for n in degrees}
            h = {n: x for n in range(lo, C.top + 1) if (
                x := C.matrix(n + 1).rows - rk.get(n, 0) - rk.get(n + 1, 0))}
        assert C.homology_ranks(F) == h
        for n in degrees:
            A = C.matrix(n)
            assert rank(A, F) == rk[n]
            M = [[F(v) for v in row] for row in _dense(A, p)]
            want = dense_kernel(M, dense_rref(M, F, A.cols), F, A.cols)
            got = kernel_basis(A, F)
            assert got == want
            assert [list(map(type, v)) for v in got] == [
                list(map(type, v)) for v in want]


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_pipeline_complexes_match_the_oracle(p):
    F = FieldSpec(p)
    complexes = []
    for I in random_corpus(30) + [minimalize(M_GENS)]:
        complexes += _complexes(I, F, True)
    complexes += _complexes(minimalize(RP2_GENS), F, False)
    _check_complexes(complexes, F)


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_k6_10_complexes_match_the_oracle(p):
    # The dense oracle over Q takes seconds on a filter of dimension 3, so
    # over Q the order complex and the larger filters are left out.
    F = FieldSpec(p)
    I = minimalize(K6_EDGES[:10])
    complexes = _complexes(I, F, False)
    if not p:
        complexes = [C for C in complexes if C.top < 3]
    _check_complexes(complexes, F)


@pytest.mark.parametrize("p", [2, 3])
def test_homology_ranks_clears_by_the_lows_of_the_degree_above(p, monkeypatch):
    # Spy on the ranks homology_ranks takes: top down, and each d_n skips
    # exactly the lowest rows the oracle gives for d_{n+1}.
    F = FieldSpec(p)
    calls = []

    def spy(A, F, *, skip=(), lows=None):
        calls.append((A, set(skip)))
        return rank(A, F, skip=skip, lows=lows)
    monkeypatch.setattr(gradedcomplex, "rank", spy)
    complexes = _complexes(minimalize(RP2_GENS), F, False)
    for I in random_corpus(30) + [minimalize(M_GENS)]:
        complexes += _complexes(I, F, True)
    cleared = 0
    for C in complexes:
        calls.clear()
        C.homology_ranks(F)
        lo = -1 if C.augmented else 0
        assert [A.cols for A, _ in calls] == [
            len(C.basis.get(n, ())) for n in range(C.top, lo, -1)]
        above = set()
        for A, skip in calls:
            assert skip == above
            cleared += len(skip)
            above = _lows(_dense(A, p), p)
    assert cleared > 200


# --- the down-set engine: ChainComplex._homology_on ------------------------

def _scalar(v, p):
    """A stored scalar as the dense oracle reads it: reduced mod p > 0."""
    if not p:
        return v
    return v.numerator * pow(v.denominator, -1, p) % p if type(
        v) is Fraction else v % p


def _restricted_homology(C, basis, p):
    """Homology of the subcomplex of C on `basis`, from oracle._rank on the
    dense matrices of the restricted complex: d_n on the rows basis[n - 1]
    (the row () for d_0) and the columns basis[n], its entries read off
    C.d, as strand_reference restricts a complex."""
    lo = -1 if C.augmented else 0
    top = max(basis, default=-1)

    def rows(n):
        return basis.get(n - 1, []) if n or -1 in basis else [()]

    rk = {}
    for n in range(lo + 1, top + 1):
        cols = [C.d.get(n, {}).get(c, {}) for c in basis.get(n, [])]
        rk[n] = _rank([[_scalar(col.get(r, 0), p) for col in cols]
                       for r in rows(n)], p)
    return {n: h for n in range(lo, top + 1) if (
        h := len(rows(n + 1)) - rk.get(n, 0) - rk.get(n + 1, 0))}


def _engine_posets(F):
    """The incidence posets of the corpus, rp2, m and the K6-13 Taylor
    start, over F."""
    named = [minimalize(g) for g in (RP2_GENS, M_GENS, K6_EDGES[:13])]
    return [incidence_poset(make_minimal_support_basis(minimize(
        taylor_complex(I, F)))[0]) for I in random_corpus(100) + named]


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_homology_on_down_sets_and_strands_matches_the_oracle(
        p, monkeypatch):
    """_homology_on on every P.below[a] and every below[a] + {a} of the
    augmented conic complex, and on every strand is_resolution reads of
    the conic complex, against the dense ranks of the restricted complex."""
    F = FieldSpec(p)
    strands, homology_on = [], gradedcomplex.ChainComplex._homology_on

    def spy(self, basis, F):
        h = homology_on(self, basis, F)
        strands.append((self, basis, h))
        return h

    checked = 0
    for P in _engine_posets(F):
        C = conic_complex(P, F, True)
        for a in P.elements:
            for below in (P.below[a], P.below[a] | {a}):
                basis = C._below(below)
                assert C._homology_on(basis, F) == _restricted_homology(
                    C, basis, p), (a, below)
                checked += 1
        with monkeypatch.context() as m:
            m.setattr(gradedcomplex.ChainComplex, "_homology_on", spy)
            gradedcomplex.is_resolution(conic_complex(P, F))
    assert strands
    for D, basis, h in strands:
        assert h == _restricted_homology(D, basis, p)
    assert checked > 1000 and len(strands) > 400


def _closed(C, basis):
    """Whether every row of d_n at a column in basis[n] lies in basis[n - 1],
    the row () of d_0 included."""
    return all(set(C.d.get(n, {}).get(c, {})) <= set(
        basis.get(n - 1, ()) if n else ((), *basis.get(-1, ())))
        for n, ids in basis.items() for c in ids)


def test_homology_on_reads_only_bases_closed_under_d(monkeypatch, tmp_path):
    """The precondition of _homology_on, spied on every call made by
    hcw_support, is_hcw and `posetres verify` on the corpus over Q, GF(2)
    and GF(3): each basis read is closed under the boundary."""
    seen, homology_on = [], gradedcomplex.ChainComplex._homology_on

    def spy(self, basis, F):
        assert _closed(self, basis), basis
        seen.append(basis)
        return homology_on(self, basis, F)

    monkeypatch.setattr(gradedcomplex.ChainComplex, "_homology_on", spy)
    path = tmp_path / "ideal.txt"
    for k, I in enumerate(random_corpus(100)):
        F = FieldSpec((0, 2, 3)[k % 3])
        Q, _, H = hcw_support(I, F)
        is_hcw(betti_poset(betti_table(H)), F)
        path.write_text("\n".join(" ".join(map(str, g))
                                  for g in I.generators) + "\n")
        with redirect_stdout(StringIO()):
            assert main(["verify", str(path), "--char", str(F.p)]) == 0
    assert len(seen) > 2000
