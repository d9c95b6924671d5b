import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from oracle import _rank, dense_kernel, dense_rref
from posetres import FieldSpec, SparseMatrix, kernel_basis, rank, solve
from posetres.errors import InvalidField, PosetresError, ShapeError


def from_dense(dense):
    """A SparseMatrix with the nonzero entries of a list of rows."""
    cols = len(dense[0]) if dense else 0
    return SparseMatrix(len(dense), cols, [(r, c, v) for r, row in enumerate(dense)
                                           for c, v in enumerate(row) if v])


def mul_vec(A, x, F):
    """The product of A and the vector x over F."""
    assert len(x) == A.cols
    y = [F.zero] * A.rows
    for (r, c), v in A.entries.items():
        if x[c]:
            y[r] = F.add(y[r], F.mul(F(v), x[c]))
    return y


def test_fieldspec_validation():
    FieldSpec(0)
    FieldSpec(2)
    FieldSpec(101)
    with pytest.raises(InvalidField):
        FieldSpec(4)
    with pytest.raises(InvalidField):
        FieldSpec(-3)
    # not an int: infinity once looped forever in the primality test
    for p in (float("inf"), float("nan"), 2.0, True, "3"):
        with pytest.raises(InvalidField):
            FieldSpec(p)


def _accepts(p):
    try:
        FieldSpec(p)
    except InvalidField:
        return False
    return True


def test_primality_agrees_with_trial_division():
    # trial division, as FieldSpec once tested primality, is the reference
    for n in range(1, 10**4):
        assert _accepts(n) == (n >= 2 and all(n % d for d in
                                               range(2, isqrt(n) + 1))), n


def test_large_characteristics():
    start = time.perf_counter()
    for p in (2**61 - 1, 2**64 - 59):  # 2**64 - 59 is the last prime < 2**64
        assert FieldSpec(p).p == p
    assert time.perf_counter() - start < 1
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5, 7 and one
    # to every prime base up to 23; then a prime and a power of two >= 2**64
    for n in (561, 3215031751, 3825123056546413051, 2**89 - 1, 2**64):
        assert not _accepts(n), n


def test_fieldspec_coercion():
    F = FieldSpec(0)
    assert F("2/3") == Fraction(2, 3)
    G = FieldSpec(5)
    assert G(7) == 2
    assert G("1/2") == 3  # 2^{-1} = 3 mod 5
    for p, bad in ((3, "1/3"), (3, Fraction(2, 3)), (0, "abc"), (0, "1/0"),
                   (3, 2.5), (0, 2.5), (2, None)):
        with pytest.raises(PosetresError):
            FieldSpec(p)(bad)


def test_sparse_matrix_validation():
    with pytest.raises(ShapeError):
        SparseMatrix(1, 1, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ShapeError):
        SparseMatrix(1, 1, [(1, 0, 1)])
    with pytest.raises(ShapeError):
        SparseMatrix(1, 1, [(0, 0, 0)])


def test_rank_basics():
    F = FieldSpec(0)
    assert rank(SparseMatrix(0, 0), F) == 0
    I3 = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(I3, FieldSpec(2)) == 3
    assert rank(from_dense([[1, 1, 1]]), F) == 1
    assert rank(from_dense([[2]]), FieldSpec(2)) == 0


def test_kernel_echelon_convention():
    F = FieldSpec(0)
    A = from_dense([[1, 1, 1]])
    assert kernel_basis(A, F) == [
        [Fraction(1), Fraction(-1), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(-1)]]
    I2 = from_dense([[1, 0], [0, 1]])
    assert kernel_basis(I2, F) == []
    B = from_dense([[1, 1], [1, 1]])
    assert kernel_basis(B, FieldSpec(2)) == [[1, 1]]


def test_solve_conventions():
    F = FieldSpec(0)
    I2 = from_dense([[1, 0], [0, 1]])
    assert solve(I2, [3, 4], F) == [3, 4]
    A = from_dense([[1, 1]])
    assert solve(A, [1], F) == [1, 0]
    Z = SparseMatrix(1, 1)
    assert solve(Z, [1], F) is None
    with pytest.raises(ShapeError):
        solve(A, [1, 2], F)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5),
       st.lists(st.integers(-3, 3), min_size=25, max_size=25),
       st.sampled_from([0, 2, 3, 5]))
def test_rank_nullity_and_kernel_annihilation(r, c, flat, p):
    F = FieldSpec(p)
    dense = [[F(flat[i * 5 + j]) for j in range(c)] for i in range(r)]
    A = from_dense(dense)
    ker = kernel_basis(A, F)
    assert rank(A, F) + len(ker) == c
    for v in ker:
        assert not any(mul_vec(A, v, F))
    # Echelon conventions: the first nonzero coordinate is 1; each vector's
    # last nonzero coordinate is its free column, the free columns ascend,
    # and every other vector vanishes there.
    free = [max(j for j, x in enumerate(v) if x) for v in ker]
    assert free == sorted(set(free))
    for k, v in enumerate(ker):
        assert next(x for x in v if x) == F.one
        assert all(not w[free[k]] for l, w in enumerate(ker) if l != k)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.lists(st.integers(-2, 2), min_size=16, max_size=16),
       st.lists(st.integers(-2, 2), min_size=4, max_size=4),
       st.sampled_from([0, 2, 3, 5]))
def test_solve_is_exact(n, flat, xs, p):
    F = FieldSpec(p)
    dense = [[F(flat[i * 4 + j]) for j in range(n)] for i in range(n)]
    A = from_dense(dense)
    b = mul_vec(A, [F(x) for x in xs[:n]], F)
    x = solve(A, b, F)
    assert x is not None
    assert mul_vec(A, x, F) == b


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4),
       st.lists(st.integers(-2, 2), min_size=16, max_size=16),
       st.lists(st.integers(-2, 2), min_size=4, max_size=4),
       st.sampled_from([0, 2, 3, 5]))
def test_solve_fails_iff_rhs_raises_the_rank(r, c, flat, rhs, p):
    F = FieldSpec(p)
    dense = [[F(flat[i * 4 + j]) for j in range(c)] for i in range(r)]
    b = [F(v) for v in rhs[:r]]
    A = from_dense(dense)
    Ab = from_dense([row + [v] for row, v in zip(dense, b)])
    x = solve(A, b, F)
    assert (x is None) == (rank(Ab, F) > rank(A, F))
    if x is not None:
        assert mul_vec(A, x, F) == b


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([2, 3, 5]),
       st.data())
def test_unreduced_entries_count_by_their_residue(r, c, p, data):
    # Entries drawn from -2p..2p are stored as given; rank and kernel_basis
    # both read them mod p, so their counts add up and agree with the
    # oracle's rank of the reduced matrix.
    F = FieldSpec(p)
    dense = [[data.draw(st.integers(-2 * p, 2 * p)) for _ in range(c)]
             for _ in range(r)]
    A = from_dense(dense)
    assert rank(A, F) + len(kernel_basis(A, F)) == c
    assert rank(A, F) == _rank([[v % p for v in row] for row in dense], p)


# Over Q a scalar is an int exactly when it is integral.  Operands mix ints,
# bools, integral and proper Fractions; 'a/b' strings go through F(x).
_Q_VALUES = st.one_of(
    st.integers(-30, 30), st.booleans(), st.integers(-30, 30).map(Fraction),
    st.fractions(max_denominator=12).filter(lambda x: abs(x) <= 30))


def _assert_q(value, expected):
    assert value == expected
    assert type(value) is (int if expected.denominator == 1 else Fraction)


@settings(max_examples=300, deadline=None)
@given(_Q_VALUES, _Q_VALUES,
       st.tuples(st.integers(-30, 30), st.integers(1, 12)))
def test_q_scalars_are_ints_exactly_when_integral(a, b, ab):
    F = FieldSpec(0)
    _assert_q(F.zero, Fraction(0))
    _assert_q(F.one, Fraction(1))
    _assert_q(F(a), Fraction(a))
    _assert_q(F(f"{ab[0]}/{ab[1]}"), Fraction(*ab))
    fa, fb = Fraction(a), Fraction(b)
    _assert_q(F.add(a, b), fa + fb)
    _assert_q(F.sub(a, b), fa - fb)
    _assert_q(F.mul(a, b), fa * fb)
    _assert_q(F.neg(a), -fa)
    if b:
        _assert_q(F.inv(b), 1 / fb)
        _assert_q(F.div(a, b), fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(b)


def test_q_integral_results_are_int():
    F = FieldSpec(0)
    half = Fraction(1, 2)
    row = {0: half, 1: 1, 2: 3}
    F.row_sub(row, half, {0: 1, 1: 2, 2: half})
    assert row == {2: Fraction(11, 4)}  # the entries that vanish are dropped
    _assert_q(row[2], Fraction(11, 4))
    row = {0: Fraction(1, 2), 1: 2}
    F.row_sub(row, Fraction(-1, 2), {0: 1, 2: 4})
    assert list(map(type, row.values())) == [int, int, int]
    _assert_q(F.inv(1), Fraction(1))
    _assert_q(F.inv(-1), Fraction(-1))
    _assert_q(F.inv(Fraction(1, 2)), Fraction(2))
    _assert_q(F.inv(Fraction(-1, 7)), Fraction(-7))
    _assert_q(F.inv(2), Fraction(1, 2))
    _assert_q(F(True), Fraction(1))
    _assert_q(F(Fraction(6, 3)), Fraction(2))
    _assert_q(F("4/2"), Fraction(2))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 2, 3, 5]), st.data())
def test_row_sub_matches_entrywise_sub_mul(p, data):
    # rows are {col: nonzero scalar}; row_sub updates x in place
    F = FieldSpec(p)
    values = _Q_VALUES if p == 0 else st.integers(-2 * p, 2 * p)

    def row():
        d = data.draw(st.dictionaries(st.integers(0, 5), values, max_size=6))
        return {j: F(v) for j, v in d.items() if F(v)}
    x, y = row(), row()
    f = F(data.draw(values))
    want = {j: F.sub(x.get(j, F.zero), F.mul(f, y.get(j, F.zero)))
            for j in x.keys() | y.keys()}
    want = {j: v for j, v in want.items() if v}
    got = dict(x)
    F.row_sub(got, f, y)
    assert got == want
    assert {j: type(v) for j, v in got.items()} == {
        j: type(v) for j, v in want.items()}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([0, 2, 3, 5]), st.integers(0, 6), st.integers(0, 6),
       st.booleans(), st.data())
def test_kernel_and_solve_match_dense_reference(p, r, c, with_rhs, data):
    """kernel_basis and solve against what the dense RREF gives, entry by
    entry and with the same scalar types.  Some rows are combinations of
    two earlier ones, so that rows cancel."""
    F = FieldSpec(p)
    values = (st.integers(-3, 3) | st.fractions(max_denominator=4)
              if p == 0 else st.integers(-2 * p, 2 * p))
    entry = st.just(0) | values
    rows = [data.draw(st.lists(entry, min_size=c, max_size=c))
            for _ in range(r)]
    for i in range(2, r):
        if data.draw(st.booleans()):
            a, b = data.draw(st.lists(st.integers(0, i - 1), min_size=2,
                                      max_size=2))
            f = F(data.draw(values))
            rows[i] = [F.add(F(x), F.mul(f, F(y)))
                       for x, y in zip(rows[a], rows[b])]
    A = SparseMatrix(r, c, [(i, j, v) for i, row in enumerate(rows)
                            for j, v in enumerate(row) if v])
    rhs = data.draw(st.lists(values, min_size=r, max_size=r)) if with_rhs else None
    M = [[F(v) for v in row] + ([F(rhs[i])] if with_rhs else [])
         for i, row in enumerate(rows)]
    pivots = dense_rref(M, F, c)
    k = len(pivots)
    basis = dense_kernel(M, pivots, F, c)
    got = kernel_basis(A, F)
    assert got == basis
    assert [list(map(type, v)) for v in got] == [
        list(map(type, v)) for v in basis]
    assert {type(x) for v in got for x in v} <= {int, Fraction}
    if with_rhs:
        x = None
        if not any(row[c] for row in M[k:]):
            x = [F.zero] * c
            for pc, row in zip(pivots, M):
                x[pc] = row[c]
        got = solve(A, rhs, F)
        assert got == x
        if x is not None:
            assert list(map(type, got)) == list(map(type, x))
            assert {type(v) for v in got} <= {int, Fraction}
