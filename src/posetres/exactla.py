"""Exact scalar arithmetic (GF(p) and Q) and sparse exact linear algebra.

Scalars over characteristic 0 are `int` when integral and `fractions.Fraction`
otherwise; over GF(p) they are plain ints in the range 0..p-1.  Elimination
runs on sparse rows ({col: nonzero scalar} dicts, or bitmasks over GF(2)).
`echelon` is deterministic: columns are pivoted in ascending order, each on
the first unused row with an entry there.  That pivot rule serves
`kernel_basis` and `solve` only: kernel vectors are listed by ascending
free column and normalized so that their first nonzero coordinate is 1.
`rank` does not call `echelon`; it reduces each column by its lowest row,
as persistent homology does, since a rank does not depend on the pivots.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidField, ShapeError


def _is_prime(n):
    """Miller-Rabin on the first twelve primes: exact for every n < 2**64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    for a in bases:
        xs = [pow(a, (n - 1) >> s, n)]  # a**d, a**(2d), ..., a**(2**(s-1) d)
        for _ in range(s - 1):
            xs.append(xs[-1] * xs[-1] % n)
        if xs[0] != 1 and n - 1 not in xs:
            return False
    return True


def _rational(x):
    """A rational as an `int` when it is integral (denominator 1), else as it is."""
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p), or the rationals when characteristic == 0."""

    characteristic: int = 0
    zero = 0
    one = 1

    def __post_init__(self):
        p = self.characteristic
        if type(p) is not int or p != 0 and not (p < 2**64 and _is_prime(p)):
            raise InvalidField(
                f"characteristic must be 0 or a prime below 2**64, got {p}")

    @property
    def p(self):
        return self.characteristic

    def __call__(self, x):
        """Coerce an int / Fraction / 'a/b' string into the field: over Q an
        `int` when integral (a bool too) and a `Fraction` otherwise, over
        GF(p) an int in 0..p-1.  Any other value, or a denominator that
        vanishes in GF(p), raises InvalidField."""
        p = self.characteristic
        if isinstance(x, int):
            return x % p if p else int(x)
        try:
            y = Fraction(x) if isinstance(x, str) else x
            if isinstance(y, Fraction):
                if p:
                    return y.numerator * pow(y.denominator, -1, p) % p
                return _rational(y)
        except (ValueError, ZeroDivisionError):
            pass
        raise InvalidField(f"{x!r} is not an element of the field of "
                           f"characteristic {p}")

    def add(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else _rational(a + b)

    def sub(self, a, b):
        p = self.characteristic
        return (a - b) % p if p else _rational(a - b)

    def mul(self, a, b):
        p = self.characteristic
        return (a * b) % p if p else _rational(a * b)

    def neg(self, a):
        p = self.characteristic
        return -a % p if p else _rational(-a)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.characteristic:
            return pow(a, -1, self.characteristic)
        return _rational(Fraction(1, a))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def row_sub(self, x, f, y):
        """x -= f*y in place on {col: nonzero scalar} rows, on y's columns
        only; zeros are dropped and an integral Fraction becomes an int."""
        p = self.characteristic
        get = x.get
        for j, b in y.items():
            v = get(j, 0) - f * b
            if p:
                v %= p
            elif type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            if v:
                x[j] = v
            else:
                x.pop(j, None)


class SparseMatrix:
    """Immutable sparse matrix, kept by column: `columns` maps a column to
    {row: nonzero scalar}.  The constructor checks every entry (row, col,
    scalar) for bounds, duplicates and zeros; `entries` gives the matrix
    as {(row, col): scalar}."""

    def __init__(self, rows, cols, entries=()):
        columns = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ShapeError(f"entry ({r},{c}) out of range for {rows}x{cols}")
            col = columns.setdefault(c, {})
            if r in col:
                raise ShapeError(f"duplicate entry at ({r},{c})")
            if not v:
                raise ShapeError(f"explicit zero entry at ({r},{c})")
            col[r] = v
        self.rows, self.cols, self.columns = rows, cols, columns

    @classmethod
    def _of_columns(cls, rows, cols, columns):
        """The matrix on `columns` as given, unchecked: the caller keeps
        every index in range and every scalar nonzero (ChainComplex.matrix,
        whose index lookup drops the rows outside)."""
        A = cls.__new__(cls)
        A.rows, A.cols, A.columns = rows, cols, columns
        return A

    @property
    def entries(self):
        return {(r, c): v for c, col in self.columns.items()
                for r, v in col.items()}

    def __repr__(self):
        nnz = sum(map(len, self.columns.values()))
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={nnz})"


def _rref(rows, F, ncols):
    """In-place reduced row echelon form of rows stored as {col: nonzero
    scalar} dicts, pivot rows first.  Returns the list of pivot columns."""
    pivots = []
    nrows = len(rows)
    for c in range(ncols):
        k = len(pivots)
        if k == nrows:
            break
        pr = next((r for r in range(k, nrows) if c in rows[r]), None)
        if pr is None:
            continue
        rows[k], rows[pr] = rows[pr], rows[k]
        row = rows[k]
        inv = F.inv(row[c])
        if inv != F.one:
            for j, v in row.items():
                row[j] = F.mul(inv, v)
        for x in rows:
            if x is not row and c in x:
                F.row_sub(x, x[c], row)
        pivots.append(c)
    return pivots


def _rref_gf2(rows_bits, ncols):
    """RREF over GF(2) with rows as bitmasks (bit i = column i)."""
    pivots = []
    prow = 0
    nrows = len(rows_bits)
    for c in range(ncols):
        mask = 1 << c
        pr = None
        for r in range(prow, nrows):
            if rows_bits[r] & mask:
                pr = r
                break
        if pr is None:
            continue
        rows_bits[prow], rows_bits[pr] = rows_bits[pr], rows_bits[prow]
        piv = rows_bits[prow]
        for r in range(nrows):
            if r != prow and rows_bits[r] & mask:
                rows_bits[r] ^= piv
        pivots.append(c)
        prow += 1
        if prow == nrows:
            break
    return pivots


def echelon(A, F, rhs=None):
    """Reduced row echelon form of A, with the vector rhs (if given) carried
    along as a last column.  Pivots are sought only among the columns of A.

    Returns (pivots, column): the pivot columns in ascending order, and a
    function giving column j of the reduced matrix as a list over the rows
    (j = A.cols is the reduced rhs).  This is the one place that picks the
    GF(2) bitmask kernel or the sparse-row kernel.
    """
    n = A.cols
    entries = [(r, c, F(v)) for c, col in A.columns.items()
               for r, v in col.items()]
    if rhs is not None:
        entries += [(r, n, F(v)) for r, v in enumerate(rhs)]
    if F.characteristic == 2:
        rows = [0] * A.rows
        for r, c, v in entries:
            if v:
                rows[r] |= 1 << c
        pivots = _rref_gf2(rows, n)
        return pivots, lambda j: [(row >> j) & 1 for row in rows]
    rows = [{} for _ in range(A.rows)]
    for r, c, v in entries:
        if v:
            rows[r][c] = v
    pivots = _rref(rows, F, n)
    return pivots, lambda j: [row.get(j, F.zero) for row in rows]


def rank(A, F, *, skip=(), lows=None):
    """Rank of a SparseMatrix over F.

    Each column, in ascending order, is reduced by its lowest (largest)
    row against the earlier columns that ended with that row, until it
    vanishes or ends with a new row; the rank is the number of those.
    Entries go through F first.  The columns whose index is in `skip` are
    left out, so the caller must know that each is a combination of the
    columns before it; the lowest rows of the nonzero reduced columns are
    added to the set `lows` when one is given.  ChainComplex.homology_ranks
    clears with these two.
    """
    pivots = {}  # lowest row -> the reduced column that ends there
    cols = [c for c in sorted(A.columns) if c not in skip]
    if F.characteristic == 2:
        for c in cols:
            x = 0
            for r, v in A.columns[c].items():
                if F(v):
                    x |= 1 << r
            while x:
                low = x.bit_length() - 1
                y = pivots.get(low)
                if y is None:
                    pivots[low] = x
                    break
                x ^= y
    else:
        for c in cols:
            x = {r: w for r, v in A.columns[c].items() if (w := F(v))}
            while x:
                low = max(x)
                y = pivots.get(low)
                if y is None:
                    pivots[low] = x
                    break
                F.row_sub(x, F.div(x[low], y[low]), y)
    if lows is not None:
        lows.update(pivots)
    return len(pivots)


def kernel_basis(A, F):
    """Echelonized basis of the right null space of A over F.

    Vectors are ordered by ascending free column and scaled so the first
    nonzero coordinate is 1.
    """
    n = A.cols
    pivots, column = echelon(A, F)
    pivot_set = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = [F.zero] * n
        v[j] = F.one
        for pc, x in zip(pivots, column(j)):
            if x:
                v[pc] = F.neg(x)
        lead = next(x for x in v if x)
        if lead != F.one:
            inv = F.inv(lead)
            v = [F.mul(inv, x) for x in v]
        basis.append(v)
    return basis


def solve(A, b, F):
    """Some x with A.x = b, or None.  Free coordinates are set to zero."""
    if len(b) != A.rows:
        raise ShapeError(f"rhs length {len(b)} != {A.rows} rows")
    pivots, column = echelon(A, F, b)
    y = column(A.cols)
    if any(y[len(pivots):]):
        return None
    x = [F.zero] * A.cols
    for pc, v in zip(pivots, y):
        x[pc] = v
    return x
