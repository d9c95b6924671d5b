"""Exact scalar arithmetic (GF(p) and Q) and sparse exact linear algebra.

Scalars over characteristic 0 are `int` when integral and `fractions.Fraction`
otherwise; over GF(p) they are plain ints in the range 0..p-1.

`rank`, `kernel_basis` and `solve` run on one column reduction, `_reduce`,
as persistent homology does: each column, in ascending order, is reduced by
its lowest row against the earlier columns that ended there.  Tracked, a
column also carries the combination of A's columns it has become, so one
that vanishes leaves a kernel vector.  No result depends on a pivot order:
the columns that vanish are those in the span of the columns before them;
the vector left at such a column j is the one kernel vector that is 1 at j
and supported on j and the non-vanishing columns before it; and `solve`,
which reduces b as a last column, returns the one solution that is zero at
every vanishing column.  Kernel vectors come by ascending j, scaled so that
their first nonzero coordinate is 1: the basis the RREF of A gives.
`_reduce` is the package's one exact elimination; ChainComplex.kernel,
behind conic_complex, reads that basis as sparse vectors off
`_kernel_vectors`, which kernel_basis writes out dense.

`_reduce` reads each column in its reduce-ready form over F: over GF(2) a
bitmask of the rows with an odd value, otherwise {row: F(value)} without
zeros (`_ready`).  A plain SparseMatrix is converted column by column as
`_reduce` reads it; a prepared one (`field` set) already holds its columns
in that form, so nothing is converted.  ChainComplex._ready_columns
prepares the columns of each d_n once per complex and field: every
down-set whose homology ChainComplex._homology_on reads, and every kernel
the conic build takes, reads those prepared columns.

Over GF(2) the module works on bitmask columns, combined by XOR: `_reduce`
for the three functions above and `_suspect_columns` for
ChainComplex.check_complex.  Over every other field, and with none,
`_suspect_columns` gives each column of d_n whose values are all units
(an int = +1 or -1 mod p) two signed masks, of its +1 rows and of its -1
rows, and clears each column of d_{n+1} whose paths pair up: every row
reached by exactly one +1 path and one -1 path, which makes the integer
lift of the composite exactly 0.  It takes one pass per differential,
walking the degrees upward: the loop that adds up the masks of d_n over a
column of d_{n+1} also builds that column's own masks, so the masks of
two degrees are held at once.  These are the only places that pick
masks.
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
        if type(a) is int and (a == 1 or a == -1):
            return a
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
    {row: nonzero scalar}, or, in a matrix prepared over the field `field`,
    to its reduce-ready form over it (`_ready`).  The constructor checks
    every entry (row, col, scalar) for bounds, duplicates and zeros;
    `entries` gives the matrix as {(row, col): scalar}."""

    field = None  # the field whose reduce-ready form the columns are in

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
    def _of_columns(cls, rows, cols, columns, field=None):
        """The matrix on `columns` as given, unchecked: the caller keeps
        every index in range and every scalar nonzero (ChainComplex.matrix,
        whose index lookup drops the rows outside, and solve, which adds
        b as a last column).  With `field`, the columns are nonzero and in
        their reduce-ready form over it (ChainComplex._homology_on)."""
        A = cls.__new__(cls)
        A.rows, A.cols, A.columns = rows, cols, columns
        if field is not None:
            A.field = field
        return A

    @property
    def entries(self):
        return {(r, c): v for c, col in self.columns.items()
                for r, v in (_bits(col) if type(col) is int else col.items())}

    def __repr__(self):
        nnz = len(self.entries)
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={nnz})"


def _bits(x):
    """(row, 1) for each set bit of a bitmask column, from bit 0 up."""
    while x:
        yield (x & -x).bit_length() - 1, 1
        x &= x - 1


def _ready(col, F):
    """A {row: scalar} column in `_reduce`'s form over F: over GF(2) the
    bitmask of its rows whose value F keeps nonzero, otherwise {row: F(v)}
    with the zeros dropped, in the column's own order."""
    if F.characteristic == 2:
        x = 0
        for r, v in col.items():
            if F(v):
                x |= 1 << r
        return x
    return {r: w for r, v in col.items() if (w := F(v))}


def _reduce(A, F, cols, track=False):
    """Reduce the columns `cols` of A, in the order given, each by its lowest
    (largest) row against the earlier columns that ended with that row,
    until it vanishes or ends with a new row.  Each column is read in its
    reduce-ready form over F: as A holds it when A is prepared over F,
    else converted by `_ready` as it is read.

    Returns (pivots, left): pivots maps each lowest row to the reduced
    column that ends there.  With `track`, each column carries a marker for
    itself, the key ~c of a {row: scalar} column or bit c of a bitmask
    column (whose rows, and the keys of pivots, then sit past the A.cols
    marker bits), and left maps each column c that vanished, in order, to
    the combination {col: scalar} of A's columns it became, 1 at c.
    Columns are bitmasks over GF(2) and sparse dicts otherwise.
    """
    pivots, left = {}, {}
    get = A.columns.get
    ready = A.field is not None and A.field.characteristic == F.characteristic
    if F.characteristic == 2:
        shift = A.cols if track else 0
        row0 = 1 << shift  # x >= row0 iff x has a row bit
        for c in cols:
            x = get(c, 0) if ready else _ready(get(c, {}), F)
            if track:
                x = x << shift | 1 << c
            while x >= row0:
                low = x.bit_length() - 1
                y = pivots.get(low)
                if y is None:
                    pivots[low] = x
                    break
                x ^= y
            else:
                if track:  # x holds marker bits only
                    left[c] = dict(_bits(x))
    else:
        for c in cols:  # a prepared column is copied: x changes in place
            x = dict(get(c, ())) if ready else _ready(get(c, {}), F)
            if track:
                x[~c] = F.one
            while x and (low := max(x)) >= 0:
                y = pivots.get(low)
                if y is None:
                    pivots[low] = x
                    break
                F.row_sub(x, F.div(x[low], y[low]), y)
            else:
                if track:
                    left[c] = {~k: v for k, v in x.items()}
    return pivots, left


def _suspect_columns(rows, diffs, F):
    """Yield (n, c, column) for each column c of d_n whose composite with
    d_{n-1} may be nonzero over F, in ascending n and then in the order of
    d_n: `diffs` lists (ids, columns) for d_0, d_1, ... in turn, ids the
    basis of degree n, and `rows` the rows of d_0.  Every other column
    composes to 0 over F, so summing only the suspects decides
    d_{n-1} o d_n = 0 and finds its first failing column.

    One loop per differential both adds up the masks of the columns of
    d_{n-1} over each column of d_n and builds that column's own masks,
    when a d_{n+1} will read them.  A row of d_n is the bit of its position
    in the basis of degree n - 1 (in `rows` for d_0), and the masks of d_n
    are kept by the position of their column in the basis of degree n, an
    index that serves as the row index of d_{n+1}; so the masks of two
    differentials are held at once.  A column of d_n with a row outside
    that basis, or with a value the masks cannot read, gets no masks, and
    any column of d_{n+1} that meets it is a suspect, as is any column
    with such a value or with a mid outside the basis.

    Over GF(2) the mask of a column whose values are all ints holds its
    odd entries, above a count field (below) that the test ignores.  An
    entry v*w is odd iff v and w are, so a column of d_n of ints composes
    to 0 mod 2 iff the XOR of the masks at its odd entries is 0 above the
    count field.

    Over any other field, or with none (F None), a unit is an `int` = +1
    or -1 mod p (exactly +1 or -1 when p = 0).  A column of d_n whose every
    value is a unit gets two masks, P of its +1 rows and N of its -1 rows;
    any other column gets none.  A column of d_n is cleared iff every
    value is a unit, every mid has masks or no column, and, taking N for P
    and P for N at its -1 entries, the P masks are pairwise disjoint, the
    N masks are pairwise disjoint and the two unions are equal.  Then every
    row is reached by exactly one +1 path and one -1 path or by none, so
    the composite of the integer lifts (+1 or -1 for each unit) is exactly
    0 at every row, and hence 0 mod p.

    The test adds masks instead of comparing them: X sums the P masks and
    Y the N masks, N and P at the -1 entries, each mask also holding its
    column's length below bit K, so both count fields hold the number L of
    paths.  K is the bit length of the product of the two basis sizes,
    which bounds L.  Adding masks that share a bit carries, and each carry
    loses one set bit, so the row bits of X and Y number L, less one per
    carry.  X == Y says the two sums are equal, so their row bits number
    the same; when they number L / 2 each, there was no carry: the masks
    were pairwise disjoint, each sum is their union, and the unions are
    equal.
    """
    p = F.characteristic if F else 0
    m1 = p - 1 if p else -1  # -1 as the field keeps it
    # the row index of d_n, the masks of the columns of d_{n-1} by position,
    # the width K of their count fields, and the columns given no masks
    at = pos = neg = None
    K, bad = 0, set()
    for n, (ids, cols) in enumerate(diffs):
        test = n and diffs[n - 1][1]  # else d_{n-1} o d_n is 0
        keep = n + 1 < len(diffs) and diffs[n + 1][1]  # d_{n+1} reads masks
        if not cols or not (test or keep):
            continue
        if not test:  # nothing below to add up: masks of 0
            rows = diffs[n - 1][0] if n else rows
            at = dict(zip(rows, range(len(rows))))
            pos = neg = [0] * len(at)
        width = (len(at) * len(ids)).bit_length()  # K of d_n's masks
        if keep:  # ix: column of d_n -> its position, d_{n+1}'s row index
            ix = dict(zip(ids, range(len(ids))))
            bit = list(map((1).__lshift__, range(width, width + len(at))))
        else:
            ix, bit = {}, [0] * len(at)
        P_of, N_of, nbad = [0] * len(ix), [0] * len(ix), set()
        low = (1 << K) - 1
        for c, col in cols.items():
            X = Y = 0
            P = N = len(col)
            for mid, v in col.items():
                k = at.get(mid)
                if k is None or type(v) is not int:
                    break
                if p == 2:
                    if v & 1:
                        X ^= pos[k]
                        P |= bit[k]
                elif v == 1:  # the field's own +1 and -1 come first
                    X += pos[k]
                    Y += neg[k]
                    P |= bit[k]
                elif v == m1 or p and v % p == m1:
                    X += neg[k]
                    Y += pos[k]
                    N |= bit[k]
                elif p and v % p == 1:
                    X += pos[k]
                    Y += neg[k]
                    P |= bit[k]
                else:
                    break
            else:
                if (j := ix.get(c)) is not None:
                    P_of[j], N_of[j] = P, N
                if not test or (not bad or bad.isdisjoint(col)) and (
                        X >> K == 0 if p == 2 else X == Y and
                        2 * (X >> K).bit_count() == X & low):
                    continue
                yield n, c, col
                continue
            nbad.add(c)
            if test:
                yield n, c, col
        if keep:
            at, pos, neg, K, bad = ix, P_of, N_of, width, nbad


def rank(A, F, *, skip=(), lows=None):
    """Rank of a SparseMatrix over F: the number of its columns, in
    ascending order, that _reduce leaves ending in a new lowest row.

    The columns whose index is in `skip` are left out, so the caller must
    know that each is a combination of the columns before it; the lowest
    rows of the nonzero reduced columns are added to the set `lows` when
    one is given.  ChainComplex.homology_ranks clears with these two.
    """
    pivots, _ = _reduce(A, F, [c for c in sorted(A.columns) if c not in skip])
    if lows is not None:
        lows.update(pivots)
    return len(pivots)


def _kernel_vectors(A, F):
    """The basis kernel_basis gives, as sparse {column: scalar} dicts in
    ascending column order: each vector _reduce leaves at a column that
    vanished, scaled so that its first nonzero coordinate is 1."""
    _, left = _reduce(A, F, range(A.cols), track=True)
    basis = []
    for x in left.values():
        x = dict(sorted(x.items()))
        lead = next(iter(x.values()))
        if lead != F.one:
            inv = F.inv(lead)
            x = {j: F.mul(inv, v) for j, v in x.items()}
        basis.append(x)
    return basis


def kernel_basis(A, F):
    """Echelonized basis of the right null space of A over F: one vector
    for each column j that is a combination of the columns before it, by
    ascending j, scaled so that its first nonzero coordinate is 1.
    """
    return [[x.get(j, F.zero) for j in range(A.cols)]
            for x in _kernel_vectors(A, F)]


def solve(A, b, F):
    """Some x with A.x = b, or None.  b is reduced as a last column after
    A's; if it vanishes, x is minus what it left on A's columns, so every
    coordinate at a column that vanished is zero."""
    if len(b) != A.rows:
        raise ShapeError(f"rhs length {len(b)} != {A.rows} rows")
    n = A.cols
    B = SparseMatrix._of_columns(A.rows, n + 1, {
        **A.columns, n: {r: w for r, v in enumerate(b) if (w := F(v))}})
    y = _reduce(B, F, range(n + 1), track=True)[1].get(n)
    return None if y is None else [F.neg(y.get(j, F.zero)) for j in range(n)]
