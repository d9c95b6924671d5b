"""Z^m-graded chain complexes of free modules with labeled homogeneous bases.

Because every differential entry is forced to be homogeneous, an entry from
basis element b to basis element c is scalar * x^(deg b - deg c); we store
only the scalar and derive the exponent from the labels.  The field complex
base, Taylor complex, minimization, bar reduction, graded strands and Betti
tables all live here.
"""

from collections import Counter, defaultdict
from collections.abc import MutableMapping
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from operator import mod

from .errors import (NotAComplex, NotFound, NotMinimal, ShapeError, TooLarge,
                     VerificationError, malformed)
from .exactla import (FieldSpec, SparseMatrix, _kernel_vectors, _ready,
                      _suspect_columns, rank, solve)
from .monomials import divides, join_closure, lcm

TAYLOR_CAP = 16


class ChainComplex:
    """Field chain complex on an ordered basis of hashable ids.

    basis:     dict n -> ordered list of the basis ids in degree n
    d:         dict n -> {col_id: {row_id: scalar}}, the columns of d_n;
               this is the one store of every differential, d_0 included:
               d_0 is the augmentation, onto one row with the id ()
    augmented: whether homology_ranks counts the row of d_0, giving
               degree -1

    The columns are copied without zero entries and empty columns.  Chains
    are {id: scalar} dicts; an id outside its degree raises NotFound.
    Methods taking a field F default to the complex's own.  Homology reads
    d as it was when first read (`_ready_columns`): a caller that edits d
    in place, as make_minimal_support_basis does its bar complex, reads
    no homology of it.
    """

    def __init__(self, field, basis, d, augmented=False):
        self.field = field
        self.basis = {n: list(ids) for n, ids in basis.items() if ids}
        self.d = {}
        for n, cols in d.items():
            cols = {c: x for c, col in cols.items() if (x := dict(col) if all(
                col.values()) else {r: v for r, v in col.items() if v})}
            if cols:
                self.d[n] = cols
        self.augmented = augmented
        self.index = {}  # n -> {id: position in basis[n]}, filled by _index
        self._ready = {}  # (n, p) -> prepared columns, by _ready_columns

    @property
    def diffs(self):
        """{n: {(row_id, col_id): scalar}}, live views of the columns."""
        return {n: _Entries(cols) for n, cols in self.d.items()}

    def _index(self, n, ids):
        """{id: position} over ids, kept in index[n] if ids is basis[n]."""
        if ids is not self.basis.get(n):
            return {i: k for k, i in enumerate(ids)}
        if n not in self.index:
            self.index[n] = {i: k for k, i in enumerate(ids)}
        return self.index[n]

    @property
    def top(self):
        return max(self.basis, default=-1)

    def ranks(self):
        return tuple(len(self.basis.get(n, ())) for n in range(self.top + 1))

    def _rows(self, n):
        """Row ids of d_n; for n = 0 the row () of d_0."""
        if n or -1 in self.basis:
            return self.basis.get(n - 1, [])
        return [()] if 0 in self.d or self.augmented else []

    def matrix(self, n, rows=None, cols=None):
        """d_n as a SparseMatrix on the given row and column ids (default:
        the whole basis of degrees n-1 and n); entries outside them are
        dropped.  For n = 0 the row is (), if d_0 is stored.  Its
        columns are filled through the row index, which bounds every entry,
        so they skip SparseMatrix's checks."""
        if rows is None:
            rows = self._rows(n)
        if cols is None:
            cols = self.basis.get(n, [])
        rix = self._index(n - 1, rows)
        store = self.d.get(n, {})
        columns = {}
        for j, c in enumerate(cols):
            if x := {i: v for r, v in store.get(c, {}).items()
                     if (i := rix.get(r)) is not None}:
                columns[j] = x
        return SparseMatrix._of_columns(len(rows), len(cols), columns)

    def boundary(self, n, chain, F=None):
        """d_n of an n-chain, as a chain on the row ids of d_n in basis
        order: the sum of v * d_n[c] over the chain, read from its own
        columns only.  Stored values go through F, as order complexes keep
        raw signs."""
        F = F or self.field
        y, cols = {}, self.d.get(n, {})
        for c, v in self._in_degree(n, chain).items():
            if v := F(v):
                F.row_sub(y, F.neg(v), {r: F(w) for r, w in
                                        cols.get(c, {}).items()})
        rix = self._index(n - 1, self._rows(n))
        return {r: y[r] for r in sorted(y.keys() & rix.keys(), key=rix.get)}

    def _in_degree(self, n, ids=None):
        """ids (default: the basis of degree n), once each of them is known
        to lie in degree n; NotFound otherwise."""
        basis = self.basis.get(n, [])
        if ids is None:
            return basis
        ix = self._index(n, basis)
        for c in ids:
            if c not in ix:
                raise NotFound(f"id {c!r} not in degree {n}")
        return ids

    def kernel(self, n, cols=None, F=None):
        """Basis of the n-cycles supported on `cols` (default: all of
        degree n), echelonized as kernel_basis gives it, each a sparse
        chain in the order of `cols`."""
        F = F or self.field
        cols = self._in_degree(n, cols)
        return [{cols[j]: v for j, v in x.items()}
                for x in _kernel_vectors(self.matrix(n, cols=cols), F)]

    def preimage(self, n, chain, cols=None, F=None):
        """Some n-chain on `cols` (default: all of degree n) whose d_n is
        `chain`, or None if there is none."""
        F = F or self.field
        rows = self._rows(n)
        cols = self._in_degree(n, cols)
        b = _vector(self._index(n - 1, rows), chain, n - 1, F)
        x = solve(self.matrix(n, rows, cols), b, F)
        return None if x is None else {c: v for c, v in zip(cols, x) if v}

    def check_complex(self):
        """Raise NotAComplex unless d_n o d_{n+1} = 0 for every n >= 0, so
        eps o d_1 = 0 too where d_0 is stored.  Only the columns of d_{n+1}
        that exactla._suspect_columns picks (its docstring gives the mask
        tests) are composed with d_n, in plain Python numbers, exact for
        ints and Fractions alike, and reduced mod p only in the zero test;
        a complex with no field sums over the integers.  The first failing
        composite, in ascending n and then in the order of d_{n+1}, names
        its first nonzero entry.  GradedFreeComplex and ConicComplex run
        this last in their constructors, so each is a complex once built."""
        self._check_above(0)

    def _check_above(self, k):
        """check_complex on the composites d_{n-1} o d_n with n > k only:
        the differentials below d_k are left out.  The conic build checks
        each degree it adds this way before a verdict reads it."""
        if len(self.d) < 2:  # no two maps to compose
            return
        p = self.field.characteristic if self.field else 0
        diffs = [(self.basis.get(n, []), self.d.get(n, {}) if n >= k else {})
                 for n in range(max(self.d, default=0) + 1)]
        for n, c, col in _suspect_columns([()], diffs, self.field):
            lower = diffs[n - 1][1]
            comp = {}
            get = comp.get
            for mid, v in col.items():
                for r, w in lower.get(mid, {}).items():
                    comp[r] = get(r, 0) + v * w
            vals = comp.values()
            if any(map(mod, vals, repeat(p)) if p else vals):
                r = next(r for r, v in comp.items() if (v % p if p else v))
                raise NotAComplex(f"d_{n - 1} o d_{n} != 0, e.g. at {(r, c)}")

    def homology_ranks(self, F=None):
        """Nonzero homology ranks per degree; includes degree -1, spanned by
        the augmentation target, when augmented."""
        return self._homology_on(self.basis, F or self.field)

    def _homology_on(self, basis, F):
        """homology_ranks of the subcomplex on `basis` ({n: ids}, each list
        nonempty and in basis order).  Precondition: `basis` is closed
        under the boundary, every row of d_n at a column in basis[n] lying
        in basis[n - 1] (in () for d_0).  Every caller meets it: the whole
        basis, a down-set of apexes of a conic complex (hcw's
        _homology_below), and a strand of a complex with a degree_of,
        closed by homogeneity or by the monotone degree map (is_resolution).
        So no row needs dropping: each d_n is ranked on the columns
        _ready_columns prepared once for the whole complex, with no row
        index built, no entry filtered and no value converted.  The matrix
        keeps each column at its position in self.basis[n] and has the
        whole shape of d_n.

        The ranks of the differentials are taken top down, with clearing: a
        column of d_n is skipped when its position is the lowest row of a
        nonzero reduced column of d_{n+1}.  That reduced column is a cycle
        ending there, so the skipped column is a combination of the columns
        before it.  The rows of d_{n+1} and the columns of d_n are both
        positions in self.basis[n]."""
        lo = -1 if self.augmented else 0
        top = max(basis, default=-1)
        rk, lows = {}, set()  # rk[n] = rank of d_n, for n > lo
        for n in range(top, lo, -1):
            cleared, lows = lows, set()
            rows, cols, ready = self._ready_columns(n, F)
            A = SparseMatrix._of_columns(
                rows, cols, dict(map(ready.__getitem__, basis.get(n, ()))), F)
            rk[n] = rank(A, F, skip=cleared, lows=lows)
        out = {}
        for n in range(lo, top + 1):  # degree -1 is basis[-1] or ()
            size = len(basis[n]) if n in basis else int(n < 0)
            if h := size - rk.get(n, 0) - rk.get(n + 1, 0):
                out[n] = h
        return out

    def _ready_columns(self, n, F):
        """(rows, columns, {id: (position, column)}) for d_n over F: its
        shape, and each column id of basis[n] with its position there and
        its column in exactla's reduce-ready form (a bitmask over GF(2),
        else {row: F(v)}), each row the position of its id in the whole
        row basis of d_n; rows outside it are dropped, as `matrix` drops
        them.  Made on the first read per (n, F) and kept on the complex."""
        key = n, F.characteristic
        if key not in self._ready:
            rows = self._rows(n)
            rix = self._index(n - 1, rows)
            store = self.d.get(n, {})
            cols = self.basis.get(n, [])
            self._ready[key] = len(rows), len(cols), {
                c: (j, _ready({i: v for r, v in store.get(c, {}).items()
                               if (i := rix.get(r)) is not None}, F))
                for j, c in enumerate(cols)}
        return self._ready[key]

    def restrict(self, keep):
        """Plain ChainComplex on the basis ids in `keep`, with the
        differential entries among them and d_0's row ().  It is a
        subcomplex when `keep` contains the boundary support of each of
        its ids, e.g. every degree truncation of a homogeneous complex."""
        keep = {(), *keep}
        basis = {n: [i for i in ids if i in keep]
                 for n, ids in self.basis.items()}
        d = {n: {c: {r: v for r, v in cols[c].items() if r in keep}
                 for c in basis.get(n, ()) if c in cols}
             for n, cols in self.d.items()}
        return ChainComplex(self.field, basis, d, self.augmented)


class _Entries(MutableMapping):
    """{(row_id, col_id): scalar} view of the columns of one differential."""

    def __init__(self, cols):
        self.cols = cols

    def __getitem__(self, rc):
        return self.cols[rc[1]][rc[0]]

    def __setitem__(self, rc, v):
        self.cols.setdefault(rc[1], {})[rc[0]] = v

    def __delitem__(self, rc):
        del self.cols[rc[1]][rc[0]]

    def __iter__(self):
        return ((r, c) for c, col in self.cols.items() for r in col)

    def __len__(self):
        return sum(map(len, self.cols.values()))


def _vector(ix, chain, n, F):
    """A chain of degree n as a list over the positions `ix` gives."""
    x = [F.zero] * len(ix)
    for i, v in chain.items():
        if i not in ix:
            raise NotFound(f"id {i!r} not in degree {n}")
        x[ix[i]] = F(v)
    return x


def _in_field(d, F):
    """The column store d with every scalar as F gives it: d itself when its
    values are all ints that F keeps (any int over Q, 0..p-1 over GF(p)),
    checked without a call per entry, else a copy made through F."""
    vals = [v for cols in d.values() for col in cols.values()
            for v in col.values()]
    p = F.characteristic
    if {int}.issuperset(map(type, vals)) and (
            not p or 0 <= min(vals, default=0) and max(vals, default=0) < p):
        return d
    return {n: {c: {r: F(v) for r, v in col.items()}
                for c, col in cols.items()} for n, cols in d.items()}


def _check_placed(C):
    """Raise ShapeError unless every column of C.d lies in its degree with
    its rows one degree below, and every entry is homogeneous.  Homogeneity
    is tested once per distinct pair of row and column degrees; the row
    sets this keeps per column degree are freed on return, before d o d is
    checked."""
    deg = C.degree_of
    under = defaultdict(set)  # column degree -> the rows of its columns
    for n, cols in C.d.items():
        rows = set(C.basis.get(n - 1, ()))
        for c, col in cols.items():
            if C.hdeg_of.get(c) != n or not rows.issuperset(col):
                r = next((r for r in col if r not in rows), next(iter(col)))
                raise ShapeError(f"entry ({r},{c}) misplaced in degree {n}")
            under[deg[c]].update(col)
    for dc, ids in under.items():
        if not all(divides(dr, dc) for dr in set(map(deg.__getitem__, ids))):
            r, c = next((r, c) for cols in C.d.values()
                        for c, col in cols.items() for r in col
                        if not divides(deg[r], deg[c]))
            raise ShapeError(f"inhomogeneous entry ({r},{c}): "
                             f"deg {deg[c]} - {deg[r]} < 0")


class GradedFreeComplex(ChainComplex):
    """Chain complex of free Z^m-graded modules with a labeled basis.

    labels: dict n -> ordered list of (id, multidegree)
    d:      dict n -> {col_id: {row_id: scalar}} for n >= 1, the columns
            of d_n: F_n -> F_{n-1}; a scalar is the bar (field) coefficient.

    Scalars are stored as `field` gives them, and entries that vanish in
    the field are dropped; a value outside the field raises InvalidField.
    Placement is checked per column, homogeneity per distinct pair of row
    and column degrees, and then d o d = 0 (check_complex): a
    GradedFreeComplex is a complex by construction.
    """

    def __init__(self, num_vars, field, labels, d):
        self.num_vars = num_vars
        # an (id, degree tuple) pair is shared, not copied: taylor_complex's
        # 2^r - 1 labels would otherwise be held twice while d o d is checked
        self.labels = {n: [x if type(x) is tuple and type(d) is tuple
                           else (i, tuple(d)) for x in labs for i, d in [x]]
                       for n, labs in labels.items() if labs}
        super().__init__(field, {n: [i for i, _ in labs]
                                 for n, labs in self.labels.items()},
                         _in_field(d, field))
        self.hdeg_of = {i: n for n, ids in self.basis.items() for i in ids}
        self.degree_of = {}
        for labs in self.labels.values():
            for i, d in labs:
                if i in self.degree_of:
                    raise ShapeError(f"duplicate basis id {i!r}")
                if len(d) != num_vars:
                    raise ShapeError(f"label degree length != num_vars for {i!r}")
                self.degree_of[i] = d
        _check_placed(self)
        self.check_complex()

    def exponent(self, r, c):
        """Monomial exponent of the entry at (row r, column c)."""
        dr, dc = self.degree_of[r], self.degree_of[c]
        return tuple(b - a for a, b in zip(dr, dc))

    def column(self, b):
        """Differential image of basis element b as a new {row_id: scalar}."""
        n = self.hdeg_of.get(b)
        if n is None:
            raise NotFound(f"unknown basis id {b!r}")
        return dict(self.d.get(n, {}).get(b, {}))

    def is_minimal(self):
        deg = self.degree_of
        return not any(deg[c] in map(deg.__getitem__, col)
                       for cols in self.d.values() for c, col in cols.items())

    def to_json(self):
        return {
            "num_vars": self.num_vars,
            "characteristic": self.field.characteristic,
            "basis": [[{"id": i, "degree": list(d)}
                       for i, d in self.labels.get(n, [])]
                      for n in range(self.top + 1)],
            "differentials": [
                [{"row_id": r, "col_id": c, "scalar": _scalar_json(v),
                  "exponent": list(self.exponent(r, c))}
                 for (r, c), v in sorted(self.diffs.get(n, {}).items(),
                                         key=lambda kv: (str(kv[0][1]), str(kv[0][0])))]
                for n in range(1, self.top + 1)],
        }

    @classmethod
    @malformed("complex JSON")
    def from_json(cls, obj):
        F = FieldSpec(obj.get("characteristic", 0))
        labels = {n: [(e["id"], tuple(e["degree"])) for e in labs]
                  for n, labs in enumerate(obj["basis"])}
        if any(type(x) is not int or x < 0 for x in [obj["num_vars"], *(
                x for labs in labels.values() for _, d in labs for x in d)]):
            raise ShapeError("num_vars and degree entries must be integers >= 0")
        d = {}
        for k, mat in enumerate(obj.get("differentials", [])):
            cols = d[k + 1] = {}
            for e in mat:
                key = r, c = e["row_id"], e["col_id"]
                if r in cols.setdefault(c, {}):
                    raise ShapeError(f"duplicate matrix entry {key}")
                cols[c][r] = F(e["scalar"])
        C = cls(obj["num_vars"], F, labels, d)
        # validate declared exponents against the labels
        for e in (e for mat in obj.get("differentials", []) for e in mat):
            if "exponent" in e:
                exp = tuple(e["exponent"])
                if exp != C.exponent(e["row_id"], e["col_id"]):
                    raise ShapeError(
                        f"declared exponent {exp} inconsistent with labels "
                        f"at ({e['row_id']},{e['col_id']})")
        return C


def _scalar_json(v):
    return int(v) if v.denominator == 1 else str(v)


class BettiTable:
    """Map (homological degree, multidegree) -> rank."""

    def __init__(self, entries):
        self.entries = {k: v for k, v in entries.items() if v}
        if any(v < 0 for v in self.entries.values()):
            raise ShapeError("negative Betti number")

    def totals(self):
        by_i = {}
        for (i, _), v in self.entries.items():
            by_i[i] = by_i.get(i, 0) + v
        top = max(by_i, default=-1)
        return tuple(by_i.get(i, 0) for i in range(top + 1))

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def to_json(self):
        return {"entries": [{"i": i, "deg": list(d), "beta": v}
                            for (i, d), v in sorted(self.entries.items())]}


def taylor_complex(ideal, F):
    """Taylor complex of a monomial ideal: one generator per nonempty subset
    of the minimal generators, labeled by the subset lcm, with the standard
    alternating-sign differential.  More than TAYLOR_CAP generators raise
    TooLarge.

    A face's lcm comes from a memo keyed by (parent face's lcm, added
    generator), which holds one tuple per element of the lcm lattice: one
    `lcm` call per distinct key, and equal labels share one degree tuple."""
    gens = ideal.generators
    r = len(gens)
    if r > TAYLOR_CAP:
        raise TooLarge(f"{r} generators exceeds the Taylor cap {TAYLOR_CAP}")
    sign = (F(1), F(-1))
    # bitmask of a subset -> (id, lcm) for the subsets of one size; each
    # subset of the next size adds one larger index to one of them, in lex
    # order, and its faces clear one bit each, lowest first.  join maps
    # (parent lcm, k) to the lcm, as the one tuple `one` keeps per value.
    prev = {1 << k: (f"t{k}", g) for k, g in enumerate(gens)}
    labels = {0: list(prev.values())}
    join, one = {}, {g: g for g in gens}
    d = {}
    for n in range(1, r):
        cur = {}
        for S, (sid, deg) in prev.items():
            for k in range(S.bit_length(), r):
                if (x := join.get((deg, k))) is None:
                    x = lcm(deg, gens[k])
                    x = join[deg, k] = one.setdefault(x, x)
                cur[S | 1 << k] = (f"{sid}.{k}", x)
        labels[n] = list(cur.values())
        cols = d[n] = {}
        for S, (cid, _) in cur.items():
            col = cols[cid] = {}
            m, j = S, 0
            while m:
                b = m & -m
                col[prev[S ^ b][0]] = sign[j & 1]
                m ^= b
                j += 1
        prev = cur
    return GradedFreeComplex(ideal.num_vars, F, labels, d)


def minimize(C):
    """Cancel all unit (exponent-zero) entries, yielding a quasi-isomorphic
    complex with no invertible entries in any differential.

    The result is that of one sweep per differential, d_1 first, on a copy
    of its columns without the rows cancelled as pivot columns of d_{n-1}:
    the rows are swept in label order, each pivoted on the lowest-position
    column holding a unit in it then, and a pivot on (r0, c0) clears row
    r0 from every other column with `row_sub`.  Columns cancelled as pivot
    rows of d_{n+1} are left out.  The sweep runs in two phases.

    Phase 1 (`_unit_pivots`) finds the pivots on the unit parts of the
    columns only (rows of the column's own multidegree).  Entries are
    homogeneous, so a pivot at multidegree alpha changes unit entries only
    in columns of degree alpha, and only through its own unit part: the
    unit parts evolve as in the full sweep.  It finds them in one column
    sweep, each column reduced by its top row against the pivot columns
    before it.  The row sweep and the column sweep both add only earlier
    columns to later ones and end with distinct top rows, and the pairs
    such a reduction ends with are unique (the pairing lemma of
    Cohen-Steiner, Edelsbrunner and Morozov, "Vines and vineyards", 2006),
    so phase 1 finds the row sweep's pivots.  A pivot column whose unit
    part is its own row alone once reduced makes that row dead: reducing
    by it only deletes the row, so phase 1 drops dead rows wherever they
    appear instead, and reduces no column by their pivots.

    Phase 2 reduces only the kept columns, those that are neither pivot
    columns of d_n nor pivot rows of d_{n+1} (`_kept_columns`).  Each is
    cleared of its pivot rows in label order, with the pivot columns as
    the sweep had them; fill-in adds only later pivot rows, as a pivot
    column holds no earlier one.  A pivot column is reduced the same way
    up to its own row, on demand and once.  A column's `row_sub` calls
    depend only on itself and on those pivot columns, so its values, dict
    order and scalar types are the full sweep's.
    """
    pos = {i: k for labs in C.labels.values() for k, (i, _) in enumerate(labs)}
    pivots = _unit_pivots(C, pos)
    dead, store = set(), {}
    for n, piv in pivots.items():
        dead.update(piv, piv.values())
        gone = pivots.get(n + 1, {}).keys() | piv.values()
        below = set(pivots.get(n - 1, {}).values())
        store[n] = _kept_columns(C, n, gone, piv, below, pos)
    labels = {n: [(i, d) for i, d in labs if i not in dead]
              for n, labs in C.labels.items()}
    out = GradedFreeComplex(C.num_vars, C.field, labels, store)
    if not out.is_minimal():
        raise VerificationError("minimization left a unit entry")
    return out


def _unit_pivots(C, pos):
    """Phase 1 of `minimize`: {n: {r0: c0}}, the pivots of each d_n, d_1
    first.  The columns of d_n are walked in label order, each as its unit
    part without the rows in `below` (the pivot columns of d_{n-1}), and
    reduced by its top row, the one of least position, against the pivots
    found so far, through a heap of row positions.  A column whose top row
    has no pivot yet becomes that row's pivot, kept as (1/unit, the rest)
    for the columns after it.

    A row is dead once its pivot column's rest is empty: reducing by that
    pivot only deletes the row, and touches no other entry.  So dead rows
    join `gone` with the rows in `below`: they are dropped from each unit
    part when it is read and from each fill-in, never pushed.  A dead row
    has a pivot, so it is never a top row, and every column ends with the
    top row and pivot it would have had reduced by the dead pivots."""
    F, deg = C.field, C.degree_of
    pivots = {}
    for n in sorted(C.d):
        gone = set(pivots.get(n - 1, {}).values())  # below, then dead rows
        ids, cols = C.basis[n - 1], C.d[n]
        piv = pivots[n] = {}
        done = {}  # r0 -> (1/unit, rest) of its pivot column, rest nonempty
        for c in C.basis[n]:
            dc = deg[c]
            x = {r: v for r, v in cols.get(c, {}).items()
                 if r not in gone and deg[r] == dc}
            heap = [pos[r] for r in x]
            heapify(heap)
            while heap:
                r = ids[heappop(heap)]
                if r not in x:
                    continue
                if r not in done:
                    piv[r] = c
                    u = x.pop(r)
                    if x:
                        done[r] = F.inv(u), x
                    else:
                        gone.add(r)
                    break
                uinv, rest = done[r]
                F.row_sub(x, F.mul(uinv, x.pop(r)), rest)
                for r in rest:
                    if r in gone:  # died after this rest was stored
                        x.pop(r, None)
                    else:
                        heappush(heap, pos[r])
    return pivots


def _kept_columns(C, n, gone, piv, below, pos):
    """Phase 2 of `minimize` on d_n: {c: column} for every column c not in
    `gone`, as the sweep leaves it.  A column loses the rows in `below`
    (the pivot columns of d_{n-1}) and is cleared of the pivot rows of
    `piv` ({r0: c0}) in label order, through a heap of their positions.
    A pivot column met on the way is reduced the same way up to its own
    row, then kept as (1/unit, rest, positions of its pivot rows); the
    columns under reduction wait on a stack, with no recursion, so that
    nothing here outlives the call."""
    F, ids, cols = C.field, C.basis[n - 1], C.d[n]
    row_of = {c0: r0 for r0, c0 in piv.items()}
    done, out = {}, {}
    for c in cols:
        if c in gone:
            continue
        stack, work = [c], {}
        while stack:
            b = stack[-1]
            if b not in work:
                x = {r: v for r, v in cols[b].items() if r not in below}
                heap = [pos[r] for r in x if r in piv]
                heapify(heap)
                work[b] = x, heap
            x, heap = work[b]
            stop = pos[row_of[b]] if b in row_of else len(ids)
            while heap and heap[0] < stop:
                r = ids[heap[0]]
                if r not in x:
                    heappop(heap)
                    continue
                if piv[r] not in done:
                    stack.append(piv[r])
                    break
                heappop(heap)
                uinv, vec, later = done[piv[r]]
                v = x.pop(r)
                if vec:
                    F.row_sub(x, F.mul(uinv, v), vec)
                    for k in later:
                        heappush(heap, k)
            else:
                stack.pop()
                if b in row_of:
                    uinv = F.inv(x.pop(row_of[b]))
                    done[b] = uinv, x, [pos[r] for r in x if r in piv]
                else:
                    out[b] = x
    return out


def bar_reduce(C):
    """Tensor with k[x]/(x_1-1,...,x_m-1): a plain ChainComplex of the
    scalars, with d_0 the augmentation, 1 on every degree-0 basis element."""
    d0 = {i: {(): C.field.one} for i in C.basis.get(0, [])}
    return ChainComplex(C.field, C.basis, {0: d0, **C.d})


def strand(C, alpha):
    """Homogeneous strand of degree alpha, as a plain ChainComplex: the
    basis ids whose degree_of divides alpha, with the entries among them."""
    return C.restrict(i for i, d in C.degree_of.items() if divides(d, alpha))


def betti_table(C):
    """Multigraded Betti numbers read off a minimal complex's labels."""
    if not C.is_minimal():
        raise NotMinimal("complex has a unit entry; Betti labels unreliable")
    return BettiTable(Counter((n, d) for n, labs in C.labels.items()
                              for _, d in labs))


def is_resolution(C):
    """Strand-wise exactness test of a complex with a degree_of: every
    strand at a join of basis degrees must have homology {0: 1}.  The joins
    are those of the degree-0 labels, widened to all basis degrees when a
    label lies off that lattice.  Returns (ok, report), the report mapping
    each checked degree, in sorted order, to its strand's homology.  The
    complexes with a degree_of check d o d = 0 when built; any other
    complex raises ShapeError.

    The strands are read in place, with no complex built for them.  Every
    basis id has a bit, degree by degree in basis order; for each
    coordinate k and threshold t one mask holds the ids whose degree has
    k-th entry <= t, so the strand at alpha is the AND of one mask per
    coordinate.  Its homology is C._homology_on its ids: the ranks of C's
    own columns on them."""
    deg = getattr(C, "degree_of", {})
    deg0 = [deg[i] for i in C.basis.get(0, []) if i in deg]
    if not deg0:
        raise ShapeError("no degree-0 basis with a degree")
    lattice = join_closure(deg0)
    if not lattice.issuperset(deg.values()):
        lattice = join_closure(deg.values())
    alphas = sorted(lattice)
    at = [defaultdict(int) for _ in alphas[0]]  # at[k][t]: mask of entry <= t
    spans, pos = [], 0  # (n, basis[n], position of its first bit)
    for n in sorted(C.basis):
        ids = C.basis[n]
        spans.append((n, ids, pos))
        for j, i in enumerate(ids, pos):
            for k, t in enumerate(deg.get(i, ())):
                at[k][t] |= 1 << j
        pos += len(ids)
    for masks in at:  # every alpha[k] is the k-th entry of some id's degree
        acc = 0
        for t in sorted(masks):
            acc = masks[t] = acc | masks[t]
    report = {}
    for a in alphas:
        x = (1 << pos) - 1
        for masks, t in zip(at, a):
            x &= masks[t]
        # bin(y)[:1:-1] lists the bits of y from bit 0 up
        basis = {n: list(compress(ids, map(int, bin(y)[:1:-1])))
                 for n, ids, j in spans if (y := x >> j & (1 << len(ids)) - 1)}
        report[a] = C._homology_on(basis, C.field)
    return all(h == {0: 1} for h in report.values()), report
