"""Z^m-graded chain complexes of free modules with labeled homogeneous bases.

Because every differential entry is forced to be homogeneous, an entry from
basis element b to basis element c is scalar * x^(deg b - deg c); we store
only the scalar and derive the exponent from the labels.  The field complex
base, Taylor complex, minimization, bar reduction, graded strands and Betti
tables all live here.
"""

import heapq
from collections import defaultdict
from math import lcm as lcm_ints

from .errors import (NotAComplex, NotFound, NotMinimal, ShapeError, TooLarge,
                     VerificationError, malformed)
from .exactla import SparseMatrix, kernel_basis, rank, solve
from .monomials import divides, join_closure, lcm

TAYLOR_CAP = 16


class ChainComplex:
    """Field chain complex on an ordered basis of hashable ids.

    basis:     dict n -> ordered list of the basis ids in degree n
    diffs:     dict n -> {(row_id, col_id): scalar} for n >= 1
    aug:       dict degree-0 id -> scalar, the augmentation (may be empty)
    augmented: whether homology_ranks counts aug, giving degree -1

    d_0 is the augmentation, onto one row with the id ().  Chains are
    {id: scalar} dicts; an id outside its degree raises NotFound.  Methods
    taking a field F default to the complex's own.
    """

    def __init__(self, field, basis, diffs, aug=None, augmented=False):
        self.field = field
        self.basis = {n: list(ids) for n, ids in basis.items() if ids}
        self.diffs = {n: {k: v for k, v in mat.items() if v}
                      for n, mat in diffs.items()}
        self.diffs = {n: m for n, m in self.diffs.items() if m}
        self.aug = dict(aug or {})
        self.augmented = augmented
        self.index = {}  # n -> {id: position in basis[n]}, filled by _index
        self._is_complex = False  # set once check_complex has passed

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
        """Row ids of d_n; for n = 0 the augmentation target ()."""
        if n or -1 in self.basis:
            return self.basis.get(n - 1, [])
        return [()] if self.aug or self.augmented else []

    def matrix(self, n, rows=None, cols=None):
        """d_n as a SparseMatrix on the given row and column ids (default:
        the whole basis of degrees n-1 and n); entries outside them are
        dropped.  n = 0 gives the augmentation row, if there is one."""
        if rows is None:
            rows = self._rows(n)
        if cols is None:
            cols = self.basis.get(n, [])
        rix, cix = self._index(n - 1, rows), self._index(n, cols)
        items = (self.diffs.get(n, {}).items() if n else
                 [(((), c), v) for c, v in self.aug.items() if v])
        entries = [(i, j, v) for (r, c), v in items
                   if (j := cix.get(c)) is not None
                   and (i := rix.get(r)) is not None]
        return SparseMatrix(len(rows), len(cols), entries)

    def boundary(self, n, chain, F=None):
        """d_n of an n-chain, as a chain on the row ids of d_n."""
        F = F or self.field
        x = _vector(self._index(n, self.basis.get(n, [])), chain, n, F)
        y = self.matrix(n).mul_vec(x, F)
        return {r: v for r, v in zip(self._rows(n), y) if v}

    def kernel(self, n, cols=None, F=None):
        """Basis of the n-cycles supported on `cols` (default: all of
        degree n), echelonized as kernel_basis gives it."""
        F = F or self.field
        cols = self.basis.get(n, []) if cols is None else cols
        return [{c: x for c, x in zip(cols, v) if x}
                for v in kernel_basis(self.matrix(n, cols=cols), F)]

    def preimage(self, n, chain, rows=None, cols=None, F=None):
        """Some n-chain on `cols` whose d_n agrees with `chain` on `rows`
        (defaults as for matrix), or None if there is none."""
        F = F or self.field
        rows = self._rows(n) if rows is None else rows
        cols = self.basis.get(n, []) if cols is None else cols
        b = _vector(self._index(n - 1, rows), chain, n - 1, F)
        x = solve(self.matrix(n, rows, cols), b, F)
        return None if x is None else {c: v for c, v in zip(cols, x) if v}

    def check_complex(self):
        """Raise NotAComplex unless every consecutive composite vanishes.

        Each differential is scaled by the lcm of its denominators, which
        does not change whether a composite vanishes, and the composite is
        summed in integers (reduced mod p at the end over GF(p)), one
        column of d_{n+1} at a time.  Complexes are not mutated, so a pass
        is recorded and a later call returns at once."""
        if self._is_complex:
            return
        p = self.field.characteristic
        by_col = {}  # n -> {column id: {row id: integer entry}}
        for n, mat in self.diffs.items():
            L = lcm_ints(*(v.denominator for v in mat.values()))
            cols = by_col[n] = {}
            for (r, c), v in mat.items():
                cols.setdefault(c, {})[r] = (
                    v if L == 1 else v.numerator * (L // v.denominator))
        for n in sorted(by_col):
            lower = by_col[n]
            for c, col in by_col.get(n + 1, {}).items():
                comp = {}
                for mid, v in col.items():
                    for r, w in lower.get(mid, {}).items():
                        comp[r] = comp.get(r, 0) + v * w
                for r, v in comp.items():
                    if v % p if p else v:
                        raise NotAComplex(
                            f"d_{n} o d_{n + 1} != 0, e.g. at {(r, c)}")
        self._is_complex = True

    def homology_ranks(self, F=None):
        """Nonzero homology ranks per degree; includes degree -1, spanned by
        the augmentation target, when augmented."""
        F = F or self.field
        top, out, rk = self.top, {}, 0  # rk = rank of d_n
        for n in range(-1 if self.augmented else 0, top + 1):
            rk_up = rank(self.matrix(n + 1), F) if n < top else 0
            h = len(self._rows(n + 1)) - rk - rk_up
            if h:
                out[n] = h
            rk = rk_up
        return out

    def is_exact(self):
        return not self.homology_ranks()

    def restrict(self, keep):
        """Plain ChainComplex on the basis ids in `keep`, with the
        differential and augmentation entries among them.  It is a
        subcomplex when `keep` contains the boundary support of each of
        its ids, e.g. every degree truncation of a homogeneous complex."""
        keep = set(keep)
        basis = {n: [i for i in ids if i in keep]
                 for n, ids in self.basis.items()}
        diffs = {n: {(r, c): v for (r, c), v in mat.items()
                     if c in keep and r in keep}
                 for n, mat in self.diffs.items()}
        aug = {i: v for i, v in self.aug.items() if i in keep}
        return ChainComplex(self.field, basis, diffs, aug, self.augmented)


def _vector(ix, chain, n, F):
    """A chain of degree n as a list over the positions `ix` gives."""
    x = [F.zero] * len(ix)
    for i, v in chain.items():
        if i not in ix:
            raise NotFound(f"id {i!r} not in degree {n}")
        x[ix[i]] = F(v)
    return x


def _in_field(diffs, F):
    """diffs with every scalar as F gives it: diffs itself when its values
    are all ints that F keeps (any int over Q, 0..p-1 over GF(p)), checked
    without a call per entry, else a copy made through F."""
    vals = [v for mat in diffs.values() for v in mat.values()]
    p = F.characteristic
    if {int}.issuperset(map(type, vals)) and (
            not p or 0 <= min(vals, default=0) and max(vals, default=0) < p):
        return diffs
    return {n: {k: F(v) for k, v in mat.items()} for n, mat in diffs.items()}


class GradedFreeComplex(ChainComplex):
    """Chain complex of free Z^m-graded modules with a labeled basis.

    labels: dict n -> ordered list of (id, multidegree)
    diffs:  dict n -> {(row_id, col_id): scalar}  for n >= 1, mapping F_n
            into F_{n-1}; the scalar is the bar (field) coefficient.

    Scalars are stored as `field` gives them, and entries that vanish in
    the field are dropped; a value outside the field raises InvalidField.
    """

    def __init__(self, num_vars, field, labels, diffs):
        self.num_vars = num_vars
        self.labels = {n: [(i, tuple(d)) for i, d in labs]
                       for n, labs in labels.items() if labs}
        super().__init__(field, {n: [i for i, _ in labs]
                                 for n, labs in self.labels.items()},
                         _in_field(diffs, field))
        self.hdeg_of = {i: n for n, ids in self.basis.items() for i in ids}
        self.degree_of = {}
        for labs in self.labels.values():
            for i, d in labs:
                if i in self.degree_of:
                    raise ShapeError(f"duplicate basis id {i!r}")
                if len(d) != num_vars:
                    raise ShapeError(f"label degree length != num_vars for {i!r}")
                self.degree_of[i] = d
        homogeneous = set()  # (row degree, column degree) pairs checked
        for n, mat in self.diffs.items():
            for r, c in mat:
                if self.hdeg_of.get(c) != n or self.hdeg_of.get(r) != n - 1:
                    raise ShapeError(f"entry ({r},{c}) misplaced in degree {n}")
                degs = self.degree_of[r], self.degree_of[c]
                if degs not in homogeneous:
                    if not divides(*degs):
                        raise ShapeError(f"inhomogeneous entry ({r},{c}): "
                                         f"deg {degs[1]} - {degs[0]} < 0")
                    homogeneous.add(degs)

    def exponent(self, r, c):
        """Monomial exponent of the entry at (row r, column c)."""
        dr, dc = self.degree_of[r], self.degree_of[c]
        return tuple(b - a for a, b in zip(dr, dc))

    def column(self, b):
        """Differential image of basis element b as {row_id: scalar}."""
        n = self.hdeg_of.get(b)
        if n is None:
            raise NotFound(f"unknown basis id {b!r}")
        return {r: v for (r, c), v in self.diffs.get(n, {}).items() if c == b}

    def is_minimal(self):
        for n, mat in self.diffs.items():
            for (r, c) in mat:
                if self.degree_of[r] == self.degree_of[c]:
                    return False
        return True

    def to_json(self):
        out = {
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
        return out

    @classmethod
    @malformed("complex JSON")
    def from_json(cls, obj, field=None):
        from .exactla import FieldSpec
        F = field if field is not None else FieldSpec(obj.get("characteristic", 0))
        labels = {n: [(e["id"], tuple(e["degree"])) for e in labs]
                  for n, labs in enumerate(obj["basis"])}
        if any(type(x) is not int or x < 0 for x in [obj["num_vars"], *(
                x for labs in labels.values() for _, d in labs for x in d)]):
            raise ShapeError("num_vars and degree entries must be integers >= 0")
        diffs = {}
        for k, mat in enumerate(obj.get("differentials", [])):
            n = k + 1
            diffs[n] = {}
            for e in mat:
                key = (e["row_id"], e["col_id"])
                if key in diffs[n]:
                    raise ShapeError(f"duplicate matrix entry {key}")
                diffs[n][key] = F(e["scalar"])
        C = cls(obj["num_vars"], F, labels, diffs)
        # validate declared exponents against the labels
        for k, mat in enumerate(obj.get("differentials", [])):
            for e in mat:
                if "exponent" in e:
                    exp = tuple(e["exponent"])
                    if exp != C.exponent(e["row_id"], e["col_id"]):
                        raise ShapeError(
                            f"declared exponent {exp} inconsistent with labels "
                            f"at ({e['row_id']},{e['col_id']})")
        return C


def _scalar_json(v):
    from fractions import Fraction
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return int(v)


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

    def degrees(self):
        return sorted({d for (_, d) in self.entries})

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def to_json(self):
        return {"entries": [{"i": i, "deg": list(d), "beta": v}
                            for (i, d), v in sorted(self.entries.items())]}


def taylor_complex(ideal, F):
    """Taylor complex of a monomial ideal: one generator per nonempty subset
    of the minimal generators, labeled by the subset lcm, with the standard
    alternating-sign differential.  More than TAYLOR_CAP generators raise
    TooLarge."""
    gens = ideal.generators
    r = len(gens)
    if r > TAYLOR_CAP:
        raise TooLarge(f"{r} generators exceeds the Taylor cap {TAYLOR_CAP}")
    sign = (F(1), F(-1))
    # subset -> (id, lcm) for the subsets of one size; each subset of the
    # next size extends one of them by a larger index, in lex order
    prev = {(k,): (f"t{k}", g) for k, g in enumerate(gens)}
    labels = {0: list(prev.values())}
    diffs = {}
    for n in range(1, r):
        cur = {S + (k,): (f"{sid}.{k}", lcm(deg, gens[k]))
               for S, (sid, deg) in prev.items()
               for k in range(S[-1] + 1, r)}
        labels[n] = list(cur.values())
        diffs[n] = {(prev[S[:j] + S[j + 1:]][0], cid): sign[j % 2]
                    for S, (cid, _) in cur.items() for j in range(n + 1)}
        prev = cur
    return GradedFreeComplex(ideal.num_vars, F, labels, diffs)


def minimize(C):
    """Cancel all unit (exponent-zero) entries, yielding a quasi-isomorphic
    complex with no invertible entries in any differential.

    Elimination runs on one differential at a time, d_1 first.  Pivots are
    chosen deterministically: within a degree row-major in the label order,
    from a heap of (row, column) positions that skips pairs whose entry is
    gone.  A pivot on a unit at (r0, c0) clears row r0 from every other
    column with `row_sub`.  Rows cancelled as pivot columns of d_{n-1} are
    skipped when d_n is read; columns cancelled as pivot rows of d_{n+1}
    are dropped from the output.  Entries are homogeneous, so a new unit
    can only appear where both degrees equal the pivot's.
    """
    C.check_complex()
    F, deg = C.field, C.degree_of
    pos = {i: k for labs in C.labels.values() for k, (i, _) in enumerate(labs)}
    dead, cols = set(), {}  # dead: every cancelled basis id
    for n in sorted(C.diffs):
        col = cols[n] = defaultdict(dict)  # {c: {r: v}}
        rows = defaultdict(set)  # {r: every column that held an entry in r}
        for (r, c), v in C.diffs[n].items():
            x = col[c]  # placed even if all its rows are dead
            if r not in dead:
                x[r] = v
                rows[r].add(c)
        heap = [(pos[r], pos[c], r, c) for c, x in col.items()
                for r in x if deg[r] == deg[c]]
        heapq.heapify(heap)
        while heap:
            _, _, r0, c0 = heapq.heappop(heap)
            if r0 not in col.get(c0, ()):
                continue
            pivot = col.pop(c0)
            uinv = F.inv(pivot.pop(r0))
            alpha = deg[c0]
            at_alpha = [r for r in pivot if deg[r] == alpha]
            for c2 in rows.pop(r0):
                x = col.get(c2, {})
                v = x.pop(r0, None)
                if v is None or not pivot:  # most pivots clear only row r0
                    continue
                new = ([r for r in at_alpha if r not in x]
                       if deg[c2] == alpha else ())
                F.row_sub(x, F.mul(uinv, v), pivot)
                for r in pivot:
                    rows[r].add(c2)
                for r in new:
                    heapq.heappush(heap, (pos[r], pos[c2], r, c2))
            dead.update((r0, c0))

    labels = {n: [(i, d) for i, d in labs if i not in dead]
              for n, labs in C.labels.items()}
    diffs = {n: {(r, c): v for c, x in col.items() if c not in dead
                 for r, v in x.items()}
             for n, col in cols.items()}
    out = GradedFreeComplex(C.num_vars, F, labels, diffs)
    out.check_complex()
    if not out.is_minimal():
        raise VerificationError("minimization left a unit entry")
    return out


def bar_reduce(C):
    """Tensor with k[x]/(x_1-1,...,x_m-1): a plain ChainComplex of the
    scalars.  The augmentation sends every degree-0 basis element to 1."""
    aug = dict.fromkeys(C.basis.get(0, []), C.field.one)
    return ChainComplex(C.field, C.basis, C.diffs, aug)


def strand(C, alpha):
    """Homogeneous strand of degree alpha, as a plain ChainComplex: the
    basis ids whose degree_of divides alpha, with the entries among them."""
    return C.restrict(i for i, d in C.degree_of.items() if divides(d, alpha))


def betti_table(C):
    """Multigraded Betti numbers read off a minimal complex's labels."""
    if not C.is_minimal():
        raise NotMinimal("complex has a unit entry; Betti labels unreliable")
    entries = {}
    for n, labs in C.labels.items():
        for _, d in labs:
            entries[(n, d)] = entries.get((n, d), 0) + 1
    return BettiTable(entries)


def is_resolution(C):
    """Strand-wise exactness test of a complex with a degree_of: every
    strand at a join of basis degrees must have homology {0: 1}.  The joins
    are those of the degree-0 labels, widened to all basis degrees when a
    label lies off that lattice.  Returns (ok, report), the report mapping
    each checked degree, in sorted order, to its strand's homology."""
    C.check_complex()
    deg0 = [C.degree_of[i] for i in C.basis.get(0, []) if i in C.degree_of]
    if not deg0:
        raise ShapeError("no degree-0 basis with a degree")
    lattice = join_closure(deg0)
    if not lattice.issuperset(C.degree_of.values()):
        lattice = join_closure(C.degree_of.values())
    report = {alpha: strand(C, alpha).homology_ranks()
              for alpha in sorted(lattice)}
    return all(h == {0: 1} for h in report.values()), report
