"""Z^m-graded chain complexes of free modules with labeled homogeneous bases.

Because every differential entry is forced to be homogeneous, an entry from
basis element b to basis element c is scalar * x^(deg b - deg c); we store
only the scalar and derive the exponent from the labels.  The field complex
base, Taylor complex, minimization, bar reduction, graded strands and Betti
tables all live here.
"""

from itertools import combinations

from .errors import (NotAComplex, NotFound, NotMinimal, ShapeError, TooLarge,
                     VerificationError, malformed)
from .exactla import SparseMatrix, rank
from .monomials import divides, join_closure, lcm

TAYLOR_CAP = 16


class ChainComplex:
    """Field chain complex on an ordered basis of hashable ids.

    basis:     dict n -> ordered list of the basis ids in degree n
    diffs:     dict n -> {(row_id, col_id): scalar} for n >= 1
    aug:       dict degree-0 id -> scalar, the augmentation (may be empty)
    augmented: whether homology_ranks counts aug, giving degree -1
    """

    def __init__(self, field, basis, diffs, aug=None, augmented=False):
        self.field = field
        self.basis = {n: list(ids) for n, ids in basis.items() if ids}
        self.diffs = {n: {k: v for k, v in mat.items() if v}
                      for n, mat in diffs.items()}
        self.diffs = {n: m for n, m in self.diffs.items() if m}
        self.aug = dict(aug or {})
        self.augmented = augmented
        self.hdeg_of = {i: n for n, ids in self.basis.items() for i in ids}

    @property
    def top(self):
        return max(self.basis, default=-1)

    def ranks(self):
        return tuple(len(self.basis.get(n, ())) for n in range(self.top + 1))

    def matrix(self, n, rows=None, cols=None):
        """d_n as a SparseMatrix on the given row and column ids (default:
        the whole basis of degrees n-1 and n); entries outside them are
        dropped.  n = 0 gives the augmentation row, if there is one."""
        if cols is None:
            cols = self.basis.get(n, [])
        cix = {c: j for j, c in enumerate(cols)}
        if n == 0:
            entries = [(0, cix[c], v) for c, v in self.aug.items()
                       if v and c in cix]
            return SparseMatrix(1 if self.aug else 0, len(cols), entries)
        if rows is None:
            rows = self.basis.get(n - 1, [])
        rix = {r: i for i, r in enumerate(rows)}
        entries = [(rix[r], cix[c], v)
                   for (r, c), v in self.diffs.get(n, {}).items()
                   if c in cix and r in rix]
        return SparseMatrix(len(rows), len(cols), entries)

    def check_complex(self):
        """Raise NotAComplex unless every consecutive composite vanishes."""
        F = self.field
        for n in sorted(self.diffs):
            if n + 1 not in self.diffs:
                continue
            lower = {}
            for (r, c), v in self.diffs[n].items():
                lower.setdefault(c, {})[r] = v
            comp = {}
            for (mid, c), v in self.diffs[n + 1].items():
                for r, w in lower.get(mid, {}).items():
                    comp[(r, c)] = F.add(comp.get((r, c), F.zero), F.mul(v, w))
            bad = [(k, v) for k, v in comp.items() if v]
            if bad:
                raise NotAComplex(
                    f"d_{n} o d_{n + 1} != 0, e.g. at {bad[0][0]}")

    def homology_ranks(self):
        """Nonzero homology ranks per degree; includes degree -1 when
        augmented."""
        F = self.field
        rk = {n: rank(self.matrix(n), F) for n in range(1, self.top + 1)}
        out = {}
        if self.augmented:
            rk[0] = rank(self.matrix(0), F)
            out[-1] = 1 - rk[0]
        for n in range(self.top + 1):
            out[n] = (len(self.basis.get(n, ())) - rk.get(n, 0)
                      - rk.get(n + 1, 0))
        return {n: r for n, r in out.items() if r}

    def is_exact(self):
        return not self.homology_ranks()

    def restrict(self, keep):
        """Field complex (a BarComplex) on the basis ids in `keep`, with the
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
        return BarComplex(self.field, basis, diffs, aug, self.augmented)


class GradedFreeComplex(ChainComplex):
    """Chain complex of free Z^m-graded modules with a labeled basis.

    labels: dict n -> ordered list of (id, multidegree)
    diffs:  dict n -> {(row_id, col_id): scalar}  for n >= 1, mapping F_n
            into F_{n-1}; the scalar is the bar (field) coefficient.
    """

    def __init__(self, num_vars, field, labels, diffs):
        self.num_vars = num_vars
        self.labels = {n: [(i, tuple(d)) for i, d in labs]
                       for n, labs in labels.items() if labs}
        super().__init__(field, {n: [i for i, _ in labs]
                                 for n, labs in self.labels.items()}, diffs)
        self.degree_of = {}
        for labs in self.labels.values():
            for i, d in labs:
                if i in self.degree_of:
                    raise ShapeError(f"duplicate basis id {i!r}")
                if len(d) != num_vars:
                    raise ShapeError(f"label degree length != num_vars for {i!r}")
                self.degree_of[i] = d
        for n, mat in self.diffs.items():
            for (r, c), _ in mat.items():
                if self.hdeg_of.get(c) != n or self.hdeg_of.get(r) != n - 1:
                    raise ShapeError(f"entry ({r},{c}) misplaced in degree {n}")
                dr, dc = self.degree_of[r], self.degree_of[c]
                if not divides(dr, dc):
                    raise ShapeError(
                        f"inhomogeneous entry ({r},{c}): deg {dc} - {dr} < 0")

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


class BarComplex(ChainComplex):
    """Field chain complex obtained by erasing the monomial factors;
    labels is the basis, dict n -> ordered list of ids."""

    @property
    def labels(self):
        return self.basis


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
    labels = {}
    diffs = {}
    for size in range(1, r + 1):
        n = size - 1
        labels[n] = []
        for S in combinations(range(r), size):
            deg = gens[S[0]]
            for k in S[1:]:
                deg = lcm(deg, gens[k])
            labels[n].append(("t" + ".".join(map(str, S)), deg))
        if n >= 1:
            diffs[n] = {}
            for S in combinations(range(r), size):
                cid = "t" + ".".join(map(str, S))
                for j in range(size):
                    T = S[:j] + S[j + 1:]
                    rid = "t" + ".".join(map(str, T))
                    diffs[n][(rid, cid)] = F(-1 if j % 2 else 1)
    return GradedFreeComplex(ideal.num_vars, F, labels, diffs)


def minimize(C):
    """Cancel all unit (exponent-zero) entries, yielding a quasi-isomorphic
    complex with no invertible entries in any differential.

    Pivots are chosen deterministically: lowest homological degree first,
    then row-major in the label order.
    """
    C.check_complex()
    F = C.field
    pos = {}
    for n, labs in C.labels.items():
        for k, (i, _) in enumerate(labs):
            pos[i] = k
    col = {n: {} for n in C.diffs}
    row = {n: {} for n in C.diffs}
    for n, mat in C.diffs.items():
        for (r, c), v in mat.items():
            col[n].setdefault(c, {})[r] = v
            row[n].setdefault(r, set()).add(c)
    alive = {i for i in C.degree_of}
    deg = C.degree_of

    def drop_entry(n, r, c):
        col[n][c].pop(r, None)
        if not col[n][c]:
            col[n].pop(c)
        if r in row[n]:
            row[n][r].discard(c)
            if not row[n][r]:
                row[n].pop(r)

    for n in sorted(C.diffs):
        units = {(r, c) for c, colmap in col.get(n, {}).items()
                 for r in colmap if deg[r] == deg[c]}
        while units:
            r0, c0 = min(units, key=lambda rc: (pos[rc[0]], pos[rc[1]]))
            u = col[n][c0][r0]
            uinv = F.inv(u)
            other_cols = [c for c in row[n].get(r0, set()) if c != c0]
            other_rows = [r for r in col[n].get(c0, {}) if r != r0]
            for c2 in other_cols:
                factor = F.mul(uinv, col[n][c2][r0])
                for r2 in other_rows:
                    delta = F.mul(col[n][c0][r2], factor)
                    old = col[n].get(c2, {}).get(r2, F.zero)
                    new = F.sub(old, delta)
                    if new:
                        col[n].setdefault(c2, {})[r2] = new
                        row[n].setdefault(r2, set()).add(c2)
                        if deg[r2] == deg[c2]:
                            units.add((r2, c2))
                    elif old:
                        drop_entry(n, r2, c2)
                        units.discard((r2, c2))
            # remove pivot row r0 and column c0 in degree n
            for c2 in list(row[n].get(r0, set())):
                drop_entry(n, r0, c2)
                units.discard((r0, c2))
            for r2 in list(col[n].get(c0, {})):
                drop_entry(n, r2, c0)
                units.discard((r2, c0))
            # row c0 disappears from the next differential
            if n + 1 in col:
                for c2 in list(row.get(n + 1, {}).get(c0, set())):
                    drop_entry(n + 1, c0, c2)
            # column r0 disappears from the previous differential
            if n - 1 in col and r0 in col[n - 1]:
                for r2 in list(col[n - 1].get(r0, {})):
                    drop_entry(n - 1, r2, r0)
            alive.discard(r0)
            alive.discard(c0)

    labels = {n: [(i, d) for i, d in labs if i in alive]
              for n, labs in C.labels.items()}
    diffs = {n: {(r, c): v for c, colmap in col.get(n, {}).items()
                 for r, v in colmap.items()}
             for n in C.diffs}
    out = GradedFreeComplex(C.num_vars, F, labels, diffs)
    out.check_complex()
    if not out.is_minimal():
        raise VerificationError("minimization left a unit entry")
    return out


def bar_reduce(C):
    """Tensor with k[x]/(x_1-1,...,x_m-1): keep scalars, drop monomials.
    The augmentation sends every degree-0 basis element to 1."""
    aug = dict.fromkeys(C.basis.get(0, []), C.field.one)
    return BarComplex(C.field, C.basis, C.diffs, aug)


def strand(C, alpha):
    """Homogeneous strand of degree alpha, as a field complex."""
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
    """Strand-wise exactness test at every lcm-lattice degree of the resolved
    ideal (the degree-0 labels).  Returns (ok, report)."""
    C.check_complex()
    deg0 = [d for _, d in C.labels.get(0, [])]
    if not deg0:
        raise ShapeError("no degree-0 basis")
    lattice = sorted(join_closure(deg0))
    report = {}
    ok = True
    for alpha in lattice:
        S = strand(C, alpha)
        h = S.homology_ranks()
        good = h.get(0, 0) == 1 and all(v == 0 for n, v in h.items() if n >= 1)
        report[alpha] = h
        ok = ok and good
    return ok, report
