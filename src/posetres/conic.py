"""Conic chain complexes of posets, homogenization along a degree map, and
the resolution-support criterion.

The degree-n component sits at the apexes a with d(a) = n and is the full
top cycle space of the order complex of the open filter P_{<a}.  The
differentials fix those cycles, so conic_complex builds matrices only and
ConicComplex.cycles expands the cycles over the faces on demand.  The
augmented complex restricted to the apexes below a computes the homology
of the filter below a whenever every lower filter is a sphere (the paper's
theorem), which is how hcw and posets.is_hcw take their sphere verdicts.
"""

from collections import Counter
from copy import copy
from functools import cached_property

from .errors import (HypothesisFailed, NotAComplex, NotAMorphism, ShapeError,
                     VerificationError)
from .exactla import SparseMatrix, _kernel_vectors, rank
from .gradedcomplex import (ChainComplex, GradedFreeComplex, _scalar_json,
                            is_resolution)
from .posets import reduced_homology


class ConicComplex(ChainComplex):
    """Field chain complex with one component per poset element.

    gens:      dict n -> ordered list of (apex, index) pairs, the basis ids
    d:         dict n -> {(apex_c, i_c): {(apex_r, i_r): scalar}}, with d_0
               the augmentation {(apex, index): {(): scalar}}
    degree_of: dict (apex, index) -> deg of the apex ({} without P.deg)

    The constructor checks d o d = 0 last, eps o d_1 = 0 included.
    """

    def __init__(self, poset, field, gens, d, augmented):
        super().__init__(field, gens, d, augmented)
        self.poset = poset
        self.degree_of = {g: poset.deg[g[0]] for gs in self.basis.values()
                          for g in gs} if poset.deg else {}
        self.check_complex()

    @property
    def gens(self):
        return self.basis

    def component_dims(self):
        return dict(Counter(a for gs in self.gens.values() for a, _ in gs))

    @cached_property
    def cycles(self):
        """{(apex, index): cycle {face: scalar}} on first read: {(): 1} in
        degree 0, else sum_h d(g)_h (apex(h) * cycles[h]), faces and gens
        in index order.  TooLarge if the order complex exceeds FACE_CAP faces."""
        P, F = self.poset, self.field
        P.check_face_cap()
        cycles = {g: {(): F.one} for g in self.gens.get(0, [])}
        for n in sorted(self.gens)[1:]:
            cols = self.d.get(n, {})
            for g in self.gens[n]:
                z = {}
                for h, x in cols.get(g, {}).items():
                    F.row_sub(z, F.neg(x), {(h[0],) + f: v
                                            for f, v in cycles[h].items()})
                cycles[g] = dict(sorted(z.items(), key=lambda fv: tuple(
                    map(P.index.__getitem__, fv[0]))))
        return dict(sorted(cycles.items(), key=lambda gz: P.index[gz[0][0]]))

    @cached_property
    def _at(self):
        """The apex index: each apex with generators -> (d(a), its
        generators in basis order), built on first read."""
        at = {}
        for n, gs in self.gens.items():
            for g in gs:
                at.setdefault(g[0], (n, []))[1].append(g)
        return at

    def _below(self, below):
        """The basis of the subcomplex on the apexes of the down-set
        `below`, for _homology_on: closed under d, as each column at an
        apex has its rows at apexes below it."""
        return _select(self.poset, self._at, below)

    def same_matrices(self, other):
        """Entry-wise equality of generators and differentials, which fix
        the cycles."""
        return self.gens == other.gens and self.d == other.d

    def to_json(self):
        def gid(g):
            return {"apex": g[0], "index": g[1]}

        def by_verts(fv):  # ids of mixed types compare by type name first
            return [(type(v).__name__, v) for v in fv[0]]

        return {
            "characteristic": self.field.characteristic,
            "augmented": self.augmented,
            "generators": [
                [{**gid(g),
                  "cycle": [{"verts": list(f), "coeff": _scalar_json(v)}
                            for f, v in sorted(self.cycles[g].items(),
                                               key=by_verts)]}
                 for g in self.gens.get(n, [])]
                for n in range(self.top + 1)],
            "differentials": [
                [{"row": gid(r), "col": gid(c), "scalar": _scalar_json(v)}
                 for (r, c), v in sorted(self.diffs.get(n, {}).items(),
                                         key=lambda kv: (str(kv[0][1]), str(kv[0][0])))]
                for n in range(1, self.top + 1)],
        }


def _select(P, at, below):
    """{n: generators} on the apexes of `below` that the apex index `at`
    holds, each degree in basis order: apexes in index order, as each
    degree lists its generators."""
    basis = {}
    for a in sorted(below, key=P.index.__getitem__):
        if (x := at.get(a)) is not None:
            basis.setdefault(x[0], []).extend(x[1])
    return basis


class _ConicBuild(ChainComplex):
    """The augmented conic complex of P over F as far as it is built: the
    degrees 0 to `built`, each added whole by `_grow`, bottom-up in d(a).
    conic_complex drains it into a ConicComplex, which checks d o d once;
    sphere verdicts read it through `_below`, which builds only the degrees
    a read needs and checks each new differential first (_check_above).
    A build that a read left unfinished is kept on P (P._conic_build[F]),
    apart from the complexes in P._conic.  `_at` is the apex index, each
    apex built -> (d(a), its generators)."""

    def __init__(self, P, F):
        gens = [(a, 0) for a in P.elements if not P.dim(a)]
        super().__init__(F, {0: gens}, {0: {g: {(): F.one} for g in gens}},
                         True)
        self.poset = P
        self._at = {g[0]: (0, [g]) for g in gens}
        self.by_dim = {}  # d(a) -> the apexes a, in index order
        for a in P.elements:
            self.by_dim.setdefault(P.dim(a), []).append(a)
        self.built = self.checked = 0

    def _grow(self, n):
        """Build the degrees up to n.

        Each top face of Delta(P_{<a}) is c * f with d(c) = d(a) - 1, and
        d(c * w) = w - c * dw, so z = sum_c c * w_c is a cycle iff every w_c
        is a top cycle at c and sum_c w_c = 0.  So the cycles at a are the
        kernel of the conic d_{d(a)-1} (for d(a) = 1 the augmentation d_0)
        on the generators `sub` with apex below a: z = sum_g s_g (apex(g) *
        cycles[g]) has differential s.  Each s is kernel_basis's (as
        `_kernel` reads it, sparse), divided by mu, z's coefficient at its
        smallest face in vertex-index order.  Faces compare by their
        top vertex first, and the cycles at one apex are independent, so
        that face is c * f for the lowest-index apex c in the support of s,
        and f the smallest face of the cycle that d(s restricted to c)
        stands for one degree down.  The descent ends in d_0, 1 on every
        vertex: mu is the entry at the lowest vertex."""
        P, F = self.poset, self.field
        for m in range(self.built + 1, n + 1):
            gens, cols = [], {}
            for a in self.by_dim.get(m, ()):
                below, mine = P.below[a], []
                sub = [g for g in self.basis.get(m - 1, []) if g[0] in below]
                for i, s in enumerate(self._kernel(m - 1, sub)):
                    t = s  # mu, by descent on the lowest apex down to d_0
                    for k in range(m - 1, -1, -1):
                        c = min((g[0] for g in t), key=P.index.get)
                        t = self.boundary(k, {g: v for g, v in t.items()
                                              if g[0] == c})
                    inv = F.inv(t[()])
                    if inv != F.one:
                        s = {g: F.mul(inv, v) for g, v in s.items()}
                    cols[a, i] = s
                    mine.append((a, i))
                if mine:
                    self._at[a] = (m, mine)
                    gens += mine
            if gens:
                self.basis[m], self.d[m] = gens, cols
            self.built = m

    def _kernel(self, n, cols):
        """ChainComplex.kernel(n, cols), read off the columns of d_n that
        _ready_columns prepared: the build only adds degrees, so they stay
        those of d_n, and every apex of degree n + 1 reads them."""
        F = self.field
        rows, _, ready = self._ready_columns(n, F)
        A = SparseMatrix._of_columns(rows, len(cols), {
            j: ready[c][1] for j, c in enumerate(cols)}, F)
        return [{cols[j]: v for j, v in x.items()}
                for x in _kernel_vectors(A, F)]

    def _below(self, below):
        """The basis of the subcomplex on the apexes of the down-set
        `below`, once the degrees it reaches (up to d(a) - 1 for below =
        P.below[a]) are built and every differential built has passed the
        d o d test."""
        self._grow(max(map(self.poset.dim, below), default=0))
        if self.checked < self.built:
            try:
                self._check_above(self.checked)
            except NotAComplex as exc:
                raise VerificationError(f"conic {exc}") from exc
            self.checked = self.built
        return _select(self.poset, self._at, below)


def _verdict_source(P, F):
    """What sphere verdicts on P over F read: P's augmented conic complex
    when either augmentation is memoized, else P's conic build, kept on P
    for the next read or for conic_complex to drain."""
    if (F, True) in P._conic or (F, False) in P._conic:
        return conic_complex(P, F, True)
    if (B := P._conic_build.get(F)) is None:
        B = P._conic_build[F] = _ConicBuild(P, F)
    return B


def conic_complex(P, F, augmented=False):
    """The conic chain complex of P over F, built bottom-up in d(a) with no
    face, once per (P, F), and memoized on P per (F, augmented): the other
    augmentation shares the gens and d stores with only `augmented`
    flipped, as the constructor's d o d check covers eps o d_1 either way.

    The build is _ConicBuild's (its _grow gives the construction), drained
    to the top degree: a build that sphere verdicts left on P (is_hcw) is
    finished, not started again.  The ConicComplex made of it checks d o d
    once, in its constructor, and only then is memoized as the complex.
    """
    if (F, augmented) in P._conic:
        return P._conic[F, augmented]
    if (other := P._conic.get((F, not augmented))) is not None:
        C = copy(other)  # the same stores; d o d was checked with eps o d_1
        C.augmented = augmented
        P._conic[F, augmented] = C
        return C
    B = P._conic_build.pop(F, None) or _ConicBuild(P, F)
    B._grow(max(B.by_dim, default=0))
    gens = {n: B.basis.get(n, []) for n in B.by_dim}  # in the order met
    try:
        C = ConicComplex(P, F, gens, B.d, augmented)
    except NotAComplex as exc:
        raise VerificationError(f"conic {exc}") from exc
    # C holds B's basis and columns, so B's positions and prepared columns
    # are C's: the verdicts and strands read them without preparing again
    C.index, C._ready = B.index, B._ready
    P._conic[F, augmented] = C
    return C


def skeleton_complex(P, n):
    """The conic n-skeleton: all chains whose largest vertex has d <= n."""
    return P.subcomplex({e for e in P.elements if P.dim(e) <= n})


def kernel_skeleton_check(C):
    """rank Ker d_n of the conic complex == rank H~_n of the n-skeleton."""
    P, F = C.poset, C.field
    for n in range(0, C.top + 1):
        ker = len(C.gens.get(n, [])) - rank(C.matrix(n), F)
        h = reduced_homology(skeleton_complex(P, n), F).get(n, 0)
        if ker != h:
            return False
    return True


def conic_vs_simplicial(P, F):
    """Compare augmented conic homology with the reduced homology of the
    order complex, under the vanishing hypothesis on all filters."""
    for a in P.elements:
        h = reduced_homology(P.filter_complex(a), F)
        if any(m <= P.dim(a) - 2 for m in h):
            raise HypothesisFailed(
                f"filter below {a!r} has homology in dimension <= d(a)-2")
    C = conic_complex(P, F, augmented=True)
    hc = C.homology_ranks()
    hs = reduced_homology(P.order_complex(), F)
    return hc == hs


def homogenize(C):
    """Lift a conic complex to a Z^m-graded free complex along its poset's
    (monotone) degree map; without one NotAMorphism, if empty ShapeError."""
    deg = C.poset.deg
    if deg is None:
        raise NotAMorphism("poset has no degree map")
    if not deg:
        raise ShapeError("cannot homogenize an empty poset")
    num_vars = len(next(iter(deg.values())))

    def gid(g):
        return f"{g[0]}#{g[1]}"

    labels = {n: [(gid(g), deg[g[0]]) for g in gs]
              for n, gs in C.gens.items()}
    d = {n: {gid(c): {gid(r): v for r, v in col.items()}
             for c, col in cols.items()} for n, cols in C.d.items() if n}
    return GradedFreeComplex(num_vars, C.field, labels, d)


def supports_resolution(P, F):
    """Whether P supports a resolution along its degree map: is_resolution
    of the (unaugmented) conic complex, which checks the strand of every
    truncation P_{<=alpha} at a join of the generator degrees.  The answer
    is memoized on P per field (P._support), so hcwify and
    verify_mfr_support on one poset check its strands once.

    Returns (ok, the first alpha whose strand is not {0: 1} or None).
    """
    if P.deg is None:
        raise NotAMorphism("poset has no degree map")
    if not P.elements:
        return True, None
    if F not in P._support:
        ok, report = is_resolution(conic_complex(P, F))
        P._support[F] = ok, next((a for a, h in report.items()
                                  if h != {0: 1}), None)
    return P._support[F]
