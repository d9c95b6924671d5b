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
from .exactla import rank
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


def conic_complex(P, F, augmented=False):
    """The conic chain complex of P over F, built bottom-up in d(a) with no
    face, once per (P, F), and memoized on P per (F, augmented): the other
    augmentation shares the gens and d stores with only `augmented`
    flipped, as the constructor's d o d check covers eps o d_1 either way.

    Each top face of Delta(P_{<a}) is c * f with d(c) = d(a) - 1, and
    d(c * w) = w - c * dw, so z = sum_c c * w_c is a cycle iff every w_c is
    a top cycle at c and sum_c w_c = 0.  So the cycles at a are the kernel
    of the conic d_{d(a)-1} (for d(a) = 1 the augmentation d_0) on the
    generators `cols` with apex below a: z = sum_g s_g (apex(g) * cycles[g])
    has differential s.  Each s is kernel_basis's (as ChainComplex.kernel
    reads it, sparse), divided by mu, z's coefficient at its smallest face
    in vertex-index order.  Faces compare by their top vertex first, and the
    cycles at one apex are independent, so that face is c * f for the
    lowest-index apex c in the support of s, and f the smallest face of the
    cycle that d(s restricted to c) stands for one degree down.  The descent
    ends in d_0, 1 on every vertex: mu is the entry at the lowest vertex.
    """
    if (F, augmented) in P._conic:
        return P._conic[F, augmented]
    if (other := P._conic.get((F, not augmented))) is not None:
        C = copy(other)  # the same stores; d o d was checked with eps o d_1
        C.augmented = augmented
        P._conic[F, augmented] = C
        return C
    gens = {P.dim(a): [] for a in P.elements}  # degrees in the order met
    gens[0] = [(a, 0) for a in P.elements if not P.dim(a)]
    d = {0: {g: {(): F.one} for g in gens[0]}}
    for n in sorted(gens)[1:]:
        low = ChainComplex(F, gens, d)  # the degrees below n
        for a in (a for a in P.elements if P.dim(a) == n):
            cols = [g for g in gens[n - 1] if g[0] in P.below[a]]
            for i, s in enumerate(low.kernel(n - 1, cols=cols)):
                t = s  # mu, by descent on the lowest apex down to d_0
                for m in range(n - 1, -1, -1):
                    c = min((g[0] for g in t), key=P.index.get)
                    t = low.boundary(m, {g: v for g, v in t.items()
                                         if g[0] == c})
                inv = F.inv(t[()])
                if inv != F.one:
                    s = {g: F.mul(inv, v) for g, v in s.items()}
                gens[n].append((a, i))
                d.setdefault(n, {})[(a, i)] = s
    try:
        C = ConicComplex(P, F, gens, d, augmented)
    except NotAComplex as exc:
        raise VerificationError(f"conic {exc}") from exc
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
    truncation P_{<=alpha} at a join of the generator degrees.

    Returns (ok, the first alpha whose strand is not {0: 1} or None).
    """
    if P.deg is None:
        raise NotAMorphism("poset has no degree map")
    if not P.elements:
        return True, None
    ok, report = is_resolution(conic_complex(P, F))
    return ok, next((a for a, h in report.items() if h != {0: 1}), None)
