"""Conic chain complexes of posets, homogenization along a degree map, and
the resolution-support criterion.

The degree-n component sits at the apexes a with d(a) = n and is the full
top cycle space of the order complex of the open filter P_{<a}.  A generator
is written [a, z]; its differential is z re-expressed in the degree-(n-1)
cycle bases, grouping the faces of z by their top vertex.
"""

from .errors import (HypothesisFailed, NotAComplex, NotAMorphism, ShapeError,
                     VerificationError)
from .exactla import rank
from .gradedcomplex import ChainComplex, GradedFreeComplex, is_resolution
from .posets import cycle_space, reduced_homology


class ConicComplex(ChainComplex):
    """Field chain complex with one component per poset element.

    gens:      dict n -> ordered list of (apex, index) pairs, the basis ids
    cycles:    dict (apex, index) -> sparse cycle {face: scalar}
    d:         dict n -> {(apex_c, i_c): {(apex_r, i_r): scalar}} for n >= 1
    aug:       dict (apex, index) -> scalar, the augmentation on degree 0
    degree_of: dict (apex, index) -> deg of the apex ({} without P.deg)
    """

    def __init__(self, poset, field, gens, cycles, d, aug, augmented):
        super().__init__(field, gens, d, aug, augmented)
        self.poset = poset
        self.cycles = dict(cycles)
        self.degree_of = {g: poset.deg[g[0]] for gs in self.basis.values()
                          for g in gs} if poset.deg else {}

    @property
    def gens(self):
        return self.basis

    def component_dims(self):
        dims = {}
        for gs in self.gens.values():
            for a, _ in gs:
                dims[a] = dims.get(a, 0) + 1
        return dims

    def same_matrices(self, other):
        """Entry-wise equality of generators, cycles and differentials."""
        return (self.gens == other.gens and self.cycles == other.cycles
                and self.d == other.d and self.aug == other.aug)

    def to_json(self):
        from .gradedcomplex import _scalar_json

        def gid(g):
            return {"apex": g[0], "index": g[1]}

        return {
            "characteristic": self.field.characteristic,
            "augmented": self.augmented,
            "generators": [
                [{**gid(g),
                  "cycle": [{"verts": list(f), "coeff": _scalar_json(v)}
                            for f, v in sorted(self.cycles[g].items())]}
                 for g in self.gens.get(n, [])]
                for n in range(self.top + 1)],
            "differentials": [
                [{"row": gid(r), "col": gid(c), "scalar": _scalar_json(v)}
                 for (r, c), v in sorted(self.diffs.get(n, {}).items(),
                                         key=lambda kv: (str(kv[0][1]), str(kv[0][0])))]
                for n in range(1, self.top + 1)],
        }


def conic_coords(P, cycles, chain, n, F):
    """Coordinates of an n-chain of Delta(P) in the conic degree-n basis
    `cycles` ((apex, index) -> cycle): the faces are grouped by their top
    vertex c, which must have d(c) = n, and each group is written in the
    cycle basis at c.  Raises VerificationError if either step fails.

    Precondition: the basis at c is echelonized as kernel_basis gives it, so
    each vector is the only one that is nonzero at its last face (in the
    face order of P.filter_complex(c)); the coordinate of vector i is read
    off that face.  What the read-off leaves over must vanish, which is the
    check that the group lies in the span of the basis.
    """
    parts = {}
    for f, v in chain.items():
        parts.setdefault(f[0], {})[f[1:]] = v
    out = {}
    for c, zc in parts.items():
        if P.dim(c) != n:
            raise VerificationError(
                f"chain top vertex {c!r} has dimension != {n}")
        K = P.filter_complex(c)
        fix = K._index(n - 1, K.basis.get(n - 1, []))
        rest = dict(zc)
        i = 0
        while (c, i) in cycles:
            b = cycles[(c, i)]
            last = max(b, key=fix.__getitem__)
            s = F.div(zc.get(last, F.zero), b[last])
            if s:
                out[(c, i)] = s
                for f, v in b.items():
                    rest[f] = F.sub(rest.get(f, F.zero), F.mul(s, v))
            i += 1
        if not i or any(rest.values()):
            raise VerificationError(
                f"chain component at apex {c!r} outside the cycle space")
    return out


def conic_complex(P, F, augmented=False):
    """Build the conic chain complex of a poset with deterministic,
    echelonized cycle bases at every apex."""
    gens, cycles = {}, {}
    for a in P.elements:
        n = P.dim(a)
        gens.setdefault(n, [])
        for i, z in enumerate(cycle_space(P.filter_complex(a), n - 1, F)):
            gens[n].append((a, i))
            cycles[(a, i)] = z
    d = {n: {g: conic_coords(P, cycles, cycles[g], n - 1, F) for g in gs}
         for n, gs in sorted(gens.items()) if n}
    aug = {g: cycles[g].get((), F.zero) for g in gens.get(0, [])}
    C = ConicComplex(P, F, gens, cycles, d, aug, augmented)
    try:
        C.check_complex()
    except NotAComplex as exc:
        raise VerificationError(f"conic {exc}") from exc
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
             for c, col in cols.items()} for n, cols in C.d.items()}
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
