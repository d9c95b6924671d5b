"""Conic chain complexes of posets, homogenization along a degree map, and
the resolution-support criterion.

The degree-n component sits at the apexes a with d(a) = n and is the full
top cycle space of the order complex of the open filter P_{<a}.  A generator
is written [a, z]; its differential is z re-expressed in the degree-(n-1)
cycle bases, grouping the faces of z by their top vertex.
"""

from .errors import (HypothesisFailed, NotAComplex, NotAMorphism,
                     VerificationError)
from .exactla import SparseMatrix, rank, solve
from .gradedcomplex import ChainComplex, GradedFreeComplex
from .monomials import divides, join_closure
from .posets import cycle_space, reduced_homology


class ConicComplex(ChainComplex):
    """Field chain complex with one component per poset element.

    gens:   dict n -> ordered list of (apex, index) pairs, the basis ids
    cycles: dict (apex, index) -> sparse cycle {face: scalar}
    diffs:  dict n -> {((apex_r, i_r), (apex_c, i_c)): scalar} for n >= 1
    aug:    dict (apex, index) -> scalar, the augmentation on degree 0
    """

    def __init__(self, poset, field, gens, cycles, diffs, aug, augmented):
        super().__init__(field, gens, diffs, aug, augmented)
        self.poset = poset
        self.cycles = dict(cycles)

    @property
    def gens(self):
        return self.basis

    def component_dims(self):
        dims = {}
        for gs in self.gens.values():
            for a, _ in gs:
                dims[a] = dims.get(a, 0) + 1
        return dims

    def restrict_deg_leq(self, alpha):
        """Field complex on the generators whose apex has deg <= alpha.

        It is the conic complex of the subposet on {a : deg a <= alpha},
        because open filters inside that subposet coincide with the filters
        taken in the whole poset (deg is monotone), so all cycle bases are
        shared.
        """
        deg = self.poset.deg
        if deg is None:
            raise NotAMorphism("poset has no degree map")
        return self.restrict(g for gs in self.gens.values() for g in gs
                             if divides(deg[g[0]], alpha))

    def same_matrices(self, other):
        """Entry-wise equality of generators, cycles and differentials."""
        return (self.gens == other.gens and self.cycles == other.cycles
                and self.diffs == other.diffs and self.aug == other.aug)

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
    vertex c, which must have d(c) = n, and each group is solved for in the
    cycle basis at c.  Raises VerificationError if either step fails."""
    parts = {}
    for f, v in chain.items():
        parts.setdefault(f[0], {})[f[1:]] = v
    out = {}
    for c, zc in parts.items():
        if P.dim(c) != n:
            raise VerificationError(
                f"chain top vertex {c!r} has dimension != {n}")
        basis = []
        while (c, len(basis)) in cycles:
            basis.append(cycles[(c, len(basis))])
        faces = P.filter_complex(c).faces.get(n - 1, [])
        fix = {f: i for i, f in enumerate(faces)}
        A = SparseMatrix(len(faces), len(basis),
                         [(fix[f], j, v) for j, vec in enumerate(basis)
                          for f, v in vec.items()])
        rhs = [F.zero] * len(faces)
        for f, v in zc.items():
            rhs[fix[f]] = v
        coords = solve(A, rhs, F) if basis else None
        if coords is None:
            raise VerificationError(
                f"chain component at apex {c!r} outside the cycle space")
        out.update(((c, i), s) for i, s in enumerate(coords) if s)
    return out


def conic_complex(P, F, augmented=False):
    """Build the conic chain complex of a poset with deterministic,
    echelonized cycle bases at every apex."""
    gens = {}
    cycles = {}
    for a in P.elements:
        n = P.dim(a)
        gens.setdefault(n, [])
        for i, z in enumerate(cycle_space(P.filter_complex(a), n - 1, F)):
            gens[n].append((a, i))
            cycles[(a, i)] = z
    diffs = {}
    for n in sorted(gens):
        if n == 0:
            continue
        diffs[n] = {}
        for g in gens[n]:
            for c, s in conic_coords(P, cycles, cycles[g], n - 1, F).items():
                diffs[n][(c, g)] = s
    aug = {}
    for g in gens.get(0, []):
        aug[g] = cycles[g].get((), F.zero)
    C = ConicComplex(P, F, gens, cycles, diffs, aug, augmented)
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


def homogenize(C, deg=None):
    """Lift a conic complex to a Z^m-graded free complex along deg."""
    P = C.poset
    if deg is None:
        deg = P.deg
    if deg is None:
        raise NotAMorphism("no degree map supplied")
    deg = {a: tuple(deg[a]) for a in P.elements}
    for lo, hi in P.covers:
        if not divides(deg[lo], deg[hi]):
            raise NotAMorphism(f"deg not monotone on {lo} < {hi}")
    num_vars = len(next(iter(deg.values())))

    def gid(g):
        return f"{g[0]}#{g[1]}"

    labels = {n: [(gid(g), deg[g[0]]) for g in gs]
              for n, gs in C.gens.items()}
    diffs = {n: {(gid(r), gid(c)): v for (r, c), v in m.items()}
             for n, m in C.diffs.items()}
    return GradedFreeComplex(num_vars, C.field, labels, diffs)


def supports_resolution(P, F):
    """Exactness of the augmented conic complex of every degree-truncation.

    Returns (ok, witness alpha or None).
    """
    if P.deg is None:
        raise NotAMorphism("poset has no degree map")
    C = conic_complex(P, F, augmented=True)
    for alpha in sorted(join_closure(P.deg.values())):
        if not C.restrict_deg_leq(alpha).is_exact():
            return False, alpha
    return True, None
