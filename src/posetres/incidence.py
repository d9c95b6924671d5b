"""Incidence posets of minimal complexes and the certificate that the
homogenized conic complex of the incidence poset reproduces the resolution.
"""

from collections import Counter, defaultdict

from .errors import (DegenerateColumn, NotMinimal, NotMinimalSupport,
                     ShapeError, VerificationError)
from .conic import conic_complex, supports_resolution
from .gradedcomplex import BettiTable, _scalar_json, betti_table
from .minsupport import noncomparable_supports
from .posets import Poset


def incidence_poset(C):
    """Poset on the basis ids generated by row < column over the nonzero
    differential entries, graded by homological degree.

    The poset is memoized on C, so every caller shares one Poset with its
    conic complexes; complexes are not mutated after construction.  A
    build that raises is not stored."""
    P = getattr(C, "_incidence_poset", None)
    if P is not None:
        return P
    for n in range(1, C.top + 1):
        for b, _ in C.labels.get(n, []):
            if b not in C.d.get(n, {}):
                raise DegenerateColumn(f"zero column {b!r} in degree {n}")
    elements = [i for n in range(C.top + 1) for i, _ in C.labels.get(n, [])]
    relations = [(r, c) for cols in C.d.values()
                 for c, col in cols.items() for r in col]
    deg = {i: d for n in range(C.top + 1) for i, d in C.labels.get(n, [])}
    P = Poset(elements, relations, deg=deg)
    for b in elements:
        if P._dims[b] != C.hdeg_of[b]:
            raise VerificationError(
                f"poset dimension of {b!r} differs from homological degree")
    C._incidence_poset = P
    return P


def poset_isomorphic(P, Q):
    """Order isomorphism test.  The elements of P are matched one at a
    time, each after its whole down-set, to an unmatched element of Q whose
    down-set is the image of its own; a dead end undoes the last match."""
    if len(P) != len(Q) or len(P.covers) != len(Q.covers):
        return False
    by_below = defaultdict(list)
    for f in Q.elements:
        by_below[Q.below[f]].append(f)
    order = _match_order(P)
    phi, used, tries = {}, set(), []  # tries[k]: candidates left for order[k]
    k = 0
    while k < len(order):
        e = order[k]
        if k == len(tries):
            tries.append(iter(by_below.get(
                frozenset(phi[x] for x in P.below[e]), ())))
        else:  # back from a dead end further on
            used.discard(phi.pop(e))
        f = next((f for f in tries[k] if f not in used), None)
        if f is None:
            tries.pop()
            if not k:
                return False
            k -= 1
        else:
            phi[e] = f
            used.add(f)
            k += 1
    return True


def _match_order(P):
    """The elements of P, each right after its lower covers: a depth-first
    walk down the covers from the maximal elements, highest dimension
    first at every step.  (Started from every element in that order, the
    walk reaches each non-maximal one from a higher maximal element.)"""
    key = lambda e: (-P.dim(e), P.index[e])
    lower = defaultdict(list)  # each list last-first, as the stack pops
    for lo, hi in sorted(P.covers, key=lambda c: key(c[0]), reverse=True):
        lower[hi].append(lo)
    order, seen = [], set()
    stack = [(e, False) for e in sorted(P.elements, key=key, reverse=True)]
    while stack:
        e, done = stack.pop()
        if done:
            order.append(e)
        elif e not in seen:
            seen.add(e)
            stack.append((e, True))
            stack += ((x, False) for x in lower[e])
    return order


class ConicIsoCertificate:
    """For each basis id, the scalar identifying it with the unique conic
    generator at its apex."""

    def __init__(self, poset, scalars):
        self.poset = poset
        self.scalars = dict(scalars)

    def to_json(self):
        return {"scalars": {str(a): _scalar_json(v)
                            for a, v in self.scalars.items()}}


def conic_iso_check(C):
    """Build the isomorphism basis element -> scalar * conic generator.

    Requires every conic component to be one-dimensional; a fatter component
    or an inconsistent scalar system pinpoints a basis without minimal
    support.
    """
    F = C.field
    if not noncomparable_supports(C):
        raise NotMinimalSupport("comparable boundary supports in some degree")
    P = incidence_poset(C)
    CC = conic_complex(P, F)
    dims = CC.component_dims()
    for a in P.elements:
        if dims.get(a, 0) != 1:
            raise NotMinimalSupport(
                f"conic component at {a!r} has dimension {dims.get(a, 0)}",
                witness=a)
    scalars = {b: F.one for b, _ in C.labels.get(0, [])}
    for n in range(1, C.top + 1):
        for b, _ in C.labels.get(n, []):
            col = C.column(b)
            conic_col = CC.d.get(n, {}).get((b, 0), {})
            lam = None
            for c, s in col.items():
                mu = conic_col.get((c, 0))
                if mu is None:
                    raise NotMinimalSupport(
                        f"conic boundary at {b!r} misses apex {c!r}", witness=b)
                cand = F.div(F.mul(s, scalars[c]), mu)
                if lam is None:
                    lam = cand
                elif lam != cand:
                    raise NotMinimalSupport(
                        f"no scalar matches the boundary of {b!r}", witness=b)
            for c, _ in conic_col:
                if c not in col:
                    raise NotMinimalSupport(
                        f"conic boundary at {b!r} has extra apex {c!r}",
                        witness=b)
            scalars[b] = lam
    return ConicIsoCertificate(P, scalars)


def verify_mfr_support(I, C, F):
    """True iff the homogenized conic complex H of the incidence poset P
    has the same Betti table as C and is a resolution.  H has the matrices,
    basis order and degrees of P's conic complex K, so neither is built:

    - H's Betti table counts the generators of K by degree n and by the
      degree of their apex, and betti_table(H)'s minimality test is made on
      K's entries, raising the same NotMinimal at an entry between two
      apexes of one degree;
    - the checks of H's constructor are made on the same matrices already:
      d o d by the ConicComplex constructor, placement by the conic build,
      and homogeneity by the monotone degree map that the Poset
      constructor checks;
    - H's strands are those supports_resolution(P, F) checks: the verdict
      is that memoized one, which hcwify on P then reads too.

    A C with a unit entry raises NotMinimal, as betti_table(C) does, and
    an empty C ShapeError, as homogenize does."""
    if sorted(d for _, d in C.labels.get(0, [])) != sorted(I.generators):
        return False
    P = incidence_poset(C)
    if not P.elements:
        raise ShapeError("cannot homogenize an empty poset")
    K = conic_complex(P, F)
    deg = K.degree_of
    if any(deg[c] in map(deg.__getitem__, col)
           for n, cols in K.d.items() if n for c, col in cols.items()):
        raise NotMinimal("complex has a unit entry; Betti labels unreliable")
    if BettiTable(Counter((n, deg[g]) for n, gs in K.gens.items()
                          for g in gs)) != betti_table(C):
        return False
    return supports_resolution(P, F)[0]
