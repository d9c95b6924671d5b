"""Poset and complex queries that only the tests use."""

from posetres.errors import NotFound


def down_set(P, a, strict=True):
    """Induced subposet on {x : x < a} (strict) or {x : x <= a}."""
    if a not in P.index:
        raise NotFound(f"unknown element {a!r}")
    return P.restrict(P.below[a] if strict else P.below[a] | {a})


def maximal_elements(P):
    lows = {lo for lo, _ in P.covers}
    return [e for e in P.elements if e not in lows]


def minimal_elements(P):
    return [e for e in P.elements if not P.below[e]]


def face_counts(K):
    """{dimension: number of faces} of an OrientedComplex."""
    return {d: len(fs) for d, fs in sorted(K.faces.items())}


def is_exact(C):
    """True iff the chain complex C has no homology."""
    return not C.homology_ranks()


def row_sweep_pivots(C):
    """{n: {r0: c0}}, the unit pivots of each d_n of a GradedFreeComplex,
    d_1 first, by a row sweep: the unit parts (rows of the column's own
    multidegree) of the columns of d_n, without the rows cancelled as pivot
    columns of d_{n-1}, are swept row by row in label order, each row r0
    pivoted on the lowest-position column holding a unit in it then, which
    clears r0 from every other such column.  minimize's column sweep must
    find the same pairs."""
    F, deg = C.field, C.degree_of
    pos = {i: k for labs in C.labels.values() for k, (i, _) in enumerate(labs)}
    pivots = {}
    for n in sorted(C.d):
        below = set(pivots.get(n - 1, {}).values())
        unit, rows = {}, {}  # rows: {r: columns with a unit in r}
        for c, x in C.d[n].items():
            u = {r: v for r, v in x.items()
                 if deg[r] == deg[c] and r not in below}
            if u:
                unit[c] = u
                for r in u:
                    rows.setdefault(r, set()).add(c)
        piv = pivots[n] = {}
        for r0 in C.basis.get(n - 1, []):
            live = [c for c in rows.pop(r0, ()) if r0 in unit.get(c, ())]
            if not live:
                continue
            c0 = piv[r0] = min(live, key=pos.__getitem__)
            pivot = unit.pop(c0)
            uinv = F.inv(pivot.pop(r0))
            for c2 in live:
                if c2 != c0:
                    v = unit[c2].pop(r0)
                    F.row_sub(unit[c2], F.mul(uinv, v), pivot)
            for r in pivot:
                rows.setdefault(r, set()).update(live)
    return pivots
