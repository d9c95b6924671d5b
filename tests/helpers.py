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
