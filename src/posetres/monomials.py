"""Monomials as exponent vectors, monomial ideals, and lcm lattices.

A multidegree is a plain tuple of non-negative ints; variable names are
cosmetic and live only in the CLI layer.
"""

import operator
from dataclasses import dataclass

from .errors import EmptyIdeal, ShapeError


def lcm(a, b):
    """Coordinate-wise maximum."""
    if len(a) != len(b):
        raise ShapeError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(map(max, a, b))


def divides(a, b):
    """True iff x^a divides x^b (coordinate-wise a <= b)."""
    return len(a) == len(b) and all(map(operator.le, a, b))


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generating set (sorted lex)."""

    num_vars: int
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.num_vars:
                raise ShapeError("generator length != num_vars")

    def contains(self, alpha):
        """True iff x^alpha lies in the ideal."""
        return any(divides(g, alpha) for g in self.generators)


def minimalize(generators):
    """Build a MonomialIdeal from any generating set, dropping divisible ones."""
    gens = [tuple(g) for g in generators]
    if not gens:
        raise EmptyIdeal("a monomial ideal needs at least one generator")
    m = len(gens[0])
    for g in gens:
        if len(g) != m:
            raise ShapeError("generators of mixed lengths")
    gens = sorted(set(gens))
    kept = []
    for g in gens:
        if not any(divides(h, g) for h in gens if h != g):
            kept.append(g)
    return MonomialIdeal(m, tuple(kept))


def lcm_lattice(ideal):
    """All joins of nonempty generator subsets (the lcm lattice), as a frozenset.

    Computed as the closure of the generator degrees under pairwise join.
    """
    return join_closure(ideal.generators)


def join_closure(degrees):
    """Closure of an arbitrary set of multidegrees under pairwise join.

    The join of a subset is reached by adding one input degree at a time,
    so each round joins only the new degrees with the inputs."""
    inputs = {tuple(d) for d in degrees}
    closure, frontier = set(inputs), inputs
    while frontier:
        frontier = {lcm(a, b) for a in frontier for b in inputs} - closure
        closure |= frontier
    return frozenset(closure)
