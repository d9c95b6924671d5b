"""Boundary supports, circuit tests for minimal-support cycles, and the
inductive rewriting of a homogeneous basis into one with minimal support.

All detection and repair happens on the bar complex; a repaired cycle is
lifted back upstairs with the monomial coefficients dictated by the degrees.
"""

from functools import reduce

from .errors import (NotACycle, NotFound, NotMinimal, ShapeError,
                     VerificationError)
from .exactla import rank
from .gradedcomplex import GradedFreeComplex, _scalar_json, bar_reduce
from .monomials import divides, lcm


def boundary_support(C, b):
    """Ids hit by the differential image of basis element b."""
    n = C.hdeg_of.get(b)
    if n is None:
        raise NotFound(f"unknown basis id {b!r}")
    if n < 1:
        raise ShapeError(f"{b!r} sits in degree 0; no boundary support")
    return frozenset(C.column(b))


def is_minimal_support_cycle(Cbar, n, z):
    """Circuit test: no nonzero cycle has support strictly inside supp(z).

    z is a chain {id: scalar} of degree n.  Cbar is a bar complex whose d_0
    is the augmentation, as bar_reduce gives, so the degree-0 cycles are
    the kernel of d_0.
    """
    if Cbar.boundary(n, z):
        raise NotACycle(f"vector is not in the degree-{n} cycle space")
    return _is_circuit(Cbar, n, {b: v for b, v in z.items() if v})


def _is_circuit(Cbar, n, zd):
    """A nonzero cycle zd has minimal support iff the cycles on its support
    form a line, i.e. |supp zd| - rank(d_n on supp zd) < 2: a second
    independent cycle there, minus a multiple of zd, is a nonzero cycle on
    a smaller support, and conversely such a cycle is independent of zd."""
    return len(zd) - rank(Cbar.matrix(n, cols=list(zd)), Cbar.field) < 2


def _shrink_to_minimal(Cbar, n, zd, pos):
    """A minimal-support cycle inside supp(zd), or None if zd is minimal.

    While zd is not a circuit, the cycles on its support form a space of
    dimension >= 2, so some nonzero one vanishes at the first id of the
    support; zd becomes the first kernel vector without that id.
    """
    shrunk = None
    while not _is_circuit(Cbar, n, zd):
        zd = shrunk = Cbar.kernel(n, cols=sorted(zd, key=pos.get)[1:])[0]
    return shrunk


class BasisChangeLog:
    """Ordered record of the basis replacements performed."""

    def __init__(self):
        self.steps = []

    def record(self, degree, replaced, case, expression, exponents):
        self.steps.append({
            "degree": degree,
            "replaced": replaced,
            "case": case,
            "expression": [{"id": i, "scalar": s, "exponent": list(e)}
                           for (i, s), e in zip(expression, exponents)],
        })

    def to_json(self):
        return {"steps": [
            {**s, "expression": [{**t, "scalar": _scalar_json(t["scalar"])}
                                 for t in s["expression"]]}
            for s in self.steps]}


def make_minimal_support_basis(C):
    """Rewrite the basis of a minimal graded resolution so that every column
    passes the circuit test, degree by degree.  Returns the new complex and
    the replacement log; basis ids and labels are preserved."""
    if not C.is_minimal():
        raise NotMinimal("input complex has a unit entry")
    F = C.field
    deg = C.degree_of
    pos = {i: k for labs in C.labels.values() for k, (i, _) in enumerate(labs)}
    Cbar = bar_reduce(C)  # private: each replacement edits it in place
    log = BasisChangeLog()
    for k1 in sorted(C.d):  # k1 = k+1, columns live here, cycles in k1-1
        k = k1 - 1
        for bp, _ in C.labels.get(k1, []):
            while True:
                zd = dict(Cbar.d[k1].get(bp, {}))
                if not zd:
                    raise VerificationError(
                        f"zero column {bp!r} in a minimal resolution")
                zp = _shrink_to_minimal(Cbar, k, zd, pos)
                if zp is None:
                    break
                # lift degree of z' and solve for a homogeneous preimage w
                alpha = reduce(lcm, map(deg.__getitem__, zp))
                wcols = [i for i in C.basis.get(k1, [])
                         if divides(deg[i], alpha)]
                w = Cbar.preimage(k1, zp, cols=wcols)
                if w is None:
                    raise VerificationError(
                        f"strand at {alpha} not exact; cannot lift cycle")
                if bp in w:
                    expr = dict(w)  # case 1: replace b' by w
                    case = 1
                else:
                    b = min(zp, key=pos.get)  # case 2
                    ab, apb = zd[b], zp[b]
                    expr = {i: F.neg(F.mul(ab, v)) for i, v in w.items()}
                    expr[bp] = F.add(expr.get(bp, F.zero), apb)
                    expr = {i: v for i, v in expr.items() if v}
                    case = 2
                _apply_replacement(Cbar, k1, bp, expr)
                items = sorted(expr.items(), key=lambda kv: pos[kv[0]])
                exps = [C.exponent(i, bp) for i, _ in items]
                log.record(k1, bp, case, items, exps)

    out = GradedFreeComplex(C.num_vars, F, C.labels,
                            {n: cols for n, cols in Cbar.d.items() if n})
    if not out.is_minimal():
        raise VerificationError("basis rewrite produced a unit entry")
    return out, log


def _apply_replacement(Cbar, k1, bp, expr):
    """Replace basis element bp of degree k1 by sum expr (bar scalars), in
    place in the bar complex Cbar: the column of bp in d_{k1} becomes the
    boundary of expr, and the bp-row of d_{k1+1} is rewritten."""
    F = Cbar.field
    t = expr[bp]
    Cbar.d[k1][bp] = Cbar.boundary(k1, expr)
    # rewrite the bp-row of the next differential: old bp = (new - rest)/t
    up = Cbar.d.get(k1 + 1)
    if up is None:
        return
    tinv = F.inv(t)
    rest = {i: ti for i, ti in expr.items() if i != bp}
    for cm in up.values():
        if bp in cm:
            cm[bp] = factor = F.mul(cm[bp], tinv)
            F.row_sub(cm, factor, rest)


def noncomparable_supports(C):
    """True iff within each degree no boundary support contains another."""
    for n in C.d:
        sups = [frozenset(C.column(b)) for b, _ in C.labels.get(n, [])]
        for i in range(len(sups)):
            for j in range(len(sups)):
                if i != j and sups[i] <= sups[j]:
                    return False
    return True
