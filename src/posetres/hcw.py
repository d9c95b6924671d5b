"""Cavity filling: adding down-edges below an element until every open
filter becomes a homology sphere, and the end-to-end pipeline from a
monomial ideal to an hcw-poset supporting its minimal resolution.
"""

from .errors import (HypothesisFailed, NotACycle, NotAMorphism,
                     VerificationError)
from .conic import conic_complex, homogenize, supports_resolution
from .gradedcomplex import betti_table, minimize, strand, taylor_complex
from .incidence import incidence_poset
from .minsupport import make_minimal_support_basis
from .posets import is_homology_sphere_at, reduced_homology


def antichain_form(P, a, w, m, F):
    """Rewrite an m-cycle of Delta(P_{<a}) as a homologous cycle all of whose
    cone apexes have dimension exactly m (the antichain form).  Faces outside
    Delta(P_{<a}) raise NotFound, chains that are not cycles NotACycle.
    Kept as public API; fill_cavity finds its classes as conic cycles."""
    if P.filter_complex(a).boundary(m, w, F):
        raise NotACycle(f"chain is not an {m}-cycle below {a!r}")
    for b in P.below[a]:
        if P.dim(b) > m and not is_homology_sphere_at(P, b, F):
            raise HypothesisFailed(f"filter below {b!r} is not a sphere")
    w = {f: v for f, v in w.items() if v}
    while True:
        k = max((P.dim(f[0]) for f in w), default=m)
        if k <= m:
            break
        for c in [e for e in P.elements
                  if P.dim(e) == k and any(f[0] == e for f in w)]:
            wc = {f[1:]: v for f, v in w.items() if f[0] == c}
            K = P.filter_complex(c)
            if K.boundary(m - 1, wc, F):
                raise VerificationError("top cone component is not a cycle")
            # fill w_c inside the sphere Delta(P_{<c})
            v_c = K.preimage(m, wc, F=F)
            if v_c is None:
                raise VerificationError(
                    f"cycle not fillable below {c!r} despite sphere hypothesis")
            # w + d[c, v_c] = w + v_c - [c, w_c]
            w = {f: v for f, v in w.items() if f[0] != c}
            for f, s in v_c.items():
                w[f] = F.add(w.get(f, F.zero), s)
            w = {f: v for f, v in w.items() if v}
    for c in {f[0] for f in w}:
        wc = {f[1:]: v for f, v in w.items() if f[0] == c}
        if P.filter_complex(c).boundary(m - 1, wc, F):
            raise VerificationError("antichain form component is not a cycle")
    return w


def fill_cavity(P, a, n, F):
    """Add down-edges (c, a) until H~_n of Delta(P_{<a}) vanishes.

    Returns (new poset, list of added relations) and verifies the
    conclusions of the underlying lemma on the result.  When nothing is
    added it returns P itself, for which they hold trivially.  Each new
    poset keeps the filter complexes, and their memos, of the elements not
    above a (Poset.extend_below); conclusion (2) checks those filters.  It
    keeps no conic complex, so C below is compared with a fresh build.

    Every element b with d(b) < d(a) must have a sphere below it, or
    HypothesisFailed names the first that does not, in P.elements order;
    every call checks them all.

    The augmented conic complex C of P is taken once, and every filling is
    solved on sub = strand(C, deg(a)), the conic complex of the truncation
    P_{<=deg(a)} (the apexes of degree <= deg(a)).  Each class is found in
    R, sub on the apexes below a, which computes H~(Delta(P_{<a})) (see
    conic_vs_simplicial) as every element of dimension < d(a) is checked to
    be a sphere first.  extend_below only puts elements of dimension n + 1
    below a and changes no filter of an apex in conic degrees n-1 to n+1
    (all the solves read): this holds for each later R, and C is kept.
    """
    if P.deg is None:
        raise NotAMorphism("poset has no degree map")
    if P.dim(a) < n + 2:
        raise HypothesisFailed(f"d({a!r}) = {P.dim(a)} < n + 2 = {n + 2}")
    for b in P.elements:
        if P.dim(b) < P.dim(a) and not is_homology_sphere_at(P, b, F):
            raise HypothesisFailed(f"filter below {b!r} is not a sphere")
    r = reduced_homology(P.filter_complex(a), F).get(n, 0)
    if not r:
        return P, []
    C = conic_complex(P, F, augmented=True)
    sub = strand(C, P.deg[a])
    if sub.homology_ranks().get(n, 0):
        raise HypothesisFailed(
            f"H_{n} of the truncated conic complex at {P.deg[a]} is nonzero")
    P0, added = P, []
    while r:
        # first class: first conic n-cycle below a that bounds nothing there
        below = P.below[a]
        R = sub.restrict(g for gs in sub.basis.values() for g in gs
                         if g[0] in below)
        zeta = next((z for z in R.kernel(n)
                     if R.preimage(n + 1, z) is None), None)
        if zeta is None:
            raise VerificationError("positive homology rank but no class found")
        t = sub.preimage(n + 1, zeta)
        if t is None:
            raise VerificationError("conic filling system is inconsistent")
        excluded = set()
        while True:
            new_c = sorted({g[0] for g in t} - below, key=P.index.get)
            for c in new_c:
                t2 = sub.preimage(n + 1, zeta, cols=[
                    g for g in sub.basis.get(n + 1, [])
                    if g[0] not in excluded and g[0] != c])
                if t2 is not None:
                    excluded.add(c)
                    t = t2
                    break
            else:
                break
        if not new_c:
            raise VerificationError(
                "filling chain lies below the apex; class was a boundary")
        P = P.extend_below(a, new_c)
        added.extend((c, a) for c in new_c)
        r, r_prev = reduced_homology(P.filter_complex(a), F).get(n, 0), r
        if r >= r_prev:
            raise VerificationError("cavity rank failed to decrease")
    _verify_fill(P0, P, a, n, F, C)
    return P, added


def _verify_fill(P0, P1, a, n, F, C0):
    """Machine-check the lemma's conclusions (1)-(6); C0 is the augmented
    conic complex of P0."""
    for lo, hi in P0.covers:
        if not P1.leq(lo, hi):
            raise VerificationError("order extension lost a relation")
    for c in P0.elements:
        if not P0.leq(a, c) and P0.below[c] != P1.below[c]:
            raise VerificationError(f"filter of untouched element {c!r} changed")
        if P0.dim(c) != P1.dim(c):
            raise VerificationError(f"dimension of {c!r} changed")
    if not C0.same_matrices(conic_complex(P1, F, True)):
        raise VerificationError("conic complex changed by cavity filling")
    h0 = reduced_homology(P0.filter_complex(a), F)
    h1 = reduced_homology(P1.filter_complex(a), F)
    for k in set(h0) | set(h1):
        if k >= n + 1 and h0.get(k, 0) != h1.get(k, 0):
            raise VerificationError(
                f"homology in dimension {k} changed by cavity filling")
    if h1.get(n, 0):
        raise VerificationError("cavity not filled")


class HcwReport:
    """Record of an hcwify run: posets, added relations, sphere verdicts."""

    def __init__(self, before, after, added, verdicts_before, verdicts_after):
        self.before = before
        self.after = after
        self.added = list(added)
        self.verdicts_before = verdicts_before
        self.verdicts_after = verdicts_after

    def to_json(self):
        return {
            "input": self.before.to_json(),
            "output": self.after.to_json(),
            "added_relations": [list(r) for r in self.added],
            "sphere_before": {str(k): v for k, v in self.verdicts_before.items()},
            "sphere_after": {str(k): v for k, v in self.verdicts_after.items()},
        }

    def to_dot(self):
        return self.after.to_dot(highlight_edges=self.added)


def hcwify(P, F):
    """Apply cavity filling over all elements until the poset is hcw."""
    if P.deg is None:
        raise NotAMorphism("poset has no degree map")
    # the filter complex below a has top dimension d(a) - 1, so it is a
    # sphere iff its homology is {d(a) - 1: 1}
    verdicts_before = {}
    for a in P.elements:
        h = reduced_homology(P.filter_complex(a), F)
        r = h.get(P.dim(a) - 1, 0)
        if r != 1:
            raise HypothesisFailed(
                f"top filter homology below {a!r} has rank {r}, expected 1")
        verdicts_before[a] = h == {P.dim(a) - 1: 1}
    ok, alpha = supports_resolution(P, F)
    if not ok:
        raise HypothesisFailed(
            f"truncated conic complex at {alpha} is not exact")
    before = P
    added = []
    # a fill below a changes only the filters of the elements >= a, all
    # visited after a: each filter is final once its cavities are filled
    for a in sorted(P.elements, key=lambda e: (P.dim(e), P.index[e])):
        for n in range(P.dim(a) - 2, -1, -1):
            if reduced_homology(P.filter_complex(a), F).get(n, 0):
                P, new = fill_cavity(P, a, n, F)
                added.extend(new)
    # each adding fill compared the conic complexes of its input and output
    verdicts_after = {a: is_homology_sphere_at(P, a, F) for a in P.elements}
    if not all(verdicts_after.values()):
        raise VerificationError("hcwify result is not hcw")
    return P, HcwReport(before, P, added, verdicts_before, verdicts_after)


def hcw_support(I, F):
    """Pipeline: minimal resolution -> minimal-support basis -> incidence
    poset -> hcwify -> homogenized conic complex.  Returns (Q, deg, complex).
    """
    M = minimize(taylor_complex(I, F))
    M2, _ = make_minimal_support_basis(M)
    P = incidence_poset(M2)
    Q, _report = hcwify(P, F)
    H = homogenize(conic_complex(Q, F))
    if betti_table(H).entries != betti_table(M2).entries:
        raise VerificationError(
            "homogenized conic complex has a different Betti table")
    return Q, Q.deg, H
