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
from .posets import reduced_homology


def antichain_form(P, a, w, m, F):
    """Rewrite an m-cycle of Delta(P_{<a}) as a homologous cycle all of whose
    cone apexes have dimension exactly m (the antichain form).  Faces outside
    Delta(P_{<a}) raise NotFound, chains that are not cycles NotACycle.
    Kept as public API; fill_cavity finds its classes as conic cycles.
    The elements below a of dimension > m must be spheres, or
    HypothesisFailed names the first that is not, in (dimension, index)
    order (_sphere_verdicts)."""
    if P.filter_complex(a).boundary(m, w, F):
        raise NotACycle(f"chain is not an {m}-cycle below {a!r}")
    for b, sphere in _sphere_verdicts(conic_complex(P, F, True),
                                      P.below[a], {}):
        if P.dim(b) > m and not sphere:
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


def _homology_below(C, below):
    """H~(Delta(P_{<a})) for below = P.below[a], read off the augmented
    conic complex C of P, or off P's conic build (conic._ConicBuild, which
    is_hcw reads as it builds it): C._homology_on the generators whose
    apex lies in `below`, which C._below picks from its apex index.  As
    `below` is a down-set, they span a subcomplex, closed under d, as
    _homology_on requires.

    By the paper's theorem this is the reduced homology of Delta(P_{<a})
    whenever every b < a has H~(Delta(P_{<b})) concentrated in degree
    d(b) - 1, e.g. when each of them is a sphere.  Its top rank needs no
    hypothesis: Delta(P_{<a}) has dimension d(a) - 1, each top face is c * f
    with d(c) = d(a) - 1, and d(sum_c c * w_c) = sum_c w_c - sum_c c * dw_c,
    so the top cycles are exactly the kernel conic_complex takes at a, and
    the top rank is component_dims()[a]."""
    return C._homology_on(C._below(below), C.field)


def _memo_below(C, below, memo):
    """_homology_below(C, below) through `memo`, which maps each set of
    apexes read to its homology: it holds for every conic complex with the
    matrices of C."""
    if below not in memo:
        memo[below] = _homology_below(C, below)
    return memo[below]


def _sphere_verdicts(C, down, memo):
    """Yield (b, whether Delta(P_{<b}) is a homology sphere) for the
    elements of the down-set `down` of P = C.poset, in (dimension, index)
    order, so that each b whose lower elements all are spheres is read off
    the conic complex C (_memo_below); an element above a non-sphere falls
    back to the simplicial homology of its filter complex.  The first miss
    has only spheres below it, so every verdict up to it is a conic one.
    C may be P's conic build (is_hcw): the order is by dimension, so it
    builds each degree only when the first verdict that reads it comes."""
    P, spheres = C.poset, set()
    for b in sorted(down, key=lambda e: (P._dims[e], P.index[e])):
        h = (_memo_below(C, P.below[b], memo) if P.below[b] <= spheres
             else reduced_homology(P.filter_complex(b), C.field))
        if h == {P._dims[b] - 1: 1}:
            spheres.add(b)
        yield b, b in spheres


def fill_cavity(P, a, n, F):
    """Add down-edges (c, a) until H~_n of Delta(P_{<a}) vanishes.

    Returns (new poset, list of added relations) and verifies the
    conclusions of the underlying lemma on the result.  When nothing is
    added it returns P itself, for which they hold trivially.  Each new
    poset (Poset.extend_below) keeps no memo, so C below is compared with
    a fresh build.

    Every element b with d(b) < d(a) must have a sphere below it, or
    HypothesisFailed names the first that does not, in (dimension, index)
    order: every call checks them in that order on P's augmented conic
    complex C (_sphere_verdicts), up to the first miss, which has only
    spheres below it.  So every verdict is read off C, and no filter
    complex is built nor FACE_CAP read.

    Every homology rank below a is read off C (_homology_below), which is
    exact once the lower spheres are checked.  Every filling is solved on
    sub = strand(C, deg(a)), the conic complex of the truncation
    P_{<=deg(a)} (the apexes of degree <= deg(a)).  Each class is found in
    R, sub on the apexes below a.  extend_below only puts elements of
    dimension n + 1 below a, whose filters it leaves as they are, and
    changes no filter below a nor of an apex in conic degrees n-1 to n+1
    (all the solves read): so the cavity rank after it is C's on the new
    elements below a, each later R is C's too, and C is kept.
    _verify_fill then proves that the result's conic complex is C.
    """
    if P.deg is None:
        raise NotAMorphism("poset has no degree map")
    if P.dim(a) < n + 2:
        raise HypothesisFailed(f"d({a!r}) = {P.dim(a)} < n + 2 = {n + 2}")
    C = conic_complex(P, F, augmented=True)
    for b, sphere in _sphere_verdicts(
            C, [b for b in P.elements if P.dim(b) < P.dim(a)], {}):
        if not sphere:
            raise HypothesisFailed(f"filter below {b!r} is not a sphere")
    r = _homology_below(C, P.below[a]).get(n, 0)
    if not r:
        return P, []
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
        r, r_prev = _homology_below(C, P.below[a]).get(n, 0), r
        if r >= r_prev:
            raise VerificationError("cavity rank failed to decrease")
    _verify_fill(P0, P, a, n, F, C)
    return P, added


def _verify_fill(P0, P1, a, n, F, C0):
    """Machine-check the lemma's conclusions (1)-(6); C0 is the augmented
    conic complex of P0.

    The homology below a is read off the conic complexes of P0 and P1.
    That is exact: fill_cavity checked every element of dimension < d(a)
    to be a sphere on P0 first, the filters of the elements below a are
    checked here to be P0's, and the conic complexes are proved equal
    before the homology is compared."""
    for lo, hi in P0.covers:
        if not P1.leq(lo, hi):
            raise VerificationError("order extension lost a relation")
    for c in P0.elements:
        if not P0.leq(a, c) and P0.below[c] != P1.below[c]:
            raise VerificationError(f"filter of untouched element {c!r} changed")
        if P0.dim(c) != P1.dim(c):
            raise VerificationError(f"dimension of {c!r} changed")
    C1 = conic_complex(P1, F, True)
    if not C0.same_matrices(C1):
        raise VerificationError("conic complex changed by cavity filling")
    h0 = _homology_below(C0, P0.below[a])
    h1 = _homology_below(C1, P1.below[a])
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
    """Apply cavity filling over all elements until the poset is hcw.

    The augmented conic complex of P is built once.  The precheck reads
    each top rank as its component dimension, which needs no hypothesis
    (_homology_below), in P.elements order, and the sphere verdicts before
    filling in (dimension, index) order (_sphere_verdicts): only an element
    above a non-sphere has its filter complex built.  Then the elements are
    filled in that order.  A fill below a changes only the filters of the
    elements >= a, all visited after a, so every element below a has its
    final filter, found a sphere, when a is visited: the cavity ranks and
    the verdict after filling at a are read off the conic complex of the
    poset at hand (each fill's output has one, built by _verify_fill), and
    an element that is no sphere after its fills raises at once."""
    if P.deg is None:
        raise NotAMorphism("poset has no degree map")
    C = conic_complex(P, F, augmented=True)
    tops = C.component_dims()
    for a in P.elements:
        if (r := tops.get(a, 0)) != 1:
            raise HypothesisFailed(
                f"top filter homology below {a!r} has rank {r}, expected 1")
    memo = {}  # every poset visited has P's conic matrices (_verify_fill)
    verdicts = dict(_sphere_verdicts(C, P.elements, memo))
    verdicts_before = {a: verdicts[a] for a in P.elements}
    ok, alpha = supports_resolution(P, F)
    if not ok:
        raise HypothesisFailed(
            f"truncated conic complex at {alpha} is not exact")
    before, added = P, []
    for a in sorted(P.elements, key=lambda e: (P._dims[e], P.index[e])):
        for n in range(P._dims[a] - 2, -1, -1):
            if _memo_below(C, P.below[a], memo).get(n, 0):
                P, new = fill_cavity(P, a, n, F)
                added.extend(new)
                C = conic_complex(P, F, True)
        if _memo_below(C, P.below[a], memo) != {P._dims[a] - 1: 1}:
            raise VerificationError("hcwify result is not hcw")
    # each adding fill compared the conic complexes of its input and output
    verdicts_after = dict.fromkeys(P.elements, True)
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
