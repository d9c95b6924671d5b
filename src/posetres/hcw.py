"""Cavity filling: adding down-edges below an element until every open
filter becomes a homology sphere, and the end-to-end pipeline from a
monomial ideal to an hcw-poset supporting its minimal resolution.
"""

from .errors import HypothesisFailed, NotAMorphism, VerificationError
from .exactla import solve
from .conic import (conic_complex, conic_coords, homogenize,
                    supports_resolution)
from .gradedcomplex import betti_table, minimize, taylor_complex
from .incidence import incidence_poset
from .minsupport import make_minimal_support_basis
from .monomials import divides
from .posets import (Poset, cycle_space, is_homology_sphere_at,
                     reduced_homology)


def _boundary_of_chain(K, n, chain, F):
    """Simplicial boundary of a sparse n-chain of K."""
    out = {}
    for f, v in chain.items():
        for i in range(len(f)):
            sub = f[:i] + f[i + 1:]
            s = F.mul(F(-1 if i % 2 else 1), v)
            acc = F.add(out.get(sub, F.zero), s)
            if acc:
                out[sub] = acc
            else:
                out.pop(sub, None)
    return out


def antichain_form(P, a, w, m, F):
    """Rewrite an m-cycle of Delta(P_{<a}) as a homologous cycle all of whose
    cone apexes have dimension exactly m (the antichain form)."""
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
            if any(_boundary_of_chain(K, m - 1, wc, F).values()):
                raise VerificationError("top cone component is not a cycle")
            # fill w_c inside the sphere Delta(P_{<c})
            faces_m = K.faces.get(m, [])
            fix = {f: i for i, f in enumerate(K.faces.get(m - 1, []))}
            A = K.boundary_matrix(m)
            rhs = [F.zero] * A.rows
            for f, v in wc.items():
                rhs[fix[f]] = v
            x = solve(A, rhs, F)
            if x is None:
                raise VerificationError(
                    f"cycle not fillable below {c!r} despite sphere hypothesis")
            v_c = {f: s for f, s in zip(faces_m, x) if s}
            # w + d[c, v_c] = w + v_c - [c, w_c]
            for f, s in v_c.items():
                acc = F.add(w.get(f, F.zero), s)
                if acc:
                    w[f] = acc
                else:
                    w.pop(f, None)
            for f in [f for f in w if f[0] == c]:
                del w[f]
    for c in {f[0] for f in w}:
        wc = {f[1:]: v for f, v in w.items() if f[0] == c}
        if any(_boundary_of_chain(P.filter_complex(c), m - 1, wc, F).values()):
            raise VerificationError("antichain form component is not a cycle")
    return w


def _solve_filling(C, alpha, n, zeta, excluded):
    """Solve conic d_{n+1} t = zeta over the deg <= alpha truncation, with
    the apexes in `excluded` forced out of the support."""
    F = C.field
    deg = C.poset.deg
    cols = [g for g in C.gens.get(n + 1, [])
            if divides(deg[g[0]], alpha) and g[0] not in excluded]
    rows = [g for g in C.gens.get(n, []) if divides(deg[g[0]], alpha)]
    rhs = [zeta.get(g, F.zero) for g in rows]
    x = solve(C.matrix(n + 1, rows, cols), rhs, F)
    if x is None:
        return None
    return {g: v for g, v in zip(cols, x) if v}


def fill_cavity(P, a, n, F):
    """Add down-edges (c, a) until H~_n of Delta(P_{<a}) vanishes.

    Returns (new poset, list of added relations); verifies the conclusions
    of the underlying lemma on the result.
    """
    if P.deg is None:
        raise NotAMorphism("poset has no degree map")
    if P.dim(a) < n + 2:
        raise HypothesisFailed(f"d({a!r}) = {P.dim(a)} < n + 2 = {n + 2}")
    da = P.dim(a)
    for b in P.elements:
        if P.dim(b) < da and not is_homology_sphere_at(P, b, F):
            raise HypothesisFailed(f"filter below {b!r} is not a sphere")
    alpha = P.deg[a]
    added = []
    P0 = P
    r_prev = None
    while True:
        K = P.filter_complex(a)
        r = reduced_homology(K, F).get(n, 0)
        if r == 0:
            break
        if r_prev is not None and r >= r_prev:
            raise VerificationError("cavity rank failed to decrease")
        r_prev = r
        C = conic_complex(P, F, augmented=True)
        sub = C.restrict_deg_leq(alpha)
        if sub.homology_ranks().get(n, 0):
            raise HypothesisFailed(
                f"H_{n} of the truncated conic complex at {alpha} is nonzero")
        # first homology class: first kernel vector that is not a boundary
        zs = cycle_space(K, n, F)
        bd = K.boundary_matrix(n + 1)
        faces_n = K.faces.get(n, [])
        fix = {f: i for i, f in enumerate(faces_n)}
        h = None
        for z in zs:
            rhs = [F.zero] * len(faces_n)
            for f, v in z.items():
                rhs[fix[f]] = v
            if solve(bd, rhs, F) is None:
                h = z
                break
        if h is None:
            raise VerificationError("positive homology rank but no class found")
        z = antichain_form(P, a, h, n, F)
        zeta = conic_coords(P, C.cycles, z, n, F)
        t = _solve_filling(C, alpha, n, zeta, set())
        if t is None:
            raise VerificationError("conic filling system is inconsistent")
        below_a = P.below[a]
        excluded = set()
        while True:
            new_c = sorted({g[0] for g in t} - below_a, key=P.index.get)
            progressed = False
            for c in new_c:
                t2 = _solve_filling(C, alpha, n, zeta, excluded | {c})
                if t2 is not None:
                    excluded.add(c)
                    t = t2
                    progressed = True
                    break
            if not progressed:
                break
        new_c = sorted({g[0] for g in t} - below_a, key=P.index.get)
        if not new_c:
            raise VerificationError(
                "filling chain lies below the apex; class was a boundary")
        rels = list(P.covers) + [(c, a) for c in new_c]
        P = Poset(P.elements, rels, deg=P.deg)
        added.extend((c, a) for c in new_c)
    _verify_fill(P0, P, a, n, F)
    return P, added


def _verify_fill(P0, P1, a, n, F):
    """Machine-check the lemma's conclusions (1)-(6)."""
    for lo, hi in P0.covers:
        if not P1.leq(lo, hi):
            raise VerificationError("order extension lost a relation")
    for c in P0.elements:
        if not P0.leq(a, c) and P0.below[c] != P1.below[c]:
            raise VerificationError(f"filter of untouched element {c!r} changed")
        if P0.dim(c) != P1.dim(c):
            raise VerificationError(f"dimension of {c!r} changed")
    if not conic_complex(P0, F, True).same_matrices(conic_complex(P1, F, True)):
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
    homology = {}
    for a in P.elements:
        homology[a] = reduced_homology(P.filter_complex(a), F)
        r = homology[a].get(P.dim(a) - 1, 0)
        if r != 1:
            raise HypothesisFailed(
                f"top filter homology below {a!r} has rank {r}, expected 1")
    ok, alpha = supports_resolution(P, F)
    if not ok:
        raise HypothesisFailed(
            f"truncated conic complex at {alpha} is not exact")
    before = P
    # Delta(P_{<a}) has dimension d(a) - 1: as in is_homology_sphere_at
    verdicts_before = {a: h == {P.dim(a) - 1: 1} for a, h in homology.items()}
    added = []
    for a in sorted(P.elements, key=lambda e: (P.dim(e), P.index[e])):
        for n in range(P.dim(a) - 2, -1, -1):
            P, new = fill_cavity(P, a, n, F)
            added.extend(new)
    verdicts_after = {a: is_homology_sphere_at(P, a, F) for a in P.elements}
    if not all(verdicts_after.values()):
        raise VerificationError("hcwify result is not hcw")
    if not conic_complex(before, F, True).same_matrices(
            conic_complex(P, F, True)):
        raise VerificationError("hcwify changed the conic complex")
    return P, HcwReport(before, P, added, verdicts_before, verdicts_after)


def hcw_support(I, F):
    """Pipeline: minimal resolution -> minimal-support basis -> incidence
    poset -> hcwify -> homogenized conic complex.  Returns (Q, deg, complex).
    """
    M = minimize(taylor_complex(I, F))
    M2, _ = make_minimal_support_basis(M)
    P = incidence_poset(M2)
    Q, _report = hcwify(P, F)
    H = homogenize(conic_complex(Q, F), Q.deg)
    if betti_table(H).entries != betti_table(M2).entries:
        raise VerificationError(
            "homogenized conic complex has a different Betti table")
    return Q, Q.deg, H
