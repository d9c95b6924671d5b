"""Independent Betti-number oracle via upper-Koszul simplicial complexes.

Deliberately self-contained: its own field arithmetic, its own dense
elimination, and its own simplicial homology, so that agreement with the
minimization pipeline is a genuine cross-check.  The exceptions are
`supports_resolution_loop`, `sliced_subcomplex`, `dense_rref`,
`dense_kernel`, `strand_reference`, `conic_coords`, `conic_complex_reference`
and `is_hcw_reference`, references kept from an earlier posetres that run
on posetres complexes and fields.
"""

from fractions import Fraction
from itertools import combinations


def _rank(M, p):
    """Row-reduction rank of a dense matrix over GF(p) or Q (p == 0)."""
    M = [row[:] for row in M]
    if not M or not M[0]:
        return 0
    rows, cols = len(M), len(M[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        if p:
            inv = pow(M[r][c], -1, p)
            M[r] = [(inv * v) % p for v in M[r]]
        else:
            inv = Fraction(1) / M[r][c]
            M[r] = [inv * v for v in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                if p:
                    M[i] = [(a - f * b) % p for a, b in zip(M[i], M[r])]
                else:
                    M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
        if r == rows:
            break
    return r


def boundary_of_chain(chain, p):
    """Simplicial boundary of a chain {face tuple: scalar} over GF(p) or Q:
    dropping vertex i of a face has sign (-1)^i.  Zero terms are left out."""
    out = {}
    for f, v in chain.items():
        for i in range(len(f)):
            sub = f[:i] + f[i + 1:]
            out[sub] = out.get(sub, 0) + (-v if i % 2 else v)
    out = {f: v % p if p else v for f, v in out.items()}
    return {f: v for f, v in out.items() if v}


def _reduced_homology_ranks(facelist, p):
    """Reduced homology of a simplicial complex given as a set of faces
    (sorted tuples, including the empty tuple if nonvoid)."""
    faces = {}
    for f in facelist:
        faces.setdefault(len(f) - 1, []).append(tuple(f))
    for d in faces:
        faces[d] = sorted(set(faces[d]))
    if not faces:
        return {}
    top = max(faces)
    ranks = {}
    bmat_rank = {}
    for n in range(0, top + 1):
        rows = {f: i for i, f in enumerate(faces.get(n - 1, []))}
        cols = faces.get(n, [])
        M = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for i in range(len(f)):
                sub = f[:i] + f[i + 1:]
                M[rows[sub]][j] = -1 if i % 2 else 1
        bmat_rank[n] = _rank(M, p)
    for n in range(-1, top + 1):
        cn = len(faces.get(n, []))
        h = cn - bmat_rank.get(n, 0) - bmat_rank.get(n + 1, 0)
        if h:
            ranks[n] = h
    return ranks


def _in_ideal(gens, alpha):
    return any(all(g <= a for g, a in zip(gen, alpha)) for gen in gens)


def upper_koszul_complex(gens, alpha):
    """Faces S of variables with x^(alpha - chi_S) in the ideal."""
    m = len(alpha)
    out = []
    for size in range(0, m + 1):
        for S in combinations(range(m), size):
            beta = list(alpha)
            ok = True
            for v in S:
                beta[v] -= 1
                if beta[v] < 0:
                    ok = False
                    break
            if ok and _in_ideal(gens, beta):
                out.append(S)
    return out


def betti_numbers(gens, p):
    """All multigraded Betti numbers of the ideal: {(i, alpha): beta}."""
    gens = [tuple(g) for g in gens]
    lattice = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for a in frontier:
            for b in lattice:
                j = tuple(max(x, y) for x, y in zip(a, b))
                if j not in lattice and j not in new:
                    new.add(j)
        lattice |= new
        frontier = new
    table = {}
    for alpha in sorted(lattice):
        K = upper_koszul_complex(gens, alpha)
        for n, h in _reduced_homology_ranks(K, p).items():
            table[(n + 1, alpha)] = h
    return table


def supports_resolution_loop(P, F):
    """supports_resolution as a loop over every alpha in the join closure of
    all element degrees, in sorted order: the augmented conic complex
    restricted to the apexes of degree <= alpha must be exact.  Returns
    (ok, the first alpha where it is not, or None)."""
    from posetres import conic_complex, join_closure
    from posetres.errors import NotAMorphism
    from posetres.monomials import divides
    if P.deg is None:
        raise NotAMorphism("poset has no degree map")
    C = conic_complex(P, F, augmented=True)
    for alpha in sorted(join_closure(P.deg.values())):
        sub = C.restrict(g for gs in C.basis.values() for g in gs
                         if divides(P.deg[g[0]], alpha))
        if sub.homology_ranks():
            return False, alpha
    return True, None


def strand_reference(C, alpha):
    """strand as it once was: one `divides` per basis id, and a scan of every
    (row, col) entry of every differential for the entries among the kept
    ids."""
    from posetres import ChainComplex
    from posetres.monomials import divides
    keep = {i for i, d in C.degree_of.items() if divides(d, alpha)}
    basis = {n: [i for i in ids if i in keep] for n, ids in C.basis.items()}
    d = {}
    for n, mat in C.diffs.items():
        for (r, c), v in mat.items():
            if c in keep and (r in keep or not n):  # d_0 maps onto ()
                d.setdefault(n, {}).setdefault(c, {})[r] = v
    return ChainComplex(C.field, basis, d, C.augmented)


def is_hcw_reference(P, F):
    """posets.is_hcw as it once was: the simplicial homology of every
    filter complex, one element at a time in P.elements order."""
    from posetres.posets import is_homology_sphere_at
    return all(is_homology_sphere_at(P, a, F) for a in P.elements)


def sliced_subcomplex(P, tops):
    """Poset.subcomplex as it once was: the faces of the whole order complex
    whose largest vertex lies in `tops`, with the empty face, in the order
    complex's own order."""
    from posetres import OrientedComplex
    faces = {d: [f for f in fs if f[0] in tops]
             for d, fs in P.order_complex().faces.items() if d >= 0}
    return OrientedComplex({-1: [()], **faces})


def dense_rref(M, F, ncols):
    """In-place reduced row echelon form of the dense rows M over the
    FieldSpec F, the elimination exactla ran before its column reduction
    (the last copy, `_rref`, echelonized conic cycles on their faces).
    Returns the pivot columns."""
    pivots = []
    prow = 0
    nrows = len(M)
    for c in range(ncols):
        pr = next((r for r in range(prow, nrows) if M[r][c]), None)
        if pr is None:
            continue
        M[prow], M[pr] = M[pr], M[prow]
        inv = F.inv(M[prow][c])
        if inv != F.one:
            M[prow] = [F.mul(inv, v) for v in M[prow]]
        row = M[prow]
        for r in range(nrows):
            if r != prow and M[r][c]:
                f = M[r][c]
                M[r] = [F.sub(a, F.mul(f, b)) for a, b in zip(M[r], row)]
        pivots.append(c)
        prow += 1
        if prow == nrows:
            break
    return pivots


def dense_kernel(M, pivots, F, ncols):
    """The kernel basis read off M, reduced in place by dense_rref with the
    given pivot columns: for each free column j, ascending, the vector that
    is 1 at j and minus the reduced column j at the pivot columns, scaled
    so that its first nonzero coordinate is 1."""
    basis = []
    for j in sorted(set(range(ncols)) - set(pivots)):
        v = [F.zero] * ncols
        v[j] = F.one
        for pc, row in zip(pivots, M):
            v[pc] = F.neg(row[j])
        lead = F.inv(next(x for x in v if x))
        basis.append([F.mul(lead, x) for x in v])
    return basis


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
    from posetres.errors import VerificationError
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


def conic_complex_reference(P, F, augmented=False):
    """conic_complex as it once was, in two stages: the top cycles of each
    filter complex Delta(P_{<a}) (cycle_space), then each cycle's
    differential read back into the conic bases by conic_coords.  Those
    cycles are set on the result in place of its expanded view."""
    from posetres.conic import ConicComplex
    from posetres.posets import cycle_space
    gens, cycles = {}, {}
    for a in P.elements:
        n = P.dim(a)
        gens.setdefault(n, [])
        for i, z in enumerate(cycle_space(P.filter_complex(a), n - 1, F)):
            gens[n].append((a, i))
            cycles[(a, i)] = z
    d = {0: {g: {(): cycles[g].get((), F.zero)} for g in gens.get(0, [])}}
    d.update({n: {g: conic_coords(P, cycles, cycles[g], n - 1, F)
                  for g in gs} for n, gs in sorted(gens.items()) if n})
    C = ConicComplex(P, F, gens, d, augmented)
    C.cycles = cycles
    return C
