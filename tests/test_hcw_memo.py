"""The memoized cavity filling against a rebuild from scratch.

`conic_complex` memoizes on each Poset per FieldSpec and augmentation, and
`hcwify` and `fill_cavity` read their sphere verdicts and cavity ranks off
the augmented one; each fill's new poset (`Poset.extend_below`) takes over
no memo.  Every poset `hcwify` returns is rebuilt here from its elements
and covers alone, and what its memos say must equal what the rebuild
computes on its filter complexes.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from posetres import (FieldSpec, OrientedComplex, Poset, conic_complex,
                      fill_cavity, hcw, incidence_poset, is_hcw,
                      make_minimal_support_basis, minimalize, minimize,
                      reduced_homology, taylor_complex)
from posetres.conic import ConicComplex
from posetres.errors import HypothesisFailed, VerificationError
from posetres.posets import cycle_space, is_homology_sphere_at
from conftest import (M_GENS, RP2_GENS, load_fixture_complex,
                      random_corpus)
from test_q_reference import FractionField

K6_EDGES = [tuple(int(v in e) for v in range(6))
            for e in combinations(range(6), 2)]
NAMED = {"rp2": RP2_GENS, "m": M_GENS, "k6-10": K6_EDGES[:10],
         "k6-13": K6_EDGES[:13]}
CASES = [("rp2", 0), ("rp2", 2), ("rp2", 3), ("m", 0), ("m", 2), ("m", 3),
         ("k6-10", 2)]


def _incidence(I, F):
    M = minimize(taylor_complex(I, F))
    return incidence_poset(make_minimal_support_basis(M)[0])


def _assert_poset_matches_rebuild(Q, F):
    """Q against its rebuild R from elements and covers; returns R.  Every
    element of Q lies above spheres only, so the conic complex the last
    sphere verdicts read gives the simplicial homology of R's filters."""
    R = Poset(Q.elements, Q.covers, deg=Q.deg)
    assert (F, True) in Q._conic  # the last sphere verdicts left it
    C = Q._conic[F, True]
    for a in Q.elements:
        K, L = Q.filter_complex(a), R.filter_complex(a)
        assert K.faces == L.faces, a
        assert hcw._homology_below(C, Q.below[a]) == reduced_homology(L, F), a
        assert reduced_homology(K, F) == reduced_homology(L, F), a
    assert is_hcw(Q, F) == is_hcw(R, F)
    assert conic_complex(Q, F, True).same_matrices(
        conic_complex(R, F, True))
    return R


def _assert_matches_rebuild(Q, report, F):
    R = _assert_poset_matches_rebuild(Q, F)
    assert report.verdicts_after == {a: is_homology_sphere_at(R, a, F)
                                     for a in R.elements}


@pytest.mark.parametrize("name,p", CASES, ids=[f"{n}-{p}" for n, p in CASES])
def test_memoized_hcwify_matches_rebuild(name, p):
    F = FieldSpec(p)
    Q, report = hcw.hcwify(_incidence(minimalize(NAMED[name]), F), F)
    _assert_matches_rebuild(Q, report, F)


@pytest.mark.parametrize("p", [0, 2, 3])
def test_memoized_hcwify_matches_rebuild_on_corpus(p):
    F = FieldSpec(p)
    for I in random_corpus(100):
        Q, report = hcw.hcwify(_incidence(I, F), F)
        _assert_matches_rebuild(Q, report, F)


def test_cavity_fill_filters_match_rebuild():
    F = FieldSpec(2)
    P = incidence_poset(load_fixture_complex("pp_res.json", 2))
    top = next(e for e in P.elements if P.dim(e) == 3)
    # an element above the apex, whose filter the fill must change
    P = Poset([*P.elements, "u"], [*P.covers, (top, "u")],
              deg={**P.deg, "u": P.deg[top]})
    P2, added = fill_cavity(P, top, 1, F)
    assert added and P2 is not P
    R = Poset(P2.elements, P2.covers, deg=P2.deg)
    for c in P.elements:
        assert P2.filter_complex(c).faces == R.filter_complex(c).faces, c


# --- the checks still run on every fill that adds a relation -------------

def _spy(monkeypatch):
    """Record the calls of fill_cavity (inside hcwify), _verify_fill and
    ConicComplex.same_matrices, and the poset of each conic complex built
    (ConicComplex.__init__, which neither a memo hit nor the other
    augmentation of a memoized complex runs)."""
    fills, verified, compared, built = [], [], [], []
    fill, verify = hcw.fill_cavity, hcw._verify_fill
    same, init = ConicComplex.same_matrices, ConicComplex.__init__

    def spy_fill(P0, a, n, F):
        out = fill(P0, a, n, F)
        fills.append((P0, *out))
        return out

    def spy_verify(P0, P1, a, n, F, C0):
        verified.append((P0, P1))
        return verify(P0, P1, a, n, F, C0)

    def spy_same(C, D):
        compared.append((C.poset, D.poset))
        return same(C, D)

    def spy_init(C, poset, *args):
        built.append(poset)
        init(C, poset, *args)

    monkeypatch.setattr(hcw, "fill_cavity", spy_fill)
    monkeypatch.setattr(hcw, "_verify_fill", spy_verify)
    monkeypatch.setattr(ConicComplex, "same_matrices", spy_same)
    monkeypatch.setattr(ConicComplex, "__init__", spy_init)
    return fills, verified, compared, built


@pytest.mark.parametrize("name,n_adding", [("rp2", 1), ("k6-10", 0),
                                            ("k6-13", 2)])
def test_verify_fill_runs_once_per_adding_fill(monkeypatch, name, n_adding):
    F = FieldSpec(2)
    P = _incidence(minimalize(NAMED[name]), F)
    fills, verified, compared, built = _spy(monkeypatch)
    Q, report = hcw.hcwify(P, F)
    # hcwify fills only where there is a cavity, and every fill adds; each
    # fill starts from the previous one's result
    adding = [(P0, P1) for P0, P1, new in fills if new]
    chain = [P, *(P1 for _, P1 in adding)]
    assert len(adding) == len(fills) == n_adding
    assert bool(report.added) == bool(n_adding)
    assert all(P0 is chain[i] for i, (P0, _) in enumerate(adding))
    assert chain[-1] is Q
    assert len(verified) == len(adding)
    assert all(v[0] is f[0] and v[1] is f[1] and v[0] is not v[1]
               for v, f in zip(verified, adding))
    # one comparison in each _verify_fill, of the fill's input and output;
    # by the chain above they compose to P against Q.  One conic complex is
    # built for each poset on the chain, P's by the precheck and each
    # output's by _verify_fill, and every verdict and rank is read off them
    assert compared == adding
    assert built == chain
    if not adding:
        assert Q is P
    _assert_matches_rebuild(Q, report, F)


def test_noop_fill_returns_same_poset_unverified(monkeypatch):
    F = FieldSpec(0)
    P = incidence_poset(load_fixture_complex("two_res_a.json", 0))
    top = next(e for e in P.elements if P.dim(e) == 2)
    fills, verified, compared, built = _spy(monkeypatch)
    P2, added = fill_cavity(P, top, 0, F)
    assert P2 is P and added == []
    Q, report = hcw.hcwify(P, F)
    assert Q is P and report.added == []
    # no cavity below any element: hcwify calls no fill at all, and reads
    # the one conic complex of P, which the no-op fill built
    assert fills == verified == compared == []
    assert built == [P]


def chain_poset(edges=("e1", "e2", "e3", "e4", "e5")):
    """Six unit-degree vertices x, y, z, u, v, w, the edges among e1 = xy,
    e2 = yz, e3 = uv, e4 = zu, e5 = vw at their lcm degrees, and an apex a
    of the full degree above e3, x, y, z and w.  Delta(P_{<a}) has five
    components; each class of H~_0 the fill picks is filled by one edge."""
    ends = {"e1": "xy", "e2": "yz", "e3": "uv", "e4": "zu", "e5": "vw"}
    deg = {v: tuple(int(i == j) for j in range(6))
           for i, v in enumerate("xyzuvw")}
    rels = [(b, "a") for b in ["e3", *"xyzw"]]
    for e in edges:
        deg[e] = tuple(map(max, *(deg[v] for v in ends[e])))
        rels += [(v, e) for v in ends[e]]
    deg["a"] = (1,) * 6
    return Poset([*"xyzuvw", *edges, "a"], rels, deg=deg)


@pytest.mark.parametrize("p", [0, 2, 3])
def test_fill_that_loops_builds_two_conic_complexes(monkeypatch, p):
    F, P = FieldSpec(p), chain_poset()
    extended = []
    extend = Poset.extend_below

    def spy_extend(self, a, lows):
        extended.append(list(lows))
        return extend(self, a, lows)

    monkeypatch.setattr(Poset, "extend_below", spy_extend)
    fills, verified, compared, built = _spy(monkeypatch)
    Q, added = fill_cavity(P, "a", 0, F)
    assert extended == [["e1"], ["e2"], ["e4"], ["e5"]]  # four iterations
    assert added == [("e1", "a"), ("e2", "a"), ("e4", "a"), ("e5", "a")]
    assert verified == compared == [(P, Q)] and built == [P, Q]
    _assert_poset_matches_rebuild(Q, F)


@pytest.mark.parametrize("p", [0, 2, 3])
def test_fill_checks_truncated_conic_hypothesis(p):
    # without e4 the truncated conic complex has H_0 = 1: {x,y,z}, {u,v,w}
    P = chain_poset(("e1", "e2", "e3", "e5"))
    with pytest.raises(HypothesisFailed, match="truncated conic complex"):
        fill_cavity(P, "a", 0, FieldSpec(p))


@pytest.mark.parametrize("p", [0, 2, 3])
def test_fill_checks_lower_filters_are_spheres(p):
    # b lies over the three points x, y, z only: H~_0 below b has rank 2
    P = chain_poset()
    P = Poset([*P.elements, "b"], [*P.covers, *((v, "b") for v in "xyz")],
              deg={**P.deg, "b": (1, 1, 1, 0, 0, 0)})
    with pytest.raises(HypothesisFailed,
                       match="filter below 'b' is not a sphere"):
        fill_cavity(P, "a", 0, FieldSpec(p))


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_conic_cavity_matches_simplicial_cavity(monkeypatch, p):
    """Every filter below a is a sphere at the input and output of every
    fill that hcwify makes (fill_cavity checks it), and there the augmented
    conic complex on the apexes below a has the homology of Delta(P_{<a})."""
    F = FieldSpec(p)
    calls, fill = [], hcw.fill_cavity

    def spy_fill(P0, a, n, F):
        P1, added = fill(P0, a, n, F)
        calls.append((P0, P1, a, n))
        return P1, added

    monkeypatch.setattr(hcw, "fill_cavity", spy_fill)
    ideals = [minimalize(NAMED[name]) for name in ("rp2", "m", "k6-13")]
    for I in ideals + random_corpus(100):
        hcw.hcwify(_incidence(I, F), F)
    spy_fill(chain_poset(), "a", 0, F)  # a fill that loops
    conics = {}  # id -> (poset, its augmented conic complex)
    for P0, P1, a, n in calls:
        for P in {id(P0): P0, id(P1): P1}.values():
            assert all(is_homology_sphere_at(P, b, F) for b in P.below[a])
            if id(P) not in conics:
                conics[id(P)] = P, conic_complex(P, F, True)
            C = conics[id(P)][1]
            R = C.restrict(g for gs in C.gens.values() for g in gs
                           if g[0] in P.below[a])
            assert (R.homology_ranks()
                    == reduced_homology(P.filter_complex(a), F)), (a, n)
    assert any(P1 is not P0 for P0, P1, _, _ in calls)


# --- memo isolation on one complex ----------------------------------------

RP2_FACETS = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]


def rp2_complex():
    """The six-vertex triangulation of the real projective plane."""
    faces = {-1: [()]}
    for d in range(3):
        faces[d] = sorted({c for f in RP2_FACETS
                           for c in combinations(f, d + 1)})
    return OrientedComplex(faces)


@pytest.mark.parametrize("order", [(2, 0), (0, 2)])
def test_homology_memo_is_per_field(order):
    K = rp2_complex()
    expected = {2: {1: 1, 2: 1}, 0: {}}
    for _ in range(2):
        for p in order:
            assert reduced_homology(K, FieldSpec(p)) == expected[p]
            assert len(cycle_space(K, 2, FieldSpec(p))) == (p == 2)


@pytest.mark.parametrize("first", ["int", "fraction"])
def test_memo_separates_fieldspec_from_fraction_field(first):
    K = rp2_complex()
    fields = {"int": FieldSpec(0), "fraction": FractionField(0)}
    order = [first, *(k for k in fields if k != first)]
    cycles = {k: cycle_space(K, 1, fields[k]) for k in order}
    assert cycles["int"] == cycles["fraction"]
    assert all(type(v) is int for z in cycles["int"] for v in z.values())
    assert all(type(v) is Fraction
               for z in cycles["fraction"] for v in z.values())


def test_memo_returns_copies():
    K, F = rp2_complex(), FieldSpec(2)
    h, z = reduced_homology(K, F), cycle_space(K, 1, F)
    h0, z0 = dict(h), [dict(c) for c in z]
    h[0] = 7
    del h[1]
    z[0][(9,)] = 1
    z[1].clear()
    z.append({})
    assert reduced_homology(K, F) == h0
    assert cycle_space(K, 1, F) == z0


# --- the conic complex memo on each poset ---------------------------------

def _scalars(C):
    return [v for part in (C.cycles, *C.d.values()) for z in part.values()
            for v in z.values()]


def test_conic_memo_per_field_and_augmentation():
    P = _incidence(minimalize(RP2_GENS), FieldSpec(0))
    C = conic_complex(P, FieldSpec(0))
    assert conic_complex(P, FieldSpec(0)) is C
    A = conic_complex(P, FieldSpec(0), True)
    assert A is not C and A.augmented and not C.augmented
    # built once per (poset, field): the other augmentation shares the stores
    assert all(getattr(A, k) is getattr(C, k) for k in ("gens", "d"))
    assert A.cycles == C.cycles
    assert conic_complex(P, FieldSpec(0), True) is A
    D = conic_complex(P, FractionField(0))
    assert D is not C and D.same_matrices(C)
    assert conic_complex(P, FractionField(0)) is D
    assert {type(v) for v in _scalars(C)} == {int}
    assert {type(v) for v in _scalars(D)} == {Fraction}


@pytest.mark.parametrize("p", [0, 2, 3])
def test_verify_fill_compares_a_fresh_conic_complex(monkeypatch, p):
    """extend_below carries no conic complex, so _verify_fill compares the
    memoized complex of a fill's input with one built afresh for its
    output, and a wrong memo entry that leaves the fill as it is gets
    caught: d(e3) = u - v becomes u - w, still a complex, and the fill
    still adds e1, e2, e4 and e5.  An extend_below that carried the memo
    would compare the complex with itself."""
    F = FieldSpec(p)

    def corrupted():
        P = chain_poset()
        col = conic_complex(P, F, True).d[1][("e3", 0)]
        col[("w", 0)] = col.pop(("v", 0))
        return P

    with pytest.raises(VerificationError, match="conic complex changed"):
        fill_cavity(corrupted(), "a", 0, F)
    extend = Poset.extend_below

    def carrying(self, a, lows):
        P = extend(self, a, lows)
        P._conic.update(self._conic)
        return P

    monkeypatch.setattr(Poset, "extend_below", carrying)
    assert fill_cavity(corrupted(), "a", 0, F)[1] == [
        (e, "a") for e in ("e1", "e2", "e4", "e5")]


# --- hcwify fills only where there is a cavity -----------------------------

def _hcwify_filling_everywhere(P, F):
    """hcwify's fill loop calling fill_cavity at every (a, n), cavity or
    not: (result, added relations)."""
    added = []
    for a in sorted(P.elements, key=lambda e: (P.dim(e), P.index[e])):
        for n in range(P.dim(a) - 2, -1, -1):
            P, new = fill_cavity(P, a, n, F)
            added.extend(new)
    return P, added


def _by_dimension(P, elements):
    return sorted(elements, key=lambda e: (P.dim(e), P.index[e]))


def test_hcwify_fills_only_cavities_and_checks_final_filters(monkeypatch):
    """Each fill_cavity call of hcwify has H~_n != 0 below its apex (on the
    rebuilt filter complex) and adds a relation.  The lower spheres a fill
    checks, each on its input, in (dimension, index) order, on the conic
    complex and once per (poset, element), have their final filters there,
    so their verdicts are the report's: the calls hcwify skips would have
    taken the same verdicts.  The result and report equal those of a loop
    that calls fill_cavity at every (a, n), with simplicial verdicts."""
    fills, checks, inside, built = [], [], [], []
    fill, verdicts = hcw.fill_cavity, hcw._sphere_verdicts
    sphere, subcomplex = is_homology_sphere_at, Poset.subcomplex

    def spy_fill(P0, a, n, F):
        R0 = Poset(P0.elements, P0.covers, deg=P0.deg)
        cavity = reduced_homology(R0.filter_complex(a), F).get(n, 0)
        start = len(checks)
        inside.append(a)
        P1, added = fill(P0, a, n, F)
        inside.pop()
        fills.append((P0, a, n, cavity, added, checks[start:]))
        return P1, added

    def spy_verdicts(C, down, memo):
        out = dict(verdicts(C, down, memo))
        if inside:
            checks.extend((C.poset, b, v) for b, v in out.items())
        return out.items()

    def spy_subcomplex(P0, tops):
        if inside:
            built.append(tops)
        return subcomplex(P0, tops)

    monkeypatch.setattr(hcw, "fill_cavity", spy_fill)
    monkeypatch.setattr(hcw, "_sphere_verdicts", spy_verdicts)
    monkeypatch.setattr(Poset, "subcomplex", spy_subcomplex)
    named = [(RP2_GENS, 2), (K6_EDGES[:13], 2), (K6_EDGES[:15], 2),
             (K6_EDGES[:15], 3)]
    for I, p in [(minimalize(gens), p) for gens, p in named] + [
            (I, p) for p in (0, 2, 3, 5) for I in random_corpus(100)]:
        F, start = FieldSpec(p), len(fills)
        P = _incidence(I, F)
        Q, report = hcw.hcwify(P, F)
        assert built == []  # every verdict in a fill read off the conic
        for Pi, a, n, cavity, added, seen in fills[start:]:
            assert cavity and added, (a, n)
            assert [b for _, b, _ in seen] == _by_dimension(
                Pi, [b for b in Pi.elements if Pi.dim(b) < Pi.dim(a)])
            for P0, b, verdict in seen:
                assert P0 is Pi and Q.below[b] == Pi.below[b], b
                assert verdict == report.verdicts_after[b], b
        _assert_matches_rebuild(Q, report, F)
        P = _incidence(I, F)
        R, added = _hcwify_filling_everywhere(P, F)
        expected = hcw.HcwReport(P, R, added,
                                 *({a: sphere(Pi, a, F) for a in Pi.elements}
                                   for Pi in (P, R)))
        assert report.to_json() == expected.to_json()
    assert len(fills) == 12
    assert max(Counter((id(P0), b) for P0, b, _ in checks).values()) == 1


# --- fill_cavity checks every lower sphere on every call -------------------

def _first_non_sphere(P, a, F):
    """The element fill_cavity(P, a, ...) must name: the first one in
    (dimension, index) order of dimension below d(a) whose filter, rebuilt
    from the covers alone, is not a sphere."""
    R = Poset(P.elements, P.covers, deg=P.deg)
    return next(b for b in _by_dimension(R, R.elements)
                if R.dim(b) < R.dim(a) and not is_homology_sphere_at(R, b, F))


def test_fill_names_the_first_non_sphere_on_every_call():
    """w covers one element x of dimension 2, so its filter is a cone, and
    z covers w.  fill_cavity below z names the first non-sphere on each
    call, before and after a fill below the apex `top` on the same lineage,
    for it checks every lower sphere on every call."""
    F = FieldSpec(2)
    P = incidence_poset(load_fixture_complex("pp_res.json", 2))
    top = next(e for e in P.elements if P.dim(e) == 3)
    x = next(e for e in P.elements if P.dim(e) == 2)
    P = Poset([*P.elements, "w", "z"], [*P.covers, (x, "w"), ("w", "z")],
              deg={**P.deg, "w": P.deg[x], "z": P.deg[x]})
    names = []
    for _ in range(2):
        with pytest.raises(HypothesisFailed) as exc:
            fill_cavity(P, "z", 0, F)
        names.append(str(exc.value))
    P2, added = fill_cavity(P, top, 1, F)
    assert added and P2 is not P
    for _ in range(2):
        with pytest.raises(HypothesisFailed) as exc:
            fill_cavity(P2, "z", 0, F)
        names.append(str(exc.value))
    first = [_first_non_sphere(Pi, "z", F) for Pi in (P, P, P2, P2)]
    assert names == [f"filter below {b!r} is not a sphere" for b in first]
    assert first[0] == top and first[2] in (top, "w")


def test_fill_names_the_first_miss_in_dimension_order(monkeypatch):
    """v, of dimension 1, covers one point y, so its filter is no sphere,
    and it is appended after top, a non-sphere of dimension 3, and below w.
    fill_cavity below z names v, the first miss in (dimension, index)
    order, not top, the first in P.elements order, and stops there: it
    builds no filter complex, not even w's, which lies above v, and reads
    no FACE_CAP."""
    F = FieldSpec(2)
    P = incidence_poset(load_fixture_complex("pp_res.json", 2))
    top = next(e for e in P.elements if P.dim(e) == 3)
    x = next(e for e in P.elements if P.dim(e) == 2)
    y = next(e for e in P.below[x] if P.dim(e) == 0)
    P = Poset([*P.elements, "w", "z", "v"],
              [*P.covers, (x, "w"), ("w", "z"), (y, "v"), ("v", "w")],
              deg={**P.deg, "w": P.deg[x], "z": P.deg[x], "v": P.deg[y]})
    assert (P.dim("v"), P.dim(top)) == (1, 3)
    assert _first_non_sphere(P, "z", F) == "v"
    assert next(b for b in P.elements if P.dim(b) < P.dim("z")
                and not is_homology_sphere_at(P, b, F)) == top
    built = []
    subcomplex = Poset.subcomplex

    def spy_subcomplex(P0, tops):
        built.append(tops)
        return subcomplex(P0, tops)

    monkeypatch.setattr(Poset, "subcomplex", spy_subcomplex)
    monkeypatch.setattr("posetres.posets.FACE_CAP", 0)
    with pytest.raises(HypothesisFailed,
                       match="filter below 'v' is not a sphere"):
        fill_cavity(P, "z", 0, F)
    assert built == []


@pytest.mark.parametrize("name,p", [("rp2", 2), ("m", 3), ("k6-10", 2),
                                    ("k6-13", 2), ("k6-13", 0)])
def test_fill_checks_each_lower_sphere_once_per_poset(monkeypatch, name, p):
    """Each fill_cavity call of hcwify checks every element below its
    apex's dimension, in (dimension, index) order, on the fill's own input
    and off its conic complex, building no filter complex, and no
    (poset, element) pair is checked twice inside the fills."""
    F = FieldSpec(p)
    P = _incidence(minimalize(NAMED[name]), F)
    fills, checked, inside, built = [], [], [], []
    fill, verdicts = hcw.fill_cavity, hcw._sphere_verdicts
    subcomplex = Poset.subcomplex

    def spy_fill(P0, a, n, F):
        fills.append((P0, a))
        inside.append(a)
        try:
            return fill(P0, a, n, F)
        finally:
            inside.pop()

    def spy_verdicts(C, down, memo):
        out = dict(verdicts(C, down, memo))
        if inside:  # conic: every element below b was found a sphere
            checked.extend((C.poset, b, all(out[x] for x in C.poset.below[b]))
                           for b in out)
        return out.items()

    def spy_subcomplex(P0, tops):
        if inside:
            built.append(tops)
        return subcomplex(P0, tops)

    monkeypatch.setattr(hcw, "fill_cavity", spy_fill)
    monkeypatch.setattr(hcw, "_sphere_verdicts", spy_verdicts)
    monkeypatch.setattr(Poset, "subcomplex", spy_subcomplex)
    Q, report = hcw.hcwify(P, F)
    assert max(Counter((id(P0), b) for P0, b, _ in checked).values(),
               default=1) == 1
    expected = [(id(P0), b) for P0, a in fills for b in _by_dimension(
        P0, [b for b in P0.elements if P0.dim(b) < P0.dim(a)])]
    assert [(id(P0), b) for P0, b, _ in checked] == expected
    assert all(conic for _, _, conic in checked) and built == []
    assert bool(fills) == bool(report.added)
    _assert_matches_rebuild(Q, report, F)
