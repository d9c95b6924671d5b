"""Sphere verdicts and cavity ranks read off the conic complex.

`hcwify`, `fill_cavity` and `is_hcw` read the homology of each filter
Delta(P_{<a}) off the augmented conic complex of P, restricted to the
apexes below a.  The paper's theorem makes that exact once every element
below a is a sphere; an element above a non-sphere falls back to its
filter complex.  Here both readings are compared with the simplicial
homology of a rebuilt poset, on every poset `hcwify` visits, and `is_hcw`
with the simplicial one it replaced.
"""

import pytest

from posetres import (FieldSpec, Poset, betti_poset, betti_table, conic,
                      conic_complex, gradedcomplex, hcw, is_hcw, minimalize,
                      minimize, taylor_complex)
from posetres.errors import VerificationError
from posetres.posets import is_homology_sphere_at, reduced_homology
from conftest import (RP2_GENS, random_corpus, random_graded_posets,
                      theta_poset)
from oracle import is_hcw_reference
from test_hcw_memo import K6_EDGES, _by_dimension, _incidence

K6_NAMED = {"k6-13": K6_EDGES[:13], "k6-15": K6_EDGES[:15]}
# the one element of K6-13 over GF(2) above a non-sphere (t7.9.10.12): the
# conic complex below it has the wrong homology
WITNESS = "t7.8.9.10.12"


def _visited(monkeypatch, P, F):
    """hcwify(P, F) and every poset it visits: P, and each fill's input and
    output, once each, in order."""
    seen, fill = {id(P): P}, hcw.fill_cavity

    def spy_fill(P0, a, n, F):
        P1, added = fill(P0, a, n, F)
        seen.update({id(P0): P0, id(P1): P1})
        return P1, added

    monkeypatch.setattr(hcw, "fill_cavity", spy_fill)
    Q, report = hcw.hcwify(P, F)
    monkeypatch.setattr(hcw, "fill_cavity", fill)
    assert Q is list(seen.values())[-1]
    return report, list(seen.values())


def _assert_conic_matches_simplicial(V, F):
    """On a poset hcwify visited: the top rank at every element is its
    conic component dimension; below every element over spheres only, the
    conic complex V's verdicts read gives the homology of the rebuilt
    filter complex; and _sphere_verdicts, fallbacks included, gives the
    rebuilt verdicts.  Returns the elements above a non-sphere."""
    R = Poset(V.elements, V.covers, deg=V.deg)
    C = V._conic[F, True]
    tops = C.component_dims()
    spheres, fallback = set(), []
    for a in _by_dimension(R, R.elements):
        h = reduced_homology(R.filter_complex(a), F)
        assert tops.get(a, 0) == h.get(R.dim(a) - 1, 0), a
        if R.below[a] <= spheres:
            assert hcw._homology_below(C, V.below[a]) == h, a
        else:
            fallback.append(a)
        if h == {R.dim(a) - 1: 1}:
            spheres.add(a)
    assert dict(hcw._sphere_verdicts(C, V.elements, {})) == {
        a: is_homology_sphere_at(R, a, F) for a in R.elements}
    return fallback


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_conic_readings_match_simplicial_on_corpus(monkeypatch, p):
    F = FieldSpec(p)
    for I in random_corpus(100):
        _, visited = _visited(monkeypatch, _incidence(I, F), F)
        for V in visited:
            assert _assert_conic_matches_simplicial(V, F) == []


@pytest.mark.parametrize("p", [0, 2, 3])
@pytest.mark.parametrize("name", sorted(K6_NAMED))
def test_conic_readings_match_simplicial_on_k6(monkeypatch, name, p):
    """Only over GF(2) has the input elements above a non-sphere; hcwify
    takes their verdicts before filling off their filter complexes.  A
    fill's input or output may have such elements too (they are visited
    later), and the result has none."""
    F = FieldSpec(p)
    P = _incidence(minimalize(K6_NAMED[name]), F)
    report, visited = _visited(monkeypatch, P, F)
    fallbacks = [_assert_conic_matches_simplicial(V, F) for V in visited]
    assert fallbacks[0] == [a for a in _by_dimension(P, P.elements) if not all(
        report.verdicts_before[b] for b in P.below[a])]
    assert bool(fallbacks[0]) == (p == 2)
    assert fallbacks[-1] == []
    assert (len(visited) > 1) == bool(report.added)


def test_verdict_above_a_non_sphere_falls_back():
    """On K6-13 over GF(2) the conic complex below the witness reads a
    sphere, {3: 1}, but the filter complex has {2: 1, 3: 1}: an element
    below it is no sphere, so the theorem does not apply there."""
    F = FieldSpec(2)
    P = _incidence(minimalize(K6_EDGES[:13]), F)
    C = hcw.conic_complex(P, F, True)
    assert hcw._homology_below(C, P.below[WITNESS]) == {3: 1}
    assert reduced_homology(P.filter_complex(WITNESS), F) == {2: 1, 3: 1}
    _, report = hcw.hcwify(P, F)
    assert not report.verdicts_before["t7.9.10.12"]
    assert not report.verdicts_before[WITNESS]
    assert report.verdicts_after[WITNESS]


def _filters_built(monkeypatch, I, F):
    """hcw_support(I, F), recording hcwify's input poset, each fill_cavity
    call as (apex, added relations), and each Poset.subcomplex call as
    (poset, tops, number of fills made before it)."""
    inputs, fills, calls = [], [], []
    hcwify, fill, subcomplex = hcw.hcwify, hcw.fill_cavity, Poset.subcomplex

    def spy_hcwify(P, F):
        inputs.append(P)
        return hcwify(P, F)

    def spy_fill(P0, a, n, F):
        P1, added = fill(P0, a, n, F)
        fills.append((a, added))
        return P1, added

    def spy(P, tops):
        calls.append((P, frozenset(tops), len(fills)))
        return subcomplex(P, tops)

    with monkeypatch.context() as m:
        m.setattr(hcw, "hcwify", spy_hcwify)
        m.setattr(hcw, "fill_cavity", spy_fill)
        m.setattr(Poset, "subcomplex", spy)
        hcw.hcw_support(I, F)
    return inputs[0], fills, calls


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_hcw_support_builds_no_filter_complex_on_corpus(monkeypatch, p):
    F = FieldSpec(p)
    for I in random_corpus(100):
        assert _filters_built(monkeypatch, I, F)[2] == []


@pytest.mark.parametrize("p", [0, 2, 3])
def test_hcw_support_builds_only_fallback_filters_on_k6_13(monkeypatch, p):
    F = FieldSpec(p)
    P, _, calls = _filters_built(monkeypatch, minimalize(K6_EDGES[:13]), F)
    if p != 2:
        assert calls == []
    else:
        assert [(Pc is P, Pc.below[WITNESS] == tops, done)
                for Pc, tops, done in calls] == [(True, True, 0)]


def test_hcw_support_builds_only_precheck_filters_on_k6_15(monkeypatch):
    """Over GF(2) two elements of K6-15 lie above a non-sphere, and the
    precheck builds their filter complexes on hcwify's input.  The fill
    loop then fills at both, adding 16 relations in all, and builds no
    filter complex: each element it visits has only spheres below."""
    P, fills, calls = _filters_built(
        monkeypatch, minimalize(K6_EDGES[:15]), FieldSpec(2))
    fallback = [a for a in P.elements if P.below[a] in
                {tops for _, tops, _ in calls}]
    assert len(calls) == len(fallback) == 2
    assert all(Pc is P and done == 0 for Pc, _, done in calls)
    assert set(fallback) <= {a for a, _ in fills}
    assert sum(len(added) for _, added in fills) == 16


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_is_hcw_equals_reference_and_builds_no_filter_complex(
        monkeypatch, p):
    """is_hcw against the simplicial reference on the Betti, incidence
    and hcwify posets of the corpus and of rp2 (over GF(2) a filter with
    homology {1: 1, 2: 1}, top rank 1 but no sphere), on theta cones, on
    the random graded posets, listed in shuffled order, and on the empty
    poset.  Its walk stops at the first miss in (dimension, index) order,
    which has only spheres below it, so no verdict falls back to a filter
    complex."""
    F = FieldSpec(p)
    posets = [Poset([], []), *map(theta_poset, (1, 2, 3)),
              *random_graded_posets()]
    for I in random_corpus(100) + [minimalize(RP2_GENS)]:
        P = _incidence(I, F)
        posets += [betti_poset(betti_table(minimize(taylor_complex(I, F)))),
                   P, hcw.hcwify(P, F)[0]]
    built, subcomplex = [], Poset.subcomplex

    def spy(P, tops):
        built.append((P, tops))
        return subcomplex(P, tops)

    verdicts = []
    for P in posets:
        with monkeypatch.context() as m:
            m.setattr(Poset, "subcomplex", spy)
            verdicts.append(is_hcw(P, F))
        assert verdicts[-1] == is_hcw_reference(P, F), P.elements
    assert built == []
    assert len(posets) == 347 and True in verdicts and False in verdicts


# --- is_hcw builds the conic complex only as far as its walk reads ---------

def test_is_hcw_on_the_k6_10_betti_poset_builds_no_kernel_past_degree_1(
        monkeypatch):
    """The walk's first miss on the K6-10 Betti poset over GF(2) is at
    dimension 1, and a verdict at dimension n reads degrees <= n - 1: no
    kernel is taken for a degree >= 2, and no complex is memoized."""
    F = FieldSpec(2)
    P = betti_poset(betti_table(minimize(taylor_complex(
        minimalize(K6_EDGES[:10]), F))))
    degrees, kernel = [], conic._ConicBuild._kernel

    def spy(self, n, cols):
        degrees.append(n + 1)  # the kernel of d_n gives degree n + 1
        return kernel(self, n, cols)

    monkeypatch.setattr(conic._ConicBuild, "_kernel", spy)
    assert len(P) == 47 and not is_hcw(P, F)
    assert max(degrees, default=0) < 2
    assert P._conic == {} and P._conic_build[F].built < 2


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_lazy_is_hcw_equals_reference_and_drains_into_the_whole_build(
        monkeypatch, p):
    """On the Betti posets of the corpus, rp2 and K6-10: is_hcw equals the
    simplicial reference and memoizes no partial build as the complex;
    conic_complex then finishes that build, with one d o d pass on the
    complex it returns, which has the matrices of a fresh poset's build."""
    F = FieldSpec(p)
    passes, check = [], gradedcomplex.ChainComplex.check_complex

    def counting(self):
        passes.append(self)
        check(self)

    partial = 0
    for I in random_corpus(100) + [minimalize(g) for g in (RP2_GENS,
                                                           K6_EDGES[:10])]:
        P = betti_poset(betti_table(minimize(taylor_complex(I, F))))
        assert is_hcw(P, F) == is_hcw_reference(P, F), P.elements
        assert P._conic == {}
        partial += P._conic_build[F].built < max(map(P.dim, P.elements))
        with monkeypatch.context() as m:
            m.setattr(gradedcomplex.ChainComplex, "check_complex", counting)
            C = conic_complex(P, F, True)
        assert passes == [C] and F not in P._conic_build
        passes.clear()
        fresh = Poset(P.elements, P.covers, deg=P.deg)
        assert C.same_matrices(conic_complex(fresh, F, True))
    assert partial > 10


def test_lazy_is_hcw_reads_no_differential_before_its_d_o_d_check(
        monkeypatch):
    """A verdict never reads a differential that has not passed d o d: a
    build whose d_1 breaks eps o d_1 = 0 raises before its first read of
    degree 1 (rp2's Betti poset over Q is hcw, so the walk reaches it)."""
    F = FieldSpec(0)
    P = betti_poset(betti_table(minimize(taylor_complex(
        minimalize(RP2_GENS), F))))
    grow, reads = conic._ConicBuild._grow, []

    def corrupting(self, n):
        grow(self, n)
        if 1 in self.d and not reads:
            col = next(iter(self.d[1].values()))
            r = next(iter(col))
            col[r] *= 2
            reads.append(n)

    monkeypatch.setattr(conic._ConicBuild, "_grow", corrupting)
    with pytest.raises(VerificationError, match=r"conic d_0 o d_1 != 0"):
        is_hcw(P, F)
    assert reads == [1]
