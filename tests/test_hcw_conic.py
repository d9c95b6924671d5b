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

from posetres import (FieldSpec, Poset, betti_poset, betti_table, hcw,
                      is_hcw, minimalize, minimize, taylor_complex)
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
