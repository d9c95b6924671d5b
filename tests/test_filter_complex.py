"""Subcomplexes of order complexes enumerated from their own chains.

`Poset.subcomplex(tops)`, and with it `filter_complex(a)`, walks the chains
below `tops` directly instead of slicing the whole order complex.  Its faces
must be those of the slice (`oracle.sliced_subcomplex`), in the same order,
and it must raise TooLarge exactly when the whole order complex has more
than FACE_CAP faces.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import posetres.posets
from oracle import sliced_subcomplex
from posetres import FieldSpec, Poset, hcw, minimalize
from posetres.conic import skeleton_complex
from posetres.errors import NotFound, ShapeError, TooLarge, VerificationError
from conftest import M_GENS, RP2_GENS, random_corpus
from helpers import face_counts
from test_hcw_memo import K6_EDGES, _incidence

NAMED = {"rp2": RP2_GENS, "m": M_GENS, "k6-10": K6_EDGES[:10],
         "k6-13": K6_EDGES[:13]}


def _assert_filters_match(P):
    for a in P.elements:
        assert (P.filter_complex(a).faces
                == sliced_subcomplex(P, P.below[a]).faces), a


def _brute_faces(P, tops):
    """Every subset of the elements that is a chain with its largest vertex
    in `tops`, written in decreasing order, sorted by vertex indices."""
    faces = {-1: [()]}
    for k in range(1, len(P) + 1):
        for S in combinations(P.elements, k):
            if all(P.less(x, y) or P.less(y, x) for x, y in combinations(S, 2)):
                chain = tuple(sorted(S, key=P.dim, reverse=True))
                if chain[0] in tops:
                    faces.setdefault(k - 1, []).append(chain)
    for fs in faces.values():
        fs.sort(key=lambda f: [P.index[v] for v in f])
    return faces


@st.composite
def posets(draw):
    """A random poset on at most 7 elements whose list order is shuffled,
    so that index order and element order differ."""
    n = draw(st.integers(0, 7))
    pairs = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
        lambda p: p[0] < p[1] < n)
    return Poset(draw(st.permutations(range(n))),
                 draw(st.lists(pairs, max_size=14)))


@settings(max_examples=150, deadline=None)
@given(posets())
def test_filter_complex_matches_brute_force(P):
    for a in P.elements:
        assert P.filter_complex(a).faces == _brute_faces(P, P.below[a])
    _assert_filters_match(P)
    assert P.order_complex().faces == _brute_faces(P, P.elements)


@settings(max_examples=150, deadline=None)
@given(posets(), st.data())
def test_subcomplex_matches_brute_force_on_any_tops(P, data):
    """Random tops, repeats allowed: their down-closure, which need not be
    a filter, gives the brute-force faces.  Tops that are not a down-set
    raise ShapeError, and give an unclosed complex when sliced.  Then the
    skeleton sets {e : d(e) <= n} that skeleton_complex takes."""
    tops = data.draw(st.lists(st.sampled_from(P.elements), max_size=9)
                     if P.elements else st.just([]))
    down = set(tops).union(*(P.below[t] for t in tops))
    faces = P.subcomplex([*tops, *down]).faces
    assert faces == _brute_faces(P, down)
    assert faces == sliced_subcomplex(P, down).faces
    if down != set(tops):
        with pytest.raises(ShapeError, match="not a down-set"):
            P.subcomplex(tops)
        with pytest.raises(VerificationError, match="not closed"):
            sliced_subcomplex(P, tops)
    for n in range(-1, max(map(P.dim, P.elements), default=-1) + 1):
        skeleton = {e for e in P.elements if P.dim(e) <= n}
        assert skeleton_complex(P, n).faces == _brute_faces(P, skeleton)


def test_subcomplex_tops_unknown_or_repeated():
    P = Poset(["a", "b", "t"], [("a", "t"), ("b", "t")])
    with pytest.raises(NotFound, match="'x'"):
        P.subcomplex(["a", "b", "t", "x"])
    once = {-1: [()], 0: [("a",), ("b",), ("t",)],
            1: [("t", "a"), ("t", "b")]}
    assert P.subcomplex(["t", "a", "b", "t", "a"]).faces == once
    assert P.subcomplex(("b", "a", "t")).faces == once


@settings(max_examples=150, deadline=None)
@given(posets())
def test_chain_count_is_order_complex_size(P):
    faces = P.order_complex().faces
    assert P.chain_count() == sum(len(fs) for fs in faces.values())
    assert P.chain_count() == sum(map(len, _brute_faces(P, P.elements).values()))


@pytest.mark.parametrize("p", [0, 2, 3])
def test_filter_complex_matches_on_corpus_incidence_posets(p):
    F = FieldSpec(p)
    for I in random_corpus(100):
        _assert_filters_match(_incidence(I, F))


@pytest.mark.parametrize("name", list(NAMED))
def test_filter_complex_matches_on_hcwify_posets(monkeypatch, name):
    F = FieldSpec(2)
    P = _incidence(minimalize(NAMED[name]), F)
    returned = [P]
    fill = hcw.fill_cavity

    def spy_fill(P0, a, n, F):
        out = fill(P0, a, n, F)
        returned.extend((P0, out[0]))
        return out

    monkeypatch.setattr(hcw, "fill_cavity", spy_fill)
    Q, _ = hcw.hcwify(P, F)
    assert returned[-1] is Q
    for P in {id(P): P for P in returned}.values():
        _assert_filters_match(P)
        _assert_filters_match(Poset(P.elements, P.covers, deg=P.deg))


def test_face_cap_is_the_whole_order_complex_size(monkeypatch):
    def vee():  # (), a, b, t, (t, a), (t, b): six faces
        return Poset(["a", "b", "t"], [("a", "t"), ("b", "t")])

    monkeypatch.setattr(posetres.posets, "FACE_CAP", 6)
    P = vee()
    assert P.chain_count() == 6
    assert len(P.filter_complex("t").faces[0]) == 2
    assert sum(face_counts(P.order_complex()).values()) == 6
    monkeypatch.setattr(posetres.posets, "FACE_CAP", 5)
    P = vee()
    # the filter below a minimal element is one face, but the cap is on
    # the whole order complex
    for a in P.elements:
        with pytest.raises(TooLarge, match="exceeds 5 faces"):
            P.filter_complex(a)
    with pytest.raises(TooLarge):
        P.order_complex()
    # the cap is read at call time
    monkeypatch.setattr(posetres.posets, "FACE_CAP", 6)
    assert P.filter_complex("a").faces == {-1: [()]}
