import os
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import _rank, _reduced_homology_ranks, boundary_of_chain
from posetres import FieldSpec, OrientedComplex, Poset, reduced_homology
from posetres.conic import skeleton_complex
from posetres.errors import (NotAMorphism, NotFound, ParseError,
                             PosetresError, ShapeError, VerificationError)
from posetres.posets import cycle_space, is_hcw, is_homology_sphere_at
from conftest import FIXTURES, json_values
from helpers import down_set, face_counts

Q = FieldSpec(0)


def chain_poset(n):
    els = list(range(n))
    return Poset(els, [(i, i + 1) for i in range(n - 1)])


def test_construction_validation():
    with pytest.raises(ShapeError):
        Poset([1, 1], [])
    with pytest.raises(NotFound):
        Poset([1], [(1, 2)])
    with pytest.raises(ShapeError):
        Poset([1], [(1, 1)])
    with pytest.raises(ShapeError):
        Poset([1, 2], [(1, 2), (2, 1)])


def test_transitive_reduction_and_dims():
    P = Poset([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert P.covers == frozenset({(1, 2), (2, 3)})
    assert [P.dim(e) for e in [1, 2, 3]] == [0, 1, 2]
    assert P.less(1, 3) and not P.less(3, 1)


@st.composite
def relation_sets(draw):
    n = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    return n, draw(st.lists(pairs, max_size=16))


@settings(max_examples=200, deadline=None)
@given(relation_sets())
def test_construction_matches_brute_force(case):
    n, rels = case
    G = nx.DiGraph()
    G.add_nodes_from(range(n))
    G.add_edges_from(rels)
    if not nx.is_directed_acyclic_graph(G):
        with pytest.raises(ShapeError):
            Poset(range(n), rels)
        return
    P = Poset(range(n), rels)
    less = {(x, y) for x, y in rels}
    for k in range(n):  # Warshall's transitive closure
        less |= {(x, y) for x in range(n) for y in range(n)
                 if (x, k) in less and (k, y) in less}
    assert all(P.below[y] == {x for x in range(n) if (x, y) in less}
               for y in range(n))
    assert P.covers == set(nx.transitive_reduction(G).edges)
    for a in range(n):
        H = G.subgraph(nx.ancestors(G, a) | {a})
        assert P.dim(a) == nx.dag_longest_path_length(H)


def test_deg_monotonicity_enforced():
    with pytest.raises(NotAMorphism):
        Poset(["a", "b"], [("a", "b")], deg={"a": (1, 0), "b": (0, 1)})


@settings(max_examples=150, deadline=None)
@given(relation_sets(), st.randoms(use_true_random=False))
def test_relation_order_and_redundant_pairs_change_nothing(case, rnd):
    """The relations shuffled, with every relation of the order they
    generate added in a shuffled order, and the elements shuffled give the
    same down-sets, covers and dimensions."""
    n, rels = case
    G = nx.DiGraph(rels)
    G.add_nodes_from(range(n))
    if not nx.is_directed_acyclic_graph(G):
        return
    P = Poset(range(n), rels)
    implied = [(x, e) for e in range(n) for x in P.below[e]]
    more = rels + implied
    rnd.shuffle(more)
    elements = list(range(n))
    rnd.shuffle(elements)
    for Q in (Poset(range(n), rnd.sample(rels, len(rels))),
              Poset(range(n), more), Poset(elements, more)):
        assert Q.below == P.below
        assert Q.covers == P.covers
        assert [Q.dim(e) for e in range(n)] == [P.dim(e) for e in range(n)]


@pytest.mark.parametrize("rels", [
    [(1, 2), (2, 1)],
    [(1, 2), (2, 3), (3, 1)],
    [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)],  # a 3-cycle between 0 and 4
    [(1, 2), (2, 1), (0, 3)],  # a 2-cycle beside a chain
])
def test_cycles_raise_shape_error(rels):
    with pytest.raises(ShapeError, match="^relations contain a cycle$"):
        Poset(range(5), rels)


def test_deg_message_names_the_first_failing_cover():
    """Covers are checked in (upper index, lower index) order: (y, u)
    fails before (x, w), u being listed before w.  A relation that is no
    cover is not named: z < x < w, and z < w fails before x < w in that
    order, but the failing cover is x < w."""
    deg = {"u": (0,), "w": (0,), "x": (1,), "y": (1,)}
    with pytest.raises(NotAMorphism) as exc:
        Poset(["u", "w", "x", "y"], [("x", "w"), ("y", "u")], deg=deg)
    assert str(exc.value) == "deg not monotone: y < u but deg(y) !<= deg(u)"
    with pytest.raises(NotAMorphism) as exc:
        Poset(["w", "z", "x"], [("z", "x"), ("x", "w"), ("z", "w")],
              deg={"z": (2,), "x": (3,), "w": (1,)})
    assert str(exc.value) == "deg not monotone: x < w but deg(x) !<= deg(w)"


def test_deg_message_is_the_same_under_every_hash_seed():
    """a, b, c < e and all three relations fail; the message names a, the
    first in (upper, lower) index order, under hash seeds 0 and 1."""
    code = ("from posetres import Poset\n"
            "from posetres.errors import NotAMorphism\n"
            "deg = {'a': (2, 0), 'b': (0, 2), 'c': (3, 3), 'e': (1, 1)}\n"
            "try:\n"
            "    Poset('abce', [(x, 'e') for x in 'abc'], deg=deg)\n"
            "except NotAMorphism as exc:\n"
            "    print(exc)\n")
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent.parent),
               "PYTHONHASHSEED": seed}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout == "deg not monotone: a < e but deg(a) !<= deg(e)\n"


def test_deg_tuples_of_unequal_length_rejected():
    for rels in ([("a", "b")], []):
        with pytest.raises(ShapeError, match="unequal length"):
            Poset(["a", "b"], rels, deg={"a": (1,), "b": (1, 1)})


def test_down_set_and_restrict():
    P = Poset("abcd", [("a", "c"), ("b", "c"), ("c", "d")])
    assert sorted(down_set(P, "c").elements) == ["a", "b"]
    assert sorted(down_set(P, "c", strict=False).elements) == ["a", "b", "c"]
    R = P.restrict(["a", "d"])
    assert R.less("a", "d")


def test_order_complex_chain():
    P = chain_poset(3)
    K = P.order_complex()
    assert face_counts(K) == {-1: 1, 0: 3, 1: 3, 2: 1}
    assert reduced_homology(K, Q) == {}  # a simplex is acyclic


def test_order_complex_stores_d0_as_a_differential():
    """d_0 sends each vertex (v,) to the empty face (), in the one store."""
    P = chain_poset(3)
    K = P.order_complex()
    assert K.d[0] == {(v,): {(): 1} for v in P.elements}
    assert K.matrix(0).entries == {(0, j): 1 for j in range(3)}


def test_oriented_complex_names_a_missing_face_in_every_degree():
    with pytest.raises(VerificationError) as exc:
        OrientedComplex({0: [("v",)]})
    assert str(exc.value) == "complex not closed: missing face ()"
    with pytest.raises(VerificationError) as exc:
        OrientedComplex({-1: [()], 1: [("a", "b")]})
    assert str(exc.value) == "complex not closed: missing face ('b',)"


def test_reduced_homology_circle():
    # hollow triangle as an order complex: three points and three joins
    els = ["a", "b", "c", "ab", "bc", "ca"]
    rels = [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc"),
            ("c", "ca"), ("a", "ca")]
    P = Poset(els, rels)
    assert reduced_homology(P.order_complex(), Q) == {1: 1}


def test_empty_filter_is_minus_one_sphere():
    P = Poset(["a"], [])
    assert is_homology_sphere_at(P, "a", Q)
    K = P.filter_complex("a")
    assert reduced_homology(K, Q) == {-1: 1}


def test_filter_complex_of_unknown_element_raises_not_found():
    P = Poset(["a", "t"], [("a", "t")])
    with pytest.raises(NotFound):
        P.filter_complex("x")
    with pytest.raises(NotFound):
        is_homology_sphere_at(P, "x", Q)


@st.composite
def poset_complexes(draw):
    """The order complex, every filter complex and every skeleton of a
    random poset on at most 7 elements."""
    n = draw(st.integers(0, 7))
    pairs = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
        lambda p: p[0] < p[1] < n)
    P = Poset(range(n), draw(st.lists(pairs, max_size=14)))
    return ([P.order_complex()] + [P.filter_complex(a) for a in P.elements]
            + [skeleton_complex(P, d) for d in range(n)])


@settings(max_examples=60, deadline=None)
@given(poset_complexes(), st.sampled_from([0, 2, 3, 5]))
@example([OrientedComplex({})], 0)
@example([OrientedComplex({-1: [()]})], 2)
def test_simplicial_homology_matches_oracle(complexes, p):
    F = FieldSpec(p)
    for K in complexes:
        faces = K.faces
        h = reduced_homology(K, F)
        assert h == _reduced_homology_ranks(
            [f for fs in faces.values() for f in fs], p)
        if not faces:
            assert h == {}
        elif list(faces) == [-1]:
            assert h == {-1: 1}
        for n in range(-1, K.top + 1):
            rows = faces.get(n - 1, [])
            cols = [boundary_of_chain({f: 1}, p) for f in faces.get(n, [])]
            M = [[col.get(r, 0) for col in cols] for r in rows]
            cycles = cycle_space(K, n, F)
            assert len(cycles) == len(cols) - _rank(M, p)
            for z in cycles:
                assert not K.boundary(n, z, F)
                assert not boundary_of_chain(z, p)
        if K.top >= 0:  # drop a facet of a top face: no longer closed
            f = faces[K.top][0]
            cut = {d: [g for g in fs if g != f[1:]] for d, fs in faces.items()}
            with pytest.raises(VerificationError):
                OrientedComplex(cut)


def test_is_hcw_examples():
    # V-shaped poset (Koszul): hcw
    V = Poset(["a", "b", "t"], [("a", "t"), ("b", "t")])
    assert is_hcw(V, Q)
    # three points below a top: top filter has H~_0 of rank 2
    W = Poset(["a", "b", "c", "t"], [("a", "t"), ("b", "t"), ("c", "t")])
    assert not is_hcw(W, Q)


def test_cycle_space_of_two_points():
    P = Poset(["a", "b", "t"], [("a", "t"), ("b", "t")])
    K = P.filter_complex("t")
    basis = cycle_space(K, 0, Q)
    assert len(basis) == 1
    z = basis[0]
    assert sum(z.values()) == 0  # reduced 0-cycle


def test_poset_json_roundtrip():
    P = Poset(["a", "b", "t"], [("a", "t"), ("b", "t")],
              deg={"a": (1, 0), "b": (0, 1), "t": (1, 1)})
    R = Poset.from_json(P.to_json())
    assert R.elements == P.elements
    assert R.covers == P.covers
    assert R.deg == P.deg


def test_poset_json_rejects_malformed_structure():
    good = {"elements": [{"id": 1}, {"id": 2}], "covers": [[1, 2]]}
    assert Poset.from_json(good).covers == frozenset({(1, 2)})
    for bad in ({}, {"elements": [{"id": 1}], "covers": [[1, 2, 3]]},
                {"elements": [{"id": 1}, {"id": 2}], "covers": [[1]]},
                {"elements": [{"id": 1}, {"id": 2}], "covers": [3]},
                {"elements": [{"id": 1, "deg": [0]}, {"id": 2}],
                 "covers": []},
                {"elements": [{"id": 1}, {"id": 2, "deg": [0]}],
                 "covers": []},
                {"elements": 5, "covers": []}):
        with pytest.raises(ParseError):
            Poset.from_json(bad)


def test_deg_entries_must_be_naturals():
    for d in ((-1, 0), (1.5, 0), (True, 0), ("x", 0), ((1,), 0)):
        with pytest.raises(ShapeError, match="integers >= 0"):
            Poset(["a", "t"], [("a", "t")], deg={"a": d, "t": d})


_VALUE = json_values(("id", "deg", "elements", "covers"))
_ELEMENT = st.fixed_dictionaries({"id": _VALUE}, optional={"deg": _VALUE})


@settings(max_examples=300, deadline=None)
@given(st.one_of(_VALUE, st.fixed_dictionaries({
    "elements": st.lists(_ELEMENT, max_size=4),
    "covers": st.lists(st.lists(_VALUE, max_size=3), max_size=4)})))
def test_poset_from_json_raises_only_posetres_errors(obj):
    try:
        Poset.from_json(obj)
    except PosetresError:
        pass


def test_to_dot_mentions_edges():
    P = Poset(["a", "t"], [("a", "t")])
    dot = P.to_dot(highlight_edges=[("a", "t")])
    assert '"a" -> "t"' in dot and "dashed" in dot
