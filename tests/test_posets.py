import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from posetres import FieldSpec, Poset, reduced_homology
from posetres.errors import NotAMorphism, NotFound, ParseError, ShapeError
from posetres.posets import cycle_space, is_hcw, is_homology_sphere_at

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


def test_down_set_and_restrict():
    P = Poset("abcd", [("a", "c"), ("b", "c"), ("c", "d")])
    assert sorted(P.down_set("c").elements) == ["a", "b"]
    assert sorted(P.down_set("c", strict=False).elements) == ["a", "b", "c"]
    R = P.restrict(["a", "d"])
    assert R.less("a", "d")


def test_order_complex_chain():
    P = chain_poset(3)
    K = P.order_complex()
    assert K.face_counts() == {-1: 1, 0: 3, 1: 3, 2: 1}
    assert reduced_homology(K, Q) == {}  # a simplex is acyclic


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
                {"elements": 5, "covers": []}):
        with pytest.raises(ParseError):
            Poset.from_json(bad)


def test_to_dot_mentions_edges():
    P = Poset(["a", "t"], [("a", "t")])
    dot = P.to_dot(highlight_edges=[("a", "t")])
    assert '"a" -> "t"' in dot and "dashed" in dot
