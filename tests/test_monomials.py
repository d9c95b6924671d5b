from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from posetres import divides, join_closure, lcm, lcm_lattice, minimalize
from posetres.errors import EmptyIdeal, ShapeError


def test_lcm_and_divides():
    assert lcm((1, 0, 2), (0, 3, 1)) == (1, 3, 2)
    assert divides((1, 0), (2, 1))
    assert not divides((1, 2), (2, 1))
    with pytest.raises(ShapeError):
        lcm((1,), (1, 2))


def test_lcm_and_divides_on_a_length_mismatch():
    for a, b in (((1,), (1, 2)), ((1, 2), (1,)), ((), (0,))):
        with pytest.raises(ShapeError, match="length mismatch"):
            lcm(a, b)
        assert divides(a, b) is False and divides(b, a) is False
    assert lcm((), ()) == () and divides((), ()) is True
    assert divides((0, 1), (0, 1)) is True
    assert lcm((2, 0, 1), (1, 0, 3)) == (2, 0, 3)


def test_minimalize_drops_divisible():
    I = minimalize([(2, 0), (1, 0), (0, 1), (1, 1)])
    assert I.generators == ((0, 1), (1, 0))
    assert I.contains((3, 5))
    assert not I.contains((0, 0))


def test_minimalize_errors():
    with pytest.raises(EmptyIdeal):
        minimalize([])
    with pytest.raises(ShapeError):
        minimalize([(1, 0), (1,)])


def test_lcm_lattice_squarefree():
    I = minimalize([(1, 1, 0), (1, 0, 1), (0, 1, 1)])
    L = lcm_lattice(I)
    assert L == frozenset({(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)})


def test_join_closure_is_closed():
    degs = [(2, 0, 1), (0, 1, 1), (1, 2, 0)]
    L = join_closure(degs)
    for a in L:
        for b in L:
            assert lcm(a, b) in L


@st.composite
def degree_sets(draw):
    m = draw(st.integers(1, 4))
    return draw(st.lists(st.tuples(*[st.integers(0, 3)] * m), max_size=8))


@settings(max_examples=200, deadline=None)
@given(degree_sets())
def test_join_closure_is_every_subset_lcm(degs):
    brute = {reduce(lcm, S) for k in range(1, len(degs) + 1)
             for S in combinations(degs, k)}
    assert join_closure(degs) == frozenset(brute)
