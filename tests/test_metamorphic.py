"""Metamorphic properties of the resolve layer: the Betti table of
minimize(taylor_complex(I, F)) against the oracle, and under relabelling of
the variables and reordering of the generators; and of the hcw layer: what
hcw_support returns is hcw and supports the resolution, and the Betti
poset is hcw exactly when the ideal is rigid."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from oracle import betti_numbers, is_hcw_reference
from posetres import (FieldSpec, MonomialIdeal, betti_table,
                      check_rigid_iff_hcw, hcw_support, minimalize, minimize,
                      supports_resolution, taylor_complex)

FIELDS = st.sampled_from([FieldSpec(p) for p in (0, 2, 3, 5)])


@st.composite
def ideals(draw):
    """At most 8 generators in at most 5 variables, exponents 0..3."""
    m = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m),
                         min_size=1, max_size=8))
    return minimalize(gens)


def resolve(I, F):
    return minimize(taylor_complex(I, F))


@settings(max_examples=100, deadline=None)
@given(ideals(), FIELDS)
def test_betti_table_matches_oracle(I, F):
    entries = betti_table(resolve(I, F)).entries
    assert entries == betti_numbers(I.generators, F.characteristic)
    # a Scarf face, a generator subset whose lcm no other subset shares,
    # gives a Betti number 1 in degree |subset| - 1 at that lcm
    sizes = {}
    for k in range(1, len(I.generators) + 1):
        for sigma in combinations(I.generators, k):
            sizes.setdefault(tuple(map(max, zip(*sigma))), []).append(k)
    assert all(entries.get((ks[0] - 1, m)) == 1
               for m, ks in sizes.items() if len(ks) == 1)


@settings(max_examples=100, deadline=None)
@given(ideals(), FIELDS)
def test_minimize_is_idempotent(I, F):
    M = resolve(I, F)
    again = minimize(M)
    assert again.labels == M.labels and again.diffs == M.diffs


@settings(max_examples=100, deadline=None)
@given(ideals(), FIELDS, st.randoms(use_true_random=False))
def test_permuting_variables_permutes_betti_degrees(I, F, rnd):
    perm = list(range(I.num_vars))
    rnd.shuffle(perm)
    J = minimalize([tuple(g[k] for k in perm) for g in I.generators])
    moved = {(i, tuple(d[k] for k in perm)): b
             for (i, d), b in betti_table(resolve(I, F)).entries.items()}
    assert betti_table(resolve(J, F)).entries == moved


@settings(max_examples=100, deadline=None)
@given(ideals(), FIELDS, st.randoms(use_true_random=False))
def test_permuting_generators_keeps_betti_table(I, F, rnd):
    # MonomialIdeal keeps the given order, which minimalize would sort back
    gens = list(I.generators)
    rnd.shuffle(gens)
    J = MonomialIdeal(I.num_vars, tuple(gens))
    assert betti_table(resolve(J, F)) == betti_table(resolve(I, F))


@settings(max_examples=100, deadline=None)
@given(ideals(), FIELDS)
def test_hcw_support_is_hcw_and_supports_the_resolution(I, F):
    """Both homology engines agree on the result: every open filter is a
    sphere (simplicial) and every truncation is exact (conic), and the
    homogenized conic complex has the oracle's Betti table."""
    Q, _, H = hcw_support(I, F)
    assert is_hcw_reference(Q, F)
    assert supports_resolution(Q, F) == (True, None)
    assert betti_table(H).entries == betti_numbers(I.generators,
                                                   F.characteristic)


@settings(max_examples=100, deadline=None)
@given(ideals(), FIELDS)
def test_rigid_iff_betti_poset_is_hcw(I, F):
    assert check_rigid_iff_hcw(I, F)
