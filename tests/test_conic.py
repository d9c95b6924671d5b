import random
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import (boundary_of_chain, conic_complex_reference, conic_coords,
                    supports_resolution_loop)
from posetres import (FieldSpec, Poset, bar_reduce, betti_table,
                      conic_complex, conic_vs_simplicial, gradedcomplex, hcw,
                      homogenize, is_resolution, lcm,
                      make_minimal_support_basis, minimalize, minimize,
                      strand, supports_resolution, taylor_complex)
from posetres.conic import kernel_skeleton_check, skeleton_complex
from posetres.errors import (HypothesisFailed, NotAMorphism, PosetresError,
                             ShapeError, TooLarge, VerificationError)
from posetres.incidence import incidence_poset
from conftest import (M_GENS, RP2_GENS, load_fixture_complex, random_corpus,
                      random_graded_posets, theta_poset)
from helpers import face_counts, is_exact
from test_hcw_memo import K6_EDGES, _incidence
from test_q_reference import FractionField

Q = FieldSpec(0)


def koszul_poset():
    return Poset(["a1", "a2", "b"], [("a1", "b"), ("a2", "b")],
                 deg={"a1": (1, 0), "a2": (0, 1), "b": (1, 1)})


def test_antichain_conic():
    P = Poset(["a", "b", "c"], [], deg={"a": (1,), "b": (2,), "c": (3,)})
    C = conic_complex(P, Q, augmented=True)
    assert C.ranks() == (3,)
    assert C.homology_ranks() == {0: 2}  # H~ of three points


def test_v_poset_conic_exact():
    C = conic_complex(koszul_poset(), Q, augmented=True)
    assert C.ranks() == (2, 1)
    assert is_exact(C)
    # the top generator maps to the difference of the two vertices
    (entries,) = [C.diffs[1]]
    vals = sorted(v for v in entries.values())
    assert len(entries) == 2 and sum(vals) == 0


def test_conic_component_dims_of_pp_incidence():
    C = load_fixture_complex("pp_res.json", 2)
    P = incidence_poset(C)
    CC = conic_complex(P, FieldSpec(2))
    assert CC.ranks() == (10, 15, 7, 1)
    assert all(d == 1 for d in CC.component_dims().values())


def test_conic_vs_simplicial_chain_and_hcw():
    chain = Poset([0, 1, 2], [(0, 1), (1, 2)])
    assert conic_vs_simplicial(chain, Q)
    assert conic_vs_simplicial(koszul_poset(), Q)


def test_conic_vs_simplicial_hypothesis_failure():
    C = load_fixture_complex("pp_res.json", 2)
    P = incidence_poset(C)
    with pytest.raises(HypothesisFailed):
        conic_vs_simplicial(P, FieldSpec(2))


def test_homogenize_koszul():
    H = homogenize(conic_complex(koszul_poset(), Q))
    assert H.ranks() == (2, 1)
    assert sorted(d for _, d in H.labels[0]) == [(0, 1), (1, 0)]
    assert H.labels[1][0][1] == (1, 1)
    H.check_complex()


def test_homogenize_requires_monotone_deg():
    # homogenize reads the poset's own degree map, which Poset checks
    P = Poset(["a", "b"], [("a", "b")])
    with pytest.raises(NotAMorphism, match="no degree map"):
        homogenize(conic_complex(P, Q))
    with pytest.raises(NotAMorphism, match="not monotone"):
        Poset(P.elements, P.covers, deg={"a": (1, 0), "b": (0, 2)})


def test_bar_homogenize_round_trip():
    C = load_fixture_complex("pp_res.json", 2)
    P = incidence_poset(C)
    CC = conic_complex(P, FieldSpec(2))
    B = bar_reduce(homogenize(CC))
    remap = {(r, c): v for (r, c), v in
             ((tuple(k.split("#")[0] for k in key), v)
              for n, m in B.diffs.items() if n for key, v in m.items())}
    conic_named = {(r[0], c[0]): v for n, m in CC.diffs.items() if n
                   for (r, c), v in m.items()}
    assert remap == conic_named


def test_supports_resolution_fixtures():
    assert supports_resolution(koszul_poset(), Q) == (True, None)
    C = load_fixture_complex("pp_res.json", 2)
    P = incidence_poset(C)
    ok, witness = supports_resolution(P, FieldSpec(2))
    assert ok and witness is None


@pytest.mark.parametrize("p", [0, 2, 3])
def test_supports_resolution_checks_each_conic_complex_once(monkeypatch, p):
    """A ConicComplex checks d o d once, when it is built, conic_complex
    memoizes the complex on the poset, and is_resolution runs no pass:
    supports_resolution on the same poset runs no pass, on a fresh copy of
    it one."""
    F = FieldSpec(p)
    P = _incidence(minimalize(RP2_GENS), F)
    passes, check = [], gradedcomplex.ChainComplex.check_complex

    def counting(self):
        passes.append(self)
        check(self)
    monkeypatch.setattr(gradedcomplex.ChainComplex, "check_complex", counting)
    C = conic_complex(P, F)
    assert passes == [C] and len(C.diffs) > 1
    passes.clear()
    assert supports_resolution(P, F) == (True, None)
    assert passes == []
    assert supports_resolution(Poset(P.elements, P.covers, deg=P.deg),
                               F) == (True, None)
    assert len(passes) == 1 and passes[0] is not C


def test_supports_resolution_failure_witness():
    # three incomparable points below a top whose filter is disconnected
    P = Poset(["a", "b", "c", "t"],
              [("a", "t"), ("b", "t"), ("c", "t")],
              deg={"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1),
                   "t": (1, 1, 1)})
    ok, witness = supports_resolution(P, Q)
    assert not ok and witness == (0, 1, 1)
    from posetres import conic_complex
    sub = strand(conic_complex(P, Q, augmented=True), witness)
    assert not is_exact(sub)


def test_conic_degree_of_is_the_apex_degree():
    P = koszul_poset()
    C = conic_complex(P, Q, augmented=True)
    assert C.degree_of == {g: P.deg[g[0]] for gs in C.gens.values()
                           for g in gs}
    S = strand(C, (1, 0))
    assert S.basis == {0: [("a1", 0)]} and S.augmented and is_exact(S)
    C = conic_complex(Poset(P.elements, P.covers), Q)
    assert C.degree_of == {}
    with pytest.raises(ShapeError):
        is_resolution(C)


def test_homogenize_rejects_an_empty_poset():
    with pytest.raises(ShapeError):
        homogenize(conic_complex(Poset([], [], deg={}), Q))


# --- supports_resolution against the per-truncation loop ----------------

def _assert_matches_loop(P, F):
    """supports_resolution(P, F) returns what supports_resolution_loop
    does, or raises the same exception type; returns the loop's ok, or
    None if it raised."""
    try:
        want = supports_resolution_loop(P, F)
    except PosetresError as exc:
        with pytest.raises(type(exc)):
            supports_resolution(P, F)
        return None
    assert supports_resolution(P, F) == want
    return want[0]


def test_supports_resolution_edge_cases():
    assert supports_resolution(Poset([], [], deg={}), Q) == (True, None)
    with pytest.raises(NotAMorphism):
        supports_resolution(Poset(["a"], []), Q)


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_supports_resolution_matches_loop_on_corpus(p):
    F = FieldSpec(p)
    for I in random_corpus(100):
        assert _assert_matches_loop(_incidence(I, F), F)


def test_supports_resolution_matches_loop_on_hcwify_posets(monkeypatch):
    """Every poset that hcwify visits over GF(2) supports a resolution."""
    F, seen, fill = FieldSpec(2), {}, hcw.fill_cavity

    def spy_fill(P0, a, n, F):
        P1, added = fill(P0, a, n, F)
        seen.update({id(P0): P0, id(P1): P1})
        return P1, added

    monkeypatch.setattr(hcw, "fill_cavity", spy_fill)
    for gens in (RP2_GENS, M_GENS, K6_EDGES[:13]):
        hcw.hcwify(_incidence(minimalize(gens), F), F)
    assert len(seen) > 3
    for P in seen.values():
        assert _assert_matches_loop(P, F)


def random_graded_poset(rng):
    """A poset on at most 7 elements with degrees in 1 to 3 variables: each
    degree is the join of random base degrees over the elements up to it,
    so it is monotone."""
    size, m = rng.randint(1, 7), rng.randint(1, 3)
    P = Poset(range(size), [(i, j) for j in range(size) for i in range(j)
                            if rng.random() < 0.4])
    base = [tuple(rng.randint(0, 2) for _ in range(m)) for _ in range(size)]
    deg = {e: reduce(lcm, (base[x] for x in (e, *P.below[e])))
           for e in P.elements}
    return Poset(P.elements, P.covers, deg=deg)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
@example(random.Random(0))
def test_supports_resolution_matches_loop_on_random_posets(rng):
    _assert_matches_loop(random_graded_poset(rng), FieldSpec(rng.choice(
        [0, 2, 3, 5])))


def test_random_graded_posets_have_failing_truncations():
    rng = random.Random(20261018)
    verdicts = [_assert_matches_loop(random_graded_poset(rng),
                                     FieldSpec(p))
                for _ in range(100) for p in (0, 2)]
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 20


def test_kernel_skeleton_equality():
    for P in (koszul_poset(),
              incidence_poset(load_fixture_complex("two_res_a.json", 0))):
        C = conic_complex(P, Q)
        assert kernel_skeleton_check(C)


def test_skeleton_complex_faces():
    P = koszul_poset()
    S0 = skeleton_complex(P, 0)
    assert face_counts(S0) == {-1: 1, 0: 2}
    S1 = skeleton_complex(P, 1)
    assert face_counts(S1) == {-1: 1, 0: 3, 1: 2}


def test_conic_generators_have_cycle_boundaries():
    C = load_fixture_complex("two_res_a.json", 0)
    P = incidence_poset(C)
    CC = conic_complex(P, Q)
    for (a, i), z in CC.cycles.items():
        K = P.filter_complex(a)
        assert not boundary_of_chain(z, 0)
        assert not K.boundary(P.dim(a) - 1, z, Q)


def test_homogenized_conic_equals_fixture_betti():
    C = load_fixture_complex("pp_res.json", 2)
    P = incidence_poset(C)
    H = homogenize(conic_complex(P, FieldSpec(2)))
    assert betti_table(H).entries == betti_table(C).entries


def planes_poset():
    """Two cones t1, t2 over three points, under one top u: each of t1, t2
    and u carries a plane of top cycles."""
    atoms = ["a1", "a2", "a3"]
    return Poset(atoms + ["t1", "t2", "u"],
                 [(a, t) for a in atoms for t in ("t1", "t2")]
                 + [("t1", "u"), ("t2", "u")])


def _conic_posets():
    """The planes poset, the incidence posets of the fixture resolutions and
    those of the minimal-support bases of the corpus ideals, with the field
    to take them over."""
    for p in (0, 2, 3, 5):
        yield planes_poset(), FieldSpec(p)
    for name, p in (("pp_res.json", 2), ("two_res_a.json", 0),
                    ("two_res_b.json", 0)):
        yield incidence_poset(load_fixture_complex(name, p)), FieldSpec(p)
    for k, I in enumerate(random_corpus(100)):
        F = FieldSpec((0, 2, 3, 5)[k % 4])
        C = make_minimal_support_basis(minimize(taylor_complex(I, F)))[0]
        yield incidence_poset(C), F


def test_conic_coords_rebuild_every_generator():
    assert conic_complex(planes_poset(), Q).component_dims() == {
        "a1": 1, "a2": 1, "a3": 1, "t1": 2, "t2": 2, "u": 2}
    for P, F in _conic_posets():
        CC = conic_complex(P, F)
        for n, gens in CC.gens.items():
            if n == 0:
                continue
            for g in gens:
                coords = conic_coords(P, CC.cycles, CC.cycles[g], n - 1, F)
                rebuilt = {}
                for (c, i), s in coords.items():
                    for f, v in CC.cycles[(c, i)].items():
                        cone = (c,) + f
                        rebuilt[cone] = F.add(rebuilt.get(cone, F.zero),
                                              F.mul(s, v))
                assert {f: v for f, v in rebuilt.items() if v} == CC.cycles[g]


def test_conic_coords_rejects_chains_outside_the_basis():
    P = koszul_poset()
    CC = conic_complex(P, Q)
    assert conic_coords(P, CC.cycles, {("b", "a1"): Q(1), ("b", "a2"): Q(-1)},
                        1, Q) == {("b", 0): Q(1)}
    # the cone over a single vertex: its component {a1} is not a 0-cycle
    with pytest.raises(VerificationError, match="outside the cycle space"):
        conic_coords(P, CC.cycles, {("b", "a1"): Q(1)}, 1, Q)
    # a top vertex of dimension 1 in a degree-0 chain
    with pytest.raises(VerificationError, match="dimension"):
        conic_coords(P, CC.cycles, {("b", "a1"): Q(1)}, 0, Q)
    # an apex with no cycle basis at all
    chain = Poset([0, 1, 2], [(0, 1), (1, 2)])
    cycles = conic_complex(chain, Q).cycles
    assert not any(g[0] == 1 for g in cycles)
    with pytest.raises(VerificationError, match="outside the cycle space"):
        conic_coords(chain, cycles, {(1, 0): Q(1)}, 1, Q)


# --- conic_complex against the two-stage reference ----------------------

def _ordered(x):
    """x with every dict as its list of items, in order, and every scalar
    with its type, so that == compares dict order and scalar types too."""
    if isinstance(x, dict):
        return [(k, _ordered(v)) for k, v in x.items()]
    if isinstance(x, list):
        return [_ordered(v) for v in x]
    return type(x), x


def assert_same_conic(C, R):
    for name in ("gens", "cycles", "d"):
        assert _ordered(getattr(C, name)) == _ordered(getattr(R, name)), name
    assert C.augmented == R.augmented


def _reference_posets(F):
    """The incidence posets of the corpus, rp2, m and K6-10 over F."""
    named = [minimalize(g) for g in (RP2_GENS, M_GENS, K6_EDGES[:10])]
    return [_incidence(I, F) for I in random_corpus(100) + named]


@pytest.mark.parametrize("F", [FieldSpec(p) for p in (0, 2, 3, 5)]
                         + [FractionField(0)], ids=["0", "2", "3", "5", "q"])
def test_conic_complex_matches_reference(F):
    """On the incidence posets, whose conic components have dimension 1,
    and on posets with components of dimension 2 and more."""
    for P in (_reference_posets(F) + [theta_poset(1), theta_poset(2)]
              + random_graded_posets()):
        for augmented in (False, True):
            assert_same_conic(conic_complex(P, F, augmented),
                              conic_complex_reference(P, F, augmented))


def test_conic_complex_matches_reference_on_filled_posets(monkeypatch):
    """Every poset that fill_cavity takes or returns in hcwify: on rp2 and
    K6-10 over GF(2), and on K6-15 over GF(3), which adds 3 relations."""
    seen, fill = {}, hcw.fill_cavity

    def spy_fill(P0, a, n, F):
        P1, added = fill(P0, a, n, F)
        seen.update({id(P0): (P0, F), id(P1): (P1, F)})
        return P1, added

    monkeypatch.setattr(hcw, "fill_cavity", spy_fill)
    for gens, F in ((RP2_GENS, FieldSpec(2)), (K6_EDGES[:10], FieldSpec(2)),
                    (K6_EDGES[:15], FieldSpec(3))):
        hcw.hcwify(_incidence(minimalize(gens), F), F)
    assert len(seen) > 3 and {F.p for _, F in seen.values()} == {2, 3}
    for P, F in seen.values():
        for augmented in (False, True):
            assert_same_conic(conic_complex(P, F, augmented),
                              conic_complex_reference(P, F, augmented))


def test_conic_complex_builds_no_order_complex(monkeypatch):
    fields = [FieldSpec(p) for p in (0, 2, 3, 5)]
    posets = [(P, F) for F in fields for P in _reference_posets(F)]

    def refuse(*args):
        raise AssertionError("conic_complex built a simplicial complex")

    for name in ("subcomplex", "filter_complex", "order_complex"):
        monkeypatch.setattr(Poset, name, refuse)
    for P, F in posets:
        assert conic_complex(P, F, True).poset is P


def test_conic_complex_past_the_face_cap_builds_no_face(monkeypatch):
    """With FACE_CAP one below the face count of the K6-15 order complex,
    conic_complex builds no face and gives the matrices it gives with the
    cap lifted; only the cycles, expanded over the faces, raise TooLarge."""
    F = FieldSpec(2)
    P = _incidence(minimalize(K6_EDGES[:15]), F)
    calls, subcomplex = [], Poset.subcomplex

    def spy(self, tops):
        calls.append(tops)
        return subcomplex(self, tops)

    monkeypatch.setattr(Poset, "subcomplex", spy)
    monkeypatch.setattr("posetres.posets.FACE_CAP", P.chain_count() - 1)
    C = conic_complex(P, F)
    assert calls == []
    with pytest.raises(TooLarge):
        C.cycles
    monkeypatch.undo()
    P._conic.clear()
    D = conic_complex(P, F)
    for name in ("gens", "d"):
        assert _ordered(getattr(C, name)) == _ordered(getattr(D, name)), name
    assert D.cycles


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_support_criterion_reads_the_memoized_strand_check(p):
    """verify_mfr_support answers is_resolution of the homogenized conic
    complex, which has the matrices, basis order and degrees of the conic
    complex that supports_resolution checks: on the corpus incidence
    posets, and on the Betti posets, where both answers occur."""
    from posetres.incidence import verify_mfr_support
    from posetres.rigidity import betti_poset
    F = FieldSpec(p)
    answers = set()
    for I in random_corpus(100) + [minimalize(RP2_GENS), minimalize(M_GENS)]:
        M = make_minimal_support_basis(minimize(taylor_complex(I, F)))[0]
        P = incidence_poset(M)
        want = is_resolution(homogenize(conic_complex(P, F)))[0]
        assert verify_mfr_support(I, M, F) == want
        assert P._support == {F: supports_resolution(P, F)}
        B = betti_poset(betti_table(M))
        ok = is_resolution(homogenize(conic_complex(B, F)))[0]
        assert supports_resolution(B, F)[0] == ok
        answers.add(ok)
    assert answers == {False, True}
