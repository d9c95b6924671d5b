"""Acceptance gate: one test per acceptance criterion, exact arithmetic,
one pass/fail line each."""

import time

import pytest

from oracle import betti_numbers
from posetres import (FieldSpec, bar_reduce, betti_poset, betti_table,
                      boundary_support, conic_complex, conic_vs_simplicial,
                      hcw_support, hcwify, homogenize, incidence_poset,
                      is_hcw, is_minimal_support_cycle, is_resolution,
                      is_rigid, make_minimal_support_basis, minimalize,
                      minimize, poset_isomorphic, supports_resolution,
                      taylor_complex)
from posetres.conic import kernel_skeleton_check
from posetres.posets import reduced_homology
from conftest import (M_GENS, RP2_GENS, SQUAREFREE3, load_fixture_complex,
                      random_corpus)

GF2 = FieldSpec(2)
QQ = FieldSpec(0)


def _report(num, name):
    print(f"criterion {num} ({name}): pass")


@pytest.fixture(scope="module")
def corpus_runs():
    """Pipeline artifacts for the paper ideals plus 100 random ideals,
    over Q, GF(2), GF(3) and GF(5), with the total wall time."""
    ideals = [minimalize(g) for g in (RP2_GENS, M_GENS, SQUAREFREE3)]
    ideals += random_corpus(100)
    t0 = time.time()
    runs = []
    for I in ideals:
        for p in (0, 2, 3, 5):
            F = FieldSpec(p)
            T = taylor_complex(I, F)
            M = minimize(T)
            M2, _ = make_minimal_support_basis(M)
            Q, deg, H = hcw_support(I, F)
            runs.append({"ideal": I, "F": F, "taylor": T, "minimal": M,
                         "minsupp": M2, "poset": Q, "homog": H})
    elapsed = time.time() - t0
    return runs, elapsed


def test_criterion_1_rp2_betti_numbers():
    t0 = time.time()
    I = minimalize(RP2_GENS)
    M2 = minimize(taylor_complex(I, GF2))
    assert betti_table(M2).totals() == (10, 15, 7, 1)
    M0 = minimize(taylor_complex(I, QQ))
    oracle0 = betti_numbers(RP2_GENS, 0)
    assert betti_table(M0).entries == oracle0
    assert max(i for i, _ in oracle0) == 2  # projective dimension drops
    assert betti_table(M0).totals() == (10, 15, 6)
    assert betti_numbers(RP2_GENS, 2) == betti_table(M2).entries
    assert time.time() - t0 < 60
    _report(1, "RP2 Betti numbers (10,15,7,1) over GF(2), drop over Q")


def test_criterion_2_fixture_minimal_support():
    C = load_fixture_complex("pp_res.json", 2)
    Cbar = bar_reduce(C)
    for n in (2, 3):
        for b, _ in C.labels[n]:
            assert is_minimal_support_cycle(Cbar, n - 1, dict(C.column(b)))
    sizes = {}
    for tag in ("a", "b"):
        D = load_fixture_complex(f"two_res_{tag}.json", 0)
        Dbar = bar_reduce(D)
        for b, _ in D.labels[2]:
            assert is_minimal_support_cycle(Dbar, 1, dict(D.column(b)))
        sizes[tag] = [len(boundary_support(D, b)) for b, _ in D.labels[2]]
    assert sizes["a"][1] == 3 and sizes["b"][1] == 4
    _report(2, "fixture circuit tests; top supports of sizes 3 and 4")


def test_criterion_3_m_incidence_posets():
    t0 = time.time()
    PA = incidence_poset(load_fixture_complex("two_res_a.json", 0))
    PB = incidence_poset(load_fixture_complex("two_res_b.json", 0))
    assert len(PA) == 13 and len(PB) == 13
    assert not poset_isomorphic(PA, PB)
    assert is_hcw(PA, QQ) and is_hcw(PB, QQ)
    assert time.time() - t0 < 5
    _report(3, "two 13-element non-isomorphic hcw incidence posets")


def test_criterion_4_rp2_hcwify():
    P = incidence_poset(load_fixture_complex("pp_res.json", 2))
    top = [e for e in P.elements if P.dim(e) == 3][0]
    assert reduced_homology(P.filter_complex(top), GF2) == {1: 1, 2: 1}
    assert not is_hcw(P, GF2)
    Q, report = hcwify(P, GF2)
    assert len(report.added) == 1
    assert is_hcw(Q, GF2)
    assert conic_complex(P, GF2, True).same_matrices(
        conic_complex(Q, GF2, True))
    HP = homogenize(conic_complex(P, GF2))
    HQ = homogenize(conic_complex(Q, GF2))
    assert betti_table(HP).entries == betti_table(HQ).entries
    _report(4, "RP2 incidence poset: one added relation makes it hcw")


def test_criterion_5_support_theorem_corpus(corpus_runs):
    runs, elapsed = corpus_runs
    for run in runs:
        Q, F = run["poset"], run["F"]
        assert is_hcw(Q, F)
        assert Q.deg is not None  # monotonicity enforced at construction
        ok, witness = supports_resolution(Q, F)
        assert ok, witness
        assert betti_table(run["homog"]).entries == \
            betti_table(run["minimal"]).entries
    assert elapsed < 600
    _report(5, f"hcw support end-to-end on {len(runs)} corpus runs")


def test_criterion_6_rigid_iff_hcw(corpus_runs):
    runs, _ = corpus_runs
    for run in runs:
        T = betti_table(run["minimal"])
        rigid, _ = is_rigid(T)
        assert rigid == is_hcw(betti_poset(T), run["F"])
        assert T.entries == betti_numbers(
            sorted(run["ideal"].generators), run["F"].characteristic)
    _report(6, "rigid iff Betti poset hcw, oracle-checked, whole corpus")


def test_criterion_7_structural_suite(corpus_runs):
    runs, _ = corpus_runs
    for run in runs:
        F = run["F"]
        for C in (run["taylor"], run["minimal"], run["minsupp"],
                  run["homog"]):
            C.check_complex()
        ok, _ = is_resolution(run["taylor"])
        assert ok
        CC = conic_complex(run["poset"], F)
        assert kernel_skeleton_check(CC)
        B = bar_reduce(homogenize(CC))
        split = lambda k: (k.rsplit("#", 1)[0], int(k.rsplit("#", 1)[1]))
        assert {(split(r), split(c)): v for n, m in B.diffs.items() if n
                for (r, c), v in m.items()} == \
            {key: v for n, m in CC.diffs.items() if n for key, v in m.items()}
        assert conic_vs_simplicial(run["poset"], F)
    _report(7, "structural invariants on every corpus artifact")
