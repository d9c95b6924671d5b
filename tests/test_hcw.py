import hashlib
import json

import pytest

from oracle import betti_numbers, boundary_of_chain
from posetres import (FieldSpec, Poset, antichain_form, betti_table,
                      conic_complex, fill_cavity, hcw, hcw_support, hcwify,
                      incidence_poset, is_hcw, minimalize, minimize,
                      taylor_complex)
from posetres.errors import (HypothesisFailed, NotACycle, NotFound,
                             VerificationError)
from posetres.posets import reduced_homology
from conftest import M_GENS, RP2_GENS, load_fixture_complex, random_corpus
from test_hcw_memo import K6_EDGES, _incidence

Q = FieldSpec(0)
GF2 = FieldSpec(2)


def hollow_square_poset():
    """Four points and four joins: filter of a virtual top is a circle."""
    els = ["a", "b", "c", "d", "ab", "bc", "cd", "da", "t"]
    rels = [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc"),
            ("c", "cd"), ("d", "cd"), ("d", "da"), ("a", "da")]
    rels += [(e, "t") for e in els if e != "t"]
    deg = {"a": (1, 0, 0, 0), "b": (0, 1, 0, 0), "c": (0, 0, 1, 0),
           "d": (0, 0, 0, 1), "ab": (1, 1, 0, 0), "bc": (0, 1, 1, 0),
           "cd": (0, 0, 1, 1), "da": (1, 0, 0, 1), "t": (1, 1, 1, 1)}
    return Poset(els, rels, deg=deg)


def test_antichain_form_identity_case():
    P = hollow_square_poset()
    K = P.filter_complex("t")
    # a 1-cycle already supported on dimension-1 apexes
    z = {("ab", "a"): Q(1), ("ab", "b"): Q(-1), ("bc", "b"): Q(1),
         ("bc", "c"): Q(-1), ("cd", "c"): Q(1), ("cd", "d"): Q(-1),
         ("da", "d"): Q(1), ("da", "a"): Q(-1)}
    assert not boundary_of_chain(z, 0) and not K.boundary(1, z, Q)
    assert antichain_form(P, "t", dict(z), 1, Q) == z


def test_antichain_form_lowers_apex_dimension():
    # 0-cycle written via a 1-dimensional vertex: (ab) - (c) has a face with
    # top vertex ab of dimension 1; the reduction must land on points only
    P = hollow_square_poset()
    w = {("ab",): Q(1), ("c",): Q(-1)}
    z = antichain_form(P, "t", w, 0, Q)
    assert all(P.dim(f[0]) == 0 for f in z)
    # homologous: difference is a boundary in the filter
    K = P.filter_complex("t")
    diff = dict(z)
    for f, v in w.items():
        diff[f] = Q.sub(diff.get(f, Q.zero), v)
    from posetres.exactla import solve
    faces0 = K.faces[0]
    fix = {f: i for i, f in enumerate(faces0)}
    rhs = [Q.zero] * len(faces0)
    for f, v in diff.items():
        rhs[fix[f]] = v
    assert solve(K.matrix(1), rhs, Q) is not None


def test_antichain_form_rejects_non_cycles():
    P = hollow_square_poset()
    with pytest.raises(NotACycle):  # augmentation 1: not a reduced cycle
        antichain_form(P, "t", {("a",): 1}, 0, Q)
    with pytest.raises(NotFound):  # ("t",) is not a face below t
        antichain_form(P, "t", {("ab",): 1, ("t",): -1}, 0, Q)


def test_fill_cavity_noop_when_no_cavity():
    C = load_fixture_complex("two_res_a.json", 0)
    P = incidence_poset(C)
    top = [e for e in P.elements if P.dim(e) == 2][0]
    P2, added = fill_cavity(P, top, 0, Q)
    assert added == [] and P2.covers == P.covers


def test_fill_cavity_requires_dimension_gap():
    P = hollow_square_poset()
    with pytest.raises(HypothesisFailed):
        fill_cavity(P, "ab", 0, Q)


def test_fill_cavity_rp2_top():
    C = load_fixture_complex("pp_res.json", 2)
    P = incidence_poset(C)
    top = [e for e in P.elements if P.dim(e) == 3][0]
    assert reduced_homology(P.filter_complex(top), GF2) == {1: 1, 2: 1}
    P2, added = fill_cavity(P, top, 1, GF2)
    assert len(added) == 1
    c, a = added[0]
    assert a == top and P.dim(c) == 2
    assert reduced_homology(P2.filter_complex(top), GF2) == {2: 1}
    assert conic_complex(P, GF2, True).same_matrices(
        conic_complex(P2, GF2, True))


def test_hcwify_already_hcw_is_identity():
    for name in ("two_res_a.json", "two_res_b.json"):
        P = incidence_poset(load_fixture_complex(name, 0))
        assert is_hcw(P, Q)
        Qp, report = hcwify(P, Q)
        assert report.added == []
        assert Qp.covers == P.covers


def test_hcwify_rp2_adds_one_relation():
    P = incidence_poset(load_fixture_complex("pp_res.json", 2))
    assert not is_hcw(P, GF2)
    Qp, report = hcwify(P, GF2)
    assert len(report.added) == 1
    assert is_hcw(Qp, GF2)
    assert not report.verdicts_before[report.added[0][1]]
    assert report.verdicts_after[report.added[0][1]]
    # idempotence on outputs
    Q2, report2 = hcwify(Qp, GF2)
    assert report2.added == [] and Q2.covers == Qp.covers
    dot = report.to_dot()
    assert "dashed" in dot
    assert report.to_json()["added_relations"] == [list(report.added[0])]


def test_hcwify_raises_when_a_cavity_stays_open(monkeypatch):
    # a fill that adds nothing leaves rp2's cavity over GF(2) in place
    P = incidence_poset(load_fixture_complex("pp_res.json", 2))
    monkeypatch.setattr(hcw, "fill_cavity", lambda P, a, n, F: (P, []))
    with pytest.raises(VerificationError, match="hcwify result is not hcw"):
        hcwify(P, GF2)


def test_hcwify_precondition_failure():
    # top filter with three points has homology rank 2, not 1
    P = Poset(["a", "b", "c", "t"], [("a", "t"), ("b", "t"), ("c", "t")],
              deg={"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1),
                   "t": (1, 1, 1)})
    with pytest.raises(HypothesisFailed):
        hcwify(P, Q)


def test_hcw_support_koszul():
    Qp, deg, H = hcw_support(minimalize([(1, 0), (0, 1)]), Q)
    assert len(Qp) == 3 and is_hcw(Qp, Q)
    assert H.ranks() == (2, 1)


def test_hcw_support_rp2():
    I = minimalize(RP2_GENS)
    Qp, deg, H = hcw_support(I, GF2)
    assert len(Qp) == 33 and is_hcw(Qp, GF2)
    assert betti_table(H).totals() == (10, 15, 7, 1)
    M = minimize(taylor_complex(I, GF2))
    assert betti_table(H).entries == betti_table(M).entries


@pytest.mark.parametrize("p", [3, 5])
def test_hcw_support_matches_oracle_in_odd_characteristic(p):
    F = FieldSpec(p)
    for I in [minimalize(RP2_GENS), minimalize(M_GENS)] + random_corpus(100):
        Qp, deg, H = hcw_support(I, F)
        assert is_hcw(Qp, F)
        assert betti_table(H).entries == betti_numbers(I.generators, p)


# the relations hcwify adds over GF(2): they depend on which class each fill
# picks, so they pin the class search
ADDED_GF2 = {
    "rp2": [("t6.8.9", "t6.7.8.9")],
    "k6-13": [("t9.11.12", "t7.9.10.12"), ("t10.11.12", "t7.9.10.12"),
              ("t9.10.11.12", "t7.8.9.10.12")],
    "k6-14": [("t9.12.13", "t8.9.11.13"), ("t11.12.13", "t8.9.11.13"),
              ("t10.12.13", "t8.10.11.13"), ("t11.12.13", "t8.10.11.13"),
              ("t9.10.11.12", "t8.9.10.11.13"),
              ("t9.11.12.13", "t8.9.10.11.13"),
              ("t10.11.12.13", "t8.9.10.11.13")],
}


@pytest.mark.parametrize("name", sorted(ADDED_GF2))
def test_hcwify_pins_added_relations_over_gf2(name):
    gens = {"rp2": RP2_GENS, "k6-13": K6_EDGES[:13], "k6-14": K6_EDGES[:14]}
    Qp, report = hcwify(_incidence(minimalize(gens[name]), GF2), GF2)
    assert report.added == ADDED_GF2[name]
    assert is_hcw(Qp, GF2)


# the SHA-256 of the sorted-key HcwReport JSON over Q and GF(3), where hcwify
# adds no relation: it pins every sphere verdict the sparse-row kernel gives
REPORT_SHA256 = {
    "k6-13": "19eb877ec4650f45c2c8c9ef9c3e972e7824f16d8ac9d1ad243e643601724a9b",
    "k6-14": "70ce108a3cc5b583406bee74457d667d6c5c86a035faf09edf0cd4dad635ed9a",
}


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_hcwify_pins_report_over_q_and_gf3(name, p):
    F = FieldSpec(p)
    gens = {"k6-13": K6_EDGES[:13], "k6-14": K6_EDGES[:14]}
    _, report = hcwify(_incidence(minimalize(gens[name]), F), F)
    assert report.added == []
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]
