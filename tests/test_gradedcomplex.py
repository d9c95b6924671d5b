import gc
import hashlib
import json
import random
import re
import weakref
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import betti_numbers, strand_reference
from posetres import (ChainComplex, ConicComplex, FieldSpec, GradedFreeComplex,
                      OrientedComplex, bar_reduce, betti_table, divides,
                      hcw_support, incidence_poset, is_resolution,
                      join_closure, lcm,
                      minimalize, minimize, strand, taylor_complex)
from posetres.errors import (InvalidField, NotAComplex, NotMinimal, ParseError,
                             PosetresError, ShapeError, TooLarge,
                             VerificationError)
from posetres import gradedcomplex, monomials
from posetres.exactla import _suspect_columns
from posetres.gradedcomplex import TAYLOR_CAP
from helpers import row_sweep_pivots
from conftest import (FIXTURES, M_GENS, RP2_GENS, SQUAREFREE3, columns,
                      json_values, random_corpus)

Q = FieldSpec(0)
FIELDS = [FieldSpec(p) for p in (0, 2, 3, 5)]
K6_EDGES = [tuple(int(v in e) for v in range(6))
            for e in combinations(range(6), 2)]


def taylor_reference(ideal, F):
    """The Taylor complex built subset by subset from `combinations`, each
    id joined and each lcm folded anew."""
    gens = ideal.generators
    r = len(gens)
    labels = {}
    diffs = {}
    for size in range(1, r + 1):
        n = size - 1
        labels[n] = []
        for S in combinations(range(r), size):
            deg = gens[S[0]]
            for k in S[1:]:
                deg = lcm(deg, gens[k])
            labels[n].append(("t" + ".".join(map(str, S)), deg))
        if n >= 1:
            diffs[n] = {}
            for S in combinations(range(r), size):
                cid = "t" + ".".join(map(str, S))
                for j in range(size):
                    T = S[:j] + S[j + 1:]
                    rid = "t" + ".".join(map(str, T))
                    diffs[n].setdefault(cid, {})[rid] = F(-1 if j % 2 else 1)
    return GradedFreeComplex(ideal.num_vars, F, labels, diffs)


def minimize_reference(C):
    """minimize with each pivot found by a linear scan over the pending
    units, in the same documented order."""
    F = C.field
    pos = {}
    for n, labs in C.labels.items():
        for k, (i, _) in enumerate(labs):
            pos[i] = k
    col = {n: {} for n in C.diffs}
    row = {n: {} for n in C.diffs}
    for n, mat in C.diffs.items():
        for (r, c), v in mat.items():
            col[n].setdefault(c, {})[r] = v
            row[n].setdefault(r, set()).add(c)
    alive = {i for i in C.degree_of}
    deg = C.degree_of

    def drop_entry(n, r, c):
        col[n][c].pop(r, None)
        if not col[n][c]:
            col[n].pop(c)
        if r in row[n]:
            row[n][r].discard(c)
            if not row[n][r]:
                row[n].pop(r)

    for n in sorted(C.diffs):
        units = {(r, c) for c, colmap in col.get(n, {}).items()
                 for r in colmap if deg[r] == deg[c]}
        while units:
            r0, c0 = min(units, key=lambda rc: (pos[rc[0]], pos[rc[1]]))
            u = col[n][c0][r0]
            uinv = F.inv(u)
            other_cols = [c for c in row[n].get(r0, set()) if c != c0]
            other_rows = [r for r in col[n].get(c0, {}) if r != r0]
            for c2 in other_cols:
                factor = F.mul(uinv, col[n][c2][r0])
                for r2 in other_rows:
                    delta = F.mul(col[n][c0][r2], factor)
                    old = col[n].get(c2, {}).get(r2, F.zero)
                    new = F.sub(old, delta)
                    if new:
                        col[n].setdefault(c2, {})[r2] = new
                        row[n].setdefault(r2, set()).add(c2)
                        if deg[r2] == deg[c2]:
                            units.add((r2, c2))
                    elif old:
                        drop_entry(n, r2, c2)
                        units.discard((r2, c2))
            for c2 in list(row[n].get(r0, set())):
                drop_entry(n, r0, c2)
                units.discard((r0, c2))
            for r2 in list(col[n].get(c0, {})):
                drop_entry(n, r2, c0)
                units.discard((r2, c0))
            if n + 1 in col:
                for c2 in list(row.get(n + 1, {}).get(c0, set())):
                    drop_entry(n + 1, c0, c2)
            if n - 1 in col and r0 in col[n - 1]:
                for r2 in list(col[n - 1].get(r0, {})):
                    drop_entry(n - 1, r2, r0)
            alive.discard(r0)
            alive.discard(c0)

    labels = {n: [(i, d) for i, d in labs if i in alive]
              for n, labs in C.labels.items()}
    diffs = {n: {c: dict(colmap) for c, colmap in col.get(n, {}).items()}
             for n in C.diffs}
    out = GradedFreeComplex(C.num_vars, F, labels, diffs)
    if not out.is_minimal():
        raise VerificationError("minimization left a unit entry")
    return out


def koszul_xy():
    return taylor_complex(minimalize([(1, 0), (0, 1)]), Q)


def test_taylor_koszul():
    T = koszul_xy()
    assert T.ranks() == (2, 1)
    assert T.labels[1][0][1] == (1, 1)


def test_taylor_ranks_are_binomial():
    T = taylor_complex(minimalize(SQUAREFREE3), Q)
    assert T.ranks() == (3, 3, 1)
    T.check_complex()


def test_taylor_cap():
    class Unused:
        def __getattr__(self, name):
            raise AssertionError("the field was used before the cap check")

        def __call__(self, x):
            raise AssertionError("the field was used before the cap check")

    r = TAYLOR_CAP + 1
    gens = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    with pytest.raises(TooLarge):
        taylor_complex(minimalize(gens), Unused())


def test_taylor_matches_reference():
    ideals = ([minimalize(SQUAREFREE3), minimalize(M_GENS),
               minimalize(K6_EDGES[:7]), minimalize(K6_EDGES[:10]),
               minimalize([(3, 0, 0), (2, 1, 0), (0, 2, 1), (1, 0, 2),
                           (0, 3, 0), (0, 0, 3), (1, 1, 1)])]
              + random_corpus(100))
    assert {len(I.generators) for I in ideals} == {*range(1, 8), 10}
    for I in ideals:
        for F in FIELDS:
            T, R = taylor_complex(I, F), taylor_reference(I, F)
            assert T.to_json() == R.to_json()
            assert T.labels == R.labels
            assert_same_complex(T, R)


def test_taylor_joins_each_lcm_once_per_lattice_element(monkeypatch):
    """On K6-13 each lcm is joined once per (parent lcm, added generator):
    at most (distinct label degrees) x r calls, against one per face of two
    or more generators (8,178) when every face is joined anew.  Equal
    labels share one degree tuple."""
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return lcm(a, b)

    I = minimalize(K6_EDGES[:13])
    monkeypatch.setattr(gradedcomplex, "lcm", spy)
    T = taylor_complex(I, FieldSpec(3))
    degs = [d for labs in T.labels.values() for _, d in labs]
    assert len(degs) == 2 ** 13 - 1
    assert len(set(degs)) == 54
    assert len(calls) <= len(set(degs)) * len(I.generators)
    assert len({id(d) for d in degs}) == len(set(degs))


def test_homogeneity_enforced():
    with pytest.raises(ShapeError):
        GradedFreeComplex(1, Q, {0: [("a", (2,))], 1: [("b", (1,))]},
                          {1: {"b": {"a": Q(1)}}})


def test_not_a_complex_detected():
    T = taylor_complex(minimalize(SQUAREFREE3), Q)
    d = {n: {c: dict(col) for c, col in cols.items()}
         for n, cols in T.d.items()}
    col = next(iter(d[2].values()))
    r = next(iter(col))
    col[r] = Q.neg(col[r])
    with pytest.raises(NotAComplex) as exc:
        GradedFreeComplex(3, Q, T.labels, d)
    assert str(exc.value) == "d_1 o d_2 != 0, e.g. at ('t2', 't0.1.2')"


def test_check_complex_exact_over_q():
    # d_1 d_2 = 1/2 * 2 + 1/3 * (-3) vanishes only through the denominators.
    basis = {0: ["a"], 1: ["b", "c"], 2: ["e"]}
    d1 = {"b": {"a": Fraction(1, 2)}, "c": {"a": Fraction(1, 3)}}
    ChainComplex(Q, basis, {1: d1, 2: {"e": {"b": Q(2), "c": Q(-3)}}}
                 ).check_complex()
    bad = ChainComplex(Q, basis, {1: d1, 2: {"e": {"b": Q(-2), "c": Q(-3)}}})
    for _ in range(2):  # each call checks anew
        with pytest.raises(NotAComplex, match=r"at \('a', 'e'\)"):
            bad.check_complex()


def test_check_complex_mixes_ints_and_fractions():
    basis = {0: ["a"], 1: ["b", "c"], 2: ["e"]}
    d1 = {"b": {"a": Fraction(1, 2)}, "c": {"a": Fraction(1, 3)}}
    ChainComplex(Q, basis, {1: d1, 2: {"e": {"b": 2, "c": -3}}}
                 ).check_complex()
    bad = ChainComplex(Q, basis, {1: d1, 2: {"e": {"b": 2, "c": 3}}})
    with pytest.raises(NotAComplex, match=r"at \('a', 'e'\)"):
        bad.check_complex()
    for F in FIELDS:  # every GF(p) store, and the Taylor complex over Q
        taylor_complex(minimalize(K6_EDGES[:6]), F).check_complex()


def test_check_complex_reduces_mod_p():
    F = FieldSpec(3)
    basis = {0: ["a"], 1: ["b", "c", "d"], 2: ["e"]}
    d1 = {x: {"a": 1} for x in "bcd"}
    # The composite is 1 + 1 + 1 = 3 = 0 in GF(3), then 1 + 1 + 2 = 4 = 1.
    ChainComplex(F, basis, {1: d1, 2: {"e": dict.fromkeys("bcd", 1)}}
                 ).check_complex()
    d2 = {"e": {"b": 1, "c": 1, "d": 2}}
    with pytest.raises(NotAComplex):
        ChainComplex(F, basis, {1: d1, 2: d2}).check_complex()


def _first_failing_entry(diffs, p):
    """The message check_complex must give on the store {n: {(row, col): v}}
    (n = 0 the augmentation, onto the row ()), or None if it is a complex:
    the first n, ascending, with d_n o d_{n+1} != 0, its first column in
    the store order of d_{n+1}, and there the first row, in the order that
    column's entries reach the rows of d_n, whose dense composite entry is
    nonzero (mod p when p > 0)."""
    cols = columns(diffs)
    for n in sorted(cols):
        for c, col in cols.get(n + 1, {}).items():
            reach = dict.fromkeys(r for m in col for r in cols.get(n, {})
                                  .get(m, {}))
            for r in reach:
                v = sum(Fraction(diffs[n].get((r, m), 0)) * Fraction(w)
                        for m, w in col.items())
                if v % p if p else v:
                    return f"d_{n} o d_{n + 1} != 0, e.g. at {(r, c)}"
    return None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 2, 3, 5]), st.data())
def test_check_complex_matches_dense_composite(p, data):
    """d_n o d_{n+1} on random sparse entries (fractions over Q), in 3 or 4
    degrees of up to 6 ids and with or without an augmentation, vanishes
    for every n exactly when check_complex passes; otherwise its message
    names the reference's first nonzero entry."""
    F = FieldSpec(p)
    sizes = [data.draw(st.integers(1, 6))
             for _ in range(data.draw(st.integers(3, 4)))]
    basis = {n: [f"{n}.{i}" for i in range(k)] for n, k in enumerate(sizes)}
    rows = {-1: [()], **basis}
    values = (st.fractions(-2, 2, max_denominator=3) if p == 0
              else st.integers(0, p - 1))
    diffs = {n: {(r, c): v for r in rows[n - 1] for c in basis[n]
                 if data.draw(st.booleans()) and (v := F(data.draw(values)))}
             for n in range(1 - data.draw(st.booleans()), len(sizes))}
    X = ChainComplex(F, basis, columns(diffs))
    expected = _first_failing_entry(diffs, p)
    if expected is None:
        X.check_complex()
    else:
        with pytest.raises(NotAComplex) as exc:
            X.check_complex()
        assert str(exc.value) == expected


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_suspect_columns_clear_every_taylor_column(p):
    """Every column of every Taylor differential, d_1 under the augmentation
    too, reaches each row by one +1 and one -1 path, so over Q and GF(p), p
    odd, their masks pair up, and over GF(2) their XOR is 0: the one pass
    of _suspect_columns leaves no column to sum in any degree, on K6-10 and
    the corpus ideals."""
    F = FieldSpec(p)
    for I in [minimalize(K6_EDGES[:10])] + random_corpus(100):
        X = bar_reduce(taylor_complex(I, F))
        diffs = [(X.basis.get(n, []), X.d.get(n, {}))
                 for n in range(X.top + 1)]
        assert list(_suspect_columns([()], diffs, F)) == []


def _taylor_mutant(p, kind, seed):
    """The basis and the store {n: {(row, col): v}} of the augmented Taylor
    complex of K6's first five edges over GF(p) (over Q for p 0 or None),
    with one change drawn by `seed`: a sign flipped ("flip"), an entry
    dropped ("drop") or set to 2 ("two") or to Fraction(1) ("frac"), or, in
    a column c of d_{n+1}, an entry added at a mid outside c that meets a
    row r of c's mids, signed so that r is reached by two +1 paths and one
    -1 path ("path")."""
    F = FieldSpec(p or 0)
    T = taylor_complex(minimalize(K6_EDGES[:5]), F)
    diffs = {n: {(r, c): v for c, col in cols.items() for r, v in col.items()}
             for n, cols in T.d.items()}
    diffs[0] = {((), c): F.one for c in T.basis[0]}
    rng = random.Random(seed)
    if kind == "path":
        n, c, m3, r = rng.choice([
            (n, c, m3, r) for n in T.d if n + 1 in T.d
            for c, col in T.d[n + 1].items()
            for m3, low in T.d[n].items() if m3 not in col
            for r in low if any(r in T.d[n][m] for m in col)])
        diffs[n + 1][(m3, c)] = T.d[n][m3][r]  # (m3, r) then gives +1
        return T.basis, diffs
    n = rng.choice(sorted(diffs))
    rc = rng.choice(list(diffs[n]))
    if kind == "drop":
        del diffs[n][rc]
    else:
        diffs[n][rc] = {"flip": F.neg(diffs[n][rc]), "two": F(2),
                        "frac": Fraction(1)}[kind]
    return T.basis, diffs


@pytest.mark.parametrize("p", [0, 3, 5, None])
@pytest.mark.parametrize("kind", ["flip", "drop", "two", "frac", "path"])
def test_check_complex_matches_dense_composite_on_taylor_mutants(p, kind):
    """On unit-valued mutants of a Taylor store, over Q, GF(3), GF(5) and
    with no field, check_complex passes exactly when every composite
    vanishes and otherwise names the reference's first nonzero entry."""
    for seed in range(12):
        basis, diffs = _taylor_mutant(p, kind, seed)
        X = ChainComplex(p if p is None else FieldSpec(p), basis,
                         columns(diffs))
        expected = _first_failing_entry(diffs, p or 0)
        if kind in ("flip", "path"):
            assert expected is not None
        if expected is None:
            X.check_complex()
        else:
            with pytest.raises(NotAComplex) as exc:
                X.check_complex()
            assert str(exc.value) == expected


@pytest.mark.parametrize("p", [0, 3, 5, None])
def test_check_complex_sums_a_carry_and_a_non_unit_mid(p):
    """Two stores that pair their paths only in a weaker sense, each failing
    at one row.  In the first, row x is reached by two +1 paths and row y
    by one -1 path, so the sums of the +1 and the -1 path masks agree
    (x's two bits carry into y's) while the composite is (2, -1).  In the
    second, the column's unit mids cancel at x and its mid m, whose column
    is not all units, reaches y alone."""
    F = p if p is None else FieldSpec(p)
    neg = -1 if p is None else F(-1)
    carry = {1: {"a": {"x": 1}, "b": {"x": 1}, "m": {"y": neg}},
             2: {"e": {"a": 1, "b": 1, "m": 1}}}
    cases = [(carry, "x")] + [
        ({1: {"a": {"x": 1}, "b": {"x": neg}, "m": {"y": v}},
          2: {"e": {"a": 1, "b": 1, "m": 1}}}, "y")
        for v in [Fraction(1, 2)] + ([2] if p != 3 else [])]
    basis = {0: ["x", "y"], 1: ["a", "b", "m"], 2: ["e"]}
    for d, row in cases:
        with pytest.raises(NotAComplex) as exc:
            ChainComplex(F, basis, d).check_complex()
        assert str(exc.value) == f"d_1 o d_2 != 0, e.g. at ({row!r}, 'e')"


FALLBACKS = {  # name: (basis, store {n: {(row, col): v}}, message over Q)
    # a has the row z outside basis[0], so it gets no masks; read without
    # z its masks would pair with b's and clear e
    "row outside the basis": (
        {0: ["x"], 1: ["a", "b"], 2: ["e"]},
        {1: {("x", "a"): 1, ("z", "a"): 1, ("x", "b"): 1},
         2: {("a", "e"): 1, ("b", "e"): -1}},
        "d_1 o d_2 != 0, e.g. at ('z', 'e')"),
    # w, a column of d_2 outside basis[2], has no masks for g to read;
    # read as a zero column it would clear g
    "column outside the basis": (
        {0: ["x"], 1: ["a", "b"], 2: ["e"], 3: ["g"]},
        {1: {("x", "a"): 1, ("x", "b"): 1},
         2: {("a", "e"): 1, ("b", "e"): -1, ("a", "w"): 1, ("b", "w"): -1},
         3: {("w", "g"): 1}},
        "d_2 o d_3 != 0, e.g. at ('a', 'g')"),
    # d_2 is empty, so the masks of d_3 are built with no sums under them
    "empty differential between two": (
        {0: ["x"], 1: ["a"], 2: ["e", "f"], 3: ["g", "k"], 4: ["h", "i"]},
        {1: {("x", "a"): 1},
         3: {("e", "g"): 1, ("f", "g"): -1, ("e", "k"): 1, ("f", "k"): -1},
         4: {("g", "h"): 1, ("k", "h"): -1, ("g", "i"): 1}},
        "d_3 o d_4 != 0, e.g. at ('e', 'i')"),
    # m holds 3, a unit over no field but GF(2), under a column of units
    "non-unit column below units": (
        {0: ["x", "y"], 1: ["a", "b", "m"], 2: ["e"]},
        {1: {("x", "a"): 1, ("x", "b"): -1, ("y", "m"): 3},
         2: {("a", "e"): 1, ("b", "e"): 1, ("m", "e"): 1}},
        "d_1 o d_2 != 0, e.g. at ('y', 'e')"),
    # a Fraction in d_1: 2 * 1/2 + 2 * 1 = 3 is odd; with the parity masks
    # of the int entries alone, e (both entries even) would be cleared
    "fraction": (
        {0: ["x"], 1: ["a", "b"], 2: ["e"]},
        {1: {("x", "a"): Fraction(1, 2), ("x", "b"): 1},
         2: {("a", "e"): 2, ("b", "e"): 2}},
        "d_1 o d_2 != 0, e.g. at ('x', 'e')"),
}


@pytest.mark.parametrize("p", [0, 2, 3, 5, None])
@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_check_complex_sends_what_it_cannot_mask_to_the_sum(name, p):
    """Each case holds a column of d_{n+1} that only the exact sum can
    decide, and check_complex gives the dense composite's verdict and
    message on it over every field and with none."""
    basis, diffs, message = FALLBACKS[name]
    X = ChainComplex(p if p is None else FieldSpec(p), basis, columns(diffs))
    expected = _first_failing_entry(diffs, p or 0)
    if p in (0, None):
        assert expected == message
    if expected is None:
        X.check_complex()
    else:
        with pytest.raises(NotAComplex) as exc:
            X.check_complex()
        assert str(exc.value) == expected


def _as_fractions(d):
    return {n: {c: {r: Fraction(v) for r, v in col.items()}
                for c, col in cols.items()} for n, cols in d.items()}


def test_check_complex_over_gf2_decides_raw_ints_by_parity():
    """Over GF(2) a store of raw ints (not reduced mod 2) passes or fails as
    the plain sum decides, which the same store in Fractions takes."""
    F = FieldSpec(2)
    basis = {0: ["a", "b"], 1: ["x", "y"], 2: ["e", "f"]}
    d1 = {"x": {"a": 3, "b": -1}, "y": {"a": -1, "b": 3}}
    # column e: (-3 - 3, 1 + 9) = (-6, 10); f: (3 - 1, -1 + 3) = (2, 2)
    good = {1: d1, 2: {"e": {"x": -1, "y": 3}, "f": {"x": 1, "y": 1}}}
    # column f: (-3 - 2, 1 + 6) = (-5, 7), odd at a and b
    bad = {1: d1, 2: {"e": {"x": -1, "y": 3}, "f": {"x": -1, "y": 2}}}
    d0 = {0: {"a": {(): 1}, "b": {(): -3}}}  # d_0 o d_1 = (3 + 3, -1 - 9)
    for d in (good, _as_fractions(good)):
        ChainComplex(F, basis, {**d0, **d}).check_complex()
    for d in (bad, _as_fractions(bad)):
        with pytest.raises(NotAComplex) as exc:
            ChainComplex(F, basis, {**d0, **d}).check_complex()
        assert str(exc.value) == "d_1 o d_2 != 0, e.g. at ('a', 'f')"
    for d in (good, _as_fractions(good)):  # d_0 o d_1 = (3 - 2, -1 + 6)
        with pytest.raises(NotAComplex) as exc:
            ChainComplex(F, basis, {0: {"a": {(): 1}, "b": {(): 2}}, **d}
                         ).check_complex()
        assert str(exc.value) == "d_0 o d_1 != 0, e.g. at ((), 'x')"


def test_check_complex_over_gf2_sums_a_degree_holding_a_fraction():
    """A Fraction anywhere in d_n or d_{n+1} sends that composite to the
    plain sum, which reduces each entry mod 2 as it stands: 4 * 1/2 = 2
    passes, while 2 * 1/2 = 1 and 1/3 fail, as does an int column before
    the column holding the Fraction."""
    F = FieldSpec(2)
    basis = {0: ["a"], 1: ["x", "y"], 2: ["e", "f"]}
    d1 = {"x": {"a": 1}, "y": {"a": 1}}
    half = {"x": {"a": Fraction(1, 2)}, "y": {"a": 1}}
    cases = [  # (d_1, d_2, the column named, or None)
        (half, {"e": {"x": 4}, "f": {"x": 2, "y": 1}}, None),
        (half, {"e": {"x": 4}, "f": {"x": 2}}, "f"),
        (d1, {"e": {"x": 1, "y": 1}, "f": {"x": Fraction(1, 3)}}, "f"),
        (d1, {"e": {"x": 1, "y": 1}, "f": {"x": Fraction(2, 1)}}, None),
        (d1, {"e": {"x": 1}, "f": {"x": Fraction(1, 3)}}, "e")]
    for low, up, bad in cases:
        X = ChainComplex(F, basis, {1: low, 2: up})
        if bad is None:
            X.check_complex()
        else:
            with pytest.raises(NotAComplex) as exc:
                X.check_complex()
            assert str(exc.value) == f"d_1 o d_2 != 0, e.g. at ('a', {bad!r})"


def test_check_complex_names_the_entry_on_a_taylor_store_over_gf2():
    """The K6-10 Taylor complex over GF(2), with the entry at t0.3.7 of
    column t0.3.5.7 of d_3 dropped, fails at that column, and names the
    first row of t0.3.7 that the column's entries reach: t3.7, through
    t3.5.7, before t0.7 and t0.3."""
    F = FieldSpec(2)
    T = taylor_complex(minimalize(K6_EDGES[:10]), F)
    d = {n: {c: dict(col) for c, col in cols.items()}
         for n, cols in T.d.items()}
    del d[3]["t0.3.5.7"]["t0.3.7"]
    with pytest.raises(NotAComplex) as exc:
        ChainComplex(F, T.basis, d, T.augmented).check_complex()
    assert str(exc.value) == "d_2 o d_3 != 0, e.g. at ('t3.7', 't0.3.5.7')"


def test_restrict_and_matrix_keep_only_the_given_ids():
    X = ChainComplex(Q, {0: ["a", "b"], 1: ["x", "y"], 2: ["e"]},
                     {0: {"a": {(): 1}, "b": {(): 1}},
                      1: {"x": {"a": 1, "b": 2}, "y": {"a": 3}},
                      2: {"e": {"x": 1, "y": 5}}})
    S = X.restrict(["b", "x", "e"])  # no subcomplex: y and a are left out
    assert S.basis == {0: ["b"], 1: ["x"], 2: ["e"]}
    assert S.d == {0: {"b": {(): 1}}, 1: {"x": {"b": 2}}, 2: {"e": {"x": 1}}}
    # matrix too reads only the given columns and keeps only the given rows
    assert X.matrix(1, rows=["b"], cols=["y", "x"]).entries == {(0, 1): 2}
    assert X.matrix(0, cols=["b"]).entries == {(0, 0): 1}


def test_check_complex_reads_every_row_of_a_column():
    # column e of the composite is 0 at a and 1 at b over GF(2)
    F = FieldSpec(2)
    basis = {0: ["a", "b"], 1: ["x", "y"], 2: ["e"]}
    d1 = {"x": {"a": 1, "b": 1}, "y": {"a": 1}}
    with pytest.raises(NotAComplex, match=r"at \('b', 'e'\)"):
        ChainComplex(F, basis, {1: d1, 2: {"e": {"x": 1, "y": 1}}}
                     ).check_complex()


def test_check_complex_reads_the_augmentation_as_d0():
    basis = {0: ["a", "b"], 1: ["c"]}
    d0 = {"a": {(): 1}, "b": {(): 1}}
    ChainComplex(Q, basis, {0: d0, 1: {"c": {"a": 1, "b": -1}}},
                 augmented=True).check_complex()
    bad = ChainComplex(Q, basis, {0: d0, 1: {"c": {"a": 1, "b": 1}}},
                       augmented=True)
    with pytest.raises(NotAComplex) as exc:
        bad.check_complex()
    assert str(exc.value) == "d_0 o d_1 != 0, e.g. at ((), 'c')"


def test_check_complex_sums_over_the_integers_without_a_field():
    """An OrientedComplex has no field, so its composites are summed in Z:
    a composite of 2 fails, although it vanishes over GF(2)."""
    K = OrientedComplex({-1: [()], 0: [(0,), (1,), (2,)],
                         1: [(1, 0), (2, 0), (2, 1)], 2: [(2, 1, 0)]})
    K.check_complex()
    K.d[2][(2, 1, 0)][(2, 0)] = 1
    with pytest.raises(NotAComplex) as exc:
        K.check_complex()
    assert str(exc.value) == "d_1 o d_2 != 0, e.g. at ((0,), (2, 1, 0))"


def test_every_built_complex_is_checked_once(monkeypatch):
    """Through hcw_support on a corpus and the K6-10 resolution, each
    GradedFreeComplex and ConicComplex runs check_complex once, as it is
    built, and no other complex is checked."""
    built, checked = [], []
    check = ChainComplex.check_complex
    monkeypatch.setattr(ChainComplex, "check_complex",
                        lambda self: checked.append(self) or check(self))
    for cls in (GradedFreeComplex, ConicComplex):
        def init(self, *args, init=cls.__init__):
            init(self, *args)
            built.append(self)
        monkeypatch.setattr(cls, "__init__", init)
    for p in (0, 2, 3):
        F = FieldSpec(p)
        for I in random_corpus(100):
            hcw_support(I, F)
        minimize(taylor_complex(minimalize(K6_EDGES[:10]), F))
    assert {type(C) for C in built} == {GradedFreeComplex, ConicComplex}
    assert len(checked) == len(built)
    assert all(C is B for C, B in zip(checked, built))


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_two_generator_pipeline_builds_two_graded_complexes(monkeypatch, p):
    """The Taylor complex of x*y^2, y*z^3 is minimal and its columns are
    circuits, so minimize and make_minimal_support_basis return it as it
    is: hcw_support builds the Taylor complex and H, and one conic
    complex, whose unaugmented twin is a copy."""
    built = []
    for cls in (GradedFreeComplex, ConicComplex):
        def init(self, *args, init=cls.__init__):
            init(self, *args)
            built.append(self)
        monkeypatch.setattr(cls, "__init__", init)
    _, _, H = hcw_support(minimalize([(1, 2, 0), (0, 1, 3)]), FieldSpec(p))
    assert [type(C) for C in built] == [GradedFreeComplex, ConicComplex,
                                        GradedFreeComplex]
    assert built[-1] is H
    assert H.ranks() == (2, 1)


def test_homogeneity_checked_for_every_degree_pair():
    labels = {0: [("a", (1, 0)), ("b", (0, 1))],
              1: [("c", (1, 1)), ("e", (1, 0)), ("f", (1, 0))]}
    GradedFreeComplex(2, Q, labels, {1: {"c": {"a": 1, "b": 1},
                                         "e": {"a": 1}, "f": {"a": 1}}})
    # the pair (deg b, deg e) is new although both degrees were seen
    with pytest.raises(ShapeError, match=r"inhomogeneous entry \(b,e\)"):
        GradedFreeComplex(2, Q, labels, {1: {"c": {"a": 1, "b": 1},
                                             "e": {"a": 1, "b": 1}}})
    # placement is checked for every entry, also on a degree pair seen before
    with pytest.raises(ShapeError, match=r"entry \(f,c\) misplaced"):
        GradedFreeComplex(2, Q, labels, {1: {"c": {"a": 1, "f": 1}}})


def test_graded_complex_rejects_a_d0_column():
    """A GradedFreeComplex is unaugmented: bar_reduce's d_0, onto the row
    (), lies in no degree of its labels."""
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    B = bar_reduce(M)
    assert B.d[0] == {i: {(): 1} for i in M.basis[0]}
    with pytest.raises(ShapeError, match="misplaced in degree 0"):
        GradedFreeComplex(M.num_vars, Q, M.labels, B.d)


def test_graded_complex_checks_each_column():
    labels = {0: [("a", (1, 0)), ("b", (0, 1))],
              1: [("c", (1, 1)), ("e", (1, 0))], 2: [("g", (1, 1))]}
    ok = {1: {"c": {"a": 1, "b": 2}, "e": {"a": 1}}}
    GradedFreeComplex(2, Q, labels, ok)
    bad = [  # a row id from the wrong degree (e sits in degree 1)
        ({1: {"c": {"a": 1, "e": 1}}}, r"entry \(e,c\) misplaced in degree 1"),
        # column ids from the wrong degree, and one that is no basis id
        ({1: {"a": {"b": 1}}}, r"entry \(b,a\) misplaced in degree 1"),
        ({2: {"c": {"e": 1}}}, r"entry \(e,c\) misplaced in degree 2"),
        ({1: {"x": {"a": 1}}}, r"entry \(a,x\) misplaced in degree 1"),
        # a bad row after good ones, in a column after a good one
        ({1: {"c": {"a": 1}, "e": {"a": 1, "b": 1}}},
         r"inhomogeneous entry \(b,e\): deg \(1, 0\) - \(0, 1\) < 0"),
    ]
    for d, message in bad:
        with pytest.raises(ShapeError, match=message):
            GradedFreeComplex(2, Q, labels, d)
    # entries that vanish in the field are dropped before the checks, and so
    # are the columns and differentials they leave empty
    C = GradedFreeComplex(2, FieldSpec(3), labels,
                          {1: {"c": {"a": 3, "b": 6}, "e": {"a": 4}},
                           2: {"g": {"c": 0}}, 3: {"x": {"y": 3}}})
    assert C.d == {1: {"e": {"a": 1}}}
    assert C.diffs == {1: {("a", "e"): 1}} and C.column("c") == {}
    assert ChainComplex(Q, {0: ["a"], 1: ["c"]}, {1: {"c": {"a": 0}}}).d == {}


def test_homogeneity_is_tested_once_per_degree_pair(monkeypatch):
    calls = []

    def divides(a, b):
        calls.append((a, b))
        return all(x <= y for x, y in zip(a, b))

    T = taylor_complex(minimalize(K6_EDGES[:8]), Q)
    monkeypatch.setattr(gradedcomplex, "divides", divides)
    GradedFreeComplex(T.num_vars, Q, T.labels, T.d)
    pairs = {(T.degree_of[r], T.degree_of[c])
             for cols in T.d.values() for c, col in cols.items() for r in col}
    assert sorted(calls) == sorted(pairs)


def test_complexes_share_no_dict_with_their_callers():
    """The constructors copy the columns they are handed and `column`
    returns a copy: writing to either afterwards changes neither the
    complex, nor its JSON, nor its d o d check."""
    F = FieldSpec(3)
    labels = {0: [("a", (1, 0)), ("b", (0, 1))], 1: [("c", (1, 1))]}
    d = {1: {"c": {"a": 1, "b": 2}}}
    C = GradedFreeComplex(2, F, labels, d)
    X = ChainComplex(F, {0: ["a", "b"], 1: ["c"]}, d)
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), F))
    complexes = (C, X, M)
    for Y in complexes:
        Y.check_complex()
    before = [C.to_json(), M.to_json()]
    stores = [json.dumps(list(Y.diffs[1].items())) for Y in complexes]
    d[1]["c"]["a"] = 2
    d[1]["c"]["x"] = 1
    d[1]["e"] = {"a": 1}
    d[2] = {"g": {"c": 1}}
    for Y, b in ((C, "c"), (M, M.labels[1][0][0])):
        col = Y.column(b)
        col[next(iter(col))] = 0
        col["x"] = 1
    for Y in (bar_reduce(M), strand(M, M.labels[1][0][1])):  # built from M
        col = next(iter(Y.d[1].values()))
        col[next(iter(col))] = 0
    assert [C.to_json(), M.to_json()] == before
    assert [json.dumps(list(Y.diffs[1].items())) for Y in complexes] == stores
    assert C.d == X.d == {1: {"c": {"a": 1, "b": 2}}}
    for Y in complexes:  # d o d = 0 still, on the complexes' own columns
        Y.check_complex()


def test_scalars_are_stored_reduced_into_the_field():
    F3 = FieldSpec(3)
    # 3 = 0 in GF(3): the unit-degree entry is dropped, so minimize has no
    # zero to invert and the complex is minimal
    unit = {0: [("a", (1,))], 1: [("b", (1,))]}
    C = GradedFreeComplex(1, F3, unit, {1: {"b": {"a": 3}}})
    assert C.diffs == {} and C.is_minimal()
    assert minimize(C).ranks() == (1, 1)
    # nor does incidence_poset read the vanishing entry as a relation
    labels = {0: [("a", (1, 0)), ("b", (0, 1))], 1: [("c", (1, 1))]}
    C = GradedFreeComplex(2, F3, labels, {1: {"c": {"a": 4, "b": -3}}})
    assert C.diffs == {1: {("a", "c"): 1}}
    P = incidence_poset(C)
    assert P.less("a", "c") and not P.less("b", "c")
    # values are stored as the field gives them; reduced ones as they are
    half = Fraction(1, 2)
    d = {"c": {"a": half, "b": Fraction(4, 2)}}
    assert GradedFreeComplex(2, F3, labels, {1: d}).d[1] == {
        "c": {"a": 2, "b": 2}}
    X = GradedFreeComplex(2, Q, labels, {1: d}).d[1]["c"]
    assert X["a"] is half and type(X["b"]) is int
    assert GradedFreeComplex(2, Q, labels, {1: {"c": {"a": True}}}).d[
        1] == {"c": {"a": 1}}
    # a value outside the field raises InvalidField, before check_complex
    for bad in (1.0, "x", None):
        with pytest.raises(InvalidField):
            GradedFreeComplex(2, Q, labels, {1: {"c": {"a": bad}}})


def unit_filled_in(F):
    """The pivot (r0, c0) fills in c2 at row r1, a unit; in row r1 it sits
    at a lower position than the unit at c1, although c1 holds its unit
    first in dict order.  So r1 is pivoted on c2, and c1 survives."""
    labels = {0: [("r0", (1,)), ("r1", (1,))],
              1: [("c0", (1,)), ("c2", (1,)), ("c1", (1,))]}
    d = {1: {"c0": {"r0": 1, "r1": 1}, "c2": {"r0": 1}, "c1": {"r1": 1}}}
    return GradedFreeComplex(1, F, labels, d)


@pytest.mark.parametrize("F", [FieldSpec(p) for p in (0, 2, 3)])
def test_minimize_pivots_on_a_unit_made_by_fill_in(F):
    M = minimize(unit_filled_in(F))
    assert M.labels == {1: [("c1", (1,))]} and M.d == {}
    assert_same_complex(M, minimize_reference(unit_filled_in(F)))


def test_minimize_koszul_unchanged():
    assert minimize(koszul_xy()).ranks() == (2, 1)


def assert_same_complex(M, R):
    """Equal labels, and equal column stores column by column and row by
    row in dict order, each scalar of the same type (so over Q an integral
    value is an int in both)."""
    def entries(X, n):
        return [(c, r, v, type(v)) for c, col in X.d[n].items()
                for r, v in col.items()]
    assert M.labels == R.labels
    assert list(M.d) == list(R.d)
    for n in R.d:
        assert entries(M, n) == entries(R, n)


def test_minimize_matches_linear_scan_reference():
    # of these inputs only rp2, m and K6-10 have outputs that depend on
    # the unit entries a pivot creates
    ideals = ([minimalize(RP2_GENS), minimalize(M_GENS),
               minimalize(K6_EDGES[:10])] + random_corpus(100))
    for I in ideals:
        for F in FIELDS:
            M = minimize(taylor_complex(I, F))
            R = minimize_reference(taylor_complex(I, F))
            assert_same_complex(M, R)
            assert M.to_json() == R.to_json()
            again = minimize(M)
            assert_same_complex(again, M)
            assert again.to_json() == M.to_json()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4)
                .map(tuple), min_size=1, max_size=7),
       st.integers(1, 4), st.sampled_from(FIELDS))
def test_minimize_matches_reference_on_random_ideals(gens, m, F):
    """At most 7 generators in at most 4 variables, exponents 0..3."""
    I = minimalize([g[:m] for g in gens])
    assert_same_complex(minimize(taylor_complex(I, F)),
                        minimize_reference(taylor_complex(I, F)))


FILLED_A = (1, 1)


def pivots_filled_in(F):
    """Row r0 pivots on c0, whose rest {r1: 2, s: 1} fills c1 and e in the
    non-unit row s; r1 then pivots on c1 and r2 on c2, which c1 filled at
    s and t.  So the kept column k is reduced through c2 and c1, pivot
    columns with non-unit fill-in from earlier pivots, and e, which d_2
    cancels as the pivot row of g, carries non-unit fill-in too.  c0 also
    holds the later pivot row r1 when it pivots."""
    a = FILLED_A
    labels = {0: [("r0", a), ("r1", a), ("r2", a), ("s", (1, 0)),
                  ("t", (0, 1))],
              1: [("c0", a), ("c1", a), ("c2", a), ("k", a), ("e", a)],
              2: [("g", a)]}
    d = {1: {"c0": {"r0": 1, "r1": 2, "s": 1},
             "c1": {"r0": 1, "r1": 1, "t": 1},
             "c2": {"r1": 1, "r2": 1}, "k": {"r2": 1, "s": 1},
             "e": {"r0": 1, "r1": 1, "t": 1}},
         2: {"g": {"e": 1, "c1": -1}}}
    return GradedFreeComplex(2, F, labels, d)


@pytest.mark.parametrize("F", FIELDS)
def test_minimize_reduces_kept_columns_through_filled_pivots(F):
    C = pivots_filled_in(F)
    M = minimize(C)
    # k = r2 + s - (t - s) over Q: c2 = r2 + t - s once it pivots
    assert M.labels == {0: [("s", (1, 0)), ("t", (0, 1))],
                        1: [("k", FILLED_A)]}
    k = {"s": F(2), "t": F(-1)} if F.p != 2 else {"t": 1}  # 2 = 0 in GF(2)
    assert M.d == {1: {"k": k}}
    assert_same_complex(M, minimize_reference(C))


@pytest.mark.parametrize("F", FIELDS)
def test_minimize_reduces_a_pivot_column_only_up_to_its_own_row(F):
    """k1 comes first in the store, so c1 (row r1) is reduced before c0
    (row r0), whose rest {r1: 1, s: 1} holds the later pivot row r1.
    Reduced past r0 through c1 that rest would vanish, and k2 would keep
    its own order s, t; the sweep cancels s in k2 and adds it back after
    t."""
    a = (1, 1)
    labels = {0: [("r0", a), ("r1", a), ("s", (1, 0)), ("t", (0, 1))],
              1: [("c0", a), ("c1", a), ("k1", a), ("k2", a)]}
    d = {1: {"k1": {"r1": 1}, "c0": {"r0": 1, "r1": 1, "s": 1},
             "c1": {"r1": 1, "s": 1}, "k2": {"r0": 1, "s": 1, "t": 1}}}
    C = GradedFreeComplex(2, F, labels, d)
    M = minimize(C)
    assert M.d == {1: {"k1": {"s": F(-1)}, "k2": {"t": 1, "s": 1}}}
    assert list(M.d[1]["k2"]) == ["t", "s"]
    assert_same_complex(M, minimize_reference(C))


K5_EDGES = [tuple(int(v in e) for v in range(5))
            for e in combinations(range(5), 2)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(K5_EDGES), min_size=4, max_size=6,
                unique=True), st.sampled_from(FIELDS), st.data())
def test_minimize_matches_reference_after_a_change_of_basis(gens, F, data):
    """Taylor complexes of 4 to 6 edges of K5 (many subsets share an lcm,
    so pivot columns hold later pivot rows) after homogeneous changes of
    basis b <- b + lam * b2 (deg b2 | deg b, b2 != b): column b of d_n
    gains lam times column b2, and row b2 of d_{n+1} loses lam times row
    b.  The unit blocks then hold scalars other than +-1."""
    T = taylor_complex(minimalize(gens), F)
    deg = T.degree_of
    d = {n: {c: dict(col) for c, col in cols.items()}
         for n, cols in T.d.items()}
    lams = st.integers(-3, 3).filter(lambda x: F(x))
    for _ in range(data.draw(st.integers(0, 20))):
        n = data.draw(st.sampled_from(sorted(T.basis)))
        b = data.draw(st.sampled_from(T.basis[n]))
        under = [i for i in T.basis[n] if i != b and divides(deg[i], deg[b])]
        if not under:
            continue
        b2, lam = data.draw(st.sampled_from(under)), F(data.draw(lams))
        if n in d:
            col = d[n][b]
            for r, v in d[n][b2].items():
                col[r] = F.add(col.get(r, 0), F.mul(lam, v))
        for col in d.get(n + 1, {}).values():
            if b in col:
                col[b2] = F.sub(col.get(b2, 0), F.mul(lam, col[b]))
    C = GradedFreeComplex(T.num_vars, F, T.labels, d)
    assert_same_complex(minimize(C), minimize_reference(C))
    for X in (T, C):
        assert unit_pivots(X) == row_sweep_pivots(X)


def unit_pivots(C):
    """minimize's phase 1 on C: {n: {r0: c0}}."""
    pos = {i: k for labs in C.labels.values() for k, (i, _) in enumerate(labs)}
    return gradedcomplex._unit_pivots(C, pos)


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_column_sweep_finds_the_row_sweeps_pivots(p):
    """Both sweeps add only earlier columns to later ones and end with
    distinct top rows, so they pair the same rows and columns: on K6-10,
    K6-13, the corpus and the two complexes whose pivots come from
    fill-in (the K5 subsets, with and without changes of basis, are in
    test_minimize_matches_reference_after_a_change_of_basis)."""
    F = FieldSpec(p)
    complexes = [unit_filled_in(F), pivots_filled_in(F)] + [
        taylor_complex(I, F) for I in [minimalize(K6_EDGES[:10]),
                                       minimalize(K6_EDGES[:13])]
        + random_corpus(100)]
    for C in complexes:
        assert unit_pivots(C) == row_sweep_pivots(C)
    assert sum(map(len, unit_pivots(complexes[3]).values())) == 4047


def dead_row_filled_in(F):
    """c0 pivots on r0 and keeps the rest {r1: 1}; then c1, whose unit
    part is r1 alone, pivots on r1, and r1 is dead.  c2 = r0 + r2 is
    reduced by c0, whose rest brings the dead r1 back; dropped, it leaves
    r2 alone, so r2 dies on c2 too.  c3 meets r2 only as a dead row and
    pivots on r3, and the kept column k is r1 + r2 + s with both dead."""
    a = FILLED_A
    labels = {0: [("r0", a), ("r1", a), ("r2", a), ("r3", a), ("s", (1, 0))],
              1: [("c0", a), ("c1", a), ("c2", a), ("c3", a), ("k", a)]}
    d = {1: {"c0": {"r0": 1, "r1": 1}, "c1": {"r1": 1, "s": 1},
             "c2": {"r0": 1, "r2": 1}, "c3": {"r2": 1, "r3": 1},
             "k": {"r1": 1, "r2": 1, "s": 1}}}
    return GradedFreeComplex(2, F, labels, d)


@pytest.mark.parametrize("F", FIELDS)
def test_unit_pivots_drop_a_dead_row_that_fill_in_brings_back(F):
    C = dead_row_filled_in(F)
    assert unit_pivots(C) == row_sweep_pivots(C) == {
        1: {"r0": "c0", "r1": "c1", "r2": "c2", "r3": "c3"}}
    M = minimize(C)
    # k - c1 - c2 over Q, with c2 = r2 + s once cleared of r0 and r1
    assert M.labels == {0: [("s", (1, 0))], 1: [("k", FILLED_A)]}
    assert M.d == {1: {"k": {"s": F(-1)}}}
    assert_same_complex(M, minimize_reference(C))


def test_unit_pivots_retire_dead_rows(monkeypatch):
    """On K6-13 over GF(3) most pivot columns clear only their own row, so
    their rows leave every later unit part when read: 18,794 heap pops and
    9,273 row_subs, where reducing each column by them one row at a time
    takes 36,251 pops and 9,522 row_subs."""
    F = FieldSpec(3)
    C = taylor_complex(minimalize(K6_EDGES[:13]), F)
    calls = {"heappop": 0, "row_sub": 0}
    heappop, row_sub = gradedcomplex.heappop, FieldSpec.row_sub

    def pop(heap):
        calls["heappop"] += 1
        return heappop(heap)

    def sub(self, x, f, y):
        calls["row_sub"] += 1
        return row_sub(self, x, f, y)

    monkeypatch.setattr(gradedcomplex, "heappop", pop)
    monkeypatch.setattr(FieldSpec, "row_sub", sub)
    assert sum(map(len, unit_pivots(C).values())) == 4047
    assert calls["heappop"] <= 18794 and calls["row_sub"] <= 9273


def test_minimize_leaves_no_reference_cycle():
    """With the cyclic collector off, the input and the output are freed as
    soon as the caller drops them (K6-10 reduces pivot columns on demand)."""
    gc.disable()
    try:
        for p in (0, 2, 3):
            T = taylor_complex(minimalize(K6_EDGES[:10]), FieldSpec(p))
            M = minimize(T)
            refs = [weakref.ref(T), weakref.ref(M)]
            del T, M
            assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


# SHA-256 of the sorted-key, compact to_json of the minimal complexes
MINIMAL_SHA256 = {
    (13, 2): "884da1e16bd4f5cc3b43cb8ea974df18984bded8bc0b0c11ef4db9374e94258f",
    (13, 3): "1a9de3f7ee62e14062ef1597f27041bcb7b04c0a500b11a7912c250ac9baa07c",
    (13, 0): "1cd9547f074a910aafa0a716685b5f5100567c8b91d8b48c3caf92bf7ad44ebe",
    (14, 2): "1ba901d0999a2c75fa0f71a20942ff2b33f01cf32f14c783dac56e4a110a981a",
}


@pytest.mark.parametrize("edges,p", sorted(MINIMAL_SHA256))
def test_minimize_pins_k6_complexes(edges, p):
    M = minimize(taylor_complex(minimalize(K6_EDGES[:edges]), FieldSpec(p)))
    text = json.dumps(M.to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        MINIMAL_SHA256[(edges, p)]


# SHA-256 of the sorted-key, compact to_json of each complex minimize
# builds from a Taylor complex with a unit entry, over the corpus, rp2, m
# and K6-10 and p in {0, 2, 3, 5}, in that order; recorded before minimize
# returned a minimal input as it is
NEW_MINIMAL_SHA256 = ("17ee5feb1ed3a12a7e7bbd866486da7d"
                      "6a55ee4648779b58e64f592067ae5757")


def test_minimize_returns_its_input_exactly_when_minimal():
    """minimize(C) is C itself when C has no unit entry (320 of the 412
    Taylor complexes here), else a new complex with the to_json it had
    before; minimize of either result is that result."""
    h, seen = hashlib.sha256(), set()
    for I in random_corpus(100) + [minimalize(RP2_GENS), minimalize(M_GENS),
                                   minimalize(K6_EDGES[:10])]:
        for F in FIELDS:
            T = taylor_complex(I, F)
            M = minimize(T)
            seen.add(T.is_minimal())
            assert (M is T) == T.is_minimal()
            if M is not T:
                h.update(json.dumps(M.to_json(), sort_keys=True,
                                    separators=(",", ":")).encode())
            assert minimize(M) is M
    assert seen == {True, False}
    assert h.hexdigest() == NEW_MINIMAL_SHA256


def test_minimize_checks_the_complex_it_builds(monkeypatch):
    """A complex with a unit entry is not returned as it is: with phase 1
    made to find no pivot, phase 2 keeps every column, unit entries
    included, and the result's check raises VerificationError."""
    T = taylor_complex(minimalize(SQUAREFREE3), Q)
    assert not T.is_minimal()
    monkeypatch.setattr(gradedcomplex, "_unit_pivots",
                        lambda C, pos: dict.fromkeys(C.d, {}))
    with pytest.raises(VerificationError, match="left a unit entry"):
        minimize(T)


def test_minimize_squarefree_matches_oracle():
    I = minimalize(SQUAREFREE3)
    M = minimize(taylor_complex(I, Q))
    assert M.ranks() == (3, 2)
    assert betti_table(M).entries == betti_numbers(SQUAREFREE3, 0)


def test_minimize_preserves_strand_homology():
    I = minimalize([(2, 1, 0), (0, 1, 2), (1, 0, 1), (2, 0, 2)])
    T = taylor_complex(I, Q)
    M = minimize(T)
    from posetres import join_closure
    for alpha in sorted(join_closure(I.generators)):
        assert strand(T, alpha).homology_ranks() == \
            strand(M, alpha).homology_ranks()


def test_bar_reduce_koszul():
    B = bar_reduce(koszul_xy())
    A = B.matrix(1)
    vals = sorted(A.entries.values())
    assert vals == [Q(-1), Q(1)]


def test_strand_koszul():
    T = koszul_xy()
    S = strand(T, (1, 0))
    assert S.ranks() == (1,)
    S2 = strand(T, (1, 1))
    assert S2.ranks() == (2, 1)
    h = S2.homology_ranks()
    assert h[0] == 1 and h.get(1, 0) == 0


def test_betti_table_requires_minimal():
    I = minimalize(SQUAREFREE3)
    T = taylor_complex(I, Q)
    with pytest.raises(NotMinimal):
        betti_table(T)
    tab = betti_table(minimize(T))
    assert tab.totals() == (3, 2)
    assert tab.entries[(0, (1, 1, 0))] == 1


def test_is_resolution_taylor():
    ok, report = is_resolution(taylor_complex(minimalize(SQUAREFREE3), Q))
    assert ok
    assert all(h.get(0) == 1 for h in report.values())


@pytest.mark.parametrize("p", [0, 2, 3])
def test_is_resolution_checks_labels_off_the_degree_zero_lattice(p):
    """S f -> S e with deg e = x, deg f = xy and d f = y e: xy is no join of
    the degree-0 labels, yet its strand, the unit e <- f, has no homology."""
    F = FieldSpec(p)
    C = GradedFreeComplex(2, F, {0: [("e", (1, 0))], 1: [("f", (1, 1))]},
                          {1: {"f": {"e": F(1)}}})
    ok, report = is_resolution(C)
    assert not ok and report[(1, 1)] == {}
    assert report[(1, 0)] == {0: 1}


def _with_unit_pair(C, beta):
    """C with a cancelling pair e* <- f* of degree beta in homological
    degrees 1 and 2 (beta off the join lattice of C's degree-0 labels
    widens is_resolution's lattice; the pair adds no homology)."""
    labels = {n: list(labs) for n, labs in C.labels.items()}
    labels.setdefault(1, []).append(("e*", beta))
    labels.setdefault(2, []).append(("f*", beta))
    d = {n: {c: dict(col) for c, col in cols.items()}
         for n, cols in C.d.items()}
    d.setdefault(2, {})["f*"] = {"e*": C.field.one}
    return GradedFreeComplex(C.num_vars, C.field, labels, d)


def _truncated(C):
    """C without its top homological degree: no longer a resolution, so
    its strands above a dropped label have homology in degree top - 1."""
    top = C.top
    return GradedFreeComplex(
        C.num_vars, C.field,
        {n: labs for n, labs in C.labels.items() if n < top},
        {n: cols for n, cols in C.d.items() if n < top})


def _strand_cases(F):
    """(complex, whether it is a resolution) for the Taylor and minimal
    complexes of the corpus and their truncations, the K6-10 and K6-13
    resolutions with their incidence posets' conic complexes, and three
    complexes with a label off the join lattice of the degree-0 labels."""
    from posetres import conic_complex, homogenize
    cases = []
    for I in random_corpus(100):
        T = taylor_complex(I, F)
        M = minimize(T)
        cases += [(T, True), (M, True),
                  *((_truncated(X), False) for X in (T, M) if X.top)]
    for k in (10, 13):
        M = minimize(taylor_complex(minimalize(K6_EDGES[:k]), F))
        P = incidence_poset(M)
        cases += [(_truncated(M), False), (M, True),
                  (conic_complex(P, F), True),
                  (homogenize(conic_complex(P, F)), True)]
    T = taylor_complex(minimalize(SQUAREFREE3), F)
    unit = GradedFreeComplex(2, F, {0: [("e", (1, 0))], 1: [("f", (1, 1))]},
                             {1: {"f": {"e": F(1)}}})
    return cases + [(_with_unit_pair(M, (2, 1, 0, 0, 0, 0)), True),
                    (_with_unit_pair(T, (2, 1, 1)), True), (unit, False)]


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_is_resolution_report_matches_reference_strands(p):
    """The report equals the homology of the strand that scanned every id
    and entry (tests/oracle.py), and so does `strand`, on the resolutions,
    conic complexes, truncations and widened-lattice complexes of
    _strand_cases."""
    widened = 0
    for C, exact in _strand_cases(FieldSpec(p)):
        ok, report = is_resolution(C)
        assert list(report) == sorted(report)
        assert ok == exact == all(h == {0: 1} for h in report.values())
        deg0 = {C.degree_of[i] for i in C.basis[0]}
        widened += not join_closure(deg0).issuperset(C.degree_of.values())
        for alpha, h in report.items():
            S, R = strand(C, alpha), strand_reference(C, alpha)
            assert (S.basis, S.d) == (R.basis, R.d)
            assert h == R.homology_ranks()
    assert widened == 3


def test_is_resolution_reads_strands_in_place(monkeypatch):
    """No strand is built as a complex and no degree is tested with
    `divides`: membership comes from the coordinate masks."""
    F = FieldSpec(3)
    cases = [C for C, _ in _strand_cases(F)[-11:]]
    expected = [is_resolution(C) for C in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("is_resolution called a forbidden helper")

    monkeypatch.setattr(ChainComplex, "restrict", forbidden)
    monkeypatch.setattr(gradedcomplex, "divides", forbidden)
    monkeypatch.setattr(monomials, "divides", forbidden)
    assert [is_resolution(C) for C in cases] == expected


def test_is_resolution_needs_a_degree_of():
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    K = incidence_poset(M).order_complex()
    for X in (bar_reduce(M), strand(M, M.labels[1][0][1]), K):
        with pytest.raises(ShapeError, match="no degree-0 basis with a degree"):
            is_resolution(X)


def test_no_zero_bar_columns_after_minimize():
    I = minimalize([(2, 1, 0), (0, 1, 2), (1, 0, 1)])
    M = minimize(taylor_complex(I, Q))
    for n in range(1, M.top + 1):
        cols_hit = {c for (_, c) in M.diffs.get(n, {})}
        assert cols_hit == {b for b, _ in M.labels.get(n, [])}


def test_json_roundtrip():
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    R = GradedFreeComplex.from_json(M.to_json())
    assert R.labels == M.labels
    assert R.diffs == M.diffs


def test_json_rejects_bad_exponent():
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    obj = M.to_json()
    obj["differentials"][0][0]["exponent"] = [9, 9, 9]
    with pytest.raises(ShapeError):
        GradedFreeComplex.from_json(obj)


def test_json_rejects_a_non_complex():
    with open(FIXTURES / "two_res_a.json") as fh:
        obj = json.load(fh)
    e = obj["differentials"][1][0]
    e["scalar"] = -e["scalar"]
    with pytest.raises(NotAComplex, match=r"^d_1 o d_2 != 0"):
        GradedFreeComplex.from_json(obj)


def test_json_rejects_malformed_structure():
    with pytest.raises(ParseError):
        GradedFreeComplex.from_json({})
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    obj = M.to_json()
    del obj["basis"][0][0]["degree"]
    with pytest.raises(ParseError):
        GradedFreeComplex.from_json(obj)
    # num_vars is checked even when the basis is empty
    for bad in ("x", -1, True, 1.5):
        with pytest.raises(ShapeError, match="integers >= 0"):
            GradedFreeComplex.from_json({"num_vars": bad, "basis": []})


def test_json_rejects_degree_entries_that_are_not_naturals():
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    for bad in (-1, 1.5, True, "1", [1]):
        obj = M.to_json()
        obj["basis"][0][0]["degree"][0] = bad
        with pytest.raises(ShapeError, match="integers >= 0"):
            GradedFreeComplex.from_json(obj)


_VALUE = json_values(("num_vars", "characteristic", "basis", "differentials",
                      "id", "degree", "row_id", "col_id", "scalar",
                      "exponent"))
_ID = st.sampled_from("abc") | _VALUE
_DEGREE = st.lists(st.integers(-1, 2), max_size=2) | _VALUE
_ENTRY = st.fixed_dictionaries(
    {"row_id": _ID, "col_id": _ID, "scalar": _VALUE},
    optional={"exponent": _DEGREE})


@settings(max_examples=300, deadline=None)
@example({"characteristic": float("inf"), "num_vars": 0, "basis": []})
@given(st.one_of(_VALUE, st.fixed_dictionaries({
    "num_vars": st.integers(0, 2) | _VALUE,
    "basis": st.lists(st.lists(st.fixed_dictionaries(
        {"id": _ID, "degree": _DEGREE}), max_size=3), max_size=3),
    "differentials": st.lists(st.lists(_ENTRY, max_size=3), max_size=2)},
    optional={"characteristic": st.sampled_from([0, 2, 3]) | _VALUE})))
def test_from_json_raises_only_posetres_errors(obj):
    try:
        GradedFreeComplex.from_json(obj)
    except PosetresError:
        pass


def test_json_rejects_bad_scalar():
    M = minimize(taylor_complex(minimalize(SQUAREFREE3), Q))
    obj = M.to_json()
    obj["characteristic"] = 3
    for bad in ("1/3", "abc", 2.5):
        obj["differentials"][0][0]["scalar"] = bad
        with pytest.raises(PosetresError):
            GradedFreeComplex.from_json(obj)


def degree_zero_complexes():
    """A bar complex from bar_reduce, an augmented conic complex and an
    order complex, each with its degree-0 ids and field."""
    from posetres import Poset, conic_complex
    B = bar_reduce(minimize(taylor_complex(minimalize(SQUAREFREE3), Q)))
    P = Poset(["a", "b", "t"], [("a", "t"), ("b", "t")],
              deg={"a": (1, 0), "b": (0, 1), "t": (1, 1)})
    C = conic_complex(P, Q, augmented=True)
    K = P.order_complex()
    return [(B, Q), (C, Q), (K, FieldSpec(3))]


def test_chain_helpers_read_degree_zero_as_the_augmentation():
    for X, F in degree_zero_complexes():
        ids = X.basis[0]
        assert X.boundary(0, {ids[0]: 1}, F) == {(): F(1)}
        assert X.boundary(0, {ids[0]: 1, ids[1]: -1}, F) == {}
        pre = X.preimage(0, {(): 1}, F=F)
        assert pre and X.boundary(0, pre, F) == {(): F(1)}
        ker = X.kernel(0, F=F)
        assert len(ker) == len(ids) - 1
        assert all(z and not X.boundary(0, z, F) for z in ker)


def test_boundary_of_a_preimage_is_the_chain():
    for X, F in degree_zero_complexes():
        for n in range(X.top + 1):
            rows = X._rows(n)
            targets = [{r: 1} for r in rows] + [dict.fromkeys(rows, 1)]
            targets += [X.boundary(n, {c: 1}, F) for c in X.basis[n]]
            found = 0
            for x in targets:
                pre = X.preimage(n, x, F=F)
                if pre is not None:
                    found += 1
                    assert X.boundary(n, pre, F) == \
                        {r: F(v) for r, v in x.items() if F(v)}
            assert found >= len(X.basis[n])


def test_chain_helpers_reject_ids_outside_the_basis():
    from posetres.errors import NotFound
    for X, F in degree_zero_complexes():
        wrong = X.basis[1][0]  # a degree-1 id offered in degree 0
        for call in (lambda: X.boundary(0, {wrong: 1}, F),
                     lambda: X.boundary(1, {"nope": 0}, F),
                     lambda: X.preimage(1, {wrong: 1}, F=F),
                     lambda: X.preimage(0, {"nope": 1}, F=F)):
            with pytest.raises(NotFound):
                call()
    B = degree_zero_complexes()[0][0]
    with pytest.raises(NotFound):  # () is the augmentation row, no column
        B.boundary(0, {(): 1})


def test_kernel_and_preimage_reject_cols_outside_the_degree():
    # Such an id was read as a zero column: C.kernel(1, cols=["bogus"])
    # gave [{"bogus": 1}], a "cycle" that is no chain of degree 1.
    from posetres.errors import NotFound
    for X, F in degree_zero_complexes():
        for wrong in ("bogus", X.basis[0][0]):  # a degree-0 id in degree 1
            for call in (lambda: X.kernel(1, cols=[wrong], F=F),
                         lambda: X.preimage(1, {}, cols=[wrong], F=F),
                         lambda: X.kernel(1, cols=[*X.basis[1], wrong], F=F)):
                with pytest.raises(NotFound, match=re.escape(repr(wrong))):
                    call()
        assert X.kernel(1, cols=X.basis[1][:1], F=F) == []
