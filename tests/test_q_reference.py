"""Differential test of the Q scalar representation.

`FractionField` is Q with every scalar a `Fraction`, as `FieldSpec(0)` once
stored them.  Integral values are `int` in `FieldSpec(0)`; since a reduced
row echelon form is unique, every pipeline output must serialize the same
either way.
"""

from fractions import Fraction

import pytest

from posetres import (FieldSpec, hcw_support, make_minimal_support_basis,
                      minimalize, minimize, taylor_complex)
from conftest import M_GENS, RP2_GENS, random_corpus


class FractionField(FieldSpec):
    """Q with every scalar a Fraction, integral or not."""

    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, x):
        return Fraction(super().__call__(x))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def row_sub(self, x, f, y):
        for j, b in y.items():
            v = self.sub(x.get(j, self.zero), self.mul(f, b))
            if v:
                x[j] = v
            else:
                x.pop(j, None)


def _pipeline(I, F):
    M = minimize(taylor_complex(I, F))
    M2, log = make_minimal_support_basis(M)
    Q, _, H = hcw_support(I, F)
    return M, log, Q, H


def _no_integral_fraction(values):
    return not any(isinstance(v, Fraction) and v.denominator == 1
                   for v in values)


IDEALS = {"rp2": minimalize(RP2_GENS), "m": minimalize(M_GENS)}
IDEALS.update((f"c{k:03d}", I) for k, I in enumerate(random_corpus(100)))


@pytest.mark.parametrize("name", IDEALS)
def test_int_scalars_match_fraction_reference(name):
    I = IDEALS[name]
    M, log, Q, H = _pipeline(I, FieldSpec(0))
    rM, rlog, rQ, rH = _pipeline(I, FractionField(0))
    assert M.to_json() == rM.to_json()
    assert log.to_json() == rlog.to_json()
    assert Q.to_json() == rQ.to_json()
    assert H.to_json() == rH.to_json()
    for C in (M, H):
        assert _no_integral_fraction(
            v for mat in C.diffs.values() for v in mat.values())
    assert _no_integral_fraction(
        t["scalar"] for s in log.steps for t in s["expression"])


def test_reference_field_keeps_integral_fractions():
    # The reference really is the old representation, so the test above
    # compares two different ones.
    F = FractionField(0)
    M = minimize(taylor_complex(minimalize(RP2_GENS), F))
    assert not _no_integral_fraction(
        v for mat in M.diffs.values() for v in mat.values())
