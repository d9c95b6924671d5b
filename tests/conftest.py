import json
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from posetres import FieldSpec, GradedFreeComplex, Poset, minimalize

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "posetres" / "fixtures"

RP2_GENS = [
    (1, 1, 1, 0, 0, 0), (1, 0, 1, 0, 1, 0), (1, 0, 0, 1, 1, 0),
    (0, 1, 1, 1, 0, 0), (0, 1, 0, 1, 1, 0), (1, 1, 0, 0, 0, 1),
    (1, 0, 0, 1, 0, 1), (0, 1, 0, 0, 1, 1), (0, 0, 1, 1, 0, 1),
    (0, 0, 1, 0, 1, 1)]

M_GENS = [
    (0, 1, 1, 1, 0, 0, 0), (0, 1, 0, 0, 1, 1, 0), (0, 1, 0, 1, 0, 1, 1),
    (1, 1, 1, 0, 1, 0, 1), (1, 0, 1, 1, 1, 1, 1)]

SQUAREFREE3 = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]


def columns(entries):
    """The column store {n: {col: {row: v}}} of {n: {(row, col): v}}."""
    out = {}
    for n, mat in entries.items():
        cols = out[n] = {}
        for (r, c), v in mat.items():
            cols.setdefault(c, {})[r] = v
    return out


def load_fixture_complex(name, characteristic):
    with open(FIXTURES / name) as fh:
        obj = json.load(fh)
    obj["characteristic"] = characteristic
    return GradedFreeComplex.from_json(obj)


@pytest.fixture(scope="session")
def rp2_ideal():
    return minimalize(RP2_GENS)


@pytest.fixture(scope="session")
def m_ideal():
    return minimalize(M_GENS)


@pytest.fixture(scope="session")
def gf2():
    return FieldSpec(2)


@pytest.fixture(scope="session")
def rat():
    return FieldSpec(0)


def random_corpus(count=100, seed=20250823):
    """Deterministic corpus of small random monomial ideals."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(2, 5)
        k = rng.randint(1, 6)
        gens = set()
        while len(gens) < k:
            g = tuple(rng.randint(0, 3) for _ in range(m))
            if any(g):
                gens.add(g)
        out.append(minimalize(sorted(gens)))
    return out


def theta_poset(apexes=2):
    """The cone on a theta graph: two points, three edges above both and
    `apexes` elements above the edges, whose lower filters are theta graphs
    (a conic component of dimension 2)."""
    edges = ["e1", "e2", "e3"]
    tops = [f"t{k}" for k in range(1, apexes + 1)]
    return Poset(["p", "q"] + edges + tops,
                 [(v, e) for e in edges for v in "pq"]
                 + [(e, t) for t in tops for e in edges])


def random_graded_posets(count=40, seed=20261019):
    """Deterministic random graded posets: 2-4 ranks of 2-4 elements, each
    element above at least 2 of the rank below, listed in shuffled order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ranks = [[(r, k) for k in range(rng.randint(2, 4))]
                 for r in range(rng.randint(2, 4))]
        covers = [(lo, e) for below, rank in zip(ranks, ranks[1:])
                  for e in rank
                  for lo in rng.sample(below, rng.randint(2, len(below)))]
        elements = [e for rank in ranks for e in rank]
        rng.shuffle(elements)
        out.append(Poset(elements, covers))
    return out


@pytest.fixture(scope="session")
def corpus():
    return random_corpus()


def json_values(keys=("x",)):
    """JSON-shaped values: None, bools, ints of any size (with primes below
    and above 2**64 among them), floats and short strings, nested in lists
    and in dicts keyed by `keys`."""
    ints = (st.integers(-2, 7) | st.integers()
            | st.sampled_from([2**61 - 1, 2**64 - 59, 2**89 - 1]))
    leaves = (st.none() | st.booleans() | ints | st.floats()
              | st.text("abt/1", max_size=3))
    return st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(keys), inner, max_size=3),
        max_leaves=10)
