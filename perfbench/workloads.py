"""The benchmark workloads: how each makes its inputs, runs one item, and
checks the item's output.

An item is one (ideal, field) pair.  Every workload is a closed loop with one
caller: a pass runs its items one after another, each starting when the
previous one returns.  Items call posetres through module attributes looked
up at call time, so the tracer's rebinding reaches them.

Output checks:
  * resolve-k6 and hcw-corpus compare the multigraded Betti table with the
    independent oracle in tests/oracle.py, for every seed;
  * every workload compares SHA-256 digests of its canonical outputs with
    goldens.json when its inputs are the recorded ones: always for
    resolve-k6 and verify-paper, whose inputs are fixed, and for hcw-corpus
    with the default corpus seed.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"

DEFAULT_CORPUS_SEED = 20250823
CORPUS_SIZE = 100
FIELD_NAMES = {0: "q", 2: "gf2", 3: "gf3"}


class SetupError(Exception):
    """The checkout lacks something the benchmark needs."""


def import_posetres():
    """Import posetres from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import posetres
        import posetres.cli  # noqa: F401  (loads every module)
    except ImportError as exc:
        raise SetupError(f"cannot import posetres from {src}: {exc}")
    if src not in Path(posetres.__file__).resolve().parents:
        raise SetupError(f"posetres was imported from {posetres.__file__}")
    return posetres


def import_oracle():
    path = ROOT / "tests" / "oracle.py"
    if not path.is_file():
        raise SetupError(f"missing Betti oracle {path}")
    spec = importlib.util.spec_from_file_location("posetres_bench_oracle",
                                                  path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_goldens():
    if not GOLDENS.is_file():
        raise SetupError(f"missing {GOLDENS}")
    with open(GOLDENS) as fh:
        return json.load(fh)


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def k6_edges(count):
    """The first `count` edges of K6, in lexicographic order, as squarefree
    exponent vectors in six variables."""
    edges = list(combinations(range(6), 2))[:count]
    return [tuple(int(v in e) for v in range(6)) for e in edges]


def random_corpus_generators(count=CORPUS_SIZE, seed=DEFAULT_CORPUS_SEED):
    """Generator sets of the random ideal corpus, drawn with the recipe of
    tests/conftest.py::random_corpus: 2-5 variables, 1-6 generators,
    exponents 0-3."""
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
        out.append(sorted(gens))
    return out


@dataclass
class Item:
    id: str
    p: int
    run: Callable[[], object]
    check: Callable[[object], object]  # None when correct, else a reason


class Workload:
    name = None
    # True when the inputs do not depend on the seeds, so goldens apply.
    fixed_inputs = False

    def __init__(self, pr, oracle, goldens, seed=0,
                 corpus_seed=DEFAULT_CORPUS_SEED):
        self.pr = pr
        self.oracle = oracle
        self.goldens = goldens
        self.seed = seed
        self.corpus_seed = corpus_seed
        self._oracle_cache = {}

    def items(self, k):
        """Items of pass k, in run order."""
        raise NotImplementedError

    def warmup(self):
        """The untimed warm-up items, run once before measuring."""
        return self.items(0)[:1]

    def oracle_table(self, gens, p):
        key = (tuple(gens), p)
        if key not in self._oracle_cache:
            self._oracle_cache[key] = self.oracle.betti_numbers(list(gens), p)
        return self._oracle_cache[key]

    def canonical(self, out):
        """The JSON-able form of an item's output that goldens digest."""
        raise NotImplementedError

    def golden_check(self, item_id, out):
        if self.goldens is None or not self.fixed_inputs:
            return None
        want = self.goldens.get(self.name, {}).get(item_id)
        if want is None:
            return "no golden digest recorded"
        if digest(self.canonical(out)) != want:
            return "output digest differs from the golden"
        return None


class ResolveK6(Workload):
    """betti_table(minimize(taylor_complex(I, F))) for the first 13 edges of
    K6 over GF(3), GF(2) and Q.  The warm-up runs the same pipeline on the
    first 10 edges over each field, an eighth of the Taylor complex."""

    name = "resolve-k6"
    fixed_inputs = True
    FIELDS = (3, 2, 0)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gens = k6_edges(13)
        self.ideal = self.pr.minimalize(self.gens)

    def items(self, k):
        return [Item(f"k6-13/{FIELD_NAMES[p]}", p,
                     partial(self._run, self.ideal, p),
                     partial(self._check, f"k6-13/{FIELD_NAMES[p]}", p))
                for p in self.FIELDS]

    def warmup(self):
        small = self.pr.minimalize(k6_edges(10))
        return [Item(f"k6-10/{FIELD_NAMES[p]}", p,
                     partial(self._run, small, p), None)
                for p in self.FIELDS]

    def _run(self, ideal, p):
        gc = self.pr.gradedcomplex
        M = gc.minimize(gc.taylor_complex(ideal, self.pr.FieldSpec(p)))
        return M, gc.betti_table(M)

    def _check(self, item_id, p, out):
        _, T = out
        if T.entries != self.oracle_table(self.gens, p):
            return "Betti table differs from the oracle"
        return self.golden_check(item_id, out)

    def canonical(self, out):
        return out[0].to_json()


class HcwCorpus(Workload):
    """hcw_support(I, F) over a random corpus of 100 ideals, over Q, GF(2)
    and GF(3).

    The corpus seed picks the ideals.  The run seed orders the items: pass k
    of seed s runs them in an order drawn from (s, k); seed 0 keeps the
    corpus order.  Every seed does the same work.  (Relabelling the
    variables instead changes the cost of a pass by up to a tenth, which
    would swamp a change of the program.)
    """

    name = "hcw-corpus"
    FIELDS = (0, 2, 3)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fixed_inputs = self.corpus_seed == DEFAULT_CORPUS_SEED
        self.corpus = [self.pr.minimalize(g) for g in
                       random_corpus_generators(CORPUS_SIZE, self.corpus_seed)]
        self._items = []
        for idx, ideal in enumerate(self.corpus):
            for p in self.FIELDS:
                item_id = f"c{idx:03d}/{FIELD_NAMES[p]}"
                self._items.append(Item(
                    item_id, p, partial(self._run, ideal, p),
                    partial(self._check, item_id, ideal.generators, p)))

    def warmup(self):
        return self._items[:1]

    def items(self, k):
        items = list(self._items)
        if self.seed:
            random.Random(f"{self.seed}/{k}").shuffle(items)
        return items

    def _run(self, ideal, p):
        Q, _deg, H = self.pr.hcw.hcw_support(ideal, self.pr.FieldSpec(p))
        return Q, H

    def _check(self, item_id, gens, p, out):
        _, H = out
        if (self.pr.gradedcomplex.betti_table(H).entries
                != self.oracle_table(gens, p)):
            return "Betti table differs from the oracle"
        return self.golden_check(item_id, out)

    def canonical(self, out):
        Q, H = out
        return [Q.to_json(), H.to_json()]


class VerifyPaper(Workload):
    """In-process `posetres verify FILE --char P`, stdout captured, on the
    fixtures rp2.ideal and m.ideal over GF(2), GF(3) and Q, and on an ideal
    file for the first 10 edges of K6 over GF(2)."""

    name = "verify-paper"
    fixed_inputs = True
    CASES = (("rp2", 2), ("rp2", 3), ("rp2", 0),
             ("m", 2), ("m", 3), ("m", 0), ("k6-10", 2))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        fixtures = ROOT / "src" / "posetres" / "fixtures"
        OUT.mkdir(exist_ok=True)
        k6 = OUT / "k6-10.ideal"
        rows = [" ".join(map(str, g)) for g in k6_edges(10)]
        k6.write_text("# first 10 edges of K6\n" + "\n".join(rows) + "\n")
        self.paths = {"rp2": fixtures / "rp2.ideal",
                      "m": fixtures / "m.ideal", "k6-10": k6}

    def items(self, k):
        items = []
        for name, p in self.CASES:
            item_id = f"{name}/{FIELD_NAMES[p]}"
            items.append(Item(item_id, p,
                              partial(self._run, self.paths[name], p),
                              partial(self._check, item_id)))
        return items

    def _run(self, path, p):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pr.cli.main(["verify", str(path), "--char", str(p)])
        return code, out.getvalue()

    def _check(self, item_id, out):
        code, _ = out
        if code != 0:
            return f"verify exited with {code}"
        return self.golden_check(item_id, out)

    def canonical(self, out):
        code, stdout = out
        return {"exit": code, "stdout": stdout}


WORKLOADS = {w.name: w for w in (ResolveK6, HcwCorpus, VerifyPaper)}
