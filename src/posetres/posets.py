"""Finite posets, order complexes with decreasing-vertex orientation, and
simplicial homology over a field.

A Poset is immutable after construction.  Faces of an order complex are
chains written as tuples in strictly decreasing poset order, and the empty
face () sits in dimension -1 so that reduced homology of the empty complex
is rank 1 in dimension -1.
"""

from itertools import chain

from .errors import (NotAMorphism, NotFound, ParseError, ShapeError,
                     TooLarge, VerificationError, malformed)
from .exactla import rank  # unused; perfbench's tracer rebinds posets.rank
from .gradedcomplex import ChainComplex
from .monomials import divides

FACE_CAP = 2_000_000


class Poset:
    """Finite poset; stores the transitive reduction (cover relations).

    `relations` may be any set of (lower, upper) pairs; the order they
    generate is taken.  One pass of Kahn's sort, started from the minimal
    elements in element order, places each element once all the elements
    below it are placed, and reads its down-set, covers and dimension off
    theirs; an element never placed lies on a cycle (ShapeError).
    An optional `deg` map id -> multidegree tuple must be monotone, its
    tuples all of one length with entries ints >= 0.  It is checked on the
    covers, which generate the order, as divisibility is transitive; the
    NotAMorphism message names the first failing cover in (upper index,
    lower index) order.
    The chain count, conic complexes (`_conic`), an unfinished conic build
    (`_conic_build`) and supports_resolution's answer (`_support`) are
    memoized on it; filter complexes are built afresh on each call.
    is_hcw, hcwify and fill_cavity read their sphere verdicts and cavity
    ranks off the conic complex, so a filter complex is built there only
    for an element above a non-sphere, and never in is_hcw;
    conic_vs_simplicial builds them all.
    """

    def __init__(self, elements, relations, deg=None):
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ShapeError("duplicate poset elements")
        self.index = {e: i for i, e in enumerate(self.elements)}
        preds = {e: set() for e in self.elements}
        ups = {e: [] for e in self.elements}
        for lo, hi in relations:
            if lo not in self.index or hi not in self.index:
                raise NotFound(f"relation ({lo},{hi}) mentions unknown element")
            if lo == hi:
                raise ShapeError(f"reflexive relation on {lo}")
            if lo not in (ps := preds[hi]):
                ps.add(lo)
                ups[lo].append(hi)
        # x in preds[e] covers e unless it lies below another element below e
        below, covers, dims = {}, set(), {}
        left = {e: len(ps) for e, ps in preds.items()}
        order = [e for e in self.elements if not left[e]]
        for e in order:  # Kahn's sort: order grows as elements are placed
            if ps := preds[e]:
                lower = set().union(*map(below.__getitem__, ps))
                covers.update((x, e) for x in ps - lower)
                below[e] = frozenset(lower | ps)
                dims[e] = 1 + max(map(dims.__getitem__, ps))
            else:
                below[e], dims[e] = frozenset(), 0
            for y in ups[e]:
                left[y] -= 1
                if not left[y]:
                    order.append(y)
        if len(order) < len(self.elements):
            raise ShapeError("relations contain a cycle")
        self.below = {e: below[e] for e in self.elements}
        self.covers = frozenset(covers)
        self._dims = dims
        self.deg = None
        if deg is not None:
            self.deg = dg = {e: tuple(deg[e]) for e in self.elements}
            xs = [*chain.from_iterable(dg.values())]
            if not {int}.issuperset(map(type, xs)) or min(xs, default=0) < 0:
                raise ShapeError("degree entries must be integers >= 0")
            if len(set(map(len, dg.values()))) > 1:
                raise ShapeError("degree tuples of unequal length")
            if not all(divides(dg[x], dg[e]) for x, e in covers):
                ix = self.index
                x, e = min(((x, e) for x, e in covers
                            if not divides(dg[x], dg[e])),
                           key=lambda c: (ix[c[1]], ix[c[0]]))
                raise NotAMorphism(
                    f"deg not monotone: {x} < {e} but deg({x}) !<= deg({e})")
        self._chain_count, self._conic = None, {}
        self._conic_build, self._support = {}, {}

    def __len__(self):
        return len(self.elements)

    def less(self, x, y):
        return x in self.below[y]

    def leq(self, x, y):
        return x == y or x in self.below[y]

    def dim(self, a):
        """d(a): length of the longest chain ending at a."""
        if a not in self.index:
            raise NotFound(f"unknown element {a!r}")
        return self._dims[a]

    def restrict(self, keep):
        """Induced subposet on a subset of the elements (order preserved)."""
        keep = set(keep)
        elems = [e for e in self.elements if e in keep]
        rels = [(x, e) for e in elems for x in self.below[e] if x in keep]
        deg = {e: self.deg[e] for e in elems} if self.deg is not None else None
        return Poset(elems, rels, deg=deg)

    def extend_below(self, a, lows):
        """The poset with the relations (c, a), c in `lows`, added; it
        takes over no memo."""
        return Poset(self.elements, [*self.covers, *((c, a) for c in lows)],
                     deg=self.deg)

    def chain_count(self):
        """Number of faces of the order complex, the empty face included:
        1 + sum of N(e) over the elements, N(e) = 1 + sum of N(x), x < e,
        being the number of chains with largest vertex e (cached)."""
        if self._chain_count is None:
            n = {}
            for e in sorted(self.elements, key=self._dims.get):
                n[e] = 1 + sum(n[x] for x in self.below[e])
            self._chain_count = 1 + sum(n.values())
        return self._chain_count

    def check_face_cap(self):
        """TooLarge if the order complex has more than FACE_CAP faces."""
        if self.chain_count() > FACE_CAP:
            raise TooLarge(f"order complex exceeds {FACE_CAP} faces")

    def subcomplex(self, tops):
        """The empty face and every chain whose largest vertex lies in the
        down-set `tops`, found depth-first from them, each dimension sorted
        by the vertex indices.  Unknown tops raise NotFound, tops that are
        not a down-set ShapeError.  More than FACE_CAP faces in the whole
        order complex raise TooLarge, with FACE_CAP read at call time."""
        tops = set(tops)
        if not tops <= self.index.keys():
            raise NotFound(f"unknown elements {tops - self.index.keys()}")
        if any(not self.below[t] <= tops for t in tops):
            raise ShapeError("tops are not a down-set")
        self.check_face_cap()
        key = self.index
        faces = {-1: [()]}
        stack = [(e,) for e in tops]
        while stack:
            chain = stack.pop()
            faces.setdefault(len(chain) - 1, []).append(chain)
            stack.extend(chain + (x,) for x in self.below[chain[-1]])
        for fs in faces.values():
            fs.sort(key=lambda f: tuple(key[v] for v in f))
        return OrientedComplex(faces)

    def order_complex(self):
        """All chains of the poset as an OrientedComplex; more than
        FACE_CAP faces raise TooLarge."""
        return self.subcomplex(self.elements)

    def filter_complex(self, a):
        """Order complex of the open filter P_{<a}: subcomplex(below[a]).
        It raises TooLarge exactly when order_complex would."""
        if a not in self.index:
            raise NotFound(f"unknown element {a!r}")
        return self.subcomplex(self.below[a])

    def to_json(self):
        out = {"elements": [], "covers": sorted(
            [[lo, hi] for lo, hi in self.covers],
            key=lambda p: (self.index[p[0]], self.index[p[1]]))}
        for e in self.elements:
            entry = {"id": e}
            if self.deg is not None:
                entry["deg"] = list(self.deg[e])
            out["elements"].append(entry)
        return out

    @classmethod
    @malformed("poset JSON")
    def from_json(cls, obj):
        elements = [e["id"] for e in obj["elements"]]
        deg = None
        if any("deg" in e for e in obj["elements"]):
            if not all("deg" in e for e in obj["elements"]):
                raise ParseError("deg given for only some elements")
            deg = {e["id"]: tuple(e["deg"]) for e in obj["elements"]}
        return cls(elements, [tuple(c) for c in obj["covers"]], deg=deg)

    def to_dot(self, highlight_edges=()):
        """DOT source for the Hasse diagram, ranked by element dimension."""
        highlight = {tuple(e) for e in highlight_edges}
        lines = ["digraph hasse {", "  rankdir=BT;"]
        by_dim = {}
        for e in self.elements:
            by_dim.setdefault(self.dim(e), []).append(e)
        for d in sorted(by_dim):
            ids = " ".join(f'"{e}";' for e in by_dim[d])
            lines.append(f"  {{ rank=same; {ids} }}")
        for lo, hi in sorted(self.covers,
                             key=lambda p: (self.index[p[0]], self.index[p[1]])):
            style = " [style=dashed]" if (lo, hi) in highlight else ""
            lines.append(f'  "{lo}" -> "{hi}"{style};')
        lines.append("}")
        return "\n".join(lines)


class OrientedComplex(ChainComplex):
    """Simplicial complex whose faces are tuples with a fixed vertex order,
    as an augmented chain complex over no fixed field.

    faces: dict dim -> list of tuples; dimension -1 holds the empty face.
    The faces of each dimension are the basis, and d_n drops vertex i of a
    face with sign (-1)^i, for every n >= 0: d_0 sends every vertex to the
    empty face.  A face missing from the complex raises VerificationError.
    The complex of only the empty face is the (-1)-sphere; a complex with
    no faces at all (void complex) has zero homology everywhere.
    """

    def __init__(self, faces):
        super().__init__(None, faces, {}, bool(faces.get(-1)))
        faces = self.basis
        # built in place, not copied; rows keyed by the complex's own faces
        for n in range(self.top + 1):
            rows = faces.get(n - 1, [])
            rix = self._index(n - 1, rows)
            self.d[n] = cols = {}
            for f in faces.get(n, ()):
                col = cols[f] = {}
                for i in range(len(f)):
                    r = rix.get(f[:i] + f[i + 1:])
                    if r is None:
                        raise VerificationError(
                            f"complex not closed: missing face {f[:i] + f[i + 1:]}")
                    col[rows[r]] = -1 if i % 2 else 1

    @property
    def faces(self):
        return self.basis

def reduced_homology(K, F):
    """Reduced homology ranks of an OrientedComplex over F, per dimension."""
    return K.homology_ranks(F)


def is_homology_sphere_at(P, a, F):
    """True iff Delta(P_{<a}) has the homology of a sphere of its dimension."""
    K = P.filter_complex(a)
    return reduced_homology(K, F) == {K.top: 1}


def is_hcw(P, F):
    """True iff every open filter is a homology sphere over F.

    The verdicts are hcw._sphere_verdicts' on P's augmented conic complex,
    in (dimension, index) order up to the first miss, which has only
    spheres below it: so each is read off the conic complex, exact by the
    paper's theorem, and no filter complex is built nor FACE_CAP read.
    Unless that complex is memoized, the walk reads P's conic build
    (conic._verdict_source), which builds the degrees <= n - 1 a verdict
    at dimension n reads, each differential checked for d o d first, and
    so stops at the degree of the first miss; conic_complex finishes it."""
    from .conic import _verdict_source  # conic and hcw import this module
    from .hcw import _sphere_verdicts
    return all(v for _, v in _sphere_verdicts(_verdict_source(P, F),
                                              P.elements, {}))


def cycle_space(K, n, F):
    """Echelonized basis of the n-cycles of K over F, as face->scalar dicts."""
    return K.kernel(n, F=F)
