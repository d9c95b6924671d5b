"""Finite posets, order complexes with decreasing-vertex orientation, and
simplicial homology over a field.

A Poset is immutable after construction.  Faces of an order complex are
chains written as tuples in strictly decreasing poset order, and the empty
face () sits in dimension -1 so that reduced homology of the empty complex
is rank 1 in dimension -1.
"""

from graphlib import CycleError, TopologicalSorter

from .errors import (NotAMorphism, NotFound, ShapeError, TooLarge,
                     VerificationError, malformed)
from .exactla import SparseMatrix, kernel_basis, rank
from .monomials import divides

FACE_CAP = 2_000_000


class Poset:
    """Finite poset; stores the transitive reduction (cover relations).

    `relations` may be any set of (lower, upper) pairs; the order they
    generate is taken.  An optional `deg` map id -> multidegree tuple must
    be monotone.
    """

    def __init__(self, elements, relations, deg=None):
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ShapeError("duplicate poset elements")
        self.index = {e: i for i, e in enumerate(self.elements)}
        preds = {e: set() for e in self.elements}
        for lo, hi in relations:
            if lo not in self.index or hi not in self.index:
                raise NotFound(f"relation ({lo},{hi}) mentions unknown element")
            if lo == hi:
                raise ShapeError(f"reflexive relation on {lo}")
            preds[hi].add(lo)
        try:
            order = list(TopologicalSorter(preds).static_order())
        except CycleError:
            raise ShapeError("relations contain a cycle") from None
        # x in preds[e] covers e unless it lies below another element below e
        below, covers, self._dims = {}, set(), {}
        for e in order:
            lower = set().union(*(below[x] for x in preds[e]))
            covers.update((x, e) for x in preds[e] if x not in lower)
            below[e] = frozenset(lower | preds[e])
            self._dims[e] = 1 + max((self._dims[x] for x in preds[e]),
                                    default=-1)
        self.below = {e: below[e] for e in self.elements}
        self.covers = frozenset(covers)
        self.deg = None
        if deg is not None:
            self.deg = {e: tuple(deg[e]) for e in self.elements}
            for e in self.elements:
                for x in self.below[e]:
                    if not divides(self.deg[x], self.deg[e]):
                        raise NotAMorphism(
                            f"deg not monotone: {x} < {e} but deg({x}) !<= deg({e})")
        self._order_complex = None
        self._filter_cache = {}

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

    def down_set(self, a, strict=True):
        """Induced subposet on {x : x < a} (strict) or {x : x <= a}."""
        if a not in self.index:
            raise NotFound(f"unknown element {a!r}")
        keep = set(self.below[a])
        if not strict:
            keep.add(a)
        return self.restrict(keep)

    def restrict(self, keep):
        """Induced subposet on a subset of the elements (order preserved)."""
        keep = set(keep)
        elems = [e for e in self.elements if e in keep]
        rels = [(x, e) for e in elems for x in self.below[e] if x in keep]
        deg = {e: self.deg[e] for e in elems} if self.deg is not None else None
        return Poset(elems, rels, deg=deg)

    def order_complex(self):
        """All chains of the poset as an OrientedComplex (cached); more than
        FACE_CAP faces raise TooLarge."""
        if self._order_complex is not None:
            return self._order_complex
        key = {e: i for i, e in enumerate(self.elements)}
        faces = {-1: [()]}
        count = 1
        stack = [(e,) for e in self.elements]
        while stack:
            chain = stack.pop()
            d = len(chain) - 1
            faces.setdefault(d, []).append(chain)
            count += 1
            if count > FACE_CAP:
                raise TooLarge(f"order complex exceeds {FACE_CAP} faces")
            for x in self.below[chain[-1]]:
                stack.append(chain + (x,))
        for d in faces:
            faces[d].sort(key=lambda f: tuple(key[v] for v in f))
        self._order_complex = OrientedComplex(faces)
        return self._order_complex

    def subcomplex(self, tops):
        """Subcomplex of the order complex: the empty face and every chain
        whose largest vertex lies in `tops`."""
        faces = {d: [f for f in fs if f[0] in tops]
                 for d, fs in self.order_complex().faces.items() if d >= 0}
        return OrientedComplex({-1: [()], **faces})

    def filter_complex(self, a):
        """Order complex of the open filter P_{<a} (cached per element)."""
        if a not in self._filter_cache:
            self._filter_cache[a] = self.subcomplex(self.below[a])
        return self._filter_cache[a]

    def maximal_elements(self):
        tops = set(self.elements)
        for lo, hi in self.covers:
            tops.discard(lo)
        return [e for e in self.elements if e in tops]

    def minimal_elements(self):
        bots = [e for e in self.elements if not self.below[e]]
        return bots

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
        if obj["elements"] and "deg" in obj["elements"][0]:
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


class OrientedComplex:
    """Simplicial complex whose faces are tuples with a fixed vertex order.

    faces: dict dim -> list of tuples; dimension -1 holds the empty face.
    The complex of only the empty face is the (-1)-sphere; a complex with no
    faces at all (void complex) has zero homology everywhere.
    """

    def __init__(self, faces):
        self.faces = {d: list(fs) for d, fs in faces.items() if fs}
        self.face_index = {d: {f: i for i, f in enumerate(fs)}
                           for d, fs in self.faces.items()}

    @property
    def dim(self):
        return max(self.faces, default=-1)

    def face_counts(self):
        return {d: len(fs) for d, fs in sorted(self.faces.items())}

    def boundary_matrix(self, n):
        """Boundary C_n -> C_{n-1} as a SparseMatrix with integer entries."""
        cols = self.faces.get(n, [])
        rows_ix = self.face_index.get(n - 1, {})
        entries = []
        for j, f in enumerate(cols):
            for i in range(len(f)):
                sub = f[:i] + f[i + 1:]
                r = rows_ix.get(sub)
                if r is None:
                    raise VerificationError(f"complex not closed: missing face {sub}")
                entries.append((r, j, -1 if i % 2 else 1))
        return SparseMatrix(len(rows_ix), len(cols), entries)


def reduced_homology(K, F):
    """Reduced homology ranks of an OrientedComplex over F, per dimension."""
    if not K.faces:
        return {}
    top = K.dim
    ranks = {}
    bd_rank = {}
    for n in range(top + 2):
        bd_rank[n] = rank(K.boundary_matrix(n), F) if n <= top else 0
    for n in range(-1, top + 1):
        cn = len(K.faces.get(n, []))
        rn = bd_rank.get(n, 0) if n >= 0 else 0
        h = cn - rn - bd_rank.get(n + 1, 0)
        ranks[n] = h
    return {n: r for n, r in ranks.items() if r}


def is_homology_sphere_at(P, a, F):
    """True iff Delta(P_{<a}) has the homology of a sphere of its dimension."""
    K = P.filter_complex(a)
    h = reduced_homology(K, F)
    return h == {K.dim: 1}


def is_hcw(P, F):
    """True iff every open filter is a homology sphere over F."""
    return all(is_homology_sphere_at(P, a, F) for a in P.elements)


def cycle_space(K, n, F):
    """Echelonized basis of the n-cycles of K over F, as face->scalar dicts."""
    cols = K.faces.get(n, [])
    if not cols:
        return []
    vecs = kernel_basis(K.boundary_matrix(n), F)
    return [{f: v for f, v in zip(cols, vec) if v} for vec in vecs]
