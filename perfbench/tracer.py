"""Spans and counters recorded from outside the posetres package.

The tracer wraps public functions of the posetres modules.  Modules import
each other's functions by name (``from .exactla import rank`` in posets,
conic and gradedcomplex), so wrapping one attribute is not enough: install()
rebinds every module-level name in the package that refers to a wrapped
function, and ``Poset.order_complex`` on the class.  uninstall() restores
the originals, so untraced passes in the same process run unwrapped code.

A span is (name, start, end, parent, item, tag): parent is the index of the
enclosing span or -1, item the id of the benchmark item that was running,
tag the field of an exactla call.  Spans stay in memory until the caller
summarizes or dumps them.
"""

import functools
import sys
import time
import weakref
from collections import Counter

# Public functions that are traced, by module.  The monomial helpers lcm and
# divides are left out: they run millions of times inside taylor_complex and
# cost about as much per call as a wrapper would.  The module-level
# posets.down_set / dim_element / order_complex wrappers are unused.
FUNCTIONS = {
    "exactla": ("rank", "kernel_basis", "solve"),
    "monomials": ("minimalize", "lcm_lattice", "join_closure"),
    "gradedcomplex": ("taylor_complex", "minimize", "bar_reduce", "strand",
                      "betti_table", "is_resolution"),
    "minsupport": ("boundary_support", "is_minimal_support_cycle",
                   "make_minimal_support_basis", "noncomparable_supports"),
    "posets": ("reduced_homology", "is_homology_sphere_at", "is_hcw",
               "cycle_space"),
    "conic": ("conic_complex", "skeleton_complex", "kernel_skeleton_check",
              "conic_vs_simplicial", "homogenize", "supports_resolution"),
    "incidence": ("incidence_poset", "poset_isomorphic", "conic_iso_check",
                  "verify_mfr_support"),
    "hcw": ("antichain_form", "fill_cavity", "hcwify", "hcw_support"),
    "rigidity": ("is_rigid", "betti_poset", "check_rigid_iff_hcw"),
    "cli": ("parse_ideal_file", "main"),
}
METHODS = {"posets": (("Poset", "order_complex"),)}

EXACTLA = ("exactla.rank", "exactla.kernel_basis", "exactla.solve")


def field_key(F):
    p = F.characteristic
    return "q" if p == 0 else "gf2" if p == 2 else "gfp"


class Tracer:
    """In-memory spans and per-item counters for one traced pass at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.item = None
        self.spans = []
        self.counts = {}
        self._stack = []
        self._undo = []
        self._seen_complexes = weakref.WeakSet()

    def reset(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def count(self, name, value):
        c = self.counts.setdefault(self.item, Counter())
        c[name] += value

    def wrap(self, name, fn):
        """Return fn wrapped so that each call records a span."""
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.item,
                                     None)
            if hook is not None:
                tag = hook(tracer, args, kwargs, result)
                if tag is not None:
                    tracer.spans[idx] = tracer.spans[idx][:5] + (tag,)
            return result

        return traced

    def install(self, package="posetres"):
        """Wrap the traced functions and rebind every module-level name in
        the package that refers to one.  Returns the names not found."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == package
                                      or n.startswith(package + "."))]
        missing = []
        for modname, names in FUNCTIONS.items():
            mod = sys.modules.get(f"{package}.{modname}")
            for fname in names:
                orig = getattr(mod, fname, None) if mod else None
                if orig is None:
                    missing.append(f"{modname}.{fname}")
                    continue
                wrapper = self.wrap(f"{modname}.{fname}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for modname, methods in METHODS.items():
            mod = sys.modules.get(f"{package}.{modname}")
            for clsname, meth in methods:
                cls = getattr(mod, clsname, None) if mod else None
                orig = vars(cls).get(meth) if cls else None
                if orig is None:
                    missing.append(f"{modname}.{clsname}.{meth}")
                    continue
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(f"{modname}.{meth}", orig))
        return missing

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def summary(self):
        """Aggregate the recorded spans and counters of the current pass."""
        return summarize(self.spans, self.counts)


def self_times(spans):
    """Self time of each span: its duration minus the durations of its
    direct children.  Spans of one thread nest, so children are disjoint."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _has_ancestor(spans, idx, name):
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def summarize(spans, counts):
    """Per-name calls and self time, exactla self time per field, top-level
    span time, and counters summed over items and kept per item."""
    selfs = self_times(spans)
    calls, self_s = Counter(), Counter()
    field_self = Counter()
    top_level = 0.0
    conic_in_hcwify = 0
    per_item = {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] += 1
        self_s[name] += selfs[i]
        if s[5] is not None:
            field_self[s[5]] += selfs[i]
        if s[3] < 0:
            top_level += s[2] - s[1]
        item = per_item.setdefault(s[4], Counter())
        item[name + ".calls"] += 1
        if name == "conic.conic_complex" and _has_ancestor(spans, i,
                                                           "hcw.hcwify"):
            conic_in_hcwify += 1
    totals = Counter()
    for item, c in counts.items():
        totals.update(c)
        per_item.setdefault(item, Counter()).update(c)
    totals["conic_in_hcwify"] = conic_in_hcwify
    return {"calls": calls, "self_s": self_s, "field_self_s": field_self,
            "top_level_s": top_level, "counts": totals,
            "per_item": per_item}


# Counters taken from the arguments and results at a span's boundary.  A
# hook may return a tag that is stored with the span.

def _exactla_hook(tracer, args, kwargs, result):
    A = args[0]
    F = kwargs.get("F", args[-1])
    tracer.count("exactla.cells", A.rows * A.cols)
    return field_key(F)


def _taylor_hook(tracer, args, kwargs, result):
    tracer.count("gradedcomplex.taylor_rank", sum(result.ranks()))


def _minimize_hook(tracer, args, kwargs, result):
    tracer.count("gradedcomplex.minimize.rank_in", sum(args[0].ranks()))
    tracer.count("gradedcomplex.minimize.rank_out", sum(result.ranks()))


def _is_resolution_hook(tracer, args, kwargs, result):
    tracer.count("gradedcomplex.is_resolution.strands", len(result[1]))


def _order_complex_hook(tracer, args, kwargs, result):
    # The complex is cached on the poset: count the faces of each one once.
    if result not in tracer._seen_complexes:
        tracer._seen_complexes.add(result)
        tracer.count("posets.order_complex.faces",
                     sum(len(fs) for fs in result.faces.values()))


def _minsupport_hook(tracer, args, kwargs, result):
    tracer.count("minsupport.replacements", len(result[1].steps))


def _incidence_hook(tracer, args, kwargs, result):
    tracer.count("incidence.poset_elements", len(result))


def _hcwify_hook(tracer, args, kwargs, result):
    tracer.count("hcw.added_relations", len(result[1].added))


_HOOKS = {
    **{name: _exactla_hook for name in EXACTLA},
    "gradedcomplex.taylor_complex": _taylor_hook,
    "gradedcomplex.minimize": _minimize_hook,
    "gradedcomplex.is_resolution": _is_resolution_hook,
    "posets.order_complex": _order_complex_hook,
    "minsupport.make_minimal_support_basis": _minsupport_hook,
    "incidence.incidence_poset": _incidence_hook,
    "hcw.hcwify": _hcwify_hook,
}
