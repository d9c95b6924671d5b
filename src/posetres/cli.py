"""Command-line front end: parse ideal files, drive the pipeline, and emit
JSON / DOT / summary output with a fixed exit-code contract
(0 ok, 1 verification failure, 2 parse or usage error, 3 resource cap).
"""

import argparse
import functools
import json
import re
import sys

from .errors import InvalidField, ParseError, PosetresError, TooLarge
from .exactla import FieldSpec
from .gradedcomplex import (bar_reduce, betti_table, is_resolution, minimize,
                            taylor_complex)
from .conic import conic_complex
from .hcw import hcwify
from .incidence import conic_iso_check, incidence_poset, verify_mfr_support
from .minsupport import (is_minimal_support_cycle, make_minimal_support_basis)
from .monomials import minimalize
from .posets import Poset, is_hcw
from .rigidity import betti_poset, check_rigid_iff_hcw, is_rigid

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def parse_ideal_file(text):
    """IdealFile format: optional `vars:` header, then one monomial per line,
    either product form (x1*x2^3) or space-separated exponents; # comments."""
    names = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            if rows or names is not None:
                raise ParseError(f"line {lineno}: misplaced vars header")
            names = line[5:].replace(",", " ").split()
            if not names or len(set(names)) != len(names):
                raise ParseError(f"line {lineno}: bad variable list")
            continue
        rows.append((lineno, line))
    if not rows:
        raise ParseError("no monomials in ideal file")
    exps = []
    product_form = any("*" in l or "^" in l or _NAME_RE.match(l.split()[0])
                       for _, l in rows)
    if product_form:
        if names is None:
            names = []
            for _, l in rows:
                for factor in l.split("*"):
                    nm = factor.strip().split("^", 1)[0].strip()
                    if nm and nm not in names:
                        names.append(nm)
        ix = {nm: i for i, nm in enumerate(names)}
        for lineno, l in rows:
            e = [0] * len(names)
            for factor in l.split("*"):
                factor = factor.strip()
                if not factor:
                    raise ParseError(f"line {lineno}: empty factor")
                if "^" in factor:
                    nm, _, pw = factor.partition("^")
                    nm, pw = nm.strip(), pw.strip()
                else:
                    nm, pw = factor, "1"
                if nm not in ix:
                    raise ParseError(f"line {lineno}: unknown variable {nm!r}")
                if not pw.isdigit() or int(pw) < 1:
                    raise ParseError(f"line {lineno}: bad exponent {pw!r}")
                e[ix[nm]] += int(pw)
            exps.append(tuple(e))
    else:
        for lineno, l in rows:
            try:
                e = tuple(int(t) for t in l.split())
            except ValueError:
                raise ParseError(f"line {lineno}: not an exponent row")
            if any(x < 0 for x in e):
                raise ParseError(f"line {lineno}: negative exponent")
            exps.append(e)
        if names is not None and any(len(e) != len(names) for e in exps):
            raise ParseError("exponent rows inconsistent with vars header")
    m = len(exps[0])
    if any(len(e) != m for e in exps):
        raise ParseError("inconsistent variable count across lines")
    try:
        ideal = minimalize(exps)
    except PosetresError as exc:
        raise ParseError(str(exc))
    return ideal, names


def _load_ideal(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    return parse_ideal_file(text)


def _load_poset(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read poset {path}: {exc}")
    try:
        return Poset.from_json(obj)
    except PosetresError as exc:
        raise ParseError(f"bad poset file {path}: {exc}")


def _input_poset(args, F):
    """The poset file at args.path with --poset, else the incidence poset
    of the minimal-support basis of the ideal there."""
    if args.poset:
        return _load_poset(args.path)
    _, C = _minimal_resolution(args.path, F)
    return incidence_poset(make_minimal_support_basis(C)[0])


def _field(args):
    return FieldSpec(args.char)


def _minimal_resolution(path, F):
    ideal, _ = _load_ideal(path)
    return ideal, minimize(taylor_complex(ideal, F))


def _betti_line(C):
    return "betti: " + " ".join(str(r) for r in betti_table(C).totals())


def cmd_resolve(args):
    _, C = _minimal_resolution(args.ideal, _field(args))
    if args.json:
        print(json.dumps(C.to_json(), indent=2))
    print(_betti_line(C))
    return 0


def cmd_betti(args):
    _, C = _minimal_resolution(args.ideal, _field(args))
    T = betti_table(C)
    if args.json:
        print(json.dumps(T.to_json(), indent=2))
    print("betti: " + " ".join(str(r) for r in T.totals()))
    return 0


def cmd_minbasis(args):
    _, C = _minimal_resolution(args.ideal, _field(args))
    C2, log = make_minimal_support_basis(C)
    if args.json:
        print(json.dumps({"complex": C2.to_json(),
                          "change_log": log.to_json()}, indent=2))
    print(_betti_line(C2))
    print(f"replacements: {len(log.steps)}")
    return 0


def cmd_incidence(args):
    _, C = _minimal_resolution(args.ideal, _field(args))
    C2, _ = make_minimal_support_basis(C)
    P = incidence_poset(C2)
    if args.dot:
        print(P.to_dot())
    elif args.json:
        print(json.dumps(P.to_json(), indent=2))
    print(f"elements: {len(P)}")
    return 0


def cmd_conic(args):
    F = _field(args)
    CC = conic_complex(_input_poset(args, F), F, augmented=args.augmented)
    if args.json:
        print(json.dumps(CC.to_json(), indent=2))
    print("ranks: " + " ".join(str(r) for r in CC.ranks()))
    return 0


def cmd_hcwify(args):
    F = _field(args)
    _, report = hcwify(_input_poset(args, F), F)
    if args.dot:
        print(report.to_dot())
    elif args.json:
        print(json.dumps(report.to_json(), indent=2))
    print(f"added_relations: {len(report.added)}")
    print(f"hcw: {str(all(report.verdicts_after.values())).lower()}")
    return 0


def cmd_verify(args):
    F = _field(args)
    ideal, C = _minimal_resolution(args.ideal, F)
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
            detail = ""
        except PosetresError as exc:
            ok, detail = False, f" ({exc})"
        checks.append(ok)
        print(f"{name}: {'pass' if ok else 'fail'}{detail}")
        return ok

    # A failed call is not cached: each check that needs it fails the same way.
    @functools.cache
    def basis():
        return make_minimal_support_basis(C)[0]

    def minimal_support():
        C2 = basis()
        Cbar = bar_reduce(C2)
        return all(is_minimal_support_cycle(Cbar, n - 1, dict(C2.column(b)))
                   for n in range(1, C2.top + 1)
                   for b, _ in C2.labels.get(n, []))

    check("complex", lambda: (C.check_complex() or True))
    check("resolution", lambda: is_resolution(C)[0])
    check("minimal_support", minimal_support)
    check("conic_iso", lambda: conic_iso_check(basis()) is not None)
    check("support_criterion", lambda: verify_mfr_support(ideal, basis(), F))
    check("hcw", lambda: is_hcw(hcwify(incidence_poset(basis()), F)[0], F))
    T = betti_table(C)
    rigid, _ = is_rigid(T)
    print(f"rigid: {str(rigid).lower()}")
    print(f"betti_poset_hcw: {str(is_hcw(betti_poset(T), F)).lower()}")
    check("rigid_iff_hcw", lambda: check_rigid_iff_hcw(ideal, F))
    return sum(1 for ok in checks if not ok)


def cmd_rigid(args):
    _, C = _minimal_resolution(args.ideal, _field(args))
    rigid, witness = is_rigid(betti_table(C))
    print(f"rigid: {str(rigid).lower()}")
    if witness is not None:
        i, a, b = witness
        if b is None:
            print(f"witness: beta_{i} at {list(a)} exceeds 1")
        else:
            print(f"witness: comparable degrees {list(a)} and {list(b)} "
                  f"in degree {i}")
    return 0


def cmd_betti_poset(args):
    F = _field(args)
    _, C = _minimal_resolution(args.ideal, F)
    BP = betti_poset(betti_table(C))
    if args.dot:
        print(BP.to_dot())
    elif args.json:
        print(json.dumps(BP.to_json(), indent=2))
    print(f"elements: {len(BP)}")
    print(f"hcw: {str(is_hcw(BP, F)).lower()}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="posetres",
        description="Minimal free resolutions of monomial ideals and the "
                    "posets that support them.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, path_arg="ideal", poset_opt=False, extra_dot=False,
            augmented=False):
        sp = sub.add_parser(name)
        sp.add_argument(path_arg)
        sp.add_argument("--char", type=int, default=0,
                        help="field characteristic (0 or a prime)")
        sp.add_argument("--json", action="store_true",
                        help="emit full JSON output")
        if extra_dot:
            sp.add_argument("--dot", action="store_true",
                            help="emit a DOT Hasse diagram")
        if poset_opt:
            sp.add_argument("--poset", action="store_true",
                            help="treat the input as a poset JSON file")
        if augmented:
            sp.add_argument("--augmented", action="store_true",
                            help="include the augmentation")
        sp.set_defaults(fn=fn)
        return sp

    add("resolve", cmd_resolve)
    add("betti", cmd_betti)
    add("minbasis", cmd_minbasis)
    add("incidence", cmd_incidence, extra_dot=True)
    add("conic", cmd_conic, path_arg="path", poset_opt=True, augmented=True)
    add("hcwify", cmd_hcwify, path_arg="path", poset_opt=True, extra_dot=True)
    add("verify", cmd_verify)
    add("rigid", cmd_rigid)
    add("betti-poset", cmd_betti_poset, extra_dot=True)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, InvalidField) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PosetresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
