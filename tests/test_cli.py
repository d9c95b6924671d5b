import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import posetres.cli
import posetres.conic
import posetres.incidence
import posetres.gradedcomplex
import posetres.posets
import posetres.rigidity
from posetres import FieldSpec, Poset
from posetres.cli import build_parser, main, parse_ideal_file
from posetres.errors import ParseError, TooLarge, VerificationError
from conftest import FIXTURES, theta_poset

RP2 = str(FIXTURES / "rp2.ideal")
M = str(FIXTURES / "m.ideal")


def test_import_loads_no_networkx():
    """The package runs on the standard library alone: networkx is only an
    oracle for the tests."""
    code = "import sys, posetres.cli; print('networkx' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout == "False\n"


def test_parse_product_form_with_header():
    ideal, names = parse_ideal_file("vars: x y\nx*y^2\nx^3\n")
    assert names == ["x", "y"]
    assert ideal.generators == ((1, 2), (3, 0))


def test_parse_exponent_rows():
    ideal, names = parse_ideal_file("# comment\n1 2\n3 0\n")
    assert names is None
    assert ideal.generators == ((1, 2), (3, 0))


def test_parse_product_form_without_header():
    ideal, names = parse_ideal_file("a*b\nb*c\n")
    assert names == ["a", "b", "c"]
    assert ideal.generators == ((0, 1, 1), (1, 1, 0))


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_parse_errors():
    for text in ("", "x*y\nvars: x y\n", "1 2\n1 2 3\n", "x^0\n", "x^-1\n"):
        with pytest.raises(ParseError):
            parse_ideal_file(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(),
                 st.text(alphabet="xyz0123456789\u00b2 *^#:,\n-", max_size=40)))
@example("x^\u00b2*y\n")
@example("x^" + "7" * 5000 + "\n")
@example(b"x*y\n\xff\n".decode("utf-8", "surrogateescape"))
def test_parse_ideal_file_raises_only_parse_error(text):
    try:
        parse_ideal_file(text)
    except ParseError:
        pass


def test_resolve_summary(capsys):
    assert main(["resolve", RP2, "--char", "2"]) == 0
    assert capsys.readouterr().out.strip() == "betti: 10 15 7 1"
    assert main(["resolve", M]) == 0
    assert capsys.readouterr().out.strip() == "betti: 5 6 2"


def test_resolve_json(capsys):
    assert main(["resolve", M, "--json"]) == 0
    out = capsys.readouterr().out
    body = out[:out.rindex("betti:")]
    obj = json.loads(body)
    assert len(obj["basis"]) == 3


def test_single_generator(tmp_path, capsys):
    p = tmp_path / "one.ideal"
    p.write_text("x*y\n")
    assert main(["resolve", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "betti: 1"


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.ideal"
    p.write_text("1 2\n1 2 3\n")
    assert main(["resolve", str(p)]) == 2
    assert main(["resolve", str(tmp_path / "missing.ideal")]) == 2
    # 2**89 - 1 is prime, but no characteristic of 2**64 or more is taken
    for char in ("4", "1", "-2", str(2**64), str(2**89 - 1)):
        assert main(["resolve", M, "--char", char]) == 2
    capsys.readouterr()
    # a superscript digit, an exponent past int()'s digit limit, not UTF-8
    for body in ("x^\u00b2*y\n".encode(), b"x^" + b"7" * 5000 + b"\n",
                 b"x*y\n\xff\xfe\n"):
        p.write_bytes(body)
        assert main(["resolve", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error:")
    p = tmp_path / "bad.json"
    for obj in ({}, {"elements": [{"id": 1}, {"id": 2}, {"id": 3}],
                     "covers": [[1, 2, 3]]},
                {"elements": [{"id": [1]}], "covers": []}):
        p.write_text(json.dumps(obj))
        assert main(["conic", str(p), "--poset"]) == 2
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("cmd", ["conic", "hcwify"])
def test_malformed_poset_degrees_exit_2(tmp_path, capsys, cmd):
    """Degree tuples of unequal length, and deg on only some elements, in
    either order, are malformed poset files."""
    p = tmp_path / "bad.json"
    for elements, message in (
            ([{"id": "a", "deg": [1]}, {"id": "b", "deg": [1, 1]}],
             "unequal length"),
            ([{"id": "a", "deg": [1, 0]}, {"id": "b"}], "only some"),
            ([{"id": "a"}, {"id": "b", "deg": [1, 1]}], "only some")):
        for covers in ([["a", "b"]], []):
            p.write_text(json.dumps({"elements": elements,
                                     "covers": covers}))
            assert main([cmd, str(p), "--poset"]) == 2
            assert message in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["conic", "hcwify"])
def test_poset_degree_entries_must_be_naturals_exit_2(tmp_path, capsys, cmd):
    """A degree entry that is not an int >= 0 (a list, a string, a float, a
    negative int or a bool) makes a malformed poset file, not a traceback
    or a result."""
    p = tmp_path / "bad.json"
    for d in ([[1], 0], ["x", "y"], [1.5, 0], [-1, 0], [True, 0]):
        p.write_text(json.dumps({
            "elements": [{"id": e, "deg": d} for e in "abt"],
            "covers": [["a", "t"], ["b", "t"]]}))
        assert main([cmd, str(p), "--poset"]) == 2
        assert "integers >= 0" in capsys.readouterr().err


def test_cap_exit_code(tmp_path, monkeypatch):
    gens = "\n".join(" ".join("1" if i == j else "0" for i in range(17))
                     for j in range(17))
    p = tmp_path / "big.ideal"
    p.write_text(gens + "\n")
    assert main(["resolve", str(p)]) == 3
    # both caps are read when the capped function runs
    monkeypatch.setattr(posetres.gradedcomplex, "TAYLOR_CAP", 2)
    assert main(["resolve", M]) == 3
    monkeypatch.setattr(posetres.posets, "FACE_CAP", 3)
    P = Poset(["a", "b", "t"], [("a", "t"), ("b", "t")])
    with pytest.raises(TooLarge):
        P.order_complex()
    p = tmp_path / "v.json"
    p.write_text(json.dumps(P.to_json()))
    # the conic complex builds no face; only its JSON expands the cycles
    assert main(["conic", str(p), "--poset"]) == 0
    assert main(["conic", str(p), "--poset", "--json"]) == 3


def test_is_hcw_and_betti_poset_answer_past_the_face_cap(monkeypatch, capsys):
    """is_hcw reads the conic complex, which builds no face, so FACE_CAP
    does not bound it: betti-poset exits 0 where it once exited 3."""
    monkeypatch.setattr(posetres.posets, "FACE_CAP", 3)
    S0, theta = Poset(["a", "b", "t"], [("a", "t"), ("b", "t")]), theta_poset()
    for P in (S0, theta):
        with pytest.raises(TooLarge):
            P.order_complex()
    assert posetres.posets.is_hcw(S0, FieldSpec(2))
    assert not posetres.posets.is_hcw(theta, FieldSpec(2))
    assert main(["betti-poset", RP2, "--char", "2"]) == 0
    assert capsys.readouterr().out == "elements: 32\nhcw: false\n"


def test_hcwify_summaries(capsys):
    assert main(["hcwify", RP2, "--char", "2"]) == 0
    out = capsys.readouterr().out
    assert "added_relations: 1" in out and "hcw: true" in out
    assert main(["hcwify", M]) == 0
    out = capsys.readouterr().out
    assert "added_relations: 0" in out and "hcw: true" in out


def test_hcwify_koszul(tmp_path, capsys):
    p = tmp_path / "k.ideal"
    p.write_text("vars: x y\nx\ny\n")
    assert main(["hcwify", str(p)]) == 0
    assert "added_relations: 0" in capsys.readouterr().out


def test_incidence_and_conic(capsys):
    assert main(["incidence", M]) == 0
    assert "elements: 13" in capsys.readouterr().out
    assert main(["conic", RP2, "--char", "2"]) == 0
    assert "ranks: 10 15 7 1" in capsys.readouterr().out


# the SHA-256 of the whole stdout of `posetres conic ... --json`: the
# generators, their cycles over the faces and the differentials
CONIC_JSON_SHA256 = {
    ("theta", "--char", "3"):
        "c52079a3a05e63937435a2b5c33914bd3932a0221d917a63d919b3e95f3e0075",
    ("theta", "--char", "0", "--augmented"):
        "a44977ec53d10f04f49346589e25b28ad90ae040b913b56c3ab0583c04d0a192",
    ("rp2", "--char", "3"):
        "d91d4745f32e9c165b3f0193afa5061319febfd47db0e5f5a29f2e82b94c0082",
    ("m", "--char", "5", "--augmented"):
        "77f13c03c781000c4133327dbc3cd71a0b8bfee90228135e6f060dd6f29a54b4",
}


@pytest.mark.parametrize("args", sorted(CONIC_JSON_SHA256))
def test_conic_json_pins(tmp_path, capsys, args):
    """The two-apex theta poset has conic components of dimension 2."""
    name, *opts = args
    if name == "theta":
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(theta_poset(2).to_json()))
        opts.append("--poset")
    else:
        path = FIXTURES / f"{name}.ideal"
    assert main(["conic", str(path), "--json", *opts]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CONIC_JSON_SHA256[args]


def test_conic_json_on_ids_of_mixed_types(tmp_path, capsys):
    p = tmp_path / "mixed.json"
    p.write_text(json.dumps({"elements": [{"id": 1}, {"id": "x"},
                                          {"id": "top"}],
                             "covers": [[1, "top"], ["x", "top"]]}))
    assert main(["conic", str(p), "--poset", "--char", "2", "--json"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out[:out.rindex("ranks:")])
    assert [len(gs) for gs in obj["generators"]] == [2, 1]
    assert out.endswith("ranks: 2 1\n")


def test_verify_all_pass(capsys):
    assert main(["verify", RP2, "--char", "2"]) == 0
    out = capsys.readouterr().out
    assert "fail" not in out
    assert "rigid: false" in out and "betti_poset_hcw: false" in out


VERIFY_STAGES = ("complex", "resolution", "minimal_support", "conic_iso",
                 "support_criterion", "hcw")


@pytest.mark.parametrize("name,p,rigid", [
    ("rp2", 0, True), ("rp2", 2, False), ("rp2", 3, True), ("rp2", 5, True),
    ("m", 0, False), ("m", 2, False), ("m", 3, False), ("m", 5, False),
    ("k6-10", 2, False)])
def test_verify_stdout(tmp_path, capsys, name, p, rigid):
    if name == "k6-10":
        path = tmp_path / "k6-10.ideal"
        edges = list(combinations(range(6), 2))[:10]
        path.write_text("".join(" ".join(str(int(v in e)) for v in range(6))
                                + "\n" for e in edges))
    else:
        path = FIXTURES / f"{name}.ideal"
    assert main(["verify", str(path), "--char", str(p)]) == 0
    flag = str(rigid).lower()
    assert capsys.readouterr().out.splitlines() == [
        *(f"{s}: pass" for s in VERIFY_STAGES), f"rigid: {flag}",
        f"betti_poset_hcw: {flag}", "rigid_iff_hcw: pass"]


def test_verify_resolves_once(monkeypatch, capsys):
    calls = []
    minimize = posetres.cli.minimize
    monkeypatch.setattr(posetres.cli, "minimize",
                        lambda C: calls.append(C) or minimize(C))
    monkeypatch.setattr(posetres.rigidity, "minimize",
                        lambda C: calls.append(C) or minimize(C))
    assert main(["verify", RP2, "--char", "3"]) == 0
    assert "rigid_iff_hcw: pass" in capsys.readouterr().out
    assert len(calls) == 1


def test_verify_reports_stage_failures(monkeypatch, capsys):
    def boom(*args):
        raise VerificationError("boom")

    monkeypatch.setattr("posetres.cli.hcwify", boom)
    assert main(["verify", M]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "hcw: fail (boom)" in lines
    assert lines[-1] == "rigid_iff_hcw: pass"
    monkeypatch.setattr("posetres.cli.make_minimal_support_basis", boom)
    assert main(["verify", M]) == 1  # four failed checks, no cap exceeded
    out = capsys.readouterr().out
    for name in ("minimal_support", "conic_iso", "support_criterion", "hcw"):
        assert f"{name}: fail (boom)" in out
    assert "rigid_iff_hcw: pass" in out


def test_verify_exits_3_when_a_check_exceeds_a_cap(monkeypatch, capsys):
    def too_large(*args):
        raise TooLarge("cap")

    def boom(*args):
        raise VerificationError("boom")

    monkeypatch.setattr("posetres.cli.hcwify", too_large)
    assert main(["verify", M]) == 3
    out = capsys.readouterr().out
    assert "hcw: fail (cap)" in out and "rigid_iff_hcw: pass" in out
    # a cap beats any number of other failed checks
    monkeypatch.setattr("posetres.cli.verify_mfr_support", boom)
    monkeypatch.setattr("posetres.cli.conic_iso_check", boom)
    assert main(["verify", M]) == 3
    out = capsys.readouterr().out
    assert "conic_iso: fail (boom)" in out
    assert "support_criterion: fail (boom)" in out


def test_rigid_and_betti_poset(capsys):
    assert main(["rigid", M]) == 0
    out = capsys.readouterr().out
    assert "rigid: false" in out and "witness:" in out
    assert main(["betti-poset", M]) == 0
    out = capsys.readouterr().out
    assert "elements: 12" in out and "hcw: false" in out


def test_determinism(capsys):
    assert main(["minbasis", M, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["minbasis", M, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_verify_checks_each_strand_set_once(monkeypatch, capsys):
    """`posetres verify` reads strands twice: the resolution's, and those
    of the incidence poset's conic complex, which the support criterion
    and hcwify share through supports_resolution's memo."""
    calls = []
    is_resolution = posetres.gradedcomplex.is_resolution

    def spy(C):
        calls.append(C)
        return is_resolution(C)

    for mod in (posetres.cli, posetres.conic, posetres.incidence):
        monkeypatch.setattr(mod, "is_resolution", spy, raising=False)
    assert main(["verify", RP2, "--char", "2"]) == 0
    assert "support_criterion: pass" in capsys.readouterr().out
    assert len(calls) == 2
