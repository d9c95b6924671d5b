import json

import pytest

import posetres.gradedcomplex
import posetres.posets
from posetres import Poset
from posetres.cli import main, parse_ideal_file
from posetres.errors import ParseError, TooLarge, VerificationError
from conftest import FIXTURES

RP2 = str(FIXTURES / "rp2.ideal")
M = str(FIXTURES / "m.ideal")


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


def test_parse_errors():
    for text in ("", "x*y\nvars: x y\n", "1 2\n1 2 3\n", "x^0\n", "x^-1\n"):
        with pytest.raises(ParseError):
            parse_ideal_file(text)


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
    for char in ("4", "1", "-2"):
        assert main(["resolve", M, "--char", char]) == 2
    capsys.readouterr()
    p = tmp_path / "bad.json"
    for obj in ({}, {"elements": [{"id": 1}, {"id": 2}, {"id": 3}],
                     "covers": [[1, 2, 3]]},
                {"elements": [{"id": [1]}], "covers": []}):
        p.write_text(json.dumps(obj))
        assert main(["conic", str(p), "--poset"]) == 2
        assert capsys.readouterr().err.startswith("error:")


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
    assert main(["conic", str(p), "--poset"]) == 3


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


def test_verify_all_pass(capsys):
    assert main(["verify", RP2, "--char", "2"]) == 0
    out = capsys.readouterr().out
    assert "fail" not in out
    assert "rigid: false" in out and "betti_poset_hcw: false" in out


def test_verify_reports_stage_failures(monkeypatch, capsys):
    def boom(*args):
        raise VerificationError("boom")

    monkeypatch.setattr("posetres.cli.hcwify", boom)
    assert main(["verify", M]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "hcw: fail (boom)" in lines
    assert lines[-1] == "rigid_iff_hcw: pass"
    monkeypatch.setattr("posetres.cli.make_minimal_support_basis", boom)
    assert main(["verify", M]) == 4
    out = capsys.readouterr().out
    for name in ("minimal_support", "conic_iso", "support_criterion", "hcw"):
        assert f"{name}: fail (boom)" in out
    assert "rigid_iff_hcw: pass" in out


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
