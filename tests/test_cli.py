import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biserial.cli import main
from biserial.families import build_lambda1prime
from biserial.fields import field_from_spec
from biserial.homology import _content_key
from biserial.modfiles import emit_module_raw, parse_module_file
from biserial.presentation import ALPHA, Arrow, Presentation, Quiver, emit_presentation
from biserial.reps import Algebra, Representation, random_module
from oracles import from_rows


@pytest.fixture()
def z3_file(tmp_path):
    path = tmp_path / "Z3.mod"
    path.write_text(
        "module Z3 over lambda_r1_m3\n"
        "string a3 [ be_a3_b2^+1 al_b3_b2^-1 be_b3_c2^+1 al_a2_c2^-1 ]\n")
    return str(path)


@pytest.fixture()
def u_file(tmp_path):
    path = tmp_path / "u.mod"
    path.write_text("module u over lambda_r1_m0\nraw\ndim u 1\n")
    return str(path)


def _tampered_tower(monkeypatch, tamper):
    """Make the tower of ``verify --r 2 --m-max 2``, lambda(2, 3), come out
    of the generator as ``tamper`` leaves it."""
    from biserial import claims

    real = claims.build_lambda
    monkeypatch.setattr(claims, "build_lambda",
                        lambda r, m: tamper(real(r, m)) if m == 3 else real(r, m))


@pytest.mark.parametrize("tamper, level", [
    # One more arrow, from a vertex of levels 1 and 2 up to level 3.
    (lambda p: Presentation(p.name, Quiver(p.quiver.vertices, [
        *p.quiver.arrows.values(), Arrow("x", "a1", "a3", ALPHA)]), p.relations),
     "level 1 is not lambda_r2_m3 restricted to its vertices: arrows x leave it"),
    # The loop at u no longer squares to zero.
    (lambda p: Presentation(p.name, p.quiver, [
        rel for rel in p.relations if rel.left != ("al_u_u", "al_u_u")]),
     "level 0 is not lambda_r2_m3 restricted to its vertices"),
], ids=["extra-arrow", "dropped-relation"])
def test_verify_on_a_tampered_tower_is_an_internal_error(monkeypatch, capsys, tamper, level):
    _tampered_tower(monkeypatch, tamper)
    assert main(["verify", "prop-2", "--r", "2", "--m-max", "2", "--structured"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[0] == f"internal error: RuntimeError: {level}"


def test_build_emit_has_ten_vertices(capsys):
    assert main(["algebra", "emit", "lambda:r=1,m=0"]) == 0
    out = capsys.readouterr().out
    assert out.count("vertex ") == 10
    assert out.splitlines()[0] == "algebra lambda_r1_m0"


def test_build_summary(capsys):
    assert main(["algebra", "build", "lambda:r=1,m=5"]) == 0
    assert "dimension 78" in capsys.readouterr().out


def test_parse_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra A\nvertex x\nrel zero ghost\n")
    assert main(["algebra", "parse", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_round_trip_through_files(tmp_path, capsys):
    out = tmp_path / "alg.alg"
    assert main(["algebra", "emit", "lambda1prime:r=1", "-o", str(out)]) == 0
    assert main(["algebra", "parse", str(out)]) == 0
    assert "14 vertices" in capsys.readouterr().out


def test_a_presentation_file_whose_path_has_a_colon_is_read_as_a_file(
        tmp_path, capsys, monkeypatch):
    # A spec that names an existing file is that file, colon or not; any
    # other spec with a colon is a family spec, with the family's errors.
    folder = tmp_path / "colon:dir"
    folder.mkdir()
    assert main(["algebra", "emit", "lambda:r=2,m=2", "-o", str(folder / "l22.alg")]) == 0
    (tmp_path / "s.mod").write_text("module S over lambda_r2_m2\nraw\ndim c2 1\n")
    monkeypatch.chdir(tmp_path)
    assert main(["module", "pd", "--algebra", "colon:dir/l22.alg", "s.mod",
                 "--structured"]) == 0
    by_file = capsys.readouterr().out
    assert main(["module", "pd", "--algebra", "lambda:r=2,m=2", "s.mod",
                 "--structured"]) == 0
    assert capsys.readouterr().out == by_file
    assert main(["module", "pd", "--algebra", "colon:dir/none.alg", "s.mod"]) == 2
    assert capsys.readouterr().err == "error: bad family parameter 'dir/none.alg'\n"


def test_projectives_structured(capsys):
    assert main(["algebra", "projectives", "lambda:r=1,m=5", "--structured"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 22 and {r["field"] for r in records} == {"q"}
    c2 = next(r for r in records if r["vertex"] == "c2")
    assert c2["radical_layers"] == [{"c2": 1}, {"b1": 1, "c1": 1}, {"a0": 1}, {"c0": 1}]
    assert c2["dim"] == sum(c2["dims"].values()) == 5


def test_algebra_dot_of_a_family(capsys):
    assert main(["algebra", "dot", "lambda1prime:r=1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == 'digraph "lambda1prime_r1" {' and lines[-1] == "}"
    edges = [line for line in lines if "->" in line]
    assert len(edges) == len(build_lambda1prime(1).quiver.arrows)
    assert '  "c2" -> "c1" [style=solid, label="al_c2_c1"];' in edges


def test_projectives_table(capsys):
    assert main(["algebra", "projectives", "lambda:r=1,m=5"]) == 0
    out = capsys.readouterr().out
    assert "P(a1): dim  4" in out
    assert "P(c1): dim  6" in out


def test_module_pd_finite(z3_file, capsys):
    assert main(["module", "pd", z3_file, "--algebra", "lambda:r=1,m=3"]) == 0
    assert "Finite(4)" in capsys.readouterr().out


def test_module_pd_infinite(u_file, capsys):
    assert main(["module", "pd", u_file, "--algebra", "lambda:r=1,m=0"]) == 0
    out = capsys.readouterr().out
    assert "Infinite (cycle 0≅1)" in out


def test_module_pd_structured(z3_file, capsys):
    assert main(["module", "pd", z3_file, "--algebra", "lambda:r=1,m=3",
                 "--structured", "--seed", "9"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["verdict"] == "finite" and rec["pd"] == 4
    assert rec["module"] == "Z3" and rec["field"] == "q"
    assert rec["seed"] == 9
    assert rec["chain"][-1] == []


def test_module_pd_strict_inconclusive(tmp_path, capsys):
    # An inconclusive chain exits 3 with no flag, as on every command, and
    # the --strict that once asked for it is an unrecognized argument.
    path = tmp_path / "d0.mod"
    path.write_text("module d0 over lambda_r2_m0\nraw\ndim d0 1\n")
    argv = ["module", "pd", str(path), "--algebra", "lambda:r=2,m=0", "--cutoff", "1"]
    # Chain d0 -> d1 -> d2 -> 0 cannot finish within one step.
    assert main(argv) == 3
    assert "Inconclusive (cutoff 1)" in capsys.readouterr().out
    assert main([*argv, "--structured"]) == 3
    rec = json.loads(capsys.readouterr().out)
    assert rec["verdict"] == "inconclusive" and rec["cutoff"] == 1
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--strict"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --strict" in err


def test_module_iso_identical_files(z3_file, capsys):
    assert main(["module", "iso", z3_file, z3_file,
                 "--algebra", "lambda:r=1,m=3"]) == 0
    assert "certified isomorphism" in capsys.readouterr().out


def test_module_iso_failure_exits_1(tmp_path, capsys):
    a = tmp_path / "a.mod"
    a.write_text("module a over lambda_r1_m0\nraw\ndim u 1\n")
    b = tmp_path / "b.mod"
    b.write_text("module b over lambda_r1_m0\nraw\ndim v 1\n")
    assert main(["module", "iso", str(a), str(b),
                 "--algebra", "lambda:r=1,m=0"]) == 1


def test_module_split(tmp_path, capsys):
    path = tmp_path / "pc2.mod"
    path.write_text("module pc2 over lambda1prime_r1\nproj c2\n")
    assert main(["module", "split", str(path),
                 "--algebra", "lambda1prime:r=1", "--structured"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["pc2_copies"] == 1
    assert rec["x_multiplicities"] == [0] * 10


def test_module_split_plain_text_carries_the_record(tmp_path, capsys):
    path = tmp_path / "pc2.mod"
    path.write_text("module pc2 over lambda1prime_r1\nproj c2\n")
    argv = ["module", "split", str(path), "--algebra", "lambda1prime:r=1"]
    assert main([*argv, "--structured"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "splitting of pc2 (field q):",
        f"  c2-string multiplicities: {rec['x_multiplicities']}",
        "  projective c2 copies:     1",
        "  complement dims:          {}",
        f"  certificate checksum:     {rec['certificate_checksum']}"]


@pytest.mark.parametrize("cut", [["u"], ["d1", "d2"], ["b0", "bm1", "v"]])
def test_module_split_over_a_cut_algebra(cut, tmp_path, capsys):
    # Lemma 2's split needs only c2's strings and its amalgam relation: with
    # vertices away from them deleted, S(c2) still splits, certified.
    base = build_lambda1prime(2)
    pres = base.delete_vertices(cut, base.name)
    alg = tmp_path / "cut.alg"
    alg.write_text(emit_presentation(pres))
    mod = tmp_path / "s.mod"
    mod.write_text(f"module S over {pres.name}\nraw\ndim c2 1\n")
    assert main(["module", "split", "--algebra", str(alg), str(mod),
                 "--structured"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["certificate_checksum"]


@pytest.mark.parametrize("cut, missing", [("a1", "unknown arrow 'al_a1_d0'"),
                                          ("d0", "unknown base vertex 'd0'")], ids=["a1", "d0"])
def test_module_split_over_a_cut_algebra_names_the_broken_c2_string(cut, missing,
                                                                   tmp_path, capsys):
    # Without a1 or d0 the first c2-string is no module, and Lemma 2's
    # split has no part to peel for it: an input error.
    base = build_lambda1prime(2)
    pres = base.delete_vertices([cut], base.name)
    alg = tmp_path / "cut.alg"
    alg.write_text(emit_presentation(pres))
    mod = tmp_path / "s.mod"
    mod.write_text(f"module S over {pres.name}\nraw\ndim c2 1\n")
    assert main(["module", "split", "--algebra", str(alg), str(mod)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: lambda1prime_r2: c2-string 1, StringWord(d0 [ al_a1_d0^-1 be_a1_a0^+1"
        f" al_c1_a0^-1 al_c2_c1^-1 be_c2_b1^+1 ]), is not a module: {missing}\n")


@pytest.mark.parametrize("broken", ["no vertex a1", "no amalgam relation at c2"])
def test_module_split_of_a_c2_free_module_still_checks_the_algebra(broken, tmp_path, capsys):
    # A c2-free module is its own M', but only over an algebra that Lemma 2's
    # split can read: with a c2-string cut or c2's amalgam relation gone,
    # it is an input error as for any module.
    base = build_lambda1prime(2)
    if broken == "no vertex a1":
        pres = base.delete_vertices(["a1"], base.name)
    else:
        pres = Presentation(base.name, base.quiver,
                            [r for r in base.relations if r.kind != "eq"
                             or base.path_endpoints(r.left)[0] != "c2"])
    alg = tmp_path / "broken.alg"
    alg.write_text(emit_presentation(pres))
    mod = tmp_path / "s.mod"
    mod.write_text(f"module S over {pres.name}\nraw\ndim c1 1\n")
    assert main(["module", "split", "--algebra", str(alg), str(mod)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = {"no vertex a1": "is not a module: unknown arrow 'al_a1_d0'"}.get(broken, broken)
    assert captured.err.startswith("error: ") and captured.err.endswith(f"{message}\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text, checksum", [
    ("dim u 1\n", "e5b4d1ada041c96c"),
    ("dim a1 2\ndim d0 2\nmat al_a1_d0 2 2\n1 1\n0 1\n", "5a2337689e62d530")],
    ids=["off U", "on U"])
def test_module_split_of_a_c2_free_module_is_certified_by_the_identity(
        text, checksum, tmp_path, capsys):
    # Off the path U = d0 - a1 - a0 - c1 - c2 - b1 and, in a basis that is
    # not the identity's, on it.
    path = tmp_path / "c2_free.mod"
    path.write_text(f"module S over lambda1prime_r2\nraw\n{text}")
    assert main(["module", "split", str(path), "--algebra", "lambda1prime:r=2",
                 "--structured"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["certificate_checksum"] == checksum
    assert rec["pc2_copies"] == 0 and rec["x_multiplicities"] == [0] * 10


def test_module_split_outside_lemma_2_is_inconclusive(z3_file, capsys):
    # Z3 over lambda(1, 3) has support outside lambda1prime's vertices, so
    # no splitting certificate exists; that is no sound negative.
    assert main(["module", "split", z3_file, "--algebra", "lambda:r=1,m=3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("certificate failure: a c2 component of dimension 1 is left"
                            " after peeling P(c2) and the ten c2-strings\n")


ALL_PARTS_MOD = """\
module X over lambda1prime_r2
string a0 [ al_c1_a0^-1 al_c2_c1^-1 be_c2_b1^+1 ]
module P over lambda1prime_r2
proj c2
module Y over lambda1prime_r2
string a1 [ al_a1_d0^+1 ]
module U over lambda1prime_r2
raw
dim u 1
module M over lambda1prime_r2
sum X P Y U X
"""


@pytest.mark.parametrize("field", ["q", "fp:101", "fp:2"])
def test_module_split_with_every_part_is_pinned(field, tmp_path, capsys):
    # X twice, one P(c2), and an M' with a string on U and a vertex off it.
    path = tmp_path / "all_parts.mod"
    path.write_text(ALL_PARTS_MOD)
    assert main(["module", "split", str(path), "--algebra", "lambda1prime:r=2",
                 "--field", field, "--structured"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["certificate_checksum"] == "8a3673555f861679"
    assert rec["pc2_copies"] == 1
    assert rec["x_multiplicities"] == [0, 0, 2, 0, 0, 0, 0, 0, 0, 0]
    assert rec["m_prime_dims"] == [["a1", 1], ["d0", 1], ["u", 1]]


def test_module_split_peels_a_projective_summand_is_pinned(tmp_path, capsys):
    # P(c2) (+) the string c1 [ al_c2_c1^-1 ]: P(c2) is peeled off before
    # any c2-string.
    path = tmp_path / "pc2.mod"
    path.write_text("module P over lambda1prime_r2\nproj c2\n"
                    "module S over lambda1prime_r2\nstring c1 [ al_c2_c1^-1 ]\n"
                    "module M over lambda1prime_r2\nsum P S\n")
    assert main(["module", "split", str(path), "--algebra", "lambda1prime:r=2",
                 "--structured"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["certificate_checksum"] == "a7d3ba0da4090567"
    assert rec["pc2_copies"] == 1


def test_module_split_without_vertex_u_is_pinned(tmp_path, capsys):
    # lambda1prime(2) less the lines that name u: its vertex, its loop and
    # the arrow into it, with their relations.
    assert main(["algebra", "emit", "lambda1prime:r=2"]) == 0
    text = "".join(line for line in capsys.readouterr().out.splitlines(keepends=True)
                   if line != "vertex u\n" and "al_u_u" not in line and "be_a0_u" not in line)
    alg = tmp_path / "cut_u.alg"
    alg.write_text(text)
    assert main(["algebra", "parse", str(alg)]) == 0
    assert capsys.readouterr().out == "ok: lambda1prime_r2: 14 vertices, 19 arrows, 18 relations\n"
    mod = tmp_path / "s_c2.mod"
    mod.write_text("module S over lambda1prime_r2\nraw\ndim c2 1\n")
    assert main(["module", "split", "--algebra", str(alg), str(mod), "--structured"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate_checksum"] == "583af82b0ddaa418"


def test_module_split_with_a_corrupt_peeled_section_is_inconclusive(
        tmp_path, monkeypatch, capsys):
    # The peels certify nothing themselves: embed the second X copy as the
    # first, and the final certificate catches it.
    from biserial import decomp

    real = decomp.assemble_sum_map

    def corrupt(maps, target):
        first, second, *rest = maps
        assert first.source.dims == second.source.dims and first is not second
        return real([first, first, *rest], target)

    monkeypatch.setattr(decomp, "assemble_sum_map", corrupt)
    path = tmp_path / "all_parts.mod"
    path.write_text(ALL_PARTS_MOD)
    assert main(["module", "split", str(path), "--algebra", "lambda1prime:r=2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "certificate failure: final splitting certificate failed\n"


def test_module_syzygy_writes_raw_file(z3_file, tmp_path, capsys):
    out = tmp_path / "omega.mod"
    assert main(["module", "syzygy", z3_file, "--algebra", "lambda:r=1,m=3",
                 "-o", str(out)]) == 0
    assert out.read_text().startswith("module syzygy_of_Z3 over lambda_r1_m3")
    capsys.readouterr()
    # The written file parses and has the next witness's dimension.
    assert main(["module", "pd", str(out), "--algebra", "lambda:r=1,m=3"]) == 0
    assert "Finite(3)" in capsys.readouterr().out


def test_module_hom(z3_file, capsys):
    assert main(["module", "hom", z3_file, z3_file,
                 "--algebra", "lambda:r=1,m=3"]) == 0
    assert "= 1" in capsys.readouterr().out


def test_module_hom_structured(z3_file, capsys):
    assert main(["module", "hom", z3_file, z3_file, "--algebra", "lambda:r=1,m=3",
                 "--structured"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "source": "Z3", "target": "Z3", "field": "q", "hom_dim": 1}


def test_module_syzygy_structured(z3_file, capsys):
    # Omega(Z_3) has the dimension vector of Z_2 (t = 2).
    assert main(["module", "syzygy", z3_file, "--algebra", "lambda:r=1,m=3",
                 "--structured"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "module": "Z3", "field": "q", "total": 9, "syzygy_dims": {
            "a0": 1, "a1": 1, "a2": 1, "b1": 1, "b2": 1, "c1": 2, "c2": 2}}


def test_module_dot(z3_file, capsys):
    assert main(["module", "dot", z3_file,
                 "--algebra", "lambda:r=1,m=3"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_verify_single_claim(capsys):
    assert main(["verify", "prop-2", "--r", "1", "--m-max", "1"]) == 0
    out = capsys.readouterr().out
    assert "claim prop-2: PASS" in out
    assert "summary: 1 pass" in out


def test_verify_structured_deterministic(capsys):
    args = ["verify", "simples-pd", "appendix-projectives",
            "--r", "1", "--m-max", "1", "--seed", "42", "--structured"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    records = [json.loads(line) for line in first.splitlines()]
    assert records[0]["claim"] == "simples-pd"
    assert records[-1]["summary"]["pass"] == 2


def test_verify_structured_digests_each_check_once(monkeypatch, capsys):
    # Each claim's record is built once: one digest per check, and the
    # final digest is of the records as printed.
    from biserial import claims
    from biserial.homology import record_digest

    calls = []

    def counting(record):
        calls.append(record)
        return record_digest(record)

    monkeypatch.setattr(claims, "record_digest", counting)
    assert main(["verify", "simples-pd", "appendix-projectives", "--r", "1",
                 "--m-max", "1", "--structured"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(calls) == sum(len(rec["checks"]) for rec in records[:-1]) + 1
    assert records[-1]["digest"] == record_digest(records[:-1])


def test_verify_exits_1_when_a_claim_fails(monkeypatch, capsys):
    from biserial import claims

    real = claims.CLAIMS["appendix-projectives"]

    def failing(config):
        report = real(config)
        report.status = report.checks[0].status = claims.FAIL
        return report

    monkeypatch.setitem(claims.CLAIMS, "appendix-projectives", failing)
    # A FAIL outranks an INCONCLUSIVE (prop-2 cannot finish in one step).
    assert main(["verify", "prop-2", "appendix-projectives", "--m-max", "0",
                 "--cutoff", "1"]) == 1
    out = capsys.readouterr().out
    assert "claim appendix-projectives: FAIL" in out
    assert out.splitlines()[-1] == "summary: 0 pass, 1 fail, 1 inconclusive"


def test_verify_unknown_claim_exits_2(capsys):
    assert main(["verify", "nope"]) == 2


def test_verify_inconclusive_exits_3(capsys):
    # A one-step cutoff cannot finish any witness chain.
    assert main(["verify", "prop-2", "--r", "1", "--m-max", "0",
                 "--cutoff", "1"]) == 3
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_custom_presentation_end_to_end(tmp_path, capsys):
    # A user-supplied non-family algebra: the three-vertex line with the
    # composite killed; the leftmost simple has projective dimension two.
    alg = tmp_path / "nak.alg"
    alg.write_text(
        "algebra nak\nvertex x1\nvertex x2\nvertex x3\n"
        "arrow f : alpha x1 -> x2\narrow g : beta x2 -> x3\n"
        "rel zero g f\n")
    mod = tmp_path / "s1.mod"
    mod.write_text("module s1 over nak\nraw\ndim x1 1\n")
    assert main(["algebra", "parse", str(alg)]) == 0
    capsys.readouterr()
    assert main(["module", "pd", str(mod), "--algebra", str(alg)]) == 0
    assert "Finite(2)" in capsys.readouterr().out


def test_verify_records_field(capsys):
    assert main(["verify", "appendix-projectives", "--field", "fp:101",
                 "--structured"]) == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["config"]["field"] == "fp:101"


def test_missing_file_exits_2(capsys):
    assert main(["module", "pd", "/nonexistent.mod",
                 "--algebra", "lambda:r=1,m=0"]) == 2


def test_verify_negative_samples_exits_2(capsys):
    assert main(["verify", "lemma-2", "--samples", "-1"]) == 2
    captured = capsys.readouterr()
    assert "samples must be nonnegative" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("claim", ["lemma-2", "corollary-3"])
def test_verify_zero_samples_is_inconclusive(claim, capsys):
    assert main(["verify", claim, "--samples", "0", "--structured"]) == 3
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[0]["status"] == "inconclusive"
    assert records[0]["checks"][0]["status"] == "inconclusive"


def test_verify_lemma_2_on_zero_modules_only_is_inconclusive(capsys):
    # --max-dim 0 draws every sample at budget 0: the zero module, whose
    # splitting verifies nothing.
    assert main(["verify", "lemma-2", "--max-dim", "0", "--samples", "3",
                 "--structured"]) == 3
    check = json.loads(capsys.readouterr().out.splitlines()[0])["checks"][0]
    assert check["status"] == "inconclusive"
    assert check["evidence"]["nonzero_samples"] == 0
    assert check["name"] == ("3 random samples, no nonzero sample drawn: "
                             "no splitting verified")


def test_verify_syzygy_descent_with_no_level_in_range_exits_3(capsys):
    assert main(["verify", "syzygy-descent", "--m-max", "0", "--structured"]) == 3
    record, last = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert record["status"] == "inconclusive"
    assert record["checks"][0]["evidence"] == {"m_max": 0}
    assert last["summary"]["inconclusive"] == 1


@pytest.mark.parametrize("claim_flags", [["simples-pd"],
                                         ["syzygy-descent", "--m-max", "0"]])
def test_verify_rejects_a_composite_modulus(claim_flags, capsys):
    # A config parses its field once, after its own checks, so a bad field
    # is an error even for a claim that would build no algebra.
    assert main(["verify", *claim_flags, "--field", "fp:4"]) == 2
    assert capsys.readouterr() == ("", "error: modulus 4 is not prime\n")
    assert main(["verify", *claim_flags, "--samples", "-1", "--field", "fp:4"]) == 2
    assert capsys.readouterr().err == "error: samples must be nonnegative\n"


@pytest.mark.parametrize("subcommand", ["build", "parse", "emit", "projectives", "dot"])
def test_algebra_without_file_or_family_names_both(subcommand, capsys):
    # ALGEBRA, a file or a family spec, is argparse's to require: it exits 2.
    with pytest.raises(SystemExit) as exc:
        main(["algebra", subcommand])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: the following arguments are required: algebra\n")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_verify_into_closed_pipe_exits_quietly(unbuffered):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "biserial", "verify", "simples-pd", "prop-2",
         "lemma-1", "--m-max", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # Unbuffered, the first claim line arrives before the rest is written;
    # buffered, everything is written at exit, long after the close.
    if unbuffered:
        assert proc.stdout.readline().startswith(b"claim simples-pd")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == ""


@pytest.mark.parametrize("body, line", [
    ("raw\ndim a0 x\n", 3),
    ("raw\ndim u 1\nmat al_u_u 1 x\n0\n", 4),
    ("raw\ndim u -1\n", 3),
])
def test_raw_module_bad_integer_names_line(tmp_path, capsys, body, line):
    path = tmp_path / "bad.mod"
    path.write_text("module m over lambda_r1_m0\n" + body)
    assert main(["module", "pd", str(path), "--algebra", "lambda:r=1,m=0"]) == 2
    err = capsys.readouterr().err
    assert f"line {line}:" in err and "nonnegative integer" in err


def test_iso_search_miss_over_gf2_is_inconclusive(capsys):
    # Over GF(2) forty random trials miss the isomorphism from the syzygy
    # of member (1, 2) to member (0, 2); that proves nothing, so the claim
    # is inconclusive (it used to fail and exit 1).
    assert main(["verify", "section-4", "--field", "fp:2", "--structured"]) == 3
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records[0]["status"] == "inconclusive"
    missed = [c for c in records[0]["checks"] if c["status"] != "pass"]
    assert [c["name"] for c in missed] == [
        "syzygy of member (m=1, t=2) is member (m=0, t=2)"]
    assert missed[0]["status"] == "inconclusive"
    assert missed[0]["evidence"]["reason"] == "no isomorphism found"
    assert missed[0]["evidence"]["iso_trials"] == 40


def test_internal_error_is_not_a_usage_error(z3_file, monkeypatch, capsys):
    from biserial import homology

    def broken(module):
        raise ValueError("span not stable under arrow al_c2_c1")

    monkeypatch.setattr(homology, "syzygy", broken)
    assert main(["module", "syzygy", z3_file, "--algebra", "lambda:r=1,m=3"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ValueError: span not stable")


def test_a_cover_map_that_is_not_onto_is_an_internal_error(z3_file, monkeypatch, capsys):
    from biserial.matrices import Matrix

    real = Matrix.unit_complement
    monkeypatch.setattr(Matrix, "unit_complement", lambda self: real(self)[1:])
    assert main(["module", "syzygy", z3_file, "--algebra", "lambda:r=1,m=3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: AssertionError: the cover map of ")
    assert err.splitlines()[0].endswith(" is not onto")


def test_an_iso_candidate_failing_its_squares_is_an_internal_error(z3_file, monkeypatch,
                                                                   capsys):
    from biserial import homology
    from biserial.reps import ModuleMap
    from oracles import scale

    real = homology.hom_combination

    def doubled_at_a3(source, target, hom, coeffs):
        f = real(source, target, hom, coeffs)
        return ModuleMap(source, target, {**f.mats, "a3": scale(f.mats["a3"], 2)})

    monkeypatch.setattr(homology, "hom_combination", doubled_at_a3)
    assert main(["module", "iso", z3_file, z3_file, "--algebra", "lambda:r=1,m=3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: AssertionError: an isomorphism candidate "
                          "fails the squares of arrows be_a3_b2\n")


@pytest.mark.parametrize("argv, message", [
    (["verify", "lemma-2", "--max-dim", "-1"], "max_dim must be nonnegative"),
    (["verify", "prop-2", "--cutoff", "0"], "cutoff must be at least 1"),
    (["verify", "prop-2", "--t-max", "0"], "t_max must be at least 1"),
    (["algebra", "build", "lambda:r=1"], "family 'lambda' needs parameter 'm'"),
    (["algebra", "parse", "lambda:r=1,r=2,m=3"], "family parameter 'r' given twice"),
    (["module", "pd", "Z3.mod", "--algebra", "lambda:r=2,m=3,q=4"],
     "family 'lambda' takes no parameter 'q'"),
])
def test_bad_flag_values_exit_2(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["algebra", "parse", "{alg}"],
    ["algebra", "emit", "{alg}"],
    ["algebra", "emit", "lambda:r=1,m=0"],
    ["algebra", "dot", "lambda:r=1,m=0"],
], ids=["parse", "emit-file", "emit-family", "dot"])
@pytest.mark.parametrize("field, message", [
    ("nonsense", "bad field spec 'nonsense' (expected 'q' or 'fp:<p>')"),
    ("fp:4", "modulus 4 is not prime"),
], ids=["nonsense", "composite"])
def test_a_bad_field_exits_2_where_no_algebra_is_built(argv, field, message, tmp_path,
                                                       capsys):
    # A presentation is field-independent: parse, emit and dot take no
    # --field, so any value, good or bad, is an unrecognized argument, and
    # emit -o writes nothing.
    alg, out = tmp_path / "a.alg", tmp_path / "out.txt"
    alg.write_text("algebra A\nvertex x\n")
    argv = [a.replace("{alg}", str(alg)) for a in argv]
    for value in (field, "fp:101"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--field", value])
        assert exc.value.code == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and "unrecognized arguments: --field" in err
        assert message not in err
    if argv[1] == "emit":
        with pytest.raises(SystemExit):
            main([*argv, "-o", str(out), "--field", "fp:101"])
        assert not out.exists()
    assert main(argv) == 0


@pytest.mark.parametrize("argv", [
    ["algebra", "build", "lambda:r=1,m=0"],
    ["algebra", "projectives", "lambda:r=1,m=0"],
    ["module", "pd", "{mod}", "--algebra", "lambda:r=1,m=0"],
    ["module", "syzygy", "{mod}", "--algebra", "lambda:r=1,m=0"],
    ["module", "hom", "{mod}", "{mod}", "--algebra", "lambda:r=1,m=0"],
    ["module", "iso", "{mod}", "{mod}", "--algebra", "lambda:r=1,m=0"],
    ["module", "split", "{mod}", "--algebra", "lambda:r=1,m=0"],
    ["module", "dot", "{mod}", "--algebra", "lambda:r=1,m=0"],
], ids=lambda argv: "-".join(argv[:2]))
@pytest.mark.parametrize("field, message", [
    ("nonsense", "bad field spec 'nonsense' (expected 'q' or 'fp:<p>')"),
    ("fp:4", "modulus 4 is not prime"),
], ids=["nonsense", "composite"])
def test_a_bad_field_exits_2_where_an_algebra_is_built(argv, field, message, u_file,
                                                      capsys):
    argv = [u_file if a == "{mod}" else a for a in argv]
    assert main([*argv, "--field", field]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("subcommand", ["pd", "syzygy", "hom", "iso", "split", "dot"])
def test_module_help_names_the_algebra_argument(subcommand, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["module", subcommand, "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--algebra ALGEBRA family spec like lambda:r=1,m=3 or a file path" in help_text


@pytest.mark.parametrize("subcommand", ["build", "emit", "projectives", "dot"])
def test_lambda1prime_rejects_an_m(subcommand, capsys):
    assert main(["algebra", subcommand, "lambda1prime:r=1,m=3"]) == 2
    assert capsys.readouterr() == ("", "error: family 'lambda1prime' takes no parameter 'm'\n")
    assert main(["algebra", subcommand, "lambda1prime:r=1"]) == 0


@pytest.mark.parametrize("argv", [
    ["algebra", "emit", "{alg}", "--family", "lambda1prime", "--r", "3"],
    ["algebra", "projectives", "{alg}", "--family", "lambda", "--r", "2", "--m", "5"],
    ["algebra", "dot", "{alg}", "--m", "7"],
    ["algebra", "build", "--family", "lambda", "--r", "1", "--m", "0", "-o", "{out}"],
    ["algebra", "build", "lambda:r=1,m=0", "-o", "{out}"],
    ["algebra", "build", "lambda:r=1,m=0", "--emit"],
], ids=["emit-family", "projectives-family", "dot-m", "build-output", "build-spec-output",
        "build-emit"])
def test_algebra_rejects_the_family_flags(argv, tmp_path, capsys):
    # One way to name an algebra: a flag beside ALGEBRA is argparse's
    # unrecognized argument, never a part of the request left unread.
    alg, out = tmp_path / "a.alg", tmp_path / "out.alg"
    alg.write_text("algebra A\nvertex x\n")
    argv = [a.replace("{alg}", str(alg)).replace("{out}", str(out)) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_every_algebra_subcommand_reads_a_file_and_a_spec_alike(tmp_path, capsys):
    path = tmp_path / "l12.alg"
    assert main(["algebra", "emit", "lambda:r=1,m=2", "-o", str(path)]) == 0
    for sub in ["build", "parse", "emit", "projectives", "dot"]:
        assert main(["algebra", sub, "lambda:r=1,m=2"]) == 0
        by_spec = capsys.readouterr()
        assert main(["algebra", sub, str(path)]) == 0
        assert capsys.readouterr() == by_spec


def test_every_input_error_derives_from_input_error():
    import biserial
    from biserial import InputError
    from biserial.cli import UsageError
    from biserial.modfiles import ModuleFileError

    names = ["FieldError", "PresentationError", "ParseError", "BoundExceeded",
             "RepresentationError", "InvalidString", "ConfigError"]
    for cls in [UsageError, ModuleFileError, *(getattr(biserial, n) for n in names)]:
        assert issubclass(cls, InputError), cls
    assert not issubclass(biserial.CertificateFailure, InputError)
    assert str(InputError("bad")) == "bad"
    assert str(ModuleFileError("bad", 3)) == "line 3: bad"
    located = biserial.ParseError("bad", 3, column=5)
    assert (str(located), located.line, located.column) == ("line 3, column 5: bad", 3, 5)


def test_bad_module_cutoff_exits_2(z3_file, capsys):
    assert main(["module", "pd", z3_file, "--algebra", "lambda:r=1,m=3",
                 "--cutoff", "0"]) == 2
    assert "--cutoff must be at least 1" in capsys.readouterr().err


def test_an_algebra_with_infinitely_many_paths_exits_2_naming_one(tmp_path, capsys):
    alg = tmp_path / "loop.alg"
    alg.write_text("algebra loop\nvertex x\narrow l : alpha x -> x\n")
    mod = tmp_path / "s.mod"
    mod.write_text("module S over loop\nraw\ndim x 1\n")
    assert main(["module", "pd", str(mod), "--algebra", str(alg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: algebra 'loop': ") and " l*l " in err
    assert err.count("\n") == 1


def test_unreadable_presentation_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.alg"
    path.write_bytes(b"\xff\xfe\x00algebra")
    assert main(["algebra", "parse", str(path)]) == 2
    assert main(["algebra", "parse", str(tmp_path)]) == 2


def test_module_iso_miss_exits_3_with_the_trials_spent(z3_file, capsys):
    # With no trials the search cannot find the isomorphism Z3 -> Z3; a
    # miss proves nothing (it used to exit 1 and print 'default trials').
    assert main(["module", "iso", z3_file, z3_file, "--algebra", "lambda:r=1,m=3",
                 "--trials", "0"]) == 3
    assert "no isomorphism found after 0 trials" in capsys.readouterr().out


def test_module_iso_zero_hom_is_a_proof(tmp_path, capsys):
    # Two arrows x -> y; the strings along either one have the same
    # dimension vector, but every map between them is zero.
    alg = tmp_path / "k.alg"
    alg.write_text("algebra K\nvertex x\nvertex y\n"
                   "arrow a : alpha x -> y\narrow b : beta x -> y\n")
    a = tmp_path / "a.mod"
    a.write_text("module a over K\nstring x [ a^+1 ]\n")
    b = tmp_path / "b.mod"
    b.write_text("module b over K\nstring x [ b^+1 ]\n")
    assert main(["module", "iso", str(a), str(b), "--algebra", str(alg)]) == 1
    assert "not isomorphic: Hom space is zero" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["module", "iso", "{z3}", "{z3}", "--algebra", "lambda:r=1,m=3", "--trials", "-5"],
     "--trials must be nonnegative"),
    (["module", "pd", "{z3}", "--algebra", "lambda:r=1,m=3", "--trials", "-1"],
     "--trials must be nonnegative"),
    (["verify", "prop-2", "--trials", "-1"], "trials must be nonnegative"),
])
def test_negative_trials_exit_2(argv, message, z3_file, capsys):
    assert main([a.replace("{z3}", z3_file) for a in argv]) == 2
    assert message in capsys.readouterr().err


def test_module_iso_negatives_are_structured_records(z3_file, tmp_path, capsys):
    # A sound negative and a search miss each print one JSON record, with
    # the same exit codes as the plain-text answers.
    a = tmp_path / "a.mod"
    a.write_text("module a over lambda_r1_m0\nraw\ndim u 1\n")
    b = tmp_path / "b.mod"
    b.write_text("module b over lambda_r1_m0\nraw\ndim v 1\n")
    assert main(["module", "iso", str(a), str(b), "--algebra", "lambda:r=1,m=0",
                 "--structured"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "source": "a", "target": "b", "field": "q", "status": "not_iso",
        "reason": "dimension vectors differ"}
    assert main(["module", "iso", z3_file, z3_file, "--algebra", "lambda:r=1,m=3",
                 "--trials", "0", "--field", "fp:101", "--structured"]) == 3
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "source": "Z3", "target": "Z3", "field": "fp:101", "status": "not_found",
        "reason": "no isomorphism found", "trials": 0}


def test_verify_pd_chains_use_the_trials_flag(capsys):
    # With no iso trials the loop simples' chains cannot certify a cycle,
    # so their infinite verdicts are inconclusive (they used to pass on
    # the default trials while the record said "trials": 0).
    assert main(["verify", "simples-pd", "--m-max", "0", "--trials", "0",
                 "--structured"]) == 3
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["status"] == "inconclusive"
    loops = [c for c in record["checks"] if c["name"].endswith("infinite over level 0")]
    assert len(loops) == 5
    assert all(c["status"] == "inconclusive" for c in loops)
    finite = [c for c in record["checks"] if c not in loops]
    assert finite and all(c["status"] == "pass" for c in finite)


def _scrambled_pair(tmp_path, field_spec, seed=5, budget=16):
    """Files holding a random lambda1prime(1) module and a copy of it in
    the basis changed by the upper unitriangular all-ones matrix."""
    alg = Algebra(build_lambda1prime(1), field=field_from_spec(field_spec))
    module = random_module(alg, seed=seed, budget=budget)
    change = {v: from_rows(alg.field, [[int(j >= i) for j in range(d)] for i in range(d)])
              for v, d in module.dims.items() if d}
    mats = {a.name: change[a.target] @ module.mats[a.name] @ change[a.source].inverse()
            for a in alg.pres.quiver.arrows.values()
            if module.dims[a.source] and module.dims[a.target]}
    paths = tmp_path / "m.mod", tmp_path / "n.mod"
    paths[0].write_text(emit_module_raw("m", module))
    paths[1].write_text(emit_module_raw("n", Representation(alg, module.dims, mats)))
    return [str(path) for path in paths]


# Digests of the whole `module iso --structured` line for the pair above,
# recorded from the engine that built each candidate from scaled and
# summed Hom basis maps.
PINNED_ISO = {"q": "7cc2e0a775f3d7ee", "fp:2": "1502be3f28ff96e3",
              "fp:101": "07e864a528dc91aa"}


@pytest.mark.parametrize("field_spec", list(PINNED_ISO))
def test_module_iso_certificates_are_pinned(field_spec, tmp_path, capsys):
    m_file, n_file = _scrambled_pair(tmp_path, field_spec)
    assert main(["module", "iso", m_file, n_file, "--algebra", "lambda1prime:r=1",
                 "--field", field_spec, "--seed", "2", "--structured"]) == 0
    out = capsys.readouterr().out
    assert "certificate" in json.loads(out)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == PINNED_ISO[field_spec]


# The change of basis leaves the pair above equal in content over every
# field.  It moves this 13-dimensional module's arrows, so its two files
# differ.  Digests recorded before the pd chain dropped its End-dimension
# gate.
PINNED_ISO_CHANGED = {"q": "2dad3d499aa698de", "fp:2": "cd8479e4c6428536",
                      "fp:101": "67e437afa612849f"}


@pytest.mark.parametrize("field_spec", list(PINNED_ISO_CHANGED))
def test_module_iso_certificates_across_a_basis_change_are_pinned(field_spec, tmp_path,
                                                                  capsys):
    m_file, n_file = _scrambled_pair(tmp_path, field_spec, seed=4, budget=24)
    alg = Algebra(build_lambda1prime(1), field=field_from_spec(field_spec))
    m, n = (parse_module_file(Path(f).read_text(), alg)[name]
            for f, name in ((m_file, "m"), (n_file, "n")))
    assert _content_key(m) != _content_key(n)
    assert main(["module", "iso", m_file, n_file, "--algebra", "lambda1prime:r=1",
                 "--field", field_spec, "--seed", "2", "--structured"]) == 0
    out = capsys.readouterr().out
    assert "certificate" in json.loads(out)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == PINNED_ISO_CHANGED[field_spec]


LOCAL_ALGEBRA = ("algebra local\nvertex o\n"
                 "arrow x : alpha o -> o\narrow y : beta o -> o\n"
                 "rel zero x y\nrel zero y x\nrel eq x x = y y\n"
                 "rel zero x x x\nrel zero y y y\n")


@pytest.fixture()
def band_files(tmp_path):
    """k<x,y>/(xy, yx, x^2 - y^2, x^3, y^3) and its band module M(2):
    x = [[0, 0], [1, 0]], y = [[0, 0], [2, 0]]."""
    alg, mod = tmp_path / "local.alg", tmp_path / "band.mod"
    alg.write_text(LOCAL_ALGEBRA)
    mod.write_text("module M over local\nraw\ndim o 2\n"
                   "mat x 2 2\n0 0\n1 0\nmat y 2 2\n0 0\n2 0\n")
    return str(alg), str(mod)


def test_pd_cycle_between_syzygies_of_different_content(band_files, capsys):
    # The chain M, Omega M, Omega^2 M keeps dimension vector o:2, and only
    # the iso search certifies Omega^2 M = M: its matrices are M's
    # transposed and halved.  A cycle test on content alone would miss
    # (0, 2) and report (1, 3), or nothing within a short cutoff.
    alg, mod = band_files
    assert main(["module", "pd", "--algebra", alg, mod, "--structured"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "infinite" and record["cycle"] == [0, 2]
    assert main(["module", "pd", "--algebra", alg, mod, "--trials", "0",
                 "--cutoff", "6"]) == 3
    assert "Inconclusive (cutoff 6)" in capsys.readouterr().out


def test_oversized_raw_dim_exits_2_at_its_line(tmp_path, capsys):
    # A loop at a vertex of that dimension is a square zero matrix beyond
    # any memory: the parser must refuse the dim line before allocating.
    alg, mod = tmp_path / "loop.alg", tmp_path / "big.mod"
    alg.write_text("algebra loop\nvertex a\narrow f : alpha a -> a\nrel zero f f\n")
    mod.write_text("module M over loop\nraw\ndim a 99999999999\n")
    assert main(["module", "pd", "--algebra", str(alg), str(mod)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and "99999999999" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("body, line", [
    ("dim a " + "9" * 5000 + "\n", 3),
    ("dim a 1\nmat f " + "9" * 5000 + " 1\n0\n", 4),
    ("dim a 1\nmat f 1 " + "9" * 5000 + "\n0\n", 4),
])
def test_raw_count_too_long_for_int_exits_2_at_its_line(tmp_path, capsys, body, line):
    # int() refuses a token of more than 4,300 digits with a ValueError;
    # the parser must report the bound at the token's line instead.
    alg, mod = tmp_path / "loop.alg", tmp_path / "long.mod"
    alg.write_text("algebra loop\nvertex a\narrow f : alpha a -> a\nrel zero f f\n")
    mod.write_text("module M over loop\nraw\n" + body)
    assert main(["module", "pd", "--algebra", str(alg), str(mod)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ")
    assert "exceeds the supported bound 1000" in err
    assert len(err.splitlines()) == 1


# An arrow with no relation, so any entry of its matrix is a module.
ARROW_ALGEBRA = "algebra arrow\nvertex a\nvertex b\narrow f : alpha a -> b\n"


def _arrow_module(tmp_path, entry):
    alg, mod = tmp_path / "arrow.alg", tmp_path / "m.mod"
    alg.write_text(ARROW_ALGEBRA)
    mod.write_text(f"module M over arrow\nraw\ndim a 1\ndim b 1\nmat f 1 1\n{entry}\n",
                   encoding="utf-8")
    return str(alg), str(mod)


@pytest.mark.parametrize("field, kind", [("q", "rational"), ("fp:2", "residue"),
                                         ("fp:101", "residue")])
@pytest.mark.parametrize("entry", ["1e5000", "0.5", "1_000", "\uff13"])
@pytest.mark.parametrize("subcommand", ["dot", "pd"])
def test_entry_outside_the_literal_grammar_exits_2_at_its_line(subcommand, entry, field,
                                                               kind, tmp_path, capsys):
    # Fraction would read each of these: 1e5000 as an integer of 5,001
    # digits, past the bound int puts on a string of digits, so that
    # ``module dot`` failed printing it (exit 4) and fp:2 took it as 0.
    alg, mod = _arrow_module(tmp_path, entry)
    assert main(["module", subcommand, "--algebra", alg, mod, "--field", field]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line 6: bad {kind} literal {entry!r}\n"


@pytest.mark.parametrize("field, kind", [("q", "rational"), ("fp:2", "residue"),
                                         ("fp:101", "residue")])
def test_a_huge_exponent_is_refused_before_it_is_expanded(field, kind, tmp_path):
    # Fraction("1e99999999") builds a 100-million-digit integer; in a
    # process of its own, so that a stall fails here instead of hanging.
    alg, mod = _arrow_module(tmp_path, "1e99999999")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "biserial", "module", "pd", "--algebra",
                           alg, mod, "--field", field], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: line 6: bad {kind} literal '1e99999999'\n"


REPORT_FILES = {
    "p.mod": "module P over lambda1prime_r2\nproj c2\n",
    "s.mod": "module S over lambda1prime_r2\nraw\ndim c2 1\n",
    "sum.mod": ALL_PARTS_MOD,
    # Isomorphic (each is two copies of the string a1 -> d0), not equal.
    "m.mod": ("module M over lambda1prime_r2\nraw\ndim a1 2\ndim d0 2\n"
              "mat al_a1_d0 2 2\n1 0\n0 1\n"),
    "n.mod": ("module N over lambda1prime_r2\nraw\ndim a1 2\ndim d0 2\n"
              "mat al_a1_d0 2 2\n1 1\n0 1\n"),
}

REPORT_COMMANDS = [
    ["algebra", "projectives", "l1p2.alg"],
    *(["module", "pd", "--algebra", "l1p2.alg", f] for f in ("p.mod", "s.mod", "sum.mod")),
    ["module", "pd", "--algebra", "l1p2.alg", "s.mod", "--cutoff", "2"],
    *(["module", "syzygy", "--algebra", "l1p2.alg", f] for f in ("s.mod", "sum.mod")),
    ["module", "hom", "--algebra", "l1p2.alg", "s.mod", "sum.mod"],
    ["module", "hom", "--algebra", "l1p2.alg", "sum.mod", "s.mod"],
    ["module", "iso", "--algebra", "l1p2.alg", "m.mod", "n.mod"],
    ["module", "iso", "--algebra", "l1p2.alg", "s.mod", "p.mod"],
    ["module", "iso", "--algebra", "l1p2.alg", "m.mod", "n.mod", "--trials", "0"],
    *(["module", "split", "--algebra", "l1p2.alg", f]
      for f in ("p.mod", "s.mod", "sum.mod", "m.mod")),
]

# record_digest of [argv, exit code, stdout, stderr] for every command
# above, recorded before the reports shared one emitter.
PINNED_REPORTS = {("q", False): "d89ce43ddd1ed06e", ("q", True): "2324d2057ca5ac18",
                  ("fp:2", False): "786d125ee9285167", ("fp:2", True): "89b81090c1377d1c"}


@pytest.mark.parametrize("field, structured", list(PINNED_REPORTS))
def test_module_and_algebra_reports_are_pinned(field, structured, tmp_path, monkeypatch,
                                               capsys):
    from biserial.homology import record_digest

    monkeypatch.chdir(tmp_path)
    assert main(["algebra", "emit", "lambda1prime:r=2", "-o", "l1p2.alg"]) == 0
    for name, text in REPORT_FILES.items():
        (tmp_path / name).write_text(text)
    runs = []
    for argv in REPORT_COMMANDS:
        argv = [*argv, "--field", field, *(["--structured"] if structured else [])]
        code = main(argv)
        out, err = capsys.readouterr()
        runs.append([argv, code, out, err])
    assert [run[1] for run in runs] == [0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0]
    assert record_digest(runs) == PINNED_REPORTS[field, structured]


def test_every_verify_option_has_help_text():
    from biserial.cli import build_parser

    parser = build_parser()
    verify = parser._subparsers._group_actions[0].choices["verify"]
    options = [action for action in verify._actions if action.option_strings]
    assert {"--r", "--m-max", "--t-max", "--samples", "--max-dim"} <= {
        name for action in options for name in action.option_strings}
    assert [action.option_strings for action in options if not action.help] == []
