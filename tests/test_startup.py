"""What a command loads: the package resolves its public names lazily,
and each subcommand imports only the layers it runs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biserial
from biserial.families import build_lambda
from biserial.presentation import emit_presentation

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name ``biserial`` exported when its __init__ imported all layers,
# less the helpers that moved to the tests' oracles, and InputError, the
# base of every input error, which the __init__ defines itself.
PUBLIC_NAMES = [
    "QQ", "FieldError", "PrimeField", "field_from_spec", "Matrix",
    "ParseError", "Presentation", "PresentationError", "Quiver", "Relation",
    "emit_presentation", "parse_presentation", "BoundExceeded", "PathBasis",
    "build_lambda", "build_lambda1prime", "family_from_spec", "Algebra",
    "InvalidString", "ModuleMap", "Representation", "RepresentationError",
    "StringWord", "direct_sum", "random_module", "string_module",
    "CoverData", "PdReport", "certified_iso", "cokernel_of", "hom_basis",
    "split_off", "kernel_of", "projdim", "projective_cover",
    "syzygy", "CertificateFailure", "Lemma2Split", "lemma2_split",
    "xset", "build_U", "build_Z", "build_Zt", "build_phi",
    "CLAIMS", "ClaimReport", "FamilyConfig", "run_claim", "InputError",
]


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_still_imports(name):
    namespace = {}
    exec(f"from biserial import {name}", namespace)
    assert namespace[name] is not None
    assert name in dir(biserial)


@pytest.mark.parametrize("name", ["direct_sum_maps", "run_claims", "inflate",
                                  "restrict", "top_dims", "radical"])
def test_oracle_helper_is_not_exported(name):
    # These live in tests/oracles.py: no command runs them.
    assert name not in biserial.__all__
    assert name not in dir(biserial)


def test_unknown_public_name_is_an_attribute_error():
    assert biserial.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        biserial.no_such_name
    with pytest.raises(ImportError):
        exec("from biserial import no_such_name", {})


def _fresh(body, cwd, probe=()):
    """``body``, which sets ``status``, in a fresh interpreter without site
    hooks; returns the process, its stderr, and which of ``probe`` it had
    imported."""
    code = ("import json, sys\n" + body +
            "sys.stdout.flush()\n"
            f"print(json.dumps([m for m in {list(probe)!r} if m in sys.modules]),"
            " file=sys.stderr)\n"
            "sys.exit(status)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    *err, loaded = proc.stderr.splitlines()
    return proc, "\n".join(err), json.loads(loaded)


def _run(argv, cwd, probe=()):
    """``python -m biserial ARGV`` in a fresh interpreter without site
    hooks, as ``_fresh`` runs it."""
    return _fresh("import runpy\n"
                  f"sys.argv = ['biserial', *{list(argv)!r}]\n"
                  "try:\n"
                  "    runpy.run_module('biserial', run_name='__main__')\n"
                  "except SystemExit as exc:\n"
                  "    status = exc.code\n", cwd, probe)


def test_building_and_emitting_a_witness_loads_no_homology(tmp_path):
    # bigmodule-q's set-up builds Z_m[t] and writes it to files; only the
    # finite-pd samplers of the witness layer run the homological engine.
    proc, err, loaded = _fresh(
        "from biserial.families import build_lambda\n"
        "from biserial.modfiles import emit_module_raw\n"
        "from biserial.presentation import emit_presentation\n"
        "from biserial.reps import Algebra\n"
        "from biserial.witnesses import build_Zt\n"
        "pres = build_lambda(2, 6)\n"
        "text = emit_module_raw('Z6_4', build_Zt(Algebra(pres), 6, 4))\n"
        "print(emit_presentation(pres).splitlines()[0], text.splitlines()[0])\n"
        "status = 0\n", tmp_path, ["biserial.witnesses", "biserial.homology"])
    assert proc.returncode == 0 and err == ""
    assert proc.stdout == "algebra lambda_r2_m6 module Z6_4 over lambda_r2_m6\n"
    assert loaded == ["biserial.witnesses"]


def test_path_basis_loads_no_elimination(tmp_path):
    # Equalities merge paths in a union-find: building a basis needs neither
    # the elimination kernel nor a field.
    proc, err, loaded = _fresh(
        "from biserial.families import build_lambda\n"
        "from biserial.pathbasis import PathBasis\n"
        "print(PathBasis(build_lambda(2, 6)).dim)\n"
        "status = 0\n", tmp_path, ["biserial.pathbasis", "biserial.matrices",
                                    "biserial.fields"])
    assert proc.returncode == 0 and err == ""
    assert proc.stdout == "88\n"
    assert loaded == ["biserial.pathbasis"]

def test_module_pd_on_files_loads_only_its_layers(tmp_path):
    (tmp_path / "l.alg").write_text(emit_presentation(build_lambda(1, 3)))
    (tmp_path / "z.mod").write_text(
        "module Z3 over lambda_r1_m3\n"
        "string a3 [ be_a3_b2^+1 al_b3_b2^-1 be_b3_c2^+1 al_a2_c2^-1 ]\n")
    unwanted = ["biserial.claims", "biserial.decomp", "biserial.witnesses",
                "biserial.families", "dataclasses", "inspect", "hashlib"]
    proc, err, loaded = _run(["module", "pd", "--algebra", "l.alg", "z.mod",
                              "--structured"], tmp_path, unwanted)
    assert proc.returncode == 0 and err == ""
    assert json.loads(proc.stdout)["pd"] == 4
    assert loaded == []


# What an algebra subcommand computes with: parse, emit and dot read and
# write presentations alone.
ENGINE_OF = {"build": ["biserial.reps"], "parse": [], "emit": [],
             "projectives": ["biserial.homology", "biserial.reps"], "dot": []}


@pytest.mark.parametrize("subcommand", list(ENGINE_OF))
def test_algebra_on_a_file_loads_no_family_builders(subcommand, tmp_path):
    # ALGEBRA is read as a family spec only when no file has that name.
    (tmp_path / "l.alg").write_text(emit_presentation(build_lambda(1, 0)))
    unwanted = ["biserial.families", "biserial.claims", "biserial.decomp",
                "biserial.homology", "biserial.reps"]
    proc, err, loaded = _run(["algebra", subcommand, "l.alg"], tmp_path, unwanted)
    assert proc.returncode == 0 and err == ""
    assert proc.stdout
    assert loaded == ENGINE_OF[subcommand]
    proc, err, loaded = _run(["algebra", subcommand, "lambda:r=1,m=0"], tmp_path, unwanted)
    assert proc.returncode == 0 and err == ""
    assert loaded == ["biserial.families", *ENGINE_OF[subcommand]]


def test_verify_loads_no_dataclasses(tmp_path):
    # dataclasses pulls in inspect, ast, dis and tokenize at start-up; the
    # claim catalog and the splitting layer use plain classes and NamedTuples.
    # No verify path reads or writes a module file.  The splitting layer
    # opens its walk table as a plain file: importlib.resources pulls in
    # pathlib, zipfile and tempfile.
    proc, err, loaded = _run(["verify", "lemma-2", "syzygy-descent", "--m-max", "1",
                              "--samples", "4", "--structured"], tmp_path,
                             ["biserial.claims", "biserial.decomp", "biserial.modfiles",
                              "dataclasses", "inspect", "importlib.resources"])
    assert proc.returncode == 0 and err == ""
    assert json.loads(proc.stdout.splitlines()[-1])["summary"]["pass"] == 2
    assert loaded == ["biserial.claims", "biserial.decomp"]


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="the interpreter has no built-in SHA-256 module")
def test_digesting_commands_load_no_hashlib(tmp_path):
    # hashlib maps OpenSSL; record digests use the built-in SHA-256 module.
    unwanted = ["hashlib", "_hashlib"]
    proc, err, loaded = _run(["verify", "simples-pd", "lemma-2", "--m-max", "1",
                              "--samples", "4", "--structured"], tmp_path, unwanted)
    assert proc.returncode == 0 and err == ""
    assert json.loads(proc.stdout.splitlines()[-1])["summary"]["pass"] == 2
    assert loaded == []
    (tmp_path / "l.alg").write_text(emit_presentation(biserial.build_lambda1prime(2)))
    (tmp_path / "s.mod").write_text("module S over lambda1prime_r2\nraw\ndim c2 1\n")
    proc, err, loaded = _run(["module", "split", "--algebra", "l.alg", "s.mod",
                              "--structured"], tmp_path, unwanted)
    assert proc.returncode == 0 and err == ""
    assert json.loads(proc.stdout)["certificate_checksum"] == "12fe3a7557b4a98d"
    assert loaded == []


def test_lazy_layer_errors_exit_2_in_a_fresh_process(tmp_path):
    # ConfigError comes from the claim catalog, the broken c2-string from
    # the splitting layer; neither is loaded before the command runs.
    proc, err, _ = _run(["verify", "lemma-2", "--samples", "-1"], tmp_path)
    assert proc.returncode == 2
    assert err == "error: samples must be nonnegative"
    # lambda1prime(1) without the arrow a1 -> d0, the first c2-string's
    # first letter.
    text = "".join(line for line in emit_presentation(biserial.build_lambda1prime(1))
                   .splitlines(keepends=True) if "al_a1_d0" not in line)
    (tmp_path / "cut.alg").write_text(text)
    (tmp_path / "s.mod").write_text("module s over lambda1prime_r1\nraw\ndim c2 1\n")
    proc, err, _ = _run(["module", "split", "--algebra", "cut.alg", "s.mod"], tmp_path)
    assert proc.returncode == 2
    assert err.startswith("error: lambda1prime_r1: c2-string 1, StringWord(d0 [ ")
    assert err.endswith("]), is not a module: unknown arrow 'al_a1_d0'")


def test_cli_still_exposes_its_lazily_imported_names():
    import biserial.claims
    import biserial.cli as cli
    import biserial.decomp
    import biserial.homology as homology
    import biserial.witnesses as witnesses

    assert cli.run_claim is biserial.claims.run_claim
    assert cli.CertificateFailure is biserial.decomp.CertificateFailure
    assert cli.syzygy is homology.syzygy
    assert witnesses.projdim is homology.projdim
    assert witnesses.projective_cover is homology.projective_cover
    with pytest.raises(AttributeError):
        cli.no_such_name
    with pytest.raises(AttributeError):
        witnesses.no_such_name
