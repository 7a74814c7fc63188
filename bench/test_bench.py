"""Self-tests of the benchmark.  Run with ``python -m pytest bench -q``.

They use small commands, so the whole file runs in well under a minute.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
SMALL_VERIFY = ["verify", "prop-2", "lemma-1", "section-4", "--r", "1",
                "--m-max", "1", "--t-max", "2", "--structured"]


@pytest.fixture(scope="module")
def small_module(tmp_path_factory):
    """A basis-scrambled Z_2[2] over lambda(1, 2), as files, and its pd argv."""
    from biserial.families import build_lambda
    from biserial.presentation import emit_presentation
    from biserial.reps import Algebra
    from biserial.witnesses import build_Zt

    out = tmp_path_factory.mktemp("small")
    pres = build_lambda(1, 2)
    (out / "small.alg").write_text(emit_presentation(pres))
    module = build_Zt(Algebra(pres), 2, 2)
    text = workloads.scrambled_module_text("Z2_2", module, random.Random(7))
    (out / "Z2_2.mod").write_text(text)
    return out, ["module", "pd", "--algebra", "small.alg", "Z2_2.mod",
                 "--structured"]


def run_plain(argv, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "biserial", *argv], cwd=cwd,
                          env=ENV, capture_output=True, check=True)


def run_traced(argv, spans: Path, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans),
                           "--", *argv], cwd=cwd, env=ENV, capture_output=True,
                          check=True)


def outcome(proc) -> bench.Outcome:
    return bench.Outcome(proc.returncode, 0.0, 0.0, proc.stdout.decode(),
                         proc.stderr.decode())


# -- tracer ---------------------------------------------------------------------


def test_traced_stdout_is_byte_identical(tmp_path, small_module):
    cwd, pd_argv = small_module
    for argv, where in ((SMALL_VERIFY, ROOT), (pd_argv, cwd)):
        plain = run_plain(argv, where).stdout
        traced = run_traced(argv, tmp_path / "t.spans", where).stdout
        assert plain and traced == plain


def test_traced_counts_repeat(tmp_path):
    runs = []
    for k in range(2):
        spans = tmp_path / f"{k}.spans"
        run_traced(SMALL_VERIFY, spans)
        runs.append({name: value
                     for name, (value, unit) in bench.layer_metrics([spans]).items()
                     if unit != "s"})
    assert runs[0] == runs[1]
    assert runs[0]["matrices.rref.calls"] > 0
    assert runs[0]["homology.certified_iso.calls"] > 0
    assert runs[0]["homology.projdim.steps"] > 0


def test_spans_nest_and_self_time_is_bounded(tmp_path):
    spans = tmp_path / "t.spans"
    run_traced(SMALL_VERIFY, spans)
    header, (name, parent, start, end) = tracer.read_spans(spans)
    assert header["names"][name[0]] == "cli.main" and parent[0] == -1
    for i in range(1, len(name)):
        p = parent[i]
        assert 0 <= p < i and start[p] <= start[i] <= end[i] <= end[p]
    calls, total, self_time, _ = bench.span_totals(spans)
    assert calls["cli.main"] == 1
    assert all(-1e-9 <= self_time[k] <= total[k] + 1e-9 for k in calls)


def test_no_module_keeps_an_unwrapped_reference():
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import tracer; "
            "tracer.install(tracer.Tracer()); "
            "import biserial.cli as cli, biserial.claims as claims, "
            "biserial.witnesses as witnesses, biserial.decomp as decomp; "
            "print(json.dumps({'leaks': tracer.unwrapped_references(), 'traced': ["
            "getattr(f, '__bench_traced__', False) for f in (cli.run_claim, "
            "claims.syzygy, witnesses.projdim, decomp.hom_basis, "
            "claims.CLAIMS['prop-2'])]}))")
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=ENV,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result == {"leaks": [], "traced": [True] * 5}


# -- correctness gate -------------------------------------------------------------


def test_gate_accepts_reference_and_rejects_corruption(small_module):
    cwd, pd_argv = small_module
    out = outcome(run_plain(pd_argv, cwd))
    rec = json.loads(out.stdout)
    good = {"kind": "pd", "pd": rec["pd"], "chain": rec["chain"]}
    assert rec["verdict"] == "finite" and bench.gate(good, out) == []
    corrupt = [dict(good, pd=good["pd"] + 1),
               dict(good, chain=good["chain"][:-2] + good["chain"][-1:])]
    for expect in corrupt:
        assert bench.gate(expect, out)
    assert bench.gate(good, bench.Outcome(1, 0, 0, out.stdout, "boom"))


def test_gate_rejects_a_failed_check():
    out = outcome(run_plain(SMALL_VERIFY))
    expect = {"kind": "verify",
              "digest": json.loads(out.stdout.splitlines()[-1])["digest"]}
    assert bench.gate(expect, out) == []
    lines = out.stdout.splitlines()
    first = json.loads(lines[0])
    first["checks"][0]["status"] = "fail"
    broken = bench.Outcome(0, 0, 0, "\n".join([json.dumps(first), *lines[1:]]), "")
    assert bench.gate(expect, broken)


def copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_run_reports_corrupted_reference_digest_as_failed(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    reference = tmp_path / "bench" / "reference.json"
    ref = json.loads(reference.read_text())
    ref["digests"]["sampling-fp101"]["0"] = "0" * 16  # variant 0 of seed 0
    reference.write_text(json.dumps(ref))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sampling-fp101",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == workloads.VARIANTS and result["failed"] == 1


def test_run_refuses_without_program_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "towers-q", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# -- input generation ---------------------------------------------------------------


def test_scramble_is_invertible():
    rng = random.Random(3)
    for n in range(1, 7):
        p, q = workloads.scramble(n, rng)
        assert workloads._matmul(p, q) == [[int(i == j) for j in range(n)]
                                           for i in range(n)]


def test_generated_inputs_depend_only_on_seed(tmp_path):
    texts = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        out = tmp_path / label
        out.mkdir()
        subprocess.run([sys.executable, str(BENCH / "workloads.py"), "bigmodule-q",
                        str(seed), str(out)], check=True)
        texts[label] = {f.name: f.read_text() for f in sorted(out.glob("*.mod"))}
    assert texts["a"] == texts["b"] and texts["a"] != texts["c"]
    assert len(texts["a"]) == 2 * workloads.VARIANTS
