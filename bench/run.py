"""Benchmark of the biserial command line.

Usage::

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is one of ``towers-q``, ``sampling-fp101`` and ``bigmodule-q`` (see
``workloads.py`` for what each runs and why).  The program is run from the
sources in ``src/`` of the checkout holding this file; nothing is built or
installed.

Set-up generates the workload's inputs from the seed in a fresh process
that imports ``biserial`` once; it is repeated ``SETUP_REPEATS`` times,
each time after a bare interpreter start, and ``setup_s`` is the median.
A pass then runs every command of one input variant as a fresh
``python -m biserial`` process, one at a time, because a CLI user pays the
cold start on every invocation.  Passes run in whole cycles over the input variants, so every
variant weighs the same, while the next cycle still fits in S seconds (at
least one cycle runs).  Every command of every pass goes through the
correctness gate (``gate``): exit code 0, every structured check ``pass``,
every verdict ``finite`` with the expected pd and chain, and a verify
workload's final digest equal to the one recorded in ``reference.json``
where one exists for that seed.  ``attempted`` and ``failed`` count
commands.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``pass_s`` (median pass time) and ``peak_rss_mb`` (median over passes of
the largest resident set of any command).  Both times are wall times
rescaled to a fixed machine speed (see ``probe`` and ``Run.set_up``); the
raw pass walls are printed too.  With ``--trace 1`` the run
alternates untraced passes and passes run under ``tracer.py`` on the same
inputs, and reports per-layer call counts, self times and counters from the
traced spans, plus ``trace.overhead_s``.

Lines above the last one are a readable report, including every per-layer
metric the trace yields; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, holding the
metrics ``BENCHMARK.json`` names.  The exit code is 0 whenever a result was
printed, whether or not it is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

from workloads import WORKLOADS
from tracer import read_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
# Reported times are rescaled to the machine speed at which ``probe()``
# takes PROBE_REF_S, and STARTUP_PROBE, a bare interpreter start, takes
# STARTUP_REF_S (see ``probe`` and ``Run.set_up``).
PROBE_REF_S = 0.2
STARTUP_PROBE = "import fractions, json, random"
STARTUP_REF_S = 0.06
# Everything, set-up included, ends well inside the 180 s a run may take.
HARD_LIMIT_S = 170.0

CLAIM_IDS = ("simples-pd", "prop-2", "lemma-1", "lemma-2", "corollary-3",
             "syzygy-descent", "section-4", "appendix-projectives",
             "findim-witness")

# Per-layer metric stems and the traced span names summed into each.  A stem
# reports ``calls`` and ``self_s`` unless ONLY names fewer; COUNTERS and the
# per-claim times are reported besides.  BENCHMARK.json lists the self times
# of the layers every workload calls: a layer a workload never calls would
# read exactly 0.0 s on every run.  All are printed in the report.
LAYER_SPANS = {
    "matrices.rref": ["matrices.Matrix.rref"],
    "matrices.rank": ["matrices.Matrix.rank"],
    "matrices.kernel_basis": ["matrices.Matrix.kernel_basis"],
    "matrices.solve": ["matrices.Matrix.solve"],
    "matrices.inverse": ["matrices.Matrix.inverse"],
    "matrices.image_basis": ["matrices.Matrix.image_basis"],
    "matrices.matmul": ["matrices.Matrix.__matmul__"],
    "homology.hom_basis": ["homology.hom_basis"],
    "homology.hom_dim": ["homology.hom_dim"],
    "homology.certified_iso": ["homology.certified_iso"],
    "homology.projective_cover": ["homology.projective_cover"],
    "homology.radical": ["homology.radical"],
    "homology.kernel_of": ["homology.kernel_of"],
    "homology.cokernel_of": ["homology.cokernel_of"],
    "homology.is_direct_summand_simple": ["homology.is_direct_summand_simple"],
    "homology.projdim": ["homology.projdim"],
    "reps.Algebra": ["reps.Algebra.__init__"],
    "reps.projective": ["reps.Algebra.projective"],
    "reps.Representation": ["reps.Representation.__init__"],
    "reps.path_matrix": ["reps.Representation.path_matrix"],
    "reps.direct_sum": ["reps.direct_sum"],
    "reps.random_module": ["reps.random_module"],
    "reps.string_module": ["reps.string_module"],
    "pathbasis.PathBasis": ["pathbasis.PathBasis.__init__"],
    "decomp.lemma2_split": ["decomp.lemma2_split"],
    "decomp.strip_pc2": ["decomp.strip_pc2"],
    "decomp.interval_decompose": ["decomp.interval_decompose"],
    "witnesses.build_Z": ["witnesses.build_Z"],
    "witnesses.build_Zt": ["witnesses.build_Zt"],
    "witnesses.build_phi": ["witnesses.build_phi"],
    "witnesses.sample_finite_pd_modules": ["witnesses.sample_finite_pd_modules"],
    "modfiles.parse_module_file": ["modfiles.parse_module_file"],
    "presentation.parse_presentation": ["presentation.parse_presentation"],
    "families.build": ["families.build_lambda", "families.build_lambda1prime"],
    "fields.field_from_spec": ["fields.field_from_spec"],
    "cli.main": ["cli.main"],
}
ONLY = {"homology.hom_dim": ("calls",), "fields.field_from_spec": ("calls",),
        "cli.main": ("self_s",)}
COUNTERS = {  # counter metric -> unit; the tracer measures them
    "matrices.rref.cells": "count",
    "matrices.rref.max_bits": "bits",
    "homology.hom_basis.unknowns": "count",
    "homology.certified_iso.found": "count",
    "homology.projdim.steps": "count",
}
UNITS = {"calls": "count", "self_s": "s"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass
class Outcome:
    returncode: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


def run_command(argv, cwd: Path, out: Path, deadline: float) -> Outcome:
    """Run one process to completion and measure it.

    ``os.wait4`` gives the resident-set peak of exactly this child.  A
    process still running at ``deadline``, or when the wait is interrupted,
    is killed and reaped before the error propagates.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out.with_suffix(".out"), "wb") as fo, \
            open(out.with_suffix(".err"), "wb") as fe:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if isinstance(exc, Deadline):
                raise BenchError(f"{' '.join(argv[1:])} did not finish in time") from None
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                   out.with_suffix(".out").read_text(encoding="utf-8"),
                   out.with_suffix(".err").read_text(encoding="utf-8"))


def probe() -> float:
    """Seconds this process takes for a fixed job, to gauge machine speed.

    On a shared virtual machine the same pass can take 1.5 s in one minute
    and 3 s a few minutes later: the speed of the CPU itself drifts (no steal
    time, CPU time equals wall time).  The probe is exact Gauss-Jordan over
    ``Fraction`` on a fixed integer matrix, the same kind of interpreted
    arithmetic the program spends its time on, written here so that no
    change to the program can change it.  Each pass is bracketed by probes
    and rescaled by PROBE_REF_S / (mean probe time), which cancels drift
    slower than a pass.
    """
    rng = random.Random(0)
    n = 34
    work = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    start = perf_counter()
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = row = [x * inv for x in work[r]]
        for i in range(n):
            f = work[i][c]
            if i != r and f:
                work[i] = [a - f * b for a, b in zip(work[i], row)]
        r += 1
    return perf_counter() - start


def rescale(wall: float, before: float, after: float) -> float:
    return wall * PROBE_REF_S * 2 / (before + after)


# -- correctness gate ---------------------------------------------------------


def gate(expect: dict, outcome: Outcome) -> list:
    """Reasons the command failed; empty when its output is correct."""
    if outcome.returncode != 0:
        return [f"exit code {outcome.returncode}, expected 0: "
                f"{outcome.stderr.strip()[-300:]}"]
    try:
        records = [json.loads(line) for line in outcome.stdout.splitlines()
                   if line.strip()]
    except json.JSONDecodeError as exc:
        return [f"unparsable structured output: {exc}"]
    if not records:
        return ["no structured output"]
    reasons = []
    for rec in records:
        if rec.get("status", "pass") != "pass":
            reasons.append(f"claim {rec.get('claim')}: status {rec['status']}")
        reasons += [f"claim {rec.get('claim')}: check {c['name']!r} is {c['status']}"
                    for c in rec.get("checks", []) if c["status"] != "pass"]
        if rec.get("verdict", "finite") != "finite":
            reasons.append(f"verdict {rec['verdict']}, expected finite")
    final = records[-1]
    if expect["kind"] == "verify":
        summary = final.get("summary", {})
        if not summary or summary.get("fail") or summary.get("inconclusive"):
            reasons.append(f"summary {summary}")
        digest = final.get("digest")
        if expect["digest"] is not None and digest != expect["digest"]:
            reasons.append(f"digest {digest}, reference {expect['digest']}")
    else:
        if final.get("pd") != expect["pd"]:
            reasons.append(f"pd {final.get('pd')}, expected {expect['pd']}")
        if final.get("chain") != expect["chain"]:
            reasons.append("syzygy chain dimension vectors differ from the reference")
    return reasons


# -- trace aggregation ------------------------------------------------------------


def span_totals(spans_file: Path):
    """Per span name: calls, total time, self time; and the counters."""
    header, (name, parent, start, end) = read_spans(spans_file)
    n = len(name)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    names = header["names"]
    for i in range(n):
        key = names[name[i]]
        duration = end[i] - start[i]
        calls[key] += 1
        total[key] += duration
        self_time[key] += duration - child[i]
    return calls, total, self_time, header["counters"]


def layer_metrics(spans_files) -> dict:
    """Every per-layer metric over the commands of one traced pass."""
    calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    counters = defaultdict(int)
    for path in spans_files:
        c, t, s, k = span_totals(path)
        for key in c:
            calls[key] += c[key]
            total[key] += t[key]
            self_time[key] += s[key]
        for key, value in k.items():
            counters[key] = (max(counters[key], value) if key.endswith("max_bits")
                             else counters[key] + value)
    out = {}
    for stem, spans in LAYER_SPANS.items():
        for field in ONLY.get(stem, ("calls", "self_s")):
            source = calls if field == "calls" else self_time
            out[f"{stem}.{field}"] = (sum(source[s] for s in spans), UNITS[field])
    for counter, unit in COUNTERS.items():
        out[counter] = (counters[counter], unit)
    for cid in CLAIM_IDS:
        out[f"claims.{cid}.s"] = (total[f"claims.run_claim:{cid}"], "s")
    return out


# -- the run ------------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path,
                 deadline: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work, self.deadline = work, deadline
        self.inputs = work / "inputs"
        self.attempted = 0
        self.failures = []      # (pass label, command, reasons) per failed command
        self.problems = []      # trace inconsistencies, not tied to one command
        self.probes = []        # probe times, in order, of an untraced run

    def set_up(self):
        """Generate the inputs SETUP_REPEATS times.

        Set-up is mostly interpreter start-up and imports, which slow down
        less than ``probe`` when the machine does (1.3x against 1.7x), so
        each repeat is rescaled by the bare interpreter start run just
        before it.  Returns the median rescaled set-up time and the
        manifest's passes.
        """
        times = []
        for i in range(SETUP_REPEATS):
            start = run_command([sys.executable, "-c", STARTUP_PROBE], self.work,
                                self.work / f"start{i}", self.deadline)
            shutil.rmtree(self.inputs, ignore_errors=True)
            self.inputs.mkdir()
            outcome = run_command(
                [sys.executable, str(BENCH / "workloads.py"), self.workload,
                 str(self.seed), str(self.inputs)],
                self.work, self.work / f"setup{i}", self.deadline)
            if outcome.returncode != 0:
                raise BenchError(f"set-up failed: {outcome.stderr.strip()}")
            times.append(outcome.wall * STARTUP_REF_S / start.wall)
        manifest = json.loads((self.inputs / "manifest.json").read_text())
        imported = Path(manifest["biserial"])
        if SRC.resolve() not in imported.parents:
            raise BenchError(f"set-up imported biserial from {imported}, "
                             f"not from {SRC}")
        return median(times), manifest["passes"]

    def run_pass(self, commands, label: str, traced: bool):
        """Run one pass; its wall time, the per-command outcomes and spans files."""
        outcomes, spans = [], []
        start = perf_counter()
        for i, cmd in enumerate(commands):
            out = self.work / f"{label}-{i}"
            if traced:
                spans.append(out.with_suffix(".spans"))
                argv = [sys.executable, str(BENCH / "tracer.py"), str(spans[-1]),
                        "--", *cmd["argv"]]
            else:
                argv = [sys.executable, "-m", "biserial", *cmd["argv"]]
            outcomes.append(run_command(argv, self.inputs, out, self.deadline))
        wall = perf_counter() - start
        for cmd, outcome in zip(commands, outcomes):
            self.attempted += 1
            reasons = gate(cmd["expect"], outcome)
            if reasons:
                self.failures.append((label, " ".join(cmd["argv"]), reasons))
        return wall, outcomes, spans

    def fits(self, window_start: float, next_cost: float) -> bool:
        now = perf_counter()
        return (now - window_start + next_cost <= self.seconds
                and now + next_cost <= self.deadline)

    def measure(self, passes):
        """Untraced passes in whole cycles over the input variants.

        Cycles repeat while the next one still fits in the window, so how
        many run never changes the weight of a variant.  Returns the pass
        walls, the same rescaled by the probes around each pass, and each
        pass's largest resident set.
        """
        walls, scaled, rss, cycles = [], [], [], []
        window = perf_counter()
        before = probe()
        self.probes.append(before)
        while True:
            cycle_start = perf_counter()
            for commands in passes:
                wall, outcomes, _ = self.run_pass(commands, f"p{len(walls)}", False)
                after = probe()
                self.probes.append(after)
                walls.append(wall)
                scaled.append(rescale(wall, before, after))
                rss.append(max(o.rss_mb for o in outcomes))
                before = after
            cycles.append(perf_counter() - cycle_start)
            if not self.fits(window, median(cycles)):
                return walls, scaled, rss

    def measure_traced(self, passes):
        """Untraced and traced passes in turn, all on input variant 0.

        Counts are deterministic for fixed inputs, so every traced pass must
        report the same ones; times are medians over the traced passes.
        """
        plain, traced, layers, stdout_mismatch = [], [], [], 0
        window = perf_counter()
        while True:
            k = len(plain)
            wall, plain_out, _ = self.run_pass(passes[0], f"u{k}", False)
            plain.append(wall)
            wall, traced_out, spans = self.run_pass(passes[0], f"t{k}", True)
            traced.append(wall)
            layers.append(layer_metrics(spans))
            stdout_mismatch += sum(a.stdout != b.stdout
                                   for a, b in zip(plain_out, traced_out))
            if not self.fits(window, median(plain) + median(traced)):
                break
        metrics = {}
        for name, (value, unit) in layers[0].items():
            values = [layer[name][0] for layer in layers]
            if unit == "s":
                metrics[name] = (median(values), unit)
            else:
                if len(set(values)) != 1:
                    self.problems.append(f"{name} differs between traced passes: {values}")
                metrics[name] = (value, unit)
        metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
        if stdout_mismatch:
            self.problems.append(f"{stdout_mismatch} traced commands printed "
                                 f"other output than untraced ones")
        return plain, traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + HARD_LIMIT_S
    if not (SRC / "biserial" / "__init__.py").is_file():
        print(f"error: no biserial sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    # One CPU for the harness, its probes and every command it starts, so
    # the probes gauge the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, work, deadline)
    try:
        setup_s, passes = run.set_up()
        if args.trace:
            plain, traced, layer = run.measure_traced(passes)
            walls = plain
        else:
            walls, scaled, rss = run.measure(passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload} seed {args.seed}: {len(walls)} passes, "
          f"{run.attempted} commands, {len(run.failures)} failed "
          f"(failed_frac {len(run.failures) / run.attempted:g})")
    for label, command, reasons in run.failures:
        print(f"FAILED [{label}] {command}: {'; '.join(reasons)}")
    for problem in run.problems:
        print(f"TRACE PROBLEM: {problem}")
    if args.trace:
        print(f"traced passes: {len(traced)}, median {median(traced):.3f} s; "
              f"untraced median {median(plain):.3f} s")
        wanted = {m["name"] for m in spec["per_layer"]}
        measured = layer
    else:
        wanted = {m["name"] for m in spec["end_to_end"]}
        measured = {"setup_s": (setup_s, "s"), "pass_s": (median(scaled), "s"),
                    "peak_rss_mb": (median(rss), "MB")}
        print(f"pass walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
        print(f"rescaled (s):   {' '.join(f'{w:.3f}' for w in scaled)}")
        print(f"probes (s):     {' '.join(f'{w:.4f}' for w in run.probes)}")
    for name, (value, unit) in measured.items():
        print(f"{name} {value} {unit}{'' if name in wanted else '  (not in BENCHMARK.json)'}")
    print(json.dumps({
        "correct": not run.failures and not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.items() if name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
