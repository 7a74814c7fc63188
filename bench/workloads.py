"""Workloads of the biserial benchmark and their seeded inputs.

Usage::

    python bench/workloads.py WORKLOAD SEED OUT_DIR

Run in a fresh process during set-up.  It imports ``biserial`` from
``src/`` of the checkout (that import is part of the set-up cost a CLI user
pays), writes the workload's input files into OUT_DIR, and writes
``OUT_DIR/manifest.json``: for each of ``VARIANTS`` pass variants, the
commands to run and what each must print, taken from ``reference.json``
beside this file.  The same seed gives the same manifest and the same
files.

Pass variant ``k`` of a run with seed ``s`` runs the verify workloads at
``--seed s * VARIANTS + k``; ``bigmodule-q`` scrambles its modules with a
random generator keyed by ``(s, k)``.  Timing every pass on its own seed
makes a run's median describe the workload rather than one lucky seed.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
VARIANTS = 4

# Each pass is kept to a few seconds: the machine's speed drifts on a scale
# of seconds, and ``run.probe`` can only correct for it when the probes
# around a pass see the speed the pass ran at.  Hence towers-q stops at
# m = 4, t = 3 rather than the heavier m = t = 5, and bigmodule-q takes
# Z_6[4] and Z_5[3] rather than Z_7[5] (10-15 s a pass).
WORKLOADS = {
    "towers-q": {
        "why": "witness towers and direct systems over q: many small Hom "
               "systems, Fraction elimination, certified-iso searches and "
               "infinite-pd cycles",
        "verify": ["simples-pd", "prop-2", "lemma-1", "section-4",
                   "findim-witness", "--r", "2", "--m-max", "4",
                   "--t-max", "3"],
    },
    "sampling-fp101": {
        "why": "random modules, relation checks, covers and Lemma-2 splittings "
               "over GF(101); elimination is a small share of it",
        "verify": ["lemma-2", "corollary-3", "syzygy-descent", "--r", "2",
                   "--m-max", "5", "--samples", "100", "--max-dim", "60",
                   "--field", "fp:101"],
    },
    "bigmodule-q": {
        "why": "two basis-scrambled modules read from .alg/.mod files: dense "
               "Hom systems and Fraction bit-growth, finite chains, no iso "
               "search",
        # (r, m, t): the module Z_m[t] over lambda(r, m), pd r + m.
        "modules": [(2, 6, 4), (2, 5, 3)],
    },
}


# -- basis scrambling -------------------------------------------------------------


def scramble(n: int, rng: random.Random):
    """A seeded integer change of basis P and its inverse, n x n.

    P is a product of 2n elementary operations ``row i += s * row j`` with
    seeded signs s = +-1, walking twice round a seeded cyclic order of the
    rows, so every row is mixed and the cost of the scrambled module varies
    little from seed to seed (random row pairs made it vary by 2x).
    Returns (P, P^-1) as lists of integer rows; n = 1 stays the identity.
    """
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    if n == 1:
        return p, q
    order = list(range(n))
    rng.shuffle(order)
    for k in range(2 * n):
        i, j = order[k % n], order[(k + 1) % n]
        s = rng.choice((1, -1))
        # E = I + s e_ij: P <- E P adds s * row j to row i;
        # P^-1 <- P^-1 (I - s e_ij) subtracts s * column i from column j.
        p[i] = [a + s * b for a, b in zip(p[i], p[j])]
        for row in q:
            row[j] -= s * row[i]
    return p, q


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def scrambled_module_text(name: str, module, rng: random.Random) -> str:
    """The raw ``.mod`` text of ``module`` in a seeded integer basis.

    Arrow ``a: x -> y`` with matrix A becomes P_y A P_x^-1, so the module
    is isomorphic to the original and every entry stays an integer.
    """
    from biserial.matrices import Matrix
    from biserial.modfiles import emit_module_raw
    from biserial.reps import Representation

    algebra = module.algebra
    field = algebra.field
    change = {v: scramble(n, rng) for v, n in sorted(module.dims.items()) if n}
    mats = {}
    for arrow in algebra.pres.quiver.arrows.values():
        a = module.mats[arrow.name]
        if not (a.rows and a.cols):
            continue
        p_y, _ = change[arrow.target]
        _, q_x = change[arrow.source]
        data = _matmul(_matmul(p_y, [[int(x) for x in row] for row in a.data]), q_x)
        mats[arrow.name] = Matrix(field, a.rows, a.cols,
                                  [[field(x) for x in row] for row in data])
    # The constructor re-checks every relation of the algebra.
    return emit_module_raw(name, Representation(algebra, module.dims, mats))


# -- manifests ------------------------------------------------------------------


def verify_manifest(workload: str, seed: int, ref: dict) -> list:
    digests = ref["digests"].get(workload, {})
    passes = []
    for k in range(VARIANTS):
        vseed = seed * VARIANTS + k
        passes.append([{
            "argv": ["verify", *WORKLOADS[workload]["verify"],
                     "--seed", str(vseed), "--structured"],
            "expect": {"kind": "verify", "digest": digests.get(str(vseed))},
        }])
    return passes


def bigmodule_manifest(seed: int, out: Path, ref: dict) -> list:
    from biserial.families import build_lambda
    from biserial.presentation import emit_presentation
    from biserial.reps import Algebra
    from biserial.witnesses import build_Zt

    passes = [[] for _ in range(VARIANTS)]
    for r, m, t in WORKLOADS["bigmodule-q"]["modules"]:
        pres = build_lambda(r, m)
        alg_file = f"lambda_{r}_{m}.alg"
        (out / alg_file).write_text(emit_presentation(pres), encoding="utf-8")
        module = build_Zt(Algebra(pres), m, t)
        name = f"Z{m}_{t}"
        expected = ref["modules"][name]
        for k in range(VARIANTS):
            rng = random.Random(f"bigmodule:{seed}:{k}:{name}")
            mod_file = f"{name}_v{k}.mod"
            (out / mod_file).write_text(scrambled_module_text(name, module, rng),
                                        encoding="utf-8")
            passes[k].append({
                "argv": ["module", "pd", "--algebra", alg_file, mod_file,
                         "--structured"],
                "expect": {"kind": "pd", "pd": r + m,
                           "chain": expected["chain"]},
            })
    return passes


def write_manifest(workload: str, seed: int, out: Path) -> None:
    import biserial

    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    if workload == "bigmodule-q":
        passes = bigmodule_manifest(seed, out, ref)
    else:
        passes = verify_manifest(workload, seed, ref)
    manifest = {"workload": workload, "seed": seed,
                "biserial": str(Path(biserial.__file__).resolve()),
                "passes": passes}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1),
                                       encoding="utf-8")


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS:
        print(f"usage: workloads.py {{{'|'.join(WORKLOADS)}}} SEED OUT_DIR",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    write_manifest(argv[0], int(argv[1]), Path(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
