"""Command-line front end.

Subcommands::

    algebra build|parse|emit|projectives|dot   presentations and projectives
    module  pd|syzygy|hom|iso|split|dot        homological computations
    verify  <claim ...>|all                    the claim catalog

Exit codes: 0 success / all claims pass, 1 a claim failed or ``module
iso`` proved the modules not isomorphic, 2 an input error (a
``biserial.InputError``, or a file that cannot be opened or read as
UTF-8), 3 an inconclusive verdict (a ``module pd`` chain cut off before
it ended or cycled; a ``module iso`` search that missed; a ``module
split`` certificate that could not be built, as for a module outside
Lemma 2's scope), 4 an internal error (a bug, reported as ``internal
error: ...``), 141 the reader of stdout went away, as for a writer
killed by SIGPIPE (``biserial verify all | head -1``).
``--structured`` switches reports to line-delimited JSON records,
byte-stable for identical flags.  Every ``module`` and ``algebra`` report
is printed by one emitter, ``_emit``: its JSON record, with the field, or
its text lines.  ``verify``'s exit code is the worst status of its claims,
ranked by the claims' own ``worst_status`` (fail over inconclusive over
pass).

Each subcommand imports the layers it runs: the claim catalog (and with
it the witnesses and the splitting layer) only for ``verify``, the
splitting layer only for ``module split``, the module-file layer only
for ``module`` and ``algebra dot``, and the family builders only for a
family spec.  A command on files loads none of the others.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import List, Optional

from . import InputError, _lazy_getattr
from .fields import field_from_spec
from .homology import (decide_iso, hom_dim, projdim, radical_filtration,
                       record_digest, syzygy)
from .presentation import emit_presentation, parse_presentation
from .reps import Algebra

# The layers only some subcommands run are imported by those commands;
# their names still resolve as attributes of this module (PEP 562).
__getattr__ = _lazy_getattr(__name__)

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INCONCLUSIVE, EXIT_INTERNAL = 0, 1, 2, 3, 4
EXIT_BROKEN_PIPE = 141


class UsageError(InputError):
    """A flag value the command cannot run with."""


class _ClaimIdsHelp(str):
    """``verify``'s claim-id help: argparse %-formats it only to print it."""

    def __mod__(self, params) -> str:
        return f"{self}; known: {', '.join(__getattr__('CLAIMS'))}"


def _load_presentation(spec: str):
    """ALGEBRA, as ``module --algebra`` and every ``algebra`` subcommand
    read it: a presentation file path, or, when no file has that name, a
    family spec like ``lambda:r=1,m=3``."""
    if not os.path.isfile(spec) and (":" in spec or spec in ("lambda", "lambda1prime")):
        from .families import family_from_spec

        return family_from_spec(spec)
    with open(spec, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _check_flags(args) -> None:
    """Reject ``module``'s ``--cutoff`` and ``--trials`` values no
    computation can run with, before any file is read, and parse
    ``--field``, where a subcommand takes it, into ``args.coefficients``
    (``verify`` flags are checked by ``FamilyConfig``)."""
    if args.command == "verify":
        return
    cutoff, trials = getattr(args, "cutoff", None), getattr(args, "trials", None)
    if cutoff is not None and cutoff < 1:
        raise UsageError("--cutoff must be at least 1")
    if trials is not None and trials < 0:
        raise UsageError("--trials must be nonnegative")
    if "field" in args:
        args.coefficients = field_from_spec(args.field)


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, record: dict, *text_lines: str) -> None:
    """Print one module or algebra report: under ``--structured`` one
    key-sorted JSON line of ``record`` with the field, else the text."""
    if args.structured:
        print(json.dumps({"field": args.field, **record}, sort_keys=True))
    else:
        print(*text_lines, sep="\n")


def _resolve_module(path: str, algebra: Algebra):
    from .modfiles import parse_module_file

    with open(path, encoding="utf-8") as fh:
        modules = parse_module_file(fh.read(), algebra)
    name = next(reversed(modules))
    return name, modules[name]


# -- algebra subcommands -----------------------------------------------------


def cmd_algebra(args) -> int:
    pres = _load_presentation(args.algebra)

    if args.algebra_cmd == "parse":
        print(f"ok: {pres.name}: {len(pres.quiver.vertices)} vertices, "
              f"{len(pres.quiver.arrows)} arrows, {len(pres.relations)} relations")
        return EXIT_OK

    if args.algebra_cmd == "emit":
        _write(emit_presentation(pres), args.output)
        return EXIT_OK

    if args.algebra_cmd == "build":
        algebra = Algebra(pres, field=args.coefficients)
        print(f"{pres.name}: {len(pres.quiver.vertices)} vertices, "
              f"{len(pres.quiver.arrows)} arrows, "
              f"{len(pres.relations)} relations, "
              f"dimension {algebra.dim()} over field {args.field}")
        return EXIT_OK

    if args.algebra_cmd == "projectives":
        algebra = Algebra(pres, field=args.coefficients)
        if not args.structured:
            print(f"projectives of {pres.name} (field {args.field}):")
        for v in algebra.vertices:
            proj = algebra.projective(v)
            layers = radical_filtration(proj)
            layer_text = " | ".join(",".join(f"{u}" if c == 1 else f"{u}^{c}"
                                             for u, c in sorted(layer.items()))
                                    for layer in layers)
            _emit(args, {"vertex": v, "dim": proj.total_dim(),
                         "dims": dict(proj.dim_vector()), "radical_layers": layers},
                  f"  P({v}): dim {proj.total_dim():2d}  [{layer_text}]")
        return EXIT_OK

    if args.algebra_cmd == "dot":
        from .modfiles import dot_quiver

        _write(dot_quiver(pres), args.output)
        return EXIT_OK

    raise AssertionError


# -- module subcommands ------------------------------------------------------


def cmd_module(args) -> int:
    from .modfiles import dot_representation, emit_module_raw

    algebra = Algebra(_load_presentation(args.algebra), field=args.coefficients)
    name, module = _resolve_module(args.file, algebra)

    if args.module_cmd == "pd":
        cutoff = 32 if args.cutoff is None else args.cutoff
        report = projdim(module, cutoff=cutoff, seed=args.seed, trials=args.trials)
        _emit(args, {**report.to_record(), "module": name},
              f"pd {name} over {algebra.pres.name} (field {args.field}): "
              f"{report.describe()}",
              "chain: " + " -> ".join(
                  "0" if not dims else ",".join(f"{v}:{d}" for v, d in dims)
                  for dims in report.chain))
        return EXIT_INCONCLUSIVE if report.verdict == "inconclusive" else EXIT_OK

    if args.module_cmd == "syzygy":
        om = syzygy(module)
        _emit(args, {"module": name, "syzygy_dims": dict(om.dim_vector()),
                     "total": om.total_dim()},
              f"syzygy of {name}: total dim {om.total_dim()}, "
              f"dims {dict(om.dim_vector())}")
        if args.output:
            _write(emit_module_raw(f"syzygy_of_{name}", om), args.output)
        return EXIT_OK

    if args.module_cmd == "hom":
        name_b, mod_b = _resolve_module(args.other, algebra)
        dim = hom_dim(module, mod_b)
        _emit(args, {"source": name, "target": name_b, "hom_dim": dim},
              f"dim Hom({name}, {name_b}) = {dim} (field {args.field})")
        return EXIT_OK

    if args.module_cmd == "iso":
        name_b, mod_b = _resolve_module(args.other, algebra)
        decision = decide_iso(module, mod_b, trials=args.trials, seed=args.seed)
        pair = {"source": name, "target": name_b}
        if decision.status == "not_iso":
            detail = (f" ({dict(module.dim_vector())} vs {dict(mod_b.dim_vector())})"
                      if module.dims != mod_b.dims else "")
            _emit(args, {**pair, "status": decision.status, "reason": decision.reason},
                  f"not isomorphic: {decision.reason}{detail}")
            return EXIT_FAIL
        if decision.status != "iso":
            _emit(args, {**pair, "status": decision.status, "reason": decision.reason,
                         "trials": decision.trials},
                  f"no isomorphism found after {decision.trials} trials "
                  f"(not a proof of non-isomorphism)")
            return EXIT_INCONCLUSIVE
        # An isomorphism's blocks are square: the nonempty ones have rows.
        blocks = [(v, [[str(x) for x in row] for row in m.data])
                  for v, m in sorted(decision.iso.mats.items()) if m.rows]
        _emit(args, {**pair, "certificate": dict(blocks)},
              f"{name} ~ {name_b}: certified isomorphism",
              *(f"  {v}: [{'; '.join(map(' '.join, rows))}]" for v, rows in blocks))
        return EXIT_OK

    if args.module_cmd == "split":
        from .decomp import CertificateFailure, lemma2_split

        try:
            split = lemma2_split(module)
        except CertificateFailure as exc:
            print(f"certificate failure: {exc}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        rec = split.to_record()
        _emit(args, {**rec, "module": name},
              f"splitting of {name} (field {args.field}):",
              f"  c2-string multiplicities: {split.x_multiplicities}",
              f"  projective c2 copies:     {split.a}",
              f"  complement dims:          {dict(split.m_prime.dim_vector())}",
              f"  certificate checksum:     {rec['certificate_checksum']}")
        return EXIT_OK

    if args.module_cmd == "dot":
        _write(dot_representation(name, module), args.output)
        return EXIT_OK

    raise AssertionError


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .claims import (CLAIMS, FAIL, INCONCLUSIVE, PASS, FamilyConfig, run_claim,
                         worst_status)

    claim_ids = list(args.claims)
    if claim_ids == ["all"]:
        claim_ids = list(CLAIMS)
    unknown = [c for c in claim_ids if c not in CLAIMS]
    if unknown:
        print(f"unknown claims: {', '.join(unknown)}; known: "
              f"{', '.join(CLAIMS)}", file=sys.stderr)
        return EXIT_USAGE
    config = FamilyConfig(r=args.r, m_max=args.m_max, t_max=args.t_max,
                          field_spec=args.field, seed=args.seed,
                          cutoff=args.cutoff, samples=args.samples,
                          max_dim=args.max_dim, trials=args.trials)
    reports, records = [], []
    for cid in claim_ids:
        report = run_claim(cid, config)
        reports.append(report)
        if args.structured:
            records.append(report.to_record())
            print(json.dumps(records[-1], sort_keys=True))
        else:
            print(report.describe())
    counts = {status: sum(r.status == status for r in reports)
              for status in (PASS, FAIL, INCONCLUSIVE)}
    if args.structured:
        print(json.dumps({"summary": {"claims": len(reports), **counts},
                          "digest": record_digest(records)}, sort_keys=True))
    else:
        print("summary: " + ", ".join(f"{n} {status}" for status, n in counts.items()))
    return {PASS: EXIT_OK, FAIL: EXIT_FAIL,
            INCONCLUSIVE: EXIT_INCONCLUSIVE}[worst_status(reports)]


# -- wiring -------------------------------------------------------------------


ALGEBRA_HELP = "family spec like lambda:r=1,m=3 or a file path"


def _flag(*names, **keywords) -> argparse.ArgumentParser:
    """A parent parser of one argument, defined here once for every
    subcommand that takes it as ``parents=``."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(*names, **keywords)
    return parser


def build_parser() -> argparse.ArgumentParser:
    file = _flag("file")
    algebra = _flag("--algebra", required=True, help=ALGEBRA_HELP)
    other = _flag("other", help="the second module file")
    field = _flag("--field", default="q",
                  help="coefficient field: q or fp:<p> (default q)")
    structured = _flag("--structured", action="store_true",
                       help="line-delimited JSON records")
    output = _flag("-o", "--output", default=None,
                   help="write the presentation, drawing or syzygy module to this file")
    seed = _flag("--seed", type=int, default=0, help="random seed (default 0)")
    trials = _flag("--trials", type=int, default=None,
                   help="random trials in isomorphism search")
    cutoff = _flag("--cutoff", type=int, default=None,
                   help="syzygy chain cutoff (default 32; verify: r + m + 4 at level m, "
                        "lemma-1 at level 2)")

    parser = argparse.ArgumentParser(
        prog="biserial",
        description="Special biserial algebra presentations, syzygies, and "
                    "projective-dimension verification by exact linear algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    alg_sub = sub.add_parser("algebra", help="presentations and projectives"
                             ).add_subparsers(dest="algebra_cmd", required=True)
    for name, summary, parents in [
            ("build", "build an algebra and print its dimension", [field]),
            ("parse", "validate a presentation", []),
            ("emit", "canonical presentation text", [output]),
            ("projectives", "projective shapes table", [field, structured]),
            ("dot", "quiver drawing in DOT", [output])]:
        alg_sub.add_parser(name, help=summary, parents=parents
                           ).add_argument("algebra", help=ALGEBRA_HELP)

    mod_sub = sub.add_parser("module", help="homological computations on modules"
                             ).add_subparsers(dest="module_cmd", required=True)
    for name, summary, parents in [
            ("pd", "projective dimension report", [cutoff, seed, trials, structured]),
            ("syzygy", "first syzygy", [output, structured]),
            ("hom", "Hom-space dimension", [other, structured]),
            ("iso", "search for a certified isomorphism",
             [other, seed, trials, structured]),
            ("split", "certified c2-splitting", [structured]),
            ("dot", "coefficient quiver in DOT", [output])]:
        mod_sub.add_parser(name, help=summary, parents=[file, algebra, field, *parents])

    ver = sub.add_parser("verify", help="run verification claims",
                         parents=[field, cutoff, seed, trials, structured])
    ver.add_argument("claims", nargs="+",
                     help=_ClaimIdsHelp("claim ids or 'all'"))
    ver.add_argument("--r", type=int, default=1,
                     help="r of lambda(r, m) and lambda1prime(r); every claim reads it "
                          "(default 1)")
    ver.add_argument("--m-max", type=int, default=3,
                     help="top level m: simples-pd, prop-2, section-4 and findim-witness "
                          "check levels 0..m-max, syzygy-descent 1..m-max (default 3)")
    ver.add_argument("--t-max", type=int, default=3,
                     help="section-4 checks members t = 1..t-max (default 3)")
    ver.add_argument("--samples", type=int, default=100,
                     help="lemma-2 and corollary-3 draw this many samples, "
                          "syzygy-descent max(4, samples // 10) per level, "
                          "findim-witness max(10, samples // 5) (default 100)")
    ver.add_argument("--max-dim", type=int, default=40,
                     help="lemma-2 draws each sample's budget from 0..max-dim; "
                          "corollary-3 samples up to max(max-dim, 60); findim-witness "
                          "and syzygy-descent ignore it (default 40)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"algebra": cmd_algebra, "module": cmd_module,
                "verify": cmd_verify}
    try:
        _check_flags(args)
        code = commands[args.command](args)
        # Flush here so a closed pipe surfaces below, not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Send what is still buffered nowhere, so the final flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (InputError, OSError, UnicodeDecodeError) as exc:
        # What the user gave (flags, files and their contents) is at fault.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only a bug gets here; keep it off the start-up path

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def run() -> None:
    """The process entry point, of ``python -m biserial`` and of the
    ``biserial`` script: ``main()``, then exit with its code."""
    code = main()
    # Interpreter shutdown runs full collections over everything the run and
    # ``site`` built.  Frozen objects are never scanned: this lowers teardown
    # from 10-13 ms to 3-4 ms per process, with ru_maxrss unchanged (median of
    # 15 towers-q and ``module pd`` commands, 2-core VM, Python 3.11).  Not
    # os._exit: that skips atexit, and it would end a host that runs the
    # package with runpy.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
