"""Command-line front end.

Subcommands::

    algebra build|parse|emit|projectives|dot   presentations and projectives
    module  pd|syzygy|hom|iso|split|dot        homological computations
    verify  <claim ...>|all                    the claim catalog

Exit codes: 0 success / all claims pass, 1 a claim failed or ``module
iso`` proved the modules not isomorphic, 2 an input error (a
``biserial.InputError``, or a file that cannot be opened or read as
UTF-8), 3 an inconclusive verdict (with ``--strict`` for ``module pd``; a
``module iso`` search that missed; a ``module split`` certificate that
could not be built, as for a module outside Lemma 2's scope), 4 an
internal error (a bug, reported as ``internal error: ...``), 141 the
reader of stdout went away, as for a writer killed by SIGPIPE
(``biserial verify all | head -1``).
``--structured`` switches reports to line-delimited JSON records,
byte-stable for identical flags.

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
    ``--field`` into ``args.coefficients`` (``verify`` flags are checked by
    ``FamilyConfig``)."""
    if args.command == "module" and getattr(args, "cutoff", 1) < 1:
        raise UsageError("--cutoff must be at least 1")
    if args.command == "module" and (getattr(args, "trials", None) or 0) < 0:
        raise UsageError("--trials must be nonnegative")
    if args.command != "verify":  # parsed also where no algebra is built
        args.coefficients = field_from_spec(args.field)


def _algebra(pres, args) -> Algebra:
    return Algebra(pres, field=args.coefficients)


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        algebra = _algebra(pres, args)
        print(f"{pres.name}: {len(pres.quiver.vertices)} vertices, "
              f"{len(pres.quiver.arrows)} arrows, "
              f"{len(pres.relations)} relations, "
              f"dimension {algebra.dim()} over field {args.field}")
        return EXIT_OK

    if args.algebra_cmd == "projectives":
        algebra = _algebra(pres, args)
        records = []
        for v in algebra.vertices:
            proj = algebra.projective(v)
            layers = radical_filtration(proj)
            records.append({"vertex": v, "dim": proj.total_dim(),
                            "dims": dict(proj.dim_vector()),
                            "radical_layers": layers})
        if args.structured:
            for rec in records:
                rec["field"] = args.field
                print(json.dumps(rec, sort_keys=True))
        else:
            print(f"projectives of {pres.name} (field {args.field}):")
            for rec in records:
                layer_text = " | ".join(
                    ",".join(f"{v}" if c == 1 else f"{v}^{c}"
                             for v, c in sorted(layer.items()))
                    for layer in rec["radical_layers"])
                print(f"  P({rec['vertex']}): dim {rec['dim']:2d}  [{layer_text}]")
        return EXIT_OK

    if args.algebra_cmd == "dot":
        from .modfiles import dot_quiver

        _write(dot_quiver(pres), args.output)
        return EXIT_OK

    raise AssertionError


# -- module subcommands ------------------------------------------------------


def cmd_module(args) -> int:
    from .modfiles import dot_representation, emit_module_raw

    algebra = _algebra(_load_presentation(args.algebra), args)
    name, module = _resolve_module(args.file, algebra)

    if args.module_cmd == "pd":
        report = projdim(module, cutoff=args.cutoff, seed=args.seed,
                         trials=args.trials)
        if args.structured:
            rec = report.to_record()
            rec.update({"module": name, "field": args.field})
            print(json.dumps(rec, sort_keys=True))
        else:
            print(f"pd {name} over {algebra.pres.name} (field {args.field}): "
                  f"{report.describe()}")
            print("chain: " + " -> ".join(
                "0" if not dims else ",".join(f"{v}:{d}" for v, d in dims)
                for dims in report.chain))
        if report.verdict == "inconclusive" and args.strict:
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    if args.module_cmd == "syzygy":
        om = syzygy(module)
        if args.structured:
            print(json.dumps({"module": name, "field": args.field,
                              "syzygy_dims": dict(om.dim_vector()),
                              "total": om.total_dim()}, sort_keys=True))
        else:
            print(f"syzygy of {name}: total dim {om.total_dim()}, "
                  f"dims {dict(om.dim_vector())}")
        if args.output:
            _write(emit_module_raw(f"syzygy_of_{name}", om), args.output)
        return EXIT_OK

    if args.module_cmd == "hom":
        name_b, mod_b = _resolve_module(args.other, algebra)
        dim = hom_dim(module, mod_b)
        if args.structured:
            print(json.dumps({"source": name, "target": name_b,
                              "field": args.field, "hom_dim": dim},
                             sort_keys=True))
        else:
            print(f"dim Hom({name}, {name_b}) = {dim} "
                  f"(field {args.field})")
        return EXIT_OK

    if args.module_cmd == "iso":
        name_b, mod_b = _resolve_module(args.other, algebra)
        decision = decide_iso(module, mod_b, trials=args.trials, seed=args.seed)
        if decision.status != "iso":
            if args.structured:
                rec = {"source": name, "target": name_b, "field": args.field,
                       "status": decision.status, "reason": decision.reason}
                if decision.trials is not None:
                    rec["trials"] = decision.trials
                print(json.dumps(rec, sort_keys=True))
            elif decision.status == "not_iso":
                detail = (f" ({dict(module.dim_vector())} vs {dict(mod_b.dim_vector())})"
                          if module.dims != mod_b.dims else "")
                print(f"not isomorphic: {decision.reason}{detail}")
            else:
                print(f"no isomorphism found after {decision.trials} trials "
                      f"(not a proof of non-isomorphism)")
            return EXIT_FAIL if decision.status == "not_iso" else EXIT_INCONCLUSIVE
        cert = decision.iso
        if args.structured:
            payload = {v: [[str(x) for x in row] for row in m.data]
                       for v, m in sorted(cert.mats.items()) if m.rows or m.cols}
            print(json.dumps({"source": name, "target": name_b,
                              "field": args.field, "certificate": payload},
                             sort_keys=True))
        else:
            print(f"{name} ~ {name_b}: certified isomorphism")
            for v, m in sorted(cert.mats.items()):
                if m.rows and m.cols:
                    rows = "; ".join(" ".join(map(str, row)) for row in m.data)
                    print(f"  {v}: [{rows}]")
        return EXIT_OK

    if args.module_cmd == "split":
        from .decomp import CertificateFailure, lemma2_split

        try:
            split = lemma2_split(module)
        except CertificateFailure as exc:
            print(f"certificate failure: {exc}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        rec = split.to_record()
        if args.structured:
            rec.update({"module": name, "field": args.field})
            print(json.dumps(rec, sort_keys=True))
        else:
            print(f"splitting of {name} (field {args.field}):")
            print(f"  c2-string multiplicities: {split.x_multiplicities}")
            print(f"  projective c2 copies:     {split.a}")
            print(f"  complement dims:          {dict(split.m_prime.dim_vector())}")
            print(f"  certificate checksum:     {rec['certificate_checksum']}")
        return EXIT_OK

    if args.module_cmd == "dot":
        _write(dot_representation(name, module), args.output)
        return EXIT_OK

    raise AssertionError


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .claims import CLAIMS, FamilyConfig, run_claim

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
    statuses = {r.status for r in reports}
    summary = {"claims": len(reports),
               "pass": sum(r.status == "pass" for r in reports),
               "fail": sum(r.status == "fail" for r in reports),
               "inconclusive": sum(r.status == "inconclusive" for r in reports)}
    if args.structured:
        print(json.dumps({"summary": summary,
                          "digest": record_digest(records)},
                         sort_keys=True))
    else:
        print(f"summary: {summary['pass']} pass, {summary['fail']} fail, "
              f"{summary['inconclusive']} inconclusive")
    if "fail" in statuses:
        return EXIT_FAIL
    if "inconclusive" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


ALGEBRA_HELP = "family spec like lambda:r=1,m=3 or a file path"


def _add_common(parser, seed=False, cutoff=False, trials=False):
    parser.add_argument("--field", default="q",
                        help="coefficient field: q or fp:<p> (default q)")
    if seed:
        parser.add_argument("--seed", type=int, default=0)
    if cutoff:
        parser.add_argument("--cutoff", type=int, default=32,
                            help="syzygy chain cutoff")
    if trials:
        parser.add_argument("--trials", type=int, default=None,
                            help="random trials in isomorphism search")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biserial",
        description="Special biserial algebra presentations, syzygies, and "
                    "projective-dimension verification by exact linear algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra", help="presentations and projectives")
    alg_sub = alg.add_subparsers(dest="algebra_cmd", required=True)

    p = alg_sub.add_parser("build", help="build an algebra and print its dimension")
    p.add_argument("algebra", help=ALGEBRA_HELP)
    _add_common(p)

    # Presentations are field-independent; parse, emit and dot accept the
    # flag for uniformity across subcommands.
    p = alg_sub.add_parser("parse", help="validate a presentation")
    p.add_argument("algebra", help=ALGEBRA_HELP)
    p.add_argument("--field", default="q", help=argparse.SUPPRESS)

    p = alg_sub.add_parser("emit", help="canonical presentation text")
    p.add_argument("algebra", help=ALGEBRA_HELP)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--field", default="q", help=argparse.SUPPRESS)

    p = alg_sub.add_parser("projectives", help="projective shapes table")
    p.add_argument("algebra", help=ALGEBRA_HELP)
    p.add_argument("--structured", action="store_true")
    _add_common(p)

    p = alg_sub.add_parser("dot", help="quiver drawing in DOT")
    p.add_argument("algebra", help=ALGEBRA_HELP)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--field", default="q", help=argparse.SUPPRESS)

    mod = sub.add_parser("module", help="homological computations on modules")
    mod_sub = mod.add_subparsers(dest="module_cmd", required=True)

    p = mod_sub.add_parser("pd", help="projective dimension report")
    p.add_argument("file")
    p.add_argument("--algebra", required=True, help=ALGEBRA_HELP)
    p.add_argument("--strict", action="store_true",
                   help="exit 3 on an inconclusive verdict")
    p.add_argument("--structured", action="store_true")
    _add_common(p, seed=True, cutoff=True, trials=True)

    p = mod_sub.add_parser("syzygy", help="first syzygy")
    p.add_argument("file")
    p.add_argument("--algebra", required=True)
    p.add_argument("-o", "--output", default=None,
                   help="write the syzygy in raw module format")
    p.add_argument("--structured", action="store_true")
    _add_common(p)

    p = mod_sub.add_parser("hom", help="Hom-space dimension")
    p.add_argument("file")
    p.add_argument("other")
    p.add_argument("--algebra", required=True)
    p.add_argument("--structured", action="store_true")
    _add_common(p)

    p = mod_sub.add_parser("iso", help="search for a certified isomorphism")
    p.add_argument("file")
    p.add_argument("other")
    p.add_argument("--algebra", required=True)
    p.add_argument("--structured", action="store_true")
    _add_common(p, seed=True, trials=True)

    p = mod_sub.add_parser("split", help="certified c2-splitting")
    p.add_argument("file")
    p.add_argument("--algebra", required=True)
    p.add_argument("--structured", action="store_true")
    _add_common(p)

    p = mod_sub.add_parser("dot", help="coefficient quiver in DOT")
    p.add_argument("file")
    p.add_argument("--algebra", required=True)
    p.add_argument("-o", "--output", default=None)
    _add_common(p)

    ver = sub.add_parser("verify", help="run verification claims")
    ver.add_argument("claims", nargs="+",
                     help=_ClaimIdsHelp("claim ids or 'all'"))
    ver.add_argument("--r", type=int, default=1)
    ver.add_argument("--m-max", type=int, default=3)
    ver.add_argument("--t-max", type=int, default=3)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=100)
    ver.add_argument("--max-dim", type=int, default=40)
    ver.add_argument("--cutoff", type=int, default=None)
    ver.add_argument("--trials", type=int, default=None)
    ver.add_argument("--field", default="q")
    ver.add_argument("--structured", action="store_true")

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
