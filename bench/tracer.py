"""Outside-in tracer for the biserial CLI.

Usage::

    python bench/tracer.py SPANS_FILE -- <biserial arguments...>

Imports ``biserial`` from ``src/`` of the checkout, wraps the public
functions of every module of the package (and a fixed set of methods on
their classes), then calls ``biserial.cli.main(argv)`` and exits with its
return code.  No source file is changed: the wrappers are installed by
rebinding module attributes, including every ``from .x import f`` alias, so
calls made through any module's globals reach the wrapper.

Each wrapped call records a span (name, start, end, parent) in memory, in
compact arrays; when the run ends the span-name table and a few counters
are written to SPANS_FILE as JSON, and the spans to SPANS_FILE + ".bin"
(see ``read_spans``).  The tracer writes nothing to stdout, so the program's stdout is
byte-identical to an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# The layers: every module of the package that holds code.
LAYERS = ("fields", "matrices", "presentation", "families", "pathbasis",
          "reps", "homology", "decomp", "witnesses", "modfiles", "claims",
          "cli")

# Methods wrapped on their classes, as (module, class, method).
METHODS = (
    ("matrices", "Matrix", "rref"),
    ("matrices", "Matrix", "rank"),
    ("matrices", "Matrix", "kernel_basis"),
    ("matrices", "Matrix", "solve"),
    ("matrices", "Matrix", "inverse"),
    ("matrices", "Matrix", "image_basis"),
    ("matrices", "Matrix", "__matmul__"),
    ("reps", "Algebra", "__init__"),
    ("reps", "Algebra", "projective"),
    ("reps", "Representation", "__init__"),
    ("reps", "Representation", "path_matrix"),
    ("pathbasis", "PathBasis", "__init__"),
)


class Tracer:
    """Span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names = []              # span-name table
        self._ids = {}
        self.name = array("l")       # per span: index into ``names``
        self.parent = array("l")     # per span: parent span number, -1 at the root
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def raise_to(self, counter: str, value: int) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def wrap(self, fn, span: str, label=None, count=None):
        """A wrapper recording one span per call of ``fn``.

        ``label(args)`` appends a call-specific suffix to the span name;
        ``count(tracer, args, result)`` updates counters after the span ends.
        """
        nid = self.name_id(span)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid if label is None
                         else self.name_id(f"{span}:{label(args)}"))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        traced.__bench_traced__ = True
        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": len(self.name),
                                    "counters": self.counters}))
        with open(f"{path}.bin", "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)


def read_spans(path: Path):
    """The header dict and the (name, parent, start, end) arrays of a dump."""
    header = json.loads(path.read_text())
    n = header["spans"]
    columns = [array("l"), array("l"), array("d"), array("d")]
    with open(f"{path}.bin", "rb") as fh:
        for column in columns:
            column.fromfile(fh, n)
    return header, columns


# -- counters measured at the layer boundary ----------------------------------


def _count_rref(tracer, args, result):
    matrix = args[0]
    tracer.add("matrices.rref.cells", matrix.rows * matrix.cols)
    bits = 0
    for row in result[0].data:
        for x in row:
            # Over q the entries are Fractions; over fp:p they are ints.
            if isinstance(x, Fraction):
                bits = max(bits, x.numerator.bit_length(),
                           x.denominator.bit_length())
    tracer.raise_to("matrices.rref.max_bits", bits)


def _count_hom_basis(tracer, args, result):
    source, target = args[0], args[1]
    tracer.add("homology.hom_basis.unknowns",
               sum(target.dims[v] * source.dims[v] for v in source.dims))


def _count_certified_iso(tracer, args, result):
    tracer.add("homology.certified_iso.found", result is not None)


def _count_projdim(tracer, args, result):
    tracer.add("homology.projdim.steps", len(result.chain) - 1)


COUNTS = {
    "matrices.Matrix.rref": _count_rref,
    "homology.hom_basis": _count_hom_basis,
    "homology.certified_iso": _count_certified_iso,
    "homology.projdim": _count_projdim,
}

LABELS = {
    # One span name per claim id, so each claim's time is its own metric.
    "claims.run_claim": lambda args: args[0],
}


# -- installation ---------------------------------------------------------------


def _modules():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("biserial")
    mods = {name: importlib.import_module(f"biserial.{name}") for name in LAYERS}
    return package, mods


def _public_functions(mod):
    return {name: obj for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not name.startswith("_")}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and the listed methods.

    Every module attribute (and every value of a module-level dict, such as
    the claim registry) that refers to a wrapped function is rebound to its
    wrapper.
    """
    package, mods = _modules()
    wrapped = {}
    for layer, mod in mods.items():
        for name, fn in _public_functions(mod).items():
            span = f"{layer}.{name}"
            wrapped[fn] = tracer.wrap(fn, span, LABELS.get(span), COUNTS.get(span))
    for mod in [package, *mods.values()]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in wrapped:
                        value[key] = wrapped[item]
    for layer, cls_name, meth in METHODS:
        cls = getattr(mods[layer], cls_name)
        span = f"{layer}.{cls_name}.{meth}"
        setattr(cls, meth, tracer.wrap(vars(cls)[meth], span, None, COUNTS.get(span)))


def unwrapped_references() -> list:
    """Module attributes and registry entries still bound to an original.

    Call after ``install``; an empty list means no call through a module's
    globals, a registry or a wrapped class method can escape the tracer.
    """
    package, mods = _modules()
    # After install a module's own attribute is the wrapper.
    originals = {getattr(fn, "__wrapped__", fn) for mod in mods.values()
                 for fn in _public_functions(mod).values()}
    leaks = []
    for mod in [package, *mods.values()]:
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) and value in originals:
                leaks.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, dict):
                leaks += [f"{mod.__name__}.{attr}[{key!r}]"
                          for key, item in value.items()
                          if inspect.isfunction(item) and item in originals]
    for layer, cls_name, meth in METHODS:
        if not getattr(vars(getattr(mods[layer], cls_name))[meth],
                       "__bench_traced__", False):
            leaks.append(f"biserial.{layer}.{cls_name}.{meth}")
    return leaks


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_FILE -- <biserial arguments...>",
              file=sys.stderr)
        return 2
    spans_file, cli_args = Path(argv[0]), argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["biserial.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
