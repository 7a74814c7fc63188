"""Module file format and DOT export of coefficient quivers.

A module file defines one or more named modules over a named algebra::

    module <name> over <algebra-name>
    string <base-vertex> [ <arrow>^+1 <arrow>^-1 ... ]
    sum <module-name> ...
    proj <vertex>
    raw
    dim <vertex> <n>
    mat <arrow> <rows> <cols>
    <row of entries, integers or quotients like -3/2: [+-]?[0-9]+(/[0-9]+)?>

A ``#`` starts a comment that runs to the end of its line, and comment
and blank lines may stand anywhere, between a matrix's rows too: each row
is the next line with tokens (a matrix with no columns takes none).
``sum`` refers to earlier modules in the same file; a ``raw`` body has at
most one ``dim`` per vertex and one ``mat`` per arrow, and each ``dim``,
and each ``mat``'s row and column count, is at most 1000, so that a square
arrow matrix of that size (a million entries, a few MB) can be allocated.
The file's result is its last module.  DOT export draws one node per
basis vector labeled by its vertex, solid edges for alpha arrows and
dashed for beta.  The parsers import the module layer when they run, so
drawing a quiver (``dot_quiver``) loads none of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from . import InputError
from .fields import FieldError
from .matrices import Matrix
from .presentation import ALPHA, logical_lines

if TYPE_CHECKING:
    from .reps import Algebra, Representation

_MAX_DIM = 1000  # the bound on a raw dim that the module docstring states


class ModuleFileError(InputError):
    """Syntax or reference error in a module file, with its line."""


def parse_module_file(text: str, algebra: Algebra) -> Dict[str, Representation]:
    """Parse all modules in a file; returns them in definition order."""
    from .reps import direct_sum

    modules: Dict[str, Representation] = {}
    lines = list(logical_lines(text))
    i = 0
    while i < len(lines):
        lineno, _, tokens = lines[i]
        i += 1
        if tokens[0] != "module":
            raise ModuleFileError(f"expected 'module', got {tokens[0]!r}", lineno)
        if len(tokens) != 4 or tokens[2] != "over":
            raise ModuleFileError("expected: module <name> over <algebra-name>", lineno)
        current_name = tokens[1]
        if tokens[3] != algebra.pres.name:
            raise ModuleFileError(f"module is over {tokens[3]!r} but the context "
                                  f"algebra is {algebra.pres.name!r}", lineno)
        if current_name in modules:
            raise ModuleFileError(f"duplicate module name {current_name!r}", lineno)
        # Body: exactly one construction directive (raw spans several lines).
        if i >= len(lines):
            raise ModuleFileError(f"module {current_name!r} has no body", lineno)
        body_lineno, _, body = lines[i]
        i += 1
        head = body[0]
        if head == "string":
            rep = _parse_string(body, body_lineno, algebra)
        elif head == "sum":
            parts = []
            for name in body[1:]:
                if name not in modules:
                    raise ModuleFileError(f"sum refers to unknown module {name!r}", body_lineno)
                parts.append(modules[name])
            rep = direct_sum(algebra, parts)
        elif head == "proj":
            if len(body) != 2:
                raise ModuleFileError("expected: proj <vertex>", body_lineno)
            if body[1] not in algebra.pres.quiver.vertices:
                raise ModuleFileError(f"unknown vertex {body[1]!r}", body_lineno)
            rep = algebra.projective(body[1])
        elif head == "raw":
            rep, i = _parse_raw(lines, i, body_lineno, algebra)
        else:
            raise ModuleFileError(f"unknown module body directive {head!r}", body_lineno)
        modules[current_name] = rep
    if not modules:
        raise ModuleFileError("no modules defined", 1)
    return modules


def _parse_string(tokens: List[str], lineno: int, algebra: Algebra) -> Representation:
    # string <base> [ letters ]
    from .reps import InvalidString, StringWord, string_module

    if len(tokens) < 4 or tokens[2] != "[" or tokens[-1] != "]":
        raise ModuleFileError("expected: string <base> [ <arrow>^{+1|-1} ... ]", lineno)
    base = tokens[1]
    letters: List[Tuple[str, int]] = []
    for tok in tokens[3:-1]:
        name, sep, power = tok.partition("^")
        if sep != "^" or power not in ("+1", "-1"):
            raise ModuleFileError(f"bad string letter {tok!r}", lineno)
        letters.append((name, 1 if power == "+1" else -1))
    try:
        return string_module(algebra, StringWord(base, letters))
    except InvalidString as exc:
        raise ModuleFileError(str(exc), lineno) from exc


def _count(token: str, lineno: int, what: str) -> int:
    """A nonnegative integer token of at most ``_MAX_DIM``, or an error
    naming the line.  A token too long for ``int`` (Python refuses more
    than 4,300 digits) exceeds the bound too."""
    if not token.isdecimal():
        raise ModuleFileError(f"{what} must be a nonnegative integer, got {token!r}", lineno)
    try:
        value = int(token)
    except ValueError:
        value = None
    if value is None or value > _MAX_DIM:
        raise ModuleFileError(f"{what} {token} exceeds the supported bound {_MAX_DIM}", lineno)
    return value


def _parse_raw(lines: List[Tuple[int, str, List[str]]], i: int, raw_lineno: int,
               algebra: Algebra) -> Tuple[Representation, int]:
    """The raw body from ``lines[i]`` to the next ``module`` line, and its
    index.  A module that fails its shape or relation check is named at its
    ``raw`` line."""
    from .reps import Representation, RepresentationError

    dims: Dict[str, int] = {}
    mats: Dict[str, Matrix] = {}
    field = algebra.field
    while i < len(lines) and lines[i][2][0] != "module":
        lineno, _, tokens = lines[i]
        i += 1
        if tokens[0] == "dim":
            if len(tokens) != 3:
                raise ModuleFileError("expected: dim <vertex> <n>", lineno)
            if tokens[1] not in algebra.pres.quiver.vertices:
                raise ModuleFileError(f"unknown vertex {tokens[1]!r}", lineno)
            if tokens[1] in dims:
                raise ModuleFileError(f"repeated dim for vertex {tokens[1]!r}", lineno)
            dims[tokens[1]] = _count(tokens[2], lineno, "dimension")
        elif tokens[0] == "mat":
            if len(tokens) != 4:
                raise ModuleFileError("expected: mat <arrow> <rows> <cols>", lineno)
            name = tokens[1]
            rows = _count(tokens[2], lineno, "row count")
            cols = _count(tokens[3], lineno, "column count")
            if name not in algebra.pres.quiver.arrows:
                raise ModuleFileError(f"unknown arrow {name!r}", lineno)
            if name in mats:
                raise ModuleFileError(f"repeated mat for arrow {name!r}", lineno)
            # Each row is the next logical line; an empty row takes none.
            data: List[list] = [[] for _ in range(rows)]
            for r in range(rows if cols else 0):
                if i >= len(lines):
                    raise ModuleFileError(f"matrix {name} is truncated", lineno)
                row_lineno, _, entries = lines[i]
                i += 1
                if len(entries) != cols:
                    raise ModuleFileError(f"matrix {name}: expected {cols} entries, "
                                          f"got {len(entries)}", row_lineno)
                try:
                    data[r] = [field.parse(tok) for tok in entries]
                except FieldError as exc:
                    raise ModuleFileError(str(exc), row_lineno) from exc
            mats[name] = Matrix(field, rows, cols, data)
        else:
            raise ModuleFileError(f"unknown raw directive {tokens[0]!r}", lineno)
    try:
        return Representation(algebra, dims, mats), i
    except RepresentationError as exc:
        raise ModuleFileError(str(exc), raw_lineno) from exc


def emit_module_raw(name: str, rep: Representation) -> str:
    """Serialize a representation in the raw format (deterministic)."""
    lines = [f"module {name} over {rep.algebra.pres.name}", "raw"]
    for v in rep.algebra.vertices:
        if rep.dims[v]:
            lines.append(f"dim {v} {rep.dims[v]}")
    for aname in sorted(rep.mats):
        m = rep.mats[aname]
        if m.rows and m.cols and not m.is_zero():
            lines.append(f"mat {aname} {m.rows} {m.cols}")
            for row in m.data:
                lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def _dot_string(text) -> str:
    """``text`` as a quoted DOT string: a backslash or a double quote in it
    is escaped, so any name reads back as itself."""
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_representation(name: str, rep: Representation) -> str:
    """Coefficient quiver in DOT: solid edges alpha, dashed beta."""
    algebra = rep.algebra
    lines = [f"digraph {_dot_string(name)} {{", "  rankdir=TB;"]
    node_ids: Dict[Tuple[str, int], str] = {}
    counter = 0
    for v in algebra.vertices:
        for k in range(rep.dims[v]):
            nid = f"n{counter}"
            counter += 1
            node_ids[(v, k)] = nid
            lines.append(f"  {nid} [label={_dot_string(v)}];")
    for a in algebra.pres.quiver.arrows.values():
        style = "solid" if a.letter == ALPHA else "dashed"
        m = rep.mats[a.name]
        for i in range(m.rows):
            for j in range(m.cols):
                c = m.data[i][j]
                if c:
                    src = node_ids[(a.source, j)]
                    tgt = node_ids[(a.target, i)]
                    extra = "" if c == algebra.field.one else f", label={_dot_string(c)}"
                    lines.append(f"  {src} -> {tgt} [style={style}{extra}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_quiver(pres) -> str:
    """The quiver itself in DOT, solid alpha and dashed beta."""
    lines = [f"digraph {_dot_string(pres.name)} {{"]
    for v in pres.quiver.vertices:
        lines.append(f"  {_dot_string(v)};")
    for a in sorted(pres.quiver.arrows.values(), key=lambda a: a.name):
        style = "solid" if a.letter == ALPHA else "dashed"
        lines.append(f"  {_dot_string(a.source)} -> {_dot_string(a.target)} "
                     f"[style={style}, label={_dot_string(a.name)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
