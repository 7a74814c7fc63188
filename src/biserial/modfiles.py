"""Module file format and DOT export of coefficient quivers.

A module file defines one or more named modules over a named algebra::

    module <name> over <algebra-name>
    string <base-vertex> [ <arrow>^+1 <arrow>^-1 ... ]
    sum <module-name> ...
    proj <vertex>
    raw
    dim <vertex> <n>
    mat <arrow> <rows> <cols>
    <row of entries, exact rationals like 3/2, or residues over a prime field>

``sum`` refers to earlier modules in the same file; a ``raw`` body has at
most one ``dim`` per vertex and one ``mat`` per arrow, and each ``dim``,
and each ``mat``'s row and column count, is at most 1000, so that a square
arrow matrix of that size (a million entries, a few MB) can be allocated.
The file's result is its last module.  DOT export draws one node per
basis vector labeled by its vertex, solid edges for alpha arrows and
dashed for beta.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .fields import FieldError
from .matrices import Matrix
from .presentation import ALPHA
from .reps import (Algebra, InvalidString, Representation, StringWord,
                   direct_sum, string_module)

_MAX_DIM = 1000  # the bound on a raw dim that the module docstring states


class ModuleFileError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def parse_module_file(text: str, algebra: Algebra) -> Dict[str, Representation]:
    """Parse all modules in a file; returns them in definition order."""
    modules: Dict[str, Representation] = {}
    lines = text.splitlines()
    i = 0
    current_name: Optional[str] = None

    def err(lineno: int, msg: str):
        raise ModuleFileError(lineno, msg)

    while i < len(lines):
        lineno = i + 1
        line = lines[i].split("#", 1)[0].strip()
        i += 1
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "module":
            err(lineno, f"expected 'module', got {tokens[0]!r}")
        if len(tokens) != 4 or tokens[2] != "over":
            err(lineno, "expected: module <name> over <algebra-name>")
        current_name = tokens[1]
        if tokens[3] != algebra.pres.name:
            err(lineno, f"module is over {tokens[3]!r} but the context algebra "
                        f"is {algebra.pres.name!r}")
        if current_name in modules:
            err(lineno, f"duplicate module name {current_name!r}")
        # Body: exactly one construction directive (raw spans several lines).
        while i < len(lines) and not lines[i].split("#", 1)[0].strip():
            i += 1
        if i >= len(lines):
            err(lineno, f"module {current_name!r} has no body")
        body_lineno = i + 1
        body = lines[i].split("#", 1)[0].strip().split()
        i += 1
        head = body[0]
        if head == "string":
            rep = _parse_string(body, body_lineno, algebra)
        elif head == "sum":
            parts = []
            for name in body[1:]:
                if name not in modules:
                    err(body_lineno, f"sum refers to unknown module {name!r}")
                parts.append(modules[name])
            rep = direct_sum(algebra, parts)
        elif head == "proj":
            if len(body) != 2:
                err(body_lineno, "expected: proj <vertex>")
            if body[1] not in algebra.pres.quiver.vertices:
                err(body_lineno, f"unknown vertex {body[1]!r}")
            rep = algebra.projective(body[1])
        elif head == "raw":
            rep, i = _parse_raw(lines, i, algebra)
        else:
            err(body_lineno, f"unknown module body directive {head!r}")
        modules[current_name] = rep
    if not modules:
        raise ModuleFileError(1, "no modules defined")
    return modules


def _parse_string(tokens: List[str], lineno: int, algebra: Algebra) -> Representation:
    # string <base> [ letters ]
    if len(tokens) < 4 or tokens[2] != "[" or tokens[-1] != "]":
        raise ModuleFileError(lineno, "expected: string <base> [ <arrow>^{+1|-1} ... ]")
    base = tokens[1]
    letters: List[Tuple[str, int]] = []
    for tok in tokens[3:-1]:
        name, sep, power = tok.partition("^")
        if sep != "^" or power not in ("+1", "-1"):
            raise ModuleFileError(lineno, f"bad string letter {tok!r}")
        letters.append((name, 1 if power == "+1" else -1))
    try:
        return string_module(algebra, StringWord(base, letters))
    except InvalidString as exc:
        raise ModuleFileError(lineno, str(exc)) from exc


def _count(token: str, lineno: int, what: str) -> int:
    """A nonnegative integer token of at most ``_MAX_DIM``, or an error
    naming the line.  A token too long for ``int`` (Python refuses more
    than 4,300 digits) exceeds the bound too."""
    if not token.isdecimal():
        raise ModuleFileError(lineno, f"{what} must be a nonnegative integer, "
                                      f"got {token!r}")
    try:
        value = int(token)
    except ValueError:
        value = None
    if value is None or value > _MAX_DIM:
        raise ModuleFileError(lineno, f"{what} {token} exceeds the supported "
                                      f"bound {_MAX_DIM}")
    return value


def _parse_raw(lines: List[str], i: int, algebra: Algebra
               ) -> Tuple[Representation, int]:
    dims: Dict[str, int] = {}
    mats: Dict[str, Matrix] = {}
    field = algebra.field
    while i < len(lines):
        lineno = i + 1
        stripped = lines[i].split("#", 1)[0].strip()
        if not stripped:
            i += 1
            continue
        tokens = stripped.split()
        if tokens[0] == "module":
            break
        i += 1
        if tokens[0] == "dim":
            if len(tokens) != 3:
                raise ModuleFileError(lineno, "expected: dim <vertex> <n>")
            if tokens[1] not in algebra.pres.quiver.vertices:
                raise ModuleFileError(lineno, f"unknown vertex {tokens[1]!r}")
            if tokens[1] in dims:
                raise ModuleFileError(lineno, f"repeated dim for vertex {tokens[1]!r}")
            dims[tokens[1]] = _count(tokens[2], lineno, "dimension")
        elif tokens[0] == "mat":
            if len(tokens) != 4:
                raise ModuleFileError(lineno, "expected: mat <arrow> <rows> <cols>")
            name = tokens[1]
            rows = _count(tokens[2], lineno, "row count")
            cols = _count(tokens[3], lineno, "column count")
            if name not in algebra.pres.quiver.arrows:
                raise ModuleFileError(lineno, f"unknown arrow {name!r}")
            if name in mats:
                raise ModuleFileError(lineno, f"repeated mat for arrow {name!r}")
            data = []
            for _ in range(rows):
                if i >= len(lines):
                    raise ModuleFileError(lineno, f"matrix {name} is truncated")
                row_line = lines[i].split("#", 1)[0].strip()
                i += 1
                entries = row_line.split()
                if len(entries) != cols:
                    raise ModuleFileError(
                        i, f"matrix {name}: expected {cols} entries, got {len(entries)}")
                try:
                    data.append([field.parse(tok) for tok in entries])
                except FieldError as exc:
                    raise ModuleFileError(i, str(exc)) from exc
            mats[name] = Matrix(field, rows, cols, data)
        else:
            raise ModuleFileError(lineno, f"unknown raw directive {tokens[0]!r}")
    return Representation(algebra, dims, mats), i


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


def dot_representation(name: str, rep: Representation) -> str:
    """Coefficient quiver in DOT: solid edges alpha, dashed beta."""
    algebra = rep.algebra
    lines = [f'digraph "{name}" {{', "  rankdir=TB;"]
    node_ids: Dict[Tuple[str, int], str] = {}
    counter = 0
    for v in algebra.vertices:
        for k in range(rep.dims[v]):
            nid = f"n{counter}"
            counter += 1
            node_ids[(v, k)] = nid
            lines.append(f'  {nid} [label="{v}"];')
    for a in algebra.pres.quiver.arrows.values():
        style = "solid" if a.letter == ALPHA else "dashed"
        m = rep.mats[a.name]
        for i in range(m.rows):
            for j in range(m.cols):
                c = m.data[i][j]
                if c:
                    src = node_ids[(a.source, j)]
                    tgt = node_ids[(a.target, i)]
                    extra = "" if c == algebra.field.one else \
                        f', label="{c}"'
                    lines.append(f"  {src} -> {tgt} [style={style}{extra}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_quiver(pres) -> str:
    """The quiver itself in DOT, solid alpha and dashed beta."""
    lines = [f'digraph "{pres.name}" {{']
    for v in pres.quiver.vertices:
        lines.append(f'  "{v}";')
    for a in sorted(pres.quiver.arrows.values(), key=lambda a: a.name):
        style = "solid" if a.letter == ALPHA else "dashed"
        lines.append(f'  "{a.source}" -> "{a.target}" [style={style}, label="{a.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
