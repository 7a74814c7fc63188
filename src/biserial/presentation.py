"""Quivers with relations and their line-oriented text format.

A presentation is a quiver (named vertices, named arrows tagged ``alpha``
or ``beta``) together with zero relations (a composite of arrows that
vanishes) and equality relations (two parallel composites that agree).
Paths are stored first-applied-first: the tuple ``(f, g)`` is the
composite "f then g".  The text format lists relation paths with the
leftmost arrow applied last, matching the usual composition order.

File format (UTF-8; a ``#`` starts a comment that runs to the end of its
line, and comment and blank lines may stand anywhere)::

    algebra <name>
    vertex <v>
    arrow <name> : <alpha|beta> <src> -> <tgt>
    rel zero <arrow> [<arrow> ...]
    rel eq <path> = <path>

Emission is deterministic: vertices and arrows lexicographic, relations
sorted.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import InputError

ALPHA = "alpha"
BETA = "beta"


class PresentationError(InputError):
    """Structural problem in a quiver presentation."""


class ParseError(PresentationError):
    """Syntax or reference error in presentation text, with location."""


class Arrow(NamedTuple):
    name: str
    source: str
    target: str
    letter: str  # ALPHA or BETA


class Relation(NamedTuple):
    """Zero relation (right empty) or equality of two parallel paths;
    relations sort by (kind, left, right)."""

    kind: str  # "zero" | "eq"
    left: Tuple[str, ...]
    right: Tuple[str, ...] = ()

    def arrows(self) -> Tuple[str, ...]:
        return self.left + self.right


class Quiver:
    """Finite quiver with two letter classes of arrows."""

    def __init__(self, vertices: Iterable[str], arrows: Iterable[Arrow]):
        self.vertices: Tuple[str, ...] = tuple(sorted(set(vertices)))
        vertex_set = set(self.vertices)
        arrow_list = list(arrows)
        names = [a.name for a in arrow_list]
        if len(names) != len(set(names)):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise PresentationError(f"duplicate arrow names: {', '.join(dup)}")
        for a in arrow_list:
            if a.source not in vertex_set:
                raise PresentationError(f"arrow {a.name}: unknown source vertex {a.source!r}")
            if a.target not in vertex_set:
                raise PresentationError(f"arrow {a.name}: unknown target vertex {a.target!r}")
            if a.letter not in (ALPHA, BETA):
                raise PresentationError(f"arrow {a.name}: bad letter class {a.letter!r}")
        self.arrows: Dict[str, Arrow] = {a.name: a for a in sorted(arrow_list, key=lambda a: a.name)}
        self._out: Dict[str, List[Arrow]] = {v: [] for v in self.vertices}
        self._in: Dict[str, List[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows.values():
            self._out[a.source].append(a)
            self._in[a.target].append(a)

    def arrows_from(self, v: str) -> List[Arrow]:
        return self._out[v]

    def arrows_into(self, v: str) -> List[Arrow]:
        return self._in[v]

    def is_special_biserial(self) -> bool:
        """At most one alpha and one beta arrow start, and end, at each vertex."""
        for v in self.vertices:
            for bundle in (self._out[v], self._in[v]):
                letters = [a.letter for a in bundle]
                if letters.count(ALPHA) > 1 or letters.count(BETA) > 1:
                    return False
        return True


class Presentation:
    """A quiver together with its relations; defines the quotient algebra."""

    def __init__(self, name: str, quiver: Quiver, relations: Iterable[Relation]):
        self.name = name
        self.quiver = quiver
        rels = []
        for rel in relations:
            self._validate_relation(rel)
            rels.append(rel)
        self.relations: Tuple[Relation, ...] = tuple(sorted(rels))

    def _validate_relation(self, rel: Relation) -> None:
        if rel.kind not in ("zero", "eq"):
            raise PresentationError(f"bad relation kind {rel.kind!r}")
        if not rel.left:
            raise PresentationError("empty relation path")
        self.path_endpoints(rel.left)
        if rel.kind == "eq":
            if not rel.right:
                raise PresentationError("equality relation with empty right path")
            ls, lt = self.path_endpoints(rel.left)
            rs, rt = self.path_endpoints(rel.right)
            if (ls, lt) != (rs, rt):
                raise PresentationError(
                    f"equality relation paths are not parallel: "
                    f"{ls}->{lt} vs {rs}->{rt}")

    def path_endpoints(self, path: Sequence[str]) -> Tuple[str, str]:
        """(source, target) of a composable arrow sequence, validating it."""
        arrows = self.quiver.arrows
        prev: Optional[Arrow] = None
        for name in path:
            if name not in arrows:
                raise PresentationError(f"unknown arrow {name!r} in relation path")
            a = arrows[name]
            if prev is not None and prev.target != a.source:
                raise PresentationError(
                    f"non-composable path: {prev.name} ends at {prev.target} "
                    f"but {a.name} starts at {a.source}")
            prev = a
        first = arrows[path[0]]
        return first.source, arrows[path[-1]].target

    def delete_vertices(self, removed: Iterable[str], name: str) -> "Presentation":
        """Full-subquiver presentation on the complement of ``removed``.

        Relations whose paths use a deleted arrow are dropped.
        """
        gone = set(removed)
        missing = gone - set(self.quiver.vertices)
        if missing:
            raise PresentationError(f"cannot delete unknown vertices: {sorted(missing)}")
        vertices = [v for v in self.quiver.vertices if v not in gone]
        arrows = [a for a in self.quiver.arrows.values()
                  if a.source not in gone and a.target not in gone]
        kept_names = {a.name for a in arrows}
        relations = [r for r in self.relations if all(n in kept_names for n in r.arrows())]
        return Presentation(name, Quiver(vertices, arrows), relations)

    def __repr__(self) -> str:
        return (f"Presentation({self.name!r}, {len(self.quiver.vertices)} vertices, "
                f"{len(self.quiver.arrows)} arrows, {len(self.relations)} relations)")


# -- text format -----------------------------------------------------------


def logical_lines(text: str) -> Iterator[Tuple[int, str, List[str]]]:
    """Each line of a ``.alg`` or ``.mod`` text that still has tokens once its
    ``#`` comment is cut, as (line number from 1, the line as written, tokens)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, raw, tokens


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format; raises ParseError with location."""
    name: Optional[str] = None
    vertices: List[str] = []
    arrows: List[Arrow] = []
    pending_rels: List[Tuple[int, str, Tuple[str, ...], Tuple[str, ...]]] = []

    for lineno, raw, tokens in logical_lines(text):
        head = tokens[0]
        if head == "algebra":
            if len(tokens) != 2:
                raise ParseError("expected: algebra <name>", lineno)
            if name is not None:
                raise ParseError("duplicate algebra line", lineno)
            name = tokens[1]
        elif head == "vertex":
            if len(tokens) != 2:
                raise ParseError("expected: vertex <name>", lineno)
            if tokens[1] in vertices:
                raise ParseError(f"repeated vertex {tokens[1]!r}", lineno)
            vertices.append(tokens[1])
        elif head == "arrow":
            # arrow <name> : <alpha|beta> <src> -> <tgt>
            if (len(tokens) != 7 or tokens[2] != ":" or tokens[5] != "->"
                    or tokens[3] not in (ALPHA, BETA)):
                raise ParseError("expected: arrow <name> : <alpha|beta> <src> -> <tgt>", lineno)
            arrows.append(Arrow(tokens[1], tokens[4], tokens[6], tokens[3]))
        elif head == "rel":
            if len(tokens) < 3:
                raise ParseError("expected: rel zero <path> | rel eq <path> = <path>", lineno)
            kind = tokens[1]
            if kind == "zero":
                # Leftmost arrow applied last: storage order is reversed.
                pending_rels.append((lineno, "zero", tuple(reversed(tokens[2:])), ()))
            elif kind == "eq":
                if "=" not in tokens[2:]:
                    raise ParseError("equality relation needs '=' between paths", lineno)
                eq_at = tokens.index("=", 2)
                left = tokens[2:eq_at]
                right = tokens[eq_at + 1:]
                if not left or not right:
                    raise ParseError("equality relation with an empty side", lineno)
                pending_rels.append((lineno, "eq",
                                     tuple(reversed(left)), tuple(reversed(right))))
            else:
                raise ParseError(f"unknown relation kind {kind!r}", lineno)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno,
                             column=raw.index(head) + 1)

    if name is None:
        raise ParseError("missing 'algebra <name>' line", 1)
    try:
        quiver = Quiver(vertices, arrows)
    except PresentationError as exc:
        raise ParseError(str(exc), 1) from exc
    relations = []
    for lineno, kind, left, right in pending_rels:
        try:
            rel = Relation(kind, left, right)
            # Endpoint/composability validation needs the quiver.
            Presentation(name, quiver, [rel])
        except PresentationError as exc:
            raise ParseError(str(exc), lineno) from exc
        relations.append(rel)
    return Presentation(name, quiver, relations)


def emit_presentation(pres: Presentation) -> str:
    """Deterministic text serialization; parse(emit(p)) equals p structurally."""
    lines = [f"algebra {pres.name}"]
    for v in pres.quiver.vertices:
        lines.append(f"vertex {v}")
    for a in sorted(pres.quiver.arrows.values(), key=lambda a: a.name):
        lines.append(f"arrow {a.name} : {a.letter} {a.source} -> {a.target}")
    for rel in pres.relations:
        if rel.kind == "zero":
            lines.append("rel zero " + " ".join(reversed(rel.left)))
        else:
            lines.append("rel eq " + " ".join(reversed(rel.left))
                         + " = " + " ".join(reversed(rel.right)))
    return "\n".join(lines) + "\n"
