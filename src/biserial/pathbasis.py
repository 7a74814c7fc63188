"""Linear basis of the quotient algebra of a presentation.

Paths are enumerated breadth-first, each extending a zero-free path by one
arrow, so only the zero relations ending in that arrow are compared, and
only as suffixes.  The enumeration decides by itself whether it ends
(Ufnarovskii's criterion for monomial algebras): once a zero-free path's
last w arrows, w one less than the longest zero relation (at least 1),
occur earlier in it, the stretch after that occurrence can be appended
forever without closing a zero relation.

Equality relations then merge paths.  Each occurrence of a side x of an
equality x = y in a zero-free path q joins q to q', q with that x replaced
by y, or to zero when q' holds a zero relation.  A union-find over the
zero-free paths and one node for zero reads off the classes: a path joined
to zero is 0, and any other path equals its component's member that comes
last in its (source, target) block's order, by (-length, path), which is
the component's basis class.  This is what the reduced row echelon form
over Q of the rows q - q' (or q) gives, the rows that span the two-sided
multiples of the equalities: a component's rows span every vector on it
when it reaches zero, and otherwise its vectors of coefficient sum zero, so
with the columns in that order elimination pivots every column of the
component but its last, each pivot row reading path - last.

The basis carries multiplication tables for single arrows acting on basis
classes, which is all the representation layer needs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import InputError
from .presentation import Presentation

Path = Tuple[str, ...]  # arrow names, first applied first; () is an idempotent


class BoundExceeded(InputError):
    """The zero relations leave infinitely many paths: ``path`` holds none
    of them and ends by repeating arrows it already passed, so it can be
    extended by its final ``stretch``, repeated without end."""

    def __init__(self, pres_name: str, path: Path, stretch: Path):
        self.path = path
        self.stretch = stretch
        super().__init__(
            f"algebra {pres_name!r}: the zero relations leave infinitely many "
            f"paths: {'*'.join(path)} holds none of them, nor does any path "
            f"extending it by repeats of its final stretch {'*'.join(stretch)}")


class PathBasis:
    """Basis path classes of the algebra, grouped by (source, target)."""

    def __init__(self, pres: Presentation):
        self.pres = pres
        # Each side x of an equality x = y, with y, by x's first arrow.
        self._sides: Dict[str, List[Tuple[Path, Path]]] = {}
        for rel in pres.relations:
            if rel.kind == "eq":
                self._sides.setdefault(rel.left[0], []).append((rel.left, rel.right))
                self._sides.setdefault(rel.right[0], []).append((rel.right, rel.left))
        self._build()

    # Class data: self.classes[i] is the representative path of class i.
    # self.reduce maps any surviving raw path to {class index: coefficient}.

    def _zero_free_paths(self) -> Dict[Path, Tuple[str, str]]:
        """The nonempty paths holding no zero relation, breadth-first by
        length, each with its (source, target)."""
        quiver = self.pres.quiver
        zero_by_last: Dict[str, List[Path]] = {}
        for rel in self.pres.relations:
            if rel.kind == "zero":
                zero_by_last.setdefault(rel.left[-1], []).append(rel.left)
        w = max([1] + [len(z) - 1 for zs in zero_by_last.values() for z in zs])
        endpoints: Dict[Path, Tuple[str, str]] = {}
        frontier: List[Tuple[Path, str, str]] = [((), v, v) for v in quiver.vertices]
        while frontier:
            current, frontier = frontier, []
            for p, src, tgt in current:
                for a in quiver.arrows_from(tgt):
                    q = p + (a.name,)
                    if any(q[-len(z):] == z for z in zero_by_last.get(a.name, ())):
                        continue
                    # q's prefixes end in no repeat, so only its own end can,
                    # and only if its last arrow occurs earlier.
                    if q.index(a.name) < len(q) - 1:
                        for i in range(len(q) - w):
                            if q[i:i + w] == q[-w:]:
                                raise BoundExceeded(self.pres.name, q, q[i + w:])
                    endpoints[q] = (src, a.target)
                    frontier.append((q, src, a.target))
        return endpoints

    def _build(self) -> None:
        quiver = self.pres.quiver
        endpoints = self._zero_free_paths()
        # The zero-free paths by (-length, path), then zero, at positions
        # 0..len(paths).  A component lies in one (source, target) block,
        # where this is the block's order, and keeps its last member as root.
        paths = sorted(endpoints, key=lambda p: (-len(p), p))
        position = {p: k for k, p in enumerate(paths)}
        zero = len(paths)
        parent = list(range(zero + 1))

        def find(k: int) -> int:
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        for k, q in enumerate(paths):
            for i, a in enumerate(q):
                for x, y in self._sides.get(a, ()):
                    if q[i:i + len(x)] == x:
                        # A path holding a zero relation is not enumerated: 0.
                        swapped = position.get(q[:i] + y + q[i + len(x):], zero)
                        first, last = sorted((find(k), find(swapped)))
                        parent[first] = last

        # (source, target, representative): the idempotents, then the roots
        # by block and position.
        roots = sorted((k for k in range(zero) if parent[k] == k),
                       key=lambda k: endpoints[paths[k]])
        classes: List[Tuple[str, str, Path]] = [(v, v, ()) for v in quiver.vertices]
        classes += [(*endpoints[paths[k]], paths[k]) for k in roots]
        class_of = {k: i for i, k in enumerate(roots, len(quiver.vertices))}
        reduce_map = {p: {} if (top := find(k)) == zero else {class_of[top]: 1}
                      for k, p in enumerate(paths)}

        self.classes = classes
        self.reduce = reduce_map
        self.by_pair: Dict[Tuple[str, str], List[int]] = {}
        from_vertex: Dict[str, List[int]] = {}
        for i, (src, tgt, _) in enumerate(classes):
            self.by_pair.setdefault((src, tgt), []).append(i)
            from_vertex.setdefault(src, []).append(i)
        self._from = {v: tuple(ids) for v, ids in from_vertex.items()}
        self.dim = len(classes)

        # Arrow action tables: arrow a acting on class i gives a sparse vector.
        self.act: Dict[Tuple[str, int], dict] = {}
        for i, (_, tgt, rep) in enumerate(classes):
            for a in quiver.arrows_from(tgt):
                # Every enumerated path is reduced; any other holds a zero
                # relation.
                self.act[(a.name, i)] = dict(self.reduce.get(rep + (a.name,), {}))

    # -- queries -----------------------------------------------------------

    def classes_from(self, vertex: str) -> Tuple[int, ...]:
        """Basis classes whose representative starts at ``vertex``, in
        increasing order."""
        return self._from.get(vertex, ())

    def class_target(self, i: int) -> str:
        return self.classes[i][1]

    def class_path(self, i: int) -> Path:
        return self.classes[i][2]

    def dim_projective(self, vertex: str) -> int:
        return len(self.classes_from(vertex))
