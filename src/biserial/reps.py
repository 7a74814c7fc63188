"""Finite-dimensional representations of a presentation.

A representation assigns a dimension to each vertex and a matrix to each
arrow (rows indexed by the target space, columns by the source space).
Construction from user-supplied matrices verifies every relation; derived
constructions that satisfy them by arithmetic (block sums, kernels) skip
the check, and the property tests re-verify them.  Values are immutable
after construction; all operations are pure.

The ``Algebra`` context bundles a presentation with its path basis and a
coefficient field; projectives, simples and random modules are built from
it.  It also decides the basis of every free module, a direct sum of
projectives (``free_basis``), and the arrow action on it (``free_action``):
projectives, projective covers and the maps out of them all read that one
layout.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from . import InputError
from .fields import QQ
from .matrices import Matrix, block_diag
from .pathbasis import PathBasis
from .presentation import Arrow, Presentation, Relation


# The basis of a free module at each vertex: pair (summand g, path class p)
# -> its row.
FreeBasis = Dict[str, Dict[Tuple[int, int], int]]


class RepresentationError(InputError):
    """Malformed representation: bad shapes or violated relations."""


class InvalidString(InputError):
    """A walk that does not define a module, with the reason named."""


class Algebra:
    """Presentation + path basis + field: the computation context."""

    def __init__(self, pres: Presentation, field=QQ):
        self.pres = pres
        self.field = field
        self.basis = PathBasis(pres)
        self._memo: Dict[str, object] = {}
        self._empty: Dict[Tuple[int, int], Matrix] = {}

    def memo(self, key: str, build: Callable[["Algebra"], object]):
        """``build(self)``, computed on the first call for ``key`` and then
        shared: for derived objects that, like projectives, are immutable
        by convention and cost more to rebuild than to keep."""
        if key not in self._memo:
            self._memo[key] = build(self)
        return self._memo[key]

    def zero_matrix(self, rows: int, cols: int) -> Matrix:
        """A zero matrix over the algebra's field.  One with no entries is
        shared per shape, since nothing can be written into it; it is what
        most arrows of a module with small support carry."""
        if rows and cols:
            return Matrix.zeros(self.field, rows, cols)
        if (rows, cols) not in self._empty:
            self._empty[rows, cols] = Matrix.zeros(self.field, rows, cols)
        return self._empty[rows, cols]

    @cached_property
    def arrow_ends(self) -> List[Tuple[str, str, str]]:
        """(name, source, target) of each arrow, in quiver order."""
        return [(a.name, a.source, a.target) for a in self.pres.quiver.arrows.values()]

    @cached_property
    def _relation_ends(self) -> List[Tuple[Relation, str, str]]:
        """(relation, source, target) of each relation, in presentation
        order; the presentation validated every path when it was built."""
        ends = self.pres.path_endpoints
        return [(rel, *ends(rel.left)) for rel in self.pres.relations]

    @cached_property
    def action(self) -> Dict[Tuple[str, int], List[Tuple[int, object]]]:
        """(arrow, class p) -> the terms (q, c) of arrow·p, c nonzero in the field."""
        return {key: [(q, x) for q, c in vec.items() if (x := self.field(c))]
                for key, vec in self.basis.act.items()}

    def free_basis(self, tops: Sequence[str]) -> FreeBasis:
        """The basis of the free module, the direct sum of the P(tops[g]):
        at each vertex w, the pairs (g, p) of a summand g and a path class
        p from tops[g] to w, in ``direct_sum`` block order, each mapped to
        its row."""
        basis = self.basis
        rows: FreeBasis = {v: {} for v in self.vertices}
        for g, v in enumerate(tops):
            for p in basis.classes_from(v):
                at = rows[basis.class_target(p)]
                at[g, p] = len(at)
        return rows

    def free_action(self, free: FreeBasis, arrow: Arrow, columns: Matrix) -> Matrix:
        """``arrow`` applied to ``columns`` on the ``free_basis`` ``free``:
        (g, p) goes to the sum of c * (g, q) over the terms c * q of
        arrow·p, and only the nonzero entries of ``columns`` are read."""
        field, action = self.field, self.action
        rows = free[arrow.target]
        out = [[field.zero] * columns.cols for _ in rows]
        for (g, p), entries in zip(free[arrow.source], columns.data):
            for q, c in action[arrow.name, p]:
                row = out[rows[g, q]]
                for j, x in enumerate(entries):
                    if x:
                        row[j] += c * x
        return Matrix(field, len(out), columns.cols, field.reduce(out))

    @property
    def vertices(self) -> Tuple[str, ...]:
        return self.pres.quiver.vertices

    def dim(self) -> int:
        return self.basis.dim

    def zero_module(self) -> "Representation":
        return Representation(self, {v: 0 for v in self.vertices}, {})

    def simple(self, vertex: str) -> "Representation":
        """The simple at ``vertex``, built and relation-checked on the first
        call and then kept in ``memo``, like ``projective``."""
        if vertex not in self.pres.quiver.vertices:
            raise RepresentationError(f"unknown vertex {vertex!r}")
        return self.memo("simple " + vertex, lambda alg: Representation(
            alg, {v: int(v == vertex) for v in alg.vertices}, {}))

    def projective(self, vertex: str) -> "Representation":
        """Indecomposable projective with top at ``vertex``: the free module
        on ``[vertex]``, whose arrows act on the identity.

        Built and relation-checked on the first call, then kept in
        ``memo``: representations are immutable by convention, so every
        caller may share it.
        """
        if vertex not in self.pres.quiver.vertices:
            raise RepresentationError(f"unknown vertex {vertex!r}")
        return self.memo("projective " + vertex, lambda alg: alg._free_module([vertex], True))

    def _free_module(self, tops: Sequence[str], check: bool = False) -> "Representation":
        """Every free module is built here, on ``free_basis``: the direct sum
        of the P(v), v in ``tops``, its arrows acting on the identity."""
        free = self.free_basis(tops)
        dims = {v: len(rows) for v, rows in free.items()}
        return Representation(self, dims, {
            a.name: self.free_action(free, a, Matrix.identity(self.field, dims[a.source]))
            for a in self.pres.quiver.arrows.values() if dims[a.source] and dims[a.target]},
            check)

    def __repr__(self) -> str:
        return f"Algebra({self.pres.name}, {self.field!r})"


class Representation:
    """A module over an ``Algebra``: dims per vertex, a matrix per arrow."""

    def __init__(self, algebra: Algebra, dims: Dict[str, int],
                 mats: Dict[str, Matrix], check: bool = True):
        self.algebra = algebra
        self.dims = dims = {v: int(dims.get(v, 0)) for v in algebra.vertices}
        if any(d < 0 for d in dims.values()):
            raise RepresentationError("negative dimension")
        get, empty, zero = mats.get, algebra._empty.get, algebra.zero_matrix
        full: Dict[str, Matrix] = {}
        for name, x, y in algebra.arrow_ends:
            rows, cols = dims[y], dims[x]
            m = get(name)
            if m is None:
                m = empty((rows, cols)) or zero(rows, cols)
            elif m.rows != rows or m.cols != cols:
                raise RepresentationError(
                    f"arrow {name}: matrix is {m.rows}x{m.cols}, expected {rows}x{cols}")
            full[name] = m
        self.mats = full
        if check:
            bad = self.violated_relations()
            if bad:
                raise RepresentationError(
                    f"relations violated: {', '.join(bad[:3])}"
                    + ("..." if len(bad) > 3 else ""))

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def dim_vector(self) -> Tuple[Tuple[str, int], ...]:
        return tuple((v, d) for v, d in sorted(self.dims.items()) if d)

    # No command calls path_matrix; it stays for bench/tracer.py, which
    # wraps it as vars(Representation)["path_matrix"].
    def path_matrix(self, path: Sequence[str]) -> Matrix:
        """Matrix of a nonempty composite path (first arrow applied first).

        A one-arrow path returns the arrow's own matrix, shared.
        """
        self.algebra.pres.path_endpoints(path)
        return self._path_product(path)

    def _path_product(self, path: Sequence[str]) -> Matrix:
        """``path_matrix`` of a path known to be composable."""
        m = self.mats[path[0]]
        for name in path[1:]:
            m = self.mats[name] @ m
        return m

    def violated_relations(self) -> List[str]:
        """Relations whose two sides differ.  A relation path with a
        zero-dimensional end has an empty matrix on both sides, so it holds
        and is skipped."""
        out = []
        dims = self.dims
        for rel, src, tgt in self.algebra._relation_ends:
            if not (dims[src] and dims[tgt]):
                continue
            left = self._path_product(rel.left)
            if rel.kind == "zero":
                if not left.is_zero():
                    out.append("zero " + "*".join(reversed(rel.left)))
            else:
                if left != self._path_product(rel.right):
                    out.append("eq " + "*".join(reversed(rel.left))
                               + " = " + "*".join(reversed(rel.right)))
        return out

    def supported_on(self, vertex_set: Iterable[str]) -> bool:
        allowed = set(vertex_set)
        return all(d == 0 for v, d in self.dims.items() if v not in allowed)

    def support(self) -> List[str]:
        return sorted(v for v, d in self.dims.items() if d)

    def __repr__(self) -> str:
        parts = ", ".join(f"{v}:{d}" for v, d in self.dim_vector())
        return f"Representation({parts or '0'})"


class ModuleMap:
    """Vertexwise linear maps between two representations of one algebra."""

    def __init__(self, source: Representation, target: Representation,
                 mats: Dict[str, Matrix]):
        if source.algebra.pres is not target.algebra.pres:
            raise RepresentationError("module map across different presentations")
        self.source = source
        self.target = target
        algebra, sdims, tdims = source.algebra, source.dims, target.dims
        get, empty, zero = mats.get, algebra._empty.get, algebra.zero_matrix
        full: Dict[str, Matrix] = {}
        for v in algebra.vertices:
            rows, cols = tdims[v], sdims[v]
            m = get(v)
            if m is None:
                m = empty((rows, cols)) or zero(rows, cols)
            elif m.rows != rows or m.cols != cols:
                raise RepresentationError(
                    f"vertex {v}: map is {m.rows}x{m.cols}, expected {rows}x{cols}")
            full[v] = m
        self.mats = full

    def _blocks(self) -> List[str]:
        """Vertices where the map has entries; at every other vertex it is
        an empty matrix."""
        return [v for v in self.source.algebra.vertices
                if self.source.dims[v] and self.target.dims[v]]

    def violations(self) -> List[str]:
        """Arrows where the intertwining square fails to commute.  A square
        whose corners have a zero-dimensional space commutes trivially."""
        out = []
        for a in self.source.algebra.pres.quiver.arrows.values():
            if not (self.source.dims[a.source] and self.target.dims[a.target]):
                continue
            lhs = self.mats[a.target] @ self.source.mats[a.name]
            rhs = self.target.mats[a.name] @ self.mats[a.source]
            if lhs != rhs:
                out.append(a.name)
        return out

    def is_morphism(self) -> bool:
        return not self.violations()

    def is_zero(self) -> bool:
        return all(self.mats[v].is_zero() for v in self._blocks())

    def is_iso(self) -> bool:
        # Equal dimension vectors make every block square.
        return (self.source.dims == self.target.dims and self.is_morphism()
                and all(self.mats[v].rank() == self.source.dims[v]
                        for v in self._blocks()))

    def compose(self, earlier: "ModuleMap") -> "ModuleMap":
        """self after earlier."""
        if earlier.target is not self.source:
            if earlier.target.dims != self.source.dims:
                raise RepresentationError("composition shape mismatch")
        mats = {v: self.mats[v] @ earlier.mats[v]
                for v in self.source.algebra.vertices
                if earlier.source.dims[v] and self.target.dims[v]}
        return ModuleMap(earlier.source, self.target, mats)

    @classmethod
    def identity(cls, rep: Representation) -> "ModuleMap":
        return cls(rep, rep, {v: Matrix.identity(rep.algebra.field, d)
                              for v, d in rep.dims.items() if d})

    @classmethod
    def zero(cls, source: Representation, target: Representation) -> "ModuleMap":
        return cls(source, target, {})

    def __repr__(self) -> str:
        return f"ModuleMap({self.source!r} -> {self.target!r})"


# -- string modules ----------------------------------------------------------

DIRECT = 1
INVERSE = -1


class StringWord:
    """A walk: base vertex plus letters (arrow, DIRECT | INVERSE).

    A direct letter steps along its arrow; an inverse letter steps against
    it.  The walk must be connected, never immediately backtrack, and the
    module it draws must satisfy every relation of the algebra.
    """

    def __init__(self, base: str, letters: Sequence[Tuple[str, int]]):
        self.base = base
        self.letters = tuple((a, int(d)) for a, d in letters)

    def walk_vertices(self, pres: Presentation) -> List[str]:
        arrows = pres.quiver.arrows
        if self.base not in pres.quiver.vertices:
            raise InvalidString(f"unknown base vertex {self.base!r}")
        verts = [self.base]
        for k, (name, direction) in enumerate(self.letters):
            if name not in arrows:
                raise InvalidString(f"unknown arrow {name!r}")
            a = arrows[name]
            here = verts[-1]
            if direction == DIRECT:
                if a.source != here:
                    raise InvalidString(
                        f"letter {k}: non-composable, arrow {name} starts at "
                        f"{a.source} but the walk is at {here}")
                verts.append(a.target)
            elif direction == INVERSE:
                if a.target != here:
                    raise InvalidString(
                        f"letter {k}: non-composable, arrow {name} ends at "
                        f"{a.target} but the walk is at {here}")
                verts.append(a.source)
            else:
                raise InvalidString(f"letter {k}: bad direction {direction}")
            if k > 0:
                prev_name, prev_dir = self.letters[k - 1]
                if prev_name == name and prev_dir != direction:
                    raise InvalidString(
                        f"letter {k}: immediate backtrack along {name}")
        return verts

    def positions(self, pres: Presentation) -> Tuple[List[str], List[int]]:
        """The walk's vertices and, for each, its index among the walk
        positions at the same vertex: the basis vector it draws there."""
        verts = self.walk_vertices(pres)
        seen: Dict[str, int] = {}
        local = []
        for v in verts:
            local.append(seen.get(v, 0))
            seen[v] = local[-1] + 1
        return verts, local

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        body = " ".join(f"{a}^{'+1' if d == DIRECT else '-1'}" for a, d in self.letters)
        return f"StringWord({self.base} [ {body} ])"


def string_module(algebra: Algebra, word: StringWord) -> Representation:
    """The module drawn by a walk: one basis vector per walk vertex."""
    pres = algebra.pres
    verts, local = word.positions(pres)
    dims = {v: verts.count(v) for v in algebra.vertices}
    field = algebra.field
    mats: Dict[str, Matrix] = {
        name: Matrix.zeros(field, dims[pres.quiver.arrows[name].target],
                           dims[pres.quiver.arrows[name].source])
        for name, _ in word.letters}
    one = field.one
    for k, (name, direction) in enumerate(word.letters):
        if direction == DIRECT:
            src_idx, tgt_idx = k, k + 1
        else:
            src_idx, tgt_idx = k + 1, k
        mats[name].data[local[tgt_idx]][local[src_idx]] = one
    try:
        return Representation(algebra, dims, mats)
    except RepresentationError as exc:
        raise InvalidString(f"walk violates a relation subword: {exc}") from exc


# -- constructions -----------------------------------------------------------


def direct_sum(algebra: Algebra, summands: Sequence[Representation]
               ) -> Representation:
    """Block-diagonal sum."""
    for s in summands:
        if s.algebra.pres is not algebra.pres:
            raise RepresentationError("direct sum across different presentations")
    field = algebra.field
    dims = {v: sum(s.dims[v] for s in summands) for v in algebra.vertices}
    mats = {a.name: block_diag(field, [s.mats[a.name] for s in summands])
            for a in algebra.pres.quiver.arrows.values()
            if dims[a.source] and dims[a.target]}
    return Representation(algebra, dims, mats, check=False)


def assemble_sum_map(maps: Sequence[ModuleMap], target: Representation) -> ModuleMap:
    """The map out of the ``direct_sum`` of the maps' sources that is each
    map on its summand: the maps side by side, with blocks assembled only
    where both ends are nonzero."""
    algebra = target.algebra
    total = direct_sum(algebra, [f.source for f in maps])
    return ModuleMap(total, target, {
        v: Matrix.hcat(algebra.field, target.dims[v], [f.mats[v] for f in maps])
        for v in algebra.vertices if total.dims[v] and target.dims[v]})


def random_module(algebra: Algebra, seed: int, budget: int) -> Representation:
    """Cokernel of a seeded random map into the free module F on drawn tops.

    Always a valid module, deterministic per seed, of total dimension at
    most ``budget``, as F is.  Each relation P(u) -> F draws one
    coefficient per column of its Hom kernel, read off by Yoneda
    (``homology._projective_hom_kernel``); the cokernel of their blocks
    side by side is taken with F's arrows acting by ``free_action``.
    """
    from .homology import _cokernel, _projective_hom_kernel

    rng = random.Random(f"random-module:{seed}:{budget}")
    verts = list(algebra.vertices)
    dim_p = {v: algebra.basis.dim_projective(v) for v in verts}
    tops: List[str] = []
    total = 0
    while True:
        candidates = [v for v in verts if total + dim_p[v] <= budget]
        if not candidates or (tops and rng.random() < 0.25):
            break
        tops.append(rng.choice(candidates))
        total += dim_p[tops[-1]]
    free = algebra.free_basis(tops)
    rels = [rng.choice(verts) for _ in range(rng.randrange(0, len(tops) + 2))]
    rels = [u for u in rels if free[u]]  # any P(u) -> F is 0 when F at u is
    if not rels:
        return algebra._free_module(tops)
    field, by_pair = algebra.field, algebra.basis.by_pair
    dims = {v: len(rows) for v, rows in free.items()}
    f_rows = {v: [[] for _ in range(d)] for v, d in dims.items() if d}
    for u in rels:
        kernel, offsets = _projective_hom_kernel(algebra, u, free)
        column = [field.zero] * kernel.rows
        for basis_map in zip(*kernel.data):  # one coefficient each, in order
            c = rng.choice((-2, -1, -1, 0, 0, 0, 1, 1, 2))
            column = [y + c * x for y, x in zip(column, basis_map)] if c else column
        column = field.reduce([column])[0]
        for v, out in f_rows.items():
            width, base = len(by_pair.get((u, v), ())), offsets[v]
            for i, row in enumerate(out):
                row += column[base + i * width:base + (i + 1) * width]
    return _cokernel(algebra, dims, {v: Matrix(field, len(out), len(out[0]), out)
                                     for v, out in f_rows.items()},
                     lambda a, cols: algebra.free_action(
                         free, a, Matrix.units(field, dims[a.source], cols)))[0]
