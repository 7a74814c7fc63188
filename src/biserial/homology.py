"""The homological engine: radical layers, covers, syzygies, Hom spaces,
certified isomorphism, summand tests, and projective dimension.

Projective dimension is decided by iterating minimal syzygies.  A finite
verdict means the chain literally reaches zero.  An infinite verdict is a
theorem: it carries a verified isomorphism between two distinct nonzero
syzygies, which forces the chain to cycle forever.  When neither happens
within the cutoff the report says so; an inconclusive outcome is never
silently treated as finite.

The chain is a loop over ``syzygy``: each module's syzygy is the next
module.  Syzygies are memoized per ``Algebra``, keyed by module content
(dimension vector and each arrow's nonzero entries), and kept as long as
the algebra: every chain and every ``syzygy`` call over one algebra builds
each content's cover once.  In ``verify`` the witness claims build every
level's modules on one tower algebra (``FamilyConfig.tower``), so one run
covers each of their contents once, whatever its level.
The isomorphism search runs only between chain modules whose dimension
vectors agree.  The two ends of a cycle can differ in content (the band
modules of a local algebra do), so the search, not content equality,
certifies it.

The radical layers are column counts: rad^k M is J^k M for the arrow
ideal J, and J(J^k M) = J^{k+1} M, so each power's basis is read off the
previous one's (``radical_filtration``).  J is nilpotent, as ``PathBasis``
rejects an algebra with infinitely many paths, so the powers reach zero.
Every submodule built here is a ``_kernel``, whose induced action is read
off free rows; none is solved for.

A cover is the free module on its generators' vertices, and its basis,
the (summand, path class) pairs, is ``Algebra.free_basis``: the cover
map and the syzygy both read that one layout (see ``projective_cover``),
and the cover's own matrices are never built.  The one
cokernel, ``_cokernel``, reads the maps and the target's arrows on the
chosen columns, so no end need exist as a module: ``cokernel_of`` adds
the projection map, and the random samples act on free columns by
``Algebra.free_action``.

Positive isomorphism answers are certificates (an explicit intertwining
map, invertible at every vertex).  Negative answers from the random
search are only "no isomorphism found" -- except when the dimension
vectors differ or Hom(M, N) is zero, which are sound; ``decide_iso``
tells the two apart.  The Hom system of an iso question is solved once.
A combination of a Hom basis is one ``hom_combination``, with no map per
basis element: ``decide_iso``'s candidates, ``_retraction``'s solution,
and the random maps of ``witnesses.random_extension`` (coefficients drawn
from a pool by ``random_hom_combination``).  Only this module reads the
Hom kernel (``_hom_kernel``, or by Yoneda ``_projective_hom_kernel`` out
of a projective, for ``reps.random_module``): those, ``hom_basis``,
``hom_dim``, and ``split_off``, the one summand peel: it solves Hom(M, N)
once and tries one basis section at a time against it with
``_retraction``, the one retraction search.
"""

from __future__ import annotations

import json
import random
from functools import cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .matrices import Matrix
from .presentation import Arrow
from .reps import FreeBasis, ModuleMap, Representation


# -- subspace plumbing -------------------------------------------------------


def _arrow_images(module: Representation, vertex: str) -> Matrix:
    """The matrices of all arrows into ``vertex`` side by side: their
    column space is the radical of M at ``vertex``."""
    return Matrix.hcat(module.algebra.field, module.dims[vertex],
                       [module.mats[a.name]
                        for a in module.algebra.pres.quiver.arrows_into(vertex)])


def radical_filtration(module: Representation) -> List[Dict[str, int]]:
    """Dimension vectors of the radical layers rad^k M / rad^{k+1} M, each
    in vertex order with its zero entries dropped.

    rad^k M is J^k M, with J the arrow ideal, read as a column space at
    each vertex: J^0 M is M, and since J(J^k M) = J^{k+1} M, the basis of
    J^{k+1} M at v is an ``image_basis`` of the arrows into v applied to
    J^k M at their sources.  No submodule is built.  A layer is the drop
    in dimension at each vertex.  J is nilpotent, since ``PathBasis``
    rejects an algebra with infinitely many paths, so the bases reach
    zero and the loop ends.
    """
    algebra = module.algebra
    field = algebra.field
    quiver = algebra.pres.quiver
    basis = {v: Matrix.identity(field, module.dims[v]) for v in algebra.vertices}
    layers = []
    while any(b.cols for b in basis.values()):
        deeper = {v: Matrix.hcat(field, module.dims[v],
                                 [module.mats[a.name] @ basis[a.source]
                                  for a in quiver.arrows_into(v)]).image_basis()
                  for v in algebra.vertices}
        layers.append({v: basis[v].cols - deeper[v].cols for v in algebra.vertices
                       if basis[v].cols > deeper[v].cols})
        basis = deeper
    return layers


def kernel_of(f: ModuleMap) -> Tuple[Representation, ModuleMap]:
    """Vertexwise kernel with induced arrow action and inclusion."""
    source = f.source
    sub, incl = _kernel(source.algebra, source.dims, f.mats,
                        lambda a, basis: source.mats[a.name] @ basis)
    return sub, ModuleMap(sub, source, incl)


def _kernel(algebra, dims: Dict[str, int], f_mats: Dict[str, Matrix],
            arrow_image: Callable[[Arrow, Matrix], Matrix]
            ) -> Tuple[Representation, Dict[str, Matrix]]:
    """The kernel of the vertexwise maps ``f_mats`` out of a module of
    dimensions ``dims``, and its basis K_v at each vertex.

    ``arrow_image(a, K)`` is the source module's arrow a applied to the
    columns of K.  K_y is the identity on its free rows, so the induced
    action of a: x -> y is the image of K_x read at those rows.  The image
    must lie in ker f_y, which is what makes the kernel arrow-stable; it
    is checked, so a map that is not a module map raises.
    """
    field = algebra.field
    empty = algebra.zero_matrix(0, 0)
    kernels = {v: f_mats[v].kernel_with_free() if dims[v] else (empty, [])
               for v in algebra.vertices}
    sub_dims = {v: basis.cols for v, (basis, _) in kernels.items()}
    mats: Dict[str, Matrix] = {}
    for a in algebra.pres.quiver.arrows.values():
        x, y = a.source, a.target
        if not (sub_dims[x] and sub_dims[y]):
            continue
        image = arrow_image(a, kernels[x][0])
        if not (f_mats[y] @ image).is_zero():
            raise ValueError(f"span not stable under arrow {a.name}")
        mats[a.name] = Matrix(field, sub_dims[y], sub_dims[x],
                              [image.data[i] for i in kernels[y][1]])
    sub = Representation(algebra, sub_dims, mats, check=False)
    return sub, {v: basis for v, (basis, _) in kernels.items()}


def cokernel_of(f: ModuleMap) -> Tuple[Representation, ModuleMap]:
    """Vertexwise cokernel with induced action and the projection map: the
    ``_cokernel`` of f's matrices, the one cokernel."""
    target = f.target
    coker, proj_mats = _cokernel(target.algebra, target.dims, f.mats,
                                 lambda a, cols: target.mats[a.name].submatrix_cols(cols))
    return coker, ModuleMap(target, coker, proj_mats)


def _cokernel(algebra, dims: Dict[str, int], f_mats: Dict[str, Matrix],
              arrow_columns: Callable[[Arrow, List[int]], Matrix]
              ) -> Tuple[Representation, Dict[str, Matrix]]:
    """The cokernel of the vertexwise maps ``f_mats`` into a module of
    dimensions ``dims``, read where ``dims`` is nonzero, and its
    projection Q_v at each vertex.

    At each vertex the unit vectors e_i that extend the image of f span a
    complement of it, and Q, the quotient coordinates in that basis, is
    the projection (see ``Matrix.quotient_coordinates``).  An arrow a:
    x -> y acts on the cokernel as Q_y applied to ``arrow_columns(a,
    chosen)``, the target's a applied to the chosen e_i of x.
    """
    quotients = {v: f_mats[v].quotient_coordinates() for v, d in dims.items() if d}
    proj_mats = {v: q for v, (_, q) in quotients.items()}
    sub_dims = {v: q.rows for v, q in proj_mats.items()}
    mats = {a.name: proj_mats[a.target] @ arrow_columns(a, quotients[a.source][0])
            for a in algebra.pres.quiver.arrows.values()
            if sub_dims.get(a.source) and sub_dims.get(a.target)}
    return Representation(algebra, sub_dims, mats, check=False), proj_mats


# -- covers and syzygies -----------------------------------------------------


class CoverData(NamedTuple):
    """Minimal projective cover of a module, as ``projective_cover`` finds
    it: the syzygy, the vertex of each generator (``tops``), and the
    vertexwise matrices of the cover map and of the syzygy's inclusion,
    both on the columns of ``Algebra.free_basis(tops)``.  The cover itself
    is never built: the pd chain reads only ``syzygy``."""

    syzygy: Representation
    tops: List[str]
    cover_mats: Dict[str, Matrix]
    inclusion_mats: Dict[str, Matrix]


def projective_cover(module: Representation) -> CoverData:
    """Minimal cover: one projective summand per top basis vector.

    The cover is the free module on the generators' vertices, on its
    ``Algebra.free_basis``: the pairs (generator g, path class p ending at
    w) at each vertex w, in ``direct_sum`` block order.  The basis is
    built once and read by both the cover map (``map_from_projectives``)
    and the syzygy, the kernel of that map, on which an arrow acts by
    ``Algebra.free_action``; the cover's block-diagonal matrices are never
    built.
    """
    algebra = module.algebra
    # (vertex, index of the lift e_i).  A basis of the top at v: unit
    # vectors extending the column space of the arrow images, which is
    # rad M at v.
    generators = [(v, i) for v in algebra.vertices if module.dims[v]
                  for i in _arrow_images(module, v).unit_complement()]
    tops = [v for v, _ in generators]
    free = algebra.free_basis(tops)
    cover_mats = map_from_projectives(module, generators, free)
    syzygy_rep, inclusion_mats = _kernel(
        algebra, {v: len(rows) for v, rows in free.items()}, cover_mats,
        lambda a, kernel: algebra.free_action(free, a, kernel))
    return CoverData(syzygy_rep, tops, cover_mats, inclusion_mats)


def map_from_projectives(module: Representation, generators: List[Tuple[str, int]],
                         free: FreeBasis) -> Dict[str, Matrix]:
    """Vertexwise matrices of the map from the direct sum of the P(v), one
    per ``(v, i)`` in order, to ``module`` that sends the top of each
    summand to the unit vector e_i of the module at ``v``.

    Columns follow ``free``, the ``Algebra.free_basis`` of the
    generators' vertices: pair (g, p) goes to p·e_i for generator g,
    computed as p's last arrow applied to the image of its prefix, so
    each class costs one matrix-vector product over the prefix image's
    nonzero entries.
    """
    algebra = module.algebra
    basis = algebra.basis
    field = algebra.field
    images = [{(): [field.one if k == i else field.zero for k in range(module.dims[v])]}
              for v, i in generators]
    out: Dict[str, Matrix] = {}
    for w, rows in free.items():
        if not (rows and module.dims[w]):
            out[w] = algebra.zero_matrix(module.dims[w], len(rows))
            continue
        vecs = [_path_image(module, images[g], basis.class_path(p)) for g, p in rows]
        out[w] = Matrix(field, module.dims[w], len(vecs), [list(row) for row in zip(*vecs)])
    return out


def _path_image(module: Representation, images: Dict[tuple, list], path: tuple) -> list:
    """A generator's image under ``path``; ``images`` memoizes it by path."""
    vec = images.get(path)
    if vec is None:
        field = module.algebra.field
        prev = [(k, x) for k, x in enumerate(_path_image(module, images, path[:-1])) if x]
        vec = []
        for row in module.mats[path[-1]].data:
            acc = field.zero
            for k, x in prev:
                if row[k]:
                    acc += row[k] * x
            vec.append(acc)
        vec = images[path] = field.reduce([vec])[0]
    return vec


def _projective_hom_kernel(algebra, vertex: str, free: FreeBasis
                           ) -> Tuple[Matrix, Dict[str, int]]:
    """``_hom_kernel(algebra.projective(vertex), F)`` for the free module F
    on ``free``, with no equation built.

    A map out of P(u) is fixed by where it sends e_u (Yoneda): the phi_i
    sending e_u to e_i, so p to p·e_i, over the basis e_i of F at u, are a
    basis of Hom(P(u), F).  Each column of ``_hom_kernel`` has a 1 at its
    own free unknown, a 0 at every other, and its last nonzero entry there:
    with the unknowns reversed, the columns are the reduced echelon basis
    of the Hom space, which is unique (as in ``Matrix.unit_complement``).
    So one rref of the phi_i, laid out as ``_hom_kernel``'s unknowns and
    reversed, gives the columns in reverse order.
    """
    field, basis, n = algebra.field, algebra.basis, len(free[vertex])
    images = {(): Matrix.identity(field, n)}  # each path's action on F at u
    phis: List[list] = []  # unknown by unknown, the values of the phi_i
    offsets: Dict[str, int] = {}
    for w in algebra.vertices:
        offsets[w] = len(phis)
        cols, classes = [], basis.by_pair.get((vertex, w), ()) if free[w] else ()
        for path in map(basis.class_path, classes):
            for k in range(1, len(path) + 1):
                if path[:k] not in images:
                    images[path[:k]] = algebra.free_action(
                        free, algebra.pres.quiver.arrows[path[k - 1]], images[path[:k - 1]])
            cols.append(images[path].data)
        phis += [col[r] for r in range(len(free[w])) for col in cols]
    work = Matrix(field, len(phis), n, phis)._flipped_transpose().rref()[0]
    return Matrix(field, len(phis), n, work._flipped_transpose().data[::-1]), offsets


def syzygy(module: Representation) -> Representation:
    """The minimal syzygy of ``module``, the syzygy of its
    ``projective_cover``.

    Memoized per ``Algebra``, keyed by the module's content
    (``_content_key``).  The cover is a function of that content alone,
    so two content-equal modules share one syzygy object.  The memo lives
    as long as the algebra, like its projectives; in ``verify`` that is
    one run, across every claim, and the witness claims share one tower
    algebra across all levels.
    """
    memo = module.algebra.memo("syzygies", lambda alg: {})
    key = _content_key(module)
    omega = memo.get(key)
    if omega is None:
        omega = memo[key] = projective_cover(module).syzygy
    return omega


def _content_key(module: Representation) -> tuple:
    """One flat tuple naming the module's content within its algebra: the
    dimension at each vertex, then each nonzero arrow entry as its
    position in the arrows' entries laid end to end, row-major, and its
    value.  The dimensions fix every matrix's shape, so the positions are
    unambiguous."""
    key = list(module.dims.values())
    offset = 0
    for m in module.mats.values():
        for i, row in enumerate(m.data):
            base = offset + i * m.cols
            for j, x in enumerate(row):
                if x:
                    key += (base + j, x)
        offset += m.rows * m.cols
    return tuple(key)


# -- Hom spaces and isomorphism ----------------------------------------------


def hom_basis(source: Representation, target: Representation) -> List[ModuleMap]:
    """Basis of the intertwining solution space Hom(source, target)."""
    kernel, offsets = _hom_kernel(source, target)
    return [_hom_map(source, target, offsets, column)
            for column in zip(*kernel.data)]


def _hom_kernel(source: Representation, target: Representation
                ) -> Tuple[Matrix, Dict[str, int]]:
    """The kernel of the intertwining equations of Hom(source, target),
    one basis map per column, and the offset of each vertex's block of
    unknowns F_v[i][j], row-major, in a column."""
    if source.algebra.pres is not target.algebra.pres:
        raise ValueError("hom across different presentations")
    algebra = source.algebra
    field = algebra.field
    offsets: Dict[str, int] = {}
    total = 0
    for v in algebra.vertices:
        offsets[v] = total
        total += target.dims[v] * source.dims[v]
    if total == 0:
        return algebra.zero_matrix(0, 0), offsets
    rows: List[List] = []
    for a in algebra.pres.quiver.arrows.values():
        x, y = a.source, a.target
        A = source.mats[a.name]   # dims[y] x dims[x]
        B = target.mats[a.name]
        # Equation F_y A - B F_x = 0, entrywise over unknowns F_v[i][j].
        for i in range(target.dims[y]):
            for j in range(source.dims[x]):
                row = [field.zero] * total
                base_y = offsets[y]
                for k in range(source.dims[y]):
                    coeff = A.data[k][j]
                    if coeff:
                        row[base_y + i * source.dims[y] + k] += coeff
                base_x = offsets[x]
                for k in range(target.dims[x]):
                    coeff = B.data[i][k]
                    if coeff:
                        row[base_x + k * source.dims[x] + j] -= coeff
                if any(row):
                    rows.append(row)
    kernel = Matrix(field, len(rows), total, rows).kernel_basis()
    return kernel, offsets


def _hom_map(source: Representation, target: Representation,
             offsets: Dict[str, int], column: Sequence) -> ModuleMap:
    """The map whose unknowns, laid out as in ``_hom_kernel``, are
    ``column``."""
    field = source.algebra.field
    mats: Dict[str, Matrix] = {}
    for v in source.algebra.vertices:
        height, width, base = target.dims[v], source.dims[v], offsets[v]
        if height and width:
            mats[v] = Matrix(field, height, width, [
                list(column[base + i * width:base + (i + 1) * width])
                for i in range(height)])
    return ModuleMap(source, target, mats)


def hom_combination(source: Representation, target: Representation,
                    hom: Tuple[Matrix, Dict[str, int]], coeffs: Sequence) -> ModuleMap:
    """sum_k c_k h_k for the Hom basis h_k held column by column in ``hom``,
    what ``_hom_kernel`` returns: each unknown is its kernel row's nonzero
    entries summed against ``coeffs``, and one map is built."""
    column = [sum(x * c for x, c in zip(row, coeffs) if x) for row in hom[0].data]
    return _hom_map(source, target, hom[1], source.algebra.field.reduce([column])[0])


def random_hom_combination(source: Representation, target: Representation,
                           rng: random.Random, pool: Sequence) -> ModuleMap:
    """The ``hom_combination`` of one ``rng.choice(pool)`` per Hom basis
    element, drawn in kernel-column order."""
    hom = _hom_kernel(source, target)
    return hom_combination(source, target, hom, [rng.choice(pool) for _ in range(hom[0].cols)])


def _retraction(embed: ModuleMap, hom: Tuple[Matrix, Dict[str, int]]
                ) -> Optional[ModuleMap]:
    """A module map r with r o embed = id on embed's source, if one exists,
    given ``hom``, the solved Hom kernel of (embed.target, embed.source):
    the ``hom_combination`` of a solution c of sum_k c_k (h_k o embed) = id,
    each h_k o embed read off the kernel with no map built for it."""
    M, N = embed.target, embed.source
    kernel, offsets = hom
    if not kernel.cols:
        return None if N.total_dim() else ModuleMap.zero(M, N)
    field = M.algebra.field
    rows, rhs = [], []
    for v, d in N.dims.items():
        width, base = M.dims[v], offsets[v]
        for i in range(d):
            # Entry (i, j) of h_k o embed is sum_l h_k[i][l] embed[l][j].
            block = list(zip(embed.mats[v].data,
                             kernel.data[base + i * width:base + (i + 1) * width]))
            for j in range(d):
                terms = [(row[j], krow) for row, krow in block if row[j]]
                rows.append([sum(e * krow[k] for e, krow in terms)
                             for k in range(kernel.cols)])
                rhs.append([field.one if i == j else field.zero])
    system = Matrix(field, len(rows), kernel.cols, field.reduce(rows))
    sol = system.solve(Matrix(field, len(rhs), 1, rhs))
    if sol is None:
        return None
    return hom_combination(M, N, hom, [row[0] for row in sol.data])


def hom_dim(source: Representation, target: Representation) -> int:
    return _hom_kernel(source, target)[0].cols


class IsoDecision(NamedTuple):
    """A three-valued isomorphism answer from ``decide_iso``.

    ``status`` is ``iso`` (``iso`` holds the certificate), ``not_iso``
    (a sound negative, named by ``reason``) or ``not_found`` (the random
    search missed after ``trials`` trials, which proves nothing).
    """

    status: str
    iso: Optional[ModuleMap] = None
    reason: Optional[str] = None
    trials: Optional[int] = None


def decide_iso(m: Representation, n: Representation, trials: Optional[int] = None,
               seed: int = 0) -> IsoDecision:
    """Search for a verified isomorphism M -> N, telling a miss apart from
    a sound negative.

    A found map is a certificate: intertwining and invertible at every
    vertex.  M and N are not isomorphic when their dimension vectors
    differ or Hom(M, N) is zero; any other miss is ``not_found``: the
    ``trials`` random combinations of a Hom basis all failed.  The field
    sets the search policy: ``trials`` defaults to its ``iso_trials`` and
    each coefficient is its ``draw``.  A candidate is the
    ``hom_combination`` of the drawn coefficients.  The first candidate of
    full rank at every vertex has its squares re-checked: one that fails
    them is a bug, an ``AssertionError``.
    """
    if m.dims != n.dims:
        return IsoDecision("not_iso", reason="dimension vectors differ")
    if m.is_zero():
        return IsoDecision("iso", ModuleMap.zero(m, n))
    hom = _hom_kernel(m, n)
    if not hom[0].cols:
        return IsoDecision("not_iso", reason="Hom space is zero")
    field = m.algebra.field
    if trials is None:
        trials = field.iso_trials
    rng = random.Random(f"certified-iso:{seed}")
    for _ in range(trials):
        cand = hom_combination(m, n, hom, [field.draw(rng) for _ in range(hom[0].cols)])
        if all(cand.mats[v].rank() == d for v, d in m.dims.items() if d):
            if failed := cand.violations():
                raise AssertionError(f"an isomorphism candidate fails the squares "
                                     f"of arrows {', '.join(failed)}")
            return IsoDecision("iso", cand)
    return IsoDecision("not_found", reason="no isomorphism found", trials=trials)


def certified_iso(m: Representation, n: Representation, trials: Optional[int] = None,
                  seed: int = 0) -> Optional[ModuleMap]:
    """The certificate from ``decide_iso``; None means none was found."""
    return decide_iso(m, n, trials=trials, seed=seed).iso


class Split(NamedTuple):
    """``split_off``'s answer: retraction o section = id on the part, and
    [section, inclusion] is an isomorphism part (+) complement -> module."""

    section: ModuleMap           # part -> module
    retraction: ModuleMap        # module -> part
    complement: Representation   # the kernel of the retraction
    inclusion: ModuleMap         # complement -> module


def split_off(part: Representation, module: Representation) -> Optional[Split]:
    """Split ``part`` N off ``module`` M, with the complement ker p of the
    retraction p, or None when N is not a direct summand of M.

    Precondition: End(N) is local with residue field k, as for bricks,
    simples, the projectives P(v) (End = e_v A e_v) and string modules
    (Butler-Ringel, Comm. Algebra 15, 1987; Wald-Waschbüsch, J. Algebra
    95, 1985); without it, None proves nothing.  With it, trying the
    Hom(N, M) basis sections s_k one at a time is complete: if sum_k a_k
    s_k has a retraction p, the residue map lambda: End(N) -> k gives
    sum_k a_k lambda(p o s_k) = 1, so some p o s_k is a unit u, and
    u^-1 o p retracts s_k.  Each s_k, in kernel-column order, meets
    ``_retraction``'s search against one solved Hom(M, N); only the
    first that splits gets its complement.
    """
    kernel, offsets = _hom_kernel(part, module)
    if not kernel.cols:
        return None
    back = _hom_kernel(module, part)
    for column in zip(*kernel.data):
        section = _hom_map(part, module, offsets, column)
        retraction = _retraction(section, back)
        if retraction is not None:
            return Split(section, retraction, *kernel_of(retraction))
    return None


# -- projective dimension ----------------------------------------------------


class PdReport(NamedTuple):
    """Outcome of a syzygy-chain run.

    ``verdict`` is one of ``finite``, ``infinite``, ``inconclusive``,
    ``minus_infinity`` (the zero module).  ``chain`` records the dimension
    vectors of the successive syzygies, starting with the module itself.
    """

    verdict: str
    chain: List[Tuple[Tuple[str, int], ...]]
    value: Optional[int] = None           # finite: the projective dimension
    cycle: Optional[Tuple[int, int]] = None
    cutoff: Optional[int] = None
    seed: int = 0
    iso: Optional[ModuleMap] = None

    def describe(self) -> str:
        if self.verdict == "finite":
            return f"Finite({self.value})"
        if self.verdict == "infinite":
            return f"Infinite (cycle {self.cycle[0]}≅{self.cycle[1]})"
        if self.verdict == "minus_infinity":
            return "MinusInfinity (zero module)"
        return f"Inconclusive (cutoff {self.cutoff})"

    def truncated(self, cutoff: int) -> "PdReport":
        """The report ``projdim`` gives at ``cutoff``, no larger than the
        cutoff this report was walked at.

        This is exact.  ``projdim`` is deterministic in (module, seed,
        trials), and its first c steps are the same at every cutoff of at
        least c.  So a walk that ended within ``cutoff`` steps is the walk
        at ``cutoff``.  A walk that went on past step ``cutoff`` made, and
        missed, every search the walk at ``cutoff`` makes, so that walk
        ends inconclusive on the first ``cutoff`` + 1 chain entries.
        """
        if len(self.chain) - 1 <= cutoff:
            return self
        return PdReport("inconclusive", self.chain[:cutoff + 1], cutoff=cutoff,
                        seed=self.seed)

    def to_record(self) -> dict:
        rec = {
            "verdict": self.verdict,
            "chain": [[[v, d] for v, d in dims] for dims in self.chain],
            "seed": self.seed,
        }
        if self.value is not None:
            rec["pd"] = self.value
        if self.cycle is not None:
            rec["cycle"] = list(self.cycle)
        if self.cutoff is not None:
            rec["cutoff"] = self.cutoff
        return rec


def projdim(module: Representation, cutoff: int = 32, seed: int = 0,
            trials: Optional[int] = None) -> PdReport:
    """Projective dimension by iterated minimal syzygies.

    Finite(n) when the (n+1)-st syzygy vanishes; Infinite when some
    syzygy is certified isomorphic to an earlier nonzero one (the chain
    then cycles forever, since minimal syzygies are isomorphism
    invariants); Inconclusive after ``cutoff`` steps.  The zero module
    gets the distinct verdict ``minus_infinity``.

    Each chain module comes from ``syzygy``, so a module content met
    before in any chain over the same algebra costs no cover.  A new
    syzygy is searched for an isomorphism only with earlier chain modules
    of the same dimension vector.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    chain = [module.dim_vector()]
    if module.is_zero():
        return PdReport("minus_infinity", chain, seed=seed)
    seen = [module]
    for step in range(1, cutoff + 1):
        current = syzygy(seen[-1])
        chain.append(current.dim_vector())
        if current.is_zero():
            return PdReport("finite", chain, value=step - 1, seed=seed)
        for idx, old in enumerate(seen):
            if chain[idx] == chain[step]:
                iso = certified_iso(old, current, trials=trials, seed=seed)
                if iso is not None:
                    return PdReport("infinite", chain, cycle=(idx, step),
                                    seed=seed, iso=iso)
        seen.append(current)
    return PdReport("inconclusive", chain, cutoff=cutoff, seed=seed)


def record_digest(record) -> str:
    """Stable short digest of a JSON-serializable record: the first 16 hex
    digits of the SHA-256 of its compact, key-sorted JSON, hashed by
    ``_sha256_impl``."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return _sha256_impl()(blob.encode()).hexdigest()[:16]


@cache
def _sha256_impl() -> Callable:
    """The interpreter's built-in SHA-256 (``_sha2`` on 3.12+, ``_sha256``
    on 3.10 and 3.11), or hashlib's when neither imports.  Looked up on the
    first digest, so only commands that digest load it."""
    # hashlib loads OpenSSL (megabytes of resident pages); try the lean built-in first
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256
