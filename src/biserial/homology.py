"""The homological engine: radicals, covers, syzygies, Hom spaces,
certified isomorphism, summand tests, and projective dimension.

Projective dimension is decided by iterating minimal syzygies.  A finite
verdict means the chain literally reaches zero.  An infinite verdict is a
theorem: it carries a verified isomorphism between two distinct nonzero
syzygies, which forces the chain to cycle forever.  When neither happens
within the cutoff the report says so; an inconclusive outcome is never
silently treated as finite.

The chain walks projective covers: each module's cover is built once,
its syzygy is the next module, and its multiplicities are the top in the
module's cheap fingerprint (dimension vector and top).  The dimension of
End(M) is solved only for syzygies whose fingerprints collide, and the
isomorphism search runs only when those dimensions agree too.

A syzygy is read off the cover's path-class basis (see
``projective_cover``); the cover's own matrices are built only when
asked for.

Positive isomorphism answers are certificates (an explicit intertwining
map, invertible at every vertex).  Negative answers from the random
search are only "no isomorphism found" -- except when the dimension
vectors differ or Hom(M, N) is zero, which are sound; ``decide_iso``
tells the two apart.  The Hom system of an iso question is solved once;
each random candidate is summed over the Hom kernel's nonzero entries.
"""

from __future__ import annotations

import json
import random
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .matrices import Matrix
from .fields import PrimeField
from .presentation import Arrow
from .reps import ModuleMap, Representation, direct_sum


# -- subspace plumbing -------------------------------------------------------


def _arrow_images(module: Representation, vertex: str) -> Matrix:
    """The matrices of all arrows into ``vertex`` side by side: their
    column space is the radical of M at ``vertex``."""
    return Matrix.hcat(module.algebra.field, module.dims[vertex],
                       [module.mats[a.name]
                        for a in module.algebra.pres.quiver.arrows_into(vertex)])


def radical(module: Representation) -> Tuple[Representation, ModuleMap]:
    """rad M = sum of all arrow images, with its inclusion into M."""
    incl_mats = {v: _arrow_images(module, v).image_basis()
                 for v in module.algebra.vertices}
    return _sub_representation(module, incl_mats)


def _sub_representation(module: Representation, incl_mats: Dict[str, Matrix]
                        ) -> Tuple[Representation, ModuleMap]:
    """Subrepresentation spanned by given independent columns per vertex.

    The spans must be arrow-stable; the induced action is solved exactly.
    Arrows with a zero-dimensional end act by the empty matrix, which the
    constructor fills in.
    """
    algebra = module.algebra
    dims = {v: incl_mats[v].cols for v in algebra.vertices}
    mats: Dict[str, Matrix] = {}
    for a in algebra.pres.quiver.arrows.values():
        if not (dims[a.source] and dims[a.target]):
            continue
        image = module.mats[a.name] @ incl_mats[a.source]
        induced = incl_mats[a.target].solve(image)
        if induced is None:
            raise ValueError(f"span not stable under arrow {a.name}")
        mats[a.name] = induced
    sub = Representation(algebra, dims, mats, check=False)
    return sub, ModuleMap(sub, module, incl_mats)


def radical_filtration(module: Representation) -> List[Dict[str, int]]:
    """Dimension vectors of the radical layers rad^k M / rad^{k+1} M."""
    layers = []
    current = module
    while current.total_dim():
        sub, _ = radical(current)
        layer = {v: current.dims[v] - sub.dims[v] for v in current.algebra.vertices}
        layers.append({v: d for v, d in layer.items() if d})
        current = sub
    return layers


def top_dims(module: Representation) -> Dict[str, int]:
    """Dimension vector of M / rad M."""
    return {v: module.dims[v] - _arrow_images(module, v).rank()
            for v in module.algebra.vertices}


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
    """Vertexwise cokernel with induced action and the projection map."""
    algebra = f.target.algebra
    field = algebra.field
    proj_mats: Dict[str, Matrix] = {}
    section_mats: Dict[str, Matrix] = {}
    for v in algebra.vertices:
        n = f.target.dims[v]
        # Extend a basis of the image by unit vectors e_i; the rows of the
        # inverse of that basis past the image part are the quotient
        # coordinates, and the e_i span a section of the projection.
        chosen, inv = f.mats[v].unit_extension()
        proj_mats[v] = Matrix(field, len(chosen), n, inv.data[n - len(chosen):])
        section_mats[v] = Matrix.units(field, n, chosen)
    dims = {v: proj_mats[v].rows for v in algebra.vertices}
    mats = {a.name: (proj_mats[a.target] @ f.target.mats[a.name]
                     @ section_mats[a.source])
            for a in algebra.pres.quiver.arrows.values()
            if dims[a.source] and dims[a.target]}
    coker = Representation(algebra, dims, mats, check=False)
    return coker, ModuleMap(f.target, coker, proj_mats)


def image_of(f: ModuleMap) -> Tuple[Representation, ModuleMap]:
    """Vertexwise image as a subrepresentation of the target."""
    incl = {v: f.mats[v].image_basis() for v in f.target.algebra.vertices}
    return _sub_representation(f.target, incl)


# -- covers and syzygies -----------------------------------------------------


class CoverData:
    """Minimal projective cover of a module with its syzygy.

    ``cover``, ``cover_map`` and ``inclusion`` are built on first access,
    from the vertex of each generator (``tops``) and the vertexwise
    matrices: the pd chain reads only ``syzygy`` and ``multiplicities``.
    """

    def __init__(self, module: Representation, syzygy: Representation,
                 multiplicities: Dict[str, int], tops: List[str],
                 cover_mats: Dict[str, Matrix], inclusion_mats: Dict[str, Matrix]):
        self.module = module
        self.syzygy = syzygy
        self.multiplicities = multiplicities
        self.tops = tops
        self.cover_mats = cover_mats
        self.inclusion_mats = inclusion_mats

    @cached_property
    def cover(self) -> Representation:
        algebra = self.module.algebra
        return direct_sum(algebra, [algebra.projective(v) for v in self.tops])

    @cached_property
    def cover_map(self) -> ModuleMap:
        return ModuleMap(self.cover, self.module, self.cover_mats)

    @cached_property
    def inclusion(self) -> ModuleMap:
        return ModuleMap(self.syzygy, self.cover, self.inclusion_mats)

    def verify(self) -> bool:
        """Surjectivity, exactness of dims, and cover minimality."""
        m = self.module
        for v in m.algebra.vertices:
            if self.cover_map.mats[v].rank() != m.dims[v]:
                return False
            if self.cover.dims[v] - self.syzygy.dims[v] != m.dims[v]:
                return False
        if not self.cover_map.is_morphism() or not self.inclusion.is_morphism():
            return False
        composite = self.cover_map.compose(self.inclusion)
        if any(not composite.mats[v].is_zero() for v in m.algebra.vertices):
            return False
        return top_dims(self.cover) == top_dims(self.module)


def projective_cover(module: Representation) -> CoverData:
    """Minimal cover: one projective summand per top basis vector.

    The cover's basis at w is the pairs (generator g, path class p ending
    at w), in ``direct_sum`` block order.  The syzygy is the kernel of the
    cover map on that basis, where an arrow acts on a kernel basis through
    the path-class action on its nonzero entries, so the cover's
    block-diagonal matrices are never built.
    """
    algebra = module.algebra
    field = algebra.field
    basis = algebra.basis
    generators: List[Tuple[str, Matrix]] = []  # (vertex, chosen lift column)
    multiplicities: Dict[str, int] = {}
    for v in algebra.vertices:
        n = module.dims[v]
        if n == 0:
            continue
        # A basis of the top at v: unit vectors extending the column space
        # of the arrow images, which is rad M at v.
        for i in _arrow_images(module, v).unit_extension()[0]:
            generators.append((v, Matrix.units(field, n, [i])))
            multiplicities[v] = multiplicities.get(v, 0) + 1
    tops = [v for v, _ in generators]
    labels: Dict[str, List[Tuple[int, int]]] = {v: [] for v in algebra.vertices}
    for g, v in enumerate(tops):
        for p in basis.classes_from(v):
            labels[basis.class_target(p)].append((g, p))
    row_of = {label: i for pairs in labels.values() for i, label in enumerate(pairs)}
    # (arrow, class p) -> the terms (class q, c) of arrow·p, c in the field.
    action = algebra.memo("path-action", lambda alg: {
        key: [(q, alg.field(c)) for q, c in vec.items() if alg.field(c)]
        for key, vec in alg.basis.act.items()})

    def arrow_image(a: Arrow, kernel: Matrix) -> Matrix:
        # The cover's arrow a sends (g, p) to the sum of c * (g, q) over
        # the terms c * q of a·p.
        out = [[field.zero] * kernel.cols for _ in labels[a.target]]
        for (g, p), krow in zip(labels[a.source], kernel.data):
            for q, c in action[a.name, p]:
                row = out[row_of[g, q]]
                for j, x in enumerate(krow):
                    if x:
                        row[j] += c * x
        return Matrix(field, len(out), kernel.cols, field.reduce(out))

    cover_mats = map_from_projectives(module, generators)
    syzygy_rep, inclusion_mats = _kernel(
        algebra, {v: len(pairs) for v, pairs in labels.items()}, cover_mats,
        arrow_image)
    return CoverData(module, syzygy_rep, multiplicities, tops, cover_mats,
                     inclusion_mats)


def map_from_projectives(module: Representation,
                         generators: List[Tuple[str, Matrix]]) -> Dict[str, Matrix]:
    """Vertexwise matrices of the map from the direct sum of the P(v), one
    per ``(v, gen)`` in order, to ``module`` that sends the top of each
    summand to its column ``gen`` of the module at ``v``.

    The projective's basis classes are the path classes at ``v``; class p
    goes to p·gen, computed as p's last arrow applied to the image of its
    prefix, so each class costs one matrix-vector product over the
    prefix image's nonzero entries.  Columns follow the block order of
    ``direct_sum``.
    """
    algebra = module.algebra
    basis = algebra.basis
    field = algebra.field
    columns: Dict[str, List[list]] = {v: [] for v in algebra.vertices}

    def image(images: Dict[tuple, list], path: tuple) -> list:
        vec = images.get(path)
        if vec is None:
            prev = [(k, x) for k, x in enumerate(image(images, path[:-1])) if x]
            vec = []
            for row in module.mats[path[-1]].data:
                acc = field.zero
                for k, x in prev:
                    if row[k]:
                        acc += row[k] * x
                vec.append(acc)
            vec = images[path] = field.reduce([vec])[0]
        return vec

    for vertex, gen in generators:
        images = {(): [row[0] for row in gen.data]}
        for class_id in basis.classes_from(vertex):
            columns[basis.class_target(class_id)].append(
                image(images, basis.class_path(class_id)))
    return {v: Matrix(field, module.dims[v], len(vecs),
                      [list(row) for row in zip(*vecs)])
            if vecs and module.dims[v]
            else algebra.zero_matrix(module.dims[v], len(vecs))
            for v, vecs in columns.items()}


def syzygy(module: Representation) -> Representation:
    return projective_cover(module).syzygy


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
    kernel = Matrix(field, len(rows), total, field.reduce(rows)).kernel_basis()
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


def hom_dim(source: Representation, target: Representation) -> int:
    return _hom_kernel(source, target)[0].cols


def iso_trials(field, trials: Optional[int] = None) -> int:
    """The number of random trials ``decide_iso`` makes: ``trials`` when
    given, else 40 over GF(p) and 20 over Q."""
    if trials is not None:
        return trials
    return 40 if isinstance(field, PrimeField) else 20


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
    ``trials`` random combinations of a Hom basis all failed.
    Coefficients are drawn from all of GF(p), or from -9..9 over Q.  A
    candidate is K·c for the Hom kernel K and the drawn coefficients c,
    summed over K's nonzero entries only.
    """
    if m.dims != n.dims:
        return IsoDecision("not_iso", reason="dimension vectors differ")
    if m.is_zero():
        return IsoDecision("iso", ModuleMap.zero(m, n))
    kernel, offsets = _hom_kernel(m, n)
    if not kernel.cols:
        return IsoDecision("not_iso", reason="Hom space is zero")
    field = m.algebra.field
    trials = iso_trials(field, trials)
    rng = random.Random(f"certified-iso:{seed}")
    low, high = (0, field.p) if isinstance(field, PrimeField) else (-9, 10)
    nonzeros = [(r, [(k, x) for k, x in enumerate(row) if x])
                for r, row in enumerate(kernel.data)]
    nonzeros = [(r, terms) for r, terms in nonzeros if terms]
    for _ in range(trials):
        coeffs = [field(rng.randrange(low, high)) for _ in range(kernel.cols)]
        column = [field.zero] * kernel.rows
        for r, terms in nonzeros:
            column[r] = sum(x * coeffs[k] for k, x in terms)
        cand = _hom_map(m, n, offsets, field.reduce([column])[0])
        if all(cand.mats[v].rank() == d for v, d in m.dims.items() if d):
            return IsoDecision("iso", cand)
    return IsoDecision("not_found", reason="no isomorphism found", trials=trials)


def certified_iso(m: Representation, n: Representation, trials: Optional[int] = None,
                  seed: int = 0) -> Optional[ModuleMap]:
    """The certificate from ``decide_iso``; None means none was found."""
    return decide_iso(m, n, trials=trials, seed=seed).iso


def split_pair(brick: Representation, probe: str, module: Representation
               ) -> Optional[Tuple[ModuleMap, ModuleMap]]:
    """Maps s: B -> M and p: M -> B with p o s = id_B, or None when the
    brick B (End B = k) is not a direct summand of M.

    Sound in both directions: B is a summand iff the composition pairing
    Hom(B, M) x Hom(M, B) -> End B = k is nonzero.  A composite is a scalar
    times id_B, read at ``probe``, a vertex where B is one-dimensional,
    and the first nonzero one is normalized to the identity.
    """
    sections = hom_basis(brick, module)
    if not sections:
        return None
    retractions = hom_basis(module, brick)
    inv = module.algebra.field.inv
    for s in sections:
        for p in retractions:
            val = (p.mats[probe] @ s.mats[probe]).data[0][0]
            if val:
                return s, p.scale(inv(val))
    return None


def is_direct_summand_simple(vertex: str, module: Representation
                             ) -> Tuple[bool, Optional[Tuple[ModuleMap, ModuleMap]]]:
    """Split-pair test for the simple at ``vertex`` inside ``module``; the
    witness pair composes to the identity of the simple."""
    pair = split_pair(module.algebra.simple(vertex), vertex, module)
    return pair is not None, pair


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

    Each chain module's cover is built once: its syzygy is the next
    module and its multiplicities are the top in the module's fingerprint.
    Two syzygies are only searched for an isomorphism when their
    fingerprints and their End dimensions agree; the End dimension of a
    syzygy is solved the first time its fingerprint collides, then kept.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    current = module
    chain = [current.dim_vector()]
    if current.is_zero():
        return PdReport("minus_infinity", chain, seed=seed)
    end_dims: Dict[int, int] = {}

    def end_dim(rep: Representation, idx: int) -> int:
        if idx not in end_dims:
            end_dims[idx] = hom_dim(rep, rep)
        return end_dims[idx]

    def fingerprint(cover: CoverData) -> tuple:
        return (cover.module.dim_vector(), tuple(sorted(cover.multiplicities.items())))

    cover = projective_cover(current)
    seen: List[Tuple[tuple, Representation, int]] = [(fingerprint(cover), current, 0)]
    for step in range(1, cutoff + 1):
        current = cover.syzygy
        chain.append(current.dim_vector())
        if current.is_zero():
            return PdReport("finite", chain, value=step - 1, seed=seed)
        cover = projective_cover(current)
        fp = fingerprint(cover)
        for old_fp, old_rep, old_idx in seen:
            if old_fp == fp and end_dim(old_rep, old_idx) == end_dim(current, step):
                iso = certified_iso(old_rep, current, trials=trials, seed=seed)
                if iso is not None:
                    return PdReport("infinite", chain, cycle=(old_idx, step),
                                    seed=seed, iso=iso)
        seen.append((fp, current, step))
    return PdReport("inconclusive", chain, cutoff=cutoff, seed=seed)


def record_digest(record) -> str:
    """Stable short digest of a JSON-serializable record."""
    import hashlib  # only ``verify`` digests; keep it off the start-up path

    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
