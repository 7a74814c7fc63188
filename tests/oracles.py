"""Reference helpers for the tests: constructions and checks that no
``biserial`` command runs, written as plain functions over the package's
public types.

Matrix and module-map arithmetic, direct-sum structure maps, inflation
and restriction along a full subquiver, the interval modules of a path
quiver, submodules with a solved induced action, the radical, top
dimensions, a cover check and the syzygy as an eliminated kernel of the
cover map, a random extension taken as
the cokernel of a map into an assembled sum, an associativity spot check
of a path basis, the path basis itself computed from its definition by
elimination over Q, structural equality of presentations, the direct
system's connecting maps with their kept walk prefixes written out, and
a claim batch runner.  Tests build inputs with
them and check the package's answers against them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from biserial.claims import ClaimReport, FamilyConfig, run_claim
from biserial.fields import QQ
from biserial.homology import (CoverData, cokernel_of, kernel_of, projective_cover,
                               random_hom_combination)
from biserial.matrices import Matrix, block_diag
from biserial.pathbasis import PathBasis
from biserial.presentation import Presentation
from biserial.reps import (Algebra, ModuleMap, Representation, RepresentationError,
                           direct_sum, string_module)
from biserial.witnesses import build_Zt, zt_walk


# -- matrices ----------------------------------------------------------------


def from_rows(field, rows: Sequence[Sequence]) -> Matrix:
    """The matrix with these rows, each entry converted by ``field``."""
    data = [[field(x) for x in row] for row in rows]
    return Matrix(field, len(data), len(data[0]) if data else 0, data)


def column(field, entries: Sequence) -> Matrix:
    """The one-column matrix with these entries."""
    return Matrix(field, len(entries), 1, [[field(x)] for x in entries])


def add(a: Matrix, b: Matrix) -> Matrix:
    """The entrywise sum, in normal form."""
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch")
    data = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.data, b.data)]
    return Matrix(a.field, a.rows, a.cols, a.field.reduce(data))


def scale(m: Matrix, c) -> Matrix:
    """``c`` times ``m``, ``c`` converted by the field, in normal form."""
    c = m.field(c)
    data = [[c * x for x in row] for row in m.data]
    return Matrix(m.field, m.rows, m.cols, m.field.reduce(data))


# -- module maps -------------------------------------------------------------


def _blocks(f: ModuleMap) -> List[str]:
    """Vertices where the map has entries."""
    return [v for v, m in f.mats.items() if m.rows and m.cols]


def map_add(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    return ModuleMap(f.source, f.target, {v: add(f.mats[v], g.mats[v]) for v in _blocks(f)})


def map_scale(f: ModuleMap, c) -> ModuleMap:
    return ModuleMap(f.source, f.target, {v: scale(f.mats[v], c) for v in _blocks(f)})


def map_inverse(f: ModuleMap) -> ModuleMap:
    """The vertexwise inverse of an isomorphism."""
    invs = {}
    for v, m in f.mats.items():
        inv = m.inverse()
        if inv is None:
            raise RepresentationError(f"not invertible at vertex {v}")
        invs[v] = inv
    return ModuleMap(f.target, f.source, invs)


def direct_sum_maps(total: Representation, summands: Sequence[Representation]
                    ) -> Tuple[List[ModuleMap], List[ModuleMap]]:
    """Injections into and projections out of ``total``, the
    ``direct_sum`` of ``summands``, one of each per summand in order."""
    algebra = total.algebra
    field = algebra.field
    injections: List[ModuleMap] = []
    projections: List[ModuleMap] = []
    offsets = {v: 0 for v in algebra.vertices}
    for s in summands:
        inj = {}
        proj = {}
        for v in algebra.vertices:
            d, off = s.dims[v], offsets[v]
            im = Matrix.zeros(field, total.dims[v], d)
            pm = Matrix.zeros(field, d, total.dims[v])
            for i in range(d):
                im.data[off + i][i] = field.one
                pm.data[i][off + i] = field.one
            inj[v] = im
            proj[v] = pm
            offsets[v] = off + d
        injections.append(ModuleMap(s, total, inj))
        projections.append(ModuleMap(total, s, proj))
    return injections, projections


def _is_restriction(small: Presentation, big: Presentation) -> bool:
    """True when ``small`` is ``big`` restricted to small's vertices: the
    same arrows between them and the same relations among those arrows as
    ``big.delete_vertices`` of the rest."""
    inside, vertices = set(small.quiver.vertices), set(big.quiver.vertices)
    kept = big.delete_vertices(vertices - inside, small.name)
    return inside <= vertices and ((kept.quiver.arrows, kept.relations)
                                   == (small.quiver.arrows, small.relations))


def inflate(module: Representation, big: Algebra) -> Representation:
    """View a module over a full-subquiver factor as a module over ``big``."""
    small_pres = module.algebra.pres
    if not _is_restriction(small_pres, big.pres):
        raise RepresentationError(
            f"{small_pres.name} is not a declared factor (full subquiver) "
            f"of {big.pres.name}")
    if module.algebra.field != big.field:
        raise RepresentationError("inflation across different fields")
    dims = {v: module.dims.get(v, 0) for v in big.vertices}
    return Representation(big, dims, dict(module.mats))


def restrict(module: Representation, small: Algebra) -> Representation:
    """Restrict a module supported on a factor back to the factor."""
    if not _is_restriction(small.pres, module.algebra.pres):
        raise RepresentationError(
            f"{small.pres.name} is not a declared factor of "
            f"{module.algebra.pres.name}")
    if not module.supported_on(small.pres.quiver.vertices):
        raise RepresentationError(
            f"module not supported on {small.pres.name}: support "
            f"{module.support()}")
    dims = {v: module.dims[v] for v in small.vertices}
    mats = {name: module.mats[name] for name in small.pres.quiver.arrows}
    return Representation(small, dims, mats)


def interval_module(algebra: Algebra, order: List[str], lo: int, hi: int
                    ) -> Representation:
    """The thin module of a path quiver through ``order``, supported on
    order[lo..hi] with identity maps; RepresentationError if the
    algebra's relations rule it out."""
    dims = {v: int(lo <= order.index(v) <= hi) for v in order}
    mats = {a.name: Matrix.identity(algebra.field, 1)
            for a in algebra.pres.quiver.arrows.values()
            if dims[a.source] and dims[a.target]}
    return Representation(algebra, dims, mats)


# -- radicals and covers -----------------------------------------------------


def sub_representation(module: Representation, incl_mats: Dict[str, Matrix]
                       ) -> Tuple[Representation, ModuleMap]:
    """The subrepresentation spanned by the independent columns
    ``incl_mats`` at each vertex, with its inclusion; each arrow's induced
    action is solved exactly, and a span that is not arrow-stable raises
    ValueError."""
    algebra = module.algebra
    dims = {v: incl_mats[v].cols for v in algebra.vertices}
    mats: Dict[str, Matrix] = {}
    for a in algebra.pres.quiver.arrows.values():
        if not (dims[a.source] and dims[a.target]):
            continue
        induced = incl_mats[a.target].solve(module.mats[a.name] @ incl_mats[a.source])
        if induced is None:
            raise ValueError(f"span not stable under arrow {a.name}")
        mats[a.name] = induced
    sub = Representation(algebra, dims, mats, check=False)
    return sub, ModuleMap(sub, module, incl_mats)


def radical(module: Representation) -> Tuple[Representation, ModuleMap]:
    """rad M, the sum of all arrow images, as a submodule with its
    inclusion into M: the reference for ``homology.radical_filtration``."""
    field = module.algebra.field
    quiver = module.algebra.pres.quiver
    return sub_representation(module, {
        v: Matrix.hcat(field, d, [module.mats[a.name] for a in quiver.arrows_into(v)]
                       ).image_basis()
        for v, d in module.dims.items()})


def top_dims(module: Representation) -> Dict[str, int]:
    """Dimension vector of M / rad M."""
    rad, _ = radical(module)
    return {v: module.dims[v] - rad.dims[v] for v in module.algebra.vertices}


def cover_maps(module: Representation, cover: CoverData) -> Tuple[ModuleMap, ModuleMap]:
    """The map from the cover P onto ``module`` and the syzygy's inclusion
    into P, with P, the free module on ``cover.tops``, built in full."""
    free = module.algebra._free_module(cover.tops)
    return (ModuleMap(free, module, cover.cover_mats),
            ModuleMap(cover.syzygy, free, cover.inclusion_mats))


def verify_cover(module: Representation, cover: CoverData) -> bool:
    """Surjectivity, exactness of dims, and cover minimality."""
    onto, inclusion = cover_maps(module, cover)
    for v in module.algebra.vertices:
        if onto.mats[v].rank() != module.dims[v]:
            return False
        if onto.source.dims[v] - cover.syzygy.dims[v] != module.dims[v]:
            return False
    if not onto.is_morphism() or not inclusion.is_morphism():
        return False
    if not onto.compose(inclusion).is_zero():
        return False
    return top_dims(onto.source) == top_dims(module)


def kernel_route_syzygy(module: Representation) -> Representation:
    """The kernel of the cover map out of the cover built in full, always
    eliminated: the reference for ``projective_cover``'s syzygy, which
    skips the kernel when the module is projective."""
    return kernel_of(cover_maps(module, projective_cover(module))[0])[0]


def random_extension(algebra: Algebra, base: Representation,
                     top: Representation, rng: random.Random) -> Representation:
    """``witnesses.random_extension`` with its draws, built in full: the
    ``cokernel_of`` the graph of (inclusion, -g) into the ``direct_sum``
    of the cover's projectives and ``base``."""
    cover = projective_cover(top)
    g = random_hom_combination(cover.syzygy, base, rng, (-1, 0, 0, 1))
    total = direct_sum(algebra, [cover_maps(top, cover)[0].source, base])
    mats = {v: cover.inclusion_mats[v].vstack(-g.mats[v])
            for v, d in cover.syzygy.dims.items() if d}
    return cokernel_of(ModuleMap(cover.syzygy, total, mats))[0]


# -- presentations and path bases --------------------------------------------


def structurally_equal(p: Presentation, q: Presentation) -> bool:
    """Same name, vertices, arrows and relations."""
    return (p.name == q.name
            and p.quiver.vertices == q.quiver.vertices
            and p.quiver.arrows == q.quiver.arrows
            and p.relations == q.relations)


def spot_check_associativity(basis: PathBasis, rng) -> bool:
    """(b·p)·a == b·(p·a) for random arrows a, b and basis classes p."""
    quiver = basis.pres.quiver
    if not quiver.arrows:
        return True
    for _ in range(64):
        i = rng.randrange(basis.dim)
        src, tgt, rep = basis.classes[i]
        outs = quiver.arrows_from(tgt)
        if not outs:
            continue
        a = outs[rng.randrange(len(outs))]
        via_a = basis.act[(a.name, i)]
        for b in quiver.arrows_from(a.target):
            lhs: dict = {}
            for j, c in via_a.items():
                for k, d in basis.act[(b.name, j)].items():
                    lhs[k] = lhs.get(k, QQ.zero) + c * d
            rhs = basis.reduce.get(rep + (a.name, b.name), {})
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                return False
    return True


def holds_zero(pres: Presentation, path: Tuple[str, ...]) -> bool:
    """Whether ``path`` holds a zero relation at some offset."""
    zeros = [rel.left for rel in pres.relations if rel.kind == "zero"]
    return any(path[i:i + len(z)] == z
               for z in zeros for i in range(len(path) - len(z) + 1))


def all_offset_basis(pres: Presentation, bound: int):
    """The path basis from its definition, as (classes, reduce, act) in
    ``PathBasis``'s form.  Every path up to ``bound`` arrows is tested
    against every zero relation at every offset, so the reduce map, and
    with it the action, holds no path with a zero relation in it; a path
    of ``bound`` arrows that survives fails the test.  The equalities are
    imposed by all their two-sided multiples v (x - y) u: one rref over Q
    per (source, target) block, its paths by (-length, path), whose pivot
    rows express the pivot paths through the rest, the basis classes."""
    quiver = pres.quiver
    endpoints: Dict[Tuple[str, ...], Tuple[str, str]] = {}
    frontier = [(b.name,) for v in quiver.vertices for b in quiver.arrows_from(v)]
    while frontier:
        survivors = [p for p in frontier if not holds_zero(pres, p)]
        for p in survivors:
            assert len(p) < bound, f"{p} survives"
            endpoints[p] = (quiver.arrows[p[0]].source, quiver.arrows[p[-1]].target)
        frontier = [p + (b.name,) for p in survivors
                    for b in quiver.arrows_from(quiver.arrows[p[-1]].target)]
    by_pair: Dict[Tuple[str, str], List[Tuple[str, ...]]] = {}
    for p, ends in endpoints.items():
        by_pair.setdefault(ends, []).append(p)
    equalities = [(rel.left, rel.right, *pres.path_endpoints(rel.left))
                  for rel in pres.relations if rel.kind == "eq"]
    classes = [(v, v, ()) for v in quiver.vertices]
    reduce_map: dict = {}
    for (src, tgt), block in sorted(by_pair.items()):
        block.sort(key=lambda p: (-len(p), p))
        index = {p: j for j, p in enumerate(block)}
        rows = []
        for x, y, s, t in equalities:
            pre = [v for v, ends in endpoints.items() if ends == (src, s)]
            post = [u for u, ends in endpoints.items() if ends == (t, tgt)]
            for v in pre + [()] * (s == src):
                for u in post + [()] * (t == tgt):
                    row = [QQ.zero] * len(block)
                    if v + x + u in index:
                        row[index[v + x + u]] += 1
                    if v + y + u in index:
                        row[index[v + y + u]] -= 1
                    if any(row):
                        rows.append(row)
        reduced, pivots, _ = Matrix(QQ, len(rows), len(block), rows).rref()
        pivot_set = set(pivots)
        free = [j for j in range(len(block)) if j not in pivot_set]
        class_of = {}
        for j in free:
            class_of[j] = len(classes)
            classes.append((src, tgt, block[j]))
            reduce_map[block[j]] = {class_of[j]: QQ.one}
        for prow, j in zip(reduced.data, pivots):
            reduce_map[block[j]] = {class_of[k]: -prow[k] for k in free if prow[k]}
    act = {(a.name, i): dict(reduce_map.get(rep + (a.name,), {}))
           for i, (_, tgt, rep) in enumerate(classes) for a in quiver.arrows_from(tgt)}
    return classes, reduce_map, act


# -- the direct system's connecting maps --------------------------------------


def prefix_phi(algebra: Algebra, m: int, t: int) -> ModuleMap:
    """The connecting map Z_m[t] -> Z_m[t+1], written out per level.

    Level zero maps every summand but the final S(d1) identically.  From
    level one up, walk position k goes to position k for k < keep and the
    rest to zero, with keep = 5t + 2 at level one, 4t + 3 at level two and
    the whole source walk, len + 1 positions, above; level one's S(d0)
    summand maps to zero by a block of its own.
    """
    field = algebra.field
    if m == 0:
        src, tgt = build_Zt(algebra, 0, t), build_Zt(algebra, 0, t + 1)
        return ModuleMap(src, tgt, {
            v: Matrix.units(field, tgt.dims[v], range(src.dims[v]))
            for v in algebra.vertices if v != "d1"})
    src_word, tgt_word = zt_walk(m, t), zt_walk(m, t + 1)
    keep = {1: 5 * t + 2, 2: 4 * t + 3}.get(m, len(src_word) + 1)
    src_verts, src_local = src_word.positions(algebra.pres)
    tgt_verts, tgt_local = tgt_word.positions(algebra.pres)
    if src_verts[:keep] != tgt_verts[:keep]:
        raise ValueError("walk prefixes disagree")
    src = string_module(algebra, src_word)
    tgt = string_module(algebra, tgt_word)
    mats = {v: Matrix.zeros(field, tgt.dims[v], src.dims[v]) for v in algebra.vertices}
    for i in range(keep):
        mats[src_verts[i]].data[tgt_local[i]][src_local[i]] = field.one
    if m != 1:
        return ModuleMap(src, tgt, mats)
    d0 = algebra.simple("d0")
    return ModuleMap(direct_sum(algebra, [src, d0]), direct_sum(algebra, [tgt, d0]), {
        v: block_diag(field, [mats[v], Matrix.zeros(field, d0.dims[v], d0.dims[v])])
        for v in algebra.vertices})


# -- claims ------------------------------------------------------------------


def run_claims(claim_ids: List[str], config: FamilyConfig) -> List[ClaimReport]:
    return [run_claim(cid, config) for cid in claim_ids]
