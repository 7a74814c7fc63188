"""Constructors for the witness modules of the finitistic-dimension family.

``build_Z(algebra, m)`` is the level-``m`` witness: a module over any
family algebra of level at least ``m`` whose minimal syzygy is the level
``m-1`` witness, so its projective dimension is exactly ``r + m``.

``build_Zt(algebra, m, t)`` is the ``t``-th member of the direct system
refining the witness (``t = 1`` gives the witness itself), and
``build_phi`` the connecting map into the next member, whose kernel
``build_U`` is nonzero only for levels two and below.  The direct limits
themselves are infinite-dimensional and out of scope; only the finite
members and maps are built.

The witness is the first member, so both are built from one walk,
``zt_walk``.  The transcriptions of the witness walks for levels one to
five in ``data/walks.json`` are the tests' reference for it.  From level
one up, a connecting map is read off the two members' walks: it keeps the
prefix they share, position by position, and sends the rest to zero.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .families import arrow_name, vname
from .homology import (CoverData, _cokernel, projective_cover, projdim,
                       random_hom_combination)
from .matrices import Matrix, block_diag
from .presentation import ALPHA, BETA
from .reps import (Algebra, ModuleMap, Representation, StringWord,
                   direct_sum, string_module)

Letter = Tuple[str, int]


def _al(src: str, tgt: str) -> str:
    return arrow_name(ALPHA, src, tgt)


def _be(src: str, tgt: str) -> str:
    return arrow_name(BETA, src, tgt)


def _z_block(m: int) -> List[Letter]:
    """Walk letters of the short witness string at level m >= 3."""
    am, bm = vname("a", m), vname("b", m)
    am1, bm1 = vname("a", m - 1), vname("b", m - 1)
    if m == 3:
        return [(_be("a3", "b2"), 1), (_al("b3", "b2"), -1),
                (_be("b3", "c2"), 1), (_al("a2", "c2"), -1)]
    if m % 2 == 0:
        return [(_al(am, bm1), 1), (_be(bm, bm1), -1), (_al(bm, am1), 1)]
    return [(_be(am, bm1), 1), (_al(bm, bm1), -1), (_be(bm, am1), 1)]


def build_Z(algebra: Algebra, m: int) -> Representation:
    """Level-``m`` witness module, the first member ``build_Zt(algebra,
    m, 1)``; algebra must contain level ``m``."""
    return build_Zt(algebra, m, 1)


def zt_walk(m: int, t: int) -> StringWord:
    """The string part of the ``t``-fold member at level m >= 1; at
    ``t = 1``, of the witness."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if m == 1:
        letters: List[Letter] = [(_be("a1", "a0"), 1)]
        block = [(_al("c1", "a0"), -1), (_be("c1", "b0"), 1),
                 (_al("b1", "b0"), -1), (_be("b1", "c0"), 1),
                 (_al("a0", "c0"), -1)]
        for _ in range(t):
            letters += block
        letters.append((_be("a0", "u"), 1))
        return StringWord("a1", letters)
    if m == 2:
        letters = [(_al("a2", "c2"), 1), (_al("c2", "c1"), 1)]
        block = [(_be("b2", "c1"), -1), (_al("b2", "b1"), 1),
                 (_be("c2", "b1"), -1), (_al("c2", "c1"), 1)]
        for _ in range(t):
            letters += block
        letters += [(_al("c1", "a0"), 1), (_be("a1", "a0"), -1)]
        return StringWord("a2", letters)
    if m >= 3:
        block = _z_block(m)
        am, am1 = vname("a", m), vname("a", m - 1)
        junction: Letter = ((_al(am, am1), -1) if m % 2 == 1
                            else (_be(am, am1), -1))
        letters = list(block)
        for _ in range(t - 1):
            letters.append(junction)
            letters += block
        return StringWord(am, letters)
    if m < 0:
        raise ValueError("level must be nonnegative")
    raise ValueError("level-0 members are not strings")


def build_Zt(algebra: Algebra, m: int, t: int) -> Representation:
    """The ``t``-th member of the direct system at level ``m``."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if m == 0:
        parts = [algebra.simple("d0"), algebra.projective("a0")]
        for _ in range(t):
            parts += [algebra.projective("b0"), algebra.projective("c0")]
        parts.append(algebra.simple("d1"))
        return direct_sum(algebra, parts)
    if m == 1:
        s = string_module(algebra, zt_walk(1, t))
        return direct_sum(algebra, [s, algebra.simple("d0")])
    return string_module(algebra, zt_walk(m, t))


def build_phi(algebra: Algebra, m: int, t: int) -> ModuleMap:
    """Connecting map from the ``t``-th to the ``(t+1)``-st member."""
    src = build_Zt(algebra, m, t)
    tgt = build_Zt(algebra, m, t + 1)
    field = algebra.field
    if m == 0:
        # Summands d0, P(a0), t blocks (P(b0), P(c0)), d1: all but the last
        # map identically onto the target's first ones, and S(d1), the only
        # d1 coordinate, maps to zero.
        mats = {v: Matrix.units(field, tgt.dims[v], range(src.dims[v]))
                for v in algebra.vertices if v != "d1"}
    else:
        # Walk position k goes to position k while the two walks agree, where
        # both draw the same basis vector, and the rest to zero.  Level one's
        # S(d0) summand comes after the string at d0, so it maps to zero too.
        verts, local = zt_walk(m, t).positions(algebra.pres)
        next_verts = zt_walk(m, t + 1).walk_vertices(algebra.pres)
        mats = {v: Matrix.zeros(field, tgt.dims[v], src.dims[v])
                for v in algebra.vertices}
        for v, w, i in zip(verts, next_verts, local):
            if v != w:
                break
            mats[v].data[i][i] = field.one
    phi = ModuleMap(src, tgt, mats)
    if not phi.is_morphism():
        raise AssertionError(f"connecting map failed at level {m}")
    return phi


def build_U(algebra: Algebra, m: int, t: int) -> Representation:
    """Kernel shape of the connecting map: zero from level three up."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if m == 0:
        return algebra.simple("d1")
    if m == 1:
        return direct_sum(algebra, [algebra.simple("u"), algebra.simple("d0")])
    if m == 2:
        return string_module(algebra, StringWord("a1", [(_be("a1", "a0"), 1)]))
    return algebra.zero_module()


# -- finite-projective-dimension samples --------------------------------------


def _chain_length(algebra: Algebra) -> int:
    """r of a family algebra, whose chain vertices are d0, d1, ..., dr."""
    r = 0
    while vname("d", r + 1) in algebra.vertices:
        r += 1
    return r


def finite_pd_pool(algebra: Algebra) -> List[Representation]:
    """Seed modules of certified finite projective dimension over a level-2
    algebra: projectives, chain simples, and the low-level witnesses."""
    pool: List[Representation] = [algebra.projective(v) for v in algebra.vertices]
    pool += [algebra.simple(vname("d", i)) for i in range(_chain_length(algebra) + 1)]
    pool.append(build_Z(algebra, 0))
    pool.append(build_Z(algebra, 1))
    pool.append(build_Z(algebra, 2))
    return pool


def random_extension(algebra: Algebra, base: Representation,
                     cover: CoverData, rng: random.Random) -> Representation:
    """A random extension of the covered module by ``base``, the pushout of
    its cover P along a ``random_hom_combination`` g: Omega -> base; its
    projective dimension is bounded by the larger of the two.  It is the
    cokernel of (inclusion, -g) into P (+) base, with no sum built: the
    arrows act block by block, on P by ``free_action``."""
    field = algebra.field
    g = random_hom_combination(cover.syzygy, base, rng, (-1, 0, 0, 1))
    free = algebra.free_basis(cover.tops)
    p_dims = {v: len(rows) for v, rows in free.items()}
    dims = {v: p_dims[v] + d for v, d in base.dims.items()}
    graph = {v: cover.inclusion_mats[v].vstack(-g.mats[v]) for v, d in dims.items() if d}

    def arrow_columns(a, cols):  # cols increase, so P's come first
        p = p_dims[a.source]
        own = [j for j in cols if j < p]
        rest = [j - p for j in cols[len(own):]]
        return block_diag(field, [algebra.free_action(free, a, own),
                                  base.mats[a.name].submatrix_cols(rest)])

    return _cokernel(algebra, dims, graph, arrow_columns)[0]


def sample_finite_pd_modules(algebra: Algebra, count: int, seed: int,
                             max_dim: int = 60
                             ) -> List[Tuple[Representation, "object"]]:
    """Certified finite-pd modules over a level-2 algebra, with reports.

    Built from the seed pool by direct sums and random extensions (both
    preserve finite projective dimension); every sample's verdict is
    certified by the syzygy chain, cut off at r + 6, before it is returned.
    A pool module is covered on its first draw as a top, for this call.
    """
    cutoff = _chain_length(algebra) + 6
    rng = random.Random(f"finite-pd-samples:{seed}")
    pool = finite_pd_pool(algebra)
    covers: Dict[Representation, CoverData] = {}
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 20:
        attempts += 1
        kind = rng.random()
        if kind < 0.4:
            parts = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            m = direct_sum(algebra, parts)
        else:
            top = rng.choice(pool)
            base = rng.choice(pool)
            covers[top] = covers.get(top) or projective_cover(top)
            m = random_extension(algebra, base, covers[top], rng)
        if not 0 < m.total_dim() <= max_dim:
            continue
        report = projdim(m, cutoff=cutoff, seed=seed)
        if report.verdict != "finite":
            # Extensions of finite-pd modules stay finite; a miss here is a bug.
            raise AssertionError(f"sample unexpectedly not finite: {report.verdict}")
        out.append((m, report))
    if len(out) < count:
        raise RuntimeError("could not build enough finite-pd samples")
    return out
