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
five in ``data/walks.json`` are the tests' reference for it.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from .families import arrow_name, vname
from .homology import cokernel_of, projective_cover, projdim, random_hom_combination
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


def _string_prefix_map(algebra: Algebra, src_word: StringWord,
                       tgt_word: StringWord, keep: int
                       ) -> Tuple[Representation, Representation, ModuleMap]:
    """Map between two string modules sending walk position i to position i
    for i < keep and the rest to zero; the walks must agree up to keep."""
    src_verts, src_local = src_word.positions(algebra.pres)
    tgt_verts, tgt_local = tgt_word.positions(algebra.pres)
    if src_verts[:keep] != tgt_verts[:keep]:
        raise ValueError("walk prefixes disagree")
    src = string_module(algebra, src_word)
    tgt = string_module(algebra, tgt_word)
    field = algebra.field
    mats = {v: Matrix.zeros(field, tgt.dims[v], src.dims[v])
            for v in algebra.vertices}
    for i in range(keep):
        v = src_verts[i]
        mats[v].data[tgt_local[i]][src_local[i]] = field.one
    return src, tgt, ModuleMap(src, tgt, mats)


def build_phi(algebra: Algebra, m: int, t: int) -> ModuleMap:
    """Connecting map from the ``t``-th to the ``(t+1)``-st member."""
    if t < 1:
        raise ValueError("t must be at least 1")
    field = algebra.field
    if m == 0:
        src = build_Zt(algebra, 0, t)
        tgt = build_Zt(algebra, 0, t + 1)
        # Component layout: d0, P(a0), t blocks of (P(b0), P(c0)), d1.
        # All components except the final d1 summand map identically; the
        # target's extra block and its own d1 receive nothing.  Only the d1
        # summand itself contributes a d1 coordinate, so d1 maps to zero.
        mats = {v: Matrix.units(field, tgt.dims[v], range(src.dims[v]))
                for v in algebra.vertices if v != "d1"}
        phi = ModuleMap(src, tgt, mats)
    elif m == 1:
        s_src, s_tgt, smap = _string_prefix_map(
            algebra, zt_walk(1, t), zt_walk(1, t + 1), keep=5 * t + 2)
        d0 = algebra.simple("d0")
        src = direct_sum(algebra, [s_src, d0])
        tgt = direct_sum(algebra, [s_tgt, d0])
        # The string map, and zero on the d0 summand.
        mats = {v: block_diag(field, [smap.mats[v],
                                      Matrix.zeros(field, d0.dims[v], d0.dims[v])])
                for v in algebra.vertices}
        phi = ModuleMap(src, tgt, mats)
    else:
        keep = 4 * t + 3 if m == 2 else len(zt_walk(m, t)) + 1
        _, _, phi = _string_prefix_map(algebra, zt_walk(m, t),
                                       zt_walk(m, t + 1), keep=keep)
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


def finite_pd_pool(algebra: Algebra) -> List[Representation]:
    """Seed modules of certified finite projective dimension over a level-2
    algebra: projectives, chain simples, and the low-level witnesses."""
    r = algebra.pres.meta.get("r", 1)
    pool: List[Representation] = [algebra.projective(v) for v in algebra.vertices]
    pool += [algebra.simple(vname("d", i)) for i in range(r + 1)]
    pool.append(build_Z(algebra, 0))
    pool.append(build_Z(algebra, 1))
    pool.append(build_Z(algebra, 2))
    return pool


def random_extension(algebra: Algebra, base: Representation,
                     top: Representation, rng: random.Random) -> Representation:
    """A random extension of ``top`` by ``base``, the pushout along a
    ``random_hom_combination`` Omega(top) -> base; its projective dimension is
    bounded by the larger of the two."""
    cover = projective_cover(top)
    g = random_hom_combination(cover.syzygy, base, rng, (-1, 0, 0, 1))
    # Pushout: (cover (+) base) / graph of (inclusion, -g).
    total = direct_sum(algebra, [algebra.projective(v) for v in cover.tops] + [base])
    mats = {v: cover.inclusion_mats[v].vstack(-g.mats[v])
            for v, d in cover.syzygy.dims.items() if d}
    graph = ModuleMap(cover.syzygy, total, mats)
    ext, _ = cokernel_of(graph)
    return ext


def sample_finite_pd_modules(algebra: Algebra, count: int, seed: int,
                             max_dim: int = 60
                             ) -> List[Tuple[Representation, "object"]]:
    """Certified finite-pd modules over a level-2 algebra, with reports.

    Built from the seed pool by direct sums and random extensions (both
    preserve finite projective dimension); every sample's verdict is
    certified by the syzygy chain, cut off at r + 6, before it is returned.
    """
    cutoff = algebra.pres.meta.get("r", 1) + 6
    rng = random.Random(f"finite-pd-samples:{seed}")
    pool = finite_pd_pool(algebra)
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
            m = random_extension(algebra, base, top, rng)
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
