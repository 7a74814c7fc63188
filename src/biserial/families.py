"""Generators for the two-parameter family of special biserial algebras.

The family ``lambda(r, m)`` lives on a quiver with a chain part
``d0 -> d1 -> ... -> dr`` (letters alternating beta, alpha, beta, ...),
a bottom part on ``a0, b0, c0, u, v, w, bm1, cm1`` carrying five loops,
and a tower of levels ``1, 2, ..., m``.  Levels 1 and 2 contribute
``a_i, b_i, c_i``; levels three and up contribute ``a_i, b_i`` only.

Letter classes of every arrow (solid = alpha, dashed = beta in the DOT
export) are pinned by the following table; the projective shapes of the
``m = 5`` algebra in the test-suite tables depend on each line.

    alpha:  loops at u, v, w;   a1->d0;   d(odd)->d(odd+1)
            a0->c0, c0->cm1, b0->bm1
            c1->a0, b1->b0
            c2->c1, b2->b1, a2->c2
            a3->a2, b3->b2
            level n >= 4:  straight (an->a(n-1), bn->b(n-1)) for n odd,
                           crossed  (an->b(n-1), bn->a(n-1)) for n even
    beta:   loops at cm1, bm1;  d(even)->d(even+1)
            a0->u, c0->w, b0->v
            a1->a0, c1->b0, b1->c0
            a2->a1, c2->b1, b2->c1
            a3->b2, b3->c2
            level n >= 4:  straight for n even, crossed for n odd

Relations: every mixed two-letter composite vanishes, every loop squares
to zero, and at each vertex whose maximal alpha- and beta-paths meet, the
shortest parallel pair of letter powers is identified.

Vertex names are ASCII: ``a0``, ``bm1`` for the index -1, ``d3``, ``u``.
"""

from __future__ import annotations

from typing import Dict, List

from .presentation import ALPHA, BETA, Arrow, Presentation, PresentationError, Quiver


def vname(letter: str, index: int) -> str:
    return f"{letter}m{-index}" if index < 0 else f"{letter}{index}"


def arrow_name(letter_class: str, src: str, tgt: str) -> str:
    prefix = "al" if letter_class == ALPHA else "be"
    return f"{prefix}_{src}_{tgt}"


def lambda_vertices(r: int, m: int) -> List[str]:
    vs = ["u", "v", "w", vname("b", -1), vname("c", -1)]
    vs += [vname("d", i) for i in range(r + 1)]
    vs += [vname("a", i) for i in range(m + 1)]
    vs += [vname("b", i) for i in range(m + 1)]
    vs += [vname("c", i) for i in range(min(m, 2) + 1)]
    return sorted(vs)


def _lambda_arrows(r: int, m: int) -> List[Arrow]:
    def al(src: str, tgt: str) -> Arrow:
        return Arrow(arrow_name(ALPHA, src, tgt), src, tgt, ALPHA)

    def be(src: str, tgt: str) -> Arrow:
        return Arrow(arrow_name(BETA, src, tgt), src, tgt, BETA)

    arrows = [al("u", "u"), al("v", "v"), al("w", "w"),
              be("cm1", "cm1"), be("bm1", "bm1")]
    for i in range(r):
        # Chain letters alternate starting with beta at d0.
        src, tgt = vname("d", i), vname("d", i + 1)
        arrows.append(be(src, tgt) if i % 2 == 0 else al(src, tgt))
    arrows += [al("a0", "c0"), al("c0", "cm1"), al("b0", "bm1"),
               be("a0", "u"), be("c0", "w"), be("b0", "v")]
    if m >= 1:
        arrows += [al("a1", "d0"), al("c1", "a0"), al("b1", "b0"),
                   be("a1", "a0"), be("c1", "b0"), be("b1", "c0")]
    if m >= 2:
        arrows += [al("c2", "c1"), al("b2", "b1"), al("a2", "c2"),
                   be("a2", "a1"), be("c2", "b1"), be("b2", "c1")]
    if m >= 3:
        arrows += [al("a3", "a2"), al("b3", "b2"),
                   be("a3", "b2"), be("b3", "c2")]
    for n in range(4, m + 1):
        an, bn = vname("a", n), vname("b", n)
        am, bm = vname("a", n - 1), vname("b", n - 1)
        if n % 2 == 1:
            arrows += [al(an, am), al(bn, bm), be(an, bm), be(bn, am)]
        else:
            arrows += [al(an, bm), al(bn, am), be(an, am), be(bn, bm)]
    return arrows


def _letter_chain(quiver: Quiver, start: str, letter: str) -> List[Arrow]:
    """Arrows of the unique letter-class arrow chain out of ``start``."""
    chain = []
    seen = {start}
    v = start
    while True:
        nexts = [a for a in quiver.arrows_from(v) if a.letter == letter]
        if not nexts:
            return chain
        chain.append(nexts[0])
        v = nexts[0].target
        if v in seen:  # a loop; stop after recording one step
            return chain
        seen.add(v)


def _relations(quiver: Quiver) -> List:
    from .presentation import Relation

    rels: List[Relation] = []
    # Mixed composites vanish.
    for f in quiver.arrows.values():
        for g in quiver.arrows_from(f.target):
            if g.letter != f.letter:
                rels.append(Relation("zero", (f.name, g.name)))
    # Loop squares vanish.
    for a in quiver.arrows.values():
        if a.source == a.target:
            rels.append(Relation("zero", (a.name, a.name)))
    # Shortest parallel pair of letter powers at each vertex: the least
    # (i, j) is the first alpha step that some beta step meets, with the
    # first beta step to meet it.
    for v in quiver.vertices:
        alphas = _letter_chain(quiver, v, ALPHA)
        betas = _letter_chain(quiver, v, BETA)
        first_beta: Dict[str, int] = {}
        for j, y in enumerate(betas, start=1):
            first_beta.setdefault(y.target, j)
        best = next(((i, first_beta[x.target]) for i, x in enumerate(alphas, start=1)
                     if x.target != v and x.target in first_beta), None)
        if best is not None:
            n, k = best
            rels.append(Relation("eq",
                                 tuple(a.name for a in alphas[:n]),
                                 tuple(a.name for a in betas[:k])))
    return rels


def build_lambda(r: int, m: int) -> Presentation:
    """The level-``m`` member of the family, with chain length ``r``."""
    if r < 1:
        raise PresentationError(f"chain length r must be positive, got {r}")
    if m < 0:
        raise PresentationError(f"level m must be nonnegative, got {m}")
    quiver = Quiver(lambda_vertices(r, m), _lambda_arrows(r, m))
    pres = Presentation(f"lambda_r{r}_m{m}", quiver, _relations(quiver))
    assert quiver.is_special_biserial()
    return pres


def certify_tower(r: int, m_max: int, tower: Presentation) -> None:
    """Raise RuntimeError, naming the level, unless each ``lambda(r, m)``,
    m = 0..m_max, is ``tower`` restricted to its vertices (the
    ``delete_vertices`` of the rest), relations included, and no arrow of
    ``tower`` leaves it.  Paths from the level then stay in it, so its
    modules have the same covers, syzygies and Hom spaces over ``tower``.
    The family is generated here: a failure is a bug, not an input error."""
    vertices = set(tower.quiver.vertices)
    arrows = tower.quiver.arrows.values()
    for m in range(m_max + 1):
        level = build_lambda(r, m)
        inside = set(level.quiver.vertices)
        leaving = sorted(a.name for a in arrows
                         if a.source in inside and a.target not in inside)
        kept = tower.delete_vertices(vertices - inside, level.name)
        if (leaving or not inside <= vertices or (kept.quiver.arrows, kept.relations)
                != (level.quiver.arrows, level.relations)):
            raise RuntimeError(f"level {m} is not {tower.name} restricted to its vertices"
                               + (f": arrows {', '.join(leaving)} leave it" if leaving else ""))


def build_lambda1prime(r: int) -> Presentation:
    """The level-2 algebra with the vertices ``a2`` and ``b2`` deleted."""
    base = build_lambda(r, 2)
    return base.delete_vertices(["a2", "b2"], f"lambda1prime_r{r}")


def family_from_spec(spec: str) -> Presentation:
    """Build a family member from a compact spec like ``lambda:r=1,m=3``:
    ``lambda`` takes r and m, ``lambda1prime`` takes r, each exactly once."""
    name, _, args = spec.partition(":")
    params: Dict[str, int] = {}
    if args:
        for piece in args.split(","):
            key, _, val = piece.partition("=")
            key = key.strip()
            try:
                value = int(val)
            except ValueError as exc:
                raise PresentationError(f"bad family parameter {piece!r}") from exc
            if key in params:
                raise PresentationError(f"family parameter {key!r} given twice")
            params[key] = value
    families = {"lambda": (build_lambda, ("r", "m")),
                "lambda1prime": (build_lambda1prime, ("r",))}
    if name not in families:
        raise PresentationError(f"unknown family {name!r}")
    build, wanted = families[name]
    extra = [repr(k) for k in params if k not in wanted]
    missing = [repr(k) for k in wanted if k not in params]
    problems = [f"{verb} parameter{'s' * (len(keys) > 1)} {', '.join(keys)}"
                for verb, keys in (("takes no", extra), ("needs", missing)) if keys]
    if problems:
        raise PresentationError(f"family {name!r} {' and '.join(problems)}")
    return build(*(params[k] for k in wanted))
