import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from biserial import homology
from biserial.decomp import xset
from biserial.families import build_lambda, build_lambda1prime, lambda_vertices
from biserial.fields import QQ, PrimeField
from biserial.homology import (certified_iso, cokernel_of, decide_iso,
                               hom_basis, hom_combination, kernel_of,
                               projdim, projective_cover, radical_filtration,
                               random_hom_combination, record_digest,
                               split_off, syzygy)
from biserial.matrices import Matrix
from biserial.presentation import parse_presentation
from biserial.reps import (Algebra, ModuleMap, Representation, RepresentationError,
                           StringWord, assemble_sum_map, direct_sum,
                           random_module, string_module)
from biserial.witnesses import build_Z, build_Zt, zt_walk
from oracles import (cover_maps, direct_sum_maps, from_rows, interval_module,
                     kernel_route_syzygy, map_add, map_inverse, map_scale, radical, scale,
                     sub_representation, top_dims, verify_cover)


def brute_force_intertwiner_count(m, n):
    """Independent oracle: assemble the intertwining equations with plain
    fractions and row-reduce with a local elimination."""
    algebra = m.algebra
    unknowns = []
    offset = {}
    for v in algebra.vertices:
        offset[v] = len(unknowns)
        unknowns.extend((v, i, j) for i in range(n.dims[v])
                        for j in range(m.dims[v]))
    rows = []
    for a in algebra.pres.quiver.arrows.values():
        x, y = a.source, a.target
        A = m.mats[a.name]
        B = n.mats[a.name]
        for i in range(n.dims[y]):
            for j in range(m.dims[x]):
                row = [Fraction(0)] * len(unknowns)
                for k in range(m.dims[y]):
                    row[offset[y] + i * m.dims[y] + k] += Fraction(A.data[k][j])
                for k in range(n.dims[x]):
                    row[offset[x] + k * m.dims[x] + j] -= Fraction(B.data[i][k])
                rows.append(row)
    # local elimination for the rank
    rank = 0
    ncols = len(unknowns)
    work = [r[:] for r in rows if any(r)]
    col = 0
    while work and col < ncols:
        pivot = next((i for i, r in enumerate(work) if r[col]), None)
        if pivot is None:
            col += 1
            continue
        work[0], work[pivot] = work[pivot], work[0]
        prow = work[0]
        inv = 1 / prow[col]
        prow[:] = [x * inv for x in prow]
        for r in work[1:]:
            if r[col]:
                f = r[col]
                r[:] = [a - f * b for a, b in zip(r, prow)]
        work = [r for r in work[1:] if any(r)]
        rank += 1
        col += 1
    return ncols - rank


# -- radical -------------------------------------------------------------------


def test_radical_of_simple_is_zero(alg0):
    sub, _ = radical(alg0.simple("u"))
    assert sub.is_zero()


def test_radical_of_loop_projective(alg0):
    sub, _ = radical(alg0.projective("u"))
    assert dict(sub.dim_vector()) == {"u": 1}


def test_radical_additive_over_sums(algp):
    a = random_module(algp, seed=3, budget=15)
    b = random_module(algp, seed=4, budget=15)
    total = direct_sum(algp, [a, b])
    ra, _ = radical(a)
    rb, _ = radical(b)
    rt, _ = radical(total)
    for v in algp.vertices:
        assert rt.dims[v] == ra.dims[v] + rb.dims[v]


@functools.lru_cache(maxsize=None)
def _layer_algebra(name, field):
    pres = {"lambda(2, 5)": lambda: build_lambda(2, 5),
            "lambda(1, 3)": lambda: build_lambda(1, 3),
            "lambda(3, 2)": lambda: build_lambda(3, 2),
            "lambda1prime(2)": lambda: build_lambda1prime(2)}[name]()
    return Algebra(pres, field=QQ if field is None else PrimeField(field))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["lambda(2, 5)", "lambda(1, 3)", "lambda(3, 2)", "lambda1prime(2)"]),
       st.sampled_from([None, 2, 101]), st.booleans(), st.integers(0, 10 ** 6),
       st.integers(1, 20))
def test_radical_filtration_iterates_the_radical(name, field, projective, seed, budget):
    # rad^(k+1) M = rad(rad^k M): the layers read off column spaces are the
    # drops along the chain of radicals, each built as a submodule with a
    # solved action, entry order included.
    algebra = _layer_algebra(name, field)
    vertices = algebra.vertices
    module = (algebra.projective(vertices[seed % len(vertices)]) if projective
              else random_module(algebra, seed=seed, budget=budget))
    expected = []
    current = module
    while current.total_dim():
        rad, _ = radical(current)
        expected.append([(v, d - rad.dims[v]) for v, d in current.dims.items()
                         if d > rad.dims[v]])
        current = rad
    assert [list(layer.items()) for layer in radical_filtration(module)] == expected


def test_radical_filtration_builds_no_submodule(alg5, monkeypatch):
    # Every layer is a drop in column count: no module is constructed and
    # no induced action is solved.
    modules = [alg5.projective(v) for v in alg5.vertices]
    modules += [random_module(alg5, seed=seed, budget=20) for seed in range(4)]
    tops = [{v: d for v, d in top_dims(m).items() if d} for m in modules]
    built, solved = [], []
    real_init, real_solve = Representation.__init__, Matrix.solve

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def counting_solve(self, *args):
        solved.append(args)
        return real_solve(self, *args)

    monkeypatch.setattr(Representation, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "solve", counting_solve)
    layers = [radical_filtration(m) for m in modules]
    assert built == [] and solved == []
    assert [found[0] for found in layers] == tops


# -- covers and syzygies -------------------------------------------------------


def test_cover_of_projective_is_itself(alg1):
    proj = alg1.projective("c1")
    cov = projective_cover(proj)
    assert cov.syzygy.is_zero()
    assert cover_maps(proj, cov)[0].source.dims == proj.dims
    assert verify_cover(proj, cov)


def test_chain_end_simple_is_projective():
    for r, m in [(1, 0), (2, 3)]:
        alg = Algebra(build_lambda(r, m))
        cov = projective_cover(alg.simple(f"d{r}"))
        assert cov.syzygy.is_zero()


def test_syzygy_of_loop_simple_is_itself(alg0):
    om = syzygy(alg0.simple("u"))
    assert dict(om.dim_vector()) == {"u": 1}


def test_syzygy_of_witness_tower(alg1):
    z1 = build_Z(alg1, 1)
    z0 = build_Z(alg1, 0)
    om = syzygy(z1)
    assert certified_iso(om, z0, seed=0) is not None


def test_syzygy_of_projective_zero(alg2):
    assert syzygy(alg2.projective("c2")).is_zero()


def test_syzygy_additive(algp):
    a = random_module(algp, seed=11, budget=12)
    b = random_module(algp, seed=12, budget=12)
    total = direct_sum(algp, [a, b])
    oa, ob, ot = syzygy(a), syzygy(b), syzygy(total)
    expected = direct_sum(algp, [oa, ob])
    assert certified_iso(ot, expected, seed=1) is not None


def test_cover_exactness_and_minimality(algp):
    for seed in range(5):
        m = random_module(algp, seed=seed + 50, budget=20)
        cov = projective_cover(m)
        assert verify_cover(m, cov)
        free = cover_maps(m, cov)[0].source
        for v in algp.vertices:
            assert m.dims[v] == free.dims[v] - cov.syzygy.dims[v]
        assert top_dims(free) == top_dims(m)


# -- kernels and cokernels -----------------------------------------------------


def test_kernel_of_identity(alg1):
    m = alg1.projective("b1")
    ker, _ = kernel_of(ModuleMap.identity(m))
    assert ker.is_zero()


def test_kernel_of_a_non_morphism_raises():
    # The Kronecker module k -> k^2 (a to e1, b to e2) with f = 0 at x and
    # the projection to e1 at y: f is no module map, and a sends ker f_x
    # outside ker f_y = span(e2).
    alg = Algebra(parse_presentation(
        "algebra K\nvertex x\nvertex y\n"
        "arrow a : alpha x -> y\narrow b : beta x -> y\n"))
    module = Representation(alg, {"x": 1, "y": 2},
                            {"a": from_rows(QQ, [[1], [0]]),
                             "b": from_rows(QQ, [[0], [1]])})
    f = ModuleMap(module, module, {"x": Matrix.zeros(QQ, 1, 1),
                                   "y": from_rows(QQ, [[1, 0], [0, 0]])})
    assert not f.is_morphism()
    with pytest.raises(ValueError, match="not stable under arrow a"):
        kernel_of(f)


def test_cokernel_of_zero_map(alg1):
    m = alg1.projective("b1")
    cok, proj = cokernel_of(ModuleMap.zero(alg1.zero_module(), m))
    assert cok.dims == m.dims
    assert proj.is_morphism()


def test_cokernel_of_identity(alg1):
    m = alg1.projective("b1")
    cok, _ = cokernel_of(ModuleMap.identity(m))
    assert cok.is_zero()


def test_cokernel_of_radical_inclusion_is_top(alg1):
    p = alg1.projective("c1")
    sub, incl = radical(p)
    cok, _ = cokernel_of(incl)
    assert dict(cok.dim_vector()) == {"c1": 1}


@pytest.mark.parametrize("top, into", [("a0", "a1"), ("b0", "c1"), ("d0", "a1")])
def test_cokernel_where_source_or_target_vanishes(alg1, top, into):
    # P(top) -> P(into): at some vertex only the source is nonzero, at
    # another only the target, so the map has 0 x d and d x 0 blocks.
    source, target = alg1.projective(top), alg1.projective(into)
    assert any(source.dims[v] and not target.dims[v] for v in alg1.vertices)
    assert any(target.dims[v] and not source.dims[v] for v in alg1.vertices)
    f = hom_basis(source, target)[0]
    cok, proj = cokernel_of(f)
    assert not cok.violated_relations()
    assert proj.is_morphism()
    for v in alg1.vertices:
        # proj is onto and its kernel is exactly the image of f.
        assert cok.dims[v] == target.dims[v] - f.mats[v].rank()
        assert proj.mats[v].rank() == cok.dims[v]
        assert (proj.mats[v] @ f.mats[v]).is_zero()


# -- hom spaces ----------------------------------------------------------------


def test_hom_from_projective_counts_fiber(algp):
    for seed in (1, 2):
        m = random_module(algp, seed=seed, budget=18)
        for v in ("c2", "a1", "u"):
            assert len(hom_basis(algp.projective(v), m)) == m.dims[v]


def test_hom_between_simples(alg1):
    assert len(hom_basis(alg1.simple("u"), alg1.simple("u"))) == 1
    assert len(hom_basis(alg1.simple("u"), alg1.simple("v"))) == 0


def test_end_of_z3_is_one_dimensional(alg3):
    z3 = string_module(alg3, zt_walk(3, 1))
    assert len(hom_basis(z3, z3)) == 1
    assert brute_force_intertwiner_count(z3, z3) == 1


def test_hom_matches_brute_force(algp):
    a = random_module(algp, seed=21, budget=14)
    b = random_module(algp, seed=22, budget=14)
    assert len(hom_basis(a, b)) == brute_force_intertwiner_count(a, b)


# -- certified isomorphism -----------------------------------------------------


def test_iso_self(alg1):
    m = build_Z(alg1, 1)
    iso = certified_iso(m, m, seed=0)
    assert iso is not None and iso.is_iso()


def test_iso_dimension_fast_fail(alg1):
    assert certified_iso(alg1.simple("u"), alg1.simple("v"), seed=0) is None


def test_iso_zero_modules(alg1):
    assert certified_iso(alg1.zero_module(), alg1.zero_module()) is not None


def test_iso_witness_step(alg2):
    om = syzygy(build_Z(alg2, 2))
    z1 = build_Z(alg2, 1)
    iso = certified_iso(om, z1, seed=0)
    assert iso is not None


def test_iso_certificate_symmetric(alg2):
    m = build_Z(alg2, 2)
    n = string_module(alg2, zt_walk(2, 1))
    iso = certified_iso(m, n, seed=5)
    assert iso is not None
    back = map_inverse(iso)
    assert back.is_morphism() and back.is_iso()


def test_iso_same_dims_nonisomorphic(alg0):
    # Simple u + simple v vs the 2-dim projective at u: same total dim,
    # different dimension vectors: sound negative.
    s = direct_sum(alg0, [alg0.simple("u"), alg0.simple("v")])
    assert certified_iso(s, alg0.projective("u"), seed=0) is None


# -- simple summand test -------------------------------------------------------


def test_simple_summand_in_sum(alg1):
    m = direct_sum(alg1, [alg1.simple("u"), alg1.projective("c1")])
    split = split_off(alg1.simple("u"), m)
    assert split is not None
    comp = split.retraction.compose(split.section)
    assert comp.mats["u"].data[0][0] == alg1.field.one
    assert split.complement.dim_vector() == alg1.projective("c1").dim_vector()


def test_simple_top_of_projective_not_split(alg1):
    assert split_off(alg1.simple("c1"), alg1.projective("c1")) is None


def test_lemma1_summand_example(algp):
    from biserial.decomp import xset

    first = xset(algp)[0]
    target = syzygy(syzygy(first))
    assert split_off(algp.simple("cm1"), target) is not None


# -- projective dimension ------------------------------------------------------


def test_pd_chain_simples():
    for r in (1, 2, 3):
        alg = Algebra(build_lambda(r, 0))
        rep = projdim(alg.simple("d0"), cutoff=r + 4)
        assert rep.verdict == "finite" and rep.value == r


def test_pd_loop_simples_infinite(alg0):
    for v in ("u", "v", "w", "cm1", "bm1"):
        rep = projdim(alg0.simple(v), cutoff=6)
        assert rep.verdict == "infinite"
        assert rep.cycle == (0, 1)
        assert rep.iso is not None and rep.iso.is_iso()


def test_pd_witnesses_small():
    for r in (1, 2):
        for m in (0, 1, 2):
            alg = Algebra(build_lambda(r, m))
            rep = projdim(build_Z(alg, m), cutoff=r + m + 4)
            assert rep.verdict == "finite" and rep.value == r + m


def test_pd_zero_module(alg0):
    rep = projdim(alg0.zero_module())
    assert rep.verdict == "minus_infinity"
    assert rep.describe().startswith("MinusInfinity")


def test_pd_additivity_over_sums(algp):
    rng = random.Random(77)
    for _ in range(4):
        a = random_module(algp, seed=rng.randrange(1000), budget=10)
        b = random_module(algp, seed=rng.randrange(1000), budget=10)
        total = direct_sum(algp, [a, b])
        ra = projdim(a, cutoff=10)
        rb = projdim(b, cutoff=10)
        rt = projdim(total, cutoff=10)
        finite_parts = [r.value for r in (ra, rb) if r.verdict == "finite"]
        if ra.verdict == "infinite" or rb.verdict == "infinite":
            assert rt.verdict == "infinite"
        elif ra.verdict == "minus_infinity" and rb.verdict == "minus_infinity":
            assert rt.verdict == "minus_infinity"
        elif {ra.verdict, rb.verdict} <= {"finite", "minus_infinity"}:
            assert rt.verdict == "finite"
            assert rt.value == max(finite_parts)


def test_finite_verdicts_cutoff_independent(alg2):
    z2 = build_Z(alg2, 2)
    low = projdim(z2, cutoff=7)
    high = projdim(z2, cutoff=20)
    assert low.verdict == high.verdict == "finite"
    assert low.value == high.value


def test_infinite_verdicts_cutoff_independent(alg0):
    a = projdim(alg0.simple("cm1"), cutoff=4)
    b = projdim(alg0.simple("cm1"), cutoff=30)
    assert a.verdict == b.verdict == "infinite"
    assert a.cycle == b.cycle


def test_syzygy_support_descent():
    cases = [(1, set(lambda_vertices(1, 0))),
             (3, set(lambda_vertices(1, 2))),
             (4, set(lambda_vertices(1, 3)))]
    for m, target in cases:
        alg = Algebra(build_lambda(1, m))
        for seed in range(3):
            module = random_module(alg, seed=seed + 31, budget=18)
            assert syzygy(module).supported_on(target)
    # Level 2 drops into the pruned algebra, not level 1.
    alg = Algebra(build_lambda(1, 2))
    pruned = set(lambda_vertices(1, 2)) - {"a2", "b2"}
    for seed in range(3):
        module = random_module(alg, seed=seed + 91, budget=18)
        assert syzygy(module).supported_on(pruned)


def test_derived_representations_satisfy_relations(algp):
    # Sums, kernels, cokernels and syzygies skip the constructor check for
    # speed; re-verify that they satisfy every relation anyway.
    for seed in (101, 102):
        m = random_module(algp, seed=seed, budget=16)
        cover = projective_cover(m)
        onto, inclusion = cover_maps(m, cover)
        assert not onto.source.violated_relations()
        assert not cover.syzygy.violated_relations()
        sub, _ = radical(m)
        assert not sub.violated_relations()
        cok, _ = cokernel_of(inclusion)
        assert not cok.violated_relations()


def test_pd_report_serialization(alg0):
    rep = projdim(alg0.simple("u"), cutoff=5, seed=3)
    rec = rep.to_record()
    assert rec["verdict"] == "infinite"
    assert rec["cycle"] == [0, 1]
    assert rec["seed"] == 3
    assert rec["chain"][0] == [["u", 1]]


@functools.cache
def _truncation_modules(field_spec):
    """Modules of every pd verdict over one field: zero, finite (chain
    simples, a witness, a random module), infinite (loop simples,
    c2-strings)."""
    from biserial.fields import field_from_spec

    field = field_from_spec(field_spec)
    tower = Algebra(build_lambda(2, 3), field=field)
    prime = Algebra(build_lambda1prime(2), field=field)
    return [tower.zero_module(), tower.simple("d0"), tower.simple("d2"),
            tower.simple("u"), tower.simple("cm1"), build_Z(tower, 2),
            *xset(prime)[::3], random_module(prime, seed=5, budget=12)]


@pytest.mark.parametrize("field_spec", ["q", "fp:2", "fp:101"])
def test_pd_report_truncated_is_the_walk_at_the_smaller_cutoff(field_spec):
    # projdim(M, cutoff=c) == projdim(M, cutoff=C).truncated(c) for every
    # 1 <= c <= C, with the iso search on, off (trials 0, which cuts the
    # infinite chains to inconclusive) and at one trial.
    verdicts = set()
    for module in _truncation_modules(field_spec):
        for trials in (None, 0, 1):
            walks = {c: projdim(module, cutoff=c, seed=2, trials=trials)
                     for c in range(1, 8)}
            for big, walk in walks.items():
                for c in range(1, big + 1):
                    cut, short = walk.truncated(c), walks[c]
                    assert cut._replace(iso=None) == short._replace(iso=None), (c, big)
                    assert (cut.iso is None) == (short.iso is None)
                    assert cut.iso is None or cut.iso.mats == short.iso.mats
            verdicts.update(walk.verdict for walk in walks.values())
    assert verdicts == {"finite", "infinite", "inconclusive", "minus_infinity"}


# -- the pd engine does no work that cannot change its answer ------------------


def _counting(monkeypatch, name):
    calls = []
    real = getattr(homology, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(homology, name, counting)
    return calls


def test_finite_chain_with_distinct_dims_solves_no_hom_system(alg3, monkeypatch):
    calls = _counting(monkeypatch, "_hom_kernel")
    rep = projdim(build_Z(alg3, 3), cutoff=8)
    assert rep.verdict == "finite" and rep.value == 4
    assert len(set(rep.chain)) == len(rep.chain)
    assert calls == []


def test_dimension_collision_without_iso_ends_finite(monkeypatch):
    # Two modules with dimension vector a0:2, c0:1, u:1 and top a0:2:
    # c0 <- a0 -> u plus S(a0) has End of dimension 3, while
    # (a0 -> c0) plus (a0 -> u) has End of dimension 2, so they are not
    # isomorphic.  The stubbed syzygies land in the syzygy memo, so the
    # algebra is this test's own.
    alg0 = Algebra(build_lambda(1, 0))
    to_c0, to_u = alg0.pres.quiver.arrows_from("a0")

    def walk(base, letters):
        return string_module(alg0, StringWord(base, letters))

    first = direct_sum(alg0, [walk("c0", [(to_c0.name, -1), (to_u.name, 1)]),
                                    alg0.simple("a0")])
    second = direct_sum(alg0, [walk("a0", [(to_c0.name, 1)]),
                                     walk("a0", [(to_u.name, 1)])])
    real_cover = homology.projective_cover
    assert first.dims == second.dims
    assert top_dims(first) == top_dims(second)
    assert (len(hom_basis(first, first)), len(hom_basis(second, second))) == (3, 2)
    chain = {id(first): second, id(second): alg0.zero_module()}

    def stub_cover(module):
        return real_cover(module)._replace(syzygy=chain[id(module)])

    monkeypatch.setattr(homology, "projective_cover", stub_cover)
    searches = []
    real_iso = homology.certified_iso

    def counting_iso(*args, **kwargs):
        found = real_iso(*args, **kwargs)
        searches.append((args, found))
        return found

    monkeypatch.setattr(homology, "certified_iso", counting_iso)
    calls = _counting(monkeypatch, "_hom_kernel")
    rep = projdim(first)
    assert rep.verdict == "finite" and rep.value == 1
    # The one dimension-vector collision is searched once, and misses.
    assert [(args[:2], found) for args, found in searches] == [((first, second), None)]
    # No End system is solved: the only Hom system is the search's.
    assert calls == [(first, second)]


def test_pd_chain_builds_one_cover_per_module(monkeypatch):
    # A fresh algebra, so that every step builds its cover.
    alg3 = Algebra(build_lambda(1, 3))
    steps = _counting(monkeypatch, "syzygy")
    covers = _counting(monkeypatch, "projective_cover")
    free = []
    monkeypatch.setattr(Algebra, "_free_module", lambda self, *args: free.append(args))
    rep = projdim(build_Z(alg3, 3), cutoff=8)
    assert rep.verdict == "finite" and rep.value == 4
    # Every nonzero chain module is covered once; the last one is zero.
    assert [m.dim_vector() for (m,) in covers] == rep.chain[:-1]
    assert len({id(m) for (m,) in covers}) == len(covers)
    assert [m for (m,) in steps] == [m for (m,) in covers]
    # The syzygies are read off the path-class basis: no cover is built.
    assert free == []


def test_content_equal_modules_share_one_syzygy(monkeypatch):
    alg = Algebra(build_lambda(1, 2))
    first, second = build_Z(alg, 2), build_Z(alg, 2)
    assert first is not second
    covers = _counting(monkeypatch, "projective_cover")
    omega = syzygy(first)
    assert syzygy(second) is omega
    assert len(covers) == 1
    # The chain reads the same memo: only the syzygy's own steps are new.
    rep = projdim(second)
    assert rep.verdict == "finite"
    assert len(covers) == len(rep.chain) - 1


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["qq", "f101"])
def test_syzygy_memo_is_per_algebra(field, monkeypatch):
    # The same presentation and content over another Algebra, or over
    # another field, is covered again.
    pres = build_lambda(1, 2)
    alg = Algebra(pres)
    omega = syzygy(build_Z(alg, 2))
    covers = _counting(monkeypatch, "projective_cover")
    other = Algebra(pres, field=field)
    other_omega = syzygy(build_Z(other, 2))
    assert len(covers) == 1
    assert other_omega is not omega and other_omega.algebra is other
    assert other_omega.dim_vector() == omega.dim_vector()


def test_iso_search_miss_solves_hom_once(alg3, monkeypatch):
    calls = _counting(monkeypatch, "_hom_kernel")
    module = build_Z(alg3, 3)
    decision = decide_iso(module, module, trials=0)
    assert decision.status == "not_found" and decision.trials == 0
    assert len(calls) == 1


def test_cover_of_zero_module_is_zero(alg1):
    zero = alg1.zero_module()
    cover = projective_cover(zero)
    assert cover.tops == []
    assert cover_maps(zero, cover)[0].source.is_zero() and cover.syzygy.is_zero()
    assert verify_cover(zero, cover)


@functools.lru_cache(maxsize=None)
def _cover_algebra(family, field):
    pres = build_lambda(1, 2) if family == "lambda" else build_lambda1prime(1)
    return Algebra(pres, field=QQ if field is None else PrimeField(field))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["lambda", "lambda1prime"]), st.sampled_from([None, 2, 101]),
       st.integers(0, 10 ** 6), st.integers(1, 20))
def test_cover_generators_extend_the_arrow_images(family, field, seed, budget):
    # The arrow images span rad M, so extending them picks the same top
    # basis as extending the radical's own basis, whose quotient
    # coordinates are the rows past the radical of the extended basis's
    # inverse.
    module = random_module(_cover_algebra(family, field), seed=seed, budget=budget)
    _, incl = radical(module)
    for v in module.algebra.vertices:
        rad = incl.mats[v]
        chosen, q = rad.quotient_coordinates()
        assert homology._arrow_images(module, v).unit_complement() == chosen
        basis = Matrix.hcat(rad.field, rad.rows, [rad, Matrix.units(rad.field, rad.rows, chosen)])
        assert q.data == basis.inverse().data[rad.cols:]
    assert verify_cover(module, projective_cover(module))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["lambda", "lambda1prime"]), st.sampled_from([None, 2, 101]),
       st.sampled_from(["random", "sum of projectives", "relation-free"]),
       st.integers(0, 10 ** 6), st.integers(1, 20))
def test_cover_eliminates_no_kernel_exactly_for_projective_modules(
        family, field, kind, seed, budget):
    # By Nakayama's lemma the cover map is onto, so a cover of M's own
    # dimension is an isomorphism: its syzygy is zero with no kernel
    # eliminated.  Either way the syzygy is the kernel of the cover map
    # built in full and eliminated, content for content.  Relation-free
    # random modules are what random_module returns when it draws no
    # relation: the free module on its tops.
    algebra = _cover_algebra(family, field)
    rng = random.Random(seed)
    tops = [rng.choice(algebra.vertices) for _ in range(rng.randint(0, 3))]
    module = {"random": lambda: random_module(algebra, seed=seed, budget=budget),
              "sum of projectives": lambda: direct_sum(
                  algebra, [algebra.projective(v) for v in tops]),
              "relation-free": lambda: algebra._free_module(tops)}[kind]()
    cover = projective_cover(module)
    assert verify_cover(module, cover)
    reference = kernel_route_syzygy(module)
    assert homology._content_key(cover.syzygy) == homology._content_key(reference)
    free_dim = sum(map(len, algebra.free_basis(cover.tops).values()))
    assert cover.syzygy.is_zero() == (free_dim == module.total_dim())
    if kind != "random":
        assert cover.syzygy.is_zero()


def test_cover_of_a_projective_module_solves_no_kernel(monkeypatch, algp):
    kernels = _counting(monkeypatch, "_kernel")
    cover = projective_cover(direct_sum(algp, [algp.projective(v) for v in algp.vertices]))
    assert cover.syzygy.is_zero() and kernels == []
    assert all(m.cols == 0 for m in cover.inclusion_mats.values())
    assert projective_cover(algp.simple("d1")).syzygy.is_zero() and kernels == []
    assert not projective_cover(algp.simple("c1")).syzygy.is_zero()
    assert len(kernels) == 1


@pytest.mark.parametrize("make", [lambda alg: alg.simple("d0"), lambda alg: build_Z(alg, 3)],
                         ids=["simple", "Z_3"])
def test_a_cover_map_that_is_not_onto_is_a_bug(monkeypatch, alg3, make):
    # Dropping a top generator leaves the cover map short of M, which the
    # dimension of its kernel shows.
    module = make(alg3)
    real = Matrix.unit_complement
    monkeypatch.setattr(Matrix, "unit_complement", lambda self: real(self)[1:])
    with pytest.raises(AssertionError, match="is not onto"):
        projective_cover(module)


def test_projective_built_and_checked_once(monkeypatch):
    checks = []
    real = Representation.violated_relations

    def counting(self):
        checks.append(self)
        return real(self)

    monkeypatch.setattr(Representation, "violated_relations", counting)
    alg = Algebra(build_lambda(1, 1))
    first = alg.projective("a1")
    assert alg.projective("a1") is first
    assert len(checks) == 1


def test_certified_iso_over_largest_prime():
    alg = Algebra(build_lambda(1, 1), field=PrimeField(2147483647))
    module = build_Z(alg, 1)
    iso = certified_iso(module, module, seed=5)
    assert iso is not None and iso.is_iso()


def _pinned_modules():
    out = {}
    for m in range(4):
        out[f"Z{m}"] = (lambda m=m: build_Z(Algebra(build_lambda(1, m)), m), m + 5)
        for t in (1, 2):
            out[f"Z{m}[{t}]"] = (
                lambda m=m, t=t: build_Zt(Algebra(build_lambda(1, m + 1)), m, t),
                m + 5)
    for i in range(10):
        out[f"X{i + 1}"] = (
            lambda i=i: xset(Algebra(build_lambda1prime(1)))[i], 8)
    return out


# (verdict, pd or cycle, digest of the whole report record), recorded from
# the engine that solved End(M) for every syzygy.
PINNED_PD = {
    "Z0": ("finite", 1, "dd89c81f13c91fc0"),
    "Z1": ("finite", 2, "1f4427121f04ed0d"),
    "Z2": ("finite", 3, "2d3ba950b9354f73"),
    "Z3": ("finite", 4, "7d7ceef6f37cb4a0"),
    "Z0[1]": ("finite", 1, "dd89c81f13c91fc0"),
    "Z0[2]": ("finite", 1, "0d5a3895fd7921e1"),
    "Z1[1]": ("finite", 2, "1f4427121f04ed0d"),
    "Z1[2]": ("finite", 2, "ed4e14254ad6f78e"),
    "Z2[1]": ("finite", 3, "2d3ba950b9354f73"),
    "Z2[2]": ("finite", 3, "1502f87223fd8d4c"),
    "Z3[1]": ("finite", 4, "7d7ceef6f37cb4a0"),
    "Z3[2]": ("finite", 4, "bb1f57d40c411cfa"),
    "X1": ("infinite", [2, 3], "09fa86dcba0d049d"),
    "X2": ("infinite", [3, 4], "9bb7668e8b623394"),
    "X3": ("infinite", [2, 3], "168f8a53107a9cb6"),
    "X4": ("infinite", [2, 3], "0460217536e5d629"),
    "X5": ("infinite", [3, 4], "6480bb2bf2612eb9"),
    "X6": ("infinite", [3, 4], "4c0370723b0d8fc0"),
    "X7": ("infinite", [3, 4], "ff9046270dcadc7d"),
    "X8": ("infinite", [3, 4], "7ebdeecd83db9b12"),
    "X9": ("infinite", [3, 4], "3e6430a2c7604ced"),
    "X10": ("infinite", [3, 4], "e51a04ced0e6221d"),
}


@pytest.mark.parametrize("name", list(PINNED_PD))
def test_pd_reports_match_pinned(name):
    build, cutoff = _pinned_modules()[name]
    rec = projdim(build(), cutoff=cutoff).to_record()
    verdict, value, digest = PINNED_PD[name]
    assert rec["verdict"] == verdict
    assert rec.get("pd", rec.get("cycle")) == value
    assert record_digest(rec) == digest


def test_split_pair_composes_to_identity(alg1):
    simple = alg1.simple("c1")
    module = direct_sum(alg1, [alg1.projective("a1"), simple])
    s, p, complement, incl = split_off(simple, module)
    assert s.is_morphism() and p.is_morphism() and incl.is_morphism()
    identity = p.compose(s)
    assert identity.mats["c1"] == ModuleMap.identity(simple).mats["c1"]
    assert p.compose(incl).is_zero()
    assert complement.dim_vector() == alg1.projective("a1").dim_vector()
    # The top of an indecomposable projective of length > 1 does not split.
    assert split_off(simple, alg1.projective("c1")) is None


def test_decide_iso_tells_a_miss_from_a_proof():
    alg = Algebra(parse_presentation(
        "algebra K\nvertex x\nvertex y\n"
        "arrow a : alpha x -> y\narrow b : beta x -> y\n"))
    along_a = string_module(alg, StringWord("x", [("a", 1)]))
    along_b = string_module(alg, StringWord("x", [("b", 1)]))
    found = decide_iso(along_a, along_a)
    assert found.status == "iso" and found.iso.is_iso()
    zero_hom = decide_iso(along_a, along_b)
    assert (zero_hom.status, zero_hom.reason) == ("not_iso", "Hom space is zero")
    dims = decide_iso(along_a, alg.simple("x"))
    assert (dims.status, dims.reason) == ("not_iso", "dimension vectors differ")
    miss = decide_iso(along_a, along_a, trials=0)
    assert (miss.status, miss.iso, miss.trials) == ("not_found", None, 0)
    # Over GF(2) the default 40 trials miss this isomorphism (section-4).
    gf2 = Algebra(build_lambda(1, 1), field=PrimeField(2))
    omega = syzygy(build_Zt(gf2, 1, 2))
    miss = decide_iso(omega, build_Zt(gf2, 0, 2))
    assert (miss.status, miss.reason, miss.trials) == (
        "not_found", "no isomorphism found", 40)


def test_decide_iso_rechecks_the_squares_of_a_full_rank_candidate(monkeypatch):
    alg = Algebra(parse_presentation(
        "algebra K\nvertex x\nvertex y\narrow a : alpha x -> y\n"))
    along_a = string_module(alg, StringWord("x", [("a", 1)]))
    real = homology.hom_combination

    def doubled_at_y(source, target, hom, coeffs):
        # Still invertible at x and y, but the square of arrow a fails.
        f = real(source, target, hom, coeffs)
        return ModuleMap(source, target, {**f.mats, "y": scale(f.mats["y"], 2)})

    monkeypatch.setattr(homology, "hom_combination", doubled_at_y)
    with pytest.raises(AssertionError, match="fails the squares of arrows a"):
        decide_iso(along_a, along_a)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["lambda", "lambda1prime"]), st.sampled_from([None, 2, 101]),
       st.integers(0, 10 ** 6), st.integers(1, 20))
def test_syzygy_on_the_path_class_basis_is_the_kernel_of_the_cover_map(
        family, field, seed, budget):
    # The syzygy read off the cover's path-class basis equals the kernel
    # of the cover map computed on the block-diagonal cover, matrix for
    # matrix, and the induced action solved arrow by arrow on that cover;
    # the cover, built in full, passes its own checks.
    module = random_module(_cover_algebra(family, field), seed=seed, budget=budget)
    cover = projective_cover(module)
    onto, _ = cover_maps(module, cover)
    kernel, inclusion = kernel_of(onto)
    assert kernel.dims == cover.syzygy.dims
    assert kernel.mats == cover.syzygy.mats
    assert inclusion.mats == cover.inclusion_mats
    solved, _ = sub_representation(onto.source, inclusion.mats)
    assert solved.mats == cover.syzygy.mats
    assert verify_cover(module, cover)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["lambda", "lambda1prime"]), st.sampled_from([None, 2, 101]),
       st.integers(0, 10 ** 6), st.integers(1, 20), st.integers(0, 10 ** 6),
       st.integers(0, 5))
def test_map_from_projectives_is_a_module_map(family, field, seed, budget, pick, count):
    # Any (v, i) generator list gives a module map out of the direct sum
    # of the P(v) that sends the top of summand g to e_i; the free basis
    # of the generators' vertices is that sum's basis, and the free action
    # on any of its basis vectors is the sum's block-diagonal arrow action
    # on them.
    algebra = _cover_algebra(family, field)
    module = random_module(algebra, seed=seed, budget=budget)
    rng = random.Random(pick)
    spots = [(v, i) for v, d in module.dims.items() for i in range(d)]
    generators = [rng.choice(spots) for _ in range(count)] if spots else []
    tops = [v for v, _ in generators]
    free = algebra.free_basis(tops)
    total = direct_sum(algebra, [algebra.projective(v) for v in tops])
    assert {v: len(rows) for v, rows in free.items()} == total.dims
    for a in algebra.pres.quiver.arrows.values():
        if total.dims[a.source] and total.dims[a.target]:
            n = total.dims[a.source]
            assert algebra.free_action(free, a, range(n)) == total.mats[a.name]
            picked = rng.sample(range(n), rng.randint(0, n))
            assert (algebra.free_action(free, a, picked)
                    == total.mats[a.name].submatrix_cols(picked))
    f = ModuleMap(total, module, homology.map_from_projectives(module, generators, free))
    assert f.is_morphism()
    # The idempotent path classes come first, in vertex order.
    for g, (v, i) in enumerate(generators):
        column = [row[free[v][g, algebra.vertices.index(v)]] for row in f.mats[v].data]
        assert column == [int(k == i) for k in range(module.dims[v])]


@functools.lru_cache(maxsize=None)
def _combination_algebra(name, field):
    pres = {"lambda(1, 1)": lambda: build_lambda(1, 1),
            "lambda(1, 2)": lambda: build_lambda(1, 2),
            "lambda(2, 2)": lambda: build_lambda(2, 2),
            "lambda(2, 3)": lambda: build_lambda(2, 3),
            "lambda1prime(1)": lambda: build_lambda1prime(1),
            "lambda1prime(2)": lambda: build_lambda1prime(2)}[name]()
    return Algebra(pres, field=QQ if field is None else PrimeField(field))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["lambda(1, 1)", "lambda(2, 2)", "lambda1prime(2)"]),
       st.sampled_from([None, 2, 101]), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.sampled_from([0, 8, 16, 24]),
       st.sampled_from([0, 8, 16, 24]), st.sampled_from(["random", "same", "sum"]),
       st.booleans())
def test_hom_combination_is_the_sum_of_scaled_basis_maps(
        name, field, seed_m, seed_n, budget_m, budget_n, target, all_zero):
    # The shared combination equals the ModuleMap arithmetic it replaced,
    # sum of c_k h_k built with + and scale over hom_basis, and is a
    # morphism.  A budget of 0 gives the zero module, and two random
    # modules often have no maps between them, so zero Hom spaces come up;
    # a target containing the source has a nonzero one.
    algebra = _combination_algebra(name, field)
    m = random_module(algebra, seed=seed_m, budget=budget_m)
    n = random_module(algebra, seed=seed_n, budget=budget_n)
    if target == "same":
        n = m
    elif target == "sum":
        n = direct_sum(algebra, [n, m])
    basis = hom_basis(m, n)
    rng = random.Random(seed_m ^ seed_n)
    coeffs = [0 if all_zero else rng.randint(-3, 3) for _ in basis]
    combo = hom_combination(m, n, homology._hom_kernel(m, n), coeffs)
    expected = ModuleMap.zero(m, n)
    for c, h in zip(coeffs, basis):
        expected = map_add(expected, map_scale(h, algebra.field(c)))
    assert combo.mats == expected.mats
    assert combo.is_morphism()
    if all_zero:
        assert all(f.is_zero() for f in combo.mats.values())


def test_hom_combination_over_a_zero_hom_space(alg1):
    u, v = alg1.simple("u"), alg1.simple("v")
    hom = homology._hom_kernel(u, v)
    assert hom[0].cols == 0
    zero = hom_combination(u, v, hom, [])
    assert zero.mats == ModuleMap.zero(u, v).mats
    assert zero.is_morphism()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["lambda(1, 2)", "lambda1prime(1)"]), st.sampled_from([None, 2, 101]),
       st.integers(0, 10 ** 6), st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6)),
                                         max_size=3))
def test_assembled_sum_of_hom_combinations_is_a_morphism(name, field, seed, sources):
    # Random maps into one target, out of projectives at its support (Hom
    # from P(v) is the target at v, so nonzero) and random modules (which
    # often have no maps into it), assemble to a morphism out of the sum
    # of their sources that is each map on its summand.
    algebra = _combination_algebra(name, field)
    target = random_module(algebra, seed=seed, budget=20)
    tops = target.support() or list(algebra.vertices)
    rng = random.Random(seed)
    maps = []
    for projective, k in sources:
        source = (algebra.projective(tops[k % len(tops)]) if projective
                  else random_module(algebra, seed=k, budget=12))
        maps.append(random_hom_combination(source, target, rng, (-2, -1, 0, 1, 2)))
    f = assemble_sum_map(maps, target)
    assert f.is_morphism()
    assert f.source.dims == {v: sum(g.source.dims[v] for g in maps) for v in algebra.vertices}
    injections, _ = direct_sum_maps(f.source, [g.source for g in maps])
    for g, inj in zip(maps, injections):
        assert f.compose(inj).mats == g.mats


def test_random_hom_combination_draws_one_coefficient_per_kernel_column(alg1):
    # The draws are rng.choice(pool) in kernel-column order: the same
    # stream, handed to hom_combination by hand, gives the same map and
    # leaves the generator in the same state.
    m = alg1.projective("bm1")
    n = random_module(alg1, seed=0, budget=20)
    pool = (-1, 0, 0, 1)
    drawn, by_hand = random.Random(9), random.Random(9)
    f = random_hom_combination(m, n, drawn, pool)
    hom = homology._hom_kernel(m, n)
    assert hom[0].cols == 5
    g = hom_combination(m, n, hom, [by_hand.choice(pool) for _ in range(hom[0].cols)])
    assert f.mats == g.mats
    assert drawn.random() == by_hand.random()


def _pairing_split_pair(brick, module):
    """The composition-pairing search ``split_off`` replaced: the first
    pair (s, p) of Hom bases, sections outer, with p o s = c id_B for
    some c != 0, which is read at a vertex of B and scaled away."""
    probe = next(v for v, d in brick.dims.items() if d)
    inv = module.algebra.field.inv
    retractions = hom_basis(module, brick)
    for s in hom_basis(brick, module):
        for p in retractions:
            val = (p.mats[probe] @ s.mats[probe]).data[0][0]
            if val:
                return s, map_scale(p, inv(val))
    return None


def _typed_mats(f):
    return {v: [[(type(x), x) for x in row] for row in m.data] for v, m in f.mats.items()}


@functools.lru_cache(maxsize=None)
def _split_pair_bricks(name, field):
    """The bricks of one algebra: its simples, or for "U" every interval
    module that its relations allow over lambda1prime(1) restricted to the
    path U = d0 - a1 - a0 - c1 - c2 - b1."""
    if name != "U":
        algebra = _combination_algebra(name, field)
        return algebra, [algebra.simple(v) for v in algebra.vertices]
    order = ["d0", "a1", "a0", "c1", "c2", "b1"]
    pres = build_lambda1prime(1)
    algebra = Algebra(pres.delete_vertices(set(pres.quiver.vertices) - set(order), "U"),
                      field=QQ if field is None else PrimeField(field))
    bricks = []
    for lo in range(len(order)):
        for hi in range(lo, len(order)):
            try:
                bricks.append(interval_module(algebra, order, lo, hi))
            except RepresentationError:
                pass
    return algebra, bricks


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["lambda1prime(1)", "lambda(1, 2)", "U"]),
       st.sampled_from([None, 2, 101]), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.sampled_from([0, 6, 12, 20]), st.booleans())
def test_split_pair_agrees_with_the_composition_pairing(name, field, pick, seed, budget,
                                                        planted):
    # Over a brick, the first basis section with a retraction is the
    # pairing search's first section, and the solved retraction is its
    # rescaled basis retraction: the same maps, entry for entry and type
    # for type, or None on both sides.
    algebra, bricks = _split_pair_bricks(name, field)
    brick = bricks[pick % len(bricks)]
    module = random_module(algebra, seed=seed, budget=budget)
    if planted:
        module = direct_sum(algebra, [module, brick])
    split, expected = split_off(brick, module), _pairing_split_pair(brick, module)
    assert (split is None) == (expected is None)
    if planted:
        assert split is not None
    if split is not None:
        pair = (split.section, split.retraction)
        assert [_typed_mats(f) for f in pair] == [_typed_mats(f) for f in expected]
        assert pair[1].compose(pair[0]).mats == ModuleMap.identity(brick).mats
        assert assemble_sum_map([split.section, split.inclusion], module).is_iso()


def test_split_pair_solves_each_hom_space_once(monkeypatch):
    # The planted simple's first basis section has no retraction, so the
    # search tries more than one section against the one Hom(M, B).
    algebra, bricks = _split_pair_bricks("lambda1prime(1)", None)
    brick = bricks[4]
    module = direct_sum(algebra, [random_module(algebra, seed=4, budget=12), brick])
    sections = hom_basis(brick, module)
    assert len(sections) == 3
    assert homology._retraction(sections[0], homology._hom_kernel(module, brick)) is None
    calls = []
    real = homology._hom_kernel

    def counting(source, target):
        calls.append((source, target))
        return real(source, target)

    monkeypatch.setattr(homology, "_hom_kernel", counting)
    s, p, _, _ = split_off(brick, module)
    # kernel_of, which builds the complement, solves no Hom system.
    assert calls == [(brick, module), (module, brick)]
    assert s.mats != sections[0].mats
    assert p.compose(s).mats == ModuleMap.identity(brick).mats


@functools.lru_cache(maxsize=None)
def _claim_parts(field):
    """The indecomposables the claims build their modules from, over
    ``lambda(2, 3)``: the simples, P(a0), P(b0), P(c0), P(u) and the strings
    of Z_1..Z_3 and Z_t(1..3, 2); then P(c2) and the ten c2-strings of
    ``xset`` over ``lambda1prime(2)``, the parts of Lemma 2's peel."""
    alg = _combination_algebra("lambda(2, 3)", field)
    parts = [alg.simple(v) for v in alg.vertices]
    parts += [alg.projective(v) for v in ("a0", "b0", "c0", "u")]
    parts += [string_module(alg, zt_walk(m, t)) for t in (1, 2) for m in (1, 2, 3)]
    alg_p = _combination_algebra("lambda1prime(2)", field)
    return parts + [alg_p.projective("c2"), *xset(alg_p)]


def test_claim_parts_have_local_endomorphism_rings():
    # split_off's precondition, checked by enumerating End(N) over GF(2):
    # the non-invertible endomorphisms are closed under addition and
    # number 2^(d-1), so they are a hyperplane, rad End(N), and End(N)/rad
    # is GF(2).  Some parts are not bricks.
    end_dims = []
    for part in _claim_parts(2):
        hom = homology._hom_kernel(part, part)
        d = hom[0].cols
        end_dims.append(d)
        singular = {coeffs for coeffs in itertools.product((0, 1), repeat=d)
                    if not hom_combination(part, part, hom, coeffs).is_iso()}
        assert len(singular) == 2 ** (d - 1)
        assert all(tuple((x + y) % 2 for x, y in zip(a, b)) in singular
                   for a in singular for b in singular)
    assert max(end_dims) == 3 and end_dims.count(2) == 4


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([None, 2, 101]), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.sampled_from([0, 8, 16, 24]), st.booleans())
def test_split_off_finds_a_planted_part_that_is_not_a_brick(field, pick, seed, budget,
                                                            first):
    # Completeness beyond bricks: a part with a local End of dimension at
    # least 2 splits off a sum it was planted in, on either side.
    parts = [n for n in _claim_parts(field) if homology.hom_dim(n, n) >= 2]
    part = parts[pick % len(parts)]
    rest = random_module(part.algebra, seed=seed, budget=budget)
    module = direct_sum(part.algebra, [part, rest] if first else [rest, part])
    split = split_off(part, module)
    assert split is not None
    assert split.retraction.compose(split.section).mats == ModuleMap.identity(part).mats
    assert assemble_sum_map([split.section, split.inclusion], module).is_iso()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(_JSON)
def test_record_digest_is_hashlib_sha256_of_compact_sorted_json(rec):
    import hashlib
    import json

    blob = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    assert record_digest(rec) == hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_map_from_projectives_leaves_no_reference_cycle():
    # Once the first build has made what is built once per process, a
    # cover leaves nothing for the cyclic collector to free.
    import gc

    def build():
        return projective_cover(build_Z(Algebra(build_lambda(1, 3)), 3))

    build()
    gc.collect()
    gc.disable()
    try:
        build()
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["lambda(1, 2)", "lambda(2, 2)", "lambda1prime(2)"]),
       st.sampled_from([None, 2, 101]), st.integers(0, 10 ** 6), st.integers(0, 24),
       st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6)), max_size=3))
def test_cokernel_of_images_side_by_side_is_the_cokernel_of_their_sum(
        name, field, seed, budget, sources):
    # _cokernel takes the maps' images side by side, with no sum of their
    # sources and the target's arrows applied to the chosen columns by a
    # callback; cokernel_of of the assembled map out of that sum is the
    # oracle, module and projection alike.  One map is the single-map case
    # of cokernel_of itself.
    algebra = _combination_algebra(name, field)
    target = random_module(algebra, seed=seed, budget=budget)
    rng = random.Random(seed)
    maps = [random_hom_combination(
                algebra.projective(algebra.vertices[pick % len(algebra.vertices)]) if proj
                else random_module(algebra, seed=pick, budget=12),
                target, rng, (-2, -1, 0, 1, 2))
            for proj, pick in sources]
    side_by_side = {v: Matrix.hcat(algebra.field, d, [f.mats[v] for f in maps])
                    for v, d in target.dims.items() if d}
    cases = [(assemble_sum_map(maps, target), side_by_side)]
    cases += [(f, f.mats) for f in maps[:1]]
    for f, f_mats in cases:
        coker, proj = cokernel_of(f)
        other, other_proj = homology._cokernel(
            algebra, target.dims, f_mats,
            lambda a, cols: target.mats[a.name].submatrix_cols(cols))
        assert (other.dims, other.mats) == (coker.dims, coker.mats)
        assert ModuleMap(target, other, other_proj).mats == proj.mats


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["lambda(1, 2)", "lambda(2, 2)", "lambda1prime(2)"]),
       st.sampled_from([None, 2, 101]),
       st.lists(st.integers(0, 10 ** 6), max_size=4))
def test_projective_hom_kernel_is_the_hom_kernel_read_off_by_yoneda(name, field, picks):
    # Hom(P(u), F) for a free module F, read off the images of e_u, is
    # the kernel the intertwining equations give: same basis, in the same
    # column order, and the same unknown layout.
    algebra = _combination_algebra(name, field)
    tops = [algebra.vertices[pick % len(algebra.vertices)] for pick in picks]
    free_module = direct_sum(algebra, [algebra.projective(v) for v in tops])
    free = algebra.free_basis(tops)
    for u in algebra.vertices:
        kernel, offsets = homology._projective_hom_kernel(algebra, u, free)
        assert (kernel, offsets) == homology._hom_kernel(algebra.projective(u), free_module)
        assert kernel.cols == len(free[u])
