import pytest
from hypothesis import given, settings, strategies as st

from biserial.families import build_lambda, build_lambda1prime, lambda_vertices
from biserial.fields import QQ, PrimeField
from biserial.homology import hom_basis, projdim
from biserial.matrices import Matrix
from biserial.reps import (Algebra, InvalidString, ModuleMap,
                           Representation, RepresentationError, StringWord,
                           assemble_sum_map, direct_sum,
                           random_module, string_module)
from biserial.witnesses import build_Z, zt_walk
from oracles import direct_sum_maps, from_rows, inflate, restrict, top_dims


def test_empty_word_gives_simple(alg1):
    m = string_module(alg1, StringWord("c1", []))
    assert m.dim_vector() == (("c1", 1),)


def test_z3_walk_dimensions(alg3):
    m = string_module(alg3, zt_walk(3, 1))
    assert m.total_dim() == 5
    assert dict(m.dim_vector()) == {"a3": 1, "b2": 1, "b3": 1, "c2": 1, "a2": 1}


def test_mixed_letters_direct_run_invalid(alg1):
    # alpha then beta in one direct run composes to zero: not a string.
    with pytest.raises(InvalidString):
        string_module(alg1, StringWord("c1", [("al_c1_a0", 1), ("be_a0_u", 1)]))


def test_non_composable_word(alg1):
    with pytest.raises(InvalidString) as exc:
        StringWord("c1", [("be_a0_u", 1)]).walk_vertices(alg1.pres)
    assert "non-composable" in str(exc.value)


def test_immediate_backtrack_rejected(alg1):
    with pytest.raises(InvalidString) as exc:
        StringWord("c1", [("al_c1_a0", 1), ("al_c1_a0", -1)]).walk_vertices(alg1.pres)
    assert "backtrack" in str(exc.value)


def test_amalgam_half_walk_rejected(alg2):
    # A pure alpha run through the c2 diamond would have to satisfy the
    # equality against the beta side; the walk cannot.
    with pytest.raises(InvalidString):
        string_module(alg2, StringWord(
            "c2", [("al_c2_c1", 1), ("al_c1_a0", 1), ("al_a0_c0", 1)]))


def test_string_dimension_is_length_plus_one(alg2):
    word = zt_walk(2, 1)
    m = string_module(alg2, word)
    assert m.total_dim() == len(word) + 1


def test_projective_a1_shape(alg5):
    p = alg5.projective("a1")
    assert dict(p.dim_vector()) == {"a1": 1, "d0": 1, "a0": 1, "u": 1}
    assert p.total_dim() == 4


def test_projective_c1_total(alg5):
    assert alg5.projective("c1").total_dim() == 6


def test_projective_u_over_level_zero():
    for r in (1, 2):
        alg = Algebra(build_lambda(r, 0))
        assert dict(alg.projective("u").dim_vector()) == {"u": 2}


def _projective_by_local_positions(algebra, vertex):
    """Oracle: P(vertex) built directly on the path classes from vertex,
    grouped by target, with each arrow's matrix filled from the path-class
    action one class at a time."""
    basis = algebra.basis
    local = {}
    for i in basis.classes_from(vertex):
        local.setdefault(basis.class_target(i), []).append(i)
    position = {i: k for grp in local.values() for k, i in enumerate(grp)}
    dims = {v: len(local.get(v, ())) for v in algebra.vertices}
    mats = {}
    for a in algebra.pres.quiver.arrows.values():
        if not (dims[a.source] and dims[a.target]):
            continue
        m = Matrix.zeros(algebra.field, dims[a.target], dims[a.source])
        for i in local.get(a.source, ()):
            for j, coeff in algebra.action[a.name, i]:
                m.data[position[j]][position[i]] = coeff
        mats[a.name] = m
    return Representation(algebra, dims, mats)


@pytest.mark.parametrize("pres", [lambda: build_lambda(1, 1), lambda: build_lambda(2, 3),
                                  lambda: build_lambda1prime(2)],
                         ids=["lambda(1, 1)", "lambda(2, 3)", "lambda1prime(2)"])
@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)],
                         ids=["q", "fp:2", "fp:101"])
def test_projective_is_the_free_module_on_its_vertex(pres, field):
    # The free module on [v] equals the projective built class by class,
    # entry for entry and with the same entry types.
    algebra = Algebra(pres(), field=field)
    for v in algebra.vertices:
        p, oracle = algebra.projective(v), _projective_by_local_positions(algebra, v)
        assert p.dims == oracle.dims
        for name, m in p.mats.items():
            assert [[(type(x), x) for x in row] for row in m.data] == \
                [[(type(x), x) for x in row] for row in oracle.mats[name].data]


_FREE_ALGEBRAS = {}


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)],
                         ids=["q", "fp:2", "fp:101"])
@settings(max_examples=25)
@given(data=st.data())
def test_free_module_is_the_direct_sum_of_its_projectives(field, data):
    # One constructor builds every free module; it equals the block sum of
    # the P(v), entry for entry and with the same entry types, because
    # free_basis is laid out in direct_sum block order.
    spec = data.draw(st.sampled_from(["lambda(2, 3)", "lambda1prime(2)"]))
    if (spec, field) not in _FREE_ALGEBRAS:
        pres = build_lambda(2, 3) if spec == "lambda(2, 3)" else build_lambda1prime(2)
        _FREE_ALGEBRAS[spec, field] = Algebra(pres, field=field)
    algebra = _FREE_ALGEBRAS[spec, field]
    tops = data.draw(st.lists(st.sampled_from(algebra.vertices), max_size=4))
    free = algebra._free_module(tops)
    total = direct_sum(algebra, [algebra.projective(v) for v in tops])
    assert free.dims == total.dims
    assert {name: [[(type(x), x) for x in row] for row in m.data]
            for name, m in free.mats.items()} == \
        {name: [[(type(x), x) for x in row] for row in m.data]
         for name, m in total.mats.items()}


def test_direct_sum_empty(alg1):
    total = direct_sum(alg1, [])
    injs, projs = direct_sum_maps(total, [])
    assert total.is_zero() and not injs and not projs


def test_direct_sum_with_zero_is_isomorphic(alg1):
    from biserial.homology import certified_iso

    m = string_module(alg1, zt_walk(1, 1))
    total = direct_sum(alg1, [m, alg1.zero_module()])
    assert certified_iso(total, m, seed=0) is not None


def test_direct_sum_dims_add(alg1):
    a = alg1.projective("c1")
    b = alg1.simple("u")
    total = direct_sum(alg1, [a, b])
    for v in alg1.vertices:
        assert total.dims[v] == a.dims[v] + b.dims[v]


def test_direct_sum_maps_intertwine(alg1):
    a, b = alg1.projective("a1"), alg1.projective("b1")
    total = direct_sum(alg1, [a, b])
    injs, projs = direct_sum_maps(total, [a, b])
    assert all(f.is_morphism() for f in injs + projs)


def test_assemble_sum_map_builds_the_direct_sum_of_the_sources(alg1):
    # Assembling the injections of a sum gives back its identity, out of a
    # source that equals the direct sum of the summands arrow for arrow.
    parts = [alg1.projective("c1"), alg1.simple("u"), string_module(alg1, zt_walk(1, 1))]
    target = direct_sum(alg1, parts)
    injections, _ = direct_sum_maps(target, parts)
    f = assemble_sum_map(injections, target)
    expected = direct_sum(alg1, parts)
    assert f.source.dims == expected.dims
    assert f.source.mats == expected.mats
    assert f.mats == ModuleMap.identity(target).mats


def test_assemble_sum_map_of_no_maps_has_the_zero_source(alg1):
    target = alg1.projective("c1")
    f = assemble_sum_map([], target)
    assert f.source.is_zero() and f.target is target
    assert f.is_morphism() and f.is_zero()


def test_inflate_simple(alg0, alg1):
    m = inflate(alg0.simple("d0"), alg1)
    assert m.dim_vector() == (("d0", 1),)


def test_inflate_preserves_pd(alg0, alg1):
    z0 = build_Z(alg0, 0)
    r0 = projdim(z0, cutoff=8)
    r1 = projdim(inflate(z0, alg1), cutoff=8)
    assert r0.verdict == r1.verdict == "finite"
    assert r0.value == r1.value == 1


def test_inflate_then_restrict_identity(alg0, alg1):
    m = build_Z(alg0, 0)
    back = restrict(inflate(m, alg1), alg0)
    assert back.dims == m.dims
    assert back.mats == m.mats


def test_inflate_requires_factor(alg0, alg2):
    other = Algebra(build_lambda(2, 0))
    with pytest.raises(RepresentationError):
        inflate(other.simple("u"), alg2)


def test_inflate_preserves_hom_dimensions(alg0, alg1):
    a = alg0.projective("a0")
    b = build_Z(alg0, 0)
    d_small = len(hom_basis(a, b))
    d_big = len(hom_basis(inflate(a, alg1), inflate(b, alg1)))
    assert d_small == d_big


def test_supported_on(alg2, algp):
    lam1 = set(lambda_vertices(1, 1))
    assert not alg2.simple("c2").supported_on(lam1)
    assert alg2.zero_module().supported_on(set())
    # The c2 projective over the level-2 algebra avoids a2 and b2.
    assert alg2.projective("c2").supported_on(set(algp.pres.quiver.vertices))


def test_check_morphism_identity_and_zero(alg1):
    m = alg1.projective("c1")
    assert ModuleMap.identity(m).is_morphism()
    assert ModuleMap.zero(m, alg1.simple("u")).is_morphism()


def test_check_morphism_reports_violated_arrow(alg1):
    z = build_Z(alg1, 1)
    f = ModuleMap.identity(z)
    # Perturb one block: replace the u-component by zero.
    f.mats["u"] = Matrix.zeros(alg1.field, z.dims["u"], z.dims["u"])
    bad = ModuleMap(z, z, f.mats)
    violations = bad.violations()
    assert violations and "be_a0_u" in violations


def test_module_map_shape_mismatch(alg1):
    with pytest.raises(RepresentationError):
        ModuleMap(alg1.simple("u"), alg1.simple("u"),
                  {"u": Matrix.zeros(alg1.field, 2, 2)})


def test_representation_relation_checking(alg0):
    dims = {v: 0 for v in alg0.vertices}
    dims["u"] = 1
    mats = {"al_u_u": from_rows(alg0.field, [[1]])}
    with pytest.raises(RepresentationError):
        # The loop square cannot act as the identity.
        from biserial.reps import Representation
        Representation(alg0, dims, mats)


def test_random_module_budget_zero(alg1):
    assert random_module(alg1, seed=5, budget=0).is_zero()


def test_random_module_deterministic(algp):
    a = random_module(algp, seed=9, budget=30)
    b = random_module(algp, seed=9, budget=30)
    assert a.dims == b.dims and a.mats == b.mats


def test_random_module_respects_budget_and_relations(algp):
    for seed in range(6):
        m = random_module(algp, seed=seed, budget=20)
        assert m.total_dim() <= 20
        assert not m.violated_relations()


def test_projective_has_simple_top(alg2):
    for v in ("a1", "c2", "u"):
        tops = top_dims(alg2.projective(v))
        assert tops == {w: (1 if w == v else 0) for w in alg2.vertices}


def test_z_walk_end_dims():
    alg = Algebra(build_lambda(1, 5))
    z5 = build_Z(alg, 5)
    assert dict(z5.dim_vector()) == {"a5": 1, "b4": 1, "b5": 1, "a4": 1}


def test_string_end_algebra_dimensions(alg3):
    # Walks without repeated vertices are bricks; the level-1 walk passes
    # a0 twice and picks up one nilpotent endomorphism.
    z3 = string_module(alg3, zt_walk(3, 1))
    assert len(hom_basis(z3, z3)) == 1
    alg1 = Algebra(build_lambda(1, 1))
    z1s = string_module(alg1, zt_walk(1, 1))
    assert len(hom_basis(z1s, z1s)) == 2


def test_direct_sum_maps_split(alg1):
    parts = [alg1.projective("c1"), alg1.simple("u"), alg1.zero_module()]
    total = direct_sum(alg1, parts)
    injs, projs = direct_sum_maps(total, parts)
    for k, part in enumerate(parts):
        for j in range(len(parts)):
            composite = projs[j].compose(injs[k])
            want = (ModuleMap.identity(part) if j == k
                    else ModuleMap.zero(part, parts[j]))
            assert composite.mats == want.mats


def _thin(alg, arrows):
    """Dims one at each end of the given arrows, each acting by [[1]]."""
    quiver = alg.pres.quiver
    dims = {v: 0 for v in alg.vertices}
    for name in arrows:
        dims[quiver.arrows[name].source] = dims[quiver.arrows[name].target] = 1
    mats = {name: from_rows(alg.field, [[1]]) for name in arrows}
    return dims, mats


def test_violated_zero_relation_found_among_zero_dimensional_arrows(alg2):
    # alpha a0->c0 then beta c0->w must vanish; every other arrow of the
    # algebra has a zero-dimensional end here.
    dims, mats = _thin(alg2, ["al_a0_c0", "be_c0_w"])
    with pytest.raises(RepresentationError, match="zero"):
        Representation(alg2, dims, mats)


def test_violated_eq_relation_through_zero_dimensional_vertex(alg2):
    # At c2 alpha^3 = beta^2.  The alpha side runs through c1 and a0, which
    # are zero here, so it is zero while the beta side is not: violated.
    dims, mats = _thin(alg2, ["be_c2_b1", "be_b1_c0"])
    with pytest.raises(RepresentationError, match="eq"):
        Representation(alg2, dims, mats)
    # With c0 zero too, both sides end in a zero space: the relation holds.
    dims, mats = _thin(alg2, ["be_c2_b1"])
    assert not Representation(alg2, dims, mats).violated_relations()


def test_is_iso_rejects_a_block_with_one_empty_side(alg1):
    # S(u) and S(u) (+) S(v) differ only at v, where one side is zero: the
    # maps between them have a 1 x 0 or a 0 x 1 block there.
    u = alg1.simple("u")
    both = direct_sum(alg1, [u, alg1.simple("v")])
    one = {"u": Matrix.identity(alg1.field, 1)}
    into, out = ModuleMap(u, both, one), ModuleMap(both, u, one)
    assert (into.mats["v"].rows, into.mats["v"].cols) == (1, 0)
    assert (out.mats["v"].rows, out.mats["v"].cols) == (0, 1)
    assert into.is_morphism() and out.is_morphism()
    assert not into.is_iso()
    assert not out.is_iso()
    assert ModuleMap.identity(both).is_iso()


# sha256 prefixes of the raw text of random modules over lambda(2, 2).
# Each Hom basis element draws exactly one coefficient, in kernel-column
# order, so the random stream and every module it gives stay fixed.
RANDOM_MODULE_TEXT = {
    (0, 12): ("895f1799e206f861", "895f1799e206f861"),
    (1, 20): ("52b023b18994120c", "52b023b18994120c"),
    (4, 30): ("fd4a61c3b9193254", "fd4a61c3b9193254"),
    (7, 40): ("03628f0373e58517", "03628f0373e58517"),
    (12, 24): ("fb85b21d1795f0f9", "305bc8f1284614ec"),
    (33, 60): ("126e939ed3f4fcc7", "1f9a0cebd63295a3"),
}


@pytest.mark.parametrize("seed, budget", list(RANDOM_MODULE_TEXT))
def test_random_module_bytes_are_pinned(seed, budget):
    import hashlib

    from biserial.modfiles import emit_module_raw

    for field, digest in zip((QQ, PrimeField(101)), RANDOM_MODULE_TEXT[seed, budget]):
        module = random_module(Algebra(build_lambda(2, 2), field=field),
                               seed=seed, budget=budget)
        text = emit_module_raw("M", module)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _random_module_by_assembled_cokernel(algebra, seed, budget):
    """The oracle: ``random_module``'s draws, with the module taken as the
    ``cokernel_of`` the relation maps assembled on the ``direct_sum`` of
    their projectives."""
    import random

    from biserial.homology import cokernel_of, random_hom_combination

    rng = random.Random(f"random-module:{seed}:{budget}")
    verts = list(algebra.vertices)
    gens, total = [], 0
    while True:
        candidates = [v for v in verts
                      if total + algebra.basis.dim_projective(v) <= budget]
        if not candidates or (gens and rng.random() < 0.25):
            break
        v = rng.choice(candidates)
        gens.append(algebra.projective(v))
        total += algebra.basis.dim_projective(v)
    if not gens:
        return algebra.zero_module()
    target = direct_sum(algebra, gens)
    rels = [algebra.projective(rng.choice(verts))
            for _ in range(rng.randrange(0, len(gens) + 2))]
    if not rels:
        return target
    maps = [random_hom_combination(rel, target, rng, (-2, -1, -1, 0, 0, 0, 1, 1, 2))
            for rel in rels]
    return cokernel_of(assemble_sum_map(maps, target))[0]


def _content(module):
    return [sorted(module.dims.items()),
            [[name, [[str(x) for x in row] for row in m.data]]
             for name, m in module.mats.items()]]


def test_random_module_content_is_pinned_and_matches_the_assembled_cokernel():
    import hashlib
    import json

    # Recorded with the oracle's construction, the cokernel of a map out of
    # the direct sum of the relation projectives.
    digest = hashlib.sha256()
    for pres in (build_lambda1prime(2), build_lambda(2, 3)):
        for field in (QQ, PrimeField(101)):
            algebra = Algebra(pres, field=field)
            for seed in range(40):
                budget = 3 + (7 * seed) % 38
                module = random_module(algebra, seed, budget)
                content = _content(module)
                assert content == _content(
                    _random_module_by_assembled_cokernel(algebra, seed, budget))
                digest.update(json.dumps(content).encode())
    assert digest.hexdigest()[:16] == "c44782ff37156a2b"


def test_constructors_check_shapes_and_share_empty_blocks(alg1):
    u, c1 = alg1.simple("u"), alg1.projective("c1")
    dims = dict(c1.dims)
    name = next(a.name for a in alg1.pres.quiver.arrows.values()
                if c1.dims[a.source] and c1.dims[a.target])
    arrow = alg1.pres.quiver.arrows[name]
    rows, cols = c1.dims[arrow.target], c1.dims[arrow.source]
    with pytest.raises(RepresentationError) as exc:
        Representation(alg1, dims, {**c1.mats, name: Matrix.zeros(alg1.field, rows + 1, cols)})
    assert str(exc.value) == (f"arrow {name}: matrix is {rows + 1}x{cols}, "
                              f"expected {rows}x{cols}")
    with pytest.raises(RepresentationError) as exc:
        ModuleMap(u, u, {"u": Matrix.zeros(alg1.field, 2, 1)})
    assert str(exc.value) == "vertex u: map is 2x1, expected 1x1"
    # A missing block is a zero block of its shape; an empty one is the
    # algebra's shared zero_matrix.
    thin = Representation(alg1, dims, {}, check=False)
    assert thin.mats[name] == Matrix.zeros(alg1.field, rows, cols)
    zero = ModuleMap(c1, c1, {})
    for a in alg1.pres.quiver.arrows.values():
        r, c = thin.dims[a.target], thin.dims[a.source]
        if not (r and c):
            assert thin.mats[a.name] is alg1.zero_matrix(r, c)
    for v in alg1.vertices:
        d = c1.dims[v]
        assert zero.mats[v] == Matrix.zeros(alg1.field, d, d)
        if not d:
            assert zero.mats[v] is alg1.zero_matrix(0, 0)
