import random

import pytest

from biserial.decomp import (CertificateFailure, NotPathQuiver, _c2_alpha_path,
                             interval_decompose, lemma2_split, strip_pc2,
                             u_algebra, restrict_to_vertices, xset)
from biserial.families import build_lambda1prime, lambda_vertices
from biserial.homology import hom_basis, kernel_of
from biserial.matrices import Matrix
from biserial.presentation import parse_presentation
from biserial.reps import (Algebra, Representation, StringWord, assemble_sum_map, direct_sum,
                           random_module, string_module)
from oracles import from_rows, inflate, map_inverse, map_scale, restrict


def peel_count_oracle(algebra, module, brick):
    """Independent multiplicity oracle: split off copies of a brick via the
    composition pairing until none is left."""
    count = 0
    current = module
    while True:
        sections = hom_basis(brick, current)
        retractions = hom_basis(current, brick)
        pair = None
        for s in sections:
            for p in retractions:
                comp = p.compose(s)
                probe = next(v for v, d in brick.dims.items() if d)
                val = comp.mats[probe].data[0][0]
                if val:
                    pair = (s, map_scale(p, algebra.field.one / val))
                    break
            if pair:
                break
        if pair is None:
            return count
        count += 1
        current, _ = kernel_of(pair[1])


def change_basis(module, rng):
    """An isomorphic copy of ``module``, each vertex space in a random basis."""
    field = module.algebra.field
    change = {}
    for v, d in module.dims.items():
        while d and v not in change:
            p = from_rows(field, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
            if (inv := p.inverse()) is not None:
                change[v] = p, inv
    mats = {a.name: change[a.target][0] @ module.mats[a.name] @ change[a.source][1]
            for a in module.algebra.pres.quiver.arrows.values()
            if module.dims[a.source] and module.dims[a.target]}
    return Representation(module.algebra, module.dims, mats)


def hom_count_multiplicity_oracle(module, order):
    """Second oracle for interval multiplicities: solve the triangular
    system  hom(I, V) = sum_J m_J hom(I, J)  over all intervals."""
    algebra = module.algebra
    from biserial.decomp import interval_module

    n = len(order)
    intervals = [(lo, hi) for lo in range(n) for hi in range(lo, n)]
    reps = {iv: interval_module(algebra, order, *iv) for iv in intervals}
    h_to_v = {iv: len(hom_basis(reps[iv], module)) for iv in intervals}
    rows = []
    rhs = []
    for i in intervals:
        rows.append([len(hom_basis(reps[i], reps[j])) for j in intervals])
        rhs.append([h_to_v[i]])
    from biserial.fields import QQ

    system = from_rows(QQ, rows)
    sol = system.solve(from_rows(QQ, rhs))
    assert sol is not None
    out = {}
    for iv, row in zip(intervals, sol.data):
        val = row[0]
        assert val.denominator == 1 and val >= 0
        if val:
            out[iv] = int(val)
    return out


# -- the ten c2 strings --------------------------------------------------------


def test_xset_shapes(algp):
    members = xset(algp)
    assert [m.total_dim() for m in members] == [6, 5, 4, 3, 2, 5, 4, 3, 2, 1]
    assert all(m.dims["c2"] == 1 for m in members)
    # entry 10 is the simple at c2; entry 5 is the two-vertex string c2, b1
    assert members[9].dim_vector() == (("c2", 1),)
    assert dict(members[4].dim_vector()) == {"c2": 1, "b1": 1}


def test_xset_not_level_one(algp):
    level1 = set(lambda_vertices(1, 1))
    for m in xset(algp):
        assert not m.supported_on(level1)


# -- stripping projective c2 copies ---------------------------------------------


def test_strip_projective_itself(algp):
    p_c2 = algp.projective("c2")
    res = strip_pc2(p_c2)
    assert res.multiplicity == 1
    assert res.complement.is_zero()
    assert assemble_sum_map([res.projective_embedding, res.complement_inclusion],
                            p_c2).is_iso()


def test_strip_simple_c2(algp):
    res = strip_pc2(algp.simple("c2"))
    assert res.multiplicity == 0
    assert res.complement.dims == algp.simple("c2").dims


def test_strip_without_pc2_certifies_by_the_identity(algp, monkeypatch):
    # With no P(c2) summand the split is M itself: the complement is the
    # module, and no identity map, zero module or zero embedding is built.
    from biserial import reps

    built = []
    monkeypatch.setattr(reps, "direct_sum", lambda *args: built.append(args))
    monkeypatch.setattr(reps.ModuleMap, "identity", classmethod(lambda cls, m: built.append(m)))
    monkeypatch.setattr(reps.ModuleMap, "zero", classmethod(lambda cls, *args: built.append(args)))
    monkeypatch.setattr(reps.Algebra, "zero_module", lambda self: built.append(self))
    s_c2 = algp.simple("c2")
    res = strip_pc2(s_c2)
    assert built == []
    assert res == (0, s_c2, None, None)


def test_strip_multiplicity_matches_peel_oracle(algp):
    module = random_module(algp, seed=7, budget=35)
    res = strip_pc2(module)
    assert res.multiplicity == peel_count_oracle(algp, module,
                                                 algp.projective("c2"))


def test_strip_planted_copies(algp):
    planted = direct_sum(
        algp, [algp.projective("c2"), algp.projective("c2"),
               xset(algp)[2], algp.projective("a1")])
    res = strip_pc2(planted)
    assert res.multiplicity == 2
    assert assemble_sum_map([res.projective_embedding, res.complement_inclusion],
                            planted).is_iso()


def test_strip_works_over_level_two(alg2):
    m = direct_sum(alg2, [alg2.projective("c2"), alg2.projective("a2")])
    res = strip_pc2(m)
    assert res.multiplicity == 1
    # P(a2) reaches c2 but its long alpha path vanishes there.
    assert res.complement.dims["c2"] == 1


def test_strip_leaves_no_long_alpha_path_on_the_complement():
    # strip_pc2 does not check this itself: lemma2_split's certified
    # isomorphism X (+) P(c2)^a (+) M' -> M implies it, since the path's
    # rank adds over the sum and is a on P(c2)^a.
    alg = Algebra(build_lambda1prime(2))
    alpha_path = _c2_alpha_path(alg.pres)
    counts = []
    for seed in range(30):
        module = random_module(alg, seed=seed, budget=20)
        res = strip_pc2(module)
        assert res.complement.path_matrix(alpha_path).is_zero()
        assert res.multiplicity == module.path_matrix(alpha_path).rank()
        counts.append(res.multiplicity)
    assert max(counts) >= 2


# -- interval decomposition -----------------------------------------------------


def _line_algebra(arrows_spec):
    """Path quiver presentation from specs like ['x1->x2', 'x3->x2']."""
    verts = set()
    lines = ["algebra line"]
    arrows = []
    for spec in arrows_spec:
        src, tgt = spec.split("->")
        verts.update((src, tgt))
        arrows.append((f"e_{src}_{tgt}", src, tgt))
    for v in sorted(verts):
        lines.append(f"vertex {v}")
    for name, src, tgt in arrows:
        lines.append(f"arrow {name} : alpha {src} -> {tgt}")
    return Algebra(parse_presentation("\n".join(lines)))


def test_interval_zero_representation():
    alg = _line_algebra(["x1->x2", "x2->x3"])
    zero = alg.zero_module()
    dec = interval_decompose(zero, ["x1", "x2", "x3"])
    assert dec.summands == [] and dec.pieces == []
    assert assemble_sum_map([], zero).is_iso()


def test_interval_identity_on_a2():
    alg = _line_algebra(["x1->x2"])
    rep = Representation(alg, {"x1": 1, "x2": 1},
                         {"e_x1_x2": Matrix.identity(alg.field, 1)})
    dec = interval_decompose(rep, order=["x1", "x2"])
    assert len(dec.summands) == 1
    assert dec.summands[0].interval == ("x1", "x2")
    assert dec.summands[0].multiplicity == 1


def test_interval_rejects_non_path():
    alg = _line_algebra(["x1->x2", "x1->x3", "x1->x4"])
    with pytest.raises(NotPathQuiver, match="not the path x1 - x2 - x3 - x4: its arrows"):
        interval_decompose(alg.zero_module(), ["x1", "x2", "x3", "x4"])
    with pytest.raises(NotPathQuiver, match="its vertices are x1, x2, x3, x4$"):
        interval_decompose(alg.zero_module(), ["x1", "x2", "x3"])


def test_interval_restriction_of_projective_c2(algp):
    sub, u_verts = u_algebra(algp)
    restricted = restrict_to_vertices(algp.projective("c2"), sub)
    dec = interval_decompose(restricted, order=u_verts)
    assert [(s.interval, s.multiplicity) for s in dec.summands] == \
        [(("a0", "c1", "c2", "b1"), 1)]
    assert hom_count_multiplicity_oracle(restricted, u_verts) == {(2, 5): 1}


def test_interval_multiplicities_match_hom_oracle(algp):
    sub, u_verts = u_algebra(algp)
    for seed in (13, 14, 15):
        module = random_module(algp, seed=seed, budget=30)
        restricted = restrict_to_vertices(module, sub)
        dec = interval_decompose(restricted, order=u_verts)
        got = {(u_verts.index(s.interval[0]), u_verts.index(s.interval[-1])):
               s.multiplicity for s in dec.summands}
        assert got == hom_count_multiplicity_oracle(restricted, u_verts)


def test_interval_certificate_blocks(algp):
    sub, u_verts = u_algebra(algp)
    module = restrict_to_vertices(random_module(algp, seed=23, budget=28), sub)
    dec = interval_decompose(module, order=u_verts)
    cert = assemble_sum_map([f for _, f in dec.pieces], module)
    assert cert.is_iso()
    assert dec.total_dim() == module.total_dim()
    # Conjugating every arrow by the certificate block-diagonalizes it.
    inv = map_inverse(cert)
    total = cert.source
    for a in sub.pres.quiver.arrows.values():
        lhs = inv.mats[a.target] @ module.mats[a.name] @ cert.mats[a.source]
        assert lhs == total.mats[a.name]


# -- the splitting ---------------------------------------------------------------


def test_split_of_inflated_level_one_module(algp, alg1):
    m = inflate(alg1.projective("c1"), algp)
    split = lemma2_split(m)
    assert split.a == 0
    assert split.x_multiplicities == [0] * 10
    assert split.m_prime.dims == m.dims


def test_split_of_all_ten(algp):
    total = direct_sum(algp, xset(algp))
    split = lemma2_split(total)
    assert split.a == 0
    assert split.x_multiplicities == [1] * 10
    assert split.m_prime.is_zero()


def test_split_mixed(algp):
    members = xset(algp)
    m = direct_sum(algp, [algp.projective("c2"), members[6], members[6],
                                algp.projective("b1"), algp.simple("w")])
    split = lemma2_split(m)
    assert split.a == 1
    assert split.x_multiplicities == [0, 0, 0, 0, 0, 0, 2, 0, 0, 0]
    assert split.m_prime.total_dim() == \
        algp.projective("b1").total_dim() + 1


@pytest.mark.parametrize("alg_name", ["algp", "algp_f101"])
def test_split_recovers_every_planted_part(alg_name, request):
    # The random sweep seldom meets X or P(c2): plant X (+) P(c2)^a (+) M'
    # for each c2-string, a = 0..2 and a level-1 M' on U, off U or both,
    # in a random basis, and read each part back off the one certificate.
    alg = request.getfixturevalue(alg_name)
    rng = random.Random(f"planted-split:{alg_name}")
    on_u = string_module(alg, StringWord("a1", [("al_a1_d0", 1)]))
    level1_parts = [[on_u], [alg.simple("u")], [alg.simple("u"), on_u, alg.projective("w")]]
    for idx, x in enumerate(xset(alg)):
        copies = 1 + idx % 2
        for a in range(3):
            for parts in level1_parts:
                planted = direct_sum(alg, [x, *parts, *[alg.projective("c2")] * a,
                                           *[x] * (copies - 1)])
                split = lemma2_split(change_basis(planted, rng))
                assert split.x_multiplicities == [copies * (k == idx) for k in range(10)]
                assert split.a == a
                assert split.m_prime.dims == direct_sum(alg, parts).dims
                assert split.certificate.is_iso()
                assert split.certificate.target.dims == planted.dims


def test_split_random_sweep(algp):
    level1 = set(lambda_vertices(1, 1))
    for seed in range(25):
        module = random_module(algp, seed=seed * 3 + 1, budget=30)
        split = lemma2_split(module)
        assert split.m_prime.supported_on(level1)
        assert split.m_prime.dims["c2"] == 0
        assert split.certificate.is_iso()


def test_c2_strings_map_onto_the_targets_of_their_inner_arrows(algp):
    # These arrows act surjectively on each c2-string; rank adds over block
    # sums, so they do on every X that lemma2_split assembles, and the split
    # needs no per-arrow check beyond its final certificate.
    targets = {"al_c2_c1": "c1", "al_c1_a0": "a0", "al_a1_d0": "d0", "be_c2_b1": "b1"}
    for member in xset(algp):
        for arrow, vertex in targets.items():
            assert member.mats[arrow].rank() == member.dims[vertex], arrow


def test_split_catches_a_c2_string_that_is_not_a_submodule(algp, monkeypatch):
    # S(c1) (+) S(c2) has string 9's dimension vector but a zero al_c2_c1,
    # so embedding it by string 9's interval embedding breaks a square.
    from biserial import decomp

    members = xset(algp)
    module = direct_sum(algp, [members[8], algp.projective("a0")])
    fake = list(members)
    fake[8] = direct_sum(algp, [algp.simple("c1"), algp.simple("c2")])
    assert fake[8].dims == members[8].dims and fake[8].mats["al_c2_c1"].is_zero()
    monkeypatch.setattr(decomp, "xset", lambda algebra: list(fake))
    with pytest.raises(CertificateFailure, match="^c2-interval part is not a submodule$"):
        lemma2_split(module)


def test_split_record_is_stable(algp):
    module = random_module(algp, seed=77, budget=25)
    a = lemma2_split(module).to_record()
    b = lemma2_split(module).to_record()
    assert a == b
    assert set(a) == {"x_multiplicities", "pc2_copies", "m_prime_dims",
                      "certificate_checksum"}


def test_split_field_independent(algp, algp_f101):
    from biserial.reps import random_module as rm

    for seed in (5, 6):
        split_q = lemma2_split(rm(algp, seed=seed, budget=24))
        split_p = lemma2_split(rm(algp_f101, seed=seed, budget=24))
        assert split_q.x_multiplicities == split_p.x_multiplicities
        assert split_q.a == split_p.a
        assert split_q.m_prime.dims == split_p.m_prime.dims


def test_corollary_syzygies_split_trivially(alg2, algp):
    # Syzygies of finite-pd level-2 modules restrict to the pruned algebra
    # and split with no c2 content at all.
    from biserial.homology import syzygy
    from biserial.witnesses import sample_finite_pd_modules

    level1 = set(lambda_vertices(1, 1))
    samples = sample_finite_pd_modules(alg2, 5, seed=2)
    for module, report in samples:
        om = syzygy(module)
        assert om.supported_on(set(algp.pres.quiver.vertices))
        split = lemma2_split(restrict(om, algp))
        assert sum(split.x_multiplicities) == 0
        assert split.a == 0
        assert split.m_prime.supported_on(level1)


def test_xset_and_u_algebra_are_built_once(algp):
    from biserial.families import build_lambda1prime

    first, second = xset(algp), xset(algp)
    assert first is not second and first == second
    assert all(a is b for a, b in zip(first, second))
    first.pop()
    assert len(xset(algp)) == 10  # callers get their own list
    assert all(not m.violated_relations() for m in xset(algp))
    sub, order = u_algebra(algp)
    assert u_algebra(algp)[0] is sub and sub.field == algp.field
    assert order == ["d0", "a1", "a0", "c1", "c2", "b1"]
    # Another algebra, even over the same presentation, has its own.
    other = Algebra(build_lambda1prime(1))
    assert xset(other)[0] is not first[0]
    assert u_algebra(other)[0] is not sub


def test_split_with_pc2_summands_is_pinned(algp, algp_f101):
    # Two P(c2) summands send strip_pc2 through solve_retraction; the
    # record, certificate checksum included, is the same over both fields.
    pinned = {"x_multiplicities": [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
              "pc2_copies": 2,
              "m_prime_dims": [["a0", 2], ["c0", 3], ["cm1", 3], ["u", 2], ["w", 3]],
              "certificate_checksum": "6ba97d6e9b15abbd"}
    for alg in (algp, algp_f101):
        module = direct_sum(alg, [alg.projective("c2"),
                                  random_module(alg, seed=9, budget=28),
                                  alg.projective("c2"), xset(alg)[3]])
        assert lemma2_split(module).to_record() == pinned
