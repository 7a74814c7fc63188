import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from biserial.decomp import CertificateFailure, lemma2_split, xset
from biserial.families import build_lambda1prime, lambda_vertices
from biserial.fields import field_from_spec
from biserial.homology import hom_basis, kernel_of
from biserial.reps import (Algebra, Representation, StringWord, direct_sum, random_module,
                           string_module)
from oracles import from_rows, inflate, map_scale, restrict


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
                    pair = (s, map_scale(p, algebra.field.inv(val)))
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
# The peel splits P(c2) off first, one copy at a time.


def test_strip_projective_itself(algp):
    split = lemma2_split(algp.projective("c2"))
    assert (split.a, split.x_multiplicities) == (1, [0] * 10)
    assert split.m_prime.is_zero()
    assert split.certificate.is_iso()


def test_strip_simple_c2(algp):
    split = lemma2_split(algp.simple("c2"))
    assert (split.a, split.x_multiplicities) == (0, [0] * 9 + [1])
    assert split.m_prime.is_zero()


def test_strip_multiplicity_matches_peel_oracle(algp):
    module = random_module(algp, seed=7, budget=35)
    assert module.dims["c2"]
    assert lemma2_split(module).a == peel_count_oracle(algp, module, algp.projective("c2"))


def test_strip_planted_copies(algp):
    planted = direct_sum(
        algp, [algp.projective("c2"), algp.projective("c2"),
               xset(algp)[2], algp.projective("a1")])
    split = lemma2_split(planted)
    assert split.a == 2
    assert split.x_multiplicities == [0, 0, 1] + [0] * 7
    assert split.m_prime.dims == algp.projective("a1").dims


def test_strip_leaves_no_long_alpha_path_on_the_complement():
    # The long alpha path out of c2 is nonzero on P(c2) and zero on every
    # c2-string and at level one, and its rank adds over direct sums: the
    # number of P(c2) copies is its rank.
    alg = Algebra(build_lambda1prime(2))
    [alpha_path] = [rel.left for rel in alg.pres.relations
                    if rel.kind == "eq" and alg.pres.path_endpoints(rel.left)[0] == "c2"]
    counts = []
    for seed in range(30):
        module = random_module(alg, seed=seed, budget=20)
        split = lemma2_split(module)
        assert split.a == module.path_matrix(alpha_path).rank()
        assert split.m_prime.path_matrix(alpha_path).is_zero()
        counts.append(split.a)
    assert max(counts) >= 2


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


def _with_c2(alg, module, k, rng):
    """``module`` plus P(c2) (k = 10) or the c2-string ``xset(alg)[k]``, in
    a random basis: a random module seldom carries c2, and one that does
    not takes the identity split, past the peel."""
    planted = alg.projective("c2") if k == 10 else xset(alg)[k]
    with_c2 = change_basis(direct_sum(alg, [module, planted]), rng)
    assert with_c2.dims["c2"] > 0
    return with_c2


def test_split_random_sweep(algp):
    level1 = set(lambda_vertices(1, 1))
    rng = random.Random("split-sweep")
    for seed in range(25):
        module = _with_c2(algp, random_module(algp, seed=seed * 3 + 1, budget=30),
                          seed % 11, rng)
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
    # so it embeds in no module that string 9 does: with it in string 9's
    # place, the c2 of string 9's copy is never peeled, a sound negative.
    from biserial import decomp

    members = xset(algp)
    module = direct_sum(algp, [members[8], algp.projective("a0")])
    fake = list(members)
    fake[8] = direct_sum(algp, [algp.simple("c1"), algp.simple("c2")])
    assert fake[8].dims == members[8].dims and fake[8].mats["al_c2_c1"].is_zero()
    monkeypatch.setattr(decomp, "xset", lambda algebra: list(fake))
    with pytest.raises(CertificateFailure, match="^a c2 component of dimension 1 is left "
                                                 "after peeling P\\(c2\\) and the ten c2-strings$"):
        lemma2_split(module)


def test_split_record_is_stable(algp):
    module = _with_c2(algp, random_module(algp, seed=77, budget=25), 10,
                      random.Random(77))
    a = lemma2_split(module).to_record()
    b = lemma2_split(module).to_record()
    assert a == b
    assert set(a) == {"x_multiplicities", "pc2_copies", "m_prime_dims",
                      "certificate_checksum"}


def test_split_field_independent(algp, algp_f101):
    from biserial.reps import random_module as rm

    for seed in (5, 6):
        # The same planted part in the same random basis over both fields.
        split_q = lemma2_split(_with_c2(algp, rm(algp, seed=seed, budget=24), seed,
                                        random.Random(seed)))
        split_p = lemma2_split(_with_c2(algp_f101, rm(algp_f101, seed=seed, budget=24),
                                        seed, random.Random(seed)))
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


def test_xset_is_built_once(algp):
    from biserial.families import build_lambda1prime

    first, second = xset(algp), xset(algp)
    assert first is not second and first == second
    assert all(a is b for a, b in zip(first, second))
    first.pop()
    assert len(xset(algp)) == 10  # callers get their own list
    assert all(not m.violated_relations() for m in xset(algp))
    # Another algebra, even over the same presentation, has its own.
    other = Algebra(build_lambda1prime(1))
    assert xset(other)[0] is not first[0]


def test_split_with_pc2_summands_is_pinned(algp, algp_f101):
    # Two P(c2) summands, peeled one at a time; the record, certificate
    # checksum included, is the same over both fields.
    pinned = {"x_multiplicities": [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
              "pc2_copies": 2,
              "m_prime_dims": [["a0", 2], ["c0", 3], ["cm1", 3], ["u", 2], ["w", 3]],
              "certificate_checksum": "6ba97d6e9b15abbd"}
    for alg in (algp, algp_f101):
        module = direct_sum(alg, [alg.projective("c2"),
                                  random_module(alg, seed=9, budget=28),
                                  alg.projective("c2"), xset(alg)[3]])
        assert lemma2_split(module).to_record() == pinned


@cache
def _c2_free_algebras(r, field_spec):
    """lambda1prime(r) over the field, and its factor with c2 deleted."""
    big = Algebra(build_lambda1prime(r), field=field_from_spec(field_spec))
    return big, Algebra(big.pres.delete_vertices(["c2"], "no_c2"), field=big.field)


@settings(max_examples=60, deadline=None)
@given(field_spec=st.sampled_from(["q", "fp:2", "fp:101"]), r=st.integers(1, 3),
       seed=st.integers(0, 10**6), budget=st.integers(0, 24),
       on_u=st.booleans(), off_u=st.booleans())
def test_split_of_a_c2_free_module_is_the_module_itself(field_spec, r, seed, budget,
                                                        on_u, off_u):
    # Every vertex but c2 is at level one, so a module with zero c2
    # component is its own M', certified by the identity: nothing is peeled.
    from biserial import decomp

    big, no_c2 = _c2_free_algebras(r, field_spec)
    parts = [inflate(random_module(no_c2, seed=seed, budget=budget), big)]
    if on_u:
        parts.append(string_module(big, StringWord("a1", [("al_a1_d0", 1)])))
    if off_u:
        parts.append(big.simple("u"))
    module = change_basis(direct_sum(big, parts), random.Random(seed))
    assert module.dims["c2"] == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "split_off", lambda *args: pytest.fail("peeled"))
        split = lemma2_split(module)
    assert split.x_multiplicities == [0] * 10
    assert split.a == 0
    assert split.m_prime is module
    assert split.certificate.source is module and split.certificate.target is module
    assert split.certificate.is_iso()


@cache
def _lambda1prime(r, field_spec):
    return Algebra(build_lambda1prime(r), field=field_from_spec(field_spec))


@settings(deadline=None)
@given(field_spec=st.sampled_from(["q", "fp:2", "fp:101"]), r=st.integers(1, 3),
       seed=st.integers(0, 10**6), budget=st.integers(0, 20),
       planted=st.lists(st.integers(0, 10), min_size=1, max_size=3))
def test_split_multiplicities_match_the_composition_pairing(field_spec, r, seed, budget,
                                                            planted):
    # Each part has a local endomorphism ring, so by Krull-Schmidt its
    # multiplicity in the module is what peeling that part alone, by the
    # composition-pairing oracle, counts.
    alg = _lambda1prime(r, field_spec)
    module = random_module(alg, seed=seed, budget=budget)
    rng = random.Random(seed)
    for k in planted:
        module = _with_c2(alg, module, k, rng)
    split = lemma2_split(module)
    assert split.a == peel_count_oracle(alg, module, alg.projective("c2"))
    assert split.x_multiplicities == [peel_count_oracle(alg, module, x) for x in xset(alg)]
    assert split.a + sum(split.x_multiplicities) == module.dims["c2"]


def test_a_part_that_does_not_split_off_is_never_tried_again(algp, monkeypatch):
    # At most dims[c2] peels succeed and each of the 11 parts misses at
    # most once, after which the peel moves on to the next part.
    from biserial import decomp

    calls = []
    real = decomp.split_off

    def recording(part, module):
        split = real(part, module)
        calls.append((part, split is not None))
        return split

    monkeypatch.setattr(decomp, "split_off", recording)
    rng = random.Random("peel-calls")
    parts = [algp.projective("c2"), *xset(algp)]
    for seed in range(12):
        module = random_module(algp, seed=seed, budget=24)
        for k in (seed % 11, 10 - seed % 11, 3):
            module = _with_c2(algp, module, k, rng)
        calls.clear()
        split = lemma2_split(module)
        assert sum(ok for _, ok in calls) == module.dims["c2"]
        assert len(calls) <= module.dims["c2"] + len(parts)
        tried = [parts.index(part) for part, _ in calls]
        assert tried == sorted(tried)
        for k, part in enumerate(parts):
            copies = ([split.a] + split.x_multiplicities)[k]
            assert [ok for p, ok in calls if p is part] in ([True] * copies,
                                                           [True] * copies + [False])
