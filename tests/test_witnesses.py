import json
from importlib import resources

import pytest

from biserial.families import build_lambda, lambda_vertices
from biserial.fields import QQ, PrimeField, field_from_spec
from biserial.homology import (certified_iso, kernel_of, projdim, syzygy,
                               _sub_representation)
from biserial.matrices import Matrix
from biserial.reps import Algebra
from biserial import witnesses
from biserial.witnesses import (build_U, build_Z, build_Zt, build_phi,
                                sample_finite_pd_modules, zt_walk)
from oracles import prefix_phi, random_extension


def test_z3_dimension_vector(alg3):
    z3 = build_Z(alg3, 3)
    assert dict(z3.dim_vector()) == {"a3": 1, "b3": 1, "b2": 1, "c2": 1, "a2": 1}


def test_z5_dimension_vector(alg5):
    z5 = build_Z(alg5, 5)
    assert dict(z5.dim_vector()) == {"a5": 1, "b4": 1, "b5": 1, "a4": 1}


def test_z0_total_dimension(alg0):
    # 1 + dim P(a0) + dim P(b0) + dim P(c0) + 1 = 1 + 4 + 3 + 3 + 1
    assert build_Z(alg0, 0).total_dim() == 12


def test_z2_dimension_guard(alg2):
    z2 = build_Z(alg2, 2)
    assert dict(z2.dim_vector()) == {"a2": 1, "c2": 2, "c1": 2, "b2": 1,
                                     "b1": 1, "a0": 1, "a1": 1}


def test_generated_walks_match_stored_data():
    with resources.files("biserial.data").joinpath("walks.json").open() as fh:
        stored = json.load(fh)
    # The stored witness walks are the reference for the generated ones.
    assert sorted(stored["Z"], key=int) == ["1", "2", "3", "4", "5"]
    for m in range(1, 6):
        spec = stored["Z"][str(m)]
        word = zt_walk(m, 1)
        assert word.base == spec["base"] == f"a{m}"
        assert word.letters == tuple(tuple(x) for x in spec["letters"])


@pytest.mark.parametrize("build", [build_Z, lambda alg, m: build_Zt(alg, m, 1)],
                         ids=["Z", "Zt"])
def test_negative_level_is_rejected(alg3, build):
    with pytest.raises(ValueError, match="^level must be nonnegative$"):
        build(alg3, -1)


def test_walk_pattern_extends_beyond_stored():
    alg7 = Algebra(build_lambda(1, 7))
    z7 = build_Z(alg7, 7)
    assert dict(z7.dim_vector()) == {"a7": 1, "b6": 1, "b7": 1, "a6": 1}
    om = syzygy(z7)
    assert certified_iso(om, build_Z(alg7, 6), seed=0) is not None


def test_zt_at_t1_is_witness(alg3):
    for m in (0, 1, 2, 3):
        zt = build_Zt(alg3, m, 1)
        z = build_Z(alg3, m)
        assert certified_iso(zt, z, seed=0) is not None


def test_zt_dimensions(alg3):
    assert build_Zt(alg3, 0, 3).total_dim() == 24
    assert build_Zt(alg3, 1, 3).total_dim() == 19
    assert build_Zt(alg3, 2, 3).total_dim() == 17
    assert build_Zt(alg3, 3, 3).total_dim() == 15


def test_z3_truncation_filtration(alg3):
    # The triple member is filtered by prefix submodules with witness-sized
    # layers: dims are three copies of the witness dims, and the first 5s
    # walk positions span submodules.
    z33 = build_Zt(alg3, 3, 3)
    z3 = build_Z(alg3, 3)
    assert {v: d for v, d in z33.dim_vector()} == \
        {v: 3 * d for v, d in z3.dim_vector()}
    word = zt_walk(3, 3)
    verts = word.walk_vertices(alg3.pres)
    for s in (1, 2):
        window = 5 * s
        incl = {}
        counts = {v: 0 for v in alg3.vertices}
        cols = {v: [] for v in alg3.vertices}
        for idx, v in enumerate(verts):
            if idx < window:
                cols[v].append(counts[v])
            counts[v] += 1
        for v in alg3.vertices:
            m = Matrix.zeros(alg3.field, z33.dims[v], len(cols[v]))
            for k, row in enumerate(cols[v]):
                m.data[row][k] = alg3.field.one
            incl[v] = m
        sub, _ = _sub_representation(z33, incl)
        assert sub.total_dim() == window


def test_phi_kernels_match_expected(alg5):
    for m in (0, 1, 2, 3, 4):
        for t in (1, 2):
            phi = build_phi(alg5, m, t)
            ker, _ = kernel_of(phi)
            expected = build_U(alg5, m, t)
            if expected.is_zero():
                assert ker.is_zero(), (m, t)
            else:
                assert certified_iso(ker, expected, seed=0) is not None, (m, t)


@pytest.mark.parametrize("spec", ["q", "fp:2", "fp:101"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_phi_matches_prefix_oracle(r, spec):
    # The kept prefix is read off the two walks; the oracle writes it out.
    alg = Algebra(build_lambda(r, 10), field=field_from_spec(spec))
    for m in range(11):
        for t in range(1, 7):
            phi, ref = build_phi(alg, m, t), prefix_phi(alg, m, t)
            assert phi.source.dims == ref.source.dims, (m, t)
            assert phi.target.dims == ref.target.dims, (m, t)
            assert phi.mats == ref.mats, (m, t)


def test_u_shapes(alg3):
    assert build_U(alg3, 0, 1).dim_vector() == (("d1", 1),)
    assert dict(build_U(alg3, 1, 2).dim_vector()) == {"u": 1, "d0": 1}
    assert dict(build_U(alg3, 2, 1).dim_vector()) == {"a0": 1, "a1": 1}
    assert build_U(alg3, 3, 3).is_zero()


def test_phi_composites_keep_kernels(alg3):
    for m in (1, 2):
        phi1 = build_phi(alg3, m, 1)
        phi2 = build_phi(alg3, m, 2)
        comp = phi2.compose(phi1)
        for v in alg3.vertices:
            k1 = phi1.mats[v].kernel_basis()
            if k1.cols:
                assert (comp.mats[v] @ k1).is_zero()


def test_syzygy_of_truncations(alg3):
    for m in (0, 1, 2):
        for t in (2, 3):
            om = syzygy(build_Zt(alg3, m + 1, t))
            zt = build_Zt(alg3, m, t)
            assert certified_iso(om, zt, seed=1) is not None, (m, t)


def test_pd_of_truncations(alg3):
    for m in (0, 1, 2, 3):
        for t in (2, 3):
            rep = projdim(build_Zt(alg3, m, t), cutoff=1 + m + 4)
            assert rep.verdict == "finite" and rep.value == 1 + m, (m, t)


def test_witness_not_supported_below(alg2):
    z2 = build_Z(alg2, 2)
    assert not z2.supported_on(set(lambda_vertices(1, 1)))


def test_finite_pd_sampler(alg2):
    samples = sample_finite_pd_modules(alg2, 8, seed=5, max_dim=50)
    assert len(samples) == 8
    for module, report in samples:
        assert report.verdict == "finite"
        assert report.value <= 3
        assert 0 < module.total_dim() <= 50


def test_zt_requires_positive_t(alg3):
    with pytest.raises(ValueError):
        build_Zt(alg3, 1, 0)
    with pytest.raises(ValueError):
        build_phi(alg3, 1, 0)


# The dimension vectors of eight finite-pd samples over lambda(1, 2) at
# seed 4, and their pds.  Each extension draws exactly one coefficient per
# Hom basis element, so the sampler's random stream stays fixed.
PINNED_SAMPLE_DIMS = [
    {"b0": 1, "b1": 1, "b2": 1, "c1": 1, "d0": 1},
    {"a0": 1, "b1": 1, "c0": 1, "c1": 1, "c2": 1, "w": 2},
    {"a0": 3, "a1": 1, "b0": 1, "b1": 1, "c0": 2, "c1": 1, "cm1": 1, "d0": 1, "u": 2},
    {"u": 2, "v": 2},
    {"a0": 1, "b0": 1, "c0": 1, "c1": 1, "cm1": 1, "d0": 1, "d1": 1, "v": 1},
    {"b0": 1, "b1": 1, "b2": 1, "c1": 1, "d1": 1},
    {"d1": 2},
    {"a0": 1, "b0": 1, "c0": 1, "c1": 1, "cm1": 1, "u": 2, "v": 1},
]


@pytest.mark.parametrize("field", [None, 101], ids=["qq", "f101"])
def test_finite_pd_samples_are_pinned(field):
    from biserial.fields import PrimeField

    alg = Algebra(build_lambda(1, 2)) if field is None else \
        Algebra(build_lambda(1, 2), field=PrimeField(field))
    samples = sample_finite_pd_modules(alg, 8, seed=4)
    assert [dict(m.dim_vector()) for m, _ in samples] == PINNED_SAMPLE_DIMS
    assert [report.value for _, report in samples] == [1, 0, 2, 0, 0, 0, 0, 0]


def _sample_content(samples):
    return [(m.dims, {name: x.data for name, x in m.mats.items()}, report.chain)
            for m, report in samples]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(101)],
                         ids=["qq", "f2", "f101"])
def test_finite_pd_samples_match_the_assembled_extensions(r, field, monkeypatch):
    # The sampler covers each pool module once and takes each extension as
    # a cokernel into P (+) base with no sum built; the oracle covers the
    # top on every draw and takes cokernel_of the graph into the assembled
    # sum.
    covered, drawn = [], []
    cover = witnesses.projective_cover
    monkeypatch.setattr(witnesses, "projective_cover",
                        lambda top: covered.append(top) or cover(top))
    samples = sample_finite_pd_modules(Algebra(build_lambda(r, 2), field=field), 12, seed=r)
    covers = len(covered)
    assert len(set(map(id, covered))) == covers
    monkeypatch.setattr(witnesses, "random_extension",
                        lambda alg, base, cover, rng: drawn.append(cover.module)
                        or random_extension(alg, base, cover.module, rng))
    expected = sample_finite_pd_modules(Algebra(build_lambda(r, 2), field=field), 12, seed=r)
    assert _sample_content(samples) == _sample_content(expected)
    assert covers == len(set(map(id, drawn))) < len(drawn)
