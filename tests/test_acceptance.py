"""Acceptance criteria: one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Scale: r in {1,2,3}, levels up to 5, direct-system
members up to t = 3, module dimensions up to about 60.  All checks are
exact integer/certificate checks; there are no numeric tolerances.
"""

import random
from fractions import Fraction

from biserial.claims import expected_projective_layers, radical_filtration
from biserial.decomp import lemma2_split, xset
from biserial.families import (build_lambda, build_lambda1prime,
                               lambda_vertices)
from biserial.fields import QQ, PrimeField
from biserial.homology import (certified_iso, hom_basis, kernel_of, projdim,
                               projective_cover, split_off, syzygy)
from biserial.matrices import Matrix
from biserial.presentation import (ALPHA, BETA, Arrow, Presentation, Quiver,
                                   Relation, emit_presentation,
                                   parse_presentation)
from biserial.reps import Algebra, direct_sum, random_module
from biserial.witnesses import (build_U, build_Z, build_Zt, build_phi,
                                sample_finite_pd_modules)
from oracles import column, map_inverse, structurally_equal, top_dims, verify_cover

F101 = PrimeField(101)


def _report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_simples():
    ok = True
    loops = ("u", "v", "w", "cm1", "bm1")
    for r in (1, 2, 3):
        for m in range(6):
            alg = Algebra(build_lambda(r, m))
            for i in range(r + 1):
                rep = projdim(alg.simple(f"d{i}"), cutoff=r + m + 4)
                ok &= rep.verdict == "finite" and rep.value == r - i
            for v in loops:
                rep = projdim(alg.simple(v), cutoff=r + m + 4)
                ok &= (rep.verdict == "infinite" and rep.iso is not None
                       and rep.iso.is_iso())
    _report(1, "simple modules: exact pd and certified infinite cycles", ok)


def test_criterion_2_witness_tower():
    ok = True
    for r in (1, 2, 3):
        for m in range(5):
            big = Algebra(build_lambda(r, m + 1))
            omega = syzygy(build_Z(big, m + 1))
            ok &= certified_iso(omega, build_Z(big, m), seed=0) is not None
            native = Algebra(build_lambda(r, m))
            rep = projdim(build_Z(native, m), cutoff=r + m + 4)
            ok &= rep.verdict == "finite" and rep.value == r + m
    alg5 = Algebra(build_lambda(1, 5))
    rep = projdim(build_Z(alg5, 5), cutoff=1 + 5 + 4)
    ok &= rep.verdict == "finite" and rep.value == 6
    _report(2, "witness tower: certified syzygies and exact pd r+m", ok)


def test_criterion_3_infinite_strings():
    ok = True
    alg = Algebra(build_lambda1prime(1))
    members = xset(alg)
    for idx, x in enumerate(members, start=1):
        rep = projdim(x, cutoff=12)
        ok &= rep.verdict == "infinite"
        if idx <= 5:
            split = split_off(alg.simple("cm1"), syzygy(syzygy(x)))
        else:
            split = split_off(alg.simple("v"), syzygy(syzygy(syzygy(x))))
        ok &= split is not None
        if split is not None:
            s, p = split.section, split.retraction
            probe = "cm1" if idx <= 5 else "v"
            ok &= (p.compose(s)).mats[probe].data[0][0] == alg.field.one
    _report(3, "ten c2-strings: infinite pd and split-pair witnesses", ok)


def test_criterion_4_splitting_sweep():
    alg = Algebra(build_lambda1prime(1))
    level1 = set(lambda_vertices(1, 1))
    rng = random.Random("acceptance-4")
    good = 0
    for k in range(100):
        budget = rng.randint(0, 40)
        module = random_module(alg, seed=40000 + k, budget=budget)
        assert module.total_dim() <= 40
        split = lemma2_split(module)  # raises CertificateFailure on any bug
        if split.m_prime.supported_on(level1) and split.certificate.is_iso():
            good += 1
    _report(4, f"splitting sweep {good}/100 certified", good == 100)


def test_criterion_5_finite_pd_syzygies():
    alg = Algebra(build_lambda(1, 2))
    level1 = set(lambda_vertices(1, 1))
    samples = sample_finite_pd_modules(alg, 50, seed=5, max_dim=60)
    good = sum(1 for module, report in samples
               if report.verdict == "finite"
               and syzygy(module).supported_on(level1))
    _report(5, f"finite-pd level-2 modules {good}/50 drop to level 1",
            good == 50)


def test_criterion_6_direct_system():
    ok = True
    alg = Algebra(build_lambda(1, 4))
    for m in range(4):
        for t in (1, 2, 3):
            zt = build_Zt(alg, m, t)
            omega = syzygy(build_Zt(alg, m + 1, t))
            ok &= certified_iso(omega, zt, seed=0) is not None
            rep = projdim(zt, cutoff=1 + m + 4)
            ok &= rep.verdict == "finite" and rep.value == 1 + m
            ker, _ = kernel_of(build_phi(alg, m, t))
            expected = build_U(alg, m, t)
            if m >= 3:
                ok &= ker.is_zero() and expected.is_zero()
            else:
                ok &= certified_iso(ker, expected, seed=0) is not None
    _report(6, "direct system: syzygies, pd, and connecting kernels", ok)


def test_criterion_7_projective_tables():
    ok = True
    alg = Algebra(build_lambda(1, 5))
    expected = expected_projective_layers(1)
    dim_table = {"a0": 4, "a1": 4, "a2": 5, "a3": 5, "a4": 4, "a5": 4,
                 "b0": 3, "b1": 5, "b2": 4, "b3": 4, "b4": 5, "b5": 4,
                 "c0": 3, "c1": 6, "c2": 5, "u": 2, "v": 2, "w": 2,
                 "bm1": 2, "cm1": 2, "d0": 2, "d1": 1}
    for v in alg.vertices:
        proj = alg.projective(v)
        ok &= proj.total_dim() == dim_table[v]
        ok &= radical_filtration(proj) == expected[v]
    _report(7, "level-5 projectives: exact dims and radical layers", ok)


# -- criterion 8: property suites, 1000 cases over each field -----------------


def _random_matrix(field, rng, max_dim=5):
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    if field is QQ:
        entries = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    for _ in range(cols)] for _ in range(rows)]
    else:
        entries = [[rng.randrange(field.p) for _ in range(cols)]
                   for _ in range(rows)]
    return Matrix(field, rows, cols, [[field(x) for x in row]
                                      for row in entries])


def _linalg_case(field, rng) -> bool:
    m = _random_matrix(field, rng)
    red, pivots, rank = m.rref()
    ok = red.rref()[0] == red
    k = m.kernel_basis()
    ok &= (m @ k).is_zero()
    ok &= rank + k.cols == m.cols
    coeffs = column(field, [field(rng.randint(-3, 3)) for _ in range(m.cols)])
    b = m @ coeffs
    sol = m.solve(b)
    ok &= sol is not None and (m @ sol) == b
    return ok


def _random_presentation(rng) -> Presentation:
    n = rng.randint(1, 4)
    verts = [f"x{i}" for i in range(n)]
    arrows = []
    for k in range(rng.randint(0, 5)):
        src, tgt = rng.choice(verts), rng.choice(verts)
        arrows.append(Arrow(f"f{k}", src, tgt,
                            ALPHA if rng.random() < 0.5 else BETA))
    quiver = Quiver(verts, arrows)
    relations = []
    by_name = quiver.arrows
    for _ in range(rng.randint(0, 3)):
        if not arrows:
            break
        first = rng.choice(list(by_name.values()))
        nexts = quiver.arrows_from(first.target)
        if nexts:
            relations.append(Relation("zero",
                                      (first.name, rng.choice(nexts).name)))
    seen = set()
    for a in by_name.values():
        for b in by_name.values():
            if (a.name < b.name and a.source == b.source
                    and a.target == b.target and (a.name, b.name) not in seen):
                seen.add((a.name, b.name))
                relations.append(Relation("eq", (a.name,), (b.name,)))
                break
    return Presentation(f"rand{rng.randint(0, 10**6)}", quiver, relations)


def _parsing_case(rng) -> bool:
    pres = _random_presentation(rng)
    return structurally_equal(parse_presentation(emit_presentation(pres)), pres)


def _cover_case(algebras, seed) -> bool:
    alg_q, alg_p = algebras
    ok = True
    dims = {}
    for alg in (alg_q, alg_p):
        module = random_module(alg, seed=seed, budget=16)
        cover = projective_cover(module)
        ok &= verify_cover(cover)
        for v in alg.vertices:
            ok &= module.dims[v] == cover.cover.dims[v] - cover.syzygy.dims[v]
        ok &= top_dims(cover.cover) == top_dims(module)
        dims[alg.field.name] = (module.dims, cover.cover.dims,
                                cover.syzygy.dims)
    # Field independence: identical seeds produce identical shapes.
    ok &= dims["q"] == dims["fp:101"]
    return ok


def _pd_additivity_case(algebras, seed) -> bool:
    alg_q, alg_p = algebras
    verdicts = {}
    ok = True
    for alg in (alg_q, alg_p):
        a = random_module(alg, seed=seed * 2 + 1, budget=8)
        b = random_module(alg, seed=seed * 2 + 2, budget=8)
        total = direct_sum(alg, [a, b])
        ra, rb = projdim(a, cutoff=9), projdim(b, cutoff=9)
        rt = projdim(total, cutoff=9)
        if "inconclusive" in (ra.verdict, rb.verdict, rt.verdict):
            verdicts[alg.field.name] = "inconclusive"
            continue
        if "infinite" in (ra.verdict, rb.verdict):
            ok &= rt.verdict == "infinite"
        elif ra.verdict == rb.verdict == "minus_infinity":
            ok &= rt.verdict == "minus_infinity"
        else:
            finite = [r.value for r in (ra, rb) if r.verdict == "finite"]
            ok &= rt.verdict == "finite" and rt.value == max(finite)
        verdicts[alg.field.name] = (ra.verdict, rb.verdict, rt.verdict)
    ok &= verdicts["q"] == verdicts["fp:101"]
    return ok


def _hom_case(algebras, seed) -> bool:
    alg_q, alg_p = algebras
    counts = {}
    ok = True
    for alg in (alg_q, alg_p):
        m = random_module(alg, seed=seed, budget=12)
        iso = certified_iso(m, m, seed=seed)
        ok &= iso is not None and iso.is_iso()
        if iso is not None:
            ok &= map_inverse(iso).is_iso()
        counts[alg.field.name] = tuple(
            len(hom_basis(alg.projective(v), m)) == m.dims[v]
            for v in ("c2", "a1", "b0"))
    ok &= counts["q"] == counts["fp:101"] == (True, True, True)
    return ok


def test_criterion_8_property_suites():
    rng = random.Random("acceptance-8")
    algebras = (Algebra(build_lambda1prime(1)),
                Algebra(build_lambda1prime(1), field=F101))
    failures = 0
    cases = 0
    # 400 elimination-law cases, split between the two fields.
    for k in range(400):
        field = QQ if k % 2 == 0 else F101
        failures += not _linalg_case(field, rng)
        cases += 1
    # 150 presentation round-trips.
    for _ in range(150):
        failures += not _parsing_case(rng)
        cases += 1
    # 200 cover/exactness/minimality cases, each run over both fields.
    for k in range(200):
        failures += not _cover_case(algebras, seed=80000 + k)
        cases += 1
    # 150 pd additivity cases over both fields.
    for k in range(150):
        failures += not _pd_additivity_case(algebras, seed=90000 + k)
        cases += 1
    # 100 hom/iso certificate cases over both fields.
    for k in range(100):
        failures += not _hom_case(algebras, seed=70000 + k)
        cases += 1
    assert cases == 1000
    _report(8, f"property suites {cases - failures}/{cases} cases "
               f"over q and fp:101", failures == 0)
