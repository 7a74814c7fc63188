import json

import pytest

from biserial.claims import (CLAIMS, FamilyConfig, expected_projective_layers,
                             radical_filtration, run_claim)
from biserial.reps import Algebra
from biserial.families import build_lambda
from oracles import run_claims

SMALL = FamilyConfig(r=1, m_max=2, t_max=2, samples=6, seed=13)


@pytest.mark.parametrize("claim_id", list(CLAIMS))
def test_each_claim_passes_small(claim_id):
    report = run_claim(claim_id, SMALL)
    assert report.status == "pass", report.describe()


def test_claim_reports_deterministic():
    cfg = FamilyConfig(r=1, m_max=1, t_max=1, samples=4, seed=3)
    first = [r.to_record() for r in run_claims(["prop-2", "lemma-2"], cfg)]
    second = [r.to_record() for r in run_claims(["prop-2", "lemma-2"], cfg)]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_unknown_claim_rejected():
    with pytest.raises(KeyError):
        run_claim("nope", SMALL)


def test_field_independence_all_claims():
    base = dict(r=1, m_max=1, t_max=1, samples=4, seed=21)
    for cid in CLAIMS:
        over_q = run_claim(cid, FamilyConfig(field_spec="q", **base))
        over_p = run_claim(cid, FamilyConfig(field_spec="fp:101", **base))
        assert over_q.status == over_p.status == "pass", cid


def test_appendix_layers_against_engine():
    alg = Algebra(build_lambda(2, 5))
    expected = expected_projective_layers(2)
    for v in ("a2", "c2", "b4", "d0", "d2", "c1"):
        assert radical_filtration(alg.projective(v)) == expected[v]


def test_prop2_section4_cross_check():
    # The witness and its first truncation member have certified-isomorphic
    # syzygies (they are the same module).
    from biserial.homology import certified_iso, syzygy
    from biserial.witnesses import build_Z, build_Zt

    alg = Algebra(build_lambda(1, 2))
    a = syzygy(build_Z(alg, 2))
    b = syzygy(build_Zt(alg, 2, 1))
    assert certified_iso(a, b, seed=0) is not None


def test_claim_record_shape():
    rec = run_claim("appendix-projectives", SMALL).to_record()
    assert rec["claim"] == "appendix-projectives"
    assert rec["status"] == "pass"
    assert rec["config"]["r"] == 1
    assert all(set(c) == {"name", "status", "digest"} for c in rec["checks"])


def test_config_validation():
    with pytest.raises(ValueError):
        FamilyConfig(r=0)
    with pytest.raises(ValueError):
        FamilyConfig(t_max=0)


def test_verdict_check_failure_paths():
    from biserial.claims import CheckResult, _verdict_check, worst_status
    from biserial.homology import projdim

    alg = Algebra(build_lambda(1, 0))
    finite = projdim(alg.simple("d0"), cutoff=6)
    infinite = projdim(alg.simple("u"), cutoff=6)
    capped = projdim(alg.simple("d0"), cutoff=1)
    assert capped.verdict == "inconclusive"
    # Wrong expectations are failures, not errors.
    assert _verdict_check("x", finite, 5).status == "fail"
    assert _verdict_check("x", infinite, 1).status == "fail"
    assert _verdict_check("x", finite, None).status == "fail"
    assert _verdict_check("x", capped, 1).status == "inconclusive"
    assert _verdict_check("x", capped, None).status == "inconclusive"
    # Fail dominates inconclusive in aggregation.
    checks = [CheckResult("a", "pass"), CheckResult("b", "inconclusive")]
    assert worst_status(checks) == "inconclusive"
    checks.append(CheckResult("c", "fail"))
    assert worst_status(checks) == "fail"


def test_inconclusive_claim_status():
    report = run_claim("prop-2", FamilyConfig(r=1, m_max=0, cutoff=1))
    assert report.status == "inconclusive"
    assert any(c.status == "inconclusive" for c in report.checks)


def test_syzygy_descent_with_no_level_in_range_is_inconclusive():
    report = run_claim("syzygy-descent", FamilyConfig(m_max=0))
    assert report.status == "inconclusive"
    [check] = report.to_record()["checks"]
    assert check["status"] == "inconclusive"
    assert check["evidence"] == {"m_max": 0}
    assert check["name"] == "no level in 1..m_max: no syzygy sampled"


def test_record_carries_evidence_only_for_non_pass_checks():
    from biserial.claims import CheckResult, ClaimReport
    from biserial.homology import record_digest

    passing = CheckResult("ok", "pass", {"dims": [["u", 1]]})
    failing = CheckResult("bad", "fail", {"support": ["a2"]})
    missed = CheckResult("miss", "inconclusive", {"iso_trials": 40})
    rec = ClaimReport("x", "pass", [passing], SMALL).to_record()
    # An all-pass record keeps its old shape and bytes.
    assert rec["checks"] == [{"name": "ok", "status": "pass",
                              "digest": record_digest(passing.evidence)}]
    rec = ClaimReport("x", "fail", [passing, failing, missed], SMALL).to_record()
    assert "evidence" not in rec["checks"][0]
    assert rec["checks"][1]["evidence"] == {"support": ["a2"]}
    assert rec["checks"][1]["digest"] == record_digest(failing.evidence)
    assert rec["checks"][2]["evidence"] == {"iso_trials": 40}
    json.dumps(rec, sort_keys=True)


def test_iso_check_is_three_valued():
    from biserial.claims import _iso_result
    from biserial.homology import decide_iso

    alg = FamilyConfig(r=1).algebra("lambda", 1)
    p = alg.projective("c1")
    # No trials: the search cannot find the isomorphism, which proves nothing.
    miss = _iso_result("x", decide_iso(p, p, trials=0), {"k": 1})
    assert miss.status == "inconclusive"
    assert miss.evidence == {"k": 1, "reason": "no isomorphism found",
                             "iso_trials": 0}
    # Different dimension vectors are a sound negative.
    other = _iso_result("x", decide_iso(p, alg.simple("c1"), trials=0), {})
    assert other.status == "fail"
    assert other.evidence["reason"] == "dimension vectors differ"
    found = _iso_result("x", decide_iso(p, p), {"k": 1})
    assert found.status == "pass" and found.evidence == {"k": 1}


def test_config_builds_each_algebra_once():
    cfg = FamilyConfig(r=1)
    a = cfg.algebra("lambda", 2)
    assert cfg.algebra("lambda", 2) is a
    assert cfg.algebra("lambda1prime") is cfg.algebra("lambda1prime")
    assert cfg.algebra("lambda", 1) is not a
    assert a.pres.name == "lambda_r1_m2"
    other = FamilyConfig(r=1, field_spec="fp:3").algebra("lambda", 2)
    assert other is not a and other.field != a.field
    assert other.field.p == 3


def test_config_algebras_share_one_parsed_field():
    cfg = FamilyConfig(r=1, field_spec="fp:2147483647")
    assert cfg.field.p == 2147483647
    assert cfg.algebra("lambda", 1).field is cfg.field
    assert cfg.algebra("lambda", 2).field is cfg.algebra("lambda1prime").field


def test_config_rejects_bad_flags_by_name():
    from biserial.claims import ConfigError

    for kwargs in ({"samples": -1}, {"max_dim": -1}, {"cutoff": 0},
                   {"r": 0}, {"m_max": -1}, {"t_max": 0}, {"trials": -1}):
        with pytest.raises(ConfigError):
            FamilyConfig(**kwargs)


def _pinned(args, digest, code, name):
    return pytest.param(args, digest, code, id=f"{name}-{digest}")


# Final digests of `verify ... --structured` and the exit codes.  The first
# three were recorded before the elimination kernel went sparse and
# algebras were shared across claims; the GF(2) run is inconclusive on one
# missed isomorphism search.
@pytest.mark.parametrize("args, digest, code", [
    _pinned(["all", "--samples", "30", "--field", "q"], "670070e83f3717ca", 0, "q"),
    _pinned(["all", "--samples", "30", "--field", "fp:3"], "66ad91ec3552a35e", 0, "fp:3"),
    _pinned(["all", "--samples", "30", "--field", "fp:101"], "de8e0f20ff6f3ef5", 0,
            "fp:101"),
    _pinned(["all", "--samples", "30", "--field", "fp:2"], "8a165916c8053f25", 3, "fp:2"),
    # The largest supported prime, through the same elimination loop.
    _pinned(["all", "--samples", "30", "--field", "fp:2147483647"], "193b892ce6b23b36", 0,
            "fp:2147483647"),
    _pinned(["all", "--r", "2", "--m-max", "4", "--t-max", "4", "--samples", "40",
             "--seed", "5", "--field", "fp:5"], "b24d26fc7b044848", 0, "r2-fp:5"),
    _pinned(["section-4", "--r", "2", "--m-max", "5", "--t-max", "5"],
            "94bf9e83c5b2e136", 0, "section-4-heavy"),
    # The benchmark's towers-q command: five claims over shared algebras,
    # so chains of one claim meet syzygies another claim already built.
    _pinned(["simples-pd", "prop-2", "lemma-1", "section-4", "findim-witness",
             "--r", "2", "--m-max", "4", "--t-max", "3", "--seed", "3"],
            "b256182d8ebb5c0f", 0, "towers-q"),
    # The benchmark's sampling-fp101 command: random cokernels, covers and
    # Lemma-2 splittings over GF(101).
    _pinned(["lemma-2", "corollary-3", "syzygy-descent", "--r", "2", "--m-max", "5",
             "--samples", "100", "--max-dim", "60", "--field", "fp:101", "--seed", "3"],
            "cb1cb6dd6f155166", 0, "sampling-fp101"),
    # The sampling claims over GF(2) and Q at other sizes.
    _pinned(["lemma-2", "corollary-3", "syzygy-descent", "--samples", "30", "--field", "fp:2",
             "--r", "3", "--m-max", "4", "--seed", "2"], "62f4599a790d45d1", 0, "sampling-fp2"),
    _pinned(["lemma-2", "corollary-3", "syzygy-descent", "--samples", "30", "--field", "q",
             "--r", "1", "--m-max", "5", "--seed", "1"], "36c26c7116cf3e71", 0, "sampling-q"),
    # The witness claims at m-max 10 on one tower.
    _pinned(["prop-2", "section-4", "lemma-1", "--r", "2", "--m-max", "10", "--t-max", "10",
             "--seed", "3"], "75c0a323364282f7", 0, "scale-10"),
    # lambda(1, 61) keeps an alpha path of 64 arrows.
    _pinned(["prop-2", "--r", "1", "--m-max", "60", "--t-max", "1"], "1af189017fad3c31", 0,
            "tower-60"),
    # No iso trials: no isomorphism is certified, so every level walks its
    # full pd chain and the witness claims are inconclusive.
    _pinned(["prop-2", "section-4", "findim-witness", "--r", "2", "--m-max", "4", "--t-max", "3",
             "--seed", "3", "--trials", "0"], "bc0e656bf4c5088e", 3, "trials-0"),
    # The split-pair search over GF(2).
    _pinned(["lemma-1", "--r", "2", "--field", "fp:2"], "6dfa131e6a1f0316", 0, "lemma-1-fp:2"),
    # lemma-1 walks level 2's cutoff as given: for r = 1, c2-strings 2 and
    # 5-10 cycle at steps (3, 4), so a chain cut at 3 has not met its cycle.
    _pinned(["lemma-1", "--r", "1", "--cutoff", "3"], "012d26ee45d6151a", 3,
            "lemma-1-cutoff-3"),
    _pinned(["lemma-1", "--r", "1", "--cutoff", "4"], "dc79fac32a51d6ef", 0,
            "lemma-1-cutoff-4"),
    # simples-pd cuts each level's report from one walk per simple: with no
    # iso trials the loop simples are cut to inconclusive at every level,
    # and a short cutoff cuts the chain simples' walks too.
    _pinned(["simples-pd", "--r", "2", "--m-max", "4", "--seed", "3"],
            "681e295f56b1fd8b", 0, "simples-pd"),
    _pinned(["simples-pd", "--r", "2", "--m-max", "4", "--seed", "3", "--trials", "0"],
            "7b1de34266572e5b", 3, "simples-pd-trials-0"),
    _pinned(["simples-pd", "--r", "2", "--m-max", "4", "--seed", "3", "--cutoff", "3"],
            "173b9ee25f6cf4ea", 0, "simples-pd-cutoff-3"),
    _pinned(["simples-pd", "--r", "2", "--m-max", "4", "--seed", "3", "--cutoff", "2",
             "--trials", "0"], "9cfec3a4f2eb38d2", 3, "simples-pd-cutoff-2-trials-0"),
])
def test_verify_all_digest_is_pinned(args, digest, code, capsys):
    from biserial.cli import main

    assert main(["verify", *args, "--structured"]) == code
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["digest"] == digest


def test_corollary_3_covers_only_what_its_sampler_covers(monkeypatch, cover_calls):
    # The claim reads each sample's syzygy off the pd chain the sampler
    # has already walked, so the claim takes exactly the sampler's
    # syzygy steps, all of them answered by the syzygy memo: no step
    # builds a cover.  The sampler's own covers of its pool modules are
    # made outside any syzygy step.
    from biserial import homology
    from biserial.claims import claim_corollary_3
    from biserial.witnesses import sample_finite_pd_modules

    steps = []
    real_syzygy = homology.syzygy

    def counting_syzygy(module):
        steps.append(module)
        return real_syzygy(module)

    monkeypatch.setattr(homology, "syzygy", counting_syzygy)
    cfg = FamilyConfig(r=1, samples=5, seed=13)
    sample_finite_pd_modules(cfg.algebra("lambda", 2), cfg.samples, seed=cfg.seed,
                             max_dim=max(cfg.max_dim, 60))
    sampled = len(steps)
    assert any(in_syzygy for _, _, in_syzygy in cover_calls)
    steps.clear()
    cover_calls.clear()
    assert claim_corollary_3(cfg).status == "pass"
    assert sampled > 0 and len(steps) == sampled
    assert [m for m, _, in_syzygy in cover_calls if in_syzygy] == []


def test_witness_claims_cover_each_content_once(monkeypatch):
    # The witness claims build every level on one tower algebra, so its
    # syzygy memo serves all levels: each module content is covered once
    # in the run (118 covers of 54 contents with an algebra per level).
    # Above level 0 the pd reports are proved by induction along the
    # tower, so only the level-0 chains and the syzygies the iso checks
    # read are covered (54 contents when every level walked its chain).
    from biserial import homology

    keys = []
    real = homology.projective_cover

    def counting(module):
        keys.append((module.algebra.pres.name, homology._content_key(module)))
        return real(module)

    monkeypatch.setattr(homology, "projective_cover", counting)
    cfg = FamilyConfig(r=2, m_max=4, t_max=3, seed=3)
    for claim_id in ("simples-pd", "prop-2", "section-4"):
        assert run_claim(claim_id, cfg).status == "pass"
    assert {name for name, _ in keys} == {"lambda_r2_m5"}
    assert len(keys) == len(set(keys)) == 27


def test_section_4_builds_each_connecting_map_once(monkeypatch):
    # The composite check's map for t + 1 is the next t's map.
    from biserial import claims

    calls = []
    real = claims.build_phi

    def counting(alg, m, t):
        calls.append((m, t))
        return real(alg, m, t)

    monkeypatch.setattr(claims, "build_phi", counting)
    cfg = FamilyConfig(r=2, m_max=4, t_max=3, seed=3)
    assert claims.claim_section_4(cfg).status == "pass"
    assert sorted(calls) == [(m, t) for m in range(5) for t in range(1, 4)]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_simples_pd_walks_each_simple_once(monkeypatch, r):
    # r + 1 chain simples and five loop simples, each walked at the top
    # level's cutoff; every level's check is cut from that walk.
    from biserial import claims
    from biserial.homology import projdim

    cutoffs = []

    def counting(module, **kwargs):
        cutoffs.append(kwargs["cutoff"])
        return projdim(module, **kwargs)

    monkeypatch.setattr(claims, "projdim", counting)
    cfg = FamilyConfig(r=r, m_max=3, seed=3)
    report = claims.claim_simples_pd(cfg)
    assert report.status == "pass"
    assert cutoffs == [cfg.chain_cutoff(cfg.m_max)] * (r + 6)
    assert len(report.checks) == (r + 6) * (cfg.m_max + 1)


def _ledger_reports(monkeypatch, cfg):
    """Every (m, t) of the config's ledger: its report, the report a walk
    of the syzygy chain gives, and whether the ledger walked."""
    from biserial import claims
    from biserial.homology import projdim

    walked = []

    def counting(module, **kwargs):
        walked.append(module)
        return projdim(module, **kwargs)

    monkeypatch.setattr(claims, "projdim", counting)
    ledger = cfg._ledger
    out = {}
    for m in range(cfg.m_max + 1):
        for t in range(1, cfg.t_max + 1):
            before = len(walked)
            report = ledger.pd(m, t)
            walk = projdim(ledger.member(m, t), cutoff=cfg.chain_cutoff(m),
                           seed=cfg.seed, trials=cfg.trials)
            out[m, t] = report, walk, len(walked) > before
    return out


@pytest.mark.parametrize("field", ["q", "fp:101"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_ledger_induced_pd_equals_walked_chain(monkeypatch, r, field):
    # Above level 0 every report is induced from the level below and the
    # certified Omega(Z_m[t]) = Z_{m-1}[t]; it must be the walk's report,
    # field by field, chain included.
    cfg = FamilyConfig(r=r, m_max=6, t_max=3, field_spec=field, seed=5)
    for (m, t), (report, walk, was_walked) in _ledger_reports(monkeypatch, cfg).items():
        assert report == walk and report.verdict == "finite", (m, t)
        assert report.value == r + m and report.iso is None
        assert was_walked == (m == 0), (m, t)


def test_ledger_walks_every_level_with_no_iso_trials(monkeypatch):
    # trials 0 certifies no iso between nonzero modules: no induction.
    cfg = FamilyConfig(r=2, m_max=4, t_max=3, seed=3, trials=0)
    reports = _ledger_reports(monkeypatch, cfg)
    assert all(cfg._ledger.iso(m, t).status == "not_found"
               for m in range(cfg.m_max) for t in range(1, cfg.t_max + 1))
    for key, (report, walk, was_walked) in reports.items():
        assert was_walked and report == walk, key


def test_ledger_walks_where_the_cutoff_is_too_short(monkeypatch):
    # With cutoff r + 3 the chain of Z_m reaches zero at step r + m + 1,
    # so levels 0..2 are finite and level 3 up is inconclusive.  Level 2
    # is induced (its walk needs r + 3 steps); level 3 is induced and cut
    # to the cutoff; level 4, whose previous report is not finite, walks.
    cfg = FamilyConfig(r=2, m_max=4, t_max=2, seed=3, cutoff=5)
    for (m, t), (report, walk, was_walked) in _ledger_reports(monkeypatch, cfg).items():
        assert report == walk, (m, t)
        assert was_walked == (m in (0, 4)), (m, t)
        assert report.verdict == ("finite" if m <= 2 else "inconclusive")


def test_ledger_walks_after_an_inconclusive_iso(monkeypatch):
    # One trial over GF(2) misses some isomorphisms; a level above a miss
    # walks its chain, and the others are still induced.
    cfg = FamilyConfig(r=1, m_max=3, t_max=2, field_spec="fp:2", seed=3, trials=1)
    reports = _ledger_reports(monkeypatch, cfg)
    missed = {(m + 1, t) for m in range(cfg.m_max) for t in (1, 2)
              if cfg._ledger.iso(m, t).status != "iso"}
    assert {key for key in missed if key[0] > 1}  # a miss above level 0
    for (m, t), (report, walk, was_walked) in reports.items():
        assert report == walk and report.verdict == "finite", (m, t)
        assert was_walked == (m == 0 or (m, t) in missed), (m, t)
