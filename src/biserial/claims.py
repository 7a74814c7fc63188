"""Verification scenarios: each claim reproduces one family-level fact
and reports Pass/Fail/Inconclusive with machine-checkable evidence.

Claim catalog (ids are the CLI surface):

* ``simples-pd``       chain simples have pd r-i; the five loop simples
                       have certified infinite pd, over every level in range.
* ``prop-2``           the witness tower: the syzygy of each witness is the
                       previous one (certified), and pd Z_m = r+m exactly,
                       proved by induction along the tower (below).
* ``lemma-1``          the ten c2-strings have infinite pd; the loop simples
                       named by the splitting argument appear as summands of
                       the second or third syzygy, with split-pair witnesses.
* ``lemma-2``          randomized sweep of certified splittings
                       M = X (+) P(c2)^a (+) M' with M' at level one; a
                       c2-free M is its own M', certified by the identity.
* ``corollary-3``      sampled certified-finite-pd level-2 modules have
                       syzygies supported at level one.
* ``syzygy-descent``   syzygies drop one level (level 2 drops to the pruned
                       algebra), sampled at every level in range.
* ``section-4``        the direct-system members: syzygy isos, exact pd,
                       connecting-map kernels, and composite-kernel sanity.
* ``appendix-projectives``  dimension vectors and radical filtrations of all
                       level-5 projectives match the transcribed tables.
* ``findim-witness``   assembles the lower bound r+m (witness) plus the
                       sampled structural evidence for the upper bound.

A Pass requires every sub-check to carry a verified certificate; failures
are reported, never thrown.

prop-2, section-4 and findim-witness read the tower members Z_m[t] (the
witness Z_m is Z_m[1]) from one ``_TowerLedger`` per config.  It holds, by
(m, t), the iso decision of Omega(Z_{m+1}[t]) against Z_m[t], one
``decide_iso`` call that every claim reading it shares (the call is
deterministic in the two contents, the seed and the trials), and the pd
report of Z_m[t].  Level 0 walks the syzygy chain.  Level m >= 1 is proved
by induction when the level m-1 decision is ``iso`` and its report is
Finite(v): Omega(Z_m[t]) is then nonzero and certified isomorphic to
Z_{m-1}[t], minimal syzygies are isomorphism invariants and pd M =
pd Omega(M) + 1 for M not projective, so a walk with no cutoff would print
exactly the chain [dim Z_m[t]] + the previous chain, and Finite(v + 1) (it
cannot certify a cycle in a chain that reaches zero).  That report is cut
to the level's cutoff (``PdReport.truncated``), which is what the walk at
that cutoff prints.  Any other case walks the full chain, so no check
passes without a certified chain.

simples-pd walks each simple's chain once, at level m_max's cutoff, the
largest, and cuts each level's report from it in the same way.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from . import InputError
from .families import (build_lambda, build_lambda1prime, certify_tower,
                       lambda_vertices, vname)
from .fields import field_from_spec
from .homology import (IsoDecision, PdReport, decide_iso, kernel_of, projdim,
                       radical_filtration, record_digest, split_off, syzygy)
from .decomp import CertificateFailure, lemma2_split, xset
from .reps import Algebra, Representation, random_module
from .witnesses import (build_U, build_Zt, build_phi,
                        sample_finite_pd_modules)

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


class ConfigError(InputError):
    """A verify parameter outside its allowed range."""


class FamilyConfig:
    def __init__(self, r: int = 1, m_max: int = 3, t_max: int = 3, field_spec: str = "q",
                 seed: int = 0, cutoff: Optional[int] = None, samples: int = 100,
                 max_dim: int = 40, trials: Optional[int] = None):
        self.r, self.m_max, self.t_max, self.field_spec = r, m_max, t_max, field_spec
        self.seed, self.cutoff, self.samples = seed, cutoff, samples
        self.max_dim, self.trials = max_dim, trials
        # Algebras built for this configuration, by (family, level); see algebra().
        self._algebras: Dict[Tuple[str, Optional[int]], Algebra] = {}
        if self.r < 1:
            raise ConfigError("r must be at least 1")
        if self.m_max < 0:
            raise ConfigError("m_max must be nonnegative")
        if self.t_max < 1:
            raise ConfigError("t_max must be at least 1")
        if self.samples < 0:
            raise ConfigError("samples must be nonnegative")
        if self.max_dim < 0:
            raise ConfigError("max_dim must be nonnegative")
        if self.cutoff is not None and self.cutoff < 1:
            raise ConfigError("cutoff must be at least 1")
        if self.trials is not None and self.trials < 0:
            raise ConfigError("trials must be nonnegative")
        # Parsed once: every algebra of this config shares the field.
        self.field = field_from_spec(field_spec)

    def algebra(self, family: str, m: Optional[int] = None) -> Algebra:
        """``lambda(r, m)`` for family ``lambda``, the pruned level-2
        algebra for ``lambda1prime`` (no level), over the config's field.

        Built on the first request and kept for the life of the config, so
        claims run with one config share algebras, their path bases and
        their memoized projectives and syzygies.  Samplers ask for their
        own level: their random draws read its vertex list.
        """
        key = (family, m)
        if key not in self._algebras:
            pres = (build_lambda(self.r, m) if family == "lambda"
                    else build_lambda1prime(self.r))
            if key == ("lambda", self.m_max + 1):
                certify_tower(self.r, self.m_max, pres)
            self._algebras[key] = Algebra(pres, field=self.field)
        return self._algebras[key]

    def tower(self) -> Algebra:
        """``lambda(r, m_max + 1)``, on which the witness claims build every
        level's modules, so one syzygy memo serves all levels.  Its
        presentation is certified (``certify_tower``) when first built, so
        a check "over level m" means the same over it as over lambda(r, m).
        """
        return self.algebra("lambda", self.m_max + 1)

    @cached_property
    def _ledger(self) -> "_TowerLedger":
        """The tower's iso decisions and pd reports, shared by every claim
        run with this config."""
        return _TowerLedger(self)

    def chain_cutoff(self, m: int) -> int:
        return self.cutoff if self.cutoff is not None else self.r + m + 4

    def to_record(self) -> dict:
        return {
            "r": self.r, "m_max": self.m_max, "t_max": self.t_max,
            "field": self.field_spec, "seed": self.seed,
            "cutoff": self.cutoff, "samples": self.samples,
            "max_dim": self.max_dim, "trials": self.trials,
        }


class CheckResult:
    def __init__(self, name: str, status: str, evidence: Optional[dict] = None):
        self.name, self.status = name, status
        self.evidence = {} if evidence is None else evidence


class ClaimReport:
    def __init__(self, claim_id: str, status: str, checks: List[CheckResult],
                 config: FamilyConfig):
        self.claim_id, self.status, self.checks, self.config = claim_id, status, checks, config

    def to_record(self) -> dict:
        """The claim as a JSON record.  Every check carries the digest of
        its evidence; a check that did not pass carries the evidence too,
        so the record alone says why."""
        checks = []
        for c in self.checks:
            rec = {"name": c.name, "status": c.status,
                   "digest": record_digest(c.evidence)}
            if c.status != PASS:
                rec["evidence"] = c.evidence
            checks.append(rec)
        return {
            "claim": self.claim_id,
            "status": self.status,
            "config": self.config.to_record(),
            "checks": checks,
        }

    def describe(self) -> str:
        lines = [f"claim {self.claim_id}: {self.status.upper()} "
                 f"({len(self.checks)} checks)"]
        for c in self.checks:
            if c.status != PASS:
                lines.append(f"  {c.status.upper()}: {c.name}  {c.evidence}")
        return "\n".join(lines)


def _aggregate(checks: List[CheckResult]) -> str:
    if any(c.status == FAIL for c in checks):
        return FAIL
    if any(c.status == INCONCLUSIVE for c in checks):
        return INCONCLUSIVE
    return PASS


def _sampled_status(samples: int, failures: int) -> str:
    """A sweep over zero samples proves nothing: it is inconclusive."""
    if failures:
        return FAIL
    return PASS if samples else INCONCLUSIVE


def _iso_result(name: str, decision: IsoDecision, evidence: dict) -> CheckResult:
    """PASS with a certified isomorphism M -> N, FAIL on a sound negative,
    and INCONCLUSIVE, with the trials spent, when the random search missed,
    which proves nothing."""
    if decision.status == "iso":
        return CheckResult(name, PASS, evidence)
    if decision.status == "not_iso":
        return CheckResult(name, FAIL, {**evidence, "reason": decision.reason})
    return CheckResult(name, INCONCLUSIVE, {
        **evidence, "reason": decision.reason, "iso_trials": decision.trials})


def _verdict_check(name: str, report, expected: Optional[int]) -> CheckResult:
    """Expected None means: require a certified infinite verdict."""
    ev = report.to_record()
    if expected is None:
        ok = report.verdict == "infinite"
        return CheckResult(name, PASS if ok else
                           (INCONCLUSIVE if report.verdict == "inconclusive" else FAIL), ev)
    if report.verdict == "finite" and report.value == expected:
        return CheckResult(name, PASS, ev)
    if report.verdict == "inconclusive":
        return CheckResult(name, INCONCLUSIVE, ev)
    return CheckResult(name, FAIL, ev)


class _TowerLedger:
    """The members Z_m[t] of a config's tower, the iso decision of
    Omega(Z_{m+1}[t]) against Z_m[t] and the pd report of Z_m[t], each
    computed once; see the module docstring for the induction."""

    def __init__(self, config: FamilyConfig):
        self.config = config
        self.tower = config.tower()
        self._members: Dict[Tuple[int, int], Representation] = {}
        self._isos: Dict[Tuple[int, int], IsoDecision] = {}
        self._reports: Dict[Tuple[int, int], PdReport] = {}

    def member(self, m: int, t: int) -> Representation:
        if (m, t) not in self._members:
            self._members[m, t] = build_Zt(self.tower, m, t)
        return self._members[m, t]

    def iso(self, m: int, t: int) -> IsoDecision:
        """``decide_iso(Omega(Z_{m+1}[t]), Z_m[t])``."""
        if (m, t) not in self._isos:
            self._isos[m, t] = decide_iso(
                syzygy(self.member(m + 1, t)), self.member(m, t),
                trials=self.config.trials, seed=self.config.seed)
        return self._isos[m, t]

    def pd(self, m: int, t: int) -> PdReport:
        """The report ``projdim`` gives Z_m[t] at the level's cutoff:
        induced from level m-1 and cut to the level's cutoff when its
        report is finite and Omega(Z_m[t]) is certified isomorphic to
        Z_{m-1}[t], walked otherwise."""
        if (m, t) not in self._reports:
            config, module = self.config, self.member(m, t)
            prev = self.pd(m - 1, t) if m else None
            if (prev is not None and prev.verdict == "finite"
                    and self.iso(m - 1, t).status == "iso"):
                report = PdReport("finite", [module.dim_vector()] + prev.chain,
                                  value=prev.value + 1, seed=config.seed)
                report = report.truncated(config.chain_cutoff(m))
            else:
                report = projdim(module, cutoff=config.chain_cutoff(m),
                                 seed=config.seed, trials=config.trials)
            self._reports[m, t] = report
        return self._reports[m, t]


# -- individual claims -------------------------------------------------------


def claim_simples_pd(config: FamilyConfig) -> ClaimReport:
    """Each simple's chain is walked once, at the top level's cutoff, and
    every level's report is cut from that walk (``PdReport.truncated``)."""
    tower, top = config.tower(), config.chain_cutoff(config.m_max)
    expected = {vname("d", i): config.r - i for i in range(config.r + 1)}
    expected.update(dict.fromkeys(["u", "v", "w", "cm1", "bm1"]))
    walks = {v: projdim(tower.simple(v), cutoff=top, seed=config.seed, trials=config.trials)
             for v in expected}
    checks = [_verdict_check(
        f"pd {v} infinite over level {m}" if pd is None else f"pd {v} = {pd} over level {m}",
        walks[v].truncated(config.chain_cutoff(m)), pd)
        for m in range(config.m_max + 1) for v, pd in expected.items()]
    return ClaimReport("simples-pd", _aggregate(checks), checks, config)


def claim_prop_2(config: FamilyConfig) -> ClaimReport:
    checks: List[CheckResult] = []
    ledger = config._ledger
    for m in range(config.m_max + 1):
        z_here = ledger.member(m, 1)
        omega = syzygy(ledger.member(m + 1, 1))
        checks.append(_iso_result(
            f"syzygy of witness {m + 1} is witness {m} (certified)",
            ledger.iso(m, 1),
            {"omega_dims": list(omega.dim_vector()),
             "witness_dims": list(z_here.dim_vector())}))
        checks.append(_verdict_check(
            f"pd witness {m} = {config.r + m}", ledger.pd(m, 1), config.r + m))
        if m >= 1:
            below = set(lambda_vertices(config.r, m - 1))
            checks.append(CheckResult(
                f"witness {m} uses level {m} properly",
                PASS if not z_here.supported_on(below) else FAIL,
                {"support": z_here.support()}))
    return ClaimReport("prop-2", _aggregate(checks), checks, config)


def claim_lemma_1(config: FamilyConfig) -> ClaimReport:
    checks: List[CheckResult] = []
    alg = config.algebra("lambda1prime")
    members = xset(alg)
    for idx, x in enumerate(members, start=1):
        rep = projdim(x, cutoff=max(config.chain_cutoff(2), 8), seed=config.seed,
                      trials=config.trials)
        checks.append(_verdict_check(f"pd of c2-string {idx} infinite", rep, None))
        if idx <= 5:
            vertex, nth, target = "cm1", "second", syzygy(syzygy(x))
        else:
            vertex, nth, target = "v", "third", syzygy(syzygy(syzygy(x)))
        found = split_off(alg.simple(vertex), target) is not None
        checks.append(CheckResult(
            f"{vertex} splits off {nth} syzygy of string {idx}", PASS if found else FAIL,
            {"target_dims": list(target.dim_vector()), "split_pair": found}))
    return ClaimReport("lemma-1", _aggregate(checks), checks, config)


def claim_lemma_2(config: FamilyConfig) -> ClaimReport:
    checks: List[CheckResult] = []
    alg = config.algebra("lambda1prime")
    level1 = set(lambda_vertices(config.r, 1))
    rng = random.Random(f"lemma2:{config.seed}")
    failures = 0
    total_x = 0
    total_a = 0
    nonzero = 0
    for k in range(config.samples):
        budget = rng.randint(0, config.max_dim)
        module = random_module(alg, seed=config.seed * 100003 + k, budget=budget)
        nonzero += not module.is_zero()
        try:
            split = lemma2_split(module)
        except CertificateFailure as exc:
            failures += 1
            checks.append(CheckResult(f"split sample {k}", FAIL,
                                      {"error": str(exc)}))
            continue
        ok = split.m_prime.supported_on(level1)
        total_x += sum(split.x_multiplicities)
        total_a += split.a
        if not ok:
            failures += 1
            checks.append(CheckResult(f"split sample {k}", FAIL,
                                      {"m_prime_support": split.m_prime.support()}))
    evidence = {"samples": config.samples, "failures": failures,
                "c2_string_summands_seen": total_x, "projective_copies_seen": total_a}
    name = f"{config.samples} random splittings verified, complements at level 1"
    if not nonzero:  # every sample was the zero module: nothing was split
        evidence["nonzero_samples"] = 0
        name = f"{config.samples} random samples, no nonzero sample drawn: no splitting verified"
    checks.insert(0, CheckResult(name, _sampled_status(nonzero, failures), evidence))
    return ClaimReport("lemma-2", _aggregate(checks), checks, config)


def claim_corollary_3(config: FamilyConfig) -> ClaimReport:
    checks: List[CheckResult] = []
    alg = config.algebra("lambda", 2)
    level1 = set(lambda_vertices(config.r, 1))
    count = config.samples
    samples = sample_finite_pd_modules(alg, count, seed=config.seed,
                                       max_dim=max(config.max_dim, 60))
    bad = 0
    for idx, (_, report) in enumerate(samples):
        # The sampler's pd chain already holds the syzygy's dimension vector.
        support = [v for v, _ in report.chain[1]]
        if not level1.issuperset(support):
            bad += 1
            checks.append(CheckResult(
                f"sample {idx} syzygy escapes level 1", FAIL,
                {"support": support, "pd": report.value}))
    checks.insert(0, CheckResult(
        f"{count} finite-pd modules: syzygy supported at level 1",
        _sampled_status(count, bad),
        {"samples": count, "failures": bad}))
    return ClaimReport("corollary-3", _aggregate(checks), checks, config)


def claim_syzygy_descent(config: FamilyConfig) -> ClaimReport:
    checks: List[CheckResult] = []
    per_level = max(4, config.samples // 10)
    for m in range(1, config.m_max + 1):
        alg = config.algebra("lambda", m)
        if m == 2:
            target = set(lambda_vertices(config.r, 2)) - {"a2", "b2"}
            label = "the pruned level-2 algebra"
        else:
            target = set(lambda_vertices(config.r, m - 1))
            label = f"level {m - 1}"
        bad = 0
        for k in range(per_level):
            module = random_module(alg, seed=config.seed * 7919 + m * 101 + k,
                                   budget=25)
            if not syzygy(module).supported_on(target):
                bad += 1
        checks.append(CheckResult(
            f"syzygies over level {m} land in {label} ({per_level} samples)",
            PASS if bad == 0 else FAIL, {"failures": bad}))
    if not checks:  # m_max 0: no level was sampled, so nothing was checked
        checks.append(CheckResult("no level in 1..m_max: no syzygy sampled", INCONCLUSIVE,
                                  {"m_max": config.m_max}))
    return ClaimReport("syzygy-descent", _aggregate(checks), checks, config)


def claim_section_4(config: FamilyConfig) -> ClaimReport:
    checks: List[CheckResult] = []
    ledger = config._ledger
    tower = config.tower()
    for m in range(config.m_max + 1):
        phi_next = None
        for t in range(1, config.t_max + 1):
            zt = ledger.member(m, t)
            if t == 1:
                checks.append(_iso_result(
                    f"member (m={m}, t=1) is the witness",
                    decide_iso(zt, ledger.member(m, 1), trials=config.trials,
                               seed=config.seed), {}))
            checks.append(_iso_result(
                f"syzygy of member (m={m + 1}, t={t}) is member (m={m}, t={t})",
                ledger.iso(m, t), {"dims": list(zt.dim_vector())}))
            checks.append(_verdict_check(
                f"pd member (m={m}, t={t}) = {config.r + m}", ledger.pd(m, t),
                config.r + m))
            # The previous t built this map for its composite check.
            phi = phi_next if phi_next is not None else build_phi(tower, m, t)
            ker, incl = kernel_of(phi)
            u_expected = build_U(tower, m, t)
            checks.append(_iso_result(
                f"kernel of connecting map (m={m}, t={t}) as expected",
                decide_iso(ker, u_expected, trials=config.trials, seed=config.seed),
                {"kernel_dims": list(ker.dim_vector()),
                 "expected_dims": list(u_expected.dim_vector())}))
            if t + 1 <= config.t_max:
                phi_next = build_phi(tower, m, t + 1)
                composite = phi_next.compose(phi)
                ker2, _ = kernel_of(composite)
                contained = composite.compose(incl).is_zero()
                checks.append(CheckResult(
                    f"composite kernel contains first kernel (m={m}, t={t})",
                    PASS if contained else FAIL,
                    {"first": ker.total_dim(), "composite": ker2.total_dim()}))
    return ClaimReport("section-4", _aggregate(checks), checks, config)


APPENDIX_LAYERS: Dict[str, List[Dict[str, int]]] = {
    "u": [{"u": 1}, {"u": 1}],
    "v": [{"v": 1}, {"v": 1}],
    "w": [{"w": 1}, {"w": 1}],
    "bm1": [{"bm1": 1}, {"bm1": 1}],
    "cm1": [{"cm1": 1}, {"cm1": 1}],
    "a0": [{"a0": 1}, {"c0": 1, "u": 1}, {"cm1": 1}],
    "b0": [{"b0": 1}, {"bm1": 1, "v": 1}],
    "c0": [{"c0": 1}, {"cm1": 1, "w": 1}],
    "a1": [{"a1": 1}, {"d0": 1, "a0": 1}, {"u": 1}],
    "b1": [{"b1": 1}, {"b0": 1, "c0": 1}, {"bm1": 1, "w": 1}],
    "c1": [{"c1": 1}, {"a0": 1, "b0": 1}, {"c0": 1, "v": 1}, {"cm1": 1}],
    "a2": [{"a2": 1}, {"c2": 1, "a1": 1}, {"c1": 1}, {"a0": 1}],
    "b2": [{"b2": 1}, {"b1": 1, "c1": 1}, {"b0": 1}],
    "c2": [{"c2": 1}, {"c1": 1, "b1": 1}, {"a0": 1}, {"c0": 1}],
    "a3": [{"a3": 1}, {"a2": 1, "b2": 1}, {"c2": 1}, {"c1": 1}],
    "b3": [{"b3": 1}, {"b2": 1, "c2": 1}, {"b1": 1}],
    "a4": [{"a4": 1}, {"b3": 1, "a3": 1}, {"b2": 1}],
    "b4": [{"b4": 1}, {"a3": 1, "b3": 1}, {"a2": 1}, {"c2": 1}],
    "a5": [{"a5": 1}, {"a4": 1, "b4": 1}, {"b3": 1}],
    "b5": [{"b5": 1}, {"b4": 1, "a4": 1}, {"a3": 1}],
}


def expected_projective_layers(r: int) -> Dict[str, List[Dict[str, int]]]:
    """Transcribed level-5 projective shapes, chain part dependent on r."""
    out = dict(APPENDIX_LAYERS)
    for i in range(r):
        out[vname("d", i)] = [{vname("d", i): 1}, {vname("d", i + 1): 1}]
    out[vname("d", r)] = [{vname("d", r): 1}]
    return out


def claim_appendix_projectives(config: FamilyConfig) -> ClaimReport:
    checks: List[CheckResult] = []
    alg = config.algebra("lambda", 5)
    expected = expected_projective_layers(config.r)
    for v in alg.vertices:
        proj = alg.projective(v)
        layers = radical_filtration(proj)
        want = expected[v]
        ok = layers == want
        checks.append(CheckResult(
            f"projective at {v} matches its diagram",
            PASS if ok else FAIL,
            {"computed": layers, "expected": want}))
    return ClaimReport("appendix-projectives", _aggregate(checks), checks, config)


def claim_findim_witness(config: FamilyConfig) -> ClaimReport:
    checks: List[CheckResult] = []
    for m in range(config.m_max + 1):
        checks.append(_verdict_check(
            f"lower bound witness: pd = {config.r + m} at level {m}",
            config._ledger.pd(m, 1), config.r + m))
    # Sampled upper-bound evidence at level 2: finite pd never exceeds r+2.
    alg2 = config.algebra("lambda", 2)
    count = max(10, config.samples // 5)
    samples = sample_finite_pd_modules(alg2, count, seed=config.seed)
    worst = max(report.value for _, report in samples)
    checks.append(CheckResult(
        f"sampled finite-pd level-2 modules have pd <= {config.r + 2} "
        f"({count} samples)",
        PASS if worst <= config.r + 2 else FAIL,
        {"worst_pd": worst, "samples": count}))
    return ClaimReport("findim-witness", _aggregate(checks), checks, config)


CLAIMS: Dict[str, Callable[[FamilyConfig], ClaimReport]] = {
    "simples-pd": claim_simples_pd,
    "prop-2": claim_prop_2,
    "lemma-1": claim_lemma_1,
    "lemma-2": claim_lemma_2,
    "corollary-3": claim_corollary_3,
    "syzygy-descent": claim_syzygy_descent,
    "section-4": claim_section_4,
    "appendix-projectives": claim_appendix_projectives,
    "findim-witness": claim_findim_witness,
}


def run_claim(claim_id: str, config: FamilyConfig) -> ClaimReport:
    if claim_id not in CLAIMS:
        raise KeyError(f"unknown claim {claim_id!r}; known: {', '.join(CLAIMS)}")
    return CLAIMS[claim_id](config)
