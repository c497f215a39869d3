"""Acceptance gate: eight end-to-end checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Tolerances and replicate counts are fixed; seeds make
every statistical check reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as st

from curecheck.assessment import (
    VERDICT_APPROPRIATE,
    AssessmentConfig,
    deviance_cure_test,
    receus_assess,
    receus_components,
    verdict_from_flags,
)
from curecheck.diagnostics import alpha_n_test
from curecheck.models import (
    FAMILIES,
    FamilySpec,
    Params,
    aic_value,
    fit_model,
    latency_quantile,
    log_likelihood,
    wald_intervals,
)
from curecheck.simulate import (
    AdministrativeCensoring,
    CompositeCensoring,
    SimulationConfig,
    UniformCensoring,
    restrict_followup,
    simulate_mixture,
)
from curecheck.survival import kaplan_meier, validate_sample


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def _recovery_config(i: int) -> SimulationConfig:
    return SimulationConfig(
        n=1000,
        cure_fraction=0.40,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=CompositeCensoring(7.3, 14.6),
        seed=20000 + i,
    )


def test_criterion_1_worked_example_quantities():
    """Fixed parameter values reproduce the published assessment numbers."""
    spec = FamilySpec("weibull", cure=True)
    params = Params(latency=(0.8133, 0.8052), cure_fraction=0.3976)
    s0, s, r = receus_components(spec, params, 7.28)
    ok_s0 = abs(s0 - 0.00249) <= 5e-5
    ok_s = abs(s - 0.3991) <= 5e-4
    ok_r = abs(r - 0.00625) <= 1e-4
    verdict = verdict_from_flags(True, 0.3976 > 0.025, r < 0.05)
    ok_v = verdict == VERDICT_APPROPRIATE
    ok = ok_s0 and ok_s and ok_r and ok_v
    _line(1, ok, f"S0={s0:.6f} S={s:.6f} r={r:.6f} verdict={verdict}")
    assert ok_s0, f"S0(7.28) = {s0}, want 0.00249 +- 5e-5"
    assert ok_s, f"S(7.28) = {s}, want 0.3991 +- 5e-4"
    assert ok_r, f"r = {r}, want 0.00625 +- 1e-4"
    assert ok_v, f"verdict = {verdict}"


def test_criterion_2_aic_identity():
    """AIC arithmetic matches the published value for k=3, loglik=-265.9932."""
    got = aic_value(3, -265.9932)
    ok = abs(got - 537.9864) <= 1e-3
    _line(2, ok, f"aic(3, -265.9932) = {got:.4f}")
    assert ok, got


def _km_brute_force(records):
    times = [t for t, _ in records]
    out = []
    surv = 1.0
    for u in sorted({t for t, e in records if e}):
        d = sum(1 for t, e in records if e and t == u)
        r = sum(1 for t in times if t >= u)
        surv *= 1.0 - d / r
        out.append((u, r, d, surv))
    return out


_SCIPY = {
    "exponential": lambda th: st.expon(scale=1.0 / th[0]),
    "weibull": lambda th: st.weibull_min(th[0], scale=th[1]),
    "gamma": lambda th: st.gamma(th[0], scale=1.0 / th[1]),
    "loglogistic": lambda th: st.fisk(th[0], scale=th[1]),
    "lognormal": lambda th: st.lognorm(th[1], scale=th[0]),
}


def test_criterion_3_oracle_equivalence():
    """KM matches brute force bitwise; likelihood matches naive summation."""
    t0 = time.time()
    rng = np.random.default_rng(1003)
    km_checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        times = rng.integers(0, 12, size=n) * 0.5
        events = rng.random(n) < 0.6
        records = list(zip(times.tolist(), events.tolist()))
        curve = kaplan_meier(validate_sample(records))
        want = _km_brute_force(records)
        assert len(curve.steps) == len(want)
        for step, (u, r, d, surv) in zip(curve.steps, want):
            assert (step.time, step.n_at_risk, step.n_events) == (u, r, d)
            assert step.survival == surv  # bitwise
        km_checked += 1
    km_elapsed = time.time() - t0

    t0 = time.time()
    ll_checked = 0
    worst = 0.0
    for _ in range(100):
        family = FAMILIES[rng.integers(len(FAMILIES))]
        cure = bool(rng.integers(2))
        spec = FamilySpec(family, cure=cure)
        if family == "exponential":
            theta = (float(rng.uniform(0.3, 3.0)),)
        elif family == "lognormal":
            theta = (float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 2.0)))
        else:
            theta = (float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.3, 3.0)))
        params = Params(
            latency=theta, cure_fraction=float(rng.uniform(0.05, 0.9)) if cure else None
        )
        n = int(rng.integers(5, 60))
        times = rng.exponential(scale=1.2, size=n) + 1e-6
        events = rng.random(n) < 0.6
        sample = validate_sample(list(zip(times.tolist(), events.tolist())))
        got = log_likelihood(spec, params, sample)
        dist = _SCIPY[family](theta)
        c = params.cure_fraction if cure else 0.0
        naive = 0.0
        for t, e in sample.records:
            if e:
                naive += (math.log(1.0 - c) if cure else 0.0) + dist.logpdf(t)
            else:
                naive += math.log(c + (1.0 - c) * dist.sf(t)) if cure else dist.logsf(t)
        err = abs(got - naive) / max(1.0, abs(naive))
        worst = max(worst, err)
        assert err <= 1e-10, (spec.label, err)
        ll_checked += 1
    ll_elapsed = time.time() - t0

    ok = km_checked == 1000 and ll_checked == 100 and km_elapsed < 5 and ll_elapsed < 5
    _line(
        3,
        ok,
        f"km {km_checked}/1000 bitwise in {km_elapsed:.1f}s; "
        f"loglik {ll_checked}/100 worst rel err {worst:.2e} in {ll_elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_parameter_recovery():
    """Weibull-cure refits recover the simulated 0.40 cure fraction."""
    hits = 0
    for i in range(200):
        sample, _ = simulate_mixture(_recovery_config(i))
        fit = fit_model(sample, FamilySpec("weibull", cure=True))
        if fit.converged and abs(fit.params.cure_fraction - 0.40) <= 0.05:
            hits += 1
    ok = hits >= 180
    _line(4, ok, f"cure fraction within +-0.05 in {hits}/200 replicates (need >= 180)")
    assert ok, hits


def test_criterion_5_truncation_changes_the_verdict():
    """Full follow-up reads appropriate; follow-up cut at the latency 40th
    percentile must not."""
    t40 = latency_quantile("weibull", (0.8, 0.8), 0.4)
    cfg = AssessmentConfig(families=("weibull",))
    full_ok = trunc_ok = 0
    for i in range(200):
        sample, _ = simulate_mixture(_recovery_config(i))
        if receus_assess(sample, cfg).verdict == VERDICT_APPROPRIATE:
            full_ok += 1
        truncated = restrict_followup(sample, t40)
        if receus_assess(truncated, cfg).verdict != VERDICT_APPROPRIATE:
            trunc_ok += 1
    ok = full_ok >= 180 and trunc_ok >= 160
    _line(
        5,
        ok,
        f"appropriate {full_ok}/200 with full follow-up (need >= 180); "
        f"not appropriate {trunc_ok}/200 after truncation (need >= 160)",
    )
    assert ok, (full_ok, trunc_ok)


def test_criterion_6_followup_test_directionality():
    """alpha_n reads sufficient under long follow-up and insufficient after
    truncation; exact rates are logged rather than tightly asserted."""
    t999 = latency_quantile("weibull", (0.8, 0.8), 0.999)
    t40 = latency_quantile("weibull", (0.8, 0.8), 0.4)
    sufficient = insufficient = 0
    for i in range(200):
        cfg = SimulationConfig(
            n=200,
            cure_fraction=0.4,
            family="weibull",
            latency=(0.8, 0.8),
            censoring=AdministrativeCensoring(2.0 * t999),
            seed=1000 + i,
        )
        sample, _ = simulate_mixture(cfg)
        if alpha_n_test(sample).sufficient_followup:
            sufficient += 1
        if not alpha_n_test(restrict_followup(sample, t40)).sufficient_followup:
            insufficient += 1
    ok = sufficient > 100 and insufficient >= 160
    _line(
        6,
        ok,
        f"sufficient {sufficient}/200 with long follow-up (need majority); "
        f"insufficient {insufficient}/200 after truncation (need >= 160)",
    )
    assert ok, (sufficient, insufficient)


def test_criterion_7_deviance_null_behaviour():
    """Without a cured fraction in truth the deviance test rarely rejects."""
    keep = 0
    for i in range(200):
        cfg = SimulationConfig(
            n=200,
            cure_fraction=0.0,
            family="weibull",
            latency=(0.8, 0.8),
            censoring=UniformCensoring(6.4),
            seed=40000 + i,
        )
        sample, _ = simulate_mixture(cfg)
        res = deviance_cure_test(sample, family="weibull")
        if res.deviance_p_value is not None and res.deviance_p_value > 0.05:
            keep += 1
    ok = keep >= 180
    _line(7, ok, f"p > 0.05 in {keep}/200 null replicates (need >= 180)")
    assert ok, keep


def test_criterion_8_property_suite():
    """Scale invariance, AIC-difference invariance, internal identities,
    vanishing gradients, and Wald coverage, in one run."""
    sim = SimulationConfig(
        n=500,
        cure_fraction=0.4,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=CompositeCensoring(7.3, 14.6),
        seed=90001,
    )
    sample, _ = simulate_mixture(sim)

    # (a) verdicts and alpha_n invariant under time rescaling
    base = receus_assess(sample, AssessmentConfig(families=("weibull",)))
    rng = np.random.default_rng(8)
    scale_ok = True
    for _ in range(6):
        c = float(10.0 ** rng.uniform(-3, 3))
        other = receus_assess(sample.scaled(c), AssessmentConfig(families=("weibull",)))
        scale_ok &= other.verdict == base.verdict
        scale_ok &= other.followup_test.alpha_n == base.followup_test.alpha_n

    # (b) AIC differences invariant under rescaling (tol 1e-3)
    c = 365.25
    scaled = sample.scaled(c)
    aic_ok = True
    fams = ("exponential", "weibull", "loglogistic")
    base_aics = {}
    scaled_aics = {}
    for fam in fams:
        for cure in (False, True):
            spec = FamilySpec(fam, cure=cure)
            base_aics[spec.label] = fit_model(sample, spec).aic
            scaled_aics[spec.label] = fit_model(scaled, spec).aic
    labels = list(base_aics)
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            aic_ok &= abs(
                (base_aics[a] - base_aics[b]) - (scaled_aics[a] - scaled_aics[b])
            ) <= 1e-3

    # (c) internal identities to 1e-12
    cval = base.cure_fraction
    id_ok = abs(base.s_at_tau - (cval + (1 - cval) * base.s0_at_tau)) <= 1e-12
    id_ok &= abs(base.r_hat - base.s0_at_tau / base.s_at_tau) <= 1e-12
    fit = fit_model(sample, FamilySpec("weibull", cure=True))
    id_ok &= aic_value(fit.n_params, fit.log_likelihood) == fit.aic

    # (d) gradient at the optimum below 1e-3 on the transformed scale
    cf = fit.params.cure_fraction
    x = np.array([math.log(cf / (1 - cf))] + [math.log(v) for v in fit.params.latency])

    def ll_at(v):
        p = Params(
            latency=tuple(math.exp(u) for u in v[1:]),
            cure_fraction=1.0 / (1.0 + math.exp(-v[0])),
        )
        return log_likelihood(fit.spec, p, sample)

    grad_ok = True
    h = 1e-5
    worst_g = 0.0
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g = abs((ll_at(xp) - ll_at(xm)) / (2 * h))
        worst_g = max(worst_g, g)
        grad_ok &= g < 1e-3

    # (e) Wald coverage for the exponential rate over 500 replicates
    covered = 0
    for i in range(500):
        cfg = SimulationConfig(
            n=100,
            cure_fraction=0.0,
            family="exponential",
            latency=(1.0,),
            censoring=UniformCensoring(2.0),
            seed=60000 + i,
        )
        s, _ = simulate_mixture(cfg)
        f = fit_model(s, FamilySpec("exponential"))
        lo, hi = wald_intervals(f, level=0.95).intervals["rate"]
        if lo <= 1.0 <= hi:
            covered += 1
    coverage = covered / 500
    cov_ok = 0.90 <= coverage <= 0.99

    ok = scale_ok and aic_ok and id_ok and grad_ok and cov_ok
    _line(
        8,
        ok,
        f"scale-invariance {scale_ok}, aic-diff {aic_ok}, identities {id_ok}, "
        f"max|grad| {worst_g:.1e}, wald coverage {coverage:.3f}",
    )
    assert scale_ok and aic_ok and id_ok and grad_ok
    assert cov_ok, coverage
