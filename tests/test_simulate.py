"""Mixture-model simulation and follow-up truncation."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import records
from scipy import stats as st
from scipy.integrate import trapezoid

from curecheck.diagnostics import alpha_n_test
from curecheck.errors import DomainError, ValidationError
from curecheck.models import FAMILIES, FamilySpec, Params, latency_quantile, latency_survival
from curecheck.simulate import (
    AdministrativeCensoring,
    CompositeCensoring,
    ExponentialCensoring,
    SimulationConfig,
    UniformCensoring,
    restrict_followup,
    simulate_mixture,
)
from curecheck.survival import validate_sample


def _cfg(**kw):
    base = dict(
        n=100,
        cure_fraction=0.4,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=AdministrativeCensoring(7.3),
        seed=1,
    )
    base.update(kw)
    return SimulationConfig(**base)


def _assert_same(a, b):
    assert np.array_equal(a.times, b.times) and np.array_equal(a.events, b.events)


# ---------------------------------------------------------------------------
# config validation

def test_rejects_bad_n():
    for bad in (0, -5, True, 50.0):
        with pytest.raises(ValidationError, match="positive integer"):
            simulate_mixture(_cfg(n=bad))
    _assert_same(simulate_mixture(_cfg(n=np.int64(50)))[0], simulate_mixture(_cfg(n=50))[0])


def test_rejects_bad_cure_fraction():
    for bad in (-0.1, 1.1, math.nan, True, np.int64(2)):
        with pytest.raises(ValidationError, match="cure_fraction"):
            simulate_mixture(_cfg(cure_fraction=bad))
    _assert_same(
        simulate_mixture(_cfg(cure_fraction=np.int64(0)))[0],
        simulate_mixture(_cfg(cure_fraction=0.0))[0],
    )


def test_rejects_bad_latency():
    with pytest.raises(ValidationError):
        simulate_mixture(_cfg(latency=(0.0, 1.0)))
    with pytest.raises(ValidationError):
        simulate_mixture(_cfg(family="nosuch"))
    for bad in ((True, 1.0), (0.8, np.True_), (0.8, "0.8")):
        with pytest.raises(ValidationError, match="latency parameters must be real numbers"):
            simulate_mixture(_cfg(latency=bad))
    _assert_same(
        simulate_mixture(_cfg(latency=(np.float64(0.75), np.int64(1))))[0],
        simulate_mixture(_cfg(latency=(0.75, 1.0)))[0],
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_float32_latency_parameters_compute_in_double(family):
    # The parameters are read as Python floats once: a float32 value gives
    # the sample, and the survival, of its double value, bit for bit.
    lat32 = (np.float32(0.8), np.float32(1.3))[: len(FamilySpec(family).latency_param_names)]
    lat = tuple(float(v) for v in lat32)
    _assert_same(
        simulate_mixture(_cfg(family=family, latency=lat32))[0],
        simulate_mixture(_cfg(family=family, latency=lat))[0],
    )
    spec = FamilySpec(family)
    for t in (np.array([0.0, 0.05, 0.7, 3.0, 40.0]), 0.7):
        s32 = latency_survival(spec, Params(latency=lat32), t)
        assert np.array_equal(s32, latency_survival(spec, Params(latency=lat), t))


def test_rejects_bad_seed():
    for bad in (-1, 1.5, True, np.int64(-3), "7", None):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            simulate_mixture(_cfg(seed=bad))
    _assert_same(simulate_mixture(_cfg(seed=np.int64(9)))[0], simulate_mixture(_cfg(seed=9))[0])


def test_rejects_infinite_administrative_censoring_with_cure():
    with pytest.raises(ValidationError, match="incompatible"):
        simulate_mixture(_cfg(censoring=AdministrativeCensoring(math.inf)))
    # ...but it is fine when nobody is cured
    sample, _ = simulate_mixture(
        _cfg(cure_fraction=0.0, censoring=AdministrativeCensoring(math.inf))
    )
    assert sample.n_events == sample.n


def test_rejects_bad_censoring_parameters():
    with pytest.raises(ValidationError, match="uniform censoring maximum .* got 0.0"):
        simulate_mixture(_cfg(censoring=UniformCensoring(0.0)))
    with pytest.raises(ValidationError, match="exponential censoring rate .* got -1.0"):
        simulate_mixture(_cfg(censoring=ExponentialCensoring(-1.0)))
    with pytest.raises(ValidationError, match="composite censoring dropout_maximum .* got -2.0"):
        simulate_mixture(_cfg(censoring=CompositeCensoring(7.3, -2.0)))
    with pytest.raises(ValidationError, match="composite censoring time .* got inf"):
        simulate_mixture(_cfg(censoring=CompositeCensoring(math.inf, 2.0)))
    with pytest.raises(ValidationError, match="administrative censoring time .* got nan"):
        simulate_mixture(_cfg(censoring=AdministrativeCensoring(math.nan)))
    with pytest.raises(ValidationError, match="unknown censoring"):
        simulate_mixture(_cfg(censoring="weekly phone calls"))
    with pytest.raises(ValidationError, match="administrative censoring time .* got True"):
        simulate_mixture(_cfg(censoring=AdministrativeCensoring(True)))
    with pytest.raises(ValidationError, match="composite censoring dropout_maximum .* got '9'"):
        simulate_mixture(_cfg(censoring=CompositeCensoring(7.3, "9")))


# ---------------------------------------------------------------------------
# distributional checks

def test_no_cure_no_censoring_reproduces_latency_distribution():
    cfg = _cfg(
        n=2000,
        cure_fraction=0.0,
        censoring=AdministrativeCensoring(math.inf),
        seed=31,
    )
    sample, truth = simulate_mixture(cfg)
    assert sample.n_events == 2000
    d = st.kstest(sample.times, st.weibull_min(0.8, scale=0.8).cdf).statistic
    assert d < 0.05
    assert truth.n_cured == 0


def test_everyone_cured_means_everyone_censored():
    sample, truth = simulate_mixture(
        _cfg(n=500, cure_fraction=1.0, censoring=UniformCensoring(5.0), seed=8)
    )
    assert sample.n_events == 0
    assert truth.n_cured == 500
    assert np.all(sample.times <= 5.0)
    sample2, _ = simulate_mixture(
        _cfg(n=50, cure_fraction=1.0, censoring=AdministrativeCensoring(7.0), seed=8)
    )
    assert np.all(sample2.times == 7.0)


def test_censored_share_beyond_cutoff_matches_closed_form():
    # Records censored with time > 6 are exactly the cured ones plus the
    # uncured whose latency exceeds the administrative cutoff 7.3.
    cfg = _cfg(n=100_000, seed=77)
    sample, _ = simulate_mixture(cfg)
    share = float(np.mean((sample.times > 6.0) & ~sample.events))
    want = 0.4 + 0.6 * st.weibull_min(0.8, scale=0.8).sf(7.3)
    assert abs(share - want) < 0.01


def test_event_fraction_matches_quadrature():
    # With dropout U(0, M): P(event) = (1-c) * integral f0(t) (1 - t/M) dt.
    cfg = _cfg(
        n=100_000, cure_fraction=0.3, censoring=UniformCensoring(6.4), seed=13
    )
    sample, _ = simulate_mixture(cfg)
    got = sample.n_events / sample.n
    ts = np.linspace(1e-9, 6.4, 400001)
    integrand = st.weibull_min(0.8, scale=0.8).pdf(ts) * (1.0 - ts / 6.4)
    want = 0.7 * trapezoid(integrand, ts)
    assert got == pytest.approx(want, rel=0.02)


def test_events_only_among_the_uncured():
    for seed in range(5):
        sample, truth = simulate_mixture(_cfg(n=400, seed=seed))
        assert truth.n_cured + truth.n_uncured == 400
        assert truth.n_events == sample.n_events
        assert sample.n_events <= truth.n_uncured


def test_composite_censoring_never_exceeds_administrative_time():
    cfg = _cfg(n=2000, censoring=CompositeCensoring(7.3, 14.6), seed=4)
    sample, truth = simulate_mixture(cfg)
    assert sample.max_time <= 7.3
    assert "dropout" in truth.censoring
    # dropout makes censoring before the cutoff routine
    censored_before = np.sum(~sample.events & (sample.times < 7.3))
    assert censored_before > 0


def test_exponential_censoring_runs():
    sample, _ = simulate_mixture(_cfg(censoring=ExponentialCensoring(0.2), seed=3))
    assert sample.n == 100
    assert 0 < sample.n_events < 100


# ---------------------------------------------------------------------------
# determinism

def test_same_seed_same_bytes():
    a, _ = simulate_mixture(_cfg(seed=42))
    b, _ = simulate_mixture(_cfg(seed=42))
    assert a.times.tobytes() == b.times.tobytes()
    assert np.array_equal(a.events, b.events)


def test_different_seeds_differ():
    a, _ = simulate_mixture(_cfg(seed=1))
    b, _ = simulate_mixture(_cfg(seed=2))
    assert not np.array_equal(a.times, b.times)


# ---------------------------------------------------------------------------
# follow-up restriction

def test_restrict_truncates_and_censors():
    s = validate_sample([(5.0, True)])
    r = restrict_followup(s, 1.0)
    assert records(r) == [(1.0, False)]


def test_restrict_keeps_early_records_untouched():
    s = validate_sample([(0.5, True), (2.0, False), (5.0, True), (6.0, False)])
    r = restrict_followup(s, 3.0)
    assert records(r) == [(0.5, True), (2.0, False), (3.0, False), (3.0, False)]


def test_restrict_no_op_when_cutoff_beyond_max():
    s = validate_sample([(1.0, True), (2.0, False)])
    r = restrict_followup(s, 10.0)
    assert r.times.tobytes() == s.times.tobytes()
    assert np.array_equal(r.events, s.events)


def test_restrict_boundary_event_survives_at_cutoff():
    # An event observed exactly at the cutoff is still an observed event.
    s = validate_sample([(3.0, True), (4.0, False)])
    r = restrict_followup(s, 3.0)
    assert records(r) == [(3.0, True), (3.0, False)]


def test_restrict_is_idempotent():
    rng = np.random.default_rng(6)
    times = rng.exponential(size=50) * 3.0
    events = rng.random(50) < 0.6
    s = validate_sample(list(zip(times.tolist(), events.tolist())))
    once = restrict_followup(s, 2.0)
    twice = restrict_followup(once, 2.0)
    assert records(once) == records(twice)


def test_restrict_event_count_monotone_in_cutoff():
    rng = np.random.default_rng(16)
    times = rng.exponential(size=200) * 3.0
    events = rng.random(200) < 0.7
    s = validate_sample(list(zip(times.tolist(), events.tolist())))
    counts = [restrict_followup(s, c).n_events for c in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert counts == sorted(counts)
    assert all(restrict_followup(s, c).max_time <= c for c in (0.5, 1.0, 2.0))


def test_restrict_rejects_bad_cutoffs():
    s = validate_sample([(1.0, True)])
    for bad in (0.0, -1.0, math.inf, math.nan, True, np.int64(0), "3"):
        with pytest.raises(DomainError, match="cutoff must be"):
            restrict_followup(s, bad)
    s = validate_sample([(1.0, True), (4.0, True)])
    _assert_same(restrict_followup(s, np.int64(3)), restrict_followup(s, 3.0))


def test_truncation_flips_followup_verdict():
    # With follow-up far past the latency tail the alpha_n test reads
    # sufficient; cutting observation at the latency 40th percentile
    # flips it to insufficient in at least 80 of 100 replicates.
    t999 = latency_quantile(FamilySpec("weibull"), Params((0.8, 0.8)), 0.999)
    t40 = latency_quantile(FamilySpec("weibull"), Params((0.8, 0.8)), 0.4)
    flipped = 0
    for i in range(100):
        cfg = _cfg(
            n=200,
            censoring=AdministrativeCensoring(2.0 * t999),
            seed=1000 + i,
        )
        sample, _ = simulate_mixture(cfg)
        full = alpha_n_test(sample)
        trunc = alpha_n_test(restrict_followup(sample, t40))
        if full.sufficient_followup and not trunc.sufficient_followup:
            flipped += 1
    assert flipped >= 80, f"flipped {flipped}/100"


# The simulate step of the benchmark's aux_simulate_km workload (bench/workloads.py)
# and its stored output.
BENCH_REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
BENCH_SIM_LATENCY = {
    "exponential": (1.0,),
    "weibull": (0.8, 0.8),
    "gamma": (0.7, 0.8),
    "loglogistic": (1.5, 1.0),
    "lognormal": (0.7, 1.2),
}


def test_simulate_reproduces_the_benchmark_reference():
    reference = json.loads(BENCH_REFERENCE.read_text())["simulate"]["n=200/seed=11"]
    for family, latency in BENCH_SIM_LATENCY.items():
        cfg = _cfg(n=200, family=family, latency=latency,
                   censoring=CompositeCensoring(7.3, 14.6), seed=11)
        sample, _ = simulate_mixture(cfg)
        want = reference[family]
        assert "".join("1" if e else "0" for e in sample.events) == want["events"], family
        np.testing.assert_allclose(sample.times, want["times"], rtol=1e-9, atol=0.0, err_msg=family)


def test_restrict_matches_revalidating_the_censored_records():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        times = rng.integers(0, 12, n) / 4.0  # coarse grid: many ties, some at the cutoff
        s = validate_sample(zip(times.tolist(), (rng.random(n) < 0.5).tolist()))
        cutoff = float(rng.choice([0.25, 1.0, 1.5, 2.75]))
        r = restrict_followup(s, cutoff)
        beyond = s.times > cutoff
        want = validate_sample(zip(np.where(beyond, cutoff, s.times).tolist(),
                                   (s.events & ~beyond).tolist()))
        assert r.times.tobytes() == want.times.tobytes()
        assert r.events.tobytes() == want.events.tobytes()
        assert not r.times.flags.writeable and not r.events.flags.writeable
