"""The deviance test for a cured fraction and the sufficient-follow-up test."""

import math

import numpy as np
import pytest
from conftest import rescaled

from curecheck.assessment import deviance_cure_test
from curecheck.diagnostics import alpha_n_test
from curecheck.errors import DomainError
from curecheck.models import FamilySpec, Params, fit_model, latency_quantile
from curecheck.simulate import (
    AdministrativeCensoring,
    SimulationConfig,
    UniformCensoring,
    simulate_mixture,
)
from curecheck.special import chi2_sf_1df
from curecheck.survival import validate_sample


# ---------------------------------------------------------------------------
# deviance test for a cured fraction

def _truncated_exponential_sample(seed, n=120, cutoff=2.5):
    rng = np.random.default_rng(seed)
    t = rng.exponential(size=n)
    return validate_sample(
        list(zip(np.minimum(t, cutoff).tolist(), (t <= cutoff).tolist()))
    )


def test_deviance_zero_gives_half_p_value():
    # Proper exponential data: the cure fit collapses to the boundary, the
    # clamped statistic is exactly 0, and the boundary-mixture p-value is 0.5.
    res = deviance_cure_test(_truncated_exponential_sample(5), family="exponential")
    assert res.deviance == 0.0
    assert res.deviance_p_value == 0.5


def test_deviance_nonnegative_and_p_value_formula():
    for seed in (0, 1, 2, 3):
        sample = _truncated_exponential_sample(seed)
        res = deviance_cure_test(sample, family="exponential")
        assert res.deviance is not None and res.deviance >= 0.0
        # dual route: the reported p must equal the boundary-mixture formula
        assert res.deviance_p_value == pytest.approx(
            0.5 * chi2_sf_1df(res.deviance), abs=1e-15
        )
        # and d must come from the family's two fits, each fitted alone
        cure, noncure = (
            fit_model(sample, FamilySpec("exponential", cure=c)) for c in (True, False)
        )
        assert res.deviance == max(0.0, 2.0 * (cure.log_likelihood - noncure.log_likelihood))


def test_deviance_diagnostic_when_fit_cannot_run():
    sample = validate_sample([(1.0, True), (2.0, True)])  # too few for weibull cure
    res = deviance_cure_test(sample, family="weibull")
    assert res.deviance is None
    assert res.deviance_p_value is None
    assert "fit failed" in res.diagnostic


def test_deviance_lets_programming_errors_through(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken fit")

    monkeypatch.setattr("curecheck.models._trust_region", broken)
    with pytest.raises(RuntimeError, match="broken fit"):
        deviance_cure_test(_truncated_exponential_sample(7), family="weibull")


def test_deviance_diagnostic_when_not_converged(monkeypatch):
    monkeypatch.setattr("curecheck.models._MAX_ITER", 0)
    res = deviance_cure_test(_truncated_exponential_sample(7), family="weibull")
    assert res.deviance is None
    # neither fit converges; the diagnostic names the non-cure fit first
    assert res.diagnostic == "weibull non-cure fit did not converge; deviance test unavailable"


def test_deviance_null_rarely_rejects():
    # No cured fraction in truth: p should exceed 0.05 in >= 90% of 200 runs.
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
    assert keep >= 180, f"null retention {keep}/200"


def test_deviance_detects_a_real_cured_fraction():
    t999 = latency_quantile(FamilySpec("weibull"), Params((0.8, 0.8)), 0.999)
    hits = 0
    for i in range(200):
        cfg = SimulationConfig(
            n=200,
            cure_fraction=0.4,
            family="weibull",
            latency=(0.8, 0.8),
            censoring=AdministrativeCensoring(2.0 * t999),
            seed=50000 + i,
        )
        sample, _ = simulate_mixture(cfg)
        res = deviance_cure_test(sample, family="weibull")
        if res.deviance_p_value is not None and res.deviance_p_value < 0.05:
            hits += 1
    assert hits >= 180, f"alternative detection {hits}/200"


# ---------------------------------------------------------------------------
# sufficient-follow-up (alpha_n) test

def test_alpha_n_largest_observation_is_an_event():
    # Empty late interval: no information about the tail at all.
    t = alpha_n_test(validate_sample([(1.0, True), (2.0, True), (3.0, True)]))
    assert t.n_n == 0
    assert t.alpha_n == 1.0
    assert not t.sufficient_followup
    assert t.y_max == t.y_max_event == 3.0


def test_alpha_n_hand_computed_value():
    # n = 10, largest time 10 censored, largest event 9, late interval (8, 9):
    # five events inside, so alpha = (1 - 5/10)^10 = 2^-10.
    recs = [(1.0, True), (2.0, True), (3.0, True)]
    recs += [(8.2, True), (8.4, True), (8.6, True), (8.8, True), (8.9, True)]
    recs += [(9.0, True), (10.0, False)]
    sample = validate_sample(recs)
    t = alpha_n_test(sample)
    assert t.interval == (8.0, 9.0)
    assert t.n_n == 5
    assert t.alpha_n == 0.5**10
    assert t.alpha_n == pytest.approx(0.000977, abs=5e-7)
    assert t.sufficient_followup


def test_alpha_n_endpoint_convention_flag():
    # Same data as above: including the largest event itself raises the
    # count to 6.  Both conventions appear in the literature; the default
    # leaves the largest event out.
    recs = [(1.0, True), (2.0, True), (3.0, True)]
    recs += [(8.2, True), (8.4, True), (8.6, True), (8.8, True), (8.9, True)]
    recs += [(9.0, True), (10.0, False)]
    sample = validate_sample(recs)
    open_end = alpha_n_test(sample)
    closed = alpha_n_test(sample, count_max_event=True)
    assert open_end.n_n == 5 and not open_end.count_max_event
    assert closed.n_n == 6 and closed.count_max_event
    assert closed.alpha_n < open_end.alpha_n


def test_alpha_n_requires_events_and_valid_threshold():
    with pytest.raises(DomainError, match="no events"):
        alpha_n_test(validate_sample([(1.0, False)]))
    sample = validate_sample([(1.0, True), (2.0, False)])
    for bad in (0.0, 1.0, -0.5, "x", None):
        with pytest.raises(DomainError, match="threshold must lie strictly in"):
            alpha_n_test(sample, threshold=bad)
    for bad in ("no", 1, None):
        with pytest.raises(DomainError, match="count_max_event must be True or False"):
            alpha_n_test(sample, count_max_event=bad)


def test_alpha_n_scale_invariance():
    rng = np.random.default_rng(14)
    times = rng.exponential(size=60)
    events = rng.random(60) < 0.7
    sample = validate_sample(list(zip(times.tolist(), events.tolist())))
    base = alpha_n_test(sample)
    for c in (0.001, 3.0, 365.25):
        scaled = alpha_n_test(rescaled(sample, c))
        assert scaled.n_n == base.n_n
        assert scaled.alpha_n == base.alpha_n  # bitwise: counts are integers


def test_alpha_n_interval_near_the_largest_float():
    # 2 y_max_event alone would overflow here.
    times = (1.0, 1.6e308, 1.68e308, 1.7e308, 1.75e308)
    t = alpha_n_test(validate_sample(zip(times, (True, True, True, True, False))))
    assert t.interval == (pytest.approx(1.65e308, rel=1e-15), 1.7e308)
    assert t.n_n == 1


def _sample_with_late_events(k):
    # n = 20 fixed; k events placed inside the late interval (8, 10).
    recs = [(float(j + 1) * 0.3, True) for j in range(18 - k)]
    recs += [(8.5 + 0.1 * j, True) for j in range(k)]
    recs += [(10.0, True), (12.0, False)]
    return validate_sample(recs)


def test_alpha_n_nonincreasing_in_late_event_count():
    values = []
    for k in (0, 1, 2, 3, 5):
        t = alpha_n_test(_sample_with_late_events(k))
        assert t.n_n == k
        assert t.alpha_n == (1.0 - k / 20) ** 20
        values.append(t.alpha_n)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_alpha_n_long_plateau_fixture(long_followup_sample):
    # Last event at 10, follow-up to 17.7248: the late interval is wide
    # and packed with events, so follow-up is judged sufficient.
    t = alpha_n_test(long_followup_sample)
    assert t.y_max_event == 10.0
    assert t.alpha_n < 1e-6
    assert t.sufficient_followup


def test_alpha_n_majority_verdicts_under_long_followup():
    # Administrative cutoff far beyond the 99.9th latency percentile:
    # follow-up should be judged sufficient in a clear majority of runs.
    t999 = latency_quantile(FamilySpec("weibull"), Params((0.8, 0.8)), 0.999)
    sufficient = 0
    for i in range(100):
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
    assert sufficient >= 80, f"sufficient verdicts {sufficient}/100"
