"""Parametric latency families, censored-data likelihood, fitting, and Wald intervals.

scipy.stats provides the independent oracle for survival functions and
per-record log-densities; the library itself never imports scipy.
"""

import itertools
import math
import re

import numpy as np
import pytest
from scipy import stats as st

from curecheck.errors import DomainError, FitError
from curecheck.models import (
    FAMILIES,
    FamilySpec,
    ModelFit,
    Params,
    check_params,
    fit_model,
    latency_quantile,
    latency_survival,
    log_likelihood,
    wald_intervals,
    _TABLE,
    _build_cache,
    _LOG_FLOAT_MAX,
    _LOGIT_BOX,
    _expit,
    _finite,
    _initial_params,
    _loglik_derivatives,
    _objective,
    _standard_errors,
    _start_basis,
    _tr_step,
    _transform,
    _trust_region,
    _untransform,
)
from curecheck.survival import _canonical_sample, validate_sample

# scipy frozen-distribution builders matching each family's parameterization
_SCIPY = {
    "exponential": lambda th: st.expon(scale=1.0 / th[0]),
    "weibull": lambda th: st.weibull_min(th[0], scale=th[1]),
    "gamma": lambda th: st.gamma(th[0], scale=1.0 / th[1]),
    "loglogistic": lambda th: st.fisk(th[0], scale=th[1]),
    "lognormal": lambda th: st.lognorm(th[1], scale=th[0]),
}


def _random_theta(rng, family):
    if family == "exponential":
        return (float(rng.uniform(0.3, 3.0)),)
    if family == "lognormal":
        return (float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 2.0)))
    return (float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.3, 3.0)))


# ---------------------------------------------------------------------------
# specs and parameter validation

def test_family_roster_and_param_counts():
    assert FAMILIES == ("exponential", "weibull", "gamma", "loglogistic", "lognormal")
    assert FamilySpec("exponential").n_params == 1
    assert FamilySpec("exponential", cure=True).n_params == 2
    assert FamilySpec("weibull").n_params == 2
    assert FamilySpec("weibull", cure=True).n_params == 3
    assert FamilySpec("weibull", cure=True).label == "weibull cure"
    assert FamilySpec("gamma").label == "gamma non-cure"


def test_unknown_family_rejected():
    for name in ("cauchy", ["weibull"]):
        with pytest.raises(DomainError, match="unknown family"):
            FamilySpec(name)


def test_check_params_positive_latency():
    spec = FamilySpec("weibull")
    with pytest.raises(DomainError, match="must be finite and > 0"):
        check_params(spec, Params(latency=(0.0, 1.0)))
    with pytest.raises(DomainError, match="must be finite and > 0"):
        check_params(spec, Params(latency=(1.0, -2.0)))
    with pytest.raises(DomainError, match="must be finite and > 0"):
        check_params(spec, Params(latency=(math.inf, 1.0)))


def test_check_params_cure_fraction_rules():
    cure = FamilySpec("exponential", cure=True)
    plain = FamilySpec("exponential")
    with pytest.raises(DomainError, match="requires a cure_fraction"):
        check_params(cure, Params(latency=(1.0,)))
    with pytest.raises(DomainError, match="strictly in \\(0, 1\\)"):
        check_params(cure, Params(latency=(1.0,), cure_fraction=0.0))
    with pytest.raises(DomainError, match="strictly in \\(0, 1\\)"):
        check_params(cure, Params(latency=(1.0,), cure_fraction=1.0))
    with pytest.raises(DomainError, match="does not accept"):
        check_params(plain, Params(latency=(1.0,), cure_fraction=0.5))
    with pytest.raises(DomainError, match="expects"):
        check_params(plain, Params(latency=(1.0, 2.0)))


@pytest.mark.parametrize("value", ["abc", None, True, "0.8"])
def test_check_params_refuses_values_that_are_not_real_numbers(value):
    # A string or None would leak ValueError or TypeError from float(), and
    # True or "0.8" would pass as 1.0 or 0.8; each is named instead (a None
    # cure fraction is a missing one).
    gamma, got = FamilySpec("gamma"), re.escape(f"got {value!r}")
    with pytest.raises(DomainError, match=f"latency parameter shape must be finite and > 0, {got}"):
        latency_survival(gamma, Params((value, 0.8)), 1.0)
    with pytest.raises(DomainError, match=f"latency parameter rate must be finite and > 0, {got}"):
        latency_survival(gamma, Params((0.8, value)), 1.0)
    cure = "requires a cure_fraction" if value is None else rf"cure_fraction must lie strictly in \(0, 1\), {got}"
    with pytest.raises(DomainError, match=cure):
        latency_survival(FamilySpec("gamma", cure=True), Params((0.8, 0.8), value), 1.0)


def test_params_as_dict_orders_cure_first():
    spec = FamilySpec("weibull", cure=True)
    params = Params(latency=(0.8, 1.2), cure_fraction=0.4)
    d = ModelFit(spec, params, log_likelihood=-10.0, converged=True, n_iter=5).param_dict
    assert list(d) == ["cure_fraction", "shape", "scale"]
    assert d["scale"] == 1.2


# ---------------------------------------------------------------------------
# latency survival functions

def test_exponential_survival_closed_form():
    spec = FamilySpec("exponential")
    p = Params(latency=(2.0,))
    assert latency_survival(spec, p, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_loglogistic_survival_closed_form():
    spec = FamilySpec("loglogistic")
    p = Params(latency=(2.0, 1.0))
    assert latency_survival(spec, p, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert latency_survival(spec, p, 2.0) == pytest.approx(0.2, rel=1e-14)


def test_lognormal_survival_median_at_scale():
    spec = FamilySpec("lognormal")
    p = Params(latency=(1.0, 1.0))
    assert latency_survival(spec, p, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_shape_one_reductions_to_exponential():
    t = np.linspace(0.01, 8.0, 40)
    expo = latency_survival(FamilySpec("exponential"), Params(latency=(1.7,)), t)
    wei = latency_survival(FamilySpec("weibull"), Params(latency=(1.0, 1.0 / 1.7)), t)
    gam = latency_survival(FamilySpec("gamma"), Params(latency=(1.0, 1.7)), t)
    np.testing.assert_allclose(wei, expo, rtol=1e-12)
    np.testing.assert_allclose(gam, expo, rtol=1e-10)


def test_latency_survival_matches_scipy_all_families():
    rng = np.random.default_rng(42)
    t = np.geomspace(1e-3, 30.0, 50)
    for family in FAMILIES:
        for _ in range(5):
            theta = _random_theta(rng, family)
            got = latency_survival(FamilySpec(family), Params(latency=theta), t)
            want = _SCIPY[family](theta).sf(t)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-14, err_msg=family)


def test_latency_survival_at_zero_is_one():
    for family in FAMILIES:
        theta = (2.0,) if family == "exponential" else (1.5, 0.9)
        assert latency_survival(FamilySpec(family), Params(latency=theta), 0.0) == 1.0


def test_latency_survival_decreasing_to_zero():
    rng = np.random.default_rng(9)
    t = np.geomspace(1e-2, 1e3, 200)
    for family in FAMILIES:
        theta = _random_theta(rng, family)
        vals = latency_survival(FamilySpec(family), Params(latency=theta), t)
        assert np.all(np.diff(vals) <= 0)
        assert vals[-1] < 1e-6
    # 0, not NaN, where rate t, (t / scale)^shape or the standardized log time
    # overflows; for gamma that is log Q(a, inf) = -inf.
    for family, theta in (
        ("exponential", (1e10,)),
        ("weibull", (2.0, 1e-10)),
        ("gamma", (2.0, 1e10)),
        ("lognormal", (1e-10, 1e-300)),
        ("loglogistic", (1e300, 1.0)),
    ):
        assert latency_survival(FamilySpec(family), Params(latency=theta), 1e300) == 0.0, family


def test_latency_survival_rejects_bad_times():
    spec = FamilySpec("exponential")
    p = Params(latency=(1.0,))
    with pytest.raises(DomainError):
        latency_survival(spec, p, -1.0)
    with pytest.raises(DomainError):
        latency_survival(spec, p, math.inf)


# ---------------------------------------------------------------------------
# latency quantiles

def test_latency_quantile_round_trip():
    # latency_quantile takes latency_survival's (spec, params) pair; a cure
    # spec's latency is used and its cure fraction only validated.
    rng = np.random.default_rng(17)
    for family in FAMILIES:
        theta = _random_theta(rng, family)
        spec, params = FamilySpec(family), Params(latency=theta)
        for u in (0.001, 0.1, 0.5, 0.9, 0.999):
            q = latency_quantile(spec, params, u)
            s0 = latency_survival(spec, params, q)
            assert s0 == pytest.approx(1.0 - u, rel=1e-7, abs=1e-9), (family, u)
            cure = latency_quantile(FamilySpec(family, cure=True), Params(theta, 0.3), u)
            assert cure == q, (family, u)


def test_latency_quantile_edges():
    spec, params = FamilySpec("weibull"), Params((0.8, 0.8))
    assert latency_quantile(spec, params, 0.0) == 0.0
    with pytest.raises(DomainError):
        latency_quantile(spec, params, 1.0)
    with pytest.raises(DomainError):
        latency_quantile(spec, params, -0.1)


def test_latency_quantile_validates_parameters():
    for spec, params in (
        (FamilySpec("weibull"), Params((1.0,))),
        (FamilySpec("weibull"), Params((-1.0, 1.0))),
        (FamilySpec("lognormal"), Params((1.0, -0.5))),
        (FamilySpec("weibull"), Params((1.0, 1.0), 0.3)),
        (FamilySpec("weibull", cure=True), Params((1.0, 1.0))),
    ):
        with pytest.raises(DomainError):
            latency_quantile(spec, params, 0.5)
    for c in (0.0, 1.0, 1.5, math.nan):
        with pytest.raises(DomainError, match="cure_fraction must lie strictly in"):
            latency_quantile(FamilySpec("gamma", cure=True), Params((0.7, 0.8), c), 0.5)


def test_latency_quantile_arrays_match_scalars():
    u = np.array([[0.0, 1e-9, 0.3], [0.5, 0.9, 1 - 1e-9]])
    for family, theta in (("gamma", (0.7, 0.8)), ("lognormal", (0.7, 1.2))):
        spec, params = FamilySpec(family), Params(theta)
        q = latency_quantile(spec, params, u)
        assert q.shape == u.shape
        assert q[0, 0] == 0.0
        scalars = [latency_quantile(spec, params, float(v)) for v in u.ravel()]
        np.testing.assert_allclose(q.ravel(), scalars, rtol=1e-12)


# ---------------------------------------------------------------------------
# censored-data log-likelihood

def _naive_loglik(spec, params, sample):
    """Per-record reference: scipy log-densities summed in plain Python."""
    dist = _SCIPY[spec.family](params.latency)
    c = params.cure_fraction if spec.cure else 0.0
    total = 0.0
    for t, e in zip(sample.times.tolist(), sample.events.tolist()):
        if e:
            total += math.log(1.0 - c) + dist.logpdf(t) if spec.cure else dist.logpdf(t)
        else:
            s0 = dist.sf(t)
            total += math.log(c + (1.0 - c) * s0) if spec.cure else dist.logsf(t)
    return total


def test_loglik_exponential_events_only_closed_form():
    rng = np.random.default_rng(3)
    y = rng.exponential(scale=0.7, size=40)
    sample = validate_sample([(float(t), True) for t in y])
    rate = 1.9
    got = log_likelihood(FamilySpec("exponential"), Params(latency=(rate,)), sample)
    want = sample.n * math.log(rate) - rate * float(np.sum(sample.times))
    assert got == pytest.approx(want, rel=1e-13)


def test_loglik_single_censored_record_equals_log_survival():
    sample = validate_sample([(2.3, False)])
    for family in FAMILIES:
        theta = (1.1,) if family == "exponential" else (1.4, 0.9)
        for cure in (False, True):
            spec = FamilySpec(family, cure=cure)
            p = Params(latency=theta, cure_fraction=0.35 if cure else None)
            got = log_likelihood(spec, p, sample)
            s0 = latency_survival(FamilySpec(family), Params(latency=theta), 2.3)
            want = math.log(0.35 + 0.65 * s0 if cure else s0)
            assert got == pytest.approx(want, rel=1e-12), spec.label


def test_loglik_matches_naive_scipy_summation():
    rng = np.random.default_rng(99)
    for _ in range(100):
        family = FAMILIES[rng.integers(len(FAMILIES))]
        cure = bool(rng.integers(2))
        spec = FamilySpec(family, cure=cure)
        theta = _random_theta(rng, family)
        params = Params(
            latency=theta,
            cure_fraction=float(rng.uniform(0.05, 0.9)) if cure else None,
        )
        n = int(rng.integers(5, 60))
        times = rng.exponential(scale=1.2, size=n) + 1e-6
        events = rng.random(n) < 0.6
        records = list(zip(times.tolist(), events.tolist()))
        sample = validate_sample(records)
        got = log_likelihood(spec, params, sample)
        want = _naive_loglik(spec, params, sample)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), spec.label


def test_loglik_matches_naive_scipy_summation_on_tied_data():
    # Times on a quarter-unit grid: many records share each time, events and
    # censorings fall on the same instants, and some records sit at 0 --
    # censored for every family, events too where f0(0) is finite
    # (exponential, and weibull with shape exactly 1).
    rng = np.random.default_rng(2024)
    for family in FAMILIES:
        for cure in (False, True):
            spec = FamilySpec(family, cure=cure)
            for trial in range(6):
                theta = _random_theta(rng, family)
                if family == "weibull" and trial % 2 == 0:
                    theta = (1.0, theta[1])
                zero_events = family == "exponential" or (family == "weibull" and theta[0] == 1.0)
                params = Params(
                    latency=theta,
                    cure_fraction=float(rng.uniform(0.05, 0.9)) if cure else None,
                )
                n = int(rng.integers(60, 300))
                times = np.round(rng.exponential(scale=1.2, size=n) * 4.0) / 4.0
                events = rng.random(n) < 0.6
                times[:4] = 0.0
                events[:4] = (False, False, zero_events, zero_events)
                events &= (times > 0.0) | zero_events
                sample = validate_sample(list(zip(times.tolist(), events.tolist())))
                pos = sample.times > 0.0
                shared = np.intersect1d(
                    sample.times[sample.events & pos], sample.times[~sample.events & pos]
                )
                assert shared.size > 0
                assert np.unique(sample.times).size < n / 2
                # The gamma kernel takes the censoring times as they are:
                # distinct, increasing and > 0, the zeros left out.
                tc = _build_cache(sample).tc
                assert tc[0] > 0.0 and np.all(tc[1:] > tc[:-1])
                got = log_likelihood(spec, params, sample)
                want = _naive_loglik(spec, params, sample)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), spec.label


def test_loglik_censored_at_zero_contributes_nothing():
    base = [(1.0, True), (2.0, True), (3.0, False)]
    spec = FamilySpec("weibull", cure=True)
    p = Params(latency=(1.3, 0.9), cure_fraction=0.3)
    with_zero = log_likelihood(spec, p, validate_sample(base + [(0.0, False)]))
    without = log_likelihood(spec, p, validate_sample(base))
    assert with_zero == pytest.approx(without, rel=1e-14)


def test_loglik_zero_time_event_rules():
    sample = validate_sample([(0.0, True), (1.0, True), (2.0, False)])
    # density undefined or zero at the origin for these three
    for family in ("gamma", "loglogistic", "lognormal"):
        with pytest.raises(DomainError, match="outside the support"):
            log_likelihood(FamilySpec(family), Params(latency=(1.5, 1.0)), sample)
    # weibull: depends on the shape
    wspec = FamilySpec("weibull")
    with pytest.raises(DomainError, match="unbounded at time 0"):
        log_likelihood(wspec, Params(latency=(0.7, 1.0)), sample)
    assert log_likelihood(wspec, Params(latency=(1.5, 1.0)), sample) == -math.inf
    # shape exactly 1 reduces to the exponential and stays finite
    ll_w = log_likelihood(wspec, Params(latency=(1.0, 0.5)), sample)
    ll_e = log_likelihood(FamilySpec("exponential"), Params(latency=(2.0,)), sample)
    assert ll_w == pytest.approx(ll_e, rel=1e-12)
    assert math.isfinite(ll_w)
    # exponential has positive density at 0: plain finite value
    assert math.isfinite(
        log_likelihood(FamilySpec("exponential"), Params(latency=(1.0,)), sample)
    )


_EXTREME = (1e-300, 1e-170, 1.0, 1e170, 1e300)


@pytest.mark.parametrize("cure", [False, True], ids=["noncure", "cure"])
@pytest.mark.parametrize("family", FAMILIES)
def test_log_likelihood_at_extreme_parameters(family, cure):
    # A float at every valid point, -inf where the likelihood vanishes or is
    # not a number; the only error is the zero-event rule's DomainError.
    spec = FamilySpec(family, cure=cure)
    tied = validate_sample([(0.5, True), (0.5, True), (1.0, False), (3.0, True), (7.0, False)])
    zero = validate_sample([(0.0, True), (1.0, True), (2.0, False)])
    grid = itertools.product(_EXTREME, repeat=len(spec.latency_param_names))
    cures = (1e-300, 0.3, 1.0 - 1e-16) if cure else (None,)
    for sample, latency, c in itertools.product((tied, zero), grid, cures):
        try:
            ll = log_likelihood(spec, Params(latency, c), sample)
        except DomainError as exc:
            assert sample is zero and family != "exponential", (latency, c)
            assert "outside the support" in str(exc) or "unbounded at time 0" in str(exc)
            continue
        assert type(ll) is float and not math.isnan(ll) and ll != math.inf, (latency, c, ll)
    if family == "lognormal":
        # sigma squared underflows to 0 and overflows to inf here
        assert log_likelihood(spec, Params((1.0, 1e-170), cures[-1]), tied) == -math.inf
        assert math.isfinite(log_likelihood(spec, Params((1.0, 1e170), cures[-1]), tied))


# ---------------------------------------------------------------------------
# AIC

def test_gamma_derivatives_return_at_a_vanishing_shape(long_followup_sample):
    # Fits clamp the log shape only at +-709.8; below a ~ 1e-162 the shape
    # squared underflows, and the point must still come back.  Its only
    # caller, _loglik_derivatives, ignores floating-point warnings, and a
    # trial point whose Hessian is not finite is rejected as a step.
    cache = _build_cache(long_followup_sample)
    with np.errstate(invalid="ignore"):
        ev, _, _, lq, _, _ = _TABLE["gamma"].derivatives(cache, 1e-300, 1.0)
    assert math.isfinite(ev) and np.all(np.isfinite(lq)) and np.all(lq <= 0.0)
    spec = FamilySpec("gamma")
    params = _untransform(spec, np.array([math.log(1e-300), 0.0]))
    point = _loglik_derivatives(spec, params, cache)
    assert point[0] == log_likelihood(spec, params, long_followup_sample)


def test_objective_is_infinite_where_the_cure_fraction_rounds_to_one(long_followup_sample):
    # The logit of the cure fraction maps to c == 1.0 from about 36.8 on.
    spec = FamilySpec("weibull", cure=True)
    cache = _build_cache(long_followup_sample)
    for logit_c, finite in ((36.0, True), (37.0, False), (40.0, False)):
        params = _untransform(spec, np.array([logit_c, 0.0, 0.0]))
        value = _loglik_derivatives(spec, params, cache)[0]
        if finite:
            assert log_likelihood(spec, params, long_followup_sample) == value
        else:  # log_likelihood refuses c = 1
            assert params.cure_fraction == 1.0 and value == -math.inf


def test_aic_values():
    def aic(family, cure, ll):
        spec = FamilySpec(family, cure=cure)
        params = Params((1.0,) * len(spec.latency_param_names), 0.5 if cure else None)
        return ModelFit(spec, params, log_likelihood=ll, converged=True, n_iter=0).aic

    assert aic("weibull", True, -265.9932) == pytest.approx(537.9864, abs=1e-3)
    assert aic("exponential", False, 0.0) == 2.0
    assert aic("weibull", False, -100.0) == 204.0


def test_aic_recomputation_is_bit_exact():
    rng = np.random.default_rng(12)
    y = rng.exponential(size=60)
    sample = validate_sample([(float(t), True) for t in y])
    fit = fit_model(sample, FamilySpec("exponential"))
    assert 2.0 * fit.spec.n_params - 2.0 * fit.log_likelihood == fit.aic  # bitwise


# ---------------------------------------------------------------------------
# fitting

def test_fit_exponential_events_only_analytic_mle():
    rng = np.random.default_rng(8)
    y = rng.exponential(scale=0.5, size=200)
    sample = validate_sample([(float(t), True) for t in y])
    fit = fit_model(sample, FamilySpec("exponential"))
    want = sample.n / float(np.sum(sample.times))
    assert fit.converged
    assert fit.params.latency[0] == pytest.approx(want, rel=1e-8)
    ll_at_mle = sample.n * math.log(want) - want * float(np.sum(sample.times))
    assert fit.log_likelihood == pytest.approx(ll_at_mle, rel=1e-12)


def test_exponential_standard_error_matches_observed_information():
    # loglik(u) = d u - e^u T in u = log(rate): at the MLE rate d / T the
    # observed information is exactly d, so the SE of log(rate) is 1 / sqrt(d).
    rng = np.random.default_rng(12)
    y = rng.exponential(scale=2.0, size=300)
    c = rng.uniform(0.0, 4.0, size=300)
    sample = validate_sample(list(zip(np.minimum(y, c).tolist(), (y <= c).tolist())))
    assert 0 < sample.n_events < sample.n
    fit = fit_model(sample, FamilySpec("exponential"))
    lo, hi = wald_intervals(fit, sample, level=0.95).intervals["rate"]
    se = math.log(hi / lo) / (2.0 * st.norm.ppf(0.975))
    assert se == pytest.approx(1.0 / math.sqrt(sample.n_events), rel=1e-6)

    # The Weibull at shape 1 and scale T / d is that exponential MLE.  In
    # (log shape, log scale), with r = t / scale and u = log r, its score is
    # (d + sum_events u - sum_all r u, 0) and its information
    # [[sum_all r (u^2 + u) - sum_events u, -sum_all r u], [-sum_all r u, d]].
    d, scale = sample.n_events, float(np.sum(sample.times)) / sample.n_events
    r = sample.times / scale
    u = np.log(r)
    spec = FamilySpec("weibull")
    _, g, h, _ = _loglik_derivatives(
        spec, _untransform(spec, np.array([0.0, math.log(scale)])), _build_cache(sample)
    )
    ue, ru = float(np.sum(u[sample.events])), float(r @ u)
    np.testing.assert_allclose(g, [d + ue - ru, 0.0], rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(-h, [[float(r @ (u * u + u)) - ue, -ru], [-ru, d]], rtol=1e-12)


def _neg_loglik(spec, cache):
    """The negated log-likelihood in the fitting coordinates, +inf where it is not finite."""

    def neg(x):
        ll = _loglik_derivatives(spec, _untransform(spec, x), cache)[0]
        return -ll if math.isfinite(ll) else math.inf

    return neg


def _fd_derivatives(f, x, fx, h=1e-4):
    """Central-difference gradient and Hessian of f at x, given fx = f(x): the oracle."""
    n = x.size
    e = h * np.eye(n)
    g = np.empty(n)
    H = np.empty((n, n))
    for i in range(n):
        f_up, f_down = f(x + e[i]), f(x - e[i])
        g[i] = (f_up - f_down) / (2.0 * h)
        H[i, i] = (f_up - 2.0 * fx + f_down) / (h * h)
        for j in range(i + 1, n):
            H[i, j] = H[j, i] = (
                f(x + e[i] + e[j]) - f(x + e[i] - e[j]) - f(x - e[i] + e[j]) + f(x - e[i] - e[j])
            ) / (4.0 * h * h)
    return g, H


def _derivative_sample(tied):
    rng = np.random.default_rng(5)
    t = rng.weibull(0.9, 400) * 1.3
    c = rng.uniform(0.0, 4.0, 400)
    cured = rng.random(400) < 0.35
    times = np.where(cured, c, np.minimum(t, c))
    if tied:
        times = np.ceil(times * 30.0) / 30.0  # a 30-per-unit grid: "days"
    return validate_sample(zip(times.tolist(), (~cured & (t <= c)).tolist()))


@pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
@pytest.mark.parametrize("cure", [False, True], ids=["noncure", "cure"])
@pytest.mark.parametrize("family", FAMILIES)
def test_analytic_derivatives_match_finite_differences(family, cure, tied):
    # Three seeded points around the start; for cure specs two of them put
    # logit c low (-30, near the clamp at -40) and high (4: nearer c = 1 the
    # oracle's own rounding, about eps / (1 - c) per event, swamps it).
    # Absolute floors: about five times the stencil's rounding, eps |f| / h
    # and eps |f| / h^2 at h = 1e-4.
    sample = _derivative_sample(tied)
    spec = FamilySpec(family, cure=cure)
    cache = _build_cache(sample)
    neg = _neg_loglik(spec, cache)
    x0 = _transform(spec, _initial_params(spec, _start_basis(sample)))
    rng = np.random.default_rng(FAMILIES.index(family))
    points = [x0 + rng.uniform(-0.5, 0.5, x0.size) for _ in range(3)]
    if cure:
        points[1][0], points[2][0] = -30.0, 4.0
    for x in points:
        ll, g, h, _ = _loglik_derivatives(spec, _untransform(spec, x), cache)
        fx = neg(x)
        assert ll == -fx
        g_fd, h_fd = _fd_derivatives(neg, x, fx)
        scale = 1.0 + abs(fx)
        np.testing.assert_allclose(-g, g_fd, rtol=1e-5, atol=1e-11 * scale)
        np.testing.assert_allclose(-h, h_fd, rtol=1e-5, atol=1e-7 * scale)


def _min_step(g, b, radius):
    """The minimizer of g.s + s.b.s / 2 over |s| <= radius, from ``_tr_step``,
    which maximizes g.s + s.h.s / 2 on Python floats."""
    return np.array(_tr_step((-g).tolist(), (-b).tolist(), radius))


def test_trust_region_step_is_the_subproblem_minimum():
    # Random 1-4 dimensional models, definite and indefinite, a seventh of
    # them in the hard case (gradient orthogonal to the lowest eigenvector):
    # the step stays in the ball and no sampled point of the ball beats it.
    rng = np.random.default_rng(3)
    for trial in range(300):
        n = int(rng.integers(1, 5))
        m = rng.normal(size=(n, n))
        b = m @ m.T + 0.1 * np.eye(n) if trial % 3 == 0 else m + m.T
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 3)
        if trial % 7 == 0 and n > 1:
            v0 = np.linalg.eigh(b)[1][:, 0]
            g -= (g @ v0) * v0
        radius = 10.0 ** rng.uniform(-3, 1)
        s = _min_step(g, b, radius)
        assert np.linalg.norm(s) <= radius * (1.0 + 1e-12)
        u = rng.normal(size=(100, n))
        u *= (radius * rng.uniform(size=(100, 1)) ** (1.0 / n)) / np.linalg.norm(u, axis=1, keepdims=True)
        sampled = u @ g + 0.5 * np.einsum("ki,ij,kj->k", u, b, u)
        scale = np.abs(g).sum() * radius + np.abs(b).sum() * radius**2
        assert g @ s + 0.5 * s @ b @ s <= sampled.min() + 1e-12 * scale


def test_trust_region_step_lands_exactly_on_the_radius_in_the_hard_case():
    # g has no component along the lowest eigenvector and the root mu = 1
    # puts the step exactly on the boundary: there is nothing to fill in.
    s = _min_step(np.array([0.0, -3.0]), np.diag([-1.0, 2.0]), 1.0)
    np.testing.assert_array_equal(np.abs(s), [0.0, 1.0])
    # The gamma-cure fit of these four records once took the same step.  It
    # still takes a step that lands exactly on the radius, but with g off
    # the lowest eigenvector, so not in the hard case.
    sample = validate_sample([
        (0.08714019512583303, 1), (0.3625416831006345, 0),
        (3.511760441665993, 0), (654.0859663609416, 0),
    ])
    spec = FamilySpec("gamma", cure=True)
    fit = fit_model(sample, spec)
    assert fit.log_likelihood >= log_likelihood(spec, _initial_params(spec, _start_basis(sample)), sample)


def test_trust_region_step_tries_the_cholesky_newton_step_first(monkeypatch):
    # Seeded random symmetric 1x1 to 3x3 models.  A positive-definite b whose
    # Newton step lies inside the radius gets that step from the Cholesky
    # factor, with no eigendecomposition, and it equals the eigendecomposition's
    # step to 1e-12.  Indefinite, singular, outside-radius and hard-case
    # models take the eigendecomposition path.
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda b: calls.append(b) or eigh(b))
    rng = np.random.default_rng(5)
    kinds = ("inside", "outside", "indefinite", "singular", "hard")
    for trial in range(300):
        kind = kinds[trial % 5]
        p = 1 + trial // 5 % 3
        if kind == "hard":
            p = max(p, 2)
        q = np.linalg.qr(rng.normal(size=(p, p)))[0]
        lam = np.sort(rng.uniform(0.1, 10.0, p))
        g = rng.normal(size=p) * 10.0 ** rng.uniform(-3, 3)
        if kind in ("indefinite", "hard"):
            lam[0] = -rng.uniform(0.1, 10.0)
        if kind == "hard":
            g -= (g @ q[:, 0]) * q[:, 0]  # no component along the lowest eigenvector
        if kind == "singular":
            b = np.diag(np.where(np.arange(p) == rng.integers(p), 0.0, lam))
        else:
            b = (q * lam) @ q.T
            b = 0.5 * (b + b.T)
        if kind in ("inside", "outside"):
            w, v = eigh(b)
            newton = -(v @ ((v.T @ g) / w))
            norm = float(np.linalg.norm(newton))
            radius = norm * (rng.uniform(1.01, 10.0) if kind == "inside" else rng.uniform(0.1, 0.99))
        else:
            radius = 10.0 ** rng.uniform(-3, 1)
        calls.clear()
        s = _min_step(g, b, radius)
        assert len(calls) == (0 if kind == "inside" else 1), (trial, kind)
        if kind == "inside":
            np.testing.assert_allclose(s, newton, rtol=1e-12, atol=1e-12 * norm)
        assert np.linalg.norm(s) <= radius * (1.0 + 1e-12), (trial, kind)


def test_finite_rejects_a_non_finite_value_gradient_or_hessian_entry():
    # The trust region steps only to points where all of these are finite.
    g, h = [0.5, -1.0, 2.0], [[-3.0, 0.1, 0.2], [0.1, -2.0, 0.3], [0.2, 0.3, -1.0]]
    assert _finite(-10.0, g, h)
    for bad in (math.nan, math.inf, -math.inf):
        assert not _finite(bad, g, h)
        for i in range(3):
            assert not _finite(-10.0, g[:i] + [bad] + g[i + 1:], h), (bad, i)
            for j in range(3):
                hb = [list(row) for row in h]
                hb[i][j] = bad
                assert not _finite(-10.0, g, hb), (bad, i, j)
    # Finite entries whose sums would overflow are still finite.
    big = 1.7e308
    assert _finite(-big, [big, big, -big], [[big] * 3, [-big] * 3, [big, -big, big]])


def test_untransform_clamps_logit_c_and_the_log_parameters():
    # logit c is clamped to [-40, 40] and each log latency parameter to the
    # log of the largest float, so every trial point maps to finite
    # parameters > 0; a NaN coordinate stays NaN, so its point is not finite.
    spec = FamilySpec("weibull", cure=True)
    for y, x_big in ((1e3, math.inf), (-1e3, -math.inf)):
        params = _untransform(spec, np.array([y, x_big, -x_big]))
        edge = math.copysign(_LOGIT_BOX, y)
        at_edge = _untransform(spec, np.array([edge, 0.0, 0.0]))
        assert params.cure_fraction == _expit(edge) == at_edge.cure_fraction
        assert params.latency == (math.exp(math.copysign(_LOG_FLOAT_MAX, x_big)),
                                  math.exp(-math.copysign(_LOG_FLOAT_MAX, x_big)))
        assert all(math.isfinite(v) and v > 0.0 for v in params.latency)
    # Inside the clamp c still moves (tested below it: above 36.8, c rounds to 1).
    assert _untransform(spec, np.array([-39.5, 0.0, 0.0])).cure_fraction > _expit(-_LOGIT_BOX)
    inside = _untransform(spec, np.array([-3.0, 700.0, -700.0]))
    assert inside.latency == (math.exp(700.0), math.exp(-700.0))
    assert all(type(v) is float for v in inside.latency + (inside.cure_fraction,))
    nan = _untransform(spec, np.array([math.nan, math.nan, 0.0]))
    assert math.isnan(nan.cure_fraction) and math.isnan(nan.latency[0])
    assert _untransform(FamilySpec("exponential"), np.array([1e3])).latency == (math.exp(_LOG_FLOAT_MAX),)


def test_trust_region_takes_no_step_from_a_start_without_finite_derivatives(long_followup_sample):
    # The log-likelihood is finite at both starts, but below a gamma shape of
    # ~1e-162 the Hessian is not (the shape squared underflows), and the
    # second start also has a NaN score.  Only finite points are ever stepped
    # to, so a start like these is returned at once, not converged.
    evaluate = _objective(FamilySpec("gamma"), _build_cache(long_followup_sample))
    x = np.array([math.log(1e-300), 0.0])
    with np.errstate(invalid="ignore"):
        ll, g, h, terms = evaluate(x)
    assert math.isfinite(ll) and np.all(np.isfinite(g)) and not np.all(np.isfinite(h))
    for point in ((ll, g, h, terms), (ll, np.array([math.nan, g[1]]), h, terms)):
        x_end, end, n_iter, converged = _trust_region(evaluate, x.copy(), point)
        assert n_iter == 0 and not converged
        assert end is point and np.array_equal(x_end, x)


def _concave_quadratic(visited):
    """f(x) = -(x - m).A.(x - m) / 2 with its maximum at m = (3, -2), as an
    objective for ``_trust_region``; every point evaluated goes to ``visited``."""
    a, m = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([3.0, -2.0])

    def evaluate(x):
        visited.append(x.copy())
        d = x - m
        return -0.5 * float(d @ a @ d), -(a @ d), -a, "extra"

    return evaluate


def test_trust_region_maximizes_a_concave_quadratic():
    # From 0 the Newton step to m is longer than the radius, so the first
    # steps lie on the boundary; once the radius has grown it takes m.
    visited = []
    evaluate = _concave_quadratic(visited)
    x0 = np.zeros(2)
    x, point, n_iter, converged = _trust_region(evaluate, x0, evaluate(x0))
    assert converged and n_iter == 3 and len(visited) == 4
    np.testing.assert_allclose(x, [3.0, -2.0], rtol=0.0, atol=1e-12)
    assert point[0] == pytest.approx(0.0, abs=1e-24) and point[3] == "extra"
    assert np.array_equal(visited[-1], x)


def test_fit_never_worse_than_initializer():
    rng = np.random.default_rng(31)
    times = rng.exponential(scale=1.0, size=80)
    events = rng.random(80) < 0.7
    sample = validate_sample(list(zip(times.tolist(), events.tolist())))
    for family in FAMILIES:
        for cure in (False, True):
            spec = FamilySpec(family, cure=cure)
            fit = fit_model(sample, spec)
            ll0 = log_likelihood(spec, _initial_params(spec, _start_basis(sample)), sample)
            assert fit.log_likelihood >= ll0 - 1e-9, spec.label


def test_noncure_starts_sit_on_the_exposure_scale():
    # Non-cure fits start at the censored-data exponential MLE's time scale,
    # sum(times) / n_events, the shape-1 member of the Weibull and gamma
    # families; cure fits keep the event-time mean.
    rng = np.random.default_rng(8)
    t, c = rng.weibull(0.8, size=120), rng.uniform(0.0, 3.0, size=120)
    sample = validate_sample(zip(np.minimum(t, c).tolist(), (t <= c).tolist()))
    basis = _start_basis(sample)
    exposure = float(sample.times.sum()) / sample.n_events
    mean_te = float(sample.times[sample.events].mean())
    assert exposure > 1.5 * mean_te  # the two scales differ
    start = {family: _initial_params(FamilySpec(family), basis).latency for family in FAMILIES}
    assert start["exponential"] == (1.0 / exposure,)
    assert start["weibull"] == start["loglogistic"] == (1.0, exposure)
    assert start["gamma"] == (1.0, 1.0 / exposure)
    assert _initial_params(FamilySpec("weibull", cure=True), basis).latency == (1.0, mean_te)
    assert _initial_params(FamilySpec("gamma", cure=True), basis).latency == (1.0, 1.0 / mean_te)


def test_overflowing_exposure_starts_at_the_largest_float():
    # sum(times) / n_events overflows here; at 1 in its place the start's
    # log-likelihood would be -inf and the fit would raise.
    sample = validate_sample([(1.7e308, False), (1.7e308, False), (1.0, True), (1.5e308, True)])
    assert _start_basis(sample)[2] == np.finfo(float).max
    for family in FAMILIES:
        for cure in (False, True):
            spec = FamilySpec(family, cure=cure)
            assert math.isfinite(fit_model(sample, spec).log_likelihood), spec.label


@pytest.mark.parametrize("data", ["simulated", "zero_time_event", "plateau_sample", "short_days_sample"])
def test_exponential_noncure_fit_returns_at_its_closed_form_start(data, request):
    # The censored-data exponential MLE is n_events / sum(times), events at
    # time 0 included; the fit starts there and takes no step.
    if data == "simulated":
        rng = np.random.default_rng(13)
        t, c = rng.exponential(2.0, size=300), rng.uniform(0.0, 4.0, size=300)
        sample = validate_sample(zip(np.minimum(t, c).tolist(), (t <= c).tolist()))
    elif data == "zero_time_event":
        sample = validate_sample([(0.0, True), (1.0, True), (2.0, True), (3.0, False)])
    else:
        sample = request.getfixturevalue(data)
    fit = fit_model(sample, FamilySpec("exponential"))
    assert fit.converged and fit.n_iter == 0
    mle = sample.n_events / math.fsum(sample.times.tolist())
    assert fit.params.latency[0] == pytest.approx(mle, rel=1e-15, abs=0.0)


def test_fit_is_local_maximum_under_perturbation():
    # 100 random multiplicative nudges of up to 1% on the transformed
    # coordinates must not beat the fitted optimum.
    from curecheck.simulate import SimulationConfig, UniformCensoring, simulate_mixture

    cfg = SimulationConfig(
        n=400,
        cure_fraction=0.4,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=UniformCensoring(8.0),
        seed=555,
    )
    sample, _ = simulate_mixture(cfg)
    spec = FamilySpec("weibull", cure=True)
    fit = fit_model(sample, spec)
    c = fit.params.cure_fraction
    x = np.array(
        [math.log(c / (1.0 - c))] + [math.log(v) for v in fit.params.latency]
    )
    rng = np.random.default_rng(77)
    for _ in range(100):
        xp = x * (1.0 + rng.uniform(-0.01, 0.01, size=x.size))
        cp = 1.0 / (1.0 + math.exp(-xp[0]))
        pp = Params(latency=tuple(math.exp(v) for v in xp[1:]), cure_fraction=cp)
        assert log_likelihood(spec, pp, sample) <= fit.log_likelihood + 1e-9


def test_fit_requires_events():
    sample = validate_sample([(1.0, False), (2.0, False)])
    with pytest.raises(FitError, match="no events: fitting undefined"):
        fit_model(sample, FamilySpec("exponential"))


def test_fit_requires_enough_records():
    sample = validate_sample([(1.0, True), (2.0, True)])
    with pytest.raises(FitError, match="records required"):
        fit_model(sample, FamilySpec("weibull", cure=True))


def test_fit_zero_time_event_rejected_where_degenerate():
    sample = validate_sample([(0.0, True), (1.0, True), (2.0, True), (3.0, False)])
    with pytest.raises(DomainError):
        fit_model(sample, FamilySpec("weibull"))
    with pytest.raises(DomainError):
        fit_model(sample, FamilySpec("gamma"))
    fit = fit_model(sample, FamilySpec("exponential"))  # fine: density positive at 0
    assert fit.converged


def test_fit_records_metadata():
    rng = np.random.default_rng(2)
    times = rng.exponential(size=50)
    events = rng.random(50) < 0.8
    sample = validate_sample(list(zip(times.tolist(), events.tolist())))
    fit = fit_model(sample, FamilySpec("exponential", cure=True))
    assert fit.spec.n_params == 2
    assert fit.spec.label == "exponential cure"
    # Censoring at random leaves no cure fraction.  The non-cure fit starts
    # at its closed-form MLE and stops there, and the cure fit, started from
    # it on the boundary c = 0, stops there too.
    noncure = fit_model(sample, FamilySpec("exponential"))
    assert noncure.n_iter == 0 and noncure.converged and noncure.cure_score <= 0.0
    assert fit.n_iter == 0 and fit.cure_score is None


def test_fit_gradient_vanishes_at_optimum():
    rng = np.random.default_rng(19)
    times = rng.exponential(size=150)
    events = rng.random(150) < 0.7
    sample = validate_sample(list(zip(times.tolist(), events.tolist())))
    spec = FamilySpec("weibull")
    fit = fit_model(sample, spec)

    def f(x):
        p = Params(latency=(math.exp(x[0]), math.exp(x[1])))
        return log_likelihood(spec, p, sample)

    x = np.array([math.log(v) for v in fit.params.latency])
    h = 1e-5
    grad = []
    for i in range(2):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        grad.append((f(xp) - f(xm)) / (2 * h))
    assert max(abs(g) for g in grad) < 1e-3


def test_fits_converge_on_a_very_large_tied_sample(plateau_sample):
    # Every record of the plateau data 200 times over: n = 1 000 000 on the
    # same distinct times.  Rounding in the scores grows with the record
    # count, not with the number of distinct times; it must stay below the
    # absolute gradient tolerance, so that every fit converges.
    big = _canonical_sample(np.repeat(plateau_sample.times, 200), np.repeat(plateau_sample.events, 200))
    for family in FAMILIES:
        for cure in (False, True):
            fit = fit_model(big, FamilySpec(family, cure=cure))
            assert fit.converged and fit.n_iter <= 20, fit.spec.label


def test_fits_are_optima_on_day_granular_short_followup():
    # The registry regime: integer days, follow-up cut at one year.  A tight
    # scipy Nelder-Mead restarted from each reported optimum must not find a
    # higher likelihood.
    from scipy.optimize import minimize

    from curecheck.simulate import (
        CompositeCensoring,
        SimulationConfig,
        restrict_followup,
        simulate_mixture,
    )

    cfg = SimulationConfig(
        n=2000,
        cure_fraction=0.4,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=CompositeCensoring(7.3, 14.6),
        seed=7,
    )
    drawn, _ = simulate_mixture(cfg)
    days = np.ceil(drawn.times * 365.25) / 365.25
    sample = restrict_followup(validate_sample(zip(days.tolist(), drawn.events.tolist())), 1.0)
    assert np.unique(sample.times).size < sample.n / 3
    for family in FAMILIES:
        for cure in (False, True):
            spec = FamilySpec(family, cure=cure)
            fit = fit_model(sample, spec)

            def neg(x, spec=spec, cure=cure):
                params = Params(
                    latency=tuple(math.exp(v) for v in x[int(cure):]),
                    cure_fraction=1.0 / (1.0 + math.exp(-x[0])) if cure else None,
                )
                try:
                    ll = log_likelihood(spec, params, sample)
                except (DomainError, OverflowError):
                    return math.inf
                return -ll if math.isfinite(ll) else math.inf

            c = fit.params.cure_fraction
            x0 = [math.log(c / (1.0 - c))] if cure else []
            x0 += [math.log(v) for v in fit.params.latency]
            assert neg(np.array(x0)) == pytest.approx(-fit.log_likelihood, abs=1e-9)
            res = minimize(
                neg,
                np.array(x0),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
            )
            assert -res.fun <= fit.log_likelihood + 1e-6, spec.label


# The latency each family is drawn from in the boundary-start grid below.
_GRID_LATENCY = {
    "exponential": (1.0,),
    "weibull": (0.8, 0.8),
    "gamma": (1.5, 2.0),
    "loglogistic": (1.5, 1.0),
    "lognormal": (1.0, 0.8),
}


def test_fit_model_fits_only_what_its_spec_needs(monkeypatch):
    # A non-cure spec runs one trust region; a cure spec runs its family's
    # non-cure fit first, for the start.
    from curecheck import models

    sample = validate_sample([(t, t < 4.0) for t in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 6.0)])
    objective, trust_region = models._objective, models._trust_region
    spec_of, specs = {}, []

    def built(spec, cache):
        evaluate = objective(spec, cache)
        spec_of[evaluate] = spec
        return evaluate

    def counted(evaluate, *args):
        specs.append(spec_of[evaluate])
        return trust_region(evaluate, *args)

    monkeypatch.setattr(models, "_objective", built)
    monkeypatch.setattr(models, "_trust_region", counted)
    fit_model(sample, FamilySpec("weibull"))
    assert specs == [FamilySpec("weibull")]
    specs.clear()
    fit_model(sample, FamilySpec("weibull", cure=True))
    assert specs == [FamilySpec("weibull"), FamilySpec("weibull", cure=True)]


def test_boundary_start_never_lowers_a_cure_fit():
    # 60 seeded samples: n in [15, 400], every family as the truth, cure
    # fractions from none to 0.4, administrative or composite censoring.
    # Every family's cure fit, started as fit_model starts it, reaches at
    # least the log-likelihood of a trust region started from _initial_params.
    from curecheck.simulate import (
        AdministrativeCensoring,
        CompositeCensoring,
        SimulationConfig,
        simulate_mixture,
    )

    rng = np.random.default_rng(2024)
    on_boundary = elsewhere = 0
    for i in range(60):
        truth = FAMILIES[i % 5]
        config = SimulationConfig(
            n=int(rng.integers(15, 401)),
            cure_fraction=(1e-9, 0.05, 0.2, 0.4)[(i // 5) % 4],
            family=truth,
            latency=_GRID_LATENCY[truth],
            censoring=AdministrativeCensoring(2.0) if i % 2 else CompositeCensoring(3.0, 6.0),
            seed=5000 + i,
        )
        sample, _ = simulate_mixture(config)
        cache = _build_cache(sample)
        for family in FAMILIES:
            noncure = fit_model(sample, FamilySpec(family))
            spec = FamilySpec(family, cure=True)
            fit = fit_model(sample, spec)
            evaluate = _objective(spec, cache)
            x = _transform(spec, _initial_params(spec, _start_basis(sample)))
            _, (cold, *_), _, _ = _trust_region(evaluate, x, evaluate(x))
            assert fit.log_likelihood >= cold - 1e-9, (i, family)
            if noncure.cure_score <= 0.0:
                on_boundary += 1
                assert fit.n_iter == 0 and fit.converged, (i, family)
            else:
                elsewhere += 1
    assert on_boundary >= 50 and elsewhere >= 150, (on_boundary, elsewhere)


def test_boundary_cure_fit_has_no_wald_intervals(short_days_sample):
    # On the short-days data the lognormal cure fit stays at logit c = -40,
    # the end of _expit's clamp, where the logit-c SE would be ~1e8: no
    # intervals, and the diagnostic names the boundary.
    fit = fit_model(short_days_sample, FamilySpec("lognormal", cure=True))
    assert fit.converged and fit.n_iter == 0
    assert fit.params.cure_fraction < 1e-17
    iv = wald_intervals(fit, short_days_sample)
    assert iv.intervals is None
    assert iv.diagnostic == (
        "the cure fraction sits on the boundary c = 0, where logit c has no "
        "finite standard error"
    )


# ---------------------------------------------------------------------------
# Wald intervals

def _cure_fit(seed=101, n=300):
    from curecheck.simulate import SimulationConfig, UniformCensoring, simulate_mixture

    cfg = SimulationConfig(
        n=n,
        cure_fraction=0.4,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=UniformCensoring(8.0),
        seed=seed,
    )
    sample, _ = simulate_mixture(cfg)
    return fit_model(sample, FamilySpec("weibull", cure=True)), sample


def test_wald_intervals_symmetric_on_transformed_scale():
    fit, sample = _cure_fit()
    iv = wald_intervals(fit, sample, level=0.95)
    assert iv.intervals is not None
    est = fit.param_dict
    for name, (lo, hi) in iv.intervals.items():
        assert lo < est[name] < hi
        if name == "cure_fraction":
            mid = 0.5 * (math.log(lo / (1 - lo)) + math.log(hi / (1 - hi)))
            assert mid == pytest.approx(math.log(est[name] / (1 - est[name])), abs=1e-9)
            assert 0.0 < lo < hi < 1.0
        else:
            mid = 0.5 * (math.log(lo) + math.log(hi))
            assert mid == pytest.approx(math.log(est[name]), abs=1e-9)
            assert lo > 0.0


def test_wald_intervals_widen_with_level():
    fit, sample = _cure_fit()
    narrow = wald_intervals(fit, sample, level=0.80).intervals
    wide = wald_intervals(fit, sample, level=0.99).intervals
    for name in narrow:
        assert wide[name][0] < narrow[name][0]
        assert wide[name][1] > narrow[name][1]


def test_wald_intervals_at_the_largest_level_below_one():
    fit, sample = _cure_fit()
    level = 0.9999999999999999  # 1 - 2**-53; 0.5 * (1 + level) rounds to 1.0
    widest = wald_intervals(fit, sample, level=level).intervals
    narrow = wald_intervals(fit, sample, level=0.99).intervals
    for name, (lo, hi) in widest.items():
        assert 0.0 < lo < narrow[name][0] and narrow[name][1] < hi
        assert math.isfinite(hi) and (name != "cure_fraction" or hi <= 1.0)


def test_wald_intervals_level_validation():
    fit, sample = _cure_fit()
    for bad in (0.0, 1.0, -0.2, 1.5, "x", None):
        with pytest.raises(DomainError, match="confidence level"):
            wald_intervals(fit, sample, bad)


def test_wald_intervals_unavailable_without_convergence(monkeypatch):
    # No trust-region step allowed: the start fails the gradient test and
    # is returned as it is, unconverged.
    monkeypatch.setattr("curecheck.models._MAX_ITER", 0)
    rng = np.random.default_rng(4)
    times = rng.exponential(size=100)
    sample = validate_sample([(float(t), True) for t in times])
    fit = fit_model(sample, FamilySpec("weibull"))
    assert not fit.converged and fit.n_iter == 0
    start = log_likelihood(fit.spec, _initial_params(fit.spec, _start_basis(sample)), sample)
    assert fit.log_likelihood == start
    iv = wald_intervals(fit, sample)
    assert iv.intervals is None
    assert "did not converge" in iv.diagnostic


@pytest.mark.parametrize(
    "info, reason",
    [
        ([[math.nan]], "not finite"),
        ([[1.0, 2.0], [2.0, 1.0]], "not positive definite"),  # eigenvalues 3 and -1
        ([[1e-310]], "not positive definite"),  # its inverse overflows to inf
    ],
    ids=["nan", "indefinite", "inverse-overflows"],
)
def test_standard_errors_name_an_unusable_information_matrix(info, reason):
    assert _standard_errors(np.array(info)) == (
        None, f"observed information matrix is {reason} at the optimum"
    )
