"""Cross-cutting invariants: unit changes must not change decisions, and
every valid sample gets a verdict or a named error.

Time units are arbitrary (days vs years), so every decision-level output
has to be invariant under rescaling of the time axis, and the likelihood
must shift by exactly the Jacobian term -n_events * log(c).
"""

import json
import math

import jsonschema
import numpy as np
import pytest
from conftest import rescaled
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curecheck.assessment import VERDICTS, AssessmentConfig, receus_assess
from curecheck.cli import main, write_csv
from curecheck.errors import CurecheckError
from curecheck.models import (
    FAMILIES,
    FamilySpec,
    Params,
    fit_model,
    log_likelihood,
    wald_intervals,
)
from curecheck.report import build_report, render_json, report_schema
from curecheck.simulate import (
    AdministrativeCensoring,
    CompositeCensoring,
    SimulationConfig,
    UniformCensoring,
    simulate_mixture,
)
from curecheck.survival import kaplan_meier, validate_sample

# how each fitted parameter responds to times -> c * times:
#   "scale": multiplied by c;  "rate": divided by c;  "shape": unchanged
_PARAM_KIND = {
    ("exponential", "rate"): "rate",
    ("weibull", "shape"): "shape",
    ("weibull", "scale"): "scale",
    ("gamma", "shape"): "shape",
    ("gamma", "rate"): "rate",
    ("loglogistic", "shape"): "shape",
    ("loglogistic", "scale"): "scale",
    ("lognormal", "scale"): "scale",
    ("lognormal", "sigma"): "shape",
}


@pytest.fixture(scope="module")
def mixed_sample():
    cfg = SimulationConfig(
        n=500,
        cure_fraction=0.4,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=CompositeCensoring(7.3, 14.6),
        seed=90001,
    )
    sample, _ = simulate_mixture(cfg)
    return sample


def test_fitted_parameters_are_scale_equivariant(mixed_sample):
    c = 365.25
    scaled = rescaled(mixed_sample, c)
    log_c = math.log(c)
    for family in FAMILIES:
        for cure in (False, True):
            spec = FamilySpec(family, cure=cure)
            base = fit_model(mixed_sample, spec)
            other = fit_model(scaled, spec)
            assert base.converged and other.converged, spec.label
            for name in spec.latency_param_names:
                kind = _PARAM_KIND[(family, name)]
                d = math.log(other.param_dict[name]) - math.log(base.param_dict[name])
                want = {"scale": log_c, "rate": -log_c, "shape": 0.0}[kind]
                assert d == pytest.approx(want, abs=1e-4), (spec.label, name)
            if cure:
                a, b = base.param_dict["cure_fraction"], other.param_dict["cure_fraction"]
                d = math.log(b / (1 - b)) - math.log(a / (1 - a))
                assert d == pytest.approx(0.0, abs=1e-4), spec.label


def test_loglik_shifts_by_jacobian_under_rescaling(mixed_sample):
    c = 365.25
    scaled = rescaled(mixed_sample, c)
    shift = -mixed_sample.n_events * math.log(c)
    for family in ("exponential", "weibull", "loglogistic"):
        spec = FamilySpec(family, cure=True)
        base = fit_model(mixed_sample, spec)
        other = fit_model(scaled, spec)
        assert other.log_likelihood - base.log_likelihood == pytest.approx(
            shift, abs=1e-6
        ), spec.label


def test_aic_differences_invariant_under_rescaling(mixed_sample):
    c = 365.25
    scaled = rescaled(mixed_sample, c)
    base_aic = {}
    scaled_aic = {}
    for family in FAMILIES:
        for cure in (False, True):
            spec = FamilySpec(family, cure=cure)
            base_aic[spec.label] = fit_model(mixed_sample, spec).aic
            scaled_aic[spec.label] = fit_model(scaled, spec).aic
    labels = list(base_aic)
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            d_base = base_aic[a] - base_aic[b]
            d_scaled = scaled_aic[a] - scaled_aic[b]
            assert d_base == pytest.approx(d_scaled, abs=1e-3), (a, b)


def test_verdict_invariant_under_twenty_random_rescalings(mixed_sample):
    base = receus_assess(mixed_sample, AssessmentConfig(families=("weibull",)))
    rng = np.random.default_rng(424242)
    for _ in range(20):
        c = float(10.0 ** rng.uniform(-3, 3))
        scaled_cfg = AssessmentConfig(
            families=("weibull",),
            tau=None if base.config.tau is None else base.config.tau * c,
        )
        other = receus_assess(rescaled(mixed_sample, c), scaled_cfg)
        assert other.verdict == base.verdict, c
        assert other.cure_model_selected == base.cure_model_selected, c
        assert other.followup_test.n_n == base.followup_test.n_n, c
        assert other.followup_test.alpha_n == base.followup_test.alpha_n, c  # bitwise
        assert other.cure_fraction == pytest.approx(base.cure_fraction, abs=1e-4), c


# Two small samples whose assessment once ended in a ZeroDivisionError: in A
# a Nelder-Mead fallback (since removed) walked a lognormal fit's log sigma
# past the exp clamp, in B a gamma-cure trust-region step landed exactly on
# the radius in the hard case.
_SAMPLE_A = (
    [(0.01, 0)] * 2 + [(0.3433333333333333, 0)] * 4 + [(0.6766666666666666, 0)] * 2
    + [(1.01, 0)] + [(1.3433333333333333, 0)] * 2 + [(2.3433333333333333, 0)] * 2
    + [(2.6766666666666663, 1)]
)
_SAMPLE_B = [
    (0.08714019512583303, 1), (0.3625416831006345, 0),
    (3.511760441665993, 0), (654.0859663609416, 0),
]

_SMALL_TIMES = {
    "exponential": lambda rng, n: rng.exponential(size=n),
    "exponential in thirds": lambda rng, n: np.round(3.0 * rng.exponential(size=n)) / 3.0 + 0.01,
    "lognormal(0, 3)": lambda rng, n: rng.lognormal(0.0, 3.0, n),
    "uniform^4 at a scale in 1e-6..1e6": (
        lambda rng, n: rng.uniform(size=n) ** 4 * 10.0 ** rng.uniform(-6.0, 6.0)
    ),
}


@st.composite
def _small_samples(draw):
    """3-39 records: ties, far spreads, extreme scales and, in some draws, one
    to three times exactly 0; 5-100% events with at least one, or (in some
    draws) none at all.  Hypothesis favours small integers, so the rarer
    cases sit at the top of their ranges."""
    n = draw(st.integers(3, 39))
    times = draw(st.sampled_from(sorted(_SMALL_TIMES)))
    event_fraction = draw(st.floats(0.05, 1.0))
    n_zero = max(draw(st.integers(-6, 3)), 0)
    all_censored = draw(st.integers(0, 9)) == 9
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = _SMALL_TIMES[times](rng, n)
    t[rng.choice(n, size=n_zero, replace=False)] = 0.0
    events = rng.random(n) < event_fraction
    if all_censored:
        events[:] = False
    else:
        events[rng.integers(n)] = True
    return list(zip(t.tolist(), events.tolist()))


# On a failure hypothesis imports libcst to print the example as a patch, and
# that import warns; as an error it would hide the failure behind an internal one.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(records=_small_samples())
@example(records=_SAMPLE_A)
@example(records=_SAMPLE_B)
@example(records=[(0.0, 1), (0.0, 0), (0.5, 1), (1.0, 1), (2.0, 0)])
@example(records=[(0.0, 0), (1.0, 0), (2.0, 0)])
# One event at the largest time: trust-region steps that overflow.
@example(records=[(0.17, 0), (1.25, 0), (2.0399999999999996, 1), (1.51, 0)])
@example(records=[(2.76, 1), (0.19, 0), (0.21000000000000002, 0), (1.11, 0), (1.22, 0),
                  (1.37, 0), (0.44, 0), (0.79, 0), (0.25, 0), (0.76, 0)])
def test_small_samples_get_a_verdict_or_a_named_error(records):
    try:
        assessment = receus_assess(validate_sample(records))
    except CurecheckError:
        return
    assert assessment.verdict in VERDICTS
    doc = json.loads(render_json(build_report(assessment, label="property")))
    jsonschema.validate(doc, report_schema())


def _decisions(sample):
    """The verdict, the selected spec and every row's converged flag, or the error type."""
    try:
        a = receus_assess(sample)
    except CurecheckError as exc:
        return type(exc)
    return a.verdict, a.selected.spec, tuple(
        row.fit is not None and row.fit.converged for row in a.model_table
    )


# The scale is 10^U(-6, 6), drawn from a seed: hypothesis's own floats
# crowd near 0.  The cure score that picks each cure fit's start is a sum of
# survival ratios, free of the time unit, so its sign must not move either.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(records=_small_samples(), seed=st.integers(0, 2**32 - 1))
def test_decisions_invariant_under_rescaling_by_up_to_a_million(records, seed):
    sample = validate_sample(records)
    scale = 10.0 ** np.random.default_rng(seed).uniform(-6.0, 6.0)
    assert _decisions(rescaled(sample, scale)) == _decisions(sample), scale


# At these units the fitted rates reach ~1e305 and the scales ~1e-305, past
# e^(+-700) but inside the log of the largest float, where the fitting
# coordinates are clamped.  From ~3e305 on the sum of the times overflows,
# so the cache and the start values sum them scaled by a power of 2.
@pytest.mark.parametrize("factor", [1e-305, 1e305, 3e305, 1e306, 3e306])
def test_decisions_invariant_at_the_ends_of_the_float_range(factor):
    config = SimulationConfig(
        n=500, cure_fraction=0.4, family="weibull", latency=(0.8, 0.8),
        censoring=CompositeCensoring(7.3, 14.6), seed=7,
    )
    demo = simulate_mixture(config)[0]  # the README demo
    base, other = receus_assess(demo), receus_assess(rescaled(demo, factor))
    assert other.verdict == base.verdict == "appropriate"
    assert other.selected.spec == base.selected.spec
    assert [r.fit.converged for r in other.model_table] == [True] * 10
    assert other.notes == base.notes
    assert other.cure_fraction == pytest.approx(base.cure_fraction, rel=0.0, abs=1e-15)


# Past half the largest float, 2 y_max_event - y_max and the sum of the two
# middle times overflow unless they are halved first.
def test_cli_json_report_with_times_near_the_largest_float(tmp_path, capsys):
    config = SimulationConfig(
        n=500, cure_fraction=0.4, family="weibull", latency=(0.8, 0.8),
        censoring=CompositeCensoring(7.3, 14.6), seed=7,
    )
    path = tmp_path / "demo.csv"
    write_csv(rescaled(simulate_mixture(config)[0], 2.4e307), str(path))  # the README demo
    assert main(["assess", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, report_schema())
    assert doc["followup_test"]["alpha_n"] == 0.04933921081791663  # as unscaled


# With the largest time at 1.75e308 the exposure sum(times) / n_events
# overflows; the start clamps it to the largest float, so every fit runs.
@pytest.mark.parametrize("seed", range(1, 11))
def test_verdict_and_report_survive_times_up_to_the_largest_float(seed):
    config = SimulationConfig(
        n=200, cure_fraction=0.3, family="weibull", latency=(3.0, 0.8),
        censoring=AdministrativeCensoring(1.0), seed=seed,
    )
    sample = simulate_mixture(config)[0]
    base = receus_assess(sample)
    other = receus_assess(rescaled(sample, 1.75e308 / sample.max_time))
    assert other.verdict == base.verdict
    assert [row.error for row in other.model_table] == [None] * 10
    doc = json.loads(render_json(build_report(other, label="scaled")))
    jsonschema.validate(doc, report_schema())


@pytest.mark.parametrize("records", [_SAMPLE_A, _SAMPLE_B], ids=["A", "B"])
def test_cli_assess_reports_on_small_degenerate_samples(records, tmp_path, capsys):
    path = tmp_path / "small.csv"
    write_csv(validate_sample(records), str(path))
    code = main(["assess", str(path), "--format", "json"])
    assert code in (0, 2)
    jsonschema.validate(json.loads(capsys.readouterr().out), report_schema())


# Samples A and B pinned: what each one's assessment concludes and which fits
# end unconverged.  ROADMAP item 3 (why each fit ended) and item 22 (small
# samples make the verdict more confident) both start from these two, so a
# change to either result must be a visible decision, made here.
@pytest.mark.parametrize(
    "records, verdict, selected, unconverged",
    [
        (_SAMPLE_A, "not_appropriate_noncure_selected", FamilySpec("exponential"), [
            "weibull non-cure", "weibull cure", "gamma non-cure", "gamma cure",
            "loglogistic non-cure", "loglogistic cure", "lognormal non-cure", "lognormal cure",
        ]),
        (_SAMPLE_B, "appropriate", FamilySpec("exponential", cure=True), [
            "weibull cure", "gamma cure", "loglogistic cure", "lognormal cure",
        ]),
    ],
    ids=["A", "B"],
)
def test_small_degenerate_samples_keep_their_verdicts(records, verdict, selected, unconverged):
    a = receus_assess(validate_sample(records))
    assert a.verdict == verdict
    assert a.selected.spec == selected
    assert [row.spec.label for row in a.model_table if not (row.fit and row.fit.converged)] == unconverged


def test_internal_identities(mixed_sample):
    a = receus_assess(mixed_sample, AssessmentConfig(families=("exponential", "weibull")))
    # AIC is exactly 2k - 2 loglik, recomputable bit for bit
    for row in a.model_table:
        if row.fit is not None:
            assert 2.0 * row.fit.spec.n_params - 2.0 * row.fit.log_likelihood == row.fit.aic
    # mixture identity at the horizon
    c = a.cure_fraction
    assert a.s_at_tau == pytest.approx(c + (1 - c) * a.s0_at_tau, rel=1e-12)
    assert a.r_hat == pytest.approx(a.s0_at_tau / a.s_at_tau, rel=1e-12)
    # the nonparametric cure estimate is the KM terminal value
    km = kaplan_meier(mixed_sample).survival[-1]
    assert a.summary.km_at_max == km


def test_loglik_gradient_vanishes_for_every_spec(mixed_sample):
    # At a declared optimum the transformed-scale score must be ~0.
    h = 1e-5
    for family in FAMILIES:
        for cure in (False, True):
            spec = FamilySpec(family, cure=cure)
            fit = fit_model(mixed_sample, spec)

            def ll_at(x):
                if cure:
                    cf = 1.0 / (1.0 + math.exp(-x[0]))
                    theta = tuple(math.exp(v) for v in x[1:])
                    p = Params(latency=theta, cure_fraction=cf)
                else:
                    p = Params(latency=tuple(math.exp(v) for v in x))
                return log_likelihood(spec, p, mixed_sample)

            if cure:
                cf = fit.params.cure_fraction
                x = np.array(
                    [math.log(cf / (1 - cf))] + [math.log(v) for v in fit.params.latency]
                )
            else:
                x = np.array([math.log(v) for v in fit.params.latency])
            for i in range(x.size):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                g = (ll_at(xp) - ll_at(xm)) / (2 * h)
                assert abs(g) < 1e-3, (spec.label, i, g)


def test_wald_interval_coverage_near_nominal():
    # Exponential data with uniform censoring, true rate 1: the 95% Wald
    # interval should cover the truth at close to the nominal rate.
    covered = 0
    total = 500
    for i in range(total):
        cfg = SimulationConfig(
            n=100,
            cure_fraction=0.0,
            family="exponential",
            latency=(1.0,),
            censoring=UniformCensoring(2.0),
            seed=60000 + i,
        )
        sample, _ = simulate_mixture(cfg)
        fit = fit_model(sample, FamilySpec("exponential"))
        iv = wald_intervals(fit, sample, level=0.95)
        lo, hi = iv.intervals["rate"]
        if lo <= 1.0 <= hi:
            covered += 1
    rate = covered / total
    assert 0.90 <= rate <= 0.99, f"coverage {rate:.3f}"


def test_decisions_unchanged_by_followup_extension_with_pure_censoring():
    # Adding extra censored-only follow-up (no new events) can only make
    # follow-up look better, never flip an appropriate verdict to
    # insufficient-follow-up at the same horizon.
    cfg = SimulationConfig(
        n=400,
        cure_fraction=0.4,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=CompositeCensoring(7.3, 14.6),
        seed=90500,
    )
    sample, _ = simulate_mixture(cfg)
    tau = sample.max_time
    base = receus_assess(sample, AssessmentConfig(families=("weibull",), tau=tau))
    rows = list(zip(sample.times.tolist(), sample.events.tolist()))
    extended = validate_sample(rows + [(30.0, False)] * 5)
    longer = receus_assess(extended, AssessmentConfig(families=("weibull",), tau=tau))
    assert base.verdict == "appropriate"
    assert longer.verdict == "appropriate"
    assert longer.followup_test.alpha_n <= base.followup_test.alpha_n + 1e-12
