"""Model selection by AIC, the susceptible-survivor ratio, and the final verdict."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from curecheck.assessment import (
    VERDICT_APPROPRIATE,
    VERDICT_INSUFFICIENT,
    VERDICT_NONCURE,
    VERDICT_SMALL_CURE,
    VERDICTS,
    AssessmentConfig,
    ModelTableRow,
    _select_from_rows,
    deviance_cure_test,
    receus_assess,
    receus_components,
    select_model_by_aic,
    verdict_from_flags,
)
from curecheck.errors import AssessmentError, DomainError, FitError
from curecheck.models import (
    FamilySpec,
    ModelFit,
    Params,
    _fit,
    fit_model,
    latency_quantile,
)
from curecheck.simulate import (
    AdministrativeCensoring,
    CompositeCensoring,
    SimulationConfig,
    UniformCensoring,
    restrict_followup,
    simulate_mixture,
)
from curecheck.survival import validate_sample


def _simulated_cure_sample(seed=20000, n=1000):
    cfg = SimulationConfig(
        n=n,
        cure_fraction=0.4,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=CompositeCensoring(7.3, 14.6),
        seed=seed,
    )
    sample, _ = simulate_mixture(cfg)
    return sample


# ---------------------------------------------------------------------------
# verdict logic

def test_verdict_from_flags_exhaustive():
    for selected, cf_ok, r_ok in itertools.product((True, False), repeat=3):
        v = verdict_from_flags(selected, cf_ok, r_ok)
        if not selected:
            assert v == VERDICT_NONCURE
        elif not cf_ok:
            assert v == VERDICT_SMALL_CURE
        elif not r_ok:
            assert v == VERDICT_INSUFFICIENT
        else:
            assert v == VERDICT_APPROPRIATE
        assert v in VERDICTS


def test_small_cure_fraction_outranks_ratio():
    # A 1% fitted cure fraction fails the default threshold no matter how
    # small the susceptible-survivor ratio is.
    assert verdict_from_flags(True, False, True) == VERDICT_SMALL_CURE
    assert verdict_from_flags(True, False, False) == VERDICT_SMALL_CURE


# ---------------------------------------------------------------------------
# the susceptible-survivor ratio

def test_components_worked_values():
    spec = FamilySpec("weibull", cure=True)
    p = Params(latency=(0.8133, 0.8052), cure_fraction=0.3976)
    s0, s, r = receus_components(spec, p, 7.28)
    assert s0 == pytest.approx(0.00249, abs=5e-5)
    assert s == pytest.approx(0.3991, abs=5e-4)
    assert r == pytest.approx(0.00625, abs=1e-4)
    # these values clear the default thresholds
    assert p.cure_fraction > 0.025
    assert r < 0.05


def test_components_identities():
    spec = FamilySpec("gamma", cure=True)
    p = Params(latency=(1.6, 1.1), cure_fraction=0.27)
    from curecheck.models import latency_survival

    for tau in (0.3, 1.0, 4.5, 20.0):
        s0, s, r = receus_components(spec, p, tau)
        s0_direct = float(latency_survival(FamilySpec("gamma"), Params(latency=(1.6, 1.1)), tau))
        assert s0 == pytest.approx(s0_direct, rel=1e-12)
        assert s == pytest.approx(0.27 + 0.73 * s0, rel=1e-12)
        assert r == pytest.approx(s0 / s, rel=1e-12)


def test_components_at_time_zero():
    spec = FamilySpec("exponential", cure=True)
    p = Params(latency=(1.0,), cure_fraction=0.4)
    assert receus_components(spec, p, 0.0) == (1.0, 1.0, 1.0)


def test_ratio_approaches_latency_survival_as_cure_vanishes_from_above():
    # With nearly everyone cured, S(tau) ~ 1 and r ~ S0(tau).
    spec = FamilySpec("weibull", cure=True)
    p = Params(latency=(0.8, 0.8), cure_fraction=1.0 - 1e-6)
    s0, s, r = receus_components(spec, p, 3.0)
    assert r == pytest.approx(s0, rel=1e-4)


def test_ratio_nonincreasing_in_tau():
    spec = FamilySpec("lognormal", cure=True)
    p = Params(latency=(1.0, 0.7), cure_fraction=0.35)
    taus = np.linspace(0.0, 25.0, 60)
    rs = [receus_components(spec, p, float(t))[2] for t in taus]
    assert all(a >= b - 1e-15 for a, b in zip(rs, rs[1:]))
    assert rs[0] == 1.0
    assert rs[-1] < 0.01


def test_components_require_cure_spec_and_valid_tau():
    with pytest.raises(DomainError, match="cure spec"):
        receus_components(FamilySpec("weibull"), Params(latency=(1.0, 1.0)), 1.0)
    spec = FamilySpec("weibull", cure=True)
    p = Params(latency=(1.0, 1.0), cure_fraction=0.4)
    with pytest.raises(DomainError):
        receus_components(spec, p, -0.5)


# ---------------------------------------------------------------------------
# selection

def _fake_fit(spec, aic):
    return ModelFit(
        spec=spec,
        params=Params(
            latency=(1.0,) * len(spec.latency_param_names),
            cure_fraction=0.4 if spec.cure else None,
        ),
        log_likelihood=spec.n_params - aic / 2.0,
        aic=aic,
        n_params=spec.n_params,
        n=100,
        n_events=60,
        converged=True,
        n_iter=10,
    )


def _row(family, cure, aic, converged=True):
    spec = FamilySpec(family, cure=cure)
    if not converged:
        return ModelTableRow(spec=spec, aic=aic, converged=False, error="did not converge")
    return ModelTableRow(spec=spec, aic=aic, converged=True, fit=_fake_fit(spec, aic))


def test_selection_prefers_lowest_aic():
    rows = [_row("exponential", False, 110.0), _row("weibull", True, 100.0)]
    assert _select_from_rows(rows).spec.label == "weibull cure"


def test_selection_tie_goes_to_fewer_parameters():
    rows = [_row("weibull", True, 100.0), _row("weibull", False, 100.0)]
    assert _select_from_rows(rows).spec.label == "weibull non-cure"
    # ties within 1e-12 count as ties
    rows = [_row("weibull", True, 100.0), _row("weibull", False, 100.0 + 5e-13)]
    assert _select_from_rows(rows).spec.label == "weibull non-cure"


def test_selection_tie_then_family_order():
    rows = [_row("gamma", False, 100.0), _row("weibull", False, 100.0)]
    assert _select_from_rows(rows).spec.family == "weibull"


def test_selection_skips_unconverged_rows():
    rows = [_row("exponential", False, 50.0, converged=False), _row("weibull", False, 80.0)]
    assert _select_from_rows(rows).spec.family == "weibull"


def test_selection_fails_when_nothing_converges():
    rows = [_row("exponential", False, 50.0, converged=False)]
    with pytest.raises(AssessmentError, match="no model converged"):
        _select_from_rows(rows)


def test_shown_cure_fit_follows_the_selection_rule(monkeypatch):
    # A non-cure model wins; the cure rows tie within 1e-12, so the cure fit
    # shown is the one the selection rule picks: fewer parameters, not the
    # lower AIC.
    rows = (
        _row("weibull", False, 90.0),
        _row("weibull", True, 100.0),
        _row("exponential", True, 100.0 + 1e-13),
    )
    assert rows[1].aic < rows[2].aic
    monkeypatch.setattr(
        "curecheck.assessment.select_model_by_aic", lambda sample, families: (rows, rows[0].fit)
    )
    a = receus_assess(_simulated_cure_sample(n=300))
    assert _select_from_rows(rows[1:]).spec.label == "exponential cure"
    assert any("best cure fit (exponential cure)" in note for note in a.notes)


def test_model_table_has_two_rows_per_family():
    sample = _simulated_cure_sample(n=300)
    families = ("exponential", "weibull")
    rows, selected = select_model_by_aic(sample, families)
    assert [r.spec.label for r in rows] == [
        "exponential non-cure",
        "exponential cure",
        "weibull non-cure",
        "weibull cure",
    ]
    best = min(r.aic for r in rows if r.converged)
    assert selected.aic == best


def test_selection_lets_programming_errors_through(monkeypatch):
    # Only CurecheckError becomes a failed table row; anything else is a bug.
    def broken(*args, **kwargs):
        raise RuntimeError("broken fit")

    monkeypatch.setattr("curecheck.assessment._fit", broken)
    with pytest.raises(RuntimeError, match="broken fit") as info:
        select_model_by_aic(_simulated_cure_sample(n=100), ("exponential",))
    assert type(info.value) is RuntimeError  # not an AssessmentError over failed rows


# ---------------------------------------------------------------------------
# the deviance test: one record, from the assessment's own fits

@pytest.mark.parametrize(
    "records, family",
    [
        (None, "exponential"),
        (None, "weibull"),
        ([(1.0, True), (2.0, True), (3.0, False)], "weibull"),  # the cure fit fails
    ],
    ids=["exponential", "weibull", "failed-cure-fit"],
)
def test_deviance_cure_test_is_the_assessments_record(records, family):
    sample = _simulated_cure_sample(n=300) if records is None else validate_sample(records)
    direct = deviance_cure_test(sample, family)
    via = receus_assess(sample, AssessmentConfig(families=(family,))).deviance_test
    assert direct == via  # every field, both fits included, bit for bit
    assert (direct.deviance is None) == (records is not None)


# ---------------------------------------------------------------------------
# end-to-end assessment

def test_assessment_appropriate_on_simulated_cure_data():
    sample = _simulated_cure_sample()
    a = receus_assess(sample, AssessmentConfig(families=("weibull",)))
    assert a.verdict == VERDICT_APPROPRIATE
    assert a.cure_model_selected
    assert a.cure_fraction == pytest.approx(0.4, abs=0.08)
    assert a.r_hat < 0.05
    assert a.tau == sample.max_time  # default horizon
    assert a.followup_test.sufficient_followup


def test_assessment_honours_explicit_tau():
    sample = _simulated_cure_sample()
    a = receus_assess(sample, AssessmentConfig(families=("weibull",), tau=2.0))
    assert a.tau == 2.0
    s0, s, r = receus_components(a.selected.spec, a.selected.params, 2.0)
    assert a.r_hat == pytest.approx(r, rel=1e-12)


def test_assessment_small_cure_verdict_via_threshold():
    sample = _simulated_cure_sample()
    a = receus_assess(
        sample,
        AssessmentConfig(families=("weibull",), cure_fraction_threshold=0.99),
    )
    assert a.verdict == VERDICT_SMALL_CURE
    assert not a.cure_fraction_pass
    assert any("cure fraction" in note for note in a.notes)


def test_assessment_noncure_selected_on_proper_data():
    rng = np.random.default_rng(3)
    t = rng.exponential(size=400)
    cens = np.minimum(t, 2.0)
    sample = validate_sample(list(zip(cens.tolist(), (t <= 2.0).tolist())))
    a = receus_assess(sample, AssessmentConfig(families=("exponential",)))
    assert a.verdict == VERDICT_NONCURE
    assert not a.cure_model_selected
    # the best cure fit is still reported for transparency
    assert any("transparency" in note for note in a.notes)
    assert a.cure_fraction is not None


def test_assessment_flags_followup_disagreement():
    # Turn the last record into the largest event: alpha_n reads
    # insufficient (alpha = 1) while the model-based verdict stays
    # appropriate, and the disagreement is surfaced as a note.
    sample = _simulated_cure_sample()
    records = sample.records + [(sample.max_time + 0.1, True)]
    bumped = validate_sample(records)
    a = receus_assess(bumped, AssessmentConfig(families=("weibull",)))
    assert a.verdict == VERDICT_APPROPRIATE
    assert not a.followup_test.sufficient_followup
    assert any("disagree" in note for note in a.notes)


def test_assessment_requires_events():
    sample = validate_sample([(1.0, False), (2.0, False)])
    with pytest.raises(AssessmentError, match="no events: fitting undefined"):
        receus_assess(sample)


def test_assessment_fails_when_no_model_fits():
    sample = validate_sample([(1.0, True)])  # one record: every spec needs more
    with pytest.raises(AssessmentError, match="no model converged"):
        receus_assess(sample)


def test_assessment_reports_unconverged_rows(monkeypatch):
    sample = _simulated_cure_sample(n=300)
    a = receus_assess(sample, AssessmentConfig(families=("weibull",)))
    for row in a.model_table:
        assert row.converged
        assert row.aic is not None
    assert not any("converge" in note for note in a.notes)

    # Each unconverged row gets one note: the weibull cure fit, whose AIC
    # beats the selected fit, in the "lower AIC" wording; the weibull
    # non-cure fit, whose AIC does not, in the plain one.
    def fit_unconverged(sample, spec, noncure):
        fit = _fit(sample, spec, noncure)
        return replace(fit, converged=False) if spec.family == "weibull" else fit

    monkeypatch.setattr("curecheck.assessment._fit", fit_unconverged)
    b = receus_assess(sample, AssessmentConfig(families=("exponential", "weibull")))
    rows = {row.spec.label: row for row in b.model_table}
    assert b.selected.spec.label == "exponential cure"
    assert rows["weibull cure"].aic < b.selected.aic < rows["weibull non-cure"].aic
    assert [note for note in b.notes if "converge" in note] == [
        f"weibull non-cure did not converge (AIC {rows['weibull non-cure'].aic:.4f}) "
        "and cannot be selected",
        f"weibull cure had a lower AIC ({rows['weibull cure'].aic:.4f}) but did not "
        "converge; the best converged fit was used instead",
    ]


def test_plateau_assess_stays_within_its_evaluation_budget(plateau_sample, monkeypatch):
    # Counts, not seconds, so the guard holds on any host: on the benchmark's
    # plateau data every fit converges within 40 trust-region iterations, and
    # the incomplete-gamma kernel runs at most 100 times per assessment.
    from curecheck import special

    calls = []
    inc_gamma = special._inc_gamma

    def counted(a, x, **kwargs):
        calls.append(a)
        return inc_gamma(a, x, **kwargs)

    monkeypatch.setattr(special, "_inc_gamma", counted)
    a = receus_assess(plateau_sample)
    for row in a.model_table:
        assert row.converged, row.spec.label
        assert row.fit.n_iter <= 40, row.spec.label
    assert len(calls) <= 100


def test_short_days_assess_stays_within_its_evaluation_budget(short_days_sample, monkeypatch):
    # Counts, not seconds.  The lognormal non-cure fit has a negative cure
    # score, so the lognormal cure fit starts on the boundary c = 0 and stops
    # there at once, instead of walking ~34 iterations down the c -> 0 ridge
    # from initial_params.
    from curecheck import models

    calls = []
    derivatives = models._loglik_derivatives

    def counted(*args):
        calls.append(args[0])
        return derivatives(*args)

    monkeypatch.setattr(models, "_loglik_derivatives", counted)
    a = receus_assess(short_days_sample)
    rows = {row.spec.label: row for row in a.model_table}
    assert a.verdict == VERDICT_NONCURE
    assert all(row.converged for row in a.model_table)
    assert rows["lognormal non-cure"].fit.cure_score <= 0.0
    assert rows["lognormal cure"].fit.n_iter == 0
    assert len(calls) <= 80


def test_fit_model_equals_the_assessments_row(short_days_sample):
    # One derivation: a standalone cure fit makes its own non-cure fit first,
    # and equals the row the assessment fitted from its non-cure row.
    rows, _ = select_model_by_aic(short_days_sample)
    for row in rows:
        assert fit_model(short_days_sample, row.spec) == row.fit, row.spec.label


def test_assessment_notes_each_failed_fit(monkeypatch):
    # A fit that raises: the row stays in the table and the loss is named in
    # the notes.
    def fit_or_fail(sample, spec, noncure):
        if spec.label == "gamma non-cure":
            raise FitError(f"initial parameters give a non-finite {spec.label} likelihood")
        return _fit(sample, spec, noncure)

    monkeypatch.setattr("curecheck.assessment._fit", fit_or_fail)
    a = receus_assess(_simulated_cure_sample(n=300))
    failed = [row for row in a.model_table if row.error is not None]
    assert [row.spec.label for row in failed] == ["gamma non-cure"]
    assert "non-finite gamma non-cure likelihood" in failed[0].error
    assert a.notes[0] == (
        f"gamma non-cure fit failed and is missing from the AIC comparison: {failed[0].error}"
    )
    assert sum("fit failed" in note for note in a.notes) == 1


def test_config_validation():
    with pytest.raises(DomainError, match="at least one"):
        AssessmentConfig(families=())
    with pytest.raises(DomainError, match="unknown family"):
        AssessmentConfig(families=("weibull", "pareto"))
    with pytest.raises(DomainError):
        AssessmentConfig(cure_fraction_threshold=0.0)
    with pytest.raises(DomainError):
        AssessmentConfig(r_threshold=1.0)
    with pytest.raises(DomainError):
        AssessmentConfig(tau=-1.0)
    for name in ("tau", "late_window"):
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match=f"{name} must be finite and > 0"):
                AssessmentConfig(**{name: bad})


# ---------------------------------------------------------------------------
# statistical behaviour over replicates

def test_null_data_select_a_noncure_model():
    # Proper exponential with heavy early censoring: a non-cure spec
    # should win the AIC comparison in at least 80 of 100 replicates.
    fams = ("exponential", "weibull", "loglogistic")
    noncure = 0
    for i in range(100):
        cfg = SimulationConfig(
            n=500,
            cure_fraction=0.0,
            family="exponential",
            latency=(1.0,),
            censoring=UniformCensoring(1.5),
            seed=70000 + i,
        )
        sample, _ = simulate_mixture(cfg)
        a = receus_assess(sample, AssessmentConfig(families=fams))
        if not a.cure_model_selected:
            noncure += 1
    assert noncure >= 80, f"non-cure selected {noncure}/100"


def test_truncated_followup_is_flagged():
    # Cure data whose observation window covers only a tenth of the
    # latency distribution's range must not be judged appropriate.
    t999 = latency_quantile("weibull", (0.8, 0.8), 0.999)
    flagged = 0
    for i in range(100):
        cfg = SimulationConfig(
            n=500,
            cure_fraction=0.4,
            family="weibull",
            latency=(0.8, 0.8),
            censoring=AdministrativeCensoring(2.0 * t999),
            seed=80000 + i,
        )
        sample, _ = simulate_mixture(cfg)
        trunc = restrict_followup(sample, 0.1 * t999)
        a = receus_assess(trunc, AssessmentConfig(families=("weibull",)))
        if a.verdict != VERDICT_APPROPRIATE:
            flagged += 1
    assert flagged >= 80, f"flagged {flagged}/100"
