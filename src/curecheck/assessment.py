"""Cure-model appropriateness assessment.

The procedure:

  (i)   fit every latency family with and without a cured fraction and
        compare by AIC;
  (ii)  if a non-cure model wins, a cure model is not appropriate;
  (iii) if the fitted cure fraction is tiny (default <= 0.025), either a
        cure model is not valid or follow-up is too short to tell;
  (iv)  otherwise compute r_hat = S0(tau) / S(tau), the model's estimated
        share of still-susceptible subjects among survivors at the horizon
        tau — small values (default < 0.05) mean nearly everyone still at
        risk is cured, so a cure model is appropriate.

The fits of step (i) are made once, by ``models._fits``, and one rule,
``_best_fit``, picks the selected fit and the cure fit of steps (iii)-(iv).
The same rows give the cure-vs-non-cure deviance test of the selected family
(``deviance_cure_test`` runs that pipeline on one family alone).  The
Maller-Zhou follow-up test, a nonparametric follow-up summary and the
deviance test are attached to the result for side-by-side reporting, but
the verdict field is driven by steps (i)-(iv) alone; disagreements are
surfaced as notes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .diagnostics import FollowUpTest, alpha_n_test
from .errors import AssessmentError, CurecheckError, DomainError
from .models import (
    FAMILIES,
    FamilySpec,
    ModelFit,
    Params,
    _fits,
    latency_survival,
)
from .special import chi2_sf_1df
from .survival import FollowUpSummary, SurvivalSample, _is_number, followup_summary

VERDICT_APPROPRIATE = "appropriate"
VERDICT_NONCURE = "not_appropriate_noncure_selected"
VERDICT_SMALL_CURE = "not_appropriate_small_cure_fraction"
VERDICT_INSUFFICIENT = "not_appropriate_insufficient_followup"

VERDICTS = (
    VERDICT_APPROPRIATE,
    VERDICT_NONCURE,
    VERDICT_SMALL_CURE,
    VERDICT_INSUFFICIENT,
)

_AIC_TIE_TOL = 1e-12


@dataclass(frozen=True)
class AssessmentConfig:
    """Settings for receus_assess; defaults follow the recommended thresholds."""

    families: tuple[str, ...] = FAMILIES
    cure_fraction_threshold: float = 0.025
    r_threshold: float = 0.05
    alpha_threshold: float = 0.05
    tau: float | None = None  # None: the sample's maximum observed time
    late_window: float | None = None  # None: 20% of the maximum follow-up

    def __post_init__(self):
        if not self.families:
            raise DomainError("at least one latency family is required")
        for i, fam in enumerate(self.families):
            FamilySpec(fam)  # raises DomainError on an unknown family
            if fam in self.families[:i]:
                raise DomainError(f"latency family {fam!r} is listed twice")
        for name in ("cure_fraction_threshold", "r_threshold", "alpha_threshold"):
            v = getattr(self, name)
            if not (_is_number(v, numbers.Real) and 0.0 < v < 1.0):
                raise DomainError(f"{name} must lie strictly in (0, 1), got {v!r}")
        for name in ("tau", "late_window"):
            v = getattr(self, name)
            if v is not None and not (_is_number(v, numbers.Real) and 0.0 < v < math.inf):
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")


@dataclass(frozen=True)
class ModelTableRow:
    """One (family, cure) spec in the comparison table: its fit, or the error that stopped it."""

    spec: FamilySpec
    fit: ModelFit | None = None
    error: str | None = None


@dataclass(frozen=True)
class DevianceTest:
    """Cure vs non-cure fit of one family: the boundary deviance test.

    When either fit failed or did not converge the statistic fields are
    absent and ``diagnostic`` says why, naming the non-cure fit first.
    """

    family: str
    deviance: float | None = None
    deviance_p_value: float | None = None
    diagnostic: str | None = None


@dataclass(frozen=True)
class CureAssessment:
    """Full assessment output: comparison table, verdict, and follow-up checks."""

    model_table: tuple[ModelTableRow, ...]
    selected: ModelFit
    deviance_test: DevianceTest
    cure_model_selected: bool
    cure_fraction: float | None
    s0_at_tau: float | None
    s_at_tau: float | None
    r_hat: float | None
    tau: float
    cure_fraction_pass: bool
    r_pass: bool
    verdict: str
    summary: FollowUpSummary
    followup_test: FollowUpTest
    config: AssessmentConfig
    notes: tuple[str, ...] = field(default_factory=tuple)


def _verdict_from_flags(cure_model_selected: bool, cure_fraction_pass: bool, r_pass: bool) -> str:
    """The verdict as a pure function of the three step outcomes."""
    if not cure_model_selected:
        return VERDICT_NONCURE
    if not cure_fraction_pass:
        return VERDICT_SMALL_CURE
    if not r_pass:
        return VERDICT_INSUFFICIENT
    return VERDICT_APPROPRIATE


def _fit_rows(sample: SurvivalSample, families: tuple[str, ...]) -> tuple[ModelTableRow, ...]:
    """One row per spec of ``models._fits``; a failed fit's row carries its error."""
    return tuple(
        ModelTableRow(spec, error=str(fit))
        if isinstance(fit, CurecheckError)
        else ModelTableRow(spec, fit)
        for spec, fit in _fits(sample, families)
    )


def _best_fit(rows: tuple[ModelTableRow, ...] | list[ModelTableRow]) -> ModelFit | None:
    """The converged fit with the lowest AIC, or None when no fit converged.

    Ties within 1e-12 go to the fit with fewer parameters, then to the
    earlier family in ``FAMILIES`` order.
    """
    fits = [r.fit for r in rows if r.fit is not None and r.fit.converged]
    if not fits:
        return None
    best_aic = min(f.aic for f in fits)
    return min(
        (f for f in fits if f.aic <= best_aic + _AIC_TIE_TOL),
        key=lambda f: (f.spec.n_params, FAMILIES.index(f.spec.family)),
    )


def _receus_components(spec: FamilySpec, params: Params, tau: float) -> tuple[float, float, float]:
    """(S0(tau), S(tau), r_hat) for a cure spec at horizon tau >= 0.

    r_hat = S0(tau) / [c + (1 - c) S0(tau)] estimates the proportion of
    still-susceptible subjects among those surviving past tau.  The one
    caller, ``receus_assess``, passes a cure fit's spec and estimates, and
    a tau that ``AssessmentConfig`` checked finite and > 0 or the sample's
    ``max_time``, which ``SurvivalSample`` keeps finite and >= 0.
    """
    s0 = float(latency_survival(spec, params, tau))
    c = float(params.cure_fraction)  # type: ignore[arg-type]
    s = c + (1.0 - c) * s0
    return s0, s, s0 / s


def _deviance_test(rows: tuple[ModelTableRow, ...], family: str) -> DevianceTest:
    """The deviance test of ``family`` read off its two table rows.

    d = max(0, 2 (loglik_cure - loglik_noncure)).  The non-cure model sits on
    the boundary (cure fraction 0) of the cure model, so the null
    distribution is the mixture 0.5 chi2_0 + 0.5 chi2_1 (Self & Liang 1987)
    and the p-value is p = 0.5 * P(chi2_1 >= d).
    """
    by_spec = {r.spec: r for r in rows}
    ll: dict[bool, float] = {}
    for cure in (False, True):
        row = by_spec[FamilySpec(family, cure=cure)]
        if row.fit is None:
            return DevianceTest(family, diagnostic=f"{row.spec.label} fit failed: {row.error}")
        if not row.fit.converged:
            return DevianceTest(
                family,
                diagnostic=f"{row.spec.label} fit did not converge; deviance test unavailable",
            )
        ll[cure] = row.fit.log_likelihood
    d = max(0.0, 2.0 * (ll[True] - ll[False]))
    return DevianceTest(family, d, 0.5 * chi2_sf_1df(d))


def deviance_cure_test(sample: SurvivalSample, family: str = "weibull") -> DevianceTest:
    """Test for a cured fraction by comparing cure and non-cure fits of one family.

    Returns the record ``receus_assess`` stores as ``deviance_test`` when run
    with ``families=(family,)``, from the same fits; a fit that fails or does
    not converge leaves the statistic absent and sets ``diagnostic``.
    """
    return _deviance_test(_fit_rows(sample, (family,)), family)


def receus_assess(sample: SurvivalSample, config: AssessmentConfig | None = None) -> CureAssessment:
    """Run the full appropriateness assessment on a right-censored sample."""
    cfg = config or AssessmentConfig()
    if sample.n_events == 0:
        raise AssessmentError("no events: fitting undefined")
    summary = followup_summary(sample, late_window=cfg.late_window)
    followup = alpha_n_test(sample, threshold=cfg.alpha_threshold)
    rows = _fit_rows(sample, cfg.families)
    selected = _best_fit(rows)
    if selected is None:
        detail = "; ".join(f"{r.spec.label}: {r.error or 'did not converge'}" for r in rows)
        raise AssessmentError(f"no model converged ({detail})")
    tau = cfg.tau if cfg.tau is not None else sample.max_time
    notes = [
        f"{r.spec.label} fit failed and is missing from the AIC comparison: {r.error}"
        for r in rows
        if r.error is not None
    ]

    for r in rows:
        if r.fit is None or r.fit.converged:
            continue
        if r.fit.aic < selected.aic - _AIC_TIE_TOL:
            notes.append(
                f"{r.spec.label} had a lower AIC ({r.fit.aic:.4f}) but did not converge; "
                f"the best converged fit was used instead"
            )
        else:
            notes.append(
                f"{r.spec.label} did not converge (AIC {r.fit.aic:.4f}) and cannot be selected"
            )

    # This is the selected fit when that is a cure fit: a cure fit wins a tie with a
    # lower-AIC non-cure fit only as exponential cure, the least key of any cure spec.
    ratio_fit = _best_fit([r for r in rows if r.spec.cure])
    cure_model_selected = selected.spec.cure
    if ratio_fit is None:
        notes.append("no cure fit converged; cure-specific quantities unavailable")
    elif not cure_model_selected:
        notes.append(
            f"cure-specific quantities below come from the best cure fit "
            f"({ratio_fit.spec.label}), shown for transparency; "
            f"a non-cure model was selected"
        )

    if ratio_fit is not None:
        cure_fraction = float(ratio_fit.params.cure_fraction)  # type: ignore[arg-type]
        s0_at_tau, s_at_tau, r_hat = _receus_components(ratio_fit.spec, ratio_fit.params, tau)
        cure_fraction_pass = cure_fraction > cfg.cure_fraction_threshold
        r_pass = r_hat < cfg.r_threshold
    else:
        cure_fraction = s0_at_tau = s_at_tau = r_hat = None
        cure_fraction_pass = r_pass = False

    verdict = _verdict_from_flags(cure_model_selected, cure_fraction_pass, r_pass)
    if verdict == VERDICT_SMALL_CURE:
        notes.append(
            "the fitted cure fraction is at or below the threshold: either a cure "
            "model is not valid for these data or follow-up is too short to tell"
        )
    appropriate = verdict == VERDICT_APPROPRIATE
    if appropriate != followup.sufficient_followup:
        notes.append(
            "the model-based verdict and the Maller-Zhou follow-up test disagree "
            f"(verdict {verdict!r}, alpha_n {followup.alpha_n:.4g}); "
            "the verdict field reflects the model-based procedure only"
        )

    return CureAssessment(
        model_table=rows,
        selected=selected,
        deviance_test=_deviance_test(rows, selected.spec.family),
        cure_model_selected=cure_model_selected,
        cure_fraction=cure_fraction,
        s0_at_tau=s0_at_tau,
        s_at_tau=s_at_tau,
        r_hat=r_hat,
        tau=tau,
        cure_fraction_pass=cure_fraction_pass,
        r_pass=r_pass,
        verdict=verdict,
        summary=summary,
        followup_test=followup,
        config=cfg,
        notes=tuple(notes),
    )
