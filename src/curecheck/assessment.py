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

The fits of step (i) are made once, by ``_fit_rows``.  The same rows give
the cure-vs-non-cure deviance test of the selected family
(``deviance_cure_test`` runs that pipeline on one family alone).  The
Maller-Zhou follow-up test, a nonparametric follow-up summary and the
deviance test are attached to the result for side-by-side reporting, but
the verdict field is driven by steps (i)-(iv) alone; disagreements are
surfaced as notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .diagnostics import FollowUpTest, alpha_n_test
from .errors import AssessmentError, CurecheckError, DomainError
from .models import (
    FAMILIES,
    FamilySpec,
    ModelFit,
    Params,
    _fit,
    check_params,
    latency_survival,
)
from .special import chi2_sf_1df
from .survival import FollowUpSummary, SurvivalSample, followup_summary

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
    tau: float | None = None  # None: the sample's maximum observed time
    alpha_threshold: float = 0.05
    late_window: float | None = None  # None: 20% of the maximum follow-up

    def __post_init__(self):
        if not self.families:
            raise DomainError("at least one latency family is required")
        for fam in self.families:
            FamilySpec(fam)  # raises DomainError on an unknown family
        for name in ("cure_fraction_threshold", "r_threshold", "alpha_threshold"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} must lie strictly in (0, 1), got {v!r}")
        for name in ("tau", "late_window"):
            v = getattr(self, name)
            if v is not None and not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")


@dataclass(frozen=True)
class ModelTableRow:
    """One fitted (family, cure) spec in the comparison table."""

    spec: FamilySpec
    aic: float | None
    converged: bool
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
    cure_fit: ModelFit | None = None
    noncure_fit: ModelFit | None = None


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


def verdict_from_flags(cure_model_selected: bool, cure_fraction_pass: bool, r_pass: bool) -> str:
    """The verdict as a pure function of the three step outcomes."""
    if not cure_model_selected:
        return VERDICT_NONCURE
    if not cure_fraction_pass:
        return VERDICT_SMALL_CURE
    if not r_pass:
        return VERDICT_INSUFFICIENT
    return VERDICT_APPROPRIATE


def _fit_rows(sample: SurvivalSample, families: tuple[str, ...]) -> tuple[ModelTableRow, ...]:
    """Fit the non-cure and cure variant of each family, one row per spec.

    Each cure fit is given its family's non-cure fit, as ``fit_model`` makes
    it, so a row equals ``fit_model``'s fit of its spec.  A fit that raises a
    ``CurecheckError`` becomes a row with ``error`` set; any other exception
    is a bug and propagates.
    """
    rows: list[ModelTableRow] = []
    for family in families:
        noncure = None
        for cure in (False, True):
            spec = FamilySpec(family, cure=cure)
            try:
                fit = _fit(sample, spec, noncure)
            except CurecheckError as exc:
                rows.append(
                    ModelTableRow(spec=spec, aic=None, converged=False, error=str(exc))
                )
                continue
            if not cure:
                noncure = fit
            rows.append(
                ModelTableRow(spec=spec, aic=fit.aic, converged=fit.converged, fit=fit)
            )
    return tuple(rows)


def select_model_by_aic(
    sample: SurvivalSample,
    families: tuple[str, ...] = FAMILIES,
) -> tuple[tuple[ModelTableRow, ...], ModelFit]:
    """Fit cure and non-cure variants of each family; pick the lowest AIC.

    Every candidate gets a table row even when its fit fails or does not
    converge; only converged fits can be selected.  AIC ties (within 1e-12)
    go to the candidate with fewer parameters, then to the earlier family in
    ``FAMILIES`` order.
    """
    rows = _fit_rows(sample, families)
    return rows, _select_from_rows(rows).fit  # type: ignore[return-value]


def _select_from_rows(rows: list[ModelTableRow] | tuple[ModelTableRow, ...]) -> ModelTableRow:
    """Pick the winning row: lowest AIC among converged fits.

    Ties within 1e-12 go to the candidate with fewer parameters, then to
    the earlier family in ``FAMILIES`` order.
    """
    candidates = [r for r in rows if r.converged and r.fit is not None]
    if not candidates:
        detail = "; ".join(
            f"{r.spec.label}: {r.error or 'did not converge'}" for r in rows
        )
        raise AssessmentError(f"no model converged ({detail})")
    best_aic = min(r.aic for r in candidates)  # type: ignore[type-var]
    tied = [r for r in candidates if r.aic <= best_aic + _AIC_TIE_TOL]  # type: ignore[operator]
    tied.sort(key=lambda r: (r.spec.n_params, FAMILIES.index(r.spec.family)))
    return tied[0]


def receus_components(
    spec: FamilySpec, params: Params, tau: float
) -> tuple[float, float, float]:
    """(S0(tau), S(tau), r_hat) for a cure spec at horizon tau >= 0.

    r_hat = S0(tau) / [c + (1 - c) S0(tau)] estimates the proportion of
    still-susceptible subjects among those surviving past tau.
    """
    if not spec.cure:
        raise DomainError("the susceptible-survivor ratio requires a cure spec")
    check_params(spec, params)
    if not tau >= 0.0:
        raise DomainError(f"tau must be >= 0, got {tau!r}")
    s0 = float(latency_survival(spec, params, tau))
    c = float(params.cure_fraction)  # type: ignore[arg-type]
    s = c + (1.0 - c) * s0
    return s0, s, s0 / s


def deviance_from_fits(cure_fit: ModelFit, noncure_fit: ModelFit) -> tuple[float, float]:
    """(d, p): the boundary deviance statistic of a cure fit against its non-cure fit.

    d = max(0, 2 (loglik_cure - loglik_noncure)).  The non-cure model sits on
    the boundary (cure fraction 0) of the cure model, so the null
    distribution is the mixture 0.5 chi2_0 + 0.5 chi2_1 (Self & Liang 1987)
    and the p-value is p = 0.5 * P(chi2_1 >= d).
    """
    d = max(0.0, 2.0 * (cure_fit.log_likelihood - noncure_fit.log_likelihood))
    return d, 0.5 * chi2_sf_1df(d)


def _deviance_test(rows: tuple[ModelTableRow, ...], family: str) -> DevianceTest:
    """The deviance test of ``family`` read off its two table rows."""
    by_spec = {r.spec: r for r in rows}
    fits: dict[bool, ModelFit] = {}
    for cure in (False, True):
        row = by_spec[FamilySpec(family, cure=cure)]
        if row.error is not None:
            return DevianceTest(family, diagnostic=f"{row.spec.label} fit failed: {row.error}")
        if not row.converged:
            return DevianceTest(
                family,
                diagnostic=f"{row.spec.label} fit did not converge; deviance test unavailable",
            )
        fits[cure] = row.fit  # type: ignore[assignment]
    d, p = deviance_from_fits(fits[True], fits[False])
    return DevianceTest(family, d, p, cure_fit=fits[True], noncure_fit=fits[False])


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
    rows, selected = select_model_by_aic(sample, cfg.families)
    tau = cfg.tau if cfg.tau is not None else sample.max_time
    notes = [
        f"{r.spec.label} fit failed and is missing from the AIC comparison: {r.error}"
        for r in rows
        if r.error is not None
    ]

    for r in rows:
        if r.converged or r.aic is None:
            continue
        if r.aic < selected.aic - _AIC_TIE_TOL:
            notes.append(
                f"{r.spec.label} had a lower AIC ({r.aic:.4f}) but did not converge; "
                f"the best converged fit was used instead"
            )
        else:
            notes.append(
                f"{r.spec.label} did not converge (AIC {r.aic:.4f}) and cannot be selected"
            )

    cure_model_selected = selected.spec.cure
    if cure_model_selected:
        ratio_fit: ModelFit | None = selected
    else:
        cure_rows = [
            r for r in rows if r.spec.cure and r.converged and r.fit is not None
        ]
        ratio_fit = _select_from_rows(cure_rows).fit if cure_rows else None
        if ratio_fit is not None:
            notes.append(
                f"cure-specific quantities below come from the best cure fit "
                f"({ratio_fit.spec.label}), shown for transparency; "
                f"a non-cure model was selected"
            )
        else:
            notes.append("no cure fit converged; cure-specific quantities unavailable")

    if ratio_fit is not None:
        cure_fraction = float(ratio_fit.params.cure_fraction)  # type: ignore[arg-type]
        s0_at_tau, s_at_tau, r_hat = receus_components(ratio_fit.spec, ratio_fit.params, tau)
        cure_fraction_pass = cure_fraction > cfg.cure_fraction_threshold
        r_pass = r_hat < cfg.r_threshold
    else:
        cure_fraction = s0_at_tau = s_at_tau = r_hat = None
        cure_fraction_pass = r_pass = False

    verdict = verdict_from_flags(cure_model_selected, cure_fraction_pass, r_pass)
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
