"""Follow-up and cured-fraction diagnostics.

Three quantitative checks that complement the model-based assessment:

* a nonparametric cured-fraction estimate — the Kaplan-Meier curve
  evaluated at the largest observed time;
* a deviance test comparing a cure fit against its nested non-cure fit,
  with the boundary-corrected null distribution (an equal mixture of a
  point mass at 0 and a 1-df chi-square); ``deviance_from_fits`` holds
  its one formula, which the report reuses on the assessment's fits;
* the Maller-Zhou sufficient-follow-up statistic
  alpha_n = (1 - N_n / n)^n, where N_n counts events in the interval
  (2 y_max_event - y_max, y_max_event] just below the largest event.

Interval-endpoint convention for N_n: whether the largest event itself is
counted is ambiguous in the literature.  ``alpha_n_test`` defaults to
``count_max_event=False`` (the largest event is excluded, which makes the
test markedly more sensitive to truncated follow-up); pass
``count_max_event=True`` for the variant that counts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurecheckError, DomainError
from .models import FamilySpec, ModelFit, fit_model
from .special import chi2_sf_1df
from .survival import SurvivalSample, _km_tail


@dataclass(frozen=True)
class FollowUpTest:
    """Result of the Maller-Zhou alpha_n sufficient-follow-up test."""

    n: int
    y_max: float
    y_max_event: float
    interval: tuple[float, float]
    n_n: int
    alpha_n: float
    threshold: float
    sufficient_followup: bool
    count_max_event: bool


@dataclass(frozen=True)
class CureFractionEvidence:
    """Nonparametric cured-fraction estimate, optionally with a deviance test."""

    p_hat_n: float
    cure_fraction_hat: float
    deviance: float | None = None
    deviance_p_value: float | None = None
    diagnostic: str | None = None
    cure_fit: ModelFit | None = None
    noncure_fit: ModelFit | None = None


def nonparametric_cure_evidence(sample: SurvivalSample) -> CureFractionEvidence:
    """Estimate the cured fraction as the Kaplan-Meier value at the last observation.

    The complement ``p_hat_n`` estimates the probability of ever experiencing
    the event.  No p-value accompanies this estimate; ``deviance_cure_test``
    is the quantitative companion.
    """
    cure_hat = _km_tail(sample)
    return CureFractionEvidence(p_hat_n=1.0 - cure_hat, cure_fraction_hat=cure_hat)


def deviance_from_fits(cure_fit: ModelFit, noncure_fit: ModelFit) -> tuple[float, float]:
    """(d, p): the boundary deviance statistic of a cure fit against its non-cure fit.

    d = max(0, 2 (loglik_cure - loglik_noncure)).  The non-cure model sits on
    the boundary (cure fraction 0) of the cure model, so the null
    distribution is the mixture 0.5 chi2_0 + 0.5 chi2_1 and the p-value is
    p = 0.5 * P(chi2_1 >= d).
    """
    d = max(0.0, 2.0 * (cure_fit.log_likelihood - noncure_fit.log_likelihood))
    return d, 0.5 * chi2_sf_1df(d)


def deviance_cure_test(sample: SurvivalSample, family: str = "weibull") -> CureFractionEvidence:
    """Test for a cured fraction by comparing cure and non-cure fits of one family.

    Both fits are made here; the statistic and its p-value come from
    ``deviance_from_fits``.

    If either fit fails or does not converge the deviance fields are absent
    and ``diagnostic`` says why.
    """
    base = nonparametric_cure_evidence(sample)
    fits: dict[bool, ModelFit] = {}
    for cure in (False, True):
        spec = FamilySpec(family, cure=cure)
        try:
            fit = fit_model(sample, spec)
        except CurecheckError as exc:  # fit errors become a reported diagnostic
            return CureFractionEvidence(
                p_hat_n=base.p_hat_n,
                cure_fraction_hat=base.cure_fraction_hat,
                diagnostic=f"{spec.label} fit failed: {exc}",
            )
        if not fit.converged:
            return CureFractionEvidence(
                p_hat_n=base.p_hat_n,
                cure_fraction_hat=base.cure_fraction_hat,
                diagnostic=f"{spec.label} fit did not converge; deviance test unavailable",
            )
        fits[cure] = fit
    d_n, p_value = deviance_from_fits(fits[True], fits[False])
    return CureFractionEvidence(
        p_hat_n=base.p_hat_n,
        cure_fraction_hat=base.cure_fraction_hat,
        deviance=d_n,
        deviance_p_value=p_value,
        cure_fit=fits[True],
        noncure_fit=fits[False],
    )


def alpha_n_test(
    sample: SurvivalSample,
    threshold: float = 0.05,
    count_max_event: bool = False,
) -> FollowUpTest:
    """Maller-Zhou test of whether follow-up extends past the event-time support.

    With y_max the largest observed time and y_max_event the largest event
    time, N_n counts events falling in (2 y_max_event - y_max, y_max_event]
    — an interval whose width is the plateau length, reflected to just below
    the last event.  alpha_n = (1 - N_n/n)^n; values below ``threshold``
    indicate sufficient follow-up.  When the largest observation is itself an
    event the interval is empty, N_n = 0 and alpha_n = 1.

    ``count_max_event`` selects the interval-endpoint convention (see module
    docstring); the default excludes the largest event from the count.
    """
    if not (0.0 < threshold < 1.0):
        raise DomainError(f"threshold must lie strictly in (0, 1), got {threshold!r}")
    if sample.n_events == 0:
        raise DomainError(
            "the sufficient-follow-up test is undefined for a sample with no events"
        )
    y_max = sample.max_time
    y_max_event = sample.max_event_time
    lower = 2.0 * y_max_event - y_max
    event_times = sample.times[sample.events]
    if count_max_event:
        inside = (event_times > lower) & (event_times <= y_max_event)
    else:
        inside = (event_times > lower) & (event_times < y_max_event)
    n_n = int(np.count_nonzero(inside))
    n = sample.n
    alpha_n = (1.0 - n_n / n) ** n
    return FollowUpTest(
        n=n,
        y_max=y_max,
        y_max_event=y_max_event,
        interval=(lower, y_max_event),
        n_n=n_n,
        alpha_n=float(alpha_n),
        threshold=threshold,
        sufficient_followup=bool(alpha_n < threshold),
        count_max_event=count_max_event,
    )
