"""The Maller-Zhou sufficient-follow-up test.

A nonparametric check that complements the model-based assessment: the
statistic alpha_n = (1 - N_n / n)^n, where N_n counts events in the interval
(2 y_max_event - y_max, y_max_event] just below the largest event.  The
other cure evidence lives elsewhere: the Kaplan-Meier value at the largest
observed time is ``followup_summary(...).km_at_max``, and the cure-vs-non-cure
deviance test is ``assessment.deviance_cure_test``, computed from the same
fits as the assessment's model table.

Interval-endpoint convention for N_n: whether the largest event itself is
counted is ambiguous in the literature.  ``alpha_n_test`` defaults to
``count_max_event=False`` (the largest event is excluded, which makes the
test markedly more sensitive to truncated follow-up); pass
``count_max_event=True`` for the variant that counts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .survival import SurvivalSample


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
