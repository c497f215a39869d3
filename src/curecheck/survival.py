"""Censored samples and their CSV I/O, Kaplan-Meier estimation, follow-up summaries.

A sample is a vector of (observed time, event indicator) pairs sorted
ascending by time with events placed before censorings at tied times;
that canonical order encodes the usual product-limit tie convention
(censored subjects at t are still at risk for the step at t).

``validate_sample`` (pairs), ``read_csv`` (two CSV columns) and
``simulate.simulate_mixture`` (arrays) all go through ``_canonical_sample``:
one vectorized finite, non-negative check and one stable sort.
"""

from __future__ import annotations

import csv
import math
import sys
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import DomainError, ValidationError

_BINARY = {0: False, 1: True}
_EVENT_WORDS = {"0": False, "1": True, "false": False, "true": True}


@dataclass(frozen=True)
class SurvivalSample:
    """Validated right-censored sample in canonical order.

    Construct through :func:`validate_sample` or :func:`read_csv`; the
    arrays are read-only.
    """

    times: np.ndarray
    events: np.ndarray

    def __post_init__(self):
        self.times.setflags(write=False)
        self.events.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def n_events(self) -> int:
        return int(self.events.sum())

    @property
    def n_censored(self) -> int:
        return self.n - self.n_events

    @property
    def max_time(self) -> float:
        return float(self.times[-1])

    @property
    def max_event_time(self) -> float | None:
        """Largest observed event time, or None when nothing was observed to fail."""
        if self.n_events == 0:
            return None
        return float(self.times[self.events].max())

    @property
    def records(self) -> list[tuple[float, bool]]:
        return [(float(t), bool(e)) for t, e in zip(self.times, self.events)]

    def scaled(self, factor: float) -> "SurvivalSample":
        """Sample with every time multiplied by a positive factor."""
        if not (factor > 0.0) or not math.isfinite(factor):
            raise ValidationError(f"scale factor must be positive and finite, got {factor!r}")
        return SurvivalSample(times=self.times * factor, events=self.events.copy())


def _canonical_sample(times, events, where="row {}".format) -> SurvivalSample:
    """Check float ``times`` (``where(i)`` names record i) and sort into canonical order."""
    ok = (times >= 0.0) & (times < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        kind = "negative" if math.isfinite(times[i]) else "non-finite"
        raise ValidationError(f"{kind} time at {where(i)}")
    # Stable sort on (time, events-first): censorings get secondary key 1.
    order = np.lexsort((~events, times))
    return SurvivalSample(times=times[order], events=events[order])


def validate_sample(raw) -> SurvivalSample:
    """Validate raw (time, event) pairs and return them in canonical order.

    An event is a value equal to 0 or 1 (bool, int, float, numpy scalar).
    Raises :class:`ValidationError` naming the offending row for malformed
    records, non-numeric, negative or non-finite times, non-binary events.
    """
    rows = list(raw)
    if not rows:
        raise ValidationError("empty sample: at least one (time, event) record required")
    try:
        time_cells, event_cells = zip(*rows, strict=True)
        times = np.fromiter(map(float, time_cells), float, len(rows))
        events = np.fromiter(map(_BINARY.__getitem__, event_cells), bool, len(rows))
    except (TypeError, ValueError, KeyError):
        for i, row in enumerate(rows):  # name the first record that fails
            try:
                t, e = row
            except (TypeError, ValueError):
                raise ValidationError(f"malformed record at row {i}: expected (time, event) pair") from None
            try:
                float(t)
            except (TypeError, ValueError):
                raise ValidationError(f"non-numeric time at row {i}: {t!r}") from None
            try:
                _BINARY[e]
            except (TypeError, KeyError):
                raise ValidationError(f"non-binary event {e!r} at row {i}: expected 0 or 1") from None
        raise
    return _canonical_sample(times, events)


@dataclass(frozen=True)
class KMStep:
    time: float
    n_at_risk: int
    n_events: int
    survival: float


@dataclass(frozen=True)
class KaplanMeierCurve:
    """Product-limit estimate: one step per distinct event time.

    ``censor_times`` carries the censored observation times so plots can
    draw tick marks; it does not affect the estimate itself.
    """

    steps: tuple[KMStep, ...]
    n_total: int
    censor_times: tuple[float, ...] = field(default=())

    @property
    def final_survival(self) -> float:
        return self.steps[-1].survival if self.steps else 1.0


def read_csv(
    path: str,
    time_col: str = "time",
    event_col: str = "event",
    time_scale: float = 1.0,
) -> SurvivalSample:
    """Load a right-censored sample from a headered CSV file.

    Times are divided by ``time_scale`` (365.25 turns days into years).
    Event cells must be one of 0/1/true/false (case-insensitive).  Errors
    name the file row (1 = header; blank lines are skipped and not counted)
    and column.  Extra columns are ignored.  The file is read as UTF-8
    whatever the locale; a leading byte-order mark is skipped.
    """
    if not (0.0 < time_scale < math.inf):
        raise ValidationError(f"time_scale must be finite and > 0, got {time_scale!r}")
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = list(filter(None, reader))  # a blank line reads as []
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from None
    if header is None:
        raise ValidationError(f"empty file: {path} has no header row")
    # A repeated column name means its last occurrence.
    column = {name: j for j, name in enumerate(header)}
    for col in (time_col, event_col):
        if col not in column:
            raise ValidationError(f"missing column {col!r} in {path} (found: {', '.join(header)})")
    if not rows:
        raise ValidationError(f"empty file: {path} has a header but no data rows")
    jt, je = column[time_col], column[event_col]
    try:
        with np.errstate(over="ignore"):  # an overflow to inf is reported as non-finite
            times = np.fromiter(map(float, map(itemgetter(jt), rows)), float, len(rows)) / time_scale
        words = map(str.lower, map(str.strip, map(itemgetter(je), rows)))
        events = np.fromiter(map(_EVENT_WORDS.__getitem__, words), bool, len(rows))
    except (IndexError, ValueError, KeyError):
        for i, row in enumerate(rows, start=2):  # name the first cell that fails
            raw_t, raw_e = (row[j].strip() if j < len(row) else "" for j in (jt, je))
            try:
                float(raw_t)
            except ValueError:
                raise ValidationError(
                    f"unparseable time {raw_t!r} at row {i}, column {time_col!r} of {path}"
                ) from None
            if raw_e.lower() not in _EVENT_WORDS:
                raise ValidationError(
                    f"unparseable event {raw_e!r} at row {i}, column {event_col!r} "
                    f"of {path}: expected 0, 1, true or false"
                ) from None
        raise
    return _canonical_sample(times, events, lambda i: f"row {i + 2}, column {time_col!r} of {path}")


def write_csv(
    sample: SurvivalSample,
    path: str | None,
    time_col: str = "time",
    event_col: str = "event",
) -> None:
    """Write a sample as CSV to ``path`` (stdout when None); every cell reads back exactly."""
    with open(path, "w", newline="") if path is not None else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow([time_col, event_col])
        writer.writerows([repr(t), 1 if e else 0] for t, e in sample.records)


def _km_counts(sample: SurvivalSample):
    """Distinct event times, the events at each and the number then at risk."""
    event_times, event_counts = np.unique(sample.times[sample.events], return_counts=True)
    return event_times, event_counts, sample.n - np.searchsorted(sample.times, event_times, side="left")


def _km_tail(sample: SurvivalSample) -> float:
    """``kaplan_meier(sample).final_survival``, bit for bit, without building the curve."""
    if sample.n_events == 0:
        return 1.0
    _, d, r = _km_counts(sample)
    return float(np.cumprod(1.0 - d / r)[-1])


def kaplan_meier(sample: SurvivalSample) -> KaplanMeierCurve:
    """Kaplan-Meier curve of the sample.

    Censored observations shrink the risk set but contribute no step.
    """
    times = sample.times
    n = sample.n
    if sample.n_events == 0:
        return KaplanMeierCurve(
            steps=(), n_total=n, censor_times=tuple(float(t) for t in times)
        )
    event_times, event_counts, at_risk = _km_counts(sample)
    steps = []
    surv = 1.0
    for t, d, r in zip(event_times, event_counts, at_risk):
        surv *= 1.0 - int(d) / int(r)
        steps.append(KMStep(time=float(t), n_at_risk=int(r), n_events=int(d), survival=surv))
    censor_times = tuple(float(t) for t in times[~sample.events])
    return KaplanMeierCurve(steps=tuple(steps), n_total=n, censor_times=censor_times)


def km_survival_at(curve: KaplanMeierCurve, t: float) -> float:
    """Right-continuous evaluation of the step function at time t >= 0.

    Beyond the last step the terminal value is carried forward.
    """
    if not (t >= 0.0):
        raise DomainError(f"evaluation time must be >= 0, got {t!r}")
    if not curve.steps:
        return 1.0
    idx = bisect_right([s.time for s in curve.steps], t)
    if idx == 0:
        return 1.0
    return curve.steps[idx - 1].survival


@dataclass(frozen=True)
class FollowUpSummary:
    """Follow-up quantities reported ahead of any model fitting.

    ``plateau_length`` is the flat stretch after the last event;
    ``late_event_rate`` is events per unit time inside the trailing
    window of width ``late_window``.
    """

    n: int
    n_events: int
    median_followup: float
    max_followup: float
    max_event_time: float | None
    km_at_max: float
    plateau_length: float
    late_event_rate: float
    late_window: float


DEFAULT_LATE_WINDOW_FRACTION = 0.2


def followup_summary(sample: SurvivalSample, late_window: float | None = None) -> FollowUpSummary:
    """Summary statistics of observed follow-up.

    The median pools event and censoring times. ``late_window`` defaults
    to 20% of the maximum follow-up.
    """
    max_fu = sample.max_time
    if late_window is None:
        late_window = DEFAULT_LATE_WINDOW_FRACTION * max_fu if max_fu > 0.0 else 1.0
    if not (late_window > 0.0 and math.isfinite(late_window)):
        raise ValidationError(f"late_window must be finite and > 0, got {late_window!r}")
    max_event = sample.max_event_time
    plateau = max_fu - max_event if max_event is not None else max_fu
    lo = max_fu - late_window
    in_window = (sample.times > lo) & (sample.times <= max_fu) & sample.events
    return FollowUpSummary(
        n=sample.n,
        n_events=sample.n_events,
        median_followup=float(np.median(sample.times)),
        max_followup=max_fu,
        max_event_time=max_event,
        km_at_max=_km_tail(sample),
        plateau_length=float(plateau),
        late_event_rate=float(in_window.sum()) / late_window,
        late_window=float(late_window),
    )
