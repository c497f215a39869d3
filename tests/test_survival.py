"""Sample validation, Kaplan-Meier estimation, and follow-up summaries."""

import math

import numpy as np
import pytest

from curecheck.errors import DomainError, ValidationError
from curecheck.survival import (
    DEFAULT_LATE_WINDOW_FRACTION,
    KaplanMeierCurve,
    _km_tail,
    followup_summary,
    kaplan_meier,
    km_survival_at,
    validate_sample,
)


# ---------------------------------------------------------------------------
# validation and canonical ordering

def test_validate_sorts_by_time():
    s = validate_sample([(2.0, False), (1.0, True)])
    assert s.records == [(1.0, True), (2.0, False)]


def test_validate_breaks_time_ties_events_first():
    s = validate_sample([(2.0, False), (2.0, True)])
    assert s.records == [(2.0, True), (2.0, False)]


def test_validate_tie_break_is_stable_for_larger_samples():
    s = validate_sample([(3.0, False), (2.0, False), (2.0, True), (1.0, True), (2.0, True)])
    assert s.records == [(1.0, True), (2.0, True), (2.0, True), (2.0, False), (3.0, False)]


def test_negative_time_names_the_row():
    with pytest.raises(ValidationError, match=r"negative time at row 0"):
        validate_sample([(-1.0, True)])
    with pytest.raises(ValidationError, match=r"negative time at row 2"):
        validate_sample([(1.0, True), (2.0, False), (-0.5, True)])


def test_nonfinite_time_names_the_row():
    with pytest.raises(ValidationError, match=r"non-finite time at row 1"):
        validate_sample([(1.0, True), (math.inf, False)])
    with pytest.raises(ValidationError, match=r"non-finite time at row 0"):
        validate_sample([(math.nan, True)])


def test_nonnumeric_time_and_malformed_record():
    with pytest.raises(ValidationError, match=r"non-numeric time at row 0"):
        validate_sample([("soon", True)])
    with pytest.raises(ValidationError, match=r"malformed record at row 1"):
        validate_sample([(1.0, True), (2.0,)])


def test_empty_sample_rejected():
    with pytest.raises(ValidationError, match=r"empty sample"):
        validate_sample([])


def test_events_must_equal_zero_or_one():
    for bad, shown in (("0", "'0'"), (None, "None"), (2, "2"), (0.5, "0.5"), ([1], r"\[1\]")):
        with pytest.raises(ValidationError, match=rf"non-binary event {shown} at row 1"):
            validate_sample([(1.0, True), (2.0, bad)])
    ones = (True, 1, 1.0, np.True_, np.int64(1), np.float32(1.0))
    zeros = (False, 0, 0.0, np.False_, np.int8(0), np.float64(0.0))
    s = validate_sample([(float(i), e) for i, e in enumerate(ones + zeros)])
    assert s.events.tolist() == [True] * 6 + [False] * 6


def test_validate_takes_a_one_shot_iterator_of_pairs():
    s = validate_sample(zip([2.0, 1.0, 1.0], [False, False, True]))
    assert s.records == [(1.0, True), (1.0, False), (2.0, False)]


def test_first_failing_record_is_named_in_input_order():
    with pytest.raises(ValidationError, match=r"malformed record at row 1"):
        validate_sample([(1.0, True), (2.0, True, 3), (3.0, True)])
    with pytest.raises(ValidationError, match=r"malformed record at row 0"):
        validate_sample([(1.0,), (2.0,)])
    with pytest.raises(ValidationError, match=r"malformed record at row 2"):
        validate_sample([(1.0, True), (2.0, True), 5])
    with pytest.raises(ValidationError, match=r"non-binary event 'x' at row 1"):
        validate_sample([(1.0, True), (2.0, "x"), ("soon", True)])
    with pytest.raises(ValidationError, match=r"non-finite time at row 1"):
        validate_sample([(1.0, True), (-math.inf, True), (-1.0, True)])


def test_sample_arrays_are_read_only():
    s = validate_sample([(1.0, True), (2.0, False)])
    with pytest.raises(ValueError):
        s.times[0] = 5.0
    with pytest.raises(ValueError):
        s.events[0] = False


def test_sample_counts_and_extremes():
    s = validate_sample([(1.0, True), (4.0, False), (2.5, True), (3.0, False)])
    assert s.n == 4
    assert s.n_events == 2
    assert s.n_censored == 2
    assert s.max_time == 4.0
    assert s.max_event_time == 2.5


def test_max_event_time_none_without_events():
    s = validate_sample([(1.0, False), (2.0, False)])
    assert s.max_event_time is None


def test_scaled_multiplies_times_only():
    s = validate_sample([(1.0, True), (2.0, False)])
    s2 = s.scaled(365.25)
    assert s2.records == [(365.25, True), (730.5, False)]
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValidationError):
            s.scaled(bad)


# ---------------------------------------------------------------------------
# Kaplan-Meier point values

def test_km_three_events():
    curve = kaplan_meier(validate_sample([(1.0, True), (2.0, True), (3.0, True)]))
    assert [s.survival for s in curve.steps] == pytest.approx([2 / 3, 1 / 3, 0.0])
    assert [s.n_at_risk for s in curve.steps] == [3, 2, 1]


def test_km_with_interior_censoring():
    # Censoring at 2 shrinks the risk set: S(1) = 2/3, then the last
    # subject fails at 3 with the whole remaining risk set, so S(3) = 0.
    curve = kaplan_meier(validate_sample([(1.0, True), (2.0, False), (3.0, True)]))
    assert len(curve.steps) == 2
    assert curve.steps[0].survival == pytest.approx(2 / 3)
    assert curve.steps[1].survival == 0.0
    assert curve.censor_times == (2.0,)


def test_km_all_censored_has_no_steps():
    curve = kaplan_meier(validate_sample([(1.0, False), (2.0, False)]))
    assert curve.steps == ()
    assert curve.final_survival == 1.0
    assert km_survival_at(curve, 5.0) == 1.0


def test_km_tied_event_times_form_one_step():
    curve = kaplan_meier(validate_sample([(2.0, True), (2.0, True), (3.0, False)]))
    assert len(curve.steps) == 1
    assert curve.steps[0].n_events == 2
    assert curve.steps[0].survival == pytest.approx(1 / 3)


def _km_brute_force(records):
    """Independent per-time-point product, pure Python.

    Multiplies factors in ascending event-time order exactly as a hand
    calculation would, so agreement with the library is required bitwise.
    """
    times = [t for t, _ in records]
    event_times = sorted({t for t, e in records if e})
    out = []
    surv = 1.0
    for u in event_times:
        d = sum(1 for t, e in records if e and t == u)
        r = sum(1 for t in times if t >= u)
        surv *= 1.0 - d / r
        out.append((u, r, d, surv))
    return out


def test_km_matches_brute_force_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        # Half-integer times force plenty of ties.
        times = rng.integers(0, 12, size=n) * 0.5
        events = rng.random(n) < 0.6
        records = list(zip(times.tolist(), events.tolist()))
        curve = kaplan_meier(validate_sample(records))
        want = _km_brute_force(records)
        assert len(curve.steps) == len(want)
        for step, (u, r, d, surv) in zip(curve.steps, want):
            assert step.time == u
            assert step.n_at_risk == r
            assert step.n_events == d
            assert step.survival == surv  # bitwise


def test_km_tail_equals_final_survival_bitwise(plateau_sample):
    # The cure start's KM tail skips building the curve; it must not move a bit,
    # on continuous data, on the same data in integer days, and on small tied
    # samples.
    days = np.ceil(np.array(plateau_sample.times) * 365.25)
    day_sample = validate_sample(zip(days.tolist(), plateau_sample.events.tolist()))
    assert np.unique(day_sample.times).size < day_sample.n / 2
    rng = np.random.default_rng(8)
    small = [
        validate_sample(zip((rng.integers(0, 12, size=n) * 0.5).tolist(), (rng.random(n) < 0.6).tolist()))
        for n in rng.integers(1, 51, size=200)
    ]
    all_censored = validate_sample([(1.0, False), (2.0, False)])
    for sample in [plateau_sample, day_sample, all_censored] + small:
        assert _km_tail(sample) == kaplan_meier(sample).final_survival


def test_km_equals_empirical_survivor_without_censoring():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        times = np.round(rng.exponential(size=n), 2)
        sample = validate_sample([(t, True) for t in times])
        curve = kaplan_meier(sample)
        for step in curve.steps:
            empirical = np.mean(times > step.time)
            assert step.survival == pytest.approx(empirical, abs=1e-12)


def test_km_invariant_under_increasing_time_transform():
    rng = np.random.default_rng(5)
    times = rng.integers(0, 10, size=30) * 0.5
    events = rng.random(30) < 0.5
    base = kaplan_meier(validate_sample(list(zip(times.tolist(), events.tolist()))))
    squared = kaplan_meier(
        validate_sample([(t * t, e) for t, e in zip(times.tolist(), events.tolist())])
    )
    assert len(base.steps) == len(squared.steps)
    for a, b in zip(base.steps, squared.steps):
        assert b.time == a.time * a.time
        assert b.survival == a.survival  # values identical, locations transformed
        assert b.n_at_risk == a.n_at_risk


def test_km_survival_is_nonincreasing():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        records = list(zip((rng.exponential(size=n)).tolist(), (rng.random(n) < 0.5).tolist()))
        curve = kaplan_meier(validate_sample(records))
        values = [1.0] + [s.survival for s in curve.steps]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_km_survival_at_lookup():
    curve = kaplan_meier(validate_sample([(1.0, True), (2.0, True), (3.0, True)]))
    assert km_survival_at(curve, 0.0) == 1.0
    assert km_survival_at(curve, 0.99) == 1.0
    assert km_survival_at(curve, 1.0) == pytest.approx(2 / 3)  # right-continuous
    assert km_survival_at(curve, 2.5) == pytest.approx(1 / 3)
    assert km_survival_at(curve, 99.0) == 0.0
    with pytest.raises(DomainError):
        km_survival_at(curve, -0.1)


def test_km_survival_at_empty_curve():
    curve = KaplanMeierCurve(steps=(), n_total=0)
    assert km_survival_at(curve, 0.0) == 1.0
    assert km_survival_at(curve, 1e6) == 1.0


# ---------------------------------------------------------------------------
# follow-up summary

def test_followup_all_events_no_plateau():
    s = validate_sample([(1.0, True), (2.0, True), (3.0, True)])
    fs = followup_summary(s)
    assert fs.plateau_length == 0.0
    assert fs.max_followup == 3.0
    assert fs.max_event_time == 3.0
    assert fs.km_at_max == 0.0


def test_followup_plateau_length():
    s = validate_sample([(1.0, True), (2.5, True), (6.0, True), (7.3, False)])
    fs = followup_summary(s)
    assert fs.plateau_length == pytest.approx(1.3, rel=1e-12)
    assert fs.max_event_time == 6.0
    assert fs.max_followup == 7.3


def test_followup_median_pools_events_and_censorings():
    s = validate_sample([(1.0, True), (2.0, False), (3.0, True), (4.0, False)])
    fs = followup_summary(s)
    assert fs.median_followup == 2.5
    assert fs.n == 4 and fs.n_events == 2


def test_followup_late_event_rate_arithmetic():
    # max follow-up 10, default window 0.2 * 10 = 2, events in (8, 10]: two.
    recs = [(1.0, True), (8.5, True), (9.5, True), (8.0, True), (10.0, False)]
    fs = followup_summary(validate_sample(recs))
    assert fs.late_window == pytest.approx(2.0)
    assert fs.late_event_rate == pytest.approx(2 / 2.0)
    assert DEFAULT_LATE_WINDOW_FRACTION == 0.2


def test_followup_late_window_validation():
    s = validate_sample([(1.0, True), (2.0, False)])
    with pytest.raises(ValidationError, match="late_window"):
        followup_summary(s, late_window=0.0)
    with pytest.raises(ValidationError, match="late_window"):
        followup_summary(s, late_window=-1.0)
    with pytest.raises(ValidationError, match="late_window must be finite and > 0"):
        followup_summary(s, late_window=math.inf)


def test_followup_long_plateau_fixture(long_followup_sample):
    fs = followup_summary(long_followup_sample)
    assert fs.n == 1000
    assert fs.n_events == 743
    assert fs.max_followup == pytest.approx(17.7248)
    assert fs.km_at_max == pytest.approx(0.2570, abs=5e-5)
    assert fs.plateau_length == pytest.approx(7.7248, abs=1e-9)


def test_followup_plateau_positive_iff_last_observation_censored():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        times = rng.exponential(size=n)
        events = rng.random(n) < 0.5
        if not events.any():
            events[0] = True
        s = validate_sample(list(zip(times.tolist(), events.tolist())))
        fs = followup_summary(s)
        last_is_event = s.events[-1] and s.max_event_time == s.max_time
        if last_is_event:
            assert fs.plateau_length == 0.0
        else:
            assert fs.plateau_length > 0.0
