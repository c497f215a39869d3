"""Sample validation, Kaplan-Meier estimation, and follow-up summaries."""

import math

import numpy as np
import pytest
from conftest import km_rows, records

from curecheck.errors import ValidationError
from curecheck.plot import _AXIS_COLOR, _CENSOR_MARK, _LEFT, _TICK_COLOR, _Y_TICK
from curecheck.survival import (
    DEFAULT_LATE_WINDOW_FRACTION,
    SurvivalSample,
    _canonical_sample,
    _km_tail,
    _rows,
    followup_summary,
    kaplan_meier,
    validate_sample,
)


# ---------------------------------------------------------------------------
# validation and canonical ordering

def test_validate_sorts_by_time():
    s = validate_sample([(2.0, False), (1.0, True)])
    assert records(s) == [(1.0, True), (2.0, False)]


def test_validate_breaks_time_ties_events_first():
    s = validate_sample([(2.0, False), (2.0, True)])
    assert records(s) == [(2.0, True), (2.0, False)]


def test_validate_tie_break_is_stable_for_larger_samples():
    s = validate_sample([(3.0, False), (2.0, False), (2.0, True), (1.0, True), (2.0, True)])
    assert records(s) == [(1.0, True), (2.0, True), (2.0, True), (2.0, False), (3.0, False)]


def _tie_heavy(rng, n):
    """Times on a coarse grid with many zeros, so that (time, event) ties abound."""
    times = rng.integers(0, max(2, n // 4), n) * 0.25
    times[rng.random(n) < 0.2] = 0.0
    return times, rng.random(n) < 0.5


def test_canonical_order_is_the_stable_sort_with_events_first():
    # Two plain sorts merged give the records of the stable (time,
    # events-first) sort: equal (time, event) records cannot be told apart.
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 7, 40, 333):
        for _ in range(25):
            times, events = _tie_heavy(rng, n)
            order = np.lexsort((~events, times))
            s = _canonical_sample(times.copy(), events.copy())
            assert s.times.tobytes() == times[order].tobytes()
            assert s.events.tobytes() == events[order].tobytes()


def test_canonical_order_does_not_depend_on_the_sign_of_zero():
    # -0.0 == 0.0, so no sort can order the two zeros; both are stored as 0.0
    # and the sample's bytes do not depend on the order of the records.
    records_ = [(0.0, False), (-0.0, False), (1.0, True), (-0.0, True), (0.0, True), (0.5, False)]
    rng = np.random.default_rng(4)
    first = validate_sample(records_)
    assert not np.signbit(first.times).any()
    for _ in range(20):
        shuffled = [records_[i] for i in rng.permutation(len(records_))]
        s = validate_sample(shuffled)
        assert s.times.tobytes() == first.times.tobytes()
        assert s.events.tobytes() == first.events.tobytes()


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
    assert records(s) == [(1.0, True), (1.0, False), (2.0, False)]


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


@pytest.mark.parametrize(
    "times, events",
    [
        (np.array([2.0, 1.0, 3.0]), np.array([True, True, False])),  # out of order
        ([1.0, 2.0], [True, False]),  # lists, not arrays
        (np.array([1.0, math.nan]), np.array([True, False])),  # NaN time
        (np.array([1.0, 1.0]), np.array([False, True])),  # tie, censoring first
        (np.array([-1.0, 1.0]), np.array([True, True])),
        (np.array([1.0, math.inf]), np.array([True, False])),
        (np.array([1.0, 2.0]), np.array([1, 0])),  # events not bool
        (np.array([1.0, 2.0]), np.array([True])),
        (np.array([[1.0, 2.0]]), np.array([[True, False]])),
        (np.array([]), np.array([], dtype=bool)),
    ],
)
def test_sample_constructor_checks_the_canonical_invariant(times, events):
    with pytest.raises(ValidationError, match="validate_sample or read_csv"):
        SurvivalSample(times=times, events=events)


def test_sample_counts_and_extremes():
    s = validate_sample([(1.0, True), (4.0, False), (2.5, True), (3.0, False)])
    assert s.n == 4
    assert s.n_events == 2
    assert s.n - s.n_events == 2  # censored
    assert s.max_time == 4.0
    assert s.max_event_time == 2.5


def test_max_event_time_none_without_events():
    s = validate_sample([(1.0, False), (2.0, False)])
    assert s.max_event_time is None


# ---------------------------------------------------------------------------
# Kaplan-Meier point values

def test_km_three_events():
    curve = kaplan_meier(validate_sample([(1.0, True), (2.0, True), (3.0, True)]))
    assert curve.survival.tolist() == pytest.approx([2 / 3, 1 / 3, 0.0])
    assert curve.n_at_risk.tolist() == [3, 2, 1]


def test_km_with_interior_censoring():
    # Censoring at 2 shrinks the risk set: S(1) = 2/3, then the last
    # subject fails at 3 with the whole remaining risk set, so S(3) = 0.
    curve = kaplan_meier(validate_sample([(1.0, True), (2.0, False), (3.0, True)]))
    assert curve.time.size == 2
    assert curve.survival[0] == pytest.approx(2 / 3)
    assert curve.survival[1] == 0.0
    assert curve.censor_times.tolist() == [2.0]


def test_km_all_censored_has_no_steps():
    sample = validate_sample([(1.0, False), (2.0, False)])
    assert km_rows(kaplan_meier(sample)) == []
    assert _km_tail(sample) == 1.0


def test_km_tied_event_times_form_one_step():
    curve = kaplan_meier(validate_sample([(2.0, True), (2.0, True), (3.0, False)]))
    assert curve.time.size == 1
    assert curve.n_events[0] == 2
    assert curve.survival[0] == pytest.approx(1 / 3)


def test_km_curve_is_read_only_arrays():
    sample = validate_sample([(1.0, True), (2.0, False), (2.0, True), (2.0, True), (3.5, False), (4.0, True)])
    curve = kaplan_meier(sample)
    columns = (curve.time, curve.n_at_risk, curve.n_events, curve.survival)
    for values in columns + (curve.censor_times,):
        assert isinstance(values, np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0
    assert curve.censor_times.tolist() == [2.0, 3.5]
    assert curve.time.size == 3
    assert [c.dtype.kind for c in columns] == ["f", "i", "i", "f"]
    assert _km_tail(sample) == curve.survival[-1]
    assert type(_km_tail(sample)) is float


def test_sample_and_curve_compare_and_hash_by_identity():
    records = [(1.0, True), (2.0, False), (2.0, True), (3.5, False), (4.0, True)]
    sample, again = validate_sample(records), validate_sample(records)
    assert sample == sample and sample != again
    assert len({sample, sample, again}) == 2
    curve = kaplan_meier(sample)
    assert curve == curve and curve != kaplan_meier(sample)
    assert hash(curve) == hash(curve)


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
        assert len(km_rows(curve)) == len(want)
        for (t, n_at_risk, n_events, survival), (u, r, d, surv) in zip(km_rows(curve), want):
            assert t == u
            assert n_at_risk == r
            assert n_events == d
            assert survival == surv  # bitwise


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
        survival = kaplan_meier(sample).survival
        assert _km_tail(sample) == (survival[-1] if survival.size else 1.0)


def test_km_equals_empirical_survivor_without_censoring():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        times = np.round(rng.exponential(size=n), 2)
        sample = validate_sample([(t, True) for t in times])
        curve = kaplan_meier(sample)
        for t, survival in zip(curve.time, curve.survival):
            empirical = np.mean(times > t)
            assert survival == pytest.approx(empirical, abs=1e-12)


def test_km_invariant_under_increasing_time_transform():
    rng = np.random.default_rng(5)
    times = rng.integers(0, 10, size=30) * 0.5
    events = rng.random(30) < 0.5
    base = kaplan_meier(validate_sample(list(zip(times.tolist(), events.tolist()))))
    squared = kaplan_meier(
        validate_sample([(t * t, e) for t, e in zip(times.tolist(), events.tolist())])
    )
    assert len(km_rows(base)) == len(km_rows(squared))
    for a, b in zip(km_rows(base), km_rows(squared)):
        assert b[0] == a[0] * a[0]
        assert b[3] == a[3]  # values identical, locations transformed
        assert b[1] == a[1]


def test_km_survival_is_nonincreasing():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        records = list(zip((rng.exponential(size=n)).tolist(), (rng.random(n) < 0.5).tolist()))
        curve = kaplan_meier(validate_sample(records))
        values = [1.0] + curve.survival.tolist()
        assert all(a >= b for a, b in zip(values, values[1:]))


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


@pytest.mark.parametrize("times", [
    [1.0, 2.0, 3.0],
    [0.3, 0.7, 1.1, 2.9],
    [1e-310, 1e-310],  # subnormal: halving first would lose the last bit
    [2.5e-308, 2.5e-308, 1.0, 1.2e-300],
    [1e-300, 3.0, 7.0, 1e300],
])
def test_followup_median_is_numpys_where_that_is_finite(times):
    fs = followup_summary(validate_sample([(t, True) for t in times]))
    assert fs.median_followup == np.median(np.array(times))


def test_followup_median_does_not_overflow_near_the_largest_float():
    s = validate_sample([(1.0, True), (1.5e308, False), (1.7e308, True), (1.75e308, False)])
    assert followup_summary(s).median_followup == 1.6e308


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
    for flag in (True, np.True_):
        with pytest.raises(ValidationError, match="late_window must be finite and > 0, got"):
            followup_summary(s, late_window=flag)


def test_followup_default_window_where_a_fifth_of_the_follow_up_underflows():
    # 0.2 * 1e-323 rounds to 0; the default window is then the smallest positive float.
    s = validate_sample([(5e-324, True), (5e-324, False), (1e-323, False)])
    fs = followup_summary(s)
    assert fs.late_window == math.ulp(0.0)
    assert fs.late_event_rate == 0.0  # the event at 5e-324 lies on the window's open end
    assert followup_summary(validate_sample([(1e-300, True)])).late_window == 0.2 * 1e-300
    assert followup_summary(validate_sample([(0.0, True)])).late_window == 1.0
    with pytest.raises(ValidationError, match="late_window must be finite and > 0, got 0.0"):
        followup_summary(s, late_window=0.0)


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


# ---------------------------------------------------------------------------
# row writer

def _csv_row(t, e):
    return f"{t!r},{e:d}\r\n"


def _censor_mark(x1, y1, x2, y2):
    return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{_TICK_COLOR}" stroke-width="1.4"/>\n')


def _y_tick(y1, y2, y3, p):
    return (f'<line x1="{_LEFT - 4:.2f}" y1="{y1:.2f}" x2="{_LEFT:.2f}" y2="{y2:.2f}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>\n'
            f'<text x="{_LEFT - 8:.2f}" y="{y3:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{p:.6g}</text>\n')


def _repeat_patterns():
    """Sorted times and events with the repeats real output has, and none."""
    rng = np.random.default_rng(8)
    n = 400
    t = np.sort(rng.exponential(1.0, n))
    e = rng.random(n) < 0.6
    one = t.copy()
    one[200] = one[201]
    days = np.sort(np.floor(rng.exponential(40.0, n)))
    capped = np.minimum(t, t[n // 2])  # a cutoff: one long final run
    return {
        "no repeats": (t, e),
        "one repeat": (one, np.where(np.arange(n) == 200, e[201], e)),
        "long final run": (capped, e & (t < t[n // 2])),
        "integer days": (days, np.zeros(n, bool)),
        "every row twice": (np.repeat(t[: n // 2], 2), np.repeat(e[: n // 2], 2)),
        "one row": (t[:1], e[:1]),
    }


@pytest.mark.parametrize("pattern", list(_repeat_patterns()))
def test_rows_equal_a_per_row_f_string(pattern):
    # Runs of equal rows are formatted once and repeated; the bytes must be
    # those of formatting every row, whatever the runs.
    t, e = _repeat_patterns()[pattern]
    x, y = 62.0 + 3.0 * t, 100.0 + np.floor(t)
    cases = [
        ("%r,%d\r\n", _csv_row, (t, e)),
        (_CENSOR_MARK, _censor_mark, (x, y - 4, x, y + 4)),
        (_Y_TICK, _y_tick, (y, y, y + 3.5, t)),
    ]
    for template, row, columns in cases:
        want = "".join(row(*cells) for cells in zip(*(c.tolist() for c in columns)))
        assert _rows(template, *columns) == want, template


def test_rows_tell_the_two_zeros_apart():
    # -0.0 == 0.0, but the rows differ; rows equal bit for bit repeat.
    t = np.array([-0.0, 0.0] * 40 + [1.0] * 40)
    e = np.ones(t.size, bool)
    assert _rows("%r,%d\r\n", t, e) == "-0.0,1\r\n0.0,1\r\n" * 40 + "1.0,1\r\n" * 40
