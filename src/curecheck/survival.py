"""Censored samples and their CSV I/O, Kaplan-Meier estimation, follow-up summaries.

A sample is a vector of (observed time, event indicator) pairs sorted
ascending by time with events placed before censorings at tied times;
that canonical order encodes the usual product-limit tie convention
(censored subjects at t are still at risk for the step at t).

``validate_sample`` (pairs), ``read_csv`` (two CSV columns, parsed by
numpy's C text reader) and ``simulate.simulate_mixture`` (arrays) all go
through ``_canonical_sample``: one vectorized finite, non-negative check,
then the event times and the censoring times each sorted and merged (-0.0
is stored as 0.0).  ``_rows`` writes sorted rows, formatting each run of
equal rows once.
``_km_product`` computes the product-limit estimate for every caller.
A sample and a Kaplan-Meier curve are read-only numpy arrays with a few
counts; callers read the arrays (the curve's last survival value is
``curve.survival[-1]``, or 1.0 when no event was observed).
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import ValidationError

_BINARY = {0: False, 1: True}
_EVENT_WORDS = {"0": False, "1": True, "false": False, "true": True}


def _is_number(v, kind: type) -> bool:
    """Whether v is a ``kind`` (a ``numbers`` ABC, so numpy scalars count) but not a bool."""
    return isinstance(v, kind) and not isinstance(v, bool)


@dataclass(frozen=True, eq=False)
class SurvivalSample:
    """Validated right-censored sample in canonical order.

    Construct through :func:`validate_sample` or :func:`read_csv`; the
    arrays are read-only.  Equality and hashing are by identity.
    """

    times: np.ndarray
    events: np.ndarray

    def __post_init__(self):
        t, e = self.times, self.events
        # Canonical: t[i] < t[i+1], or a tie with the event first; NaN fails both.
        if not (
            isinstance(t, np.ndarray) and isinstance(e, np.ndarray)
            and t.ndim == e.ndim == 1 and 0 < t.size == e.size and e.dtype == bool
            and t[0] >= 0.0 and t[-1] < math.inf
            and np.all((t[:-1] < t[1:]) | ((t[:-1] == t[1:]) & (e[:-1] >= e[1:])))
        ):
            raise ValidationError(
                "a SurvivalSample needs 1-D time and bool event arrays of one nonzero "
                "length, finite times >= 0, in canonical order; build it with "
                "validate_sample or read_csv"
            )
        self.times.setflags(write=False)
        self.events.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def n_events(self) -> int:
        return int(self.events.sum())

    @property
    def max_time(self) -> float:
        return float(self.times[-1])

    @property
    def max_event_time(self) -> float | None:
        """Largest observed event time, or None when nothing was observed to fail."""
        if self.n_events == 0:
            return None
        return float(self.times[self.events].max())


def _canonical_sample(times, events, where="row {}".format) -> SurvivalSample:
    """Check float ``times`` (``where(i)`` names record i) and sort into canonical order."""
    ok = (times >= 0.0) & (times < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        kind = "negative" if math.isfinite(times[i]) else "non-finite"
        raise ValidationError(f"{kind} time at {where(i)}")
    # Records equal in (time, event) are interchangeable, so two plain sorts
    # merge into the canonical order: event j goes to slot j plus the number
    # of censorings before its time, and the censorings fill the other slots.
    # Adding 0.0 turns -0.0 into 0.0, which the sorts could not tell apart.
    te, tc = times[events], times[~events]
    for part in (te, tc):
        part += 0.0
        part.sort()
    out_e = np.zeros(times.size, bool)
    out_e[tc.searchsorted(te, "left") + np.arange(te.size)] = True
    out_t = np.empty(times.size)
    out_t[out_e] = te
    out_t[~out_e] = tc
    return SurvivalSample(times=out_t, events=out_e)


def _columns(rows: list):
    """The time cells and the event cells of the records, two iterables to unpack.

    Records with a length are read in two passes, one per column, which
    allocate nothing per record; records without one, such as iterators,
    can be read only once, by ``zip``.  Raises ValueError when some record
    with a length is not a pair.
    """
    try:
        pairs = set(map(len, rows)) == {2}
    except TypeError:
        return zip(*rows, strict=True)
    if not pairs:
        raise ValueError("a record is not a (time, event) pair")
    return map(itemgetter(0), rows), map(itemgetter(1), rows)


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
        time_cells, event_cells = _columns(rows)
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
    del rows, time_cells, event_cells  # the Python records go before the sort's arrays come
    return _canonical_sample(times, events)


@dataclass(frozen=True, eq=False)
class KaplanMeierCurve:
    """Product-limit estimate: one entry per distinct event time.

    ``time``, ``n_at_risk``, ``n_events`` and ``survival`` are read-only
    arrays indexed by event time, ascending.  ``censor_times`` carries the
    censored observation times so plots can draw tick marks; it does not
    affect the estimate itself.  Equality and hashing are by identity.
    """

    time: np.ndarray
    n_at_risk: np.ndarray
    n_events: np.ndarray
    survival: np.ndarray
    n_total: int
    censor_times: np.ndarray

    def __post_init__(self):
        for values in (self.time, self.n_at_risk, self.n_events, self.survival, self.censor_times):
            values.setflags(write=False)


def _is_time_cell(cell: str) -> bool:
    """Whether numpy's text reader parses the stripped ``cell`` as a float:
    ``float``'s grammar on ASCII text without ``_`` digit separators."""
    try:
        float(cell)
    except ValueError:
        return False
    return cell.isascii() and "_" not in cell


def _csv_records(fh, path: str) -> list[list[str]]:
    """Every non-blank record of ``fh``, header included, read by ``csv`` from
    the start; undecodable text or a field longer than ``csv.field_size_limit()``
    is a :class:`ValidationError` naming ``path``."""
    fh.seek(0)
    try:
        return list(filter(None, csv.reader(fh)))  # a blank line reads as []
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def read_csv(
    path: str,
    time_col: str = "time",
    event_col: str = "event",
    time_scale: float = 1.0,
) -> SurvivalSample:
    """Load a right-censored sample from a headered CSV file.

    ``csv`` parses the header; one ``np.loadtxt`` call, numpy's C text
    reader (``quotechar`` needs numpy >= 1.23), parses the two columns, with
    ``csv``'s quoting: a field that opens with ``"`` may hold commas,
    newlines and doubled quotes.  A time cell is Python ``float`` syntax
    (surrounding whitespace, exponents, ``inf``, ``nan``) in ASCII without
    ``_`` separators; times are divided by ``time_scale`` (365.25 turns days
    into years).  An event cell is 0, 1, true or false, case-insensitive,
    surrounding whitespace ignored.  Extra columns are ignored.  The file is
    read as UTF-8 whatever the locale; a leading byte-order mark is skipped.

    Only after a failed parse does a per-row ``csv`` scan run, to name the
    first bad cell by file row (1 = header; blank lines are skipped and not
    counted) and column; a file that ``csv`` cannot read, undecodable or
    with a field longer than ``csv.field_size_limit()``, is reported as such
    first.  A long field in a file that parses is read.  A stream that
    cannot seek, such as a pipe, is read into memory first, for the scan.
    """
    if not (_is_number(time_scale, numbers.Real) and 0.0 < time_scale < math.inf):
        raise ValidationError(f"time_scale must be finite and > 0, got {time_scale!r}")
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    with fh:
        try:
            if not fh.seekable():
                fh = io.StringIO("".join(fh), newline="")
            header = next(csv.reader(fh), None)
            first = next((line for line in fh if line.strip("\r\n")), None)  # first data line
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from None
        if header is None:
            raise ValidationError(f"empty file: {path} has no header row")
        # A repeated column name means its last occurrence.
        column = {name: j for j, name in enumerate(header)}
        for col in (time_col, event_col):
            if col not in column:
                _csv_records(fh, path)  # an unreadable file says so first
                raise ValidationError(
                    f"missing column {col!r} in {path} (found: {', '.join(header)})"
                )
        if first is None:
            raise ValidationError(f"empty file: {path} has a header but no data rows")
        jt, je = column[time_col], column[event_col]
        try:
            parsed = np.loadtxt(
                chain((first,), fh), delimiter=",", quotechar='"', comments=None,
                usecols=(jt, je), dtype=[("t", float), ("e", object)], ndmin=1,
            )
            with np.errstate(over="ignore"):  # an overflow to inf is reported as non-finite
                times = parsed["t"] / time_scale
            cells = parsed["e"]
            events = np.zeros(cells.size, bool)
            for cell in set(cells):
                if _EVENT_WORDS[cell.strip().lower()]:
                    events |= cells == cell
            del parsed, cells  # the event strings go before the sort's arrays come
            return _canonical_sample(
                times, events, lambda i: f"row {i + 2}, column {time_col!r} of {path}"
            )
        except (ValueError, KeyError) as exc:  # ValidationError and UnicodeDecodeError included
            failure = exc
        rows = _csv_records(fh, path)[1:]  # the header is the first record
    for i, row in enumerate(rows, start=2):  # name the first cell that fails
        raw_t, raw_e = (row[j].strip() if j < len(row) else "" for j in (jt, je))
        if not _is_time_cell(raw_t):
            raise ValidationError(
                f"unparseable time {raw_t!r} at row {i}, column {time_col!r} of {path}"
            )
        if raw_e.lower() not in _EVENT_WORDS:
            raise ValidationError(
                f"unparseable event {raw_e!r} at row {i}, column {event_col!r} "
                f"of {path}: expected 0, 1, true or false"
            )
    if isinstance(failure, ValidationError):  # a negative or non-finite time
        raise failure
    # Only a file that numpy's tokenizer splits otherwise than csv's gets here.
    raise ValidationError(f"cannot read {path}: {failure}") from None


_SPLICE_MIN_ROWS = 64


def _rows(template: str, *columns: np.ndarray) -> str:
    """``template`` once per row of ``columns``, filled by ``%`` from their
    ``tolist()`` values: ``'%r' % x`` is ``repr(x)``, and ``'%.2f' % x`` is
    ``f'{x:.2f}'``, so the bytes equal a per-row f-string's.

    A row equal, bit for bit, to the row before it is formatted once and
    repeated: sorted output puts equal rows next to each other (the
    plateau's censorings, the records a cutoff caps, day-granular times).
    One ``%`` pass formats the first row of every run of two or more,
    each followed by a NUL (``template`` holds none); each text, repeated
    over its run, goes into the template as literal text; a second pass
    fills in the rows that do not repeat.  Below ``_SPLICE_MIN_ROWS`` rows,
    or where at most one row in eight repeats, that splice would cost more
    than the formats it saves, and every row is formatted.
    """
    n = len(columns[0])
    starts_run = np.ones(n, bool)  # row i differs from row i - 1
    if n >= _SPLICE_MIN_ROWS:
        starts_run[1:] = False
        for c in columns:
            bits = c.view(f"u{c.itemsize}")
            starts_run[1:] |= bits[1:] != bits[:-1]

    def cells(rows):
        return tuple(chain.from_iterable(zip(*(c[rows].tolist() for c in columns))))

    if n - np.count_nonzero(starts_run) <= n // 8:
        return (template * n) % cells(slice(None))
    starts = np.flatnonzero(starts_run)
    counts = np.diff(starts, append=n)
    repeated = np.flatnonzero(counts > 1)
    texts = ((template + "\0") * repeated.size % cells(starts[repeated])).replace("%", "%%")
    lone = np.diff(repeated, prepend=-1, append=starts.size) - 1  # runs of one between them
    # A generator, so that join's pieces are freed before the second pass.
    pieces = chain.from_iterable(
        (template * k, text * count)
        for k, text, count in zip(lone.tolist(), texts.split("\0"), counts[repeated].tolist())
    )
    spliced = "".join(chain(pieces, (template * int(lone[-1]),)))
    return spliced % cells(starts[counts == 1])


def write_csv(
    sample: SurvivalSample,
    path: str | None,
    time_col: str = "time",
    event_col: str = "event",
) -> None:
    """Write a sample as CSV to ``path`` (stdout when None); every cell reads back exactly.

    The header goes through ``csv.writer``, which quotes column names that
    need it; a time's ``repr`` never needs quoting.
    """
    with open(path, "w", newline="") if path is not None else nullcontext(sys.stdout) as fh:
        csv.writer(fh).writerow([time_col, event_col])
        fh.write(_rows("%r,%d\r\n", sample.times, sample.events))


def _km_product(sample: SurvivalSample):
    """Distinct event times, the events at each, the number then at risk and
    the product-limit survival after each, ``np.cumprod(1 - d / r)``."""
    times, d = np.unique(sample.times[sample.events], return_counts=True)
    r = sample.n - np.searchsorted(sample.times, times, side="left")
    return times, d, r, np.cumprod(1.0 - d / r)


def _km_tail(sample: SurvivalSample) -> float:
    """The last value of ``kaplan_meier(sample).survival`` (1.0 for a curve with no
    step), bit for bit, without building the curve."""
    surv = _km_product(sample)[3]
    return float(surv[-1]) if surv.size else 1.0


def kaplan_meier(sample: SurvivalSample) -> KaplanMeierCurve:
    """Kaplan-Meier curve of the sample.

    Censored observations shrink the risk set but contribute no step.
    """
    times, d, r, surv = _km_product(sample)
    return KaplanMeierCurve(
        time=times,
        n_at_risk=r,
        n_events=d,
        survival=surv,
        n_total=sample.n,
        censor_times=sample.times[~sample.events],
    )


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
    to 20% of the maximum follow-up, and to the smallest positive float
    where that underflows to 0.
    """
    max_fu = sample.max_time
    if late_window is None:
        late_window = (
            max(DEFAULT_LATE_WINDOW_FRACTION * max_fu, math.ulp(0.0)) if max_fu > 0.0 else 1.0
        )
    if not (_is_number(late_window, numbers.Real) and 0.0 < late_window < math.inf):
        raise ValidationError(f"late_window must be finite and > 0, got {late_window!r}")
    max_event = sample.max_event_time
    plateau = max_fu - max_event if max_event is not None else max_fu
    lo = max_fu - late_window
    in_window = (sample.times > lo) & (sample.times <= max_fu) & sample.events
    # The middle time(s), and np.median's (a + b) / 2, halved first where a + b could overflow.
    a, b = sample.times[(sample.n - 1) // 2], sample.times[sample.n // 2]
    return FollowUpSummary(
        n=sample.n,
        n_events=sample.n_events,
        median_followup=float(0.5 * (a + b) if b < 1.0 else 0.5 * a + 0.5 * b),
        max_followup=max_fu,
        max_event_time=max_event,
        km_at_max=_km_tail(sample),
        plateau_length=float(plateau),
        late_event_rate=float(in_window.sum()) / late_window,
        late_window=float(late_window),
    )
