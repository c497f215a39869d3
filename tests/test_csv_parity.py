"""``read_csv`` against the ``csv.reader`` + per-cell ``float`` reader it replaced.

The oracle below is that reader, under another name.  On every
input here the two must give bitwise-equal arrays or the same error text;
``test_report_cli`` pins the inputs whose handling changed.
"""

import csv
import math
import numbers
import random
from operator import itemgetter

import numpy as np
import pytest

from curecheck.errors import ValidationError
from curecheck.survival import _EVENT_WORDS, _canonical_sample, _is_number, read_csv


def oracle_read_csv(path, time_col="time", event_col="event", time_scale=1.0):
    if not (_is_number(time_scale, numbers.Real) and 0.0 < time_scale < math.inf):
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
        cells = list(map(itemgetter(je), rows))
        word = {cell: _EVENT_WORDS[cell.strip().lower()] for cell in set(cells)}
        events = np.fromiter(map(word.__getitem__, cells), bool, len(rows))
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


def outcome(reader, path, **kwargs):
    """The sample's array bytes, or the error text."""
    try:
        s = reader(str(path), **kwargs)
    except ValidationError as exc:
        return "error", str(exc)
    return "ok", s.times.tobytes(), s.events.tobytes()


def assert_same(path, **kwargs):
    want = outcome(oracle_read_csv, path, **kwargs)
    assert outcome(read_csv, path, **kwargs) == want
    return want


def _random_time_cells(rng, n):
    """repr floats over the whole positive range, integer days, exponent forms, -0.0, padding."""
    exponents = rng.uniform(-310.0, 308.0, n)
    mantissas = rng.uniform(1.0, 10.0, n)
    cells = []
    for k, (e, m) in enumerate(zip(exponents.tolist(), mantissas.tolist())):
        kind = k % 8
        if kind in (0, 1, 2):
            cells.append(repr(m * 10.0 ** e if e > -300 else m * 1e-300 * 10.0 ** (e + 300)))
        elif kind == 3:
            cells.append(str(int(m * 1000)))
        elif kind == 4:
            cells.append(f"{m:.{k % 20}f}e{int(e):+d}")
        elif kind == 5:
            cells.append(f"{m:.25g}E{int(e) // 3}")
        elif kind == 6:
            cells.append(("-0.0", "0", "0.0", "+7", "1.", ".5", "inf", "1e999")[k // 8 % 8])
        else:
            cells.append(f" \t{m!r} ")
    return cells


def test_random_time_cells_read_bitwise_as_before(tmp_path):
    rng = np.random.default_rng(31)
    n = 100_000
    times = _random_time_cells(rng, n)
    words = ("0", "1", "true", "False", " TRUE ", "\tfalse", "1 ", " 0")
    events = [words[k] for k in rng.integers(0, len(words), n).tolist()]
    path = tmp_path / "many.csv"
    path.write_text("time,event\n" + "".join(f"{t},{e}\n" for t, e in zip(times, events)))
    # The inf and 1e999 cells are non-finite: the first one is named, as before.
    assert assert_same(path)[0] == "error"
    finite = [(t, e) for t, e in zip(times, events) if math.isfinite(float(t))]
    path.write_text("time,event\n" + "".join(f"{t},{e}\n" for t, e in finite))
    assert assert_same(path)[0] == "ok"
    assert assert_same(path, time_scale=365.25)[0] == "ok"


def _write(tmp_path, body):
    path = tmp_path / "d.csv"
    path.write_bytes(body.encode("utf-8") if isinstance(body, str) else body)
    return path


@pytest.mark.parametrize(
    "body",
    [
        # line ends, byte-order mark, blank lines (not counted in row numbers)
        "time,event\r\n1.5,1\r\n2,0\r\n",
        "time,event\r1.5,1\r2,0",
        "\ufefftime,event\n1.5,1\n2,0\n",
        "\ufefftime,event\r\n\r\n1,1\r\n\r\n\r\nsoon,0\r\n",
        "time,event\n\n1,1\n\n2,0\n-3,1\n\n",
        "time,event\n1,1\n\r\n\rnan,0\n",
        "time,event\n\n\n",
        "time,event\r\n\r\n",
        "time,event",
        "",
        "\n",
        "\ufeff",
        # quoted cells holding commas, newlines and doubled quotes
        'id,time,note,event\n1,"2.5","a,b",1\n2,3,"line\nbreak",0\n3,"4","say ""hi""","true"\n',
        'time,event\n1,"1\n"\n',
        'time,event\n"1\n",1\n',
        'time,"event, observed"\n1,1\n',
        'time,event\n1,1\n"2,0\n3,1\n',
        'time,event\n1,1\n2,"0\n',
        'time,event\n1,"1"x\n',
        'time,event\n1,x"1"\n',
        # short rows, extra columns, column order, repeated names
        "time,event\n1,1\n2\n",
        "event,time\n1,1\n0\n",
        "time,event\n1,1\n\n,\n",
        "time,event\n1,1,extra,,\n2,0,\n",
        "event,x,time\ntrue,a,1\nfalse,b,2\n",
        "time,event,time\n9,1,1\n9,0,2\n",
        "time,time,event\nx,1,1\n",
        "event,event,time\n2,1,1\n",
        "start,event\n1,1\n",
        "\ntime,event\n1,1\n",
        # event words in any case, padded, and bad ones
        "time,event\n1, TRUE \n2,False\n3,\t0\n4,1 \n5,tRuE\n6,FALSE\n",
        "time,event\n1,yes\n",
        "time,event\n1,2\n",
        "time,event\n1,\n",
        "time,event\n1,0\x00\n",
        "time,event\n1\x00,0\n",
        "time,event\n1,1       x\n",
        "time,event\n1,true false\n",
        # time grammar both readers share
        "time,event\n 1 ,1\n\t2\t,0\n\xa03\xa0,1\n+4,0\n5.,1\n.5,0\n1e3,1\n1E-3,0\n",
        "time,event\n-0.0,1\n0,0\n",
        "time,event\n-1,1\n",
        "time,event\ninf,1\n",
        "time,event\nInfinity,1\n",
        "time,event\nnan,1\n",
        "time,event\n1e400,1\n",
        "time,event\n0x10,1\n",
        "time,event\n1 2,1\n",
        "time,event\n,1\n",
        "time,event\n  ,1\n",
        "time,event\n1,1\n  \n",
        "time,event\n1,1\nlater,yes\n",
        "time,event\n1,1\n-1,yes\nsoon,1\n",
    ],
)
def test_same_arrays_or_error_text_as_before(tmp_path, body):
    assert_same(_write(tmp_path, body))


@pytest.mark.parametrize(
    "body",
    [
        b"time,event\n1.0,1\n2.0,\xff\n",
        b"time,event\n" + b"1.0,1\n" * 3000 + b"2.0,\xff\n",
        b"start,event\n" + b"1.0,1\n" * 3000 + b"2.0,\xff\n",
        b"time,event\n" + b"9" * 200_000 + b",1\n",
        b"time,event\n1.0," + b"0" * 200_000 + b"1\n",
        b"start,event\n1," + b"9" * 200_000 + b"\n",
        b"time,event\n" + b"1.0,1\n" * 3000 + b"soon,1\n" + b"9" * 200_000 + b",1\n",
    ],
    ids=["bad-byte", "late-bad-byte", "bad-byte-and-missing-column", "oversized-time",
         "oversized-event", "oversized-and-missing-column", "bad-cell-before-oversized"],
)
def test_unreadable_files_fail_as_before(tmp_path, body):
    assert assert_same(_write(tmp_path, body))[1].startswith("cannot read ")


def test_seeded_random_files_read_as_before(tmp_path):
    # Small files assembled from valid and invalid cells, quoting, blank and
    # short rows, extra columns and three line-end styles.
    times = ["1", "0", "2.5", " 3 ", '"4"', "1e3", "-0.0", "inf", "5e-324", '"1,5"', "",
             '"7\n"', "-1", "nan", "soon", '"1""2"']
    events = ["0", "1", "true", "FALSE", " True ", '"1"', " 0", "", "2", '"fal\nse"', "yes"]
    extras = ["x", "", '"a,b"', '"c\nd"', '"q""r"', " "]
    rnd = random.Random(31)
    path = tmp_path / "r.csv"
    seen = set()
    for _ in range(600):
        cols = rnd.choice([["time", "event"], ["event", "time"], ["x", "time", "event"],
                           ["time", "x", "event", "x"], ["time", "event", "time"]])
        eol = rnd.choice(["\n", "\r\n", "\r"])
        lines = [",".join(cols)]
        for _ in range(rnd.randint(1, 6)):
            row = [rnd.choice(times[:9] if c == "time" else events[:7] if c == "event" else extras)
                   for c in cols]
            if rnd.random() < 0.15:
                row[rnd.randrange(len(row))] = rnd.choice(times + events)
            if rnd.random() < 0.1:
                row = row[:rnd.randrange(len(row))]
            lines.append(",".join(row) if rnd.random() > 0.1 else "")
        path.write_text(eol.join(lines) + rnd.choice(["", eol]), newline="")
        seen.add(assert_same(path, time_scale=rnd.choice([1.0, 365.25, 1e-300]))[0])
    assert seen == {"ok", "error"}
