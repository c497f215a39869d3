"""CSV input/output, report rendering, plot export, and the command-line interface."""

import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import jsonschema
import numpy as np
import pytest
from conftest import records

from curecheck.assessment import AssessmentConfig, receus_assess
from curecheck.cli import _parse_censoring, build_parser, main, read_csv, write_csv
from curecheck.errors import DomainError, FitError, ValidationError
from curecheck.plot import emit_km_plot, km_plot_csv, km_plot_svg
from curecheck.report import build_report, render_json, render_text, report_schema
from curecheck.simulate import (
    CENSORING_MECHANISMS,
    CompositeCensoring,
    SimulationConfig,
    simulate_mixture,
)
from curecheck.survival import kaplan_meier, validate_sample


@pytest.fixture(scope="module")
def cure_csv(tmp_path_factory):
    """A simulated dataset with a real cured fraction, written to disk."""
    cfg = SimulationConfig(
        n=1000,
        cure_fraction=0.4,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=CompositeCensoring(7.3, 14.6),
        seed=20000,
    )
    sample, _ = simulate_mixture(cfg)
    path = tmp_path_factory.mktemp("data") / "cure.csv"
    write_csv(sample, str(path))
    return str(path)


@pytest.fixture(scope="module")
def small_assessment():
    cfg = SimulationConfig(
        n=400,
        cure_fraction=0.4,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=CompositeCensoring(7.3, 14.6),
        seed=20001,
    )
    sample, _ = simulate_mixture(cfg)
    return receus_assess(sample, AssessmentConfig(families=("exponential", "weibull")))


# ---------------------------------------------------------------------------
# CSV reading

def test_read_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.5,1\n2.0,0\n")
    s = read_csv(str(p))
    assert records(s) == [(1.5, True), (2.0, False)]


def test_read_csv_custom_columns_and_day_scaling(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("t,e\n2659,0\n")
    s = read_csv(str(p), time_col="t", event_col="e", time_scale=365.25)
    assert records(s) == [(2659 / 365.25, False)]
    assert s.times[0] == pytest.approx(7.28, abs=5e-3)


def test_read_csv_accepts_true_false_words(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.0,true\n2.0,FALSE\n3.0,True\n")
    s = read_csv(str(p))
    assert s.events.tolist() == [True, False, True]


def test_read_csv_missing_file():
    with pytest.raises(ValidationError, match="cannot read"):
        read_csv("/no/such/file.csv")


def test_read_csv_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError, match="no header row"):
        read_csv(str(empty))
    header = tmp_path / "header.csv"
    header.write_text("time,event\n")
    with pytest.raises(ValidationError, match="header but no data rows"):
        read_csv(str(header))


def test_read_csv_missing_column_named(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("start,event\n1.0,1\n")
    with pytest.raises(ValidationError, match="missing column 'time'.*found: start, event"):
        read_csv(str(p))


def test_read_csv_bad_time_names_row_and_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.0,1\nsoon,0\n")
    with pytest.raises(ValidationError, match="unparseable time 'soon' at row 3, column 'time'"):
        read_csv(str(p))


def test_read_csv_bad_event_names_row_and_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.0,2\n")
    with pytest.raises(
        ValidationError, match="unparseable event '2' at row 2.*expected 0, 1, true or false"
    ):
        read_csv(str(p))


def test_read_csv_rejects_bad_time_scale(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.0,1\n")
    with pytest.raises(ValidationError, match="time_scale"):
        read_csv(str(p), time_scale=0.0)


def test_read_csv_bad_times_name_row_column_and_path(tmp_path):
    p = tmp_path / "d.csv"
    for body, want in (
        ("1.0,1\n-2.0,0\n", "negative time at row 3, column 'time' of "),
        ("1.0,1\n\n2.0,0\nnan,1\n", "non-finite time at row 4, column 'time' of "),
        ("1.0,1\n-inf,1\n", "non-finite time at row 3, column 'time' of "),
    ):
        p.write_text("time,event\n" + body)
        with pytest.raises(ValidationError) as info:
            read_csv(str(p))
        assert str(info.value) == want + str(p)


def test_read_csv_rejects_non_finite_time_scale(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.0,1\n")
    for bad in (math.inf, math.nan, -1.0, "2", True):
        with pytest.raises(ValidationError, match="time_scale must be finite and > 0"):
            read_csv(str(p), time_scale=bad)


def test_read_csv_time_scale_overflow_is_a_non_finite_time(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.0,1\n1e308,0\n")
    with pytest.raises(ValidationError, match="non-finite time at row 3"):
        read_csv(str(p), time_scale=1e-10)


def test_read_csv_skips_blank_lines_without_counting_them(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n\n1.0,1\n\n\n2.0,0\nsoon,1\n")
    with pytest.raises(ValidationError, match="unparseable time 'soon' at row 4,"):
        read_csv(str(p))
    p.write_text("time,event\n\n1.0,1\n\n2.0,0\n\n")
    assert records(read_csv(str(p))) == [(1.0, True), (2.0, False)]


def test_read_csv_short_row_reads_as_an_empty_cell(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.0,1\n2.0\n")
    with pytest.raises(ValidationError, match="unparseable event '' at row 3, column 'event'"):
        read_csv(str(p))
    p.write_text("event,time\n1,1.0\n0\n")
    with pytest.raises(ValidationError, match="unparseable time '' at row 3, column 'time'"):
        read_csv(str(p))


def test_read_csv_names_the_first_bad_cell_in_file_order(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.0,1\n-1.0,yes\nsoon,1\n")
    with pytest.raises(ValidationError, match="unparseable event 'yes' at row 3"):
        read_csv(str(p))
    p.write_text("time,event\n1.0,1\nlater,yes\n")
    with pytest.raises(ValidationError, match="unparseable time 'later' at row 3"):
        read_csv(str(p))


def test_read_csv_ignores_extra_columns_and_reads_quoted_headers(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text('id,"time",note,"event, observed",more\n7,2.0,x,0,9,10\n8,1.0,"a,b",1,\n')
    s = read_csv(str(p), event_col="event, observed")
    assert records(s) == [(1.0, True), (2.0, False)]


def test_read_csv_event_words_are_stripped_and_case_blind(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.0, TRUE \n2.0,False\n3.0, 0\n4.0,1 \n")
    assert read_csv(str(p)).events.tolist() == [True, False, False, True]


def test_read_csv_names_a_file_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"time,event\n1.0,1\n2.0,0\xff\n")
    with pytest.raises(ValidationError, match="cannot read .*'utf-8' codec can't decode byte 0xff"):
        read_csv(str(p))
    assert main(["km", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"curecheck: error: cannot read {p}: 'utf-8' codec")


@pytest.mark.parametrize(
    "body, message",
    [
        # Changed: the time grammar is numpy's, which has no digit separators or
        # non-ASCII digits; float() read these as 1000.0 and 12.0.
        ("time,event\n1,1\n1_000,0\n", "unparseable time '1_000' at row 3, column 'time' of "),
        ("time,event\n1,1\n\u0661\u0662,0\n", "unparseable time '\u0661\u0662' at row 3, column 'time' of "),
        ("time,event\n1,1\n2,0\x00\n", "unparseable event '0\\x00' at row 3, column 'event' of "),
        ("time,event\n1,1\n2\x00,0\n", "unparseable time '2\\x00' at row 3, column 'time' of "),
        ('time,event\n1,1\n"2,0\n3,1\n', "unparseable time '2,0\\n3,1' at row 3, column 'time' of "),
        ("time,event\n1,1\n2,1       x\n", "unparseable event '1       x' at row 3, column 'event' of "),
        ("time,event\n1,1\n2,truex\n", "unparseable event 'truex' at row 3, column 'event' of "),
        ("time,event\r\n\r\n", "empty file: "),
        ("", "empty file: "),
    ],
    ids=["underscore", "arabic-digits", "nul-event", "nul-time", "unterminated-quote",
         "long-event", "event-prefix", "header-only", "empty"],
)
def test_malformed_csv_is_a_named_error(tmp_path, capsys, body, message):
    p = tmp_path / "d.csv"
    p.write_text(body, newline="")
    with pytest.raises(ValidationError) as info:
        read_csv(str(p))
    assert message in str(info.value) and str(p) in str(info.value)
    assert main(["km", str(p)]) == 1
    assert capsys.readouterr().err == f"curecheck: error: {info.value}\n"


def test_read_csv_accepts_what_csv_and_float_disagreed_on(tmp_path):
    # Changed: a time padded with an ASCII information separator (U+001C-U+001F)
    # strips as whitespace; float() refused it after the scan had stripped it,
    # and the bare ValueError escaped.  A field longer than
    # csv.field_size_limit() is read when it parses; it still fails the read
    # when anything else in the file does (test_csv_parity).
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1\x1c,1\n\x1f2,0\n", newline="")
    assert records(read_csv(str(p))) == [(1.0, True), (2.0, False)]
    p.write_text("time,note,event\n1," + "x" * 200_000 + ",1\n" + "0" * 200_000 + "2,,0\n")
    assert records(read_csv(str(p))) == [(1.0, True), (2.0, False)]


def test_csv_round_trip_is_exact_with_ties_and_zeros(tmp_path):
    s = validate_sample(
        [(0.0, False), (0.0, True), (2.5, False), (2.5, True), (2.5, True), (1e-300, True),
         (0.1 + 0.2, False), (7.3, True), (7.3, False)]
    )
    path = tmp_path / "ties.csv"
    write_csv(s, str(path))
    back = read_csv(str(path))
    assert back.times.tobytes() == s.times.tobytes()
    assert back.events.tobytes() == s.events.tobytes()


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(55)
    times = rng.exponential(size=80) * 3.7
    events = rng.random(80) < 0.6
    s = validate_sample(list(zip(times.tolist(), events.tolist())))
    path = tmp_path / "round.csv"
    write_csv(s, str(path))
    back = read_csv(str(path))
    assert back.times.tobytes() == s.times.tobytes()  # repr round-trips floats
    assert np.array_equal(back.events, s.events)


# ---------------------------------------------------------------------------
# report rendering

def test_report_json_round_trip_and_schema(small_assessment):
    doc = build_report(small_assessment, label="unit")
    text = render_json(doc)
    parsed = json.loads(text)
    assert parsed == doc.to_dict()  # float repr round-trips exactly
    jsonschema.validate(parsed, report_schema())
    assert parsed["dataset"] == "unit"
    assert parsed["assessment"]["verdict"] == small_assessment.verdict
    assert len(parsed["model_table"]) == 4


def test_report_json_refuses_nan():
    # allow_nan=False in the renderer: a NaN anywhere in the payload fails
    # loudly instead of producing JSON that other parsers reject.
    class _NaNDoc:
        def to_dict(self):
            return {"r_hat": float("nan")}

    with pytest.raises(ValueError):
        render_json(_NaNDoc())


def test_report_text_layout(small_assessment):
    doc = build_report(small_assessment, label="unit")
    text = render_text(doc)
    assert "Step 1 - Clinical judgment" in text
    assert "Step 2 - Visual and nonparametric evidence" in text
    assert "Step 3 - Model-based assessment" in text
    assert "Verdict:" in text
    assert small_assessment.verdict in text
    # one table line per fitted spec
    for row in small_assessment.model_table:
        assert row.spec.label in text


def test_report_text_six_significant_digits(small_assessment):
    doc = build_report(small_assessment, label="unit")
    text = render_text(doc)
    cf = small_assessment.cure_fraction
    assert f"{cf:.6g}" in text


def test_report_source_block_is_optional(small_assessment):
    plain = build_report(small_assessment, label="a").to_dict()
    with_src = build_report(
        small_assessment, label="a", source={"path": "x.csv"}
    ).to_dict()
    assert "source" not in plain
    assert with_src["source"] == {"path": "x.csv"}
    jsonschema.validate(with_src, report_schema())


def test_report_json_keys_follow_the_schema_property_order(small_assessment):
    # Blocks built with asdict take their key order from the record's fields;
    # every object must list its keys in its schema node's property order.
    doc = build_report(small_assessment, label="a", source={"path": "x.csv"}).to_dict()
    assert doc["deviance_test"] is not None
    seen = []

    def walk(value, node):
        if isinstance(value, dict) and "properties" in node:
            order = list(node["properties"])
            assert list(value) == [k for k in order if k in value], order
            seen.append(tuple(value))
            for key, item in value.items():
                walk(item, node["properties"][key])
        elif isinstance(value, list) and "items" in node:
            for item in value:
                walk(item, node["items"])

    walk(doc, report_schema())
    # the top level, its six object blocks and the four model rows
    assert len(seen) == 11


def test_report_without_a_converged_cure_fit(monkeypatch):
    # Every cure fit fails: the cure-specific quantities are absent, the
    # text prints "-" for them and says why, and the JSON's nulls pass the schema.
    from curecheck.models import _fits

    def noncure_only(sample, families):
        for spec, fit in _fits(sample, families):
            yield spec, FitError(f"cannot fit {spec.label}") if spec.cure else fit

    monkeypatch.setattr("curecheck.assessment._fits", noncure_only)
    cfg = SimulationConfig(
        n=400,
        cure_fraction=0.4,
        family="weibull",
        latency=(0.8, 0.8),
        censoring=CompositeCensoring(7.3, 14.6),
        seed=20001,
    )
    sample, _ = simulate_mixture(cfg)
    a = receus_assess(sample, AssessmentConfig(families=("exponential", "weibull")))
    assert a.verdict == "not_appropriate_noncure_selected"
    doc = build_report(a, label="unit")
    text = render_text(doc)
    assert "S0(tau) = -, S(tau) = -, uncured-among-survivors r = -\n" in text
    assert "checks: cure fraction - > 0.025: no; r - < 0.05: no\n" in text
    assert "  note: no cure fit converged; cure-specific quantities unavailable\n" in text
    parsed = json.loads(render_json(doc))
    jsonschema.validate(parsed, report_schema())
    block = parsed["assessment"]
    assert [block[k] for k in ("cure_fraction", "s0_at_tau", "s_at_tau", "r_hat")] == [None] * 4


# ---------------------------------------------------------------------------
# plot export

def test_plot_csv_rows():
    curve = kaplan_meier(validate_sample([(1.0, True), (2.0, True), (3.0, True)]))
    text = km_plot_csv(curve)
    lines = text.strip().split("\r\n")
    assert lines[0] == "time,survival,n_at_risk,n_events"
    assert lines[1] == "0.0,1.0,3,0"
    assert len(lines) == 5  # header + anchor + three steps
    last = lines[-1].split(",")
    assert float(last[0]) == 3.0
    assert float(last[1]) == 0.0


def test_plot_svg_structure():
    curve = kaplan_meier(
        validate_sample([(1.0, True), (2.0, False), (3.0, True), (4.0, False)])
    )
    svg = km_plot_svg(curve)
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>\n")
    assert svg.count("stroke-width=\"1.4\"") == 2  # one tick per censored record


def test_plot_svg_no_events_draws_flat_line():
    curve = kaplan_meier(validate_sample([(1.0, False), (2.0, False)]))
    svg = km_plot_svg(curve)
    assert "<path" in svg  # the S = 1 line is still drawn


_TIED_CENSORED = [(1.0, True), (2.0, False), (2.0, False), (2.0, True), (3.0, False),
                  (3.0, False), (3.0, False), (4.0, True), (4.0, True)]


@pytest.mark.parametrize(
    "records, sha256",
    [
        (None, "a993deeb07f09f2284b5e66533f587c5f03433610925e0389fb8179af2136c88"),
        (  # all censored: the flat S = 1 line and a mark per record
            [(0.7, False), (2.5, False), (2.5, False), (4.0, False)],
            "ff8770c57da5bfda86bf6ff761c91e17bcaa74e9dbd62fd3bf67578c28bf800e",
        ),
        (  # censored before the first event: marks at S = 1
            [(0.2, False), (0.5, False), (1.0, True), (2.0, True), (3.5, False)],
            "120cd030d095a70cda1ac69789d0d2974f13752c452fdb04edd3e66779f7aea0",
        ),
        (  # tied censored times, one tied with an event time
            _TIED_CENSORED,
            "b9e1e1888c2566653d0c560b3eb981e23a92cbb13cbad3fee6f102be8607cc10",
        ),
    ],
    ids=["plateau", "all-censored", "censored-first", "tied-censored"],
)
def test_plot_svg_bytes_are_pinned(records, sha256, plateau_sample):
    # Pinned digests: any rewrite of the writer keeps these bytes.  None
    # stands for the plateau_sample fixture.
    sample = plateau_sample if records is None else validate_sample(records)
    svg = km_plot_svg(kaplan_meier(sample))
    assert hashlib.sha256(svg.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "records, km_csv_sha256, write_csv_sha256",
    [
        (None,
         "962422d9c9f20a83bfee4f7590afa7df8663dcb4aec6f3bc9b8092280b315c8d",
         "639e94ca9c03eabfd14e00717cd88e7e8eacdb95c01efc00aae22bc7d79d1ef4"),
        (_TIED_CENSORED,
         "187965740dc86939c84de04a7ffcc2c4688fd5bc25ec0d1d1d09562baa677f92",
         "8b8578476e729746366b9882e3fff19c3e75221ae9d29bff3b354c0c043eb610"),
    ],
    ids=["plateau", "tied-censored"],
)
def test_csv_writer_bytes_are_pinned(records, km_csv_sha256, write_csv_sha256, plateau_sample, tmp_path):
    # Pinned digests of the step-coordinate CSV and of the sample CSV, as
    # for the SVG above.  None stands for the plateau_sample fixture.
    sample = plateau_sample if records is None else validate_sample(records)
    km_csv = km_plot_csv(kaplan_meier(sample))
    assert hashlib.sha256(km_csv.encode()).hexdigest() == km_csv_sha256
    path = tmp_path / "s.csv"
    write_csv(sample, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == write_csv_sha256


def test_write_csv_quotes_the_header_and_writes_each_time_as_its_repr(tmp_path):
    s = validate_sample([(5e-324, True), (1e-05, False), (1e+300, True), (0.1 + 0.2, False), (3.0, True)])
    path = tmp_path / "odd.csv"
    write_csv(s, str(path), time_col="time,days")
    assert path.read_bytes() == (
        b'"time,days",event\r\n5e-324,1\r\n1e-05,0\r\n0.30000000000000004,0\r\n3.0,1\r\n1e+300,1\r\n'
    )


@pytest.mark.parametrize(
    "rows, x_labels",
    [
        # x_max * (1 + 1e-9) overflows to inf: the tick loop never ended
        ("1.0,1\n1.7976931348623157e308,0\n", ["0", "5e+307", "1e+308", "1.5e+308"]),
        # span / 5 underflows to 0: log10 raised a math domain error
        ("5e-324,1\n1e-323,0\n", ["0", "9.88131e-324"]),
        # the power of ten underflows to 0: a zero tick step, and the loop never ended
        ("5e-324,1\n2.5e-323,0\n", ["0", "2.47033e-323"]),
    ],
    ids=["largest-double", "subnormal", "subnormal-zero-step"],
)
def test_cli_km_svg_draws_the_time_axis_at_extreme_times(tmp_path, rows, x_labels):
    # In a subprocess with a timeout, so that a tick loop that never ends
    # fails the test instead of hanging the suite.
    p = tmp_path / "d.csv"
    p.write_text("time,event\n" + rows)
    proc = _run_cli("km", str(p), "--plot", "svg")
    assert proc.returncode == 0, proc.stderr
    labels = re.findall(r'font-size="11" text-anchor="middle">([^<]*)</text>', proc.stdout)
    assert labels == x_labels
    assert proc.stdout.endswith("</svg>\n")


@pytest.mark.parametrize(
    "rows, x_labels, n_censored",
    [
        # every time is 0: the axis spans [0, 1]
        ("0,1\n0,0\n0,0\n", ["0", "0.2", "0.4", "0.6", "0.8", "1"], 2),
        # span / 5 rounds to 0: the tick step is the span itself
        ("0,1\n5e-324,0\n5e-324,0\n0,0\n", ["0", "4.94066e-324"], 3),
    ],
    ids=["all-zero", "zero-and-smallest-subnormal"],
)
def test_cli_km_svg_on_a_zero_or_subnormal_time_span(tmp_path, capsys, rows, x_labels, n_censored):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n" + rows)
    assert main(["km", str(p), "--plot", "svg"]) == 0
    svg = capsys.readouterr().out
    root = ElementTree.fromstring(svg)  # well-formed XML
    labels = [e.text for e in root if e.get("font-size") == "11" and e.get("text-anchor") == "middle"]
    assert labels == x_labels
    assert sum(e.get("stroke-width") == "1.4" for e in root) == n_censored  # one mark per record


def test_plot_deterministic():
    curve = kaplan_meier(validate_sample([(1.0, True), (2.5, False), (3.0, True)]))
    assert km_plot_svg(curve) == km_plot_svg(curve)
    assert km_plot_csv(curve) == km_plot_csv(curve)


def test_emit_km_plot_formats(tmp_path):
    curve = kaplan_meier(validate_sample([(1.0, True), (2.0, False)]))
    svg_path = tmp_path / "c.svg"
    csv_path = tmp_path / "c.csv"
    emit_km_plot(curve, str(svg_path), "svg")
    emit_km_plot(curve, str(csv_path), "csv")
    assert svg_path.read_text().startswith("<svg")
    assert csv_path.read_bytes().startswith(b"time,survival")
    with pytest.raises(DomainError, match="unknown plot format"):
        emit_km_plot(curve, str(tmp_path / "c.png"), "png")


def test_emit_km_plot_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsys):
    curve = kaplan_meier(validate_sample([(1.0, True), (2.0, False), (2.0, True), (3.5, False)]))
    for fmt, render in (("svg", km_plot_svg), ("csv", km_plot_csv)):
        path = tmp_path / f"c.{fmt}"
        emit_km_plot(curve, str(path), fmt)
        emit_km_plot(curve, None, fmt)
        assert capsys.readouterr().out == render(curve)
        assert path.read_bytes() == render(curve).encode()


# ---------------------------------------------------------------------------
# command-line interface

def test_cli_km_stdout_and_out_file_match_the_renderers(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.0,1\n2.0,0\n2.0,1\n3.5,0\n")
    curve = kaplan_meier(read_csv(str(p)))
    for fmt, render in (("svg", km_plot_svg), ("csv", km_plot_csv)):
        out = tmp_path / f"km.{fmt}"
        assert main(["km", str(p), "--plot", fmt]) == 0
        assert capsys.readouterr().out == render(curve)
        assert main(["km", str(p), "--plot", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == render(curve).encode()


def test_cli_fit_at_the_largest_level_below_one(cure_csv, capsys):
    code = main(["fit", cure_csv, "--family", "weibull", "--cure", "--format", "json",
                 "--level", "0.9999999999999999"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    parsed = json.loads(captured.out)
    assert parsed["intervals"]["level"] == 0.9999999999999999
    lo, hi = parsed["intervals"]["values"]["cure_fraction"]
    assert 0.0 < lo < parsed["params"]["cure_fraction"] < hi <= 1.0


@pytest.mark.parametrize(
    "level, label",
    [("0.95", "95%"), ("0.975", "97.5%"), ("0.999", "99.9%"),
     ("0.9999999999999999", "99.99999999999999%")],
)
def test_cli_fit_text_labels_intervals_with_the_levels_own_digits(cure_csv, capsys, level, label):
    # A rounded label would call both 0.999 and 0.9999999999999999 "100%".
    assert main(["fit", cure_csv, "--family", "weibull", "--cure", "--level", level]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 3
    for line in lines:
        assert line.endswith(f"] at {label}"), line


def test_cli_fit_names_an_interval_that_overflows(tmp_path, capsys):
    # At the 95% level the scale interval's upper end is a float; at 99.9%
    # it passes the largest one, and the intervals give way to a note.
    path = tmp_path / "extreme.csv"
    path.write_text("time,event\n1.2e+302,0\n2.8e+302,0\n1.6e+302,0\n1e+301,1\n")
    argv = ["fit", str(path), "--family", "weibull"]
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["intervals"]["values"]["scale"][1] < math.inf
    note = "the upper end of the scale interval overflows; intervals unavailable"
    assert main(argv + ["--level", "0.999", "--format", "json"]) == 0
    intervals = json.loads(capsys.readouterr().out)["intervals"]
    assert intervals == {"level": 0.999, "values": None, "diagnostic": note}
    assert main(argv + ["--level", "0.999"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"  note: {note}"


def test_cli_fit_notes_an_information_matrix_that_is_not_finite(cure_csv, capsys, monkeypatch):
    # The exponential fit converges at its closed-form start without reading
    # a Hessian, so only the intervals see the NaN one.
    from curecheck import models

    loglik_derivatives = models._loglik_derivatives

    def nan_hessian(*args):
        ll, g, h, terms = loglik_derivatives(*args)
        return ll, g, np.full_like(h, math.nan), terms

    monkeypatch.setattr(models, "_loglik_derivatives", nan_hessian)
    assert main(["fit", cure_csv, "--family", "exponential"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("converged = yes")
    assert re.fullmatch(r"  rate = \S+", lines[1])
    assert lines[2:] == ["  note: observed information matrix is not finite at the optimum"]


def test_cli_assess_text_appropriate(cure_csv, capsys):
    code = main(["assess", cure_csv, "--families", "weibull"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Verdict: appropriate" in out


def test_cli_assess_json_validates(cure_csv, capsys):
    code = main(["assess", cure_csv, "--families", "weibull", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    jsonschema.validate(parsed, report_schema())
    assert parsed["assessment"]["verdict"] == "appropriate"
    assert parsed["source"]["path"] == cure_csv


def test_readme_demo_prints_the_lines_the_readme_quotes(tmp_path, monkeypatch, capsys):
    # The README's command-line demo, run as written: the assessment prints
    # every quoted line in order ("..." stands for lines left out), and the
    # restricted run exits 2 as its comment says.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```\w*\n(.*?)```", text, re.DOTALL)
    i = next(k for k, body in enumerate(blocks) if "curecheck simulate" in body)
    simulate, assess = (shlex.split(c)[1:] for c in blocks[i].replace("\\\n", " ").splitlines())
    quoted = [line for line in blocks[i + 1].splitlines() if line.strip() not in ("", "...")]
    restrict = next(line for line in text.splitlines() if "--restrict 0.35" in line)
    monkeypatch.chdir(tmp_path)
    assert main(simulate) == 0
    capsys.readouterr()
    assert main(assess) == 0
    printed = iter(capsys.readouterr().out.splitlines())
    assert len(quoted) == 14
    assert [line for line in quoted if line not in printed] == []  # in order
    command, comment = restrict.split("#")
    assert comment.strip() == "exit code 2"
    assert main(shlex.split(command)[1:]) == 2


def test_cli_assess_restrict_flips_verdict(cure_csv, capsys):
    code = main(["assess", cure_csv, "--families", "weibull", "--restrict", "0.35"])
    out = capsys.readouterr().out
    assert code == 2
    assert "Verdict: not_appropriate" in out


def test_cli_assess_writes_plot(cure_csv, tmp_path, capsys):
    plot_path = tmp_path / "km.svg"
    code = main(
        [
            "assess",
            cure_csv,
            "--families",
            "weibull",
            "--plot",
            "svg",
            "--plot-out",
            str(plot_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert plot_path.read_text().startswith("<svg")


def test_cli_assess_all_censored_is_an_error(tmp_path, capsys):
    p = tmp_path / "cens.csv"
    p.write_text("time,event\n1.0,0\n2.0,0\n3.0,0\n")
    code = main(["assess", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert "no events: fitting undefined" in captured.err
    assert captured.out == ""


def test_cli_assess_unknown_family_is_an_error(cure_csv, capsys):
    code = main(["assess", cure_csv, "--families", "weibull,pareto"])
    captured = capsys.readouterr()
    assert code == 1
    assert "pareto" in captured.err


def test_cli_assess_repeated_family_is_an_error(cure_csv, capsys):
    code = main(["assess", cure_csv, "--families", "weibull,weibull"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "curecheck: error: latency family 'weibull' is listed twice\n"
    assert captured.out == ""


def test_cli_assess_missing_file_is_an_error(capsys):
    code = main(["assess", "/no/such/file.csv"])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot read" in captured.err


def _run_cli(*argv, stdin=None):
    import curecheck

    env = dict(os.environ, PYTHONPATH=str(Path(curecheck.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "curecheck.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "body, reason",
    [
        (b"time,event\n1.0,1\n2.0,\xff\n", "can't decode byte 0xff"),
        (b"time,event\n1.0,1\n" + b"9" * 200_000 + b",1\n", "field larger than field limit"),
    ],
    ids=["not-utf8", "oversized-cell"],
)
def test_cli_unreadable_csv_is_an_error_not_a_traceback(tmp_path, body, reason):
    p = tmp_path / "d.csv"
    p.write_bytes(body)
    proc = _run_cli("km", str(p))
    assert proc.returncode == 1
    assert f"curecheck: error: cannot read {p}: " in proc.stderr
    assert reason in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize(
    "body", ["time,event\n1,1\n2,0\n", "time,event\n1,1\nsoon,0\n", "start,event\n1,1\n"]
)
def test_cli_reads_a_pipe_as_it_reads_a_file(tmp_path, body):
    # A pipe cannot seek, and a failed parse reads the text a second time.
    p = tmp_path / "d.csv"
    p.write_text(body)
    from_file = _run_cli("km", str(p))
    from_pipe = _run_cli("km", "/dev/stdin", stdin=body)
    assert from_pipe.returncode == from_file.returncode
    assert from_pipe.stdout == from_file.stdout
    assert from_pipe.stderr == from_file.stderr.replace(str(p), "/dev/stdin")


@pytest.mark.parametrize("flag", ["--tau", "--late-window"])
def test_cli_assess_rejects_an_infinite_horizon(cure_csv, flag):
    proc = _run_cli("assess", cure_csv, flag, "inf", "--format", "json")
    name = flag[2:].replace("-", "_")
    assert proc.returncode == 1
    assert f"curecheck: error: {name} must be finite and > 0, got inf" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_reads_csv_with_byte_order_mark(tmp_path):
    p = tmp_path / "excel.csv"
    p.write_bytes(b"\xef\xbb\xbftime,event\n1.0,1\n2.0,0\n")
    proc = _run_cli("km", str(p))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "time,survival,n_at_risk,n_events", "0.0,1.0,2,0", "1.0,0.5,2,1",
    ]


def test_cli_fit_json(cure_csv, capsys):
    code = main(["fit", cure_csv, "--family", "weibull", "--cure", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["family"] == "weibull"
    assert parsed["cure"] is True
    assert parsed["converged"] is True
    sample = read_csv(cure_csv)
    assert (parsed["n"], parsed["n_events"]) == (sample.n, sample.n_events)
    assert parsed["params"]["cure_fraction"] == pytest.approx(0.4, abs=0.08)
    assert parsed["intervals"]["level"] == 0.95
    lo, hi = parsed["intervals"]["values"]["cure_fraction"]
    assert lo < parsed["params"]["cure_fraction"] < hi


def test_cli_km_csv_to_stdout(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text("time,event\n1.0,1\n2.0,1\n3.0,0\n")
    code = main(["km", str(p)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time,survival,n_at_risk,n_events"
    assert len(lines) == 4


def test_cli_simulate_deterministic(tmp_path, capsys):
    args = [
        "simulate",
        "--n",
        "50",
        "--cure-fraction",
        "0.3",
        "--family",
        "weibull",
        "--params",
        "0.8,0.8",
        "--censoring",
        "administrative:7.3",
        "--seed",
        "9",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    s = read_csv(str(out_a))
    assert s.n == 50


def test_cli_assess_keeps_every_fit_on_a_far_plateau(tmp_path, capsys):
    # Censoring at 1000 puts the gamma survival term Q(k, rate t) far below the
    # smallest float at the start values; it is evaluated in log space, so
    # gamma non-cure is fitted like the other nine candidates.
    data = tmp_path / "plateau.csv"
    assert main([
        "simulate", "--family", "exponential", "--params", "1", "--cure-fraction", "0.3",
        "--censoring", "administrative:1000", "--seed", "3", "--n", "400", "--out", str(data),
    ]) == 0
    capsys.readouterr()
    assert main(["assess", str(data), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["model_table"]) == 10
    assert all("log_likelihood" in row for row in doc["model_table"])
    assert not any("fit failed" in note for note in doc["notes"])


def test_cli_simulate_truth_record(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    truth = tmp_path / "truth.json"
    code = main(
        [
            "simulate",
            "--n",
            "40",
            "--cure-fraction",
            "0.5",
            "--family",
            "exponential",
            "--params",
            "1.2",
            "--censoring",
            "uniform:4.0",
            "--seed",
            "3",
            "--out",
            str(out),
            "--truth-out",
            str(truth),
        ]
    )
    capsys.readouterr()
    assert code == 0
    record = json.loads(truth.read_text())
    assert record["n_cured"] + record["n_uncured"] == 40
    assert record["seed"] == 3


@pytest.mark.parametrize(
    "params, censoring, message",
    [
        ("0.8,0.8", "weekly:1", "censoring"),
        ("0.8,x", "administrative:1", "bad latency parameters '0.8,x'"),
    ],
    ids=["censoring", "params"],
)
def test_cli_simulate_bad_censoring_spec(params, censoring, message, capsys):
    code = main(
        [
            "simulate",
            "--n",
            "10",
            "--cure-fraction",
            "0.3",
            "--family",
            "weibull",
            "--params",
            params,
            "--censoring",
            censoring,
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert message in captured.err


def test_cli_censoring_syntax_covers_every_mechanism():
    for kind, cls in CENSORING_MECHANISMS.items():
        args = [1.5 + i for i in range(len(dataclasses.fields(cls)))]
        assert _parse_censoring(f"{kind}:{','.join(map(str, args))}") == cls(*args)
        for wrong in (args + [9.0], args[:-1]):
            text = f"{kind}:{','.join(map(str, wrong))}"
            with pytest.raises(ValidationError, match=re.escape(repr(text))):
                _parse_censoring(text)
    with pytest.raises(ValidationError, match="'weekly:1'"):
        _parse_censoring("weekly:1")


def test_cli_restrict_roundtrip(tmp_path, capsys):
    src = tmp_path / "src.csv"
    src.write_text("time,event\n0.5,1\n2.0,1\n5.0,0\n")
    dst = tmp_path / "dst.csv"
    code = main(["restrict", str(src), "--cutoff", "1.0", "--out", str(dst)])
    capsys.readouterr()
    assert code == 0
    s = read_csv(str(dst))
    assert records(s) == [(0.5, True), (1.0, False), (1.0, False)]


def test_cli_restrict_quotes_column_names_so_output_reads_back(tmp_path, capsys):
    src = tmp_path / "src.csv"
    src.write_text('"t,x",event\n0.5,1\n2.0,1\n5.0,0\n')
    dst = tmp_path / "dst.csv"
    code = main(["restrict", str(src), "--time-col", "t,x", "--cutoff", "1.0", "--out", str(dst)])
    capsys.readouterr()
    assert code == 0
    assert dst.read_text().splitlines()[0] == '"t,x",event'
    assert records(read_csv(str(dst), time_col="t,x")) == [(0.5, True), (1.0, False), (1.0, False)]


def test_cli_simulate_stdout_equals_write_csv_file(tmp_path, capsys):
    cfg = SimulationConfig(n=40, cure_fraction=0.3, family="gamma", latency=(0.7, 0.8),
                           censoring=CompositeCensoring(7.3, 14.6), seed=4)
    path = tmp_path / "sample.csv"
    write_csv(simulate_mixture(cfg)[0], str(path))
    assert main(["simulate", "--n", "40", "--cure-fraction", "0.3", "--family", "gamma",
                 "--params", "0.7,0.8", "--censoring", "composite:7.3,14.6", "--seed", "4"]) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()
    assert path.read_bytes().startswith(b"time,event\r\n")


def test_cli_builds_its_parser_once(capsys):
    argv = ["simulate", "--n", "40", "--cure-fraction", "0.3", "--family", "weibull",
            "--params", "0.8,0.8", "--censoring", "administrative:5", "--seed", "3"]
    build_parser.cache_clear()
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert build_parser.cache_info().misses == 1
    assert build_parser() is build_parser()
    assert outputs[0] == outputs[1] and outputs[0].startswith("time,event")


def test_cli_simulate_negative_seed_is_an_error(capsys):
    code = main(["simulate", "--n", "40", "--cure-fraction", "0.3", "--family", "weibull",
                 "--params", "0.8,0.8", "--censoring", "administrative:5", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "curecheck: error: seed must be a non-negative integer, got -1\n"
    assert captured.out == ""


def test_cli_exit_codes_cover_all_branches(cure_csv, capsys):
    # 0 = appropriate, 2 = not appropriate, 1 = error: all three observable.
    assert main(["assess", cure_csv, "--families", "weibull"]) == 0
    capsys.readouterr()
    assert main(["assess", cure_csv, "--families", "weibull", "--restrict", "0.35"]) == 2
    capsys.readouterr()
    assert main(["assess", "/definitely/not/there.csv"]) == 1
    capsys.readouterr()


def test_cli_parser_defaults():
    args = build_parser().parse_args(["assess", "x.csv"])
    assert args.families == "exponential,weibull,gamma,loglogistic,lognormal"
    assert args.cure_threshold == 0.025
    assert args.r_threshold == 0.05
    assert args.alpha_threshold == 0.05
    assert args.format == "text"
    assert args.time_scale == 1.0


def test_package_root_exports_are_complete():
    # Everything advertised in __all__ must resolve, and the names user code
    # reaches for first (CSV I/O, assessment, fitting) must live at the root.
    import curecheck

    missing = [name for name in curecheck.__all__ if not hasattr(curecheck, name)]
    assert missing == []
    for name in ("read_csv", "write_csv", "receus_assess", "fit_model", "kaplan_meier"):
        assert name in curecheck.__all__
    assert curecheck.read_csv is read_csv
    assert curecheck.write_csv is write_csv


def test_module_entry_point_runs_without_warnings():
    # `python -m curecheck.cli` imports the package before running the module;
    # if the package itself imported cli, runpy would warn on stderr.
    import curecheck

    proc = _run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"curecheck {curecheck.__version__}"
    assert proc.stderr == ""


def test_package_import_leaves_scipy_statistics_and_decimal_unloaded():
    # scipy is a test oracle only.  statistics (which pulls in fractions and
    # decimal) and decimal are imported by the functions that use them, so a
    # CLI run that does not need them does not pay for them at start-up.
    import curecheck

    env = dict(os.environ, PYTHONPATH=str(Path(curecheck.__file__).resolve().parents[1]))
    code = (
        "import sys, curecheck, curecheck.cli; "
        "print(sorted({'scipy', 'statistics', 'decimal'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
