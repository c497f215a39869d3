"""Command-line interface: CSV in, assessment / fits / curves / samples out.

Subcommands:

    assess     full appropriateness assessment (text or JSON report)
    fit        one (family, cure) maximum-likelihood fit
    km         Kaplan-Meier curve as step-coordinate CSV or SVG
    simulate   generate a seeded mixture sample as CSV
    restrict   censor a dataset at an earlier follow-up cutoff

Exit codes: 0 when the assessment verdict is "appropriate" (and for
successful non-assess subcommands), 2 when a cure model is judged not
appropriate, 1 on any execution error (message on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields

from . import __version__
from .assessment import AssessmentConfig, VERDICT_APPROPRIATE, receus_assess
from .errors import CurecheckError, ValidationError
from .models import FAMILIES, FamilySpec, fit_model, wald_intervals
from .plot import emit_km_plot
from .report import ReportDocument, build_report, render_json, render_text
from .simulate import (
    CENSORING_MECHANISMS,
    Censoring,
    SimulationConfig,
    restrict_followup,
    simulate_mixture,
)
from .survival import kaplan_meier, read_csv, write_csv


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("data", help="CSV file with one row per subject")
    p.add_argument("--time-col", default="time", help="time column name (default: time)")
    p.add_argument("--event-col", default="event", help="event column name (default: event)")
    p.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        metavar="S",
        help="divide times by S on input, e.g. 365.25 for days to years (default: 1)",
    )


# --censoring KIND:ARGS, ARGS being the record's fields in order.
_CENSORING_SYNTAX = " | ".join(
    f"{kind}:{','.join(f.name.upper() for f in fields(cls))}"
    for kind, cls in CENSORING_MECHANISMS.items()
)


def _parse_censoring(text: str) -> Censoring:
    kind, _, rest = text.partition(":")
    cls = CENSORING_MECHANISMS.get(kind)
    try:
        args = tuple(map(float, rest.split(",")))
    except ValueError:
        args = ()
    if cls is None or len(args) != len(fields(cls)):
        raise ValidationError(f"invalid censoring {text!r}; expected {_CENSORING_SYNTAX}")
    return cls(*args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="curecheck",
        description="Decide whether a right-censored dataset supports a mixture cure model.",
    )
    parser.add_argument("--version", action="version", version=f"curecheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_assess = sub.add_parser("assess", help="run the full appropriateness assessment")
    defaults = AssessmentConfig()
    _add_io_args(p_assess)
    p_assess.add_argument(
        "--families",
        default=",".join(defaults.families),
        help="comma list of latency families to compare (default: %(default)s)",
    )
    p_assess.add_argument("--tau", type=float, default=None,
                          help="assessment horizon (default: maximum observed time)")
    p_assess.add_argument("--cure-threshold", type=float, default=defaults.cure_fraction_threshold,
                          metavar="C", help="minimum meaningful cure fraction (default: %(default)s)")
    p_assess.add_argument("--r-threshold", type=float, default=defaults.r_threshold, metavar="R",
                          help="maximum uncured-among-survivors ratio (default: %(default)s)")
    p_assess.add_argument("--alpha-threshold", type=float, default=defaults.alpha_threshold,
                          metavar="A", help="follow-up test threshold (default: %(default)s)")
    p_assess.add_argument("--late-window", type=float, default=None,
                          help="trailing window for the late event rate (default: 20%% of max)")
    p_assess.add_argument("--restrict", type=float, default=None, metavar="T",
                          help="censor the data at T before assessing")
    p_assess.add_argument("--format", choices=("text", "json"), default="text")
    p_assess.add_argument("--plot", choices=("svg", "csv"), default=None,
                          help="also write the Kaplan-Meier curve in this format")
    p_assess.add_argument("--plot-out", default=None, metavar="PATH",
                          help="plot destination (default: <data stem>_km.<format>)")
    p_assess.add_argument("--label", default=None, help="dataset label for the report")

    p_fit = sub.add_parser("fit", help="fit a single latency family")
    _add_io_args(p_fit)
    p_fit.add_argument("--family", choices=FAMILIES, default="weibull")
    p_fit.add_argument("--cure", action="store_true", help="include a cured fraction")
    p_fit.add_argument("--level", type=float, default=0.95,
                       help="confidence level for Wald intervals (default: 0.95)")
    p_fit.add_argument("--format", choices=("text", "json"), default="text")

    p_km = sub.add_parser("km", help="emit the Kaplan-Meier curve")
    _add_io_args(p_km)
    p_km.add_argument("--plot", choices=("svg", "csv"), default="csv")
    p_km.add_argument("--out", default=None, metavar="PATH",
                      help="output file (default: stdout)")

    p_sim = sub.add_parser("simulate", help="generate a seeded mixture sample")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--cure-fraction", type=float, required=True)
    p_sim.add_argument("--family", choices=FAMILIES, required=True)
    p_sim.add_argument("--params", required=True,
                       help="comma list of latency parameters, e.g. 0.8,0.8")
    p_sim.add_argument("--censoring", required=True, help=_CENSORING_SYNTAX)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None, metavar="PATH",
                       help="output CSV (default: stdout)")
    p_sim.add_argument("--truth-out", default=None, metavar="PATH",
                       help="also write the ground-truth record as JSON")

    p_res = sub.add_parser("restrict", help="censor a dataset at a follow-up cutoff")
    _add_io_args(p_res)
    p_res.add_argument("--cutoff", type=float, required=True)
    p_res.add_argument("--out", default=None, metavar="PATH",
                       help="output CSV (default: stdout)")
    return parser


def run_assess(args: argparse.Namespace) -> tuple[ReportDocument, int]:
    """Assessment pipeline behind the ``assess`` subcommand."""
    sample = read_csv(args.data, args.time_col, args.event_col, args.time_scale)
    if args.restrict is not None:
        sample = restrict_followup(sample, args.restrict)
    config = AssessmentConfig(
        families=tuple(f.strip() for f in args.families.split(",") if f.strip()),
        cure_fraction_threshold=args.cure_threshold,
        r_threshold=args.r_threshold,
        alpha_threshold=args.alpha_threshold,
        tau=args.tau,
        late_window=args.late_window,
    )
    assessment = receus_assess(sample, config)
    label = args.label if args.label is not None else _stem(args.data)
    source = {
        "path": args.data,
        "time_col": args.time_col,
        "event_col": args.event_col,
        "time_scale": args.time_scale,
    }
    if args.restrict is not None:
        source["restrict"] = args.restrict
    doc = build_report(assessment, label=label, source=source)
    if args.plot is not None:
        out = args.plot_out or f"{_stem(args.data)}_km.{args.plot}"
        emit_km_plot(kaplan_meier(sample), out, args.plot)
    code = 0 if assessment.verdict == VERDICT_APPROPRIATE else 2
    return doc, code


def _stem(path: str) -> str:
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name


def _cmd_fit(args: argparse.Namespace) -> int:
    sample = read_csv(args.data, args.time_col, args.event_col, args.time_scale)
    spec = FamilySpec(args.family, cure=args.cure)
    fit = fit_model(sample, spec)
    intervals = wald_intervals(fit, sample, args.level)
    if args.format == "json":
        payload = {
            "family": spec.family,
            "cure": spec.cure,
            "params": fit.param_dict,
            "log_likelihood": fit.log_likelihood,
            "aic": fit.aic,
            "n": sample.n,
            "n_events": sample.n_events,
            "converged": fit.converged,
            "intervals": {
                "level": args.level,
                "values": intervals.intervals,
                "diagnostic": intervals.diagnostic,
            },
        }
        print(json.dumps(payload, indent=2, allow_nan=False))
        return 0
    print(f"{spec.label}: loglik = {fit.log_likelihood:.6g}, AIC = {fit.aic:.6g}, "
          f"converged = {'yes' if fit.converged else 'no'}")
    for name, value in fit.param_dict.items():
        if intervals.intervals is not None:
            lo, hi = intervals.intervals[name]
            print(f"  {name} = {value:.6g}  [{lo:.6g}, {hi:.6g}] at {_percent(args.level)}")
        else:
            print(f"  {name} = {value:.6g}")
    if intervals.diagnostic:
        print(f"  note: {intervals.diagnostic}")
    return 0


def _percent(level: float) -> str:
    """A level as a percentage with its own digits: 0.975 gives "97.5%"."""
    from decimal import Decimal  # read by the fit command's text output alone

    return f"{Decimal(repr(level)).scaleb(2).normalize():f}%"


def _cmd_km(args: argparse.Namespace) -> int:
    sample = read_csv(args.data, args.time_col, args.event_col, args.time_scale)
    emit_km_plot(kaplan_meier(sample), args.out, args.plot)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        latency = tuple(float(v) for v in args.params.split(","))
    except ValueError:
        raise ValidationError(f"bad latency parameters {args.params!r}") from None
    config = SimulationConfig(
        n=args.n,
        cure_fraction=args.cure_fraction,
        family=args.family,
        latency=latency,
        censoring=_parse_censoring(args.censoring),
        seed=args.seed,
    )
    sample, truth = simulate_mixture(config)
    write_csv(sample, args.out)
    if args.truth_out is not None:
        # The truth's censoring text replaces the config's record in place; the counts follow.
        payload = {**asdict(config), **asdict(truth)}
        with open(args.truth_out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_restrict(args: argparse.Namespace) -> int:
    sample = read_csv(args.data, args.time_col, args.event_col, args.time_scale)
    write_csv(restrict_followup(sample, args.cutoff), args.out, args.time_col, args.event_col)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "assess":
            doc, code = run_assess(args)
            print(render_json(doc) if args.format == "json" else render_text(doc))
            return code
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "km":
            return _cmd_km(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "restrict":
            return _cmd_restrict(args)
    except (CurecheckError, OSError) as exc:
        print(f"curecheck: error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
