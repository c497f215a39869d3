"""Assessment reports: a structured document with text and JSON renderings.

The JSON rendering is lossless (floats round-trip bit-exactly through
``json``) and validates against the schema shipped at
``curecheck/schemas/report.schema.json``; the text rendering prints every
number with six significant digits and is organized as the three review
steps: clinical judgment, visual/nonparametric evidence, and the
model-based assessment.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources

from . import __version__
from .assessment import CureAssessment, ModelTableRow, VERDICT_APPROPRIATE

_CLINICAL_BANNER = (
    "Quantitative output cannot settle biological plausibility. Confirm with\n"
    "subject-matter experts that a cured (event-free) sub-population is\n"
    "plausible for this disease and endpoint before acting on the verdict."
)


@dataclass(frozen=True)
class ReportDocument:
    """Everything an assessment produced, ready for rendering."""

    label: str
    assessment: CureAssessment
    source: dict | None = None

    def to_dict(self) -> dict:
        a = self.assessment
        t = a.followup_test
        dv = a.deviance_test
        doc = {
            "tool": "curecheck",
            "version": __version__,
            "dataset": self.label,
            "config": {**asdict(a.config), "families": list(a.config.families)},
            "followup_summary": asdict(a.summary),
            # The interval as the list that json.loads gives back.
            "followup_test": {**asdict(t), "interval": list(t.interval)},
            "model_table": [_row_dict(r) for r in a.model_table],
            "selected": {
                "family": a.selected.spec.family,
                "cure": a.selected.spec.cure,
                "params": a.selected.param_dict,
                "log_likelihood": a.selected.log_likelihood,
                "aic": a.selected.aic,
            },
            "deviance_test": None if dv.deviance is None else {
                "family": dv.family,
                "deviance": dv.deviance,
                "p_value": dv.deviance_p_value,
            },
            "assessment": {
                "cure_model_selected": a.cure_model_selected,
                "cure_fraction": a.cure_fraction,
                "s0_at_tau": a.s0_at_tau,
                "s_at_tau": a.s_at_tau,
                "r_hat": a.r_hat,
                "tau": a.tau,
                "cure_fraction_pass": a.cure_fraction_pass,
                "r_pass": a.r_pass,
                "verdict": a.verdict,
            },
            "notes": list(a.notes),
        }
        if self.source is not None:
            doc["source"] = dict(self.source)
        return doc


def _row_dict(row: ModelTableRow) -> dict:
    fit = row.fit
    out: dict = {
        "family": row.spec.family,
        "cure": row.spec.cure,
        "n_params": row.spec.n_params,
        "aic": None if fit is None else fit.aic,
        "converged": fit is not None and fit.converged,
    }
    if fit is not None:
        out["log_likelihood"] = fit.log_likelihood
        out["params"] = fit.param_dict
    if row.error is not None:
        out["error"] = row.error
    return out


def build_report(
    assessment: CureAssessment, label: str, source: dict | None = None
) -> ReportDocument:
    return ReportDocument(label=label, assessment=assessment, source=source)


def render_json(doc: ReportDocument) -> str:
    """Serialize the report; floats keep full precision and round-trip exactly."""
    return json.dumps(doc.to_dict(), indent=2, allow_nan=False)


def _g(x) -> str:
    """Six-significant-digit rendering; placeholders for absent values."""
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


def render_text(doc: ReportDocument) -> str:
    a = doc.assessment
    s = a.summary
    t = a.followup_test
    cfg = a.config
    bar = "=" * 72
    lines: list[str] = []
    lines.append(f"cure-model appropriateness report - {doc.label}")
    lines.append(f"curecheck {__version__}")
    lines.append(bar)
    lines.append("")
    lines.append("Step 1 - Clinical judgment")
    for row in _CLINICAL_BANNER.splitlines():
        lines.append(f"  {row}")
    lines.append("")
    lines.append("Step 2 - Visual and nonparametric evidence")
    lines.append(
        f"  records {s.n} ({s.n_events} events, {s.n - s.n_events} censored), "
        f"median follow-up {_g(s.median_followup)}, max {_g(s.max_followup)}"
    )
    lines.append(
        f"  survival at last observation {_g(s.km_at_max)} "
        f"(nonparametric cure-fraction estimate)"
    )
    lines.append(
        f"  plateau length {_g(s.plateau_length)}; late event rate "
        f"{_g(s.late_event_rate)} per unit time over the trailing {_g(s.late_window)}"
    )
    state = "sufficient" if t.sufficient_followup else "insufficient"
    lines.append(
        f"  follow-up test: alpha_n = {_g(t.alpha_n)} "
        f"(N_n = {t.n_n} of n = {t.n}, threshold {_g(t.threshold)}) -> {state}"
    )
    lines.append("")
    lines.append("Step 3 - Model-based assessment")
    lines.append(f"  {'model':<24}{'k':>3}{'AIC':>14}{'loglik':>14}  converged")
    for row in a.model_table:
        fit = row.fit
        aic, ll = (None, None) if fit is None else (fit.aic, fit.log_likelihood)
        lines.append(
            f"  {row.spec.label:<24}{row.spec.n_params:>3}{_g(aic):>14}{_g(ll):>14}  "
            f"{'yes' if fit is not None and fit.converged else 'no'}"
        )
    sel = a.selected
    lines.append(f"  selected by AIC: {sel.spec.label}")
    pieces = ", ".join(f"{k} = {_g(v)}" for k, v in sel.param_dict.items())
    lines.append(f"    {pieces}")
    dv = a.deviance_test
    if dv.deviance is not None:
        lines.append(
            f"  cure-vs-non-cure deviance ({dv.family}): d = {_g(dv.deviance)}, "
            f"p = {_g(dv.deviance_p_value)}"
        )
    lines.append(
        f"  at tau = {_g(a.tau)}: S0(tau) = {_g(a.s0_at_tau)}, "
        f"S(tau) = {_g(a.s_at_tau)}, uncured-among-survivors r = {_g(a.r_hat)}"
    )
    lines.append(
        f"  checks: cure fraction {_g(a.cure_fraction)} > "
        f"{_g(cfg.cure_fraction_threshold)}: {_g(a.cure_fraction_pass)}; "
        f"r {_g(a.r_hat)} < {_g(cfg.r_threshold)}: {_g(a.r_pass)}"
    )
    lines.append("")
    lines.append(bar)
    ok = "a cure model is appropriate" if a.verdict == VERDICT_APPROPRIATE else (
        "a cure model is NOT appropriate"
    )
    lines.append(f"Verdict: {a.verdict} ({ok})")
    for note in a.notes:
        lines.append(f"  note: {note}")
    lines.append("")
    return "\n".join(lines)


def report_schema() -> dict:
    """The JSON schema the ``render_json`` output conforms to."""
    text = resources.files("curecheck").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)
