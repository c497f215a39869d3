"""Kaplan-Meier curve export: step-coordinate CSV and a hand-built SVG.

Both renderings are pure functions of the curve — equal curves give
byte-identical output — so they are safe to diff and to snapshot in
tests.  The SVG is a right-continuous step polyline with axes, tick
labels and one small vertical stroke per censored observation.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right

from .errors import DomainError
from .survival import KaplanMeierCurve

_WIDTH = 640.0
_HEIGHT = 420.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 62.0, 18.0, 20.0, 48.0
_PLOT_W = _WIDTH - _LEFT - _RIGHT
_PLOT_H = _HEIGHT - _TOP - _BOTTOM

_LINE_COLOR = "#33658a"
_TICK_COLOR = "#86bbd8"
_AXIS_COLOR = "#222222"


def km_plot_csv(curve: KaplanMeierCurve) -> str:
    """Step coordinates, one row per event-time step plus the t=0 anchor."""
    buf = io.StringIO()
    buf.write("time,survival,n_at_risk,n_events\r\n")
    buf.write(f"0.0,1.0,{curve.n_total},0\r\n")
    for s in curve.steps:
        buf.write(f"{s.time!r},{s.survival!r},{s.n_at_risk},{s.n_events}\r\n")
    return buf.getvalue()


def _nice_step(span: float, target: int = 5) -> float:
    """A 1/2/5-series tick step giving roughly ``target`` ticks over span."""
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


def km_plot_svg(curve: KaplanMeierCurve, label: str = "Kaplan-Meier estimate") -> str:
    """The curve as a standalone SVG document (deterministic for equal input)."""
    last_step = curve.steps[-1].time if curve.steps else 0.0
    last_censor = max(curve.censor_times) if curve.censor_times else 0.0
    x_max = max(last_step, last_censor)
    if x_max <= 0.0:
        x_max = 1.0

    def sx(t: float) -> float:
        return _LEFT + _PLOT_W * (t / x_max)

    def sy(p: float) -> float:
        return _TOP + _PLOT_H * (1.0 - p)

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">'
    )
    out.append(f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="#ffffff"/>')
    out.append(
        f'<text x="{_LEFT + _PLOT_W / 2:.1f}" y="14" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{label}</text>'
    )
    # axes
    out.append(
        f'<path d="M {_fmt(_LEFT)} {_fmt(_TOP)} V {_fmt(_TOP + _PLOT_H)} '
        f'H {_fmt(_LEFT + _PLOT_W)}" fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    )
    # y ticks at 0, 0.25, ..., 1
    for i in range(5):
        p = i / 4.0
        y = sy(p)
        out.append(
            f'<line x1="{_fmt(_LEFT - 4)}" y1="{_fmt(y)}" x2="{_fmt(_LEFT)}" '
            f'y2="{_fmt(y)}" stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(_LEFT - 8)}" y="{_fmt(y + 3.5)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_fmt_tick(p)}</text>'
        )
    # x ticks on a 1/2/5 grid
    xstep = _nice_step(x_max)
    tick = 0.0
    while tick <= x_max * (1.0 + 1e-9):
        x = sx(min(tick, x_max))
        y0 = _TOP + _PLOT_H
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y0)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(y0 + 4)}" stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y0 + 17)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_fmt_tick(tick)}</text>'
        )
        tick += xstep
    out.append(
        f'<text x="{_fmt(_LEFT + _PLOT_W / 2)}" y="{_fmt(_HEIGHT - 10)}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">time</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt(_TOP + _PLOT_H / 2)}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(_TOP + _PLOT_H / 2)})">survival</text>'
    )
    # the step polyline
    d = [f"M {_fmt(sx(0.0))} {_fmt(sy(1.0))}"]
    prev = 1.0
    for s in curve.steps:
        d.append(f"H {_fmt(sx(s.time))}")
        if s.survival != prev:
            d.append(f"V {_fmt(sy(s.survival))}")
            prev = s.survival
    if not curve.steps or curve.steps[-1].time < x_max:
        d.append(f"H {_fmt(sx(x_max))}")
    out.append(
        f'<path d="{" ".join(d)}" fill="none" stroke="{_LINE_COLOR}" stroke-width="1.8"/>'
    )
    # censor marks, each at the curve's right-continuous value (1 before the first step)
    step_times = [s.time for s in curve.steps]
    for t in curve.censor_times:
        i = bisect_right(step_times, t)
        x = sx(t)
        y = sy(curve.steps[i - 1].survival if i else 1.0)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y - 4)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(y + 4)}" stroke="{_TICK_COLOR}" stroke-width="1.4"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_km_plot(curve: KaplanMeierCurve, path: str, format: str = "svg") -> None:
    """Write the curve to ``path`` as ``svg`` or step-coordinate ``csv``."""
    if format == "svg":
        content = km_plot_svg(curve)
    elif format == "csv":
        content = km_plot_csv(curve)
    else:
        raise DomainError(f"unknown plot format {format!r}; expected 'svg' or 'csv'")
    with open(path, "w", newline="") as fh:
        fh.write(content)
