"""Kaplan-Meier curve export: step-coordinate CSV and a hand-built SVG.

Both renderings are pure functions of the curve — equal curves give
byte-identical output — so they are safe to diff and to snapshot in
tests.  The SVG is a right-continuous step polyline with axes, tick
labels and one small vertical stroke per censored observation.
"""

from __future__ import annotations

import io
import math
import sys
from contextlib import nullcontext

import numpy as np

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
_TITLE = "Kaplan-Meier estimate"


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


def km_plot_svg(curve: KaplanMeierCurve) -> str:
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
        f'font-size="13" text-anchor="middle">{_TITLE}</text>'
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
    # the step polyline, with a "V" wherever the survival changes
    times = np.array([s.time for s in curve.steps], dtype=float)
    survival = np.array([s.survival for s in curve.steps], dtype=float)
    level = np.concatenate([[1.0], survival])  # level[i]: the curve after i steps
    d = [f"M {_fmt(sx(0.0))} {_fmt(sy(1.0))}"]
    d += [
        f"H {x:.2f} V {y:.2f}" if changed else f"H {x:.2f}"
        for x, y, changed in zip(
            sx(times).tolist(), sy(survival).tolist(), (survival != level[:-1]).tolist()
        )
    ]
    if not curve.steps or curve.steps[-1].time < x_max:
        d.append(f"H {_fmt(sx(x_max))}")
    out.append(
        f'<path d="{" ".join(d)}" fill="none" stroke="{_LINE_COLOR}" stroke-width="1.8"/>'
    )
    # censor marks, each at the curve's right-continuous value (1 before the first step)
    censor = np.array(curve.censor_times, dtype=float)
    y = sy(level[np.searchsorted(times, censor, side="right")])
    out += [
        f'<line x1="{x:.2f}" y1="{y - 4:.2f}" x2="{x:.2f}" '
        f'y2="{y + 4:.2f}" stroke="{_TICK_COLOR}" stroke-width="1.4"/>'
        for x, y in zip(sx(censor).tolist(), y.tolist())
    ]
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_km_plot(curve: KaplanMeierCurve, path: str | None, format: str = "svg") -> None:
    """Write the curve to ``path`` (stdout when None) as ``svg`` or step-coordinate ``csv``."""
    render = {"svg": km_plot_svg, "csv": km_plot_csv}.get(format)
    if render is None:
        raise DomainError(f"unknown plot format {format!r}; expected 'svg' or 'csv'")
    with open(path, "w", newline="") if path is not None else nullcontext(sys.stdout) as fh:
        fh.write(render(curve))
