"""Kaplan-Meier curve export: step-coordinate CSV and a hand-built SVG.

Both renderings are pure functions of the curve — equal curves give
byte-identical output — so they are safe to diff and to snapshot in
tests.  The SVG is a right-continuous step polyline with axes, tick
labels and one small vertical stroke per censored observation.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext

import numpy as np

from .errors import DomainError
from .survival import KaplanMeierCurve, _rows

_WIDTH = 640.0
_HEIGHT = 420.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 62.0, 18.0, 20.0, 48.0
_PLOT_W = _WIDTH - _LEFT - _RIGHT
_PLOT_H = _HEIGHT - _TOP - _BOTTOM
_Y0 = _TOP + _PLOT_H  # the time axis

_LINE_COLOR = "#33658a"
_TICK_COLOR = "#86bbd8"
_AXIS_COLOR = "#222222"
_TITLE = "Kaplan-Meier estimate"

# Repeated blocks, each filled in one pass by ``_rows`` (``'%.6g' % x`` is
# ``f'{x:.6g}'``, as ``'%.2f' % x`` is ``f'{x:.2f}'``).
_Y_TICK = (
    f'<line x1="{_LEFT - 4:.2f}" y1="%.2f" x2="{_LEFT:.2f}" y2="%.2f" '
    f'stroke="{_AXIS_COLOR}" stroke-width="1"/>\n'
    f'<text x="{_LEFT - 8:.2f}" y="%.2f" font-family="sans-serif" '
    f'font-size="11" text-anchor="end">%.6g</text>\n'
)
_X_TICK = (
    f'<line x1="%.2f" y1="{_Y0:.2f}" x2="%.2f" y2="{_Y0 + 4:.2f}" '
    f'stroke="{_AXIS_COLOR}" stroke-width="1"/>\n'
    f'<text x="%.2f" y="{_Y0 + 17:.2f}" font-family="sans-serif" '
    f'font-size="11" text-anchor="middle">%.6g</text>\n'
)
_CENSOR_MARK = (
    f'<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="{_TICK_COLOR}" stroke-width="1.4"/>\n'
)


def km_plot_csv(curve: KaplanMeierCurve) -> str:
    """Step coordinates, one row per event-time step plus the t=0 anchor."""
    return f"time,survival,n_at_risk,n_events\r\n0.0,1.0,{curve.n_total},0\r\n" + _rows(
        "%r,%r,%d,%d\r\n", curve.time, curve.survival, curve.n_at_risk, curve.n_events
    )


def _nice_step(span: float, target: int = 5) -> float:
    """A 1/2/5-series tick step giving roughly ``target`` ticks over span.

    A span so small that the step's power of ten underflows to zero
    (subnormal times) gets the span itself: ticks at the axis ends only.
    """
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    if mag == 0.0:
        return span
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def km_plot_svg(curve: KaplanMeierCurve) -> str:
    """The curve as a standalone SVG document (deterministic for equal input)."""
    times, survival, censor = curve.time, curve.survival, curve.censor_times
    last_step = float(times[-1]) if times.size else 0.0
    last_censor = float(censor.max()) if censor.size else 0.0
    x_max = max(last_step, last_censor)
    if x_max <= 0.0:
        x_max = 1.0

    def sx(t):
        return _LEFT + _PLOT_W * (t / x_max)

    def sy(p):
        return _TOP + _PLOT_H * (1.0 - p)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">\n'
        f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="#ffffff"/>\n'
        f'<text x="{_LEFT + _PLOT_W / 2:.1f}" y="14" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{_TITLE}</text>\n'
        f'<path d="M {_LEFT:.2f} {_TOP:.2f} V {_Y0:.2f} H {_LEFT + _PLOT_W:.2f}" '
        f'fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"/>\n'
    ]
    # y ticks at 0, 0.25, ..., 1
    p = np.arange(5) / 4.0
    y = sy(p)
    out.append(_rows(_Y_TICK, y, y, y + 3.5, p))
    # x ticks on a 1/2/5 grid, each step added to the last; counted up front,
    # since x_max * (1 + 1e-9) overflows to inf near the largest double
    xstep = _nice_step(x_max)
    n_ticks = math.floor(x_max / xstep * (1.0 + 1e-9)) + 1
    tick = np.concatenate(([0.0], np.full(n_ticks - 1, xstep))).cumsum()
    x = sx(np.minimum(tick, x_max))
    out.append(_rows(_X_TICK, x, x, x, tick))
    out.append(
        f'<text x="{_LEFT + _PLOT_W / 2:.2f}" y="{_HEIGHT - 10:.2f}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">time</text>\n'
        f'<text x="16" y="{_TOP + _PLOT_H / 2:.2f}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_TOP + _PLOT_H / 2:.2f})">survival</text>\n'
    )
    # the step polyline, with a "V" wherever the survival changes
    level = np.concatenate([[1.0], survival])  # level[i]: the curve after i steps
    changed = survival != level[:-1]
    d = [f"M {sx(0.0):.2f} {sy(1.0):.2f}"]
    if times.size:
        template = " ".join(np.where(changed, "H %.2f V %.2f", "H %.2f").tolist())
        # each step's x, then its y where the step changes the level
        xy = np.column_stack((sx(times), sy(survival)))
        cells = xy[np.column_stack((np.ones_like(changed), changed))]
        d.append(template % tuple(cells.tolist()))
    if not times.size or times[-1] < x_max:
        d.append(f"H {sx(x_max):.2f}")
    out.append(f'<path d="{" ".join(d)}" fill="none" stroke="{_LINE_COLOR}" stroke-width="1.8"/>\n')
    # censor marks, each at the curve's right-continuous value (1 before the first step)
    x, y = sx(censor), sy(level[np.searchsorted(times, censor, side="right")])
    out.append(_rows(_CENSOR_MARK, x, y - 4, x, y + 4))
    out.append("</svg>\n")
    return "".join(out)


def emit_km_plot(curve: KaplanMeierCurve, path: str | None, format: str = "svg") -> None:
    """Write the curve to ``path`` (stdout when None) as ``svg`` or step-coordinate ``csv``."""
    render = {"svg": km_plot_svg, "csv": km_plot_csv}.get(format)
    if render is None:
        raise DomainError(f"unknown plot format {format!r}; expected 'svg' or 'csv'")
    with open(path, "w", newline="") if path is not None else nullcontext(sys.stdout) as fh:
        fh.write(render(curve))
