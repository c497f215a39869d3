"""Nelder-Mead simplex minimizer.

Plain downhill simplex with the classic coefficients (reflect 1.0,
expand 2.0, contract 0.5, shrink 0.5). Convergence is declared when the
spread of objective values across the simplex drops below an absolute
tolerance; restarts and polishing passes are the caller's business.
Works for any dimension >= 1. Non-finite objective values are treated
as +inf so the simplex backs away from bad regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    fx: float
    n_iter: int
    n_eval: int
    converged: bool


def _clean(v: float) -> float:
    return v if math.isfinite(v) else math.inf


def minimize_simplex(
    f: Callable[[np.ndarray], float],
    x0,
    step=0.25,
    ftol: float = 1e-9,
    max_iter: int = 5000,
) -> SimplexResult:
    """Minimize ``f`` from ``x0``.

    ``step`` (scalar or per-coordinate) sets the initial simplex edge
    lengths. ``ftol`` is the absolute objective-spread tolerance.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    step = np.broadcast_to(np.asarray(step, dtype=float), (dim,))
    verts = np.empty((dim + 1, dim))
    verts[0] = x0
    for i in range(dim):
        verts[i + 1] = x0
        verts[i + 1, i] += step[i] if step[i] != 0.0 else 0.1
    fvals = np.array([_clean(f(v)) for v in verts])
    n_eval = dim + 1
    n_iter = 0
    converged = False

    while n_iter < max_iter:
        order = np.argsort(fvals, kind="stable")
        verts = verts[order]
        fvals = fvals[order]
        spread = fvals[-1] - fvals[0]
        if math.isfinite(spread) and spread <= ftol:
            converged = True
            break
        n_iter += 1
        centroid = verts[:-1].mean(axis=0)
        worst = verts[-1]
        refl = centroid + (centroid - worst)
        f_refl = _clean(f(refl))
        n_eval += 1
        if f_refl < fvals[0]:
            expd = centroid + 2.0 * (centroid - worst)
            f_expd = _clean(f(expd))
            n_eval += 1
            if f_expd < f_refl:
                verts[-1], fvals[-1] = expd, f_expd
            else:
                verts[-1], fvals[-1] = refl, f_refl
        elif f_refl < fvals[-2]:
            verts[-1], fvals[-1] = refl, f_refl
        else:
            if f_refl < fvals[-1]:
                # outside contraction
                cand = centroid + 0.5 * (centroid - worst)
            else:
                # inside contraction
                cand = centroid - 0.5 * (centroid - worst)
            f_cand = _clean(f(cand))
            n_eval += 1
            if f_cand < min(f_refl, fvals[-1]):
                verts[-1], fvals[-1] = cand, f_cand
            else:
                # shrink toward the best vertex
                for i in range(1, dim + 1):
                    verts[i] = verts[0] + 0.5 * (verts[i] - verts[0])
                    fvals[i] = _clean(f(verts[i]))
                n_eval += dim

    best = int(np.argmin(fvals))
    return SimplexResult(
        x=verts[best].copy(),
        fx=float(fvals[best]),
        n_iter=n_iter,
        n_eval=n_eval,
        converged=converged,
    )
