"""Special functions used by the model and simulation code.

Keeps the package free of heavy numeric dependencies: numpy and the standard
library are the whole runtime.  It exposes log-gamma and erfc, both the C
library's through ``math``, with the normal CDF and tails built on erfc, the
chi-square(1) tail, P(a, x) and log Q(a, x) of the regularized incomplete
gamma (one series / continued fraction split), and the gamma and normal
quantiles, which one vectorized solver inverts at once.

Accuracy: erfc and log_gamma are good to about 1 ulp, as the platform's
``math.erfc`` and ``math.lgamma`` are; the incomplete gamma iterates to
machine tolerance with a documented target of 1e-12 relative, and so do its
derivatives in the shape, which the gamma fits use; gamma quantiles are
solved to 1e-10 relative.  The test suite checks all of them against scipy
and brute-force quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_LOG_2SQRTPI = math.log(2.0 * math.sqrt(math.pi))


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    try:
        return math.lgamma(x)
    except OverflowError:  # x beyond ~2.5e305
        return math.inf


def erfc(x):
    """Complementary error function, scalar or ndarray; NaN gives NaN."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        return math.erfc(float(a))
    return np.fromiter(map(math.erfc, a.ravel().tolist()), float, a.size).reshape(a.shape)


def normal_cdf(z):
    """Standard normal CDF Phi(z)."""
    return 0.5 * erfc(-np.asarray(z, dtype=float) / _SQRT2)


def normal_sf(z):
    """Standard normal survival function 1 - Phi(z)."""
    return 0.5 * erfc(np.asarray(z, dtype=float) / _SQRT2)


def log_normal_sf(z):
    """log(1 - Phi(z)) on a 1-D array, finite far into the upper tail.

    Up to y = z / sqrt(2) = 26, erfc(y) >= 1e-296 is still a normal float and
    its log is taken.  Beyond, the asymptotic series
    erfc(y) = exp(-y^2) / (y sqrt(pi)) (1 - w + 3 w^2 - 15 w^3 + ...),
    w = 1 / (2 y^2) <= 7.4e-4, is summed in log space through the w^6 term;
    the first omitted term is below 2e-17.
    """
    z = np.asarray(z, dtype=float)
    y = z / _SQRT2
    far = y > 26.0
    out = np.empty_like(z)
    out[~far] = np.log(normal_sf(z[~far]))
    yf = y[far]
    w = 0.5 / (yf * yf)
    series = 1.0
    for k in (11.0, 9.0, 7.0, 5.0, 3.0, 1.0):  # Horner: 1 - w (1 - 3 w (1 - 5 w (...)))
        series = 1.0 - k * w * series
    out[far] = -yf * yf - np.log(yf) - _LOG_2SQRTPI + np.log(series)
    return out


_MAX_INC_GAMMA_ITER = 600


def _digamma_trigamma(a: float) -> tuple[float, float]:
    """(psi(a), psi'(a)) for a > 0: the recurrence up to a >= 10, then the
    asymptotic series through the x^-12 and x^-13 terms (~1e-15 relative)."""
    psi = psi1 = 0.0
    while a < 10.0:
        psi -= 1.0 / a
        psi1 += 1.0 / (a * a)
        a += 1.0
    f = 1.0 / (a * a)
    psi += math.log(a) - 0.5 / a - f * (
        1.0 / 12 - f * (1.0 / 120 - f * (1.0 / 252 - f * (1.0 / 240 - f * (1.0 / 132 - f * 691.0 / 32760))))
    )
    psi1 += 1.0 / a + 0.5 * f + f / a * (
        1.0 / 6 - f * (1.0 / 30 - f * (1.0 / 42 - f * (1.0 / 30 - f * (5.0 / 66 - f * 691.0 / 2730))))
    )
    return psi, psi1


class _Window:
    """The window [lo, hi) of elements an incomplete-gamma loop still iterates.

    ``_Window(*work)`` follows the loop's working arrays.  ``retire(done)``
    takes the convergence test over the window: it copies an element's
    working values out the first time the element converges, then narrows
    the window to the first and last element not yet converged, and returns
    False once none is left.  Converged elements inside the window keep
    iterating, but nothing reads them again.
    """

    def __init__(self, *work: np.ndarray):
        self.work = work
        self.copied = [np.empty_like(w) for w in work]
        self.lo, self.hi = 0, work[0].size
        self.converged = np.zeros(work[0].size, dtype=bool)

    def retire(self, done: np.ndarray) -> bool:
        lo, hi = self.lo, self.hi
        seen = self.converged[lo:hi]
        fresh = done > seen
        if not np.count_nonzero(fresh):
            return True
        for out, w in zip(self.copied, self.work):
            np.copyto(out[lo:hi], w[lo:hi], where=fresh)
        seen |= fresh
        if seen[0] or seen[-1]:
            (live,) = (~seen).nonzero()
            if not live.size:
                return False
            self.lo, self.hi = lo + int(live[0]), lo + int(live[-1]) + 1
        return True

    def results(self) -> list[np.ndarray]:
        """Each working array at each element's first convergence; an element
        the iteration cap stopped keeps its last values."""
        for out, w in zip(self.copied, self.work):
            np.copyto(out, w, where=~self.converged)
        return self.copied


def _inc_gamma(a: float, x: np.ndarray, shape_derivatives: bool = False):
    """The series and continued-fraction pieces of the incomplete gamma pair.

    For scalar a > 0 and array x >= 0 returns (x, ser, cfm, log_pref, s):
    with log_pref = -x + a log x - log Gamma(a), P(a, x) = exp(log_pref) * s
    where ``ser`` (0 < x < a + 1, series expansion) and Q(a, x) =
    exp(log_pref) * s where ``cfm`` (x >= a + 1, Lentz continued fraction);
    x = 0 is in neither.  Both are iterated to machine tolerance (capped at
    600 terms).

    With ``shape_derivatives`` it also returns (d1, d2), the first and second
    derivatives in a of log s, carried through the same loops (forward-mode,
    as in Moore's AS 187): the series terms x^n / (a (a+1) ... (a+n)) and
    the Lentz factors are differentiated as they are formed.

    Elements converge at very different speeds, slowest near x ~ a.  Each
    loop updates a ``_Window`` of its elements in place, through slices:
    the span from the first to the last element not yet converged.  An
    element's outputs are copied out at its first convergence, so it ends
    on the same values as if it had stopped there.  On sorted x (censoring
    times come from ``np.unique``) the series' unconverged elements are a
    suffix and the continued fraction's lie in a prefix, so few converged
    elements ride along.
    """
    if not (a > 0.0) or not math.isfinite(a):
        raise DomainError(f"incomplete gamma requires a > 0, got {a!r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise DomainError("incomplete gamma requires x >= 0")
    log_pref = np.zeros_like(x)
    s = np.zeros_like(x)
    d1 = np.zeros_like(x)
    d2 = np.zeros_like(x)
    lg = log_gamma(a)
    nonzero = x > 0.0
    ser = nonzero & (x < a + 1.0)
    if ser.any():
        xs = x[ser]
        term = np.full_like(xs, 1.0 / a)
        total = term.copy()
        if shape_derivatives:
            # d term_n / da = -term_n H_n and d2 = term_n (H_n^2 + G_n), with
            # H_n, G_n the sums of 1/(a+j) and 1/(a+j)^2 over j <= n.
            hn, gn = 1.0 / a, 1.0 / (a * a)
            s1, s2 = -term * hn, term * (hn * hn + gn)
            win = _Window(total, s1, s2)
        else:
            win = _Window(total)
        ak = a
        for _ in range(_MAX_INC_GAMMA_ITER):
            lo, hi = win.lo, win.hi
            ak += 1.0
            tw, totw = term[lo:hi], total[lo:hi]
            tw *= xs[lo:hi] / ak
            totw += tw
            if shape_derivatives:
                hn += 1.0 / ak
                gn += 1.0 / (ak * ak)
                s1[lo:hi] -= tw * hn
                s2[lo:hi] += tw * (hn * hn + gn)
            if not win.retire(np.abs(tw) <= np.abs(totw) * 1e-16):
                break
        total, *sums = win.results()
        log_pref[ser] = -xs + a * np.log(xs) - lg
        s[ser] = total
        if shape_derivatives:
            d1[ser] = sums[0] / total
            d2[ser] = sums[1] / total - d1[ser] ** 2
    cfm = nonzero & ~ser
    if cfm.any():
        xc = x[cfm]
        tiny = 1e-300
        b = xc + 1.0 - a
        c = np.full_like(xc, 1.0 / tiny)
        d = 1.0 / b
        h = d.copy()
        if shape_derivatives:
            # Derivatives in a of d and c (db/da = -1, d an/da = i) and of
            # log h, the sum of log(c d) over the Lentz steps.  h stops
            # changing once its step is 1 to machine precision, as without
            # derivatives; the derivative sums may need more steps.
            e1, e2 = d * d, 2.0 * d**3
            c1, c2 = np.zeros_like(xc), np.zeros_like(xc)
            l1, l2 = d.copy(), d * d
            settled = np.zeros(xc.size, dtype=bool)
            win = _Window(h, l1, l2)
        else:
            win = _Window(h)
        for i in range(1, _MAX_INC_GAMMA_ITER):
            lo, hi = win.lo, win.hi
            an = -i * (i - a)
            bw, dw, cw = b[lo:hi], d[lo:hi], c[lo:hi]
            bw += 2.0
            da = an * dw + bw
            da = np.where(np.abs(da) < tiny, tiny, da)
            ca = bw + an / cw
            ca = np.where(np.abs(ca) < tiny, tiny, ca)
            da = 1.0 / da
            delta = da * ca
            if shape_derivatives:
                e1w, e2w, c1w, c2w = e1[lo:hi], e2[lo:hi], c1[lo:hi], c2[lo:hi]
                r1, r2 = c1w / cw, c2w / cw
                u1 = i * dw + an * e1w - 1.0  # derivatives of 1 / da
                u2 = 2.0 * i * e1w + an * e2w
                ca1 = -1.0 + (i - an * r1) / cw
                ca2 = (-2.0 * i * r1 + an * (2.0 * r1 * r1 - r2)) / cw
                p_d, p_c = -da * u1, ca1 / ca
                step = p_d + p_c
                l1w = l1[lo:hi]
                l1w += step
                l2[lo:hi] += p_d * p_d - da * u2 + ca2 / ca - p_c * p_c
                e1w[:], e2w[:] = p_d * da, da * da * (2.0 * da * u1 * u1 - u2)
                c1w[:], c2w[:] = ca1, ca2
                sw = settled[lo:hi]
                h[lo:hi] *= np.where(sw, 1.0, delta)
                sw |= np.abs(delta - 1.0) <= 1e-16
                # At integer a the fraction ends (an = 0) but its derivative does not.
                done = sw & (np.abs(step) <= 1e-16 * (1.0 + np.abs(l1w)))
            else:
                h[lo:hi] *= delta
                done = np.abs(delta - 1.0) <= 1e-16
            dw[:] = da
            cw[:] = ca
            if not win.retire(done):
                break
        h, *logs = win.results()
        log_pref[cfm] = -xc + a * np.log(xc) - lg
        s[cfm] = h
        if shape_derivatives:
            d1[cfm], d2[cfm] = logs
    if shape_derivatives:
        return x, ser, cfm, log_pref, s, (d1, d2)
    return x, ser, cfm, log_pref, s


def _log_q(ser: np.ndarray, cfm: np.ndarray, log_pref: np.ndarray, s: np.ndarray):
    """log Q(a, x) from ``_inc_gamma``'s pieces, and P on the series branch."""
    out = np.zeros_like(s)
    with np.errstate(under="ignore"):
        p = np.exp(log_pref[ser]) * s[ser]
    out[ser] = np.log1p(-p)
    out[cfm] = log_pref[cfm] + np.log(s[cfm])
    return out, p


def reg_lower_gamma(a: float, x):
    """Regularized lower incomplete gamma P(a, x), scalar or ndarray x."""
    scalar = np.ndim(x) == 0
    x, ser, cfm, log_pref, s = _inc_gamma(a, x)
    p = np.zeros_like(x)
    with np.errstate(under="ignore"):
        p[ser] = np.exp(log_pref[ser]) * s[ser]
        p[cfm] = 1.0 - np.exp(log_pref[cfm]) * s[cfm]
    return float(p[0]) if scalar else p


def log_reg_upper_gamma(a: float, x):
    """log Q(a, x), Q = 1 - P, finite wherever Q itself underflows."""
    scalar = np.ndim(x) == 0
    _, ser, cfm, log_pref, s = _inc_gamma(a, x)
    out, _ = _log_q(ser, cfm, log_pref, s)
    return float(out[0]) if scalar else out


def _log_reg_upper_gamma_shape(a: float, x: np.ndarray):
    """log Q(a, x) on a 1-D array with its first and second derivatives in a.

    Where Q is a continued fraction they are those of log_pref + log s;
    on the series branch those of log P turn into log Q's through Q = 1 - P.
    """
    x, ser, cfm, log_pref, s, (d1, d2) = _inc_gamma(a, x, shape_derivatives=True)
    psi, psi1 = _digamma_trigamma(a)
    nonzero = ser | cfm
    log_x = np.log(np.where(nonzero, x, 1.0))
    g1 = np.where(nonzero, log_x - psi + d1, 0.0)
    g2 = np.where(nonzero, d2 - psi1, 0.0)
    out, p = _log_q(ser, cfm, log_pref, s)
    p_over_q = p / np.exp(out[ser])
    q1 = -p_over_q * g1[ser]
    g2[ser] = -p_over_q * (g2[ser] + g1[ser] ** 2) - q1 * q1
    g1[ser] = q1
    return out, g1, g2


_SOLVE_MAX_STEPS = 100
_GAMMA_LOG_XTOL = 1e-10  # on log x, so relative on x
_NORMAL_XTOL = 1e-13
_E_RATIO = math.e / (math.e - 1.0)  # from log(x / a) <= x / (e a)
_LOG_MIN_FLOAT = math.log(5e-324)


def _solve_increasing(F, dF, u, lo, hi, tol):
    """Roots x of F(x) = u for an increasing F, elementwise on a 1-D array u.

    Newton steps from the middle of each bracket (lo, hi); as in Numerical
    Recipes' rtsafe, a step that leaves the current bracket, or is more than
    half the step before last, becomes a bisection.  F and dF only see the
    elements whose last step was larger than ``tol``.
    """
    lo, hi = np.full(u.shape, lo), np.full(u.shape, hi)
    x, step = 0.5 * (lo + hi), hi - lo
    prev = step.copy()
    active = np.arange(u.size)
    for _ in range(_SOLVE_MAX_STEPS):
        xa = x[active]
        f = F(xa) - u[active]
        lo[active] = la = np.where(f < 0.0, xa, lo[active])
        hi[active] = ha = np.where(f > 0.0, xa, hi[active])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = f / dF(xa)
        xn = xa - newton
        ok = (la <= xn) & (xn <= ha) & (np.abs(newton) <= 0.5 * prev[active])
        x[active] = xn = np.where(ok, xn, 0.5 * (la + ha))
        prev[active], step[active] = step[active], np.abs(xn - xa)
        active = active[~(step[active] <= tol)]
        if not active.size:
            break
    return x


def inv_reg_lower_gamma(a: float, u):
    """Solve P(a, x) = u for x, scalar or ndarray u in [0, 1); u = 0 gives 0.

    Solved on log(x) to 1e-10 relative, as the root can span hundreds of
    orders of magnitude, in the bracket from P(a, x) <= x^a / Gamma(a + 1) and
    the Chernoff bound 1 - P(a, x) <= exp(a - x) (x / a)^a.  A root below the
    smallest positive float gives 0.
    """
    uu = np.asarray(u, dtype=float)
    if not np.all((uu >= 0.0) & (uu < 1.0)):
        raise DomainError(f"inv_reg_lower_gamma requires 0 <= u < 1, got {u!r}")
    lg, pos = log_gamma(a), uu > 0.0
    up = uu[pos]
    lo, hi = (np.log(up) + lg + math.log(a)) / a, np.log((a - np.log1p(-up)) * _E_RATIO)
    y = _solve_increasing(
        lambda y: reg_lower_gamma(a, np.exp(y)),
        lambda y: np.exp(a * y - np.exp(y) - lg),  # dP/d(log x) = x * pdf(x)
        up, lo, hi, _GAMMA_LOG_XTOL,
    )
    x = np.zeros(uu.shape)
    x[pos] = np.where(y < _LOG_MIN_FLOAT, 0.0, np.exp(y))
    return float(x) if x.ndim == 0 else x


def inv_normal_cdf(u):
    """Standard normal quantile, scalar or ndarray u in (0, 1), solved on Phi over [-40, 40]."""
    uu = np.asarray(u, dtype=float)
    if not np.all((uu > 0.0) & (uu < 1.0)):
        raise DomainError(f"inv_normal_cdf requires 0 < u < 1, got {u!r}")
    z = _solve_increasing(
        normal_cdf, lambda z: np.exp(-0.5 * z * z) / _SQRT2PI, uu.ravel(), -40.0, 40.0, _NORMAL_XTOL
    )
    return float(z[0]) if uu.ndim == 0 else z.reshape(uu.shape)


def chi2_sf_1df(d: float) -> float:
    """Upper tail P(X >= d) for a chi-square with one degree of freedom."""
    if not d >= 0.0:
        raise DomainError(f"chi-square statistic must be >= 0, got {d!r}")
    return erfc(math.sqrt(0.5 * d))
