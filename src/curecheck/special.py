"""Special functions used by the model and simulation code.

Keeps the package free of heavy numeric dependencies: numpy and the standard
library are the whole runtime.  It exposes log-gamma and erfc, both the C
library's through ``math``, the normal upper tail and its log built on
erfc, the chi-square(1) tail, the regularized incomplete gamma and the
gamma quantile; the normal quantile is ``statistics.NormalDist``'s.

P(a, x) comes from a series / continued fraction split, for shapes up to
1e5.  The gamma quantile inverts it with a vectorized Halley solver from a
close start: on log P from the series below u = 1/2, on -log Q from the
continued fraction (or 1 - P below x = a + 1) above; its loops and the solver
iterate only the elements not yet converged, so an element's value does
not depend on its batch.
log Q(a, x) and its first two derivatives in the shape a, the gamma
family's log S0 and its shape terms, come from the series of P where, at
the batch's largest x, it converges within 32 terms and leaves Q at least
0.03: one array of terms gives every element.  Any other batch takes one
Gauss-Legendre quadrature of t^(a-1) e^(-t) on the log scale: over the
gaps between the sorted x, summed from the right in one sweep that gives
every element of a batch.  The fits' x are already sorted and distinct
and go to that choice as they are; any other batch is sorted and
de-duplicated first, with the same bits.

Accuracy: erfc and log_gamma are good to about 1 ulp, as the platform's
``math.erfc`` and ``math.lgamma`` are; P iterates to machine tolerance; log Q
and its shape derivatives are good to about 1e-14, relative or absolute where
the value is below 1; gamma quantiles match scipy to about 3e-14 relative
into both tails for shapes 0.05 <= a <= 1e4 and to 1e-12 up to 1e5 (see
``inv_reg_lower_gamma``).  The test suite checks all of them against scipy
and brute-force quadrature.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
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


def normal_sf(z):
    """Standard normal survival function 1 - Phi(z)."""
    return 0.5 * erfc(np.asarray(z, dtype=float) / _SQRT2)


def log_normal_sf(z):
    """log(1 - Phi(z)) on a 1-D array, finite far into the upper tail.

    Up to y = z / sqrt(2) = 26, erfc(y) >= 1e-296 is still a normal float and
    its log is taken.  Beyond, the asymptotic series
    erfc(y) = exp(-y^2) / (y sqrt(pi)) (1 - w + 3 w^2 - 15 w^3 + ...),
    w = 1 / (2 y^2) <= 7.4e-4, is summed in log space through the w^6 term;
    the first omitted term is below 2e-17.  A batch with no y beyond 26
    skips the masks, with the same bits.
    """
    z = np.asarray(z, dtype=float)
    y = z / _SQRT2
    far = y > 26.0
    if not far.any():
        return np.log(normal_sf(z))
    out = np.empty_like(z)
    out[~far] = np.log(normal_sf(z[~far]))
    yf = y[far]
    w = 0.5 / (yf * yf)
    series = 1.0
    for k in (11.0, 9.0, 7.0, 5.0, 3.0, 1.0):  # Horner: 1 - w (1 - 3 w (1 - 5 w (...)))
        series = 1.0 - k * w * series
    out[far] = -yf * yf - np.log(yf) - _LOG_2SQRTPI + np.log(series)
    return out


_MAX_SERIES_SHAPE = 1e5  # the largest shape P and the gamma quantile are checked at


def _max_terms(a: float) -> int:
    """Terms the series or the fraction may take: near x = a the series' fall like e^(-k^2 / 2a)."""
    return max(600, math.ceil(12.0 * math.sqrt(a)))


def _digamma_trigamma(a: float) -> tuple[float, float]:
    """(psi(a), psi'(a)) for a > 0: the recurrence up to a >= 10, then the
    asymptotic series through the x^-12 and x^-13 terms (~1e-15 relative).
    Below a ~ 1e-162, a * a underflows; there psi(a) = -1/a to double
    precision and psi'(a) is infinite."""
    if a * a == 0.0:
        return -1.0 / a, math.inf
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


def _check_shape(a: float, largest: float = math.inf) -> None:
    if not (a > 0.0) or not math.isfinite(a):
        raise DomainError(f"incomplete gamma requires a > 0, got {a!r}")
    if a > largest:
        raise DomainError(f"P(a, x) and its inverse take shapes a <= {largest:g}, got {a!r}")


def _series(a: float, x: np.ndarray) -> np.ndarray:
    """The sum s with P(a, x) = x^a e^(-x) / Gamma(a) * s, on 1-D 0 <= x < a + 1."""
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    active, ak = np.arange(x.size), a
    for _ in range(_max_terms(a)):
        ak += 1.0
        term[active] = ta = term[active] * (x[active] / ak)
        total[active] = sa = total[active] + ta
        active = active[~(np.abs(ta) <= np.abs(sa) * 1e-16)]
        if not active.size:
            break
    return total


def _fraction(a: float, x: np.ndarray) -> np.ndarray:
    """The h with Q(a, x) = x^a e^(-x) / Gamma(a) * h, from the Lentz
    continued fraction, on 1-D x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    active = np.arange(x.size)
    for i in range(1, _max_terms(a)):
        an = -i * (i - a)
        b[active] = ba = b[active] + 2.0
        da = an * d[active] + ba
        da = np.where(np.abs(da) < tiny, tiny, da)
        ca = ba + an / c[active]
        c[active] = ca = np.where(np.abs(ca) < tiny, tiny, ca)
        d[active] = da = 1.0 / da
        delta = da * ca
        h[active] *= delta
        active = active[~(np.abs(delta - 1.0) <= 1e-16)]
        if not active.size:
            break
    return h


def reg_lower_gamma(a: float, x):
    """Regularized lower incomplete gamma P(a, x), scalar or ndarray x >= 0.

    With log_pref = -x + a log x - log Gamma(a), P(a, x) = exp(log_pref) * s
    from the series expansion (``_series``) where 0 < x < a + 1, and
    1 - exp(log_pref) * h from the Lentz continued fraction for Q
    (``_fraction``) where x >= a + 1; x = 0 gives 0, x = inf gives 1 and
    x = NaN gives NaN.  Both are iterated to machine tolerance, capped at
    max(600, 12 sqrt(a)) terms (``_max_terms``).  The rounding of
    log_pref grows like 1e-16 a log a, to 2e-10 in P at a = 1e5; larger
    shapes raise ``DomainError``.

    Elements converge at very different speeds, slowest near x ~ a.  Each
    loop iterates an index array of those not yet converged, so an element
    stops at its first convergence and does not depend on its batch.
    """
    _check_shape(a, _MAX_SERIES_SHAPE)
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise DomainError("incomplete gamma requires x >= 0")
    p = np.zeros_like(x)
    p[np.isnan(x)] = np.nan
    p[x == np.inf] = 1.0
    lg = log_gamma(a)
    nonzero = (x > 0.0) & (x < np.inf)
    ser = nonzero & (x < a + 1.0)
    with np.errstate(under="ignore"):
        if ser.any():
            xs = x[ser]
            p[ser] = np.exp(-xs + a * np.log(xs) - lg) * _series(a, xs)
        cfm = nonzero & ~ser
        if cfm.any():
            xc = x[cfm]
            p[cfm] = 1.0 - np.exp(-xc + a * np.log(xc) - lg) * _fraction(a, xc)
    return float(p[0]) if scalar else p


# log Q(a, x) by quadrature.  With u = log t, Gamma(a) Q(a, x) is the integral
# of f(u) = exp(a u - e^u) from log x to infinity.  log f is concave, with its
# maximum a log a - a at u = log a, and the three moments of f (u - c)^k,
# k = 0, 1, 2, over (log x, inf) give log Q and its first two derivatives
# in a.  On sorted x the integrals over the gaps between neighbours, summed
# from the right, give every element in one pass.
_GL_NODES = np.array([  # the 6-point Gauss-Legendre rule on [-1, 1]
    -0.9324695142031520278123016, -0.6612093864662645136613996, -0.2386191860831969086305017,
    0.2386191860831969086305017, 0.6612093864662645136613996, 0.9324695142031520278123016,
])
_GL_WEIGHTS = np.array([
    0.1713244923791703450402961, 0.3607615730481386075698335, 0.4679139345726910473898703,
    0.4679139345726910473898703, 0.3607615730481386075698335, 0.1713244923791703450402961,
])
_GL_AT, _GL_W = 0.5 * (1.0 + _GL_NODES), 0.5 * _GL_WEIGHTS  # the same rule on [0, 1]
_KEEP_NATS = 50.0  # each gap is integrated where log f is within this of its maximum
_PANEL_NATS = 0.9  # panel width times the local rate of change of log f
_PLAIN_SPAN = 600.0  # beyond this spread of gap maxima the sums run in log space


def _peak_minus_log_gamma(a: float) -> float:
    """a log a - a - log Gamma(a), from Stirling's series for a >= 10."""
    if a < 10.0:
        return a * math.log(a) - a - math.lgamma(a)
    f = 1.0 / (a * a)
    series = 1.0 / 12 - f * (
        1.0 / 360 - f * (1.0 / 1260 - f * (1.0 / 1680 - f * (1.0 / 1188 - f * (691.0 / 360360 - f / 156.0))))
    )
    return 0.5 * math.log(a / (2.0 * math.pi)) - series / a


def _left_reach(c: np.ndarray) -> np.ndarray:
    """A d >= 0 with phi(-d) >= c, phi(t) = e^t - 1 - t: phi(-d) >= d - 1,
    and phi(-d) >= d^2 / (2 e) for d <= 1."""
    two_ec = 2.0 * math.e * c
    return np.where(two_ec > 1.0, c + 1.0, np.sqrt(two_ec))


def _reverse_sums(M, dc, k):
    """P_i, T1_i, T2_i as rows: sums over gaps j >= i of the moments of
    f (u - c_i)^k, from the rows p, m1, m2 of M, each gap's moments about
    its own centre c_j, and the steps dc_j = c_{j+1} - c_j >= 0 between
    them from gap k on; the steps before gap k are 0, and the shifts skip
    them.  M is overwritten."""
    acc = np.empty_like(M)  # each row accumulated from the right end
    out = acc[:, ::-1]
    p, m1, m2 = M
    P, T1, T2 = out
    np.cumsum(p[::-1], out=acc[0])
    next_p = P[k + 1:]
    m1[k:-1] += dc * next_p
    np.cumsum(m1[::-1], out=acc[1])
    m2[k:-1] += dc * (2.0 * T1[k + 1:] + dc * next_p)
    np.cumsum(m2[::-1], out=acc[2])
    return out


def _log_reverse_sums(lM, ldc, k):
    """``_reverse_sums`` on the logs of its (here all >= 0) arguments."""
    acc = np.logaddexp.accumulate
    lp, lm1, lm2 = lM
    P = acc(lp[::-1])[::-1]
    lm1[k:-1] = np.logaddexp(lm1[k:-1], ldc + P[k + 1:])
    T1 = acc(lm1[::-1])[::-1]
    lm2[k:-1] = np.logaddexp(lm2[k:-1], np.logaddexp(math.log(2.0) + ldc + T1[k + 1:], 2.0 * ldc + P[k + 1:]))
    T2 = acc(lm2[::-1])[::-1]
    return np.array([P, T1, T2])


_INF = np.array([np.inf])


def _upper_gamma_quadrature(a: float, x: np.ndarray):
    """log Q(a, x) and its first two derivatives in a on sorted, distinct,
    finite x > 0.

    Gap j runs from u_j = log x_j to u_{j+1} (to infinity for the last).
    Each is split at u = log a, where f peaks, and clipped to where log f
    is within ``_KEEP_NATS`` of the gap's maximum; log f is concave, so
    that stretch is one interval, and its ends come from the tangent and
    curvature bounds of log f, which is a log a - a - a phi(u - log a).
    The stretch is cut into equal panels, at most ``_PANEL_NATS`` over the
    largest of 1, |a - e^u| and 2 e^(u/2) on it, each integrated with the
    6-point Gauss-Legendre rule in r = u - (the gap's maximum point).
    The gaps left of log a are the first ``split``; the one holding the
    peak, if any, is the last of them and has a part on either side.

    The moments of gap j are taken about c_j = max(u_j, log a), so the
    steps dc_j = c_{j+1} - c_j are 0 left of the peak, where the first
    moments are < 0; there the conditional mean and variance of u stay
    small, so T2 / P - (T1 / P)^2 does not cancel.  Then
    log Q = log P - log Gamma(a), d/da log Q = c_i + T1 / P - psi(a) and
    d2/da2 log Q = T2 / P - (T1 / P)^2 - psi'(a).

    One sweep of ``_reverse_sums`` from the right gives every sum, each
    gap scaled by its maximum of f over the peak's.  Past ``_PLAIN_SPAN``
    nats of spread in those maxima it runs in log space, where the
    negative first moments get a log-sum of their own.
    """
    m = x.size
    la = math.log(a)
    u = np.log(x)
    t = u - la
    split = int(t.searchsorted(0.0))
    g = np.concatenate((u[1:] - u[:-1], _INF))
    t_next = np.concatenate((t[1:], _INF))
    tm = np.minimum(np.maximum(t, 0.0), t_next)  # u - log a where each gap's log f peaks
    e_max = np.minimum(np.maximum(x, a), np.concatenate((x[1:], _INF)))  # e^u there
    # The first gap with a part right of log a: the one holding the peak, if any.
    k0 = split - 1 if split and t_next[split - 1] > 0.0 else split
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        em = e_max[k0:]
        slope = em - a  # -(log f)' at the maximum: >= 0 right of the peak, <= 0 left
        ts = np.maximum(tm[k0:], 0.0)
        # Right of the maximum log f falls by at least slope r + e_max r^2 / 2,
        # and phi(t) >= e^t / 2 for t >= 1.7.
        hyp = np.hypot(slope, math.sqrt(2.0 * _KEEP_NATS) * np.sqrt(em))
        reach = np.minimum(
            2.0 * _KEEP_NATS / hyp / (1.0 + slope / hyp),
            np.maximum(1.7, np.log(2.0 * (np.expm1(ts) - ts + _KEEP_NATS / a))) - ts,
        )
        r_hi = np.minimum(g[k0:], reach)
        if k0 < split:  # the peak's gap ends at the next x
            r_hi[0] = np.minimum(t_next[k0], reach[0])
        e_hi = em * np.exp(r_hi)
        rate_hi = np.maximum(np.maximum(1.0, e_hi - a), 2.0 * np.sqrt(e_hi))
        # Left of it log f falls by at least -slope d + e_max phi(-d).
        em = e_max[:split]
        reach = np.minimum(_KEEP_NATS / (a - em), _left_reach(_KEEP_NATS / em))
        r_lo = np.maximum(-g[:split], -reach)
        if k0 < split:  # the peak's gap starts at its own x
            r_lo[-1] = np.maximum(t[k0], -reach[-1])
        rate_lo = np.maximum(np.maximum(1.0, a - em * np.exp(r_lo)), 2.0 * np.sqrt(em))
        seg_lo = np.concatenate((r_lo, np.zeros(m - k0)))
        width = np.concatenate((-r_lo, r_hi))
        n = np.ceil(width * np.concatenate((rate_lo, rate_hi)) / _PANEL_NATS)
    if not np.isfinite(n).all():
        nan = np.full(m, np.nan)
        return nan, nan, nan.copy()
    n = np.maximum(n, 1.0).astype(np.intp)
    h = width / n
    seg_gap = np.concatenate((np.arange(split), np.arange(k0, m)))
    seg = np.repeat(np.arange(n.size), n)
    hp, gap = h[seg], seg_gap[seg]
    start = np.cumsum(n) - n
    # Node k of panel i sits at r[k, i], so every per-node operation runs
    # along rows as long as the panel count.
    r = (seg_lo[seg] + (np.arange(seg.size) - start[seg]) * hp) + _GL_AT[:, None] * hp
    y = np.empty((3,) + r.shape)  # f, f q, f q^2 at every node, q = u - c_j
    f, fq, fqq = y
    np.exp(a * r - e_max[gap] * np.expm1(r), out=f)
    q = r + np.minimum(tm, 0.0)[gap]
    np.multiply(f, q, out=fq)
    np.multiply(fq, q, out=fqq)
    rows = (gap + np.array([[0], [m], [2 * m]])).ravel()
    M = np.bincount(rows, ((_GL_W @ y) * hp).ravel(), 3 * m).reshape(3, m)  # p, m1, m2 per gap

    # Sums from the right over every gap.  Gap j's maximum of log f, less
    # the peak's a log a - a, is -a phi(tm); from tm = 1 on, where e^tm might
    # overflow, a (1 + tm) - e_max.
    c = np.maximum(u, la)  # each gap's centre: the steps dc between them are 0 left of the peak
    near = np.minimum(tm, 1.0)
    gr = np.where(tm < 1.0, a * (near - np.expm1(near)), a * (1.0 + tm) - e_max)
    top = gr.max()
    dc = np.diff(c[k0:])  # the steps from the first gap right of log a on; 0 before it
    if top - gr.min() < _PLAIN_SPAN:
        P, T1, T2 = _reverse_sums(M * np.exp(gr - top), dc, k0)
        lp, r1, r2 = np.log(P) + top, T1 / P, T2 / P
    else:
        # First moments left of the peak are < 0: they get a log-sum of their
        # own, which T2 never reads, since dc = 0 there.
        with np.errstate(divide="ignore"):
            neg = np.logaddexp.accumulate((np.log(np.maximum(-M[1], 0.0)) + gr)[::-1])[::-1]
            M[1] = np.maximum(M[1], 0.0)
            lp, l1, l2 = _log_reverse_sums(np.log(M) + gr, np.log(dc), k0)
        r1, r2 = np.exp(l1 - lp) - np.exp(neg - lp), np.exp(l2 - lp)
    psi, psi1 = _digamma_trigamma(a)
    # Where Q ~ 1 the sum of two O(1) terms can round above 0; Q <= 1.
    lq = np.minimum(lp + _peak_minus_log_gamma(a), 0.0)
    return lq, c + r1 - psi, r2 - r1 * r1 - psi1


# log Q(a, x) from the series of P where it converges fast: with
# t_k = x^k / ((a+1)...(a+k)), P(a, x) = x^a e^(-x) / Gamma(a + 1) * sum t_k.
_SERIES_MAX_TERMS = 32  # past this many terms at the batch's largest x the quadrature takes it
_SERIES_MAX_P = 0.97  # so Q = 1 - P >= 0.03 keeps all but 5 bits


def _series_terms(a: float, x: float) -> int | None:
    """The number of terms past t_0 the series of P needs at x > 0, if it
    is at most ``_SERIES_MAX_TERMS``, P(a, x) is at most ``_SERIES_MAX_P``
    and a is at most ``_MAX_SERIES_SHAPE``; else None."""
    if a > _MAX_SERIES_SHAPE:
        return None
    t = s = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        t *= x / (a + k)
        s += t
        if t < 2.0**-60 * s:
            break
    else:
        return None
    log_p = a * math.log(x) - x + math.log(s) - math.lgamma(a + 1.0)
    return k if log_p <= math.log(_SERIES_MAX_P) else None


def _upper_gamma_series(a: float, x: np.ndarray, n: int):
    """log Q(a, x) and its first two derivatives in a from n + 1 terms of
    the series of P, on 1-D x > 0.

    With H_k and H2_k the sums of 1 / (a + j) and 1 / (a + j)^2 over
    j = 1..k, S0, S1 and S2 are the sums of t_k, t_k H_k and
    t_k (H_k^2 + H2_k); then d/da log P = log x - psi(a + 1) - S1 / S0 and
    d2/da2 log P = S2 / S0 - (S1 / S0)^2 - psi'(a + 1).  With the k = 0
    term kept out of the sums, psi(a + 1) holds the 1/a parts, which
    cancel at small a otherwise.  Then log Q = log1p(-P), and with
    r = P / Q, d/da log Q = -r d/da log P and
    d2/da2 log Q = -r (d2/da2 log P + (d/da log P)^2) - (d/da log Q)^2.
    """
    inv = 1.0 / (a + np.arange(1.0, n + 1.0))
    h1 = np.cumsum(inv)
    weights = np.array([np.ones(n), h1, h1 * h1 + np.cumsum(inv * inv)])
    # Row k - 1 becomes t_k, a row at a time: np.cumprod down axis 0 makes
    # the same products column by column, twice as slow at m ~ 1000.
    t = inv[:, None] * x
    for k in range(1, n):
        np.multiply(t[k - 1], t[k], out=t[k])
    s0, s1, s2 = weights @ t
    s0 += 1.0
    psi, psi1 = _digamma_trigamma(a + 1.0)
    log_x = np.log(x)
    m1 = s1 / s0
    d1p = log_x - psi - m1
    p = np.exp(a * log_x - x + np.log(s0) - math.lgamma(a + 1.0))
    r = p / (1.0 - p)
    d1 = -r * d1p
    return np.log1p(-p), d1, -r * (s2 / s0 - m1 * m1 - psi1 + d1p * d1p) - d1 * d1


def _upper_gamma(a: float, x: np.ndarray):
    """log Q(a, x) and its first two derivatives in a on sorted, distinct,
    finite x > 0: from the series of P where it converges in few terms at
    the largest x and leaves Q at least 0.03 there, else by quadrature."""
    n = _series_terms(a, float(x[-1]))
    return _upper_gamma_quadrature(a, x) if n is None else _upper_gamma_series(a, x, n)


def _log_q_shape(a: float, x):
    """log Q(a, x) with its first and second derivatives in a, arrays shaped
    like x >= 0.  x = 0 gives 0 for all three; x = inf gives log Q = -inf
    with NaN derivatives, and x = NaN gives NaN for all three.

    A 1-D batch that is already strictly increasing, finite and > 0, as
    the gamma fits' ``rate * tc`` is, goes straight to ``_upper_gamma``,
    which takes the series of P or the quadrature by the largest x alone.
    Any other batch is sorted and de-duplicated first and its distinct
    positive x go through the same choice, so an element's result does
    not depend on the order of its batch, and both ways give the same bits.
    """
    _check_shape(a)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 and x.size and x[0] > 0.0 and x[-1] < np.inf and (x[1:] > x[:-1]).all():
        return _upper_gamma(a, x)
    if np.any(x < 0.0):
        raise DomainError("incomplete gamma requires x >= 0")
    xs, inverse = np.unique(x, return_inverse=True)
    # Sorted: a zero first, then the finite x > 0, then inf and NaN.
    lo, hi = int(np.searchsorted(xs, 0.0, side="right")), int(np.searchsorted(xs, np.inf))
    out = np.zeros((3, xs.size))
    out[:, hi:] = np.nan
    out[0, hi:][xs[hi:] == np.inf] = -np.inf
    if lo < hi:
        out[:, lo:hi] = _upper_gamma(a, xs[lo:hi])
    out = out.take(inverse.reshape(x.shape), axis=1)
    return out[0], out[1], out[2]


_SOLVE_MAX_STEPS = 100
_GAMMA_LOG_XTOL = 1e-10  # on log x, so relative on x
_E_RATIO = math.e / (math.e - 1.0)  # from log(x / a) <= x / (e a)
_LOG_MIN_FLOAT = math.log(5e-324)


def _solve_increasing(F, u, y, lo, hi, tol):
    """Roots y of F(y) = u for an increasing F, elementwise on 1-D arrays.

    Halley steps from the start y inside the bracket (lo, hi), with F
    giving F, F' and F''/F'; as in Numerical Recipes' rtsafe, a step that
    leaves the current bracket, or is more than half the step before last,
    becomes a bisection.  F only sees the elements whose last step was
    larger than ``tol``.
    """
    step = hi - lo
    prev = step.copy()
    active = np.arange(u.size)
    for _ in range(_SOLVE_MAX_STEPS):
        ya = y[active]
        f, d1, curve = F(ya)
        f -= u[active]
        lo[active] = la = np.where(f < 0.0, ya, lo[active])
        hi[active] = ha = np.where(f > 0.0, ya, hi[active])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = f / d1
            halley = newton / (1.0 - 0.5 * np.minimum(newton * curve, 1.0))
        yn = ya - halley
        ok = (la <= yn) & (yn <= ha) & (np.abs(halley) <= 0.5 * prev[active])
        y[active] = yn = np.where(ok, yn, 0.5 * (la + ha))
        prev[active], step[active] = step[active], np.abs(yn - ya)
        active = active[~(step[active] <= tol)]
        if not active.size:
            break
    return y


def _gamma_start(a: float, u: np.ndarray) -> np.ndarray:
    """log x of Numerical Recipes' first guess at the root of P(a, x) = u
    (``invgammp``): Wilson-Hilferty on a rational normal quantile for
    a > 1; below, the series' first term or the tail e^(-x), each matched
    to P at x = 1."""
    if a > 1.0:
        t = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))
        z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
        z = np.where(u < 0.5, -z, z)
        return np.log(np.maximum(1e-3, a * (1.0 - 1.0 / (9.0 * a) - z / (3.0 * math.sqrt(a))) ** 3))
    s = a * (0.253 + a * 0.12)  # 1 - t, with t = P(a, 1) as the guess has it
    tail = np.log(np.maximum(1.0, 1.0 + math.log(s) - np.log1p(-u)))
    return np.where(u < 1.0 - s, (np.log(u) - math.log1p(-s)) / a, tail)


def inv_reg_lower_gamma(a: float, u):
    """Solve P(a, x) = u for x, scalar or ndarray u in [0, 1); u = 0 gives 0.

    Solved on y = log(x) to 1e-10, as the root can span hundreds of orders
    of magnitude: Halley steps from ``_gamma_start``, in the bracket from
    P(a, x) <= x^a / Gamma(a + 1) and the Chernoff bound
    1 - P(a, x) <= exp(a - x) (x / a)^a.  Below u = 1/2 the solve is on
    log P = log u, with P from the series alone: the median lies below the
    mean a (Chen & Rubin 1986), so the bracket is capped at log a, inside
    the series' range x < a + 1.  From u = 1/2 up it is on
    -log Q = -log1p(-u), with Q from the continued fraction where
    x >= a + 1 and as 1 - P below, so the flat top of P costs no digits.
    With g = a y - x - log Gamma(a), the derivative in y is e^(g - log P),
    or e^(g - log Q), and F''/F' is (a - x) -/+ that derivative.  A root
    below the smallest positive float gives 0.

    Against scipy the relative error is about 4e-15 at a = 0.7 and 3e-14
    at a = 0.05, up to the last float below 1.  Far smaller shapes lose
    digits where u is near 1 and x < a + 1, since there Q = 1 - P is small:
    at a = 1e-8 the error is 9e-8 at u = 1 - 1e-8.  Large shapes lose
    digits to the rounding of log P: the error is about 6e-14 at a = 1e4
    and 8e-13 at a = 1e5, the largest shape taken (5e-11 at 1e6).
    """
    _check_shape(a, _MAX_SERIES_SHAPE)
    uu = np.asarray(u, dtype=float)
    if not np.all((uu >= 0.0) & (uu < 1.0)):
        raise DomainError(f"inv_reg_lower_gamma requires 0 <= u < 1, got {u!r}")
    lg, pos = log_gamma(a), uu > 0.0
    up = uu[pos]
    lu, nlq, la = np.log(up), -np.log1p(-up), math.log(a)  # nlq: -log(1 - u)
    # Far into the lower tail lo is the root to within the rounding of its
    # sum, so it is moved down by well over that rounding: the bracket
    # must hold the root.
    lo = (lu + lg + la - 1e-12 * (np.abs(lu) + abs(lg) + abs(la))) / a
    hi = np.log((a + nlq) * _E_RATIO)
    lower = up < 0.5
    hi[lower] = la
    y = np.clip(_gamma_start(a, up), lo, hi)

    def log_p(y):
        x = np.exp(y)
        s = _series(a, x)
        d1 = 1.0 / s  # e^(g - log P)
        return a * y - x - lg + np.log(s), d1, (a - x) - d1

    def minus_log_q(y):
        x = np.exp(y)
        g = a * y - x - lg
        far = x >= a + 1.0
        lq = np.empty_like(y)
        lq[far] = g[far] + np.log(_fraction(a, x[far]))
        with np.errstate(divide="ignore"):  # P rounds to 1 only for a below ~1e-16
            lq[~far] = np.log1p(-np.minimum(reg_lower_gamma(a, x[~far]), 1.0))
        d1 = np.exp(g - lq)
        return -lq, d1, (a - x) + d1

    for part, F, target in ((lower, log_p, lu), (~lower, minus_log_q, nlq)):
        if part.any():
            y[part] = _solve_increasing(F, target[part], y[part], lo[part], hi[part], _GAMMA_LOG_XTOL)
    x = np.zeros(uu.shape)
    x[pos] = np.where(y < _LOG_MIN_FLOAT, 0.0, np.exp(y))
    return float(x) if x.ndim == 0 else x


def chi2_sf_1df(d: float) -> float:
    """Upper tail P(X >= d) for a chi-square with one degree of freedom."""
    if not d >= 0.0:
        raise DomainError(f"chi-square statistic must be >= 0, got {d!r}")
    return erfc(math.sqrt(0.5 * d))
