"""Parametric latency families, censored-data likelihoods, ML fitting.

Each latency family is one private record, an instance of a ``_Family``
subclass, in the ordered table ``_TABLE``: parameter names, the fit engine's
terms (the one log S0 formula), quantile, starting values and zero-time-event
rule.  ``FAMILIES`` is the table's order, also the AIC tie-break order.

Latency parameterizations (all parameters strictly positive):

    exponential   rate l            S0(t) = exp(-l t)
    weibull       shape a, scale s  S0(t) = exp(-(t/s)^a)
    gamma         shape k, rate b   S0(t) = 1 - P(k, b t)   (P = reg. lower inc. gamma)
    loglogistic   shape a, scale s  S0(t) = 1 / (1 + (t/s)^a)
    lognormal     scale s, sigma g  S0(t) = 1 - Phi(log(t/s) / g)

A cure spec adds cure_fraction c in (0,1), the long-run survivor
probability: S(t) = c + (1-c) S0(t) and f(t) = (1-c) f0(t).
``latency_survival(spec, params, t)`` and ``latency_quantile(spec, params, u)``
evaluate S0 and its inverse; both check ``params`` against ``spec`` and read
only its latency, so a cure spec's fraction is validated but not used.
``latency_survival`` reads S0 off the family's terms on an ``_at_times``
cache.

Fitting maximizes the censored-data log-likelihood sum_events log f +
sum_censored log S over logit c and the log of each latency parameter.
The optimizer, ``_trust_region``, knows no model: it maximizes a function
by a trust-region Newton method.  Each step solves the quadratic
model exactly within the trust radius (the Newton step from a Cholesky
factor when it is positive definite and the step fits, the boundary step
from an eigendecomposition otherwise), and the radius follows the ratio
of actual to predicted gain.  A fit has converged when every
gradient component is within 1e-8 in absolute value.  Scores and second
derivatives are exact, with no finite differences, so their rounding stays
far below that tolerance even for millions of records: each family gives
its event term and its log S0 at every distinct censoring time with their
derivatives in the log parameters (the gamma shape through digamma and the
derivatives of log Q in the shape, which come with log Q from one pass over
the sorted censoring times: the series of P where it converges fast, a
quadrature elsewhere), each Hessian as its distinct entries,
from one pass over its arrays (the Weibull and log-logistic families run
one jet over the event and the censoring times together); one shared cure
layer computes S0 once and chains them through the mixture and logit c.
The trust region's bookkeeping runs on Python floats.  Their Hessian at the
returned point is the observed information, which ``wald_intervals``
evaluates there when intervals are asked for.  The coordinates are not
boxed: ``_untransform`` clamps logit c to [-40, 40] (beyond -40 the
objective is flat at c = expit(-40)) and each log latency parameter to
the log of the largest float, so every point maps to parameters.

Every fit runs in one loop, ``_fits``, the one place that knows the model:
it builds the sample's likelihood cache and reads what the start values
need (``_start_basis``: the event times, their mean, the exposure per event
and the Kaplan-Meier tail) once, then fits each family without and then
with a cure fraction, each from its objective (``_objective``) and its
start.  A fit starts from ``_initial_params``, except a cure fit on the
boundary.  A non-cure fit starts on the exposure scale sum(times) /
n_events, the inverse of the closed-form exponential MLE and the shape-1
member of the Weibull and gamma families, so the exponential fit stops at
its start; a cold cure fit starts on the event-time mean, which tracks the
uncured latency.
The non-cure model is the c = 0 boundary of the cure model, so a cure fit
first reads its family's non-cure fit: the cure score there,
d loglik / dc = sum_censored w (1 - S0) / S0 - n_events, comes off the
log S0 of that fit's last evaluation.  When the non-cure fit converged
with a score <= 0, the cure fit starts at logit c = -40 and the point the
non-cure fit returned, so its latency is the non-cure estimate bit for
bit and its first evaluation reuses the family terms
(``_Family.derivatives``) the non-cure fit computed there.  On data
without a cure fraction it stops there in 0 iterations, where a start from
``_initial_params`` walks 20-35 iterations down the c -> 0 ridge.  A cure
fit that ends on the boundary has no Wald intervals: logit c has no
standard error there.

A trust region that does not converge returns its best point with
``converged=False``; the assessment names such a fit in its notes and
never selects it.  The likelihood is evaluated once per distinct
(time, event) pair, each term weighted by the number of records that
share it, and in log space throughout, so far-tail survival never
underflows to log 0.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CurecheckError, DomainError, FitError
from .special import (
    _digamma_trigamma,
    _log_q_shape,
    inv_reg_lower_gamma,
    log_gamma,
    log_normal_sf,
)
from .survival import SurvivalSample, _is_number, _km_tail

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# latency families
# ---------------------------------------------------------------------------


class _Family:
    """One latency family: every formula and rule that depends on it.

    Each method takes the latency parameters last, in ``param_names`` order.

    * ``quantile(u, *theta)``: the latency CDF inverted on a 1-D array in [0, 1).
    * ``start(te, scale)``: starting values from the event times and a time
      scale (``_initial_params`` says which).
    * ``zero_events``: events at time exactly 0 are "allowed"; rejected by
      fitting alone under "no fit" (defined but degenerate maximum); or
      rejected everywhere under "outside support" (density undefined or
      unbounded at 0).  They are never nudged.
    * ``derivatives(cache, *theta)``: the fit engine's terms on the scale of
      the log parameters, ``(ev, ev_g, ev_h, ls, ls_g, ls_h)``: the sum
      ``ev`` of log f0 over the events of a ``_LikCache``, events at time 0
      included and -inf where f0 vanishes, with its gradient (p,) and
      Hessian (p(p+1)/2,), and log S0 at the cache's censoring times with
      its gradients (m, p) and Hessians (m, p(p+1)/2).  A Hessian is its
      distinct entries (00, 01, 11), so a weighted sum over the times is one
      ``w @ ls_h``.  This is the family's only log S0 formula, which
      ``latency_survival`` reads on an ``_at_times`` cache, and its only event
      log-density formula; events at time 0 reach it only where the family
      allows them.
    """

    param_names: tuple[str, ...]
    zero_events: str


class _Exponential(_Family):
    param_names = ("rate",)
    zero_events = "allowed"

    def derivatives(self, cache, rate):
        ls = -rate * cache.tc
        bt = float(np.ldexp(rate * cache.sum_te, cache.unit))
        ev = cache.n_events * math.log(rate) - bt
        ev_g, ev_h = np.array([cache.n_events - bt]), np.array([-bt])
        return ev, ev_g, ev_h, ls, ls[:, None], ls[:, None]

    def quantile(self, u, rate):
        return -np.log1p(-u) / rate

    def start(self, te, scale):
        return (1.0 / scale,)


class _ShapeScale(_Family):
    """Families with log S0 = -G(z), z = shape (log t - log scale), and
    log f0 = log(shape / scale) + (shape - 1) log(t / scale) + k log S0, with
    k = ``event_weight``.  Each family gives ``jet(z)`` = (G, G', G''), and
    one jet over the event and censoring times together serves both the
    values and their derivatives."""

    param_names = ("shape", "scale")
    event_weight: float

    def _event_value(self, cache, shape, log_scale, sum_g):
        """The event log-density sum, given the weighted sum of G over the
        distinct event times > 0."""
        n_pos = cache.n_events - cache.n_zero_events
        return (
            n_pos * (math.log(shape) - log_scale)
            + (shape - 1.0) * (cache.sum_log_te - n_pos * log_scale)
            - self.event_weight * sum_g
        )

    def _jet_terms(self, log_t, shape, log_scale):
        """The rows G, the gradient (2) and the Hessian entries (3) of -G at each time."""
        z = shape * (log_t - log_scale)
        g0, g1, g2 = self.jet(z)
        b = g2 * z + g1
        return np.array([g0, -g1 * z, shape * g1, -b * z, shape * b, -shape * shape * g2])

    def derivatives(self, cache, shape, scale):
        log_scale = math.log(scale)
        n = cache.n_events - cache.n_zero_events
        a = cache.sum_log_te - n * log_scale
        # One jet over the event and censoring times end to end; the event
        # columns come first, and one product gives all six event sums.
        jet = self._jet_terms(cache.log_t, shape, log_scale)
        k = cache.we.size
        sums = cache.we @ jet[:, :k].T
        return (
            self._event_value(cache, shape, log_scale, float(sums[0])),
            np.array([n + shape * a, -n * shape]) + self.event_weight * sums[1:3],
            np.array([shape * a, -n * shape, 0.0]) + self.event_weight * sums[3:],
            -jet[0, k:], jet[1:3, k:].T, jet[3:, k:].T,
        )

    def start(self, te, scale):
        return (1.0, scale)


class _Weibull(_ShapeScale):
    zero_events = "no fit"
    event_weight = 1.0

    def jet(self, z):
        g = np.exp(z)
        return g, g, g

    def _event_value(self, cache, shape, log_scale, sum_g):
        zero_part = 0.0
        if cache.n_zero_events:
            if shape < 1.0:
                raise DomainError(
                    "weibull density is unbounded at time 0 when shape < 1; "
                    "events at time exactly 0 are not supported"
                )
            if shape > 1.0:
                return -math.inf  # f0(0) = 0
            zero_part = cache.n_zero_events * (math.log(shape) - log_scale)
        return zero_part + super()._event_value(cache, shape, log_scale, sum_g)

    def quantile(self, u, shape, scale):
        return scale * np.power(-np.log1p(-u), 1.0 / shape)


class _Gamma(_Family):
    param_names = ("shape", "rate")
    zero_events = "outside support"

    def derivatives(self, cache, shape, rate):
        # Rate: through x r = x g(k, x) / Q(k, x), with g the Gamma(k, 1)
        # density at x = rate t.  Shape: log Gamma(k) through digamma and
        # trigamma, log Q through its derivatives in k from the same kernel call.
        psi, psi1 = _digamma_trigamma(shape)
        n, log_rate = cache.n_events, math.log(rate)
        a = n * log_rate + cache.sum_log_te - n * psi
        bt = float(np.ldexp(rate * cache.sum_te, cache.unit))
        ev = n * (shape * log_rate - log_gamma(shape)) + (shape - 1.0) * cache.sum_log_te - bt
        ev_g = np.array([shape * a, n * shape - bt])
        ev_h = np.array([shape * a - n * shape * shape * psi1, n * shape, -bt])
        x, log_x = rate * cache.tc, log_rate + cache.log_tc
        lq, q1, q2 = _log_q_shape(shape, x)
        xr = np.exp(shape * log_x - x - log_gamma(shape) - lq)
        sq1 = shape * q1
        ls_g = np.array([sq1, -xr]).T
        h01 = -shape * xr * (log_x - psi - q1)
        ls_h = np.array([sq1 + shape * shape * q2, h01, xr * (x - shape - xr)]).T
        return ev, ev_g, ev_h, lq, ls_g, ls_h

    def quantile(self, u, shape, rate):
        return inv_reg_lower_gamma(shape, u) / rate

    def start(self, te, scale):
        return (1.0, 1.0 / scale)


class _LogLogistic(_ShapeScale):
    zero_events = "outside support"
    event_weight = 2.0

    def jet(self, z):
        # G = log(1 + e^z), G' and G'' = G' (1 - G') from e^-|z|: 1 - G' would cancel for z >> 1.
        e = np.exp(-np.abs(z))
        d = 1.0 + e
        pos = z > 0.0
        p = np.where(pos, 1.0, e) / d
        return np.maximum(z, 0.0) + np.log1p(e), p, p * (np.where(pos, e, 1.0) / d)

    def quantile(self, u, shape, scale):
        with np.errstate(divide="ignore"):
            return scale * np.power(u / (1.0 - u), 1.0 / shape)


class _LogNormal(_Family):
    param_names = ("scale", "sigma")
    zero_events = "outside support"

    def derivatives(self, cache, scale, sigma):
        log_scale = math.log(scale)
        n = cache.n_events - cache.n_zero_events
        ze = (cache.log_te - log_scale) / sigma
        s1, s2 = float(cache.we @ ze), float(cache.we @ (ze * ze))
        ev = -cache.sum_log_te - n * (math.log(sigma) + 0.5 * _LOG_2PI) - 0.5 * s2
        sigma2 = np.float64(sigma) * sigma  # 0 or inf where sigma**2 would raise
        ev_g = np.array([s1 / sigma, s2 - n])
        ev_h = np.array([-n / sigma2, -2.0 * s1 / sigma, -2.0 * s2])
        z = (cache.log_tc - log_scale) / sigma
        ls = log_normal_sf(z)  # log S0 at the censoring times
        lam = np.exp(-0.5 * z * z - 0.5 * _LOG_2PI - ls)  # hazard of z: phi / (1 - Phi)
        dlam = lam * (lam - z)
        b = dlam * z + lam
        ls_g = np.array([lam / sigma, lam * z]).T
        ls_h = np.array([-dlam / sigma2, -b / sigma, -z * b]).T
        return ev, ev_g, ev_h, ls, ls_g, ls_h

    def quantile(self, u, scale, sigma):
        from statistics import NormalDist  # AS241 in C; imported here, off the CLI's start-up

        z = np.fromiter(map(NormalDist().inv_cdf, np.where(u > 0.0, u, 0.5).tolist()), float, u.size)
        return np.where(u > 0.0, scale * np.exp(sigma * z), 0.0)

    def start(self, te, scale):
        logs = np.log(te)  # fits reject lognormal events at time 0
        return (math.exp(float(logs.mean())), max(float(logs.std()), 0.05))


_TABLE = {
    "exponential": _Exponential(),
    "weibull": _Weibull(),
    "gamma": _Gamma(),
    "loglogistic": _LogLogistic(),
    "lognormal": _LogNormal(),
}

# Family order doubles as the AIC tie-break order.
FAMILIES = tuple(_TABLE)


def _family(name: str) -> _Family:
    try:
        return _TABLE[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise DomainError(
            f"unknown family {name!r}; expected one of {', '.join(FAMILIES)}"
        ) from None


@dataclass(frozen=True)
class FamilySpec:
    """A latency family plus the cure/non-cure flag."""

    family: str
    cure: bool = False

    def __post_init__(self):
        _family(self.family)

    @property
    def latency_param_names(self) -> tuple[str, ...]:
        return _family(self.family).param_names

    @property
    def param_names(self) -> tuple[str, ...]:
        if self.cure:
            return ("cure_fraction",) + self.latency_param_names
        return self.latency_param_names

    @property
    def n_params(self) -> int:
        return len(self.latency_param_names) + (1 if self.cure else 0)

    @property
    def label(self) -> str:
        return f"{self.family} {'cure' if self.cure else 'non-cure'}"


@dataclass(frozen=True)
class Params:
    """Parameter values for a spec: latency tuple plus optional cure fraction."""

    latency: tuple[float, ...]
    cure_fraction: float | None = None


def check_params(spec: FamilySpec, params: Params) -> None:
    """Validate a Params against its spec; raises DomainError on violation."""
    expected = len(spec.latency_param_names)
    if len(params.latency) != expected:
        raise DomainError(
            f"{spec.family} expects {expected} latency parameter(s) "
            f"({', '.join(spec.latency_param_names)}), got {len(params.latency)}"
        )
    for name, value in zip(spec.latency_param_names, params.latency):
        v = float(value)
        if not math.isfinite(v) or v <= 0.0:
            raise DomainError(f"latency parameter {name} must be finite and > 0, got {value!r}")
    if spec.cure:
        c = params.cure_fraction
        if c is None:
            raise DomainError(f"{spec.label} requires a cure_fraction")
        c = float(c)
        if not math.isfinite(c) or not (0.0 < c < 1.0):
            raise DomainError(f"cure_fraction must lie strictly in (0, 1), got {c!r}")
    elif params.cure_fraction is not None:
        raise DomainError(f"{spec.label} does not accept a cure_fraction")


# ---------------------------------------------------------------------------
# latency survival / quantile functions
# ---------------------------------------------------------------------------


def latency_quantile(spec: FamilySpec, params: Params, u) -> float | np.ndarray:
    """Inverse of the latency CDF of ``spec``: the time t with 1 - S0(t) = u, u in [0, 1)."""
    check_params(spec, params)
    theta = tuple(float(v) for v in params.latency)  # a float32 parameter would compute in float32
    scalar = np.isscalar(u)
    uu = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(uu)) or np.any(uu < 0.0) or np.any(uu >= 1.0):
        raise DomainError("quantile level must lie in [0, 1)")
    out = _family(spec.family).quantile(uu.ravel(), *theta).reshape(uu.shape)
    return float(out) if scalar else out


def latency_survival(spec: FamilySpec, params: Params, t) -> float | np.ndarray:
    """S0(t) for the latency distribution of ``spec`` at time(s) t >= 0."""
    check_params(spec, params)
    scalar = np.isscalar(t)
    tt = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(tt)) or np.any(tt < 0.0):
        raise DomainError("evaluation time must be finite and >= 0")
    theta = tuple(float(v) for v in params.latency)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        ls = _family(spec.family).derivatives(_at_times(tt.ravel()), *theta)[3]
        out = np.exp(np.minimum(ls, 0.0))
    if scalar:
        return float(out[0])
    return out.reshape(tt.shape)


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LikCache:
    """Precomputed pieces of a sample shared across likelihood evaluations.

    Tied records are merged: ``we`` and ``wc`` count the records at each
    distinct time, and every sum over records is weighted by them.  The
    censoring times ``tc`` of a sample's cache are strictly increasing,
    finite and > 0, so ``rate * tc`` reaches the gamma kernel without a sort
    unless rounding merges, underflows or overflows some of them
    (``_log_q_shape`` checks).  ``log_t`` holds the log event times and then
    the log censoring times, end to end, so that one array pass covers both;
    ``log_te`` and ``log_tc`` are its two parts.  A cache from ``_at_times``
    has no events and its times in any order, zeros included.
    """

    n_events: int  # all events, including any at time 0
    n_zero_events: int
    we: np.ndarray  # records at each distinct event time > 0
    log_t: np.ndarray  # log_te, then log_tc
    log_te: np.ndarray
    sum_te: float  # the event times' sum scaled by 2^-unit, so it cannot overflow
    unit: int
    sum_log_te: float
    tc: np.ndarray  # distinct censoring times > 0 (zeros contribute log S(0) = 0)
    wc: np.ndarray
    log_tc: np.ndarray


def _build_cache(sample: SurvivalSample) -> _LikCache:
    times, events = sample.times, sample.events
    te, we = np.unique(times[events & (times > 0.0)], return_counts=True)
    tc, wc = np.unique(times[~events & (times > 0.0)], return_counts=True)
    we, wc = we.astype(float), wc.astype(float)
    log_t = np.concatenate((np.log(te), np.log(tc)))
    log_te, log_tc = log_t[: te.size], log_t[te.size:]
    unit = math.frexp(sample.max_time)[1]
    return _LikCache(
        n_events=sample.n_events,
        n_zero_events=sample.n_events - int(we.sum()),
        we=we, log_t=log_t, log_te=log_te, sum_te=float(we @ np.ldexp(te, -unit)), unit=unit,
        sum_log_te=float(we @ log_te), tc=tc, wc=wc, log_tc=log_tc,
    )


def _at_times(t: np.ndarray) -> _LikCache:
    """A cache with no events whose censoring times are ``t``, so a family's
    ``derivatives`` on it gives log S0 at ``t``."""
    none, log_t = np.zeros(0), np.log(t)
    return _LikCache(
        n_events=0, n_zero_events=0, we=none, log_t=log_t, log_te=none, sum_te=0.0, unit=0,
        sum_log_te=0.0, tc=t, wc=np.ones(t.size), log_tc=log_t,
    )


def _check_zero_events(spec: FamilySpec, cache: _LikCache, fitting: bool) -> None:
    """Raise when the sample's events at time 0 break the family's rule."""
    rule = _family(spec.family).zero_events
    if cache.n_zero_events and rule == "outside support":
        raise DomainError(
            f"events at time exactly 0 are outside the support of the {spec.family} density"
        )
    if cache.n_zero_events and rule == "no fit" and fitting:
        raise DomainError(
            f"events at time exactly 0 make the {spec.family} likelihood degenerate; "
            "remove or shift them before fitting"
        )


_UNPACK = np.array([[0, 1], [1, 2]])  # Hessian entries (00, 01, 11) -> matrix; [:1, :1] for p = 1


def _loglik_derivatives(spec: FamilySpec, params: Params, cache: _LikCache, terms=None):
    """(log-likelihood, gradient, Hessian, terms) at ``params``.

    The one assembly of the log-likelihood, for the fits and for
    ``log_likelihood``.  The gradient and Hessian are in the fitting
    coordinates (logit c, log of each latency parameter).  ``terms`` are
    the family's ``derivatives`` at the latency parameters.  They are
    computed unless passed in.  A converged non-cure fit reads its
    cure score off their log S0 (``_cure_score``).

    The family gives its terms on the log-parameter scale; the cure layer
    below is shared.  With m = c + (1 - c) S0 and L = log S0 the partial
    derivatives of log m are T_L = (1 - c) S0 / m, T_LL = T_L (1 - T_L),
    T_c = (1 - S0) / m, T_cc = -T_c^2 and T_cL = -S0 / m^2, chained through
    y = logit c with dc/dy = c (1 - c).  T_L is not taken as 1 - c / m,
    which cancels where S0 << 1.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        if terms is None:
            terms = _family(spec.family).derivatives(cache, *params.latency)
        ev, ev_g, ev_h, ls, ls_g, ls_h = terms
        unpack = _UNPACK[: ev_g.size, : ev_g.size]
        c, wc = params.cure_fraction, cache.wc
        if not spec.cure:
            return ev + float(wc @ ls), ev_g + wc @ ls_g, (ev_h + wc @ ls_h)[unpack], terms
        s0 = np.exp(ls)
        m = c + (1.0 - c) * s0
        t_l = (1.0 - c) * s0 / m
        t_c = (1.0 - s0) / m
        # The scalar sums in one product, the ls_g-weighted vectors in another.
        cen, wt_c, wt_cc = (np.array([np.log(m), t_c, t_c * t_c]) @ wc).tolist()
        # _expit rounds logits above ~36.8 to c = 1.0, where log(1 - c) = -inf.
        ll = cache.n_events * (math.log1p(-c) if c < 1.0 else -math.inf) + ev + cen
        dc = c * (1.0 - c)
        w_l = wc * t_l
        # dc T_cL = -c T_L / m, so the cross terms weight ls_g by w_l / m.
        g_l, g_cl = np.array([w_l, w_l / m]) @ ls_g
        g = np.concatenate([[dc * wt_c - cache.n_events * c], ev_g + g_l])
        h = np.empty((g.size, g.size))
        h[0, 0] = -dc * dc * wt_cc + dc * (1.0 - 2.0 * c) * wt_c - cache.n_events * dc
        h[0, 1:] = h[1:, 0] = -c * g_cl
        h_ll = (ls_g.T * (w_l * (1.0 - t_l))) @ ls_g
        h[1:, 1:] = ev_h[unpack] + h_ll + (w_l @ ls_h)[unpack]
    return ll, g, h, terms


def log_likelihood(spec: FamilySpec, params: Params, sample: SurvivalSample) -> float:
    """Censored-data log-likelihood: sum_events log f + sum_censored log S.

    Events at time exactly 0 are rejected for families whose density is
    undefined there; censored records at 0 contribute log S(0) = 0.
    """
    check_params(spec, params)
    cache = _build_cache(sample)
    _check_zero_events(spec, cache, fitting=False)
    theta = tuple(float(v) for v in params.latency)
    ll = float(_loglik_derivatives(spec, Params(theta, params.cure_fraction), cache)[0])
    return ll if not math.isnan(ll) else -math.inf


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelFit:
    """A maximized model: spec, estimates, likelihood value, and diagnostics."""

    spec: FamilySpec
    params: Params
    log_likelihood: float
    converged: bool
    n_iter: int
    cure_score: float | None = None  # converged non-cure fits: d loglik / dc at c = 0

    @property
    def aic(self) -> float:
        return 2.0 * self.spec.n_params - 2.0 * self.log_likelihood

    @property
    def param_dict(self) -> dict[str, float]:
        cure = (self.params.cure_fraction,) if self.spec.cure else ()
        return dict(zip(self.spec.param_names, map(float, cure + self.params.latency)))


@dataclass(frozen=True)
class WaldIntervals:
    """Per-parameter confidence intervals, or a diagnostic when unavailable."""

    intervals: dict[str, tuple[float, float]] | None
    diagnostic: str | None = None


_LOGIT_BOX = 40.0  # _expit clamps logit c to [-40, 40]


def _expit(v: float) -> float:
    v = min(max(v, -_LOGIT_BOX), _LOGIT_BOX)
    return 1.0 / (1.0 + math.exp(-v))


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


_FLOAT_MAX = float(np.finfo(float).max)
_LOG_FLOAT_MAX = math.log(_FLOAT_MAX)


def _transform(spec: FamilySpec, params: Params) -> np.ndarray:
    cure = [_logit(float(params.cure_fraction))] if spec.cure else []  # type: ignore[arg-type]
    return np.array(cure + [math.log(float(v)) for v in params.latency])


def _untransform(spec: FamilySpec, x: np.ndarray) -> Params:
    x = x.tolist()
    latency = (math.exp(min(max(v, -_LOG_FLOAT_MAX), _LOG_FLOAT_MAX)) for v in x[int(spec.cure):])
    return Params(tuple(latency), _expit(x[0]) if spec.cure else None)


def _start_basis(sample: SurvivalSample):
    """What every start value reads off the sample: the event times, their
    mean, the exposure per event sum(times) / n_events (each at most the
    largest float, and 1 where not > 0) and the KM tail in [0.01, 0.99].

    The exposure is the inverse of the censored-data exponential MLE, the
    shape-1 member of the Weibull and gamma families.
    """
    te = sample.times[sample.events]
    # On times scaled by a power of 2, exactly, so that their sum cannot overflow.
    unit = math.frexp(sample.max_time)[1]
    scaled = np.ldexp(sample.times, -unit)
    with np.errstate(over="ignore"):
        mean_te = float(np.ldexp(scaled[sample.events].mean(), unit)) if te.size else 1.0
        exposure = float(np.ldexp(scaled.sum() / sample.n_events, unit)) if sample.n_events else 1.0
    mean_te, exposure = (min(v, _FLOAT_MAX) if v > 0.0 else 1.0 for v in (mean_te, exposure))
    return te, mean_te, exposure, min(max(_km_tail(sample), 0.01), 0.99)


def _initial_params(spec: FamilySpec, basis) -> Params:
    """Starting values: non-cure latency on the exposure scale, cure latency on
    the event-time mean (it tracks the uncured latency), cure from the KM plateau.

    ``basis`` is ``_start_basis(sample)``, read once per sample for all its fits.
    """
    te, mean_te, exposure, cure_fraction = basis
    if spec.cure:
        return Params(_family(spec.family).start(te, mean_te), cure_fraction)
    return Params(_family(spec.family).start(te, exposure))


# Trust-region settings of every fit.  The gradient tolerance is absolute: on
# a ridge where the cure fraction tends to 0 the log-likelihood still to gain
# is about |d loglik / d logit c|, which a relative rule would leave behind.
_GTOL = 1e-8
_MAX_ITER = 100
_MAX_RADIUS = 10.0


def _newton_step(g: list, h: list, radius: float):
    """The Newton step (-h)^-1 g from a Cholesky factor of -h, or None when
    -h is not positive definite or the step is longer than the radius.

    On Python floats: the fits have at most 3 parameters, where numpy's
    per-call overhead outweighs the arithmetic.
    """
    p = len(g)
    s = list(g)
    low = []  # rows of the factor L, -h = L L^T
    for i in range(p):
        row = [-v for v in h[i][: i + 1]]
        for j in range(i + 1):
            lj = low[j] if j < i else row
            for k in range(j):
                row[j] -= row[k] * lj[k]
            if j < i:
                row[j] /= lj[j]
            elif row[i] > 0.0:  # a NaN pivot fails too
                row[i] = math.sqrt(row[i])
            else:
                return None
        for k in range(i):  # forward: L y = g
            s[i] -= row[k] * s[k]
        s[i] /= row[i]
        low.append(row)
    for i in reversed(range(p)):  # back: L^T s = y
        for k in range(i + 1, p):
            s[i] -= low[k][i] * s[k]
        s[i] /= low[i][i]
    return s if math.hypot(*s) <= radius else None


def _tr_step(g: list, h: list, radius: float) -> list:
    """Maximizer of g.s + s.h.s / 2 over |s| <= radius (Moré & Sorensen 1983),
    g a list and h a list of rows, as Python floats.

    The interior step is the Newton step from a Cholesky factor
    (``_newton_step``); when -h is not positive definite or that step leaves
    the radius, the eigendecomposition below finds the step on the boundary,
    with b = -h, (b + mu I) s = g and mu > max(0, -lambda_min): Newton's
    method on 1/radius - 1/|s(mu)|, bisecting whenever a step leaves the
    bracket.  When g has no component along the lowest eigenvector (the
    "hard case") no such mu exists, and that eigenvector fills the step up
    to the boundary.
    """
    s = _newton_step(g, h, radius)
    if s is not None:
        return s
    g = np.array(g)
    lam, v = np.linalg.eigh(-np.array(h))
    a = v.T @ g
    # A step whose norm overflows or is NaN fails every `<=` test against the radius.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # |s(mu)| > radius below the root, |s(mu)| <= radius from `above` on.
        below = max(0.0, -lam[0])
        above = mu = below + float(np.linalg.norm(g)) / radius
        for _ in range(60):
            d = lam + mu
            norm = math.sqrt(float(np.sum((a / d) ** 2)))
            if abs(norm - radius) <= 1e-6 * radius:
                break
            if norm > radius:
                below = mu
            else:
                above = mu
            if above - below <= 1e-12 * above:  # no root: the hard case
                mu = above
                break
            mu += norm * norm * (norm - radius) / (radius * float(np.sum(a * a / d**3)))
            if not below < mu < above:
                mu = 0.5 * (below + above)
        s = v @ (a / (lam + mu))
        gap = radius * radius - float(s @ s)
        if gap <= 0.0:
            return (s * (radius / math.sqrt(float(s @ s)))).tolist()
        along = float(s @ v[:, 0])  # the root of |s + tau v0| = radius nearer 0
        tau = math.copysign(gap / (math.sqrt(along * along + gap) + abs(along)), along)
        return (s + tau * v[:, 0]).tolist()


def _finite(ll: float, g: list, h: list) -> bool:
    """Whether the value, every gradient component and every Hessian entry
    (h a list of rows) are finite."""
    return math.isfinite(ll) and all(map(math.isfinite, g)) and all(
        math.isfinite(v) for row in h for v in row
    )


def _trust_region(evaluate, x: np.ndarray, point):
    """Maximize ``evaluate`` from x.

    ``evaluate(x)`` returns (value, gradient, Hessian, extra), the extra
    carried along unread, and point = evaluate(x).  Returns (x, point,
    iterations, converged).  A trial point x plus the step is taken when
    finite and it gains at least a tenth of the quadratic model's predicted
    gain, or both gains are below the value's rounding noise.  The radius
    shrinks on poor agreement and grows on good agreement at the boundary.
    Converged: every gradient component within _GTOL.

    The bookkeeping runs on the Python floats of the value, gradient,
    Hessian and step, read once per point: with at most 3 parameters
    numpy's per-call overhead outweighs the arithmetic.
    """
    radius = 1.0
    ll, g, h = point[0], point[1].tolist(), point[2].tolist()
    finite_start = _finite(ll, g, h)  # a step is taken only to a finite point
    for it in range(_MAX_ITER + 1):
        if all(abs(v) <= _GTOL for v in g):  # a NaN component fails
            return x, point, it, True
        if it == _MAX_ITER or radius < 1e-12 or not finite_start:
            break
        s = _tr_step(g, h, radius)
        x_new = x + np.array(s)
        # The model's predicted gain g.s + s.h.s / 2.
        pred = sum(si * (gi + 0.5 * sum(map(operator.mul, row, s))) for si, gi, row in zip(s, g, h))
        new = evaluate(x_new)
        new_g, new_h = new[1].tolist(), new[2].tolist()
        gain = new[0] - ll
        noise = 1e-13 * max(1.0, abs(ll))
        finite = _finite(new[0], new_g, new_h)
        if finite and pred <= noise and gain >= -noise:
            rho = 1.0  # both below rounding: the model is the better guide
        else:
            rho = gain / pred if finite and pred > 0.0 else -math.inf
        step = math.hypot(*s)
        if rho < 0.25:
            radius = 0.25 * step
        elif rho > 0.75 and step >= 0.99 * radius:
            radius = min(2.0 * radius, _MAX_RADIUS)
        if rho > 0.1:
            x, point = x_new, new
            ll, g, h = new[0], new_g, new_h
    return x, point, it, False


def _objective(spec: FamilySpec, cache: _LikCache):
    """``_trust_region``'s objective for ``spec``: ``_loglik_derivatives`` at the
    fitting coordinates, ``terms`` passed on."""
    def evaluate(x, terms=None):
        return _loglik_derivatives(spec, _untransform(spec, x), cache, terms)

    return evaluate


def fit_model(sample: SurvivalSample, spec: FamilySpec) -> ModelFit:
    """Maximum-likelihood fit of ``spec`` to a right-censored sample.

    A cure fit first fits the family's non-cure model, whose cure score
    chooses where the cure fit starts; when that fit fails, the cure fit
    starts from ``_initial_params``.
    """
    fit = next(fit for fitted, fit in _fits(sample, (spec.family,)) if fitted == spec)
    if isinstance(fit, CurecheckError):
        raise fit
    return fit


def _fits(sample: SurvivalSample, families: tuple[str, ...]):
    """Fit each family without and then with a cure fraction, on one likelihood cache.

    Yields (spec, fit), a family's non-cure spec first; a fit that raises a
    ``CurecheckError`` yields the exception in place of its ``ModelFit``,
    and any other exception is a bug and propagates.  Each cure fit starts
    from its non-cure fit, as the module docstring describes.
    """
    cache = _build_cache(sample)
    basis = _start_basis(sample)
    for family in families:
        score = noncure_x = end_terms = None
        for spec in (FamilySpec(family), FamilySpec(family, cure=True)):
            try:
                if sample.n_events == 0:
                    raise FitError("no events: fitting undefined")
                if sample.n < spec.n_params + 1:
                    raise FitError(
                        f"cannot fit {spec.label}: {spec.n_params + 1} records required, "
                        f"got {sample.n}"
                    )
                _check_zero_events(spec, cache, fitting=True)

                if score is not None and score <= 0.0:
                    x = np.concatenate([[-_LOGIT_BOX], noncure_x])
                    terms = end_terms
                else:
                    init = _initial_params(spec, basis)
                    check_params(spec, init)
                    x = _transform(spec, init)
                    terms = None
                evaluate = _objective(spec, cache)
                point = evaluate(x, terms)
                if not math.isfinite(point[0]):
                    raise FitError(f"initial parameters give a non-finite {spec.label} likelihood")

                x, point, n_iter, converged = _trust_region(evaluate, x, point)

                ll, _, _, terms = point
                fit = ModelFit(
                    spec=spec,
                    params=_untransform(spec, x),
                    log_likelihood=ll,
                    converged=converged,
                    n_iter=n_iter,
                    cure_score=(
                        _cure_score(cache, terms[3]) if converged and not spec.cure else None
                    ),
                )
                if not spec.cure:
                    score, noncure_x, end_terms = fit.cure_score, x, terms
            except CurecheckError as exc:
                fit = exc
            yield spec, fit


def _cure_score(cache: _LikCache, ls: np.ndarray) -> float:
    """d loglik / dc of the cure model at c = 0, given log S0 at the censoring times.

    That is sum_censored w (1 - S0) / S0 - n_events; an overflowing
    1 / S0 makes it +inf.
    """
    with np.errstate(over="ignore"):
        return float(cache.wc @ np.expm1(-ls)) - cache.n_events


def _standard_errors(H: np.ndarray):
    """SEs on the transformed scale from the observed information H, or a reason."""
    if not np.all(np.isfinite(H)):
        return None, "observed information matrix is not finite at the optimum"
    try:
        np.linalg.cholesky(H)
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        return None, "observed information matrix is not positive definite at the optimum"
    diag = np.diag(cov)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        return None, "observed information matrix is not positive definite at the optimum"
    return tuple(float(v) for v in np.sqrt(diag)), None


def wald_intervals(fit: ModelFit, sample: SurvivalSample, level: float = 0.95) -> WaldIntervals:
    """Wald confidence intervals, built on the transformed scale and mapped back.

    ``sample`` is the sample ``fit`` was made on.  The observed information
    is the negated Hessian of its log-likelihood at the estimates, in the
    fitting coordinates: the fit's own last evaluation, bit for bit.  The
    cure fraction interval always lands in (0, 1) and latency intervals
    stay positive because the endpoints are back-transformed through the
    logit / log maps used during fitting.
    """
    if not (_is_number(level, numbers.Real) and 0.0 < level < 1.0):
        raise DomainError(f"confidence level must lie strictly in (0, 1), got {level!r}")
    if not fit.converged:
        return WaldIntervals(None, "fit did not converge; intervals unavailable")
    if fit.spec.cure and fit.params.cure_fraction <= _expit(-_LOGIT_BOX):
        return WaldIntervals(None, (
            "the cure fraction sits on the boundary c = 0, where logit c has no "
            "finite standard error"
        ))
    h = _loglik_derivatives(fit.spec, fit.params, _build_cache(sample))[2]
    standard_errors, diagnostic = _standard_errors(-h)
    if standard_errors is None:
        return WaldIntervals(None, diagnostic)
    from statistics import NormalDist  # imported here, off the CLI's start-up

    # The lower tail: 0.5 * (1 + level) rounds to 1.0 for a level just below 1.
    z = -NormalDist().inv_cdf(0.5 * (1.0 - level))
    x = _transform(fit.spec, fit.params)
    out: dict[str, tuple[float, float]] = {}
    for i, name in enumerate(fit.spec.param_names):
        lo_t = float(x[i]) - z * standard_errors[i]
        hi_t = float(x[i]) + z * standard_errors[i]
        if name == "cure_fraction":
            out[name] = (_expit(lo_t), _expit(hi_t))
        elif hi_t > _LOG_FLOAT_MAX:
            return WaldIntervals(
                None, f"the upper end of the {name} interval overflows; intervals unavailable"
            )
        else:
            out[name] = (math.exp(lo_t), math.exp(hi_t))
    return WaldIntervals(out)
