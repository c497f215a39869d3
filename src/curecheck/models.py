"""Parametric latency families, censored-data likelihoods, ML fitting.

Each latency family is one private record, an instance of a ``_Family``
subclass, in the ordered table ``_TABLE``: parameter names, event log-density
sum, the one log S0 formula, quantile, starting values and zero-time-event
rule.  ``FAMILIES`` is the table's order, also the AIC tie-break order.

Latency parameterizations (all parameters strictly positive):

    exponential   rate l            S0(t) = exp(-l t)
    weibull       shape a, scale s  S0(t) = exp(-(t/s)^a)
    gamma         shape k, rate b   S0(t) = 1 - P(k, b t)   (P = reg. lower inc. gamma)
    loglogistic   shape a, scale s  S0(t) = 1 / (1 + (t/s)^a)
    lognormal     scale s, sigma g  S0(t) = 1 - Phi(log(t/s) / g)

A cure spec adds cure_fraction c in (0,1), the long-run survivor
probability: S(t) = c + (1-c) S0(t) and f(t) = (1-c) f0(t).

Fitting maximizes the censored-data log-likelihood
sum_events log f + sum_censored log S over a transformed space (logit of
the cure fraction, boxed to [-40, 40], and log of each latency parameter)
with a trust-region Newton method: each step solves
the quadratic model exactly within the trust radius, and the radius follows
the ratio of actual to predicted gain.  A fit has converged when every
gradient component is within 1e-8 in absolute value.  Scores and second
derivatives are exact, with no finite differences, so their rounding stays
far below that tolerance even for millions of records: each family gives
its event term and its log S0 at every distinct censoring time with their
derivatives in the log parameters (the gamma shape through digamma and the
shape derivatives of the incomplete gamma integral), and one shared cure
layer chains them through the mixture and logit c.  Their
Hessian at the returned point is the observed information behind the
standard errors.

A fit starts from ``initial_params``, except a cure fit on the boundary.
The non-cure model is the c = 0 boundary of the cure model, so a cure fit
first reads its family's non-cure fit: the cure score there,
d loglik / dc = sum_censored w (1 - S0) / S0 - n_events, comes off the
log S0 of that fit's last evaluation.  When the non-cure fit converged
with a score <= 0, the cure fit starts at logit c = -40 with the non-cure
latency; on data without a cure fraction it stops there in 0 iterations,
where a start from ``initial_params`` walks 20-35 iterations down the
c -> 0 ridge.  A cure fit that ends on the boundary has no standard
errors: logit c has none there.

A trust region that does not converge returns its best point with
``converged=False``; the assessment names such a fit in its notes and
never selects it.  The likelihood is evaluated once per distinct
(time, event) pair, each term weighted by the number of records that
share it, and in log space throughout, so far-tail survival never
underflows to log 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CurecheckError, DomainError, FitError
from .special import (
    _digamma_trigamma,
    _log_reg_upper_gamma_shape,
    inv_normal_cdf,
    inv_reg_lower_gamma,
    log_gamma,
    log_normal_sf,
    log_reg_upper_gamma,
)
from .survival import SurvivalSample, _km_tail

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# latency families
# ---------------------------------------------------------------------------


class _Family:
    """One latency family: every formula and rule that depends on it.

    Each method takes the latency parameters last, in ``param_names`` order.

    * ``log_pdf_sum(cache, *theta)``: sum of log f0 over the events of a
      ``_LikCache``, events at time 0 included; -inf where f0 vanishes.
    * ``log_sf(t, log_t, *theta)``: log S0 at times t >= 0 given log_t = log(t),
      the one log S0 formula (likelihood censoring term, ``latency_survival``).
    * ``quantile(u, *theta)``: the latency CDF inverted on a 1-D array in [0, 1).
    * ``start(te, mean_te)``: starting values from the event times.
    * ``zero_events``: events at time exactly 0 are "allowed"; rejected by
      ``fit_model`` alone under "no fit" (defined but degenerate maximum); or
      rejected everywhere under "outside support" (density undefined or
      unbounded at 0).  They are never nudged.
    * ``derivatives(cache, *theta)``: the fit engine's terms on the scale of
      the log parameters, ``(ev, ev_g, ev_h, ls, ls_g, ls_h)``: the event
      log-density sum ``ev`` (``log_pdf_sum``) with its gradient (p,) and
      Hessian (p, p), and log S0 at the cache's censoring times (``log_sf``)
      with its gradients (m, p) and Hessians (m, p, p).  Events at time 0
      reach it only where the family allows them.
    """

    param_names: tuple[str, ...]
    zero_events: str


class _Exponential(_Family):
    param_names = ("rate",)
    zero_events = "allowed"

    def log_pdf_sum(self, cache, rate):
        return cache.n_events * math.log(rate) - rate * cache.sum_te

    def log_sf(self, t, log_t, rate):
        return -rate * t

    def derivatives(self, cache, rate):
        ls = self.log_sf(cache.tc, cache.log_tc, rate)
        bt = rate * cache.sum_te
        return (
            self.log_pdf_sum(cache, rate), np.array([cache.n_events - bt]), np.array([[-bt]]),
            ls, ls[:, None], ls[:, None, None],
        )

    def quantile(self, u, rate):
        return -np.log1p(-u) / rate

    def start(self, te, mean_te):
        return (1.0 / mean_te,)


def _stack_hessian(huu, huv, hvv):
    """(..., 2, 2) symmetric Hessians from their three distinct entries."""
    return np.stack([np.stack([huu, huv], -1), np.stack([huv, hvv], -1)], -2)


class _ShapeScale(_Family):
    """Families with log S0 = -G(z), z = shape (log t - log scale), and
    log f0 = log(shape / scale) + (shape - 1) log(t / scale) + k log S0, with
    k = ``event_weight``.  Each family gives ``G(z)`` and ``dG(z)`` = (G', G'')."""

    param_names = ("shape", "scale")
    event_weight: float

    def log_pdf_sum(self, cache, shape, scale):
        log_scale = math.log(scale)
        n_pos = cache.n_events - cache.n_zero_events
        u = shape * (cache.log_te - log_scale)
        return (
            n_pos * (math.log(shape) - log_scale)
            + (shape - 1.0) * (cache.sum_log_te - n_pos * log_scale)
            - self.event_weight * float(cache.we @ self.G(u))
        )

    def log_sf(self, t, log_t, shape, scale):
        return -self.G(shape * (log_t - math.log(scale)))

    def _log_sf_terms(self, log_t, shape, log_scale):
        z = shape * (log_t - log_scale)
        g1, g2 = self.dG(z)
        grad = np.stack([-g1 * z, shape * g1], -1)
        return grad, _stack_hessian(-(g2 * z + g1) * z, shape * (g2 * z + g1), -shape * shape * g2)

    def derivatives(self, cache, shape, scale):
        log_scale = math.log(scale)
        n = cache.n_events - cache.n_zero_events
        a = cache.sum_log_te - n * log_scale
        eg, eh = self._log_sf_terms(cache.log_te, shape, log_scale)
        cg, ch = self._log_sf_terms(cache.log_tc, shape, log_scale)
        k = self.event_weight
        return (
            self.log_pdf_sum(cache, shape, scale),
            np.array([n + shape * a, -n * shape]) + k * (cache.we @ eg),
            np.array([[shape * a, -n * shape], [-n * shape, 0.0]]) + k * np.tensordot(cache.we, eh, 1),
            self.log_sf(cache.tc, cache.log_tc, shape, scale), cg, ch,
        )


class _Weibull(_ShapeScale):
    zero_events = "no fit"
    event_weight = 1.0

    def G(self, z):
        return np.exp(z)

    def dG(self, z):
        g = np.exp(z)
        return g, g

    def log_pdf_sum(self, cache, shape, scale):
        zero_part = 0.0
        if cache.n_zero_events:
            if shape < 1.0:
                raise DomainError(
                    "weibull density is unbounded at time 0 when shape < 1; "
                    "events at time exactly 0 are not supported"
                )
            if shape > 1.0:
                return -math.inf  # f0(0) = 0
            zero_part = cache.n_zero_events * (math.log(shape) - math.log(scale))
        return zero_part + super().log_pdf_sum(cache, shape, scale)

    def quantile(self, u, shape, scale):
        return scale * np.power(-np.log1p(-u), 1.0 / shape)

    def start(self, te, mean_te):
        return (1.0, mean_te)


class _Gamma(_Family):
    param_names = ("shape", "rate")
    zero_events = "outside support"

    def log_pdf_sum(self, cache, shape, rate):
        return (
            cache.n_events * (shape * math.log(rate) - log_gamma(shape))
            + (shape - 1.0) * cache.sum_log_te
            - rate * cache.sum_te
        )

    def log_sf(self, t, log_t, shape, rate):
        return log_reg_upper_gamma(shape, rate * t)

    def derivatives(self, cache, shape, rate):
        # Rate: through x r = x g(k, x) / Q(k, x), with g the Gamma(k, 1)
        # density at x = rate t.  Shape: log Gamma(k) through digamma and
        # trigamma, log Q through its exact derivatives in k.
        psi, psi1 = _digamma_trigamma(shape)
        n, log_rate = cache.n_events, math.log(rate)
        a = n * log_rate + cache.sum_log_te - n * psi
        bt = rate * cache.sum_te
        ev_g = np.array([shape * a, n * shape - bt])
        ev_h = np.array([[shape * a - n * shape * shape * psi1, n * shape], [n * shape, -bt]])
        x, log_x = rate * cache.tc, log_rate + cache.log_tc
        lq, q1, q2 = _log_reg_upper_gamma_shape(shape, x)
        xr = np.exp(shape * log_x - x - log_gamma(shape) - lq)
        ls_g = np.stack([shape * q1, -xr], -1)
        ls_h = _stack_hessian(
            shape * q1 + shape * shape * q2,
            -shape * xr * (log_x - psi - q1),
            xr * (x - shape - xr),
        )
        return self.log_pdf_sum(cache, shape, rate), ev_g, ev_h, lq, ls_g, ls_h

    def quantile(self, u, shape, rate):
        return inv_reg_lower_gamma(shape, u) / rate

    def start(self, te, mean_te):
        return (1.0, 1.0 / mean_te)


class _LogLogistic(_ShapeScale):
    zero_events = "outside support"
    event_weight = 2.0

    def G(self, z):
        return np.logaddexp(0.0, z)

    def dG(self, z):
        p = 1.0 / (1.0 + np.exp(-z))
        return p, p * (1.0 - p)

    def quantile(self, u, shape, scale):
        with np.errstate(divide="ignore"):
            return scale * np.power(u / (1.0 - u), 1.0 / shape)

    def start(self, te, mean_te):
        return (1.0, mean_te)


class _LogNormal(_Family):
    param_names = ("scale", "sigma")
    zero_events = "outside support"

    def log_pdf_sum(self, cache, scale, sigma):
        n_pos = cache.n_events - cache.n_zero_events
        z = (cache.log_te - math.log(scale)) / sigma
        return (
            -cache.sum_log_te
            - n_pos * (math.log(sigma) + 0.5 * _LOG_2PI)
            - 0.5 * float(cache.we @ (z * z))
        )

    def log_sf(self, t, log_t, scale, sigma):
        return log_normal_sf((log_t - math.log(scale)) / sigma)

    def derivatives(self, cache, scale, sigma):
        log_scale = math.log(scale)
        n = cache.n_events - cache.n_zero_events
        ze = (cache.log_te - log_scale) / sigma
        s1, s2 = float(cache.we @ ze), float(cache.we @ (ze * ze))
        ev_g = np.array([s1 / sigma, s2 - n])
        ev_h = np.array([[-n / sigma**2, -2.0 * s1 / sigma], [-2.0 * s1 / sigma, -2.0 * s2]])
        z = (cache.log_tc - log_scale) / sigma
        ls = self.log_sf(cache.tc, cache.log_tc, scale, sigma)
        lam = np.exp(-0.5 * z * z - 0.5 * _LOG_2PI - ls)  # hazard of z: phi / (1 - Phi)
        dlam = lam * (lam - z)
        ls_g = np.stack([lam / sigma, lam * z], -1)
        ls_h = _stack_hessian(-dlam / sigma**2, -(dlam * z + lam) / sigma, -z * (dlam * z + lam))
        return self.log_pdf_sum(cache, scale, sigma), ev_g, ev_h, ls, ls_g, ls_h

    def quantile(self, u, scale, sigma):
        z = inv_normal_cdf(np.where(u > 0.0, u, 0.5))
        return np.where(u > 0.0, scale * np.exp(sigma * z), 0.0)

    def start(self, te, mean_te):
        pos = te[te > 0.0]
        if not pos.size:
            return (1.0, 1.0)
        logs = np.log(pos)
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
    except KeyError:
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

    def as_dict(self, spec: FamilySpec) -> dict[str, float]:
        out: dict[str, float] = {}
        if spec.cure:
            out["cure_fraction"] = float(self.cure_fraction)  # type: ignore[arg-type]
        for name, value in zip(spec.latency_param_names, self.latency):
            out[name] = float(value)
        return out


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


def latency_quantile(family: str, theta: tuple[float, ...], u) -> float | np.ndarray:
    """Inverse of the latency CDF: the time t with 1 - S0(t) = u, u in [0, 1)."""
    check_params(FamilySpec(family), Params(latency=tuple(theta)))
    scalar = np.isscalar(u)
    uu = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(uu)) or np.any(uu < 0.0) or np.any(uu >= 1.0):
        raise DomainError("quantile level must lie in [0, 1)")
    out = _family(family).quantile(uu.ravel(), *theta).reshape(uu.shape)
    return float(out) if scalar else out


def latency_survival(spec: FamilySpec, params: Params, t) -> float | np.ndarray:
    """S0(t) for the latency distribution of ``spec`` at time(s) t >= 0."""
    check_params(spec, params)
    scalar = np.isscalar(t)
    tt = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(tt)) or np.any(tt < 0.0):
        raise DomainError("evaluation time must be finite and >= 0")
    t1 = np.atleast_1d(tt)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        out = np.exp(_family(spec.family).log_sf(t1, np.log(t1), *params.latency))
    out = np.clip(out, 0.0, 1.0)
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
    distinct time, and every sum over records is weighted by them.
    """

    n_events: int  # all events, including any at time 0
    n_zero_events: int
    te: np.ndarray  # distinct event times > 0
    we: np.ndarray
    log_te: np.ndarray
    sum_te: float
    sum_log_te: float
    tc: np.ndarray  # distinct censoring times > 0 (zeros contribute log S(0) = 0)
    wc: np.ndarray
    log_tc: np.ndarray


def _build_cache(sample: SurvivalSample) -> _LikCache:
    times, events = sample.times, sample.events
    te, we = np.unique(times[events & (times > 0.0)], return_counts=True)
    tc, wc = np.unique(times[~events & (times > 0.0)], return_counts=True)
    we, wc, log_te = we.astype(float), wc.astype(float), np.log(te)
    return _LikCache(
        n_events=sample.n_events,
        n_zero_events=sample.n_events - int(we.sum()),
        te=te, we=we, log_te=log_te, sum_te=float(we @ te), sum_log_te=float(we @ log_te),
        tc=tc, wc=wc, log_tc=np.log(tc),
    )


def _checked_cache(spec: FamilySpec, sample: SurvivalSample, fitting: bool) -> _LikCache:
    """The sample's likelihood cache, once its events at time 0 pass the family's rule."""
    cache = _build_cache(sample)
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
    return cache


def _mixture_value(spec: FamilySpec, c, ev: float, ls: np.ndarray, cache: _LikCache) -> float:
    """The log-likelihood from the event term ev and log S0 at the censoring times."""
    if not spec.cure:
        return ev + float(cache.wc @ ls)
    cen = float(cache.wc @ np.log(c + (1.0 - c) * np.exp(ls)))
    # _expit rounds logits above ~36.8 to c = 1.0, where log(1 - c) = -inf.
    return cache.n_events * (math.log1p(-c) if c < 1.0 else -math.inf) + ev + cen


def _loglik_value(spec: FamilySpec, params: Params, cache: _LikCache) -> float:
    theta = tuple(float(v) for v in params.latency)
    family = _family(spec.family)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        ev = family.log_pdf_sum(cache, *theta)
        ls = family.log_sf(cache.tc, cache.log_tc, *theta) if cache.tc.size else cache.tc
        ll = _mixture_value(spec, params.cure_fraction, ev, ls, cache)
    return ll if not math.isnan(ll) else -math.inf


def _loglik_derivatives(spec: FamilySpec, x: np.ndarray, cache: _LikCache):
    """(log-likelihood, gradient, Hessian, log S0) at x in the fitting coordinates.

    log S0 is the latency's log survival at the cache's censoring times; a
    converged non-cure fit reads its cure score off it (``_cure_score``).

    The family gives its terms on the log-parameter scale; the cure layer
    below is shared.  With m = c + (1 - c) S0 and L = log S0 the partial
    derivatives of log m are T_L = (1 - c) S0 / m, T_LL = T_L (1 - T_L),
    T_c = (1 - S0) / m, T_cc = -T_c^2 and T_cL = -S0 / m^2, chained through
    y = logit c with dc/dy = c (1 - c).
    """
    params = _untransform(spec, x)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        ev, ev_g, ev_h, ls, ls_g, ls_h = _family(spec.family).derivatives(cache, *params.latency)
        c = params.cure_fraction
        ll = _mixture_value(spec, c, ev, ls, cache)
        wc = cache.wc
        if not spec.cure:
            return ll, ev_g + wc @ ls_g, ev_h + np.tensordot(wc, ls_h, 1), ls
        s0 = np.exp(ls)
        m = c + (1.0 - c) * s0
        t_l = (1.0 - c) * s0 / m
        t_c = (1.0 - s0) / m
        dc = c * (1.0 - c)
        n_e = cache.n_events
        w_l = wc * t_l
        g = np.concatenate([[dc * float(wc @ t_c) - n_e * c], ev_g + w_l @ ls_g])
        h = np.empty((g.size, g.size))
        h[0, 0] = (
            -dc * dc * float(wc @ (t_c * t_c)) + dc * (1.0 - 2.0 * c) * float(wc @ t_c) - n_e * dc
        )
        h[0, 1:] = h[1:, 0] = -dc * ((wc * s0 / (m * m)) @ ls_g)
        h[1:, 1:] = (
            ev_h + (ls_g.T * (w_l * (1.0 - t_l))) @ ls_g + np.tensordot(w_l, ls_h, 1)
        )
    return ll, g, h, ls


def log_likelihood(spec: FamilySpec, params: Params, sample: SurvivalSample) -> float:
    """Censored-data log-likelihood: sum_events log f + sum_censored log S.

    Events at time exactly 0 are rejected for families whose density is
    undefined there; censored records at 0 contribute log S(0) = 0.
    """
    check_params(spec, params)
    return float(_loglik_value(spec, params, _checked_cache(spec, sample, fitting=False)))


def aic_value(k: int, log_lik: float) -> float:
    return 2.0 * k - 2.0 * log_lik


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelFit:
    """A maximized model: spec, estimates, likelihood value, and diagnostics."""

    spec: FamilySpec
    params: Params
    log_likelihood: float
    aic: float
    n_params: int
    n: int
    n_events: int
    converged: bool
    n_iter: int
    standard_errors: tuple[float, ...] | None = None
    se_diagnostic: str | None = None
    cure_score: float | None = None  # converged non-cure fits: d loglik / dc at c = 0

    @property
    def param_dict(self) -> dict[str, float]:
        return self.params.as_dict(self.spec)


@dataclass(frozen=True)
class WaldIntervals:
    """Per-parameter confidence intervals, or a diagnostic when unavailable."""

    level: float
    intervals: dict[str, tuple[float, float]] | None
    diagnostic: str | None = None


_LOGIT_BOX = 40.0  # logit c is kept in [-40, 40], _expit's clamp


def _expit(v: float) -> float:
    v = min(max(v, -_LOGIT_BOX), _LOGIT_BOX)
    return 1.0 / (1.0 + math.exp(-v))


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


_LOG_CLAMP = 700.0


def _transform(spec: FamilySpec, params: Params) -> np.ndarray:
    x = []
    if spec.cure:
        x.append(_logit(float(params.cure_fraction)))  # type: ignore[arg-type]
    x.extend(math.log(float(v)) for v in params.latency)
    return np.array(x, dtype=float)


def _untransform(spec: FamilySpec, x: np.ndarray) -> Params:
    i = 0
    cure_fraction = None
    if spec.cure:
        cure_fraction = _expit(float(x[0]))
        i = 1
    latency = tuple(
        math.exp(min(max(float(v), -_LOG_CLAMP), _LOG_CLAMP)) for v in x[i:]
    )
    return Params(latency=latency, cure_fraction=cure_fraction)


def initial_params(spec: FamilySpec, sample: SurvivalSample) -> Params:
    """Method-of-moments-flavored starting values; cure from the KM plateau."""
    te = sample.times[sample.events]
    mean_te = float(te.mean()) if te.size else 1.0
    if mean_te <= 0.0:
        mean_te = 1.0
    latency = _family(spec.family).start(te, mean_te)
    cure_fraction = None
    if spec.cure:
        cure_fraction = min(max(_km_tail(sample), 0.01), 0.99)
    return Params(latency=latency, cure_fraction=cure_fraction)


# Trust-region settings of every fit.  The gradient tolerance is absolute: on
# a ridge where the cure fraction tends to 0 the log-likelihood still to gain
# is about |d loglik / d logit c|, which a relative rule would leave behind.
_GTOL = 1e-8
_MAX_ITER = 100
_MAX_RADIUS = 10.0


def _tr_step(g: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """Minimizer of g.s + s.b.s / 2 over |s| <= radius (Moré & Sorensen 1983).

    On the boundary (b + mu I) s = -g with mu > max(0, -lambda_min): Newton's
    method on 1/radius - 1/|s(mu)|, bisecting whenever a step leaves the
    bracket.  When g has no component along the lowest eigenvector (the
    "hard case") no such mu exists, and that eigenvector fills the step up
    to the boundary.
    """
    lam, v = np.linalg.eigh(b)
    a = v.T @ g
    if lam[0] > 0.0:
        s = -(v @ (a / lam))
        with np.errstate(over="ignore"):  # a step whose norm overflows lies outside
            if np.linalg.norm(s) <= radius:
                return s
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
    s = -(v @ (a / (lam + mu)))
    gap = radius * radius - float(s @ s)
    if gap <= 0.0:
        return s * (radius / math.sqrt(float(s @ s)))
    along = float(s @ v[:, 0])  # the root of |s + tau v0| = radius nearer 0
    return s + math.copysign(gap / (math.sqrt(along * along + gap) + abs(along)), along) * v[:, 0]


def _finite(point) -> bool:
    ll, g, h, _ = point
    return math.isfinite(ll) and bool(np.all(np.isfinite(g)) and np.all(np.isfinite(h)))


def _trust_region(spec: FamilySpec, cache: _LikCache, x: np.ndarray, point):
    """Maximize the log-likelihood from x, where point = _loglik_derivatives at x.

    Returns (x, (ll, g, H, log S0), iterations, converged).  A step is taken
    when it gains at least a tenth of the quadratic model's predicted gain,
    or when both gains are below the rounding noise of the log-likelihood;
    the radius shrinks on poor agreement and grows on good agreement at the
    boundary.  Converged means every gradient component is within _GTOL.
    """
    radius = 1.0
    for it in range(_MAX_ITER + 1):
        ll, g, h, _ = point
        if np.max(np.abs(g)) <= _GTOL:
            return x, point, it, True
        if it == _MAX_ITER or radius < 1e-12 or not _finite(point):
            break
        s = _tr_step(-g, -h, radius)
        x_new = x + s
        if spec.cure:
            x_new[0] = min(max(x_new[0], -_LOGIT_BOX), _LOGIT_BOX)
            s = x_new - x
        pred = float(g @ s + 0.5 * s @ h @ s)
        new = _loglik_derivatives(spec, x_new, cache)
        gain = new[0] - ll
        noise = 1e-13 * max(1.0, abs(ll))
        finite = _finite(new)
        if finite and pred <= noise and gain >= -noise:
            rho = 1.0  # both below rounding: the model is the better guide
        else:
            rho = gain / pred if finite and pred > 0.0 else -math.inf
        step = float(np.linalg.norm(s))
        if rho < 0.25:
            radius = 0.25 * step
        elif rho > 0.75 and step >= 0.99 * radius:
            radius = min(2.0 * radius, _MAX_RADIUS)
        if rho > 0.1:
            x, point = x_new, new
    return x, point, it, False


def fit_model(sample: SurvivalSample, spec: FamilySpec) -> ModelFit:
    """Maximum-likelihood fit of ``spec`` to a right-censored sample.

    A cure fit first fits the family's non-cure model, whose cure score
    chooses where the cure fit starts; when that fit fails, the cure fit
    starts from ``initial_params``.
    """
    noncure = None
    if spec.cure:
        try:
            noncure = _fit(sample, FamilySpec(spec.family), None)
        except CurecheckError:
            pass
    return _fit(sample, spec, noncure)


def _fit(sample: SurvivalSample, spec: FamilySpec, noncure: ModelFit | None) -> ModelFit:
    """``fit_model`` given the family's non-cure fit for a cure spec.

    ``noncure`` is None for a non-cure spec, and for a cure spec whose
    non-cure fit failed.  A cure fit starts on the boundary, logit c = -40
    with the non-cure latency, when the non-cure fit converged with a cure
    score <= 0, and from ``initial_params`` otherwise.
    """
    if sample.n_events == 0:
        raise FitError("no events: fitting undefined")
    if sample.n < spec.n_params + 1:
        raise FitError(
            f"cannot fit {spec.label}: {spec.n_params + 1} records required, got {sample.n}"
        )
    cache = _checked_cache(spec, sample, fitting=True)

    score = noncure.cure_score if noncure is not None else None
    if score is not None and score <= 0.0:
        x = np.concatenate([[-_LOGIT_BOX], _transform(noncure.spec, noncure.params)])
    else:
        init = initial_params(spec, sample)
        check_params(spec, init)
        x = _transform(spec, init)
    point = _loglik_derivatives(spec, x, cache)
    if not math.isfinite(point[0]):
        raise FitError(f"initial parameters give a non-finite {spec.label} likelihood")

    x, point, n_iter, converged = _trust_region(spec, cache, x, point)

    ll, _, h, ls = point
    if spec.cure and x[0] <= -_LOGIT_BOX:
        se, se_diag = None, (
            "the cure fraction sits on the boundary c = 0, where logit c has no "
            "finite standard error"
        )
    else:
        se, se_diag = _standard_errors(-h)
    return ModelFit(
        spec=spec,
        params=_untransform(spec, x),
        log_likelihood=ll,
        aic=aic_value(spec.n_params, ll),
        n_params=spec.n_params,
        n=sample.n,
        n_events=sample.n_events,
        converged=converged,
        n_iter=n_iter,
        standard_errors=se,
        se_diagnostic=se_diag,
        cure_score=_cure_score(cache, ls) if converged and not spec.cure else None,
    )


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


def wald_intervals(fit: ModelFit, level: float = 0.95) -> WaldIntervals:
    """Wald confidence intervals, built on the transformed scale and mapped back.

    The cure fraction interval always lands in (0, 1) and latency intervals
    stay positive because the endpoints are back-transformed through the
    logit / log maps used during fitting.
    """
    if not (0.0 < level < 1.0):
        raise DomainError(f"confidence level must lie strictly in (0, 1), got {level!r}")
    if not fit.converged:
        return WaldIntervals(
            level=level,
            intervals=None,
            diagnostic="fit did not converge; intervals unavailable",
        )
    if fit.standard_errors is None:
        return WaldIntervals(
            level=level,
            intervals=None,
            diagnostic=fit.se_diagnostic
            or "standard errors unavailable for this fit",
        )
    # The lower tail: 0.5 * (1 + level) rounds to 1.0 for a level just below 1.
    z = -inv_normal_cdf(0.5 * (1.0 - level))
    x = _transform(fit.spec, fit.params)
    out: dict[str, tuple[float, float]] = {}
    for i, name in enumerate(fit.spec.param_names):
        lo_t = float(x[i]) - z * fit.standard_errors[i]
        hi_t = float(x[i]) + z * fit.standard_errors[i]
        if name == "cure_fraction":
            out[name] = (_expit(lo_t), _expit(hi_t))
        else:
            out[name] = (math.exp(lo_t), math.exp(hi_t))
    return WaldIntervals(level=level, intervals=out, diagnostic=None)
