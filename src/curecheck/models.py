"""Parametric latency families, censored-data likelihoods, ML fitting.

Latency parameterizations (all parameters strictly positive):

    exponential   rate l            S0(t) = exp(-l t)
    weibull       shape a, scale s  S0(t) = exp(-(t/s)^a)
    gamma         shape k, rate b   S0(t) = 1 - P(k, b t)   (P = reg. lower inc. gamma)
    loglogistic   shape a, scale s  S0(t) = 1 / (1 + (t/s)^a)
    lognormal     scale s, sigma g  S0(t) = 1 - Phi(log(t/s) / g)

A cure spec adds cure_fraction c in (0,1), the long-run survivor
probability: S(t) = c + (1-c) S0(t) and f(t) = (1-c) f0(t).

Fitting maximizes the censored-data log-likelihood
sum_events log f + sum_censored log S over a transformed space
(logit of the cure fraction, log of each latency parameter) with a
Nelder-Mead simplex and deterministic restarts on non-convergence, then
finishes with finite-difference Newton steps for high-accuracy optima.
The likelihood is evaluated once per distinct (time, event) pair, each
term weighted by the number of records that share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .neldermead import minimize_simplex
from .special import (
    inv_normal_cdf,
    inv_reg_lower_gamma,
    log_gamma,
    normal_sf,
    reg_upper_gamma,
)
from .survival import SurvivalSample, kaplan_meier

# Family order doubles as the AIC tie-break order.
FAMILIES = ("exponential", "weibull", "gamma", "loglogistic", "lognormal")

_FAMILY_PARAM_NAMES = {
    "exponential": ("rate",),
    "weibull": ("shape", "scale"),
    "gamma": ("shape", "rate"),
    "loglogistic": ("shape", "scale"),
    "lognormal": ("scale", "sigma"),
}

# Families whose density is undefined or unbounded at t = 0 for some or
# all parameter values; events at exactly 0 are rejected, never nudged.
_ZERO_EVENT_FORBIDDEN = frozenset({"gamma", "loglogistic", "lognormal"})

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class FamilySpec:
    """A latency family plus the cure/non-cure flag."""

    family: str
    cure: bool = False

    def __post_init__(self):
        if self.family not in _FAMILY_PARAM_NAMES:
            raise DomainError(
                f"unknown family {self.family!r}; expected one of {', '.join(FAMILIES)}"
            )

    @property
    def latency_param_names(self) -> tuple[str, ...]:
        return _FAMILY_PARAM_NAMES[self.family]

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


def _latency_log_sf(family: str, theta: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """log S0(t) for a strictly nonnegative time array (zeros allowed)."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        if family == "exponential":
            (rate,) = theta
            return -rate * t
        if family == "weibull":
            shape, scale = theta
            return -np.power(t / scale, shape)
        if family == "gamma":
            shape, rate = theta
            q = reg_upper_gamma(shape, rate * t)
            return np.log(np.asarray(q, dtype=float))
        if family == "loglogistic":
            shape, scale = theta
            out = np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0) / scale), -np.inf)
            return -np.logaddexp(0.0, shape * out)
        if family == "lognormal":
            scale, sigma = theta
            pos = t > 0.0
            z = np.where(pos, np.log(np.where(pos, t, 1.0) / scale) / sigma, -np.inf)
            sf = normal_sf(z)
            return np.log(np.asarray(sf, dtype=float))
    raise DomainError(f"unknown family {family!r}")


def latency_quantile(family: str, theta: tuple[float, ...], u) -> float | np.ndarray:
    """Inverse of the latency CDF: the time t with 1 - S0(t) = u, u in [0, 1)."""
    scalar = np.isscalar(u)
    uu = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(uu)) or np.any(uu < 0.0) or np.any(uu >= 1.0):
        raise DomainError("quantile level must lie in [0, 1)")
    if family == "exponential":
        (rate,) = theta
        out = -np.log1p(-uu) / rate
    elif family == "weibull":
        shape, scale = theta
        out = scale * np.power(-np.log1p(-uu), 1.0 / shape)
    elif family == "gamma":
        shape, rate = theta
        flat = np.array([inv_reg_lower_gamma(shape, v) / rate for v in np.atleast_1d(uu).ravel()])
        out = flat.reshape(np.atleast_1d(uu).shape)
    elif family == "loglogistic":
        shape, scale = theta
        with np.errstate(divide="ignore"):
            out = scale * np.power(uu / (1.0 - uu), 1.0 / shape)
    elif family == "lognormal":
        scale, sigma = theta
        flat = np.array(
            [
                scale * math.exp(sigma * inv_normal_cdf(v)) if v > 0.0 else 0.0
                for v in np.atleast_1d(uu).ravel()
            ]
        )
        out = flat.reshape(np.atleast_1d(uu).shape)
    else:
        raise DomainError(f"unknown family {family!r}")
    if scalar:
        return float(np.asarray(out).reshape(()))
    return np.asarray(out, dtype=float)


def latency_survival(spec: FamilySpec, params: Params, t) -> float | np.ndarray:
    """S0(t) for the latency distribution of ``spec`` at time(s) t >= 0."""
    check_params(spec, params)
    scalar = np.isscalar(t)
    tt = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(tt)) or np.any(tt < 0.0):
        raise DomainError("evaluation time must be finite and >= 0")
    out = np.exp(_latency_log_sf(spec.family, params.latency, np.atleast_1d(tt)))
    out = np.clip(out, 0.0, 1.0)
    if scalar:
        return float(out[0])
    return out.reshape(tt.shape)


def population_survival(spec: FamilySpec, params: Params, t) -> float | np.ndarray:
    """S(t): latency survival for non-cure specs, c + (1-c) S0(t) for cure specs."""
    s0 = latency_survival(spec, params, t)
    if not spec.cure:
        return s0
    c = float(params.cure_fraction)  # type: ignore[arg-type]
    return c + (1.0 - c) * s0


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


def _event_log_pdf_sum(family: str, theta: tuple[float, ...], cache: _LikCache) -> float:
    """sum over events of log f0(t); -inf when the density vanishes there."""
    n_pos = cache.n_events - cache.n_zero_events
    if family == "exponential":
        (rate,) = theta
        return cache.n_events * math.log(rate) - rate * cache.sum_te
    if family == "weibull":
        shape, scale = theta
        log_scale = math.log(scale)
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
        u = shape * (cache.log_te - log_scale)
        return (
            zero_part
            + n_pos * (math.log(shape) - log_scale)
            + (shape - 1.0) * (cache.sum_log_te - n_pos * log_scale)
            - float(cache.we @ np.exp(u))
        )
    if family == "gamma":
        shape, rate = theta
        return (
            cache.n_events * (shape * math.log(rate) - log_gamma(shape))
            + (shape - 1.0) * cache.sum_log_te
            - rate * cache.sum_te
        )
    if family == "loglogistic":
        shape, scale = theta
        log_scale = math.log(scale)
        u = shape * (cache.log_te - log_scale)
        return (
            n_pos * (math.log(shape) - log_scale)
            + (shape - 1.0) * (cache.sum_log_te - n_pos * log_scale)
            - 2.0 * float(cache.we @ np.logaddexp(0.0, u))
        )
    if family == "lognormal":
        scale, sigma = theta
        z = (cache.log_te - math.log(scale)) / sigma
        return (
            -cache.sum_log_te
            - n_pos * (math.log(sigma) + 0.5 * _LOG_2PI)
            - 0.5 * float(cache.we @ (z * z))
        )
    raise DomainError(f"unknown family {family!r}")


def _censor_log_sf(family: str, theta: tuple[float, ...], cache: _LikCache) -> np.ndarray:
    """Array of log S0(t) over the distinct positive censoring times."""
    if cache.tc.size == 0:
        return cache.tc
    if family == "exponential":
        (rate,) = theta
        return -rate * cache.tc
    if family == "weibull":
        shape, scale = theta
        return -np.exp(shape * (cache.log_tc - math.log(scale)))
    if family == "gamma":
        shape, rate = theta
        return np.log(np.asarray(reg_upper_gamma(shape, rate * cache.tc), dtype=float))
    if family == "loglogistic":
        shape, scale = theta
        return -np.logaddexp(0.0, shape * (cache.log_tc - math.log(scale)))
    if family == "lognormal":
        scale, sigma = theta
        z = (cache.log_tc - math.log(scale)) / sigma
        return np.log(np.asarray(normal_sf(z), dtype=float))
    raise DomainError(f"unknown family {family!r}")


def _loglik_value(spec: FamilySpec, params: Params, cache: _LikCache) -> float:
    theta = tuple(float(v) for v in params.latency)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        ev = _event_log_pdf_sum(spec.family, theta, cache)
        log_sf = _censor_log_sf(spec.family, theta, cache)
        if spec.cure:
            c = float(params.cure_fraction)  # type: ignore[arg-type]
            cen = float(cache.wc @ np.log(c + (1.0 - c) * np.exp(log_sf)))
            ll = cache.n_events * math.log1p(-c) + ev + cen
        else:
            ll = ev + float(cache.wc @ log_sf)
    return ll if not math.isnan(ll) else -math.inf


def log_likelihood(spec: FamilySpec, params: Params, sample: SurvivalSample) -> float:
    """Censored-data log-likelihood: sum_events log f + sum_censored log S.

    Events at time exactly 0 are rejected for families whose density is
    undefined there; censored records at 0 contribute log S(0) = 0.
    """
    check_params(spec, params)
    cache = _build_cache(sample)
    if cache.n_zero_events and spec.family in _ZERO_EVENT_FORBIDDEN:
        raise DomainError(
            f"events at time exactly 0 are outside the support of the {spec.family} density"
        )
    return float(_loglik_value(spec, params, cache))


def aic_value(k: int, log_lik: float) -> float:
    return 2.0 * k - 2.0 * log_lik


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitOptions:
    """Knobs for fit_model; the defaults are used throughout the package."""

    ftol: float = 1e-9
    max_iter: int = 5000
    restarts: int = 3
    init: Params | None = None
    polish: bool = True  # finish with Newton steps


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
    n_restarts: int
    standard_errors: tuple[float, ...] | None = None
    se_diagnostic: str | None = None

    @property
    def param_dict(self) -> dict[str, float]:
        return self.params.as_dict(self.spec)


@dataclass(frozen=True)
class WaldIntervals:
    """Per-parameter confidence intervals, or a diagnostic when unavailable."""

    level: float
    intervals: dict[str, tuple[float, float]] | None
    diagnostic: str | None = None


def _expit(v: float) -> float:
    v = min(max(v, -40.0), 40.0)
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


def _make_objective(spec: FamilySpec, cache: _LikCache):
    def neg_loglik(x: np.ndarray) -> float:
        params = _untransform(spec, x)
        try:
            ll = _loglik_value(spec, params, cache)
        except DomainError:
            return math.inf
        return -ll if math.isfinite(ll) else math.inf

    return neg_loglik


def initial_params(spec: FamilySpec, sample: SurvivalSample) -> Params:
    """Method-of-moments-flavored starting values; cure from the KM plateau."""
    te = sample.times[sample.events]
    mean_te = float(te.mean()) if te.size else 1.0
    if mean_te <= 0.0:
        mean_te = 1.0
    family = spec.family
    if family == "exponential":
        latency: tuple[float, ...] = (1.0 / mean_te,)
    elif family == "weibull":
        latency = (1.0, mean_te)
    elif family == "gamma":
        latency = (1.0, 1.0 / mean_te)
    elif family == "loglogistic":
        latency = (1.0, mean_te)
    else:  # lognormal
        pos = te[te > 0.0]
        if pos.size:
            logs = np.log(pos)
            mu = float(logs.mean())
            sd = float(logs.std())
        else:
            mu, sd = 0.0, 1.0
        latency = (math.exp(mu), max(sd, 0.05))
    cure_fraction = None
    if spec.cure:
        km_tail = kaplan_meier(sample).final_survival
        cure_fraction = min(max(km_tail, 0.01), 0.99)
    return Params(latency=latency, cure_fraction=cure_fraction)


def _fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _fd_hessian(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    n = x.size
    H = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
    return H


def _newton_polish(f, x: np.ndarray, fx: float, max_steps: int = 12):
    """Damped Newton steps accepted only when they do not worsen f."""
    for _ in range(max_steps):
        g = _fd_gradient(f, x)
        if not np.all(np.isfinite(g)):
            break
        H = _fd_hessian(f, x)
        if not np.all(np.isfinite(H)):
            break
        try:
            np.linalg.cholesky(H)
            delta = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        step_norm = float(np.max(np.abs(delta)))
        if step_norm > 0.5:
            delta *= 0.5 / step_norm
            step_norm = 0.5
        x_new = x - delta
        f_new = f(x_new)
        if not math.isfinite(f_new) or f_new > fx:
            break
        x, fx = x_new, f_new
        if step_norm < 1e-10:
            break
    return x, fx


_RESTART_SHIFTS = (0.5, -0.75, 1.0)


def fit_model(
    sample: SurvivalSample, spec: FamilySpec, options: FitOptions | None = None
) -> ModelFit:
    """Maximum-likelihood fit of ``spec`` to a right-censored sample."""
    opts = options or FitOptions()
    if sample.n_events == 0:
        raise FitError("no events: fitting undefined")
    if sample.n < spec.n_params + 1:
        raise FitError(
            f"cannot fit {spec.label}: {spec.n_params + 1} records required, got {sample.n}"
        )
    cache = _build_cache(sample)
    if cache.n_zero_events and spec.family in _ZERO_EVENT_FORBIDDEN:
        raise DomainError(
            f"events at time exactly 0 are outside the support of the {spec.family} density"
        )
    if cache.n_zero_events and spec.family == "weibull":
        raise DomainError(
            "events at time exactly 0 make the weibull likelihood degenerate; "
            "remove or shift them before fitting"
        )

    init = opts.init if opts.init is not None else initial_params(spec, sample)
    check_params(spec, init)
    neg = _make_objective(spec, cache)
    x0 = _transform(spec, init)
    f0 = neg(x0)
    if not math.isfinite(f0):
        raise FitError(f"initial parameters give a non-finite {spec.label} likelihood")

    res = minimize_simplex(neg, x0, step=0.25, ftol=opts.ftol, max_iter=opts.max_iter)
    best_x, best_f = res.x, res.fx
    n_iter = res.n_iter
    converged = res.converged
    n_restarts = 0
    while not converged and n_restarts < opts.restarts:
        shift = _RESTART_SHIFTS[n_restarts % len(_RESTART_SHIFTS)]
        n_restarts += 1
        r = minimize_simplex(
            neg,
            best_x + shift,
            step=0.25 / (1 + n_restarts),
            ftol=opts.ftol,
            max_iter=opts.max_iter,
        )
        n_iter += r.n_iter
        if r.fx <= best_f:
            best_x, best_f = r.x, r.fx
        converged = r.converged

    if opts.polish:
        best_x, best_f = _newton_polish(neg, best_x, best_f)

    if best_f > f0:  # never return something worse than the start
        best_x, best_f = x0, f0

    params = _untransform(spec, best_x)
    ll = -best_f
    se, se_diag = _standard_errors(neg, best_x)
    return ModelFit(
        spec=spec,
        params=params,
        log_likelihood=ll,
        aic=aic_value(spec.n_params, ll),
        n_params=spec.n_params,
        n=sample.n,
        n_events=sample.n_events,
        converged=converged,
        n_iter=n_iter,
        n_restarts=n_restarts,
        standard_errors=se,
        se_diagnostic=se_diag,
    )


def _standard_errors(neg, x: np.ndarray):
    """SEs on the transformed scale from the observed information, or a reason."""
    H = _fd_hessian(neg, x)
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
    z = inv_normal_cdf(0.5 * (1.0 + level))
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
