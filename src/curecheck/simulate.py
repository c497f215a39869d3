"""Simulation of right-censored samples with a known cured fraction.

Each subject is cured with probability ``cure_fraction`` (no event, ever);
otherwise an event time is drawn from the latency family by inverse-CDF
sampling.  An independent censoring time U comes from the ``times(u)`` of a
censoring record (``CENSORING_MECHANISMS`` names each for the CLI) and the
observation is (min(T, U), T <= U), with T = +inf for a cured subject.  Both
arrays go straight into the check and sort shared with ``validate_sample``
and ``read_csv``.

Draws come from numpy's seeded PCG64 generator as plain uniforms; every
family transform is an explicit inverse CDF on all draws at once (the gamma
one through a vectorized solver, to 1e-10), so a given (config, seed)
reproduces byte-identical samples on one platform, numpy and Python version;
across platforms the draws follow the C library's exp, log and lgamma and
the normal quantile of CPython's ``statistics``.

``restrict_followup`` emulates an earlier analysis cutoff: observations
beyond the cutoff are censored there, everything else is untouched.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ValidationError
from .models import FamilySpec, Params, check_params, latency_quantile
from .survival import SurvivalSample, _canonical_sample, _is_number


@dataclass(frozen=True)
class AdministrativeCensoring:
    """Everyone still at risk is censored at a fixed study-end time."""

    time: float

    def times(self, u: np.ndarray) -> np.ndarray:
        return np.full(u.shape, self.time)

    def describe(self) -> str:
        return f"administrative(time={self.time})"


@dataclass(frozen=True)
class UniformCensoring:
    """Censoring times drawn uniformly on (0, maximum)."""

    maximum: float

    def times(self, u: np.ndarray) -> np.ndarray:
        return self.maximum * u

    def describe(self) -> str:
        return f"uniform(0, {self.maximum})"


@dataclass(frozen=True)
class ExponentialCensoring:
    """Censoring times drawn from an exponential with the given rate."""

    rate: float

    def times(self, u: np.ndarray) -> np.ndarray:
        return -np.log1p(-u) / self.rate

    def describe(self) -> str:
        return f"exponential(rate={self.rate})"


@dataclass(frozen=True)
class CompositeCensoring:
    """Study-end censoring plus uniform dropout on (0, dropout_maximum)."""

    time: float
    dropout_maximum: float

    def times(self, u: np.ndarray) -> np.ndarray:
        return np.minimum(self.time, self.dropout_maximum * u)

    def describe(self) -> str:
        return f"composite(administrative={self.time}, dropout=uniform(0, {self.dropout_maximum}))"


Censoring = AdministrativeCensoring | UniformCensoring | ExponentialCensoring | CompositeCensoring

CENSORING_MECHANISMS: dict[str, type] = {
    "administrative": AdministrativeCensoring,
    "uniform": UniformCensoring,
    "exponential": ExponentialCensoring,
    "composite": CompositeCensoring,
}


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    cure_fraction: float
    family: str
    latency: tuple[float, ...]
    censoring: Censoring
    seed: int


@dataclass(frozen=True)
class GroundTruth:
    """What a simulation drew: how many subjects were cured and not, how many
    events were observed, and the censoring mechanism described as text."""

    n_cured: int
    n_uncured: int
    n_events: int
    censoring: str


def _validate_config(config: SimulationConfig) -> None:
    if not _is_number(config.n, numbers.Integral) or config.n < 1:
        raise ValidationError(f"n must be a positive integer, got {config.n!r}")
    c = config.cure_fraction
    if not (_is_number(c, numbers.Real) and math.isfinite(c) and 0.0 <= c <= 1.0):
        raise ValidationError(f"cure_fraction must lie in [0, 1], got {c!r}")
    latency = tuple(config.latency)
    if not all(_is_number(v, numbers.Real) for v in latency):
        raise ValidationError(f"latency parameters must be real numbers, got {latency!r}")
    try:
        check_params(FamilySpec(config.family), Params(latency=latency))
    except DomainError as exc:
        raise ValidationError(str(exc)) from exc
    cen = config.censoring
    kind = next((k for k, cls in CENSORING_MECHANISMS.items() if isinstance(cen, cls)), None)
    if kind is None:
        raise ValidationError(f"unknown censoring mechanism {cen!r}")
    # A study that never ends censors nobody: only the administrative time may be +inf.
    may_be_inf = kind == "administrative"
    for f in fields(cen):
        v = getattr(cen, f.name)
        if not (_is_number(v, numbers.Real) and v > 0.0 and (math.isfinite(v) or may_be_inf)):
            rule = "> 0" if may_be_inf else "finite and > 0"
            raise ValidationError(f"{kind} censoring {f.name} must be {rule}, got {v!r}")
    if may_be_inf and math.isinf(cen.time) and c > 0.0:
        raise ValidationError(
            "administrative censoring at infinity is incompatible with a "
            "positive cure fraction: cured subjects would never be observed"
        )
    if not _is_number(config.seed, numbers.Integral) or config.seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {config.seed!r}")


def simulate_mixture(config: SimulationConfig) -> tuple[SurvivalSample, GroundTruth]:
    """Generate a seeded right-censored sample from the mixture mechanism."""
    _validate_config(config)
    rng = np.random.default_rng(config.seed)
    n = config.n
    # Three fixed blocks of uniforms keep the stream layout independent of
    # how many subjects happen to be cured.
    u_cure = rng.random(n)
    u_latency = rng.random(n)
    u_censor = rng.random(n)

    cured = u_cure < config.cure_fraction
    censor_times = config.censoring.times(u_censor)

    # A cured subject's event time is +inf: it is censored at its censoring time.
    t_event = np.full(n, math.inf)
    spec, params = FamilySpec(config.family), Params(tuple(config.latency))
    t_event[~cured] = latency_quantile(spec, params, u_latency[~cured])
    sample = _canonical_sample(np.minimum(t_event, censor_times), t_event <= censor_times)
    truth = GroundTruth(
        n_cured=int(np.count_nonzero(cured)),
        n_uncured=int(np.count_nonzero(~cured)),
        n_events=sample.n_events,
        censoring=config.censoring.describe(),
    )
    return sample, truth


def restrict_followup(sample: SurvivalSample, cutoff: float) -> SurvivalSample:
    """Censor every observation beyond ``cutoff`` at the cutoff.

    Records with time <= cutoff are unchanged (events stay events); records
    with time > cutoff become censored at exactly ``cutoff``.  Applying the
    same cutoff twice is a no-op.
    """
    if not (_is_number(cutoff, numbers.Real) and math.isfinite(cutoff) and cutoff > 0.0):
        raise DomainError(f"cutoff must be finite and > 0, got {cutoff!r}")
    beyond = sample.times > cutoff
    # Capped times stay sorted and the capped records, now censored, follow any event there.
    times = np.minimum(sample.times, float(cutoff))
    return SurvivalSample(times=times, events=sample.events & ~beyond)
