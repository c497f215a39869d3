import functools

import numpy as np
import pytest

from curecheck.simulate import (
    CompositeCensoring,
    SimulationConfig,
    restrict_followup,
    simulate_mixture,
)
from curecheck.survival import validate_sample


def records(sample):
    """The sample's (time, event) pairs as Python values, in canonical order."""
    return list(zip(sample.times.tolist(), sample.events.tolist()))


def rescaled(sample, factor):
    """The sample with every time multiplied by ``factor``, through ``validate_sample``."""
    return validate_sample(zip((sample.times * factor).tolist(), sample.events.tolist()))


def km_rows(curve):
    """(time, n_at_risk, n_events, survival) per event time, as Python values."""
    columns = (curve.time, curve.n_at_risk, curve.n_events, curve.survival)
    return list(zip(*(c.tolist() for c in columns)))


@pytest.fixture(scope="session")
def long_followup_sample():
    """1000 subjects with a long censored plateau.

    743 events spread over (0, 10], the remaining 257 all censored at
    17.7248.  The KM product telescopes, so the terminal survival is
    257/1000 = 0.2570 up to float accumulation.
    """
    recs = [((j + 1) / 743 * 10.0, True) for j in range(743)]
    recs += [(17.7248, False)] * 257
    return validate_sample(recs)


def _demo_mechanism(n, seed):
    """The README demo mechanism: Weibull(0.8, 0.8) latency, 40% cured,
    administrative censoring at 7.3 plus uniform dropout on (0, 14.6)."""
    return SimulationConfig(
        n=n, cure_fraction=0.4, family="weibull", latency=(0.8, 0.8),
        censoring=CompositeCensoring(time=7.3, dropout_maximum=14.6), seed=seed,
    )


@pytest.fixture(scope="session")
def plateau_samples():
    """The benchmark's assess_plateau data at a data seed: the demo mechanism
    at n = 5000."""

    @functools.cache
    def make(seed):
        return simulate_mixture(_demo_mechanism(5000, seed))[0]

    return make


@pytest.fixture(scope="session")
def short_days_samples():
    """The benchmark's assess_short_days data at a data seed: the demo
    mechanism at n = 10 000, times rounded up to whole days and follow-up cut
    at one year."""

    @functools.cache
    def make(seed):
        drawn = simulate_mixture(_demo_mechanism(10000, seed))[0]
        days = np.ceil(drawn.times * 365.25) / 365.25
        return restrict_followup(validate_sample(zip(days.tolist(), drawn.events.tolist())), 1.0)

    return make


@pytest.fixture(scope="session")
def plateau_sample(plateau_samples):
    """The benchmark's assess_plateau data at data seed 7."""
    return plateau_samples(7)


@pytest.fixture(scope="session")
def short_days_sample(short_days_samples):
    """The benchmark's assess_short_days data at data seed 7.  A non-cure
    model is selected; the lognormal cure fit sits on the boundary c = 0."""
    return short_days_samples(7)
