import numpy as np
import pytest

from curecheck.simulate import (
    CompositeCensoring,
    SimulationConfig,
    restrict_followup,
    simulate_mixture,
)
from curecheck.survival import validate_sample


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


@pytest.fixture(scope="session")
def plateau_sample():
    """The benchmark's assess_plateau data: the README demo mechanism
    (Weibull(0.8, 0.8) latency, 40% cured, administrative censoring at 7.3
    plus uniform dropout on (0, 14.6)) at n = 5000, data seed 7."""
    config = SimulationConfig(
        n=5000, cure_fraction=0.4, family="weibull", latency=(0.8, 0.8),
        censoring=CompositeCensoring(time=7.3, dropout_maximum=14.6), seed=7,
    )
    return simulate_mixture(config)[0]


@pytest.fixture(scope="session")
def short_days_sample():
    """The benchmark's assess_short_days data: the same mechanism at
    n = 10 000, data seed 7, times rounded up to whole days and follow-up cut
    at one year.  A non-cure model is selected; the lognormal cure fit sits
    on the boundary c = 0."""
    config = SimulationConfig(
        n=10000, cure_fraction=0.4, family="weibull", latency=(0.8, 0.8),
        censoring=CompositeCensoring(time=7.3, dropout_maximum=14.6), seed=7,
    )
    drawn = simulate_mixture(config)[0]
    days = np.ceil(drawn.times * 365.25) / 365.25
    return restrict_followup(validate_sample(zip(days.tolist(), drawn.events.tolist())), 1.0)
