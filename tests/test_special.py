"""Numerical kernels checked against scipy and against brute-force quadrature.

scipy is a test-only dependency here: the library computes erfc and log-gamma
with Python's ``math`` and ships its own implementations of the rest, so that
runtime needs nothing beyond numpy and the standard library.
"""

import math

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats as st
from scipy.integrate import quad

from curecheck.errors import DomainError
from curecheck.models import FamilySpec, Params, latency_quantile
from curecheck.special import (
    _GL_NODES,
    _GL_WEIGHTS,
    _SERIES_MAX_P,
    _SERIES_MAX_TERMS,
    _digamma_trigamma,
    _fraction,
    _log_q_shape,
    _log_reverse_sums,
    _reverse_sums,
    _series,
    _series_terms,
    _upper_gamma_quadrature,
    chi2_sf_1df,
    erfc,
    inv_reg_lower_gamma,
    log_gamma,
    log_normal_sf,
    normal_sf,
)

# ---------------------------------------------------------------------------
# log-gamma

def test_log_gamma_matches_scipy_over_wide_grid():
    xs = np.concatenate(
        [
            np.geomspace(1e-8, 1e-1, 40),
            np.linspace(0.1, 20.0, 200),
            np.geomspace(20.0, 1e8, 60),
        ]
    )
    for x in xs:
        got = log_gamma(float(x))
        want = sp.gammaln(x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert math.isfinite(log_gamma(1e304))
    assert log_gamma(1e306) == math.inf


def test_log_gamma_rejects_nonpositive_and_nonfinite():
    for bad in (0.0, -1.0, -0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            log_gamma(bad)


# ---------------------------------------------------------------------------
# erf / erfc and the normal distribution

def test_erfc_matches_scipy_in_relative_terms():
    # Relative accuracy matters in the far tail, where erfc underflows
    # gracefully; check out to z = 25 (erfc ~ 1e-273).
    zs = np.concatenate([np.linspace(-6.0, 6.0, 121), np.linspace(6.0, 25.0, 60)])
    got = erfc(zs)
    want = sp.erfc(zs)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_erf_symmetry_and_complement():
    assert erfc(0.0) == 1.0
    # NaN in gives NaN out, and leaves the other elements of an array alone.
    for f, ref in ((erfc, sp.erfc), (normal_sf, st.norm.sf)):
        assert math.isnan(f(math.nan))
        got = f(np.array([0.5, math.nan, -1.0]))
        assert math.isnan(got[1])
        np.testing.assert_allclose(got[[0, 2]], ref([0.5, -1.0]), rtol=1e-14)


def test_normal_sf_matches_scipy():
    zs = np.linspace(-8.0, 8.0, 321)
    np.testing.assert_allclose(normal_sf(zs), st.norm.sf(zs), rtol=1e-10, atol=1e-15)


def test_log_normal_sf_matches_scipy_far_into_the_tail():
    # normal_sf underflows to 0 near z = 38; its log stays finite and accurate.
    zs = np.concatenate([np.linspace(-8.0, 8.0, 161), np.geomspace(8.0, 1e4, 60)])
    np.testing.assert_allclose(log_normal_sf(zs), sp.log_ndtr(-zs), rtol=1e-12, atol=1e-15)
    assert np.all(np.isfinite(log_normal_sf(np.array([40.0, 1e6]))))


def test_log_normal_sf_gives_a_batch_below_the_far_tail_the_bits_of_a_mixed_batch():
    # A batch with every z / sqrt(2) <= 26 skips the far-tail masks; its
    # elements get the bits they get inside a batch that also holds far-tail
    # elements, and both batches match scipy.
    near = np.concatenate([np.linspace(-8.0, 8.0, 161), np.geomspace(8.0, 36.76, 40)])
    far = np.geomspace(37.0, 1e4, 20)
    assert near.max() / math.sqrt(2.0) <= 26.0 < far.min() / math.sqrt(2.0)
    mixed = np.empty(near.size + far.size)
    mixed[0::2][: far.size], mixed[1::2][: far.size] = near[: far.size], far
    mixed[2 * far.size:] = near[far.size:]
    alone, together = log_normal_sf(near), log_normal_sf(mixed)
    is_near = np.isin(mixed, near)
    assert alone.tobytes() == together[is_near].tobytes()
    for zs, got in ((near, alone), (mixed, together)):
        np.testing.assert_allclose(got, sp.log_ndtr(-zs), rtol=1e-12, atol=1e-15)


_LOGNORMAL = FamilySpec("lognormal"), Params((math.exp(1.2), 0.7))


def test_lognormal_quantile_matches_scipy_into_both_tails():
    # The normal quantile is the standard library's (Wichura's AS241), good
    # to rounding up to the last float below 1, where a solve on the CDF
    # scale loses digits because the CDF is flat there.
    us = [5e-324, 1e-300, 1e-12, 0.025, 0.5, 0.975, 1 - 1e-6, 1 - 1e-12, 1 - 2.0**-53]
    want = st.lognorm.ppf(us, 0.7, scale=math.exp(1.2))
    np.testing.assert_allclose(latency_quantile(*_LOGNORMAL, np.array(us)), want, rtol=1e-13)


# ---------------------------------------------------------------------------
# regularized incomplete gamma

def test_reg_gamma_matches_scipy():
    shapes = [0.05, 0.3, 0.8, 1.0, 2.5, 7.0, 35.0, 150.0]
    for a in shapes:
        xs = np.concatenate(
            [np.geomspace(1e-10, a, 50), np.linspace(a, 8 * a + 20, 60)]
        )
        np.testing.assert_allclose(
            np.exp(_log_q_shape(a, xs)[0]), sp.gammaincc(a, xs), rtol=1e-10, atol=1e-14
        )


def test_reg_gamma_against_quadrature():
    # Independent oracle: integrate t^(a-1) e^(-t) on [0, x] with Simpson's
    # rule on a dense grid and normalize by Gamma(a) to get P = 1 - Q.
    # Shapes >= 1 only so the integrand stays bounded at the origin.
    for a, x in [(1.0, 0.8), (1.5, 0.7), (2.0, 3.0), (4.5, 2.2)]:
        ts = np.linspace(1e-12, x, 200001)
        integrand = ts ** (a - 1.0) * np.exp(-ts)
        h = ts[1] - ts[0]
        simpson = h / 3.0 * (
            integrand[0]
            + integrand[-1]
            + 4.0 * integrand[1:-1:2].sum()
            + 2.0 * integrand[2:-1:2].sum()
        )
        want = 1.0 - simpson / math.gamma(a)
        assert math.exp(_log_q_shape(a, x)[0]) == pytest.approx(want, rel=1e-8)


def test_reg_gamma_complement_and_edges():
    for a in (0.4, 1.0, 3.7):
        xs = np.geomspace(1e-8, 50.0, 80)
        q = np.exp(_log_q_shape(a, xs)[0])
        np.testing.assert_allclose(sp.gammainc(a, xs) + q, 1.0, rtol=0, atol=1e-12)
        assert _log_q_shape(a, 0.0)[0] == 0.0
    with pytest.raises(DomainError):
        _log_q_shape(0.0, 1.0)
    with pytest.raises(DomainError):
        _log_q_shape(1.0, -1.0)


def _log_q_asymptotic(a, x):
    """log Q(a, x) from the large-x series Q = x^(a-1) e^(-x) / Gamma(a) * sum_k (a-1)...(a-k) / x^k."""
    term, total = 1.0, 1.0
    for k in range(1, 40):
        term *= (a - k) / x
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return (a - 1.0) * math.log(x) - x - sp.gammaln(a) + math.log(total)


def test_log_q_matches_log_of_q():
    for a in (0.05, 0.7, 1.0, 3.5, 40.0):
        xs = np.concatenate([np.geomspace(1e-10, a, 40), np.linspace(a, 700.0, 60)])
        np.testing.assert_allclose(
            _log_q_shape(a, xs)[0], np.log(sp.gammaincc(a, xs)), rtol=1e-10, atol=1e-14
        )
        assert _log_q_shape(a, 0.0)[0] == 0.0


@pytest.mark.parametrize("log_space", [False, True])
def test_reverse_sums_skip_the_zero_steps_left_of_the_peak_with_the_same_bits(log_space):
    # The steps between gap centres are 0 left of log a; the shift updates
    # start at the first gap right of it, and adding 0 to each skipped
    # moment would leave its bits as they are.
    rng = np.random.default_rng(11)
    m, k = 60, 23
    M = rng.uniform(0.1, 1.0, (3, m)) * np.exp(-rng.uniform(0.0, 30.0, m))
    if not log_space:
        M[1, :k] *= -1.0  # first moments left of the peak are < 0
    dc = np.concatenate((np.zeros(k), rng.uniform(0.0, 0.5, m - 1 - k)))
    if log_space:
        with np.errstate(divide="ignore"):
            every, skipped = (
                _log_reverse_sums(np.log(M), np.log(steps), start)
                for steps, start in ((dc, 0), (dc[k:], k))
            )
    else:
        every, skipped = (_reverse_sums(M.copy(), steps, start) for steps, start in ((dc, 0), (dc[k:], k)))
    assert np.all(np.isfinite(every)) and every.tobytes() == skipped.tobytes()


def test_log_q_is_finite_where_q_underflows():
    # Q(a, x) rounds to 0 from x ~ 745 on; its log stays finite and accurate.
    for a in (0.3, 1.0, 2.5, 9.0):
        xs = np.array([800.0, 1500.0, 1e4, 1e6])
        assert np.all(sp.gammaincc(a, xs) == 0.0)
        want = [_log_q_asymptotic(a, float(x)) for x in xs]
        np.testing.assert_allclose(_log_q_shape(a, xs)[0], want, rtol=1e-13)


def test_digamma_trigamma_match_scipy():
    for a in (1e-3, 0.05, 0.7, 1.0, 2.5, 9.99, 10.0, 37.3, 1e4):
        psi, psi1 = _digamma_trigamma(a)
        assert psi == pytest.approx(sp.digamma(a), rel=1e-13), a
        assert psi1 == pytest.approx(sp.polygamma(1, a), rel=1e-13), a


def _log_q_shape_oracle(a, x):
    """d/da log Q(a, x) and d2/da2 by quadrature: for T ~ Gamma(a, 1) they are
    E[log T | T > x] - psi(a) and Var[log T | T > x] - psi'(a)."""
    peak = max(x, a - 1.0)  # scales the weight to at most 1 on (x, inf)

    def moment(f):
        def integrand(t):
            return math.exp((a - 1.0) * math.log(t / peak) - (t - peak)) * f(t)

        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        return quad(integrand, x, x + 1.0, **opts)[0] + quad(integrand, x + 1.0, math.inf, **opts)[0]

    m0 = moment(lambda t: 1.0)
    mean = moment(math.log) / m0
    var = moment(lambda t: (math.log(t) - mean) ** 2) / m0
    return mean - sp.digamma(a), var - sp.polygamma(1, a)


def _assert_matches_oracles(a, xs, lq, d1, d2):
    """log Q against scipy (against the asymptotic series where Q underflows)
    and both shape derivatives against ``_log_q_shape_oracle``."""
    q = sp.gammaincc(a, xs)
    finite = q > 0.0
    np.testing.assert_allclose(lq[finite], np.log(q[finite]), rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(
        lq[~finite], [_log_q_asymptotic(a, float(x)) for x in xs[~finite]], rtol=1e-13
    )
    want = np.array([_log_q_shape_oracle(a, float(x)) for x in xs])
    np.testing.assert_allclose(d1, want[:, 0], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(d2, want[:, 1], rtol=1e-10, atol=1e-12)


# How many of the first x of each shape below make a batch that the series
# of P takes: the x = 900 of the whole batch sends it to the quadrature.
_SERIES_PREFIX = {0.3: 4, 1.0: 4, 2.5: 4, 10.0: 2}


def test_log_q_shape_derivatives_match_quadrature():
    # Both branches, the far tail where Q underflows, and integer shapes,
    # where the continued fraction ends but its derivative does not.  The
    # first x of each shape go again as a batch of their own, which the
    # series of P takes, and so do x up to a at a small shape.
    for a in (0.3, 1.0, 2.5, 10.0):
        xs = np.array([1e-3, 0.5 * a, a + 0.5, a + 1.0, 3.0 * a + 2.0, 60.0, 900.0])
        assert _series_terms(a, 900.0) is None
        _, d1, d2 = _log_q_shape(a, xs)
        want = np.array([_log_q_shape_oracle(a, float(x)) for x in xs])
        np.testing.assert_allclose(d1, want[:, 0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(d2, want[:, 1], rtol=1e-10, atol=1e-12)
        head = xs[: _SERIES_PREFIX[a]]
        assert _series_terms(a, float(head[-1])) is not None, a
        _assert_matches_oracles(a, head, *_log_q_shape(a, head))
    a, xs = 0.05, np.array([1e-3, 0.01, 0.025, 0.05])
    assert _series_terms(a, float(xs[-1])) is not None
    _assert_matches_oracles(a, xs, *_log_q_shape(a, xs))


def test_log_q_and_shape_derivatives_at_large_shapes():
    # Near x = a the mass of f(u) = exp(a u - e^u) sits within 1 / sqrt(a)
    # of log a: the panels there must shrink with it.  The oracle integrates
    # from x on and misses a peak far above x, so at x = a / 1000, where Q is
    # 1 to double precision, both derivatives are checked against 0 instead.
    for a in (300.0, 500.0):
        xs = a * np.array([1e-3, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 1.5, 3.0])
        lq, d1, d2 = _log_q_shape(a, xs)
        np.testing.assert_allclose(lq, np.log(sp.gammaincc(a, xs)), rtol=1e-10, atol=1e-14)
        want = np.array([(0.0, 0.0)] + [_log_q_shape_oracle(a, float(x)) for x in xs[1:]])
        np.testing.assert_allclose(d1, want[:, 0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(d2, want[:, 1], rtol=1e-10, atol=1e-12)


def _gap_maxima(a, xs):
    """Each gap's largest log f less the peak's a log a - a; the gaps run
    from each x to the next, the last to infinity."""
    e = np.clip(a, xs, np.append(xs[1:], np.inf))  # e^u where log f peaks on the gap
    return a * (1.0 + np.log(e / a)) - e


# One sweep from the right sums every gap, on either side of x = a.  The
# gap maxima of log f span more than 600 nats in the last two batches, so
# their sums run in log space: in the first of them they fall by more than
# 600 from x = 3 to x = 2000, in the second from the left alone, where the
# first moments are negative.  Each element must match the oracles, and
# its value alone (one gap, plain sums).  The series of P takes the last
# batch from ``_log_q_shape``, so the quadrature is called on every batch
# directly as well.
_SWEEP_BATCHES = {
    "below_a": (57.3, 57.3 * np.array([1e-3, 0.05, 0.3, 0.7, 0.95, 0.999])),
    "above_a": (2.5, np.array([2.6, 3.0, 5.0, 9.0, 20.0, 60.0])),
    "straddling_a": (10.0, np.array([0.5, 3.0, 9.5, 10.5, 14.0, 30.0])),
    "log_space_across_a": (2.5, np.array([1e-6, 0.4, 3.0, 9.0, 40.0, 150.0, 700.0, 900.0, 2000.0])),
    "log_space_below_a": (4.0, np.array([1e-300, 1e-150, 1e-20, 0.01, 1.0, 3.9])),
}


@pytest.mark.parametrize("name", list(_SWEEP_BATCHES))
def test_log_q_sweep_matches_oracles_and_lone_elements(name):
    a, xs = _SWEEP_BATCHES[name]
    _assert_matches_oracles(a, xs, *_upper_gamma_quadrature(a, xs))
    lq, d1, d2 = _log_q_shape(a, xs)
    _assert_matches_oracles(a, xs, lq, d1, d2)
    alone = np.array([_log_q_shape(a, xs[k : k + 1]) for k in range(xs.size)])[:, :, 0]
    np.testing.assert_allclose(np.stack([lq, d1, d2], 1), alone, rtol=1e-13, atol=1e-13)
    assert (np.ptp(_gap_maxima(a, xs)) > 600.0) == name.startswith("log_space")


def test_log_q_agrees_across_the_log_space_switch():
    # The gap maxima span 600 nats where x - 2.5 log(x / 2.5) - 2.5 = 600.
    # One last x just below that point keeps the sums plain and one just
    # above takes them to log space; the x they share agree either way.
    a, base = 2.5, np.array([1e-3, 0.5, 2.0, 3.0, 9.0, 40.0, 150.0])
    x_switch = 600.0
    for _ in range(50):
        x_switch = 602.5 + a * math.log(x_switch / a)
    batches = [np.append(base, x_switch - 0.5), np.append(base, x_switch + 0.5)]
    assert np.ptp(_gap_maxima(a, batches[0])) < 600.0 < np.ptp(_gap_maxima(a, batches[1]))
    plain, logged = (np.stack(_log_q_shape(a, xs)) for xs in batches)
    np.testing.assert_allclose(plain[:, :-1], logged[:, :-1], rtol=1e-13, atol=1e-13)


def _last_series_x(a, lo, hi):
    """The largest float x in (lo, hi] whose batch the series of P takes,
    given that it takes lo and not hi: bisection down to neighbouring floats."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if _series_terms(a, mid) is not None else (lo, mid)
    return lo


@pytest.mark.parametrize("bound", ["terms", "p"])
def test_log_q_agrees_across_the_series_switch(bound):
    # A batch goes to the series of P when it converges within
    # _SERIES_MAX_TERMS terms at its largest x and P is at most
    # _SERIES_MAX_P there.  At a = 20 the term cap binds first, at a = 0.5
    # the bound on P.  One last x just inside the bound takes the batch to
    # the series, the next float to the quadrature; the x they share agree.
    a = {"terms": 20.0, "p": 0.5}[bound]
    base = a * np.array([1e-4, 0.01, 0.1, 0.25, 0.4])
    inside = _last_series_x(a, float(base[-1]), 4.0 * a + 10.0)
    outside = float(np.nextafter(inside, math.inf))
    assert _series_terms(a, inside) is not None and _series_terms(a, outside) is None
    if bound == "terms":
        assert _series_terms(a, inside) == _SERIES_MAX_TERMS
        assert sp.gammainc(a, outside) < _SERIES_MAX_P
    else:
        assert sp.gammainc(a, inside) == pytest.approx(_SERIES_MAX_P, rel=1e-12)
    series, quadrature = (np.stack(_log_q_shape(a, np.append(base, x))) for x in (inside, outside))
    np.testing.assert_allclose(series[:, :-1], quadrature[:, :-1], rtol=1e-13, atol=1e-13)
    _assert_matches_oracles(a, np.append(base, inside), *series)


def test_series_is_not_taken_at_vanishing_or_huge_shapes():
    # P rounds to 1 at vanishing shapes, and shapes above 1e5 are beyond
    # where P is checked: both go to the quadrature, whatever the x, with
    # no error from the term loop where x / (a + k) underflows.
    for a in (1e-300, 1e-170, 1e-20, 1e-8):
        for x in (1e-300, 0.5, 3.0):
            assert _series_terms(a, x) is None, (a, x)
    for a in (1.0001e5, 1e170, 1e300, 1.7e308):
        for x in (7e-300, 1.0, 1e3):
            assert _series_terms(a, x) is None, (a, x)


def test_log_q_at_vanishing_shapes():
    # Fits bound log shape only at +-700.  Below a ~ 1e-162, a * a underflows
    # and psi(a) = -1 / a; log Q must still come out.
    for a in (1e-300, 1e-170, 1e-20):
        xs = np.array([0.5, 3.0])
        np.testing.assert_allclose(
            _log_q_shape(a, xs)[0], np.log(sp.gammaincc(a, xs)), rtol=1e-10, atol=1e-14
        )


def test_digamma_trigamma_where_the_shape_squared_underflows():
    psi, psi1 = _digamma_trigamma(1e-300)
    assert psi == pytest.approx(sp.digamma(1e-300), rel=1e-15) and psi1 == math.inf


def test_log_q_never_exceeds_zero_where_q_is_near_one():
    # log Q there is the sum of two O(1) terms, accurate to ~1e-16 absolute.
    for a in (2.5, 57.3, 300.0):
        x = a * np.array([1e-3, 1e-2])
        assert np.all(_log_q_shape(a, x)[0] <= 0.0), a
        assert _log_q_shape(a, float(x[0]))[0] <= 0.0, a


def test_log_q_at_infinite_and_nan_x():
    # Q(a, inf) = 0, so log Q is -inf; the shape derivatives stay NaN there,
    # so a fit evaluation where rate * t overflows is still rejected.
    lq, d1, d2 = _log_q_shape(2.5, np.array([0.0, math.inf, math.nan, math.inf]))
    assert lq[0] == d1[0] == d2[0] == 0.0
    assert lq[1] == lq[3] == -math.inf and math.isnan(lq[2])
    assert np.isnan(d1[1:]).all() and np.isnan(d2[1:]).all()
    assert _log_q_shape(2.5, math.inf)[0] == -math.inf
    # A strictly increasing, finite, positive batch skips the sort and
    # de-duplication; any other batch takes them.  Both give the same bits:
    # a permutation of the batch, and batches with an adjacent duplicate, a
    # 0 or inf at an end, or a NaN inside, agree with it element by element.
    rng = np.random.default_rng(5)
    for a in (0.4, 2.5, 57.3):
        x = np.unique(rng.exponential(a, 60))
        direct = np.array(_log_q_shape(a, x))
        order = rng.permutation(x.size)
        back = np.empty_like(direct)
        back[:, order] = _log_q_shape(a, x[order])
        assert back.tobytes() == direct.tobytes(), a
        edges = (
            (np.insert(x, 7, x[7]), np.insert(direct, 7, direct[:, 7], axis=1)),
            (np.insert(x, 0, 0.0), np.insert(direct, 0, 0.0, axis=1)),
            (np.append(x, math.inf), np.append(direct, [[-math.inf], [math.nan], [math.nan]], axis=1)),
            (np.insert(x, 30, math.nan), np.insert(direct, 30, math.nan, axis=1)),
        )
        for xs, want in edges:
            assert np.array(_log_q_shape(a, xs)).tobytes() == want.tobytes(), a


def test_gauss_legendre_constants_match_numpy():
    nodes, weights = np.polynomial.legendre.leggauss(6)
    np.testing.assert_allclose(_GL_NODES, nodes, rtol=0, atol=4e-16)
    np.testing.assert_allclose(_GL_WEIGHTS, weights, rtol=0, atol=4e-16)


def _series_outputs(a, x):
    """The series' sum below x = a + 1 and the continued fraction's at and
    above it, each NaN outside its own range."""
    ser, out = x < a + 1.0, np.full((2, x.size), np.nan)
    out[0, ser] = _series(a, x[ser])
    out[1, ~ser] = _fraction(a, x[~ser])
    return list(out)


_BATCH_SHAPES = [0.05, 0.7253, 1.0, 3.0, 57.3, 300.0]


def _batch(a):
    # x = 0, both branches of the series kernel, a tie, and at integer a the
    # continued fraction ends (an = 0).
    return np.concatenate([
        [0.0, 0.0],
        a * np.array([1e-3, 0.05, 0.5, 0.9, 0.9]),
        (a + 1.0) * np.array([0.999, 1.0, 1.01, 1.5, 3.0, 10.0, 100.0]),
    ])


def _orders(size):
    rng = np.random.default_rng(3)
    return (np.arange(size), np.arange(size)[::-1], rng.permutation(size))


@pytest.mark.parametrize("a", _BATCH_SHAPES)
def test_incomplete_gamma_element_is_independent_of_its_batch(a):
    # The series kernel's loops stop each element at its own first
    # convergence; each element must end on the bits it gets alone, in any
    # batch order.
    x = _batch(a)
    alone = [[o.tobytes() for o in _series_outputs(a, x[k : k + 1])] for k in range(x.size)]
    for order in _orders(x.size):
        batch = _series_outputs(a, x[order])
        for j, k in enumerate(order):
            assert [o[j : j + 1].tobytes() for o in batch] == alone[k], (a, x[k])


@pytest.mark.parametrize("a", _BATCH_SHAPES)
def test_log_q_element_does_not_depend_on_its_batch_order(a):
    # The quadrature sorts and de-duplicates its batch, so every order of
    # one batch gives the same bits.  Neighbouring x share panels, so an
    # element alone agrees with its batch value to rounding, not bit for bit.
    x = _batch(a)
    first = None
    for order in _orders(x.size):
        got = np.stack(_log_q_shape(a, x[order]))
        back = np.empty_like(got)
        back[:, order] = got
        if first is None:
            first = back
        assert back.tobytes() == first.tobytes(), a
    alone = np.stack([[float(v) for v in _log_q_shape(a, float(x[k]))] for k in range(x.size)], 1)
    np.testing.assert_allclose(first, alone, rtol=1e-13, atol=1e-13)


def test_inv_reg_lower_gamma_round_trip():
    for a in (0.3, 0.8, 1.0, 2.5, 9.0, 40.0):
        for u in (1e-12, 1e-8, 1e-4, 0.05, 0.5, 0.95, 1 - 1e-6):
            x = inv_reg_lower_gamma(a, u)
            back = sp.gammainc(a, x)
            assert back == pytest.approx(u, rel=1e-7, abs=1e-14), (a, u)


def test_inv_reg_lower_gamma_matches_scipy():
    for a in (0.3, 1.0, 4.2, 25.0):
        for u in (1e-8, 0.01, 0.4, 0.9, 0.999):
            got = inv_reg_lower_gamma(a, u)
            want = st.gamma.ppf(u, a)
            assert got == pytest.approx(want, rel=1e-7), (a, u)
    assert inv_reg_lower_gamma(2.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        inv_reg_lower_gamma(2.0, 1.0)


@pytest.mark.parametrize("a", [0.05, 0.7, 3.0, 40.0])
def test_gamma_quantile_matches_scipy_into_both_tails(a):
    # Below u = 1/2 the solve is on log P, from u = 1/2 up on -log Q, so
    # neither tail loses digits where P is flat.
    us = [1e-300, 1e-12, 0.5, 0.9, 1 - 1e-6, 1 - 1e-10, 1 - 1e-12, 1 - 2.0**-53]
    spec, params = FamilySpec("gamma"), Params((a, 0.8))
    want = st.gamma.ppf(us, a, scale=1 / 0.8)
    np.testing.assert_allclose(latency_quantile(spec, params, np.array(us)), want, rtol=1e-13)


@pytest.mark.parametrize("a", [1e4, 1e5])
def test_gamma_quantile_matches_scipy_at_large_shapes(a):
    # Near x = a the series' terms fall like exp(-k^2 / (2 a)), so it needs
    # about 9 sqrt(a) of them; past that the rounding of log P, about
    # 1e-16 a log a, sets the error.
    us = np.array([1e-300, 1e-10, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-10])
    np.testing.assert_allclose(inv_reg_lower_gamma(a, us), st.gamma.ppf(us, a), rtol=1e-12)


def test_incomplete_gamma_rejects_shapes_above_the_largest_checked():
    with pytest.raises(DomainError, match="a <= 100000"):
        inv_reg_lower_gamma(1.000001e5, 0.5)


@pytest.mark.parametrize("a", [0.05, 0.3, 0.7, 2.5, 40.0])
def test_gamma_quantile_element_does_not_depend_on_its_batch(a):
    # Each level is solved alone, on either side of a = 1: 200 seeded levels
    # give the same bits in a batch, in reverse and one at a time, and match
    # scipy.
    u = np.random.default_rng(7).random(200)
    x = inv_reg_lower_gamma(a, u)
    scalars = np.array([inv_reg_lower_gamma(a, float(v)) for v in u])
    assert x.tobytes() == scalars.tobytes()
    assert inv_reg_lower_gamma(a, u[::-1]).tobytes() == scalars[::-1].tobytes()
    np.testing.assert_allclose(x, st.gamma.ppf(u, a), rtol=1e-13)


# ---------------------------------------------------------------------------
# chi-square survival with one degree of freedom

def test_chi2_sf_1df_matches_scipy():
    for d in (0.0, 1e-6, 0.5, 1.0, 2.0, 3.84, 10.0, 40.0):
        assert chi2_sf_1df(d) == pytest.approx(st.chi2.sf(d, df=1), rel=1e-10, abs=1e-300)
    assert chi2_sf_1df(0.0) == 1.0
    for bad in (-0.1, math.nan):
        with pytest.raises(DomainError):
            chi2_sf_1df(bad)


# ---------------------------------------------------------------------------
# quantiles on arrays

def test_inverses_take_arrays_and_keep_their_shape():
    # Each element is solved alone: its bits do not depend on its batch, so a
    # simulated draw does not depend on the other draws.
    u = np.array([[1e-12, 0.05, 0.4], [0.5, 0.9, 1 - 1e-6]])
    order = np.array([4, 0, 5, 2, 1, 3])
    for a in (0.3, 2.5, 40.0):
        x = inv_reg_lower_gamma(a, u)
        assert x.shape == u.shape
        np.testing.assert_allclose(x, st.gamma.ppf(u, a), rtol=1e-7)
        scalars = np.array([inv_reg_lower_gamma(a, float(v)) for v in u.ravel()])
        assert x.ravel().tobytes() == scalars.tobytes(), a
        assert inv_reg_lower_gamma(a, u.ravel()[order]).tobytes() == scalars[order].tobytes(), a
    t = latency_quantile(*_LOGNORMAL, u)
    assert t.shape == u.shape
    scalars = np.array([latency_quantile(*_LOGNORMAL, float(v)) for v in u.ravel()])
    assert t.ravel().tobytes() == scalars.tobytes()
    assert latency_quantile(*_LOGNORMAL, u.ravel()[order]).tobytes() == scalars[order].tobytes()
    assert isinstance(latency_quantile(*_LOGNORMAL, 0.3), float)
    assert isinstance(inv_reg_lower_gamma(2.0, 0.3), float)


def test_inverse_edges_on_arrays():
    x = inv_reg_lower_gamma(2.0, np.array([0.0, 0.5, 0.0]))
    assert x[0] == 0.0 and x[2] == 0.0 and x[1] > 0.0
    assert inv_reg_lower_gamma(2.0, np.array([])).shape == (0,)
    for bad in (1.0, -0.1, math.nan):
        with pytest.raises(DomainError, match="0 <= u < 1"):
            inv_reg_lower_gamma(2.0, np.array([0.5, bad]))


def test_inverse_extremes():
    # A gamma root below the smallest positive float is 0, not an error.
    assert inv_reg_lower_gamma(0.01, 1e-12) == 0.0
    assert inv_reg_lower_gamma(0.05, 1e-300) == 0.0
    # Far tails and large shapes, where plain Newton from the bracket middle is slow.
    want = st.lognorm.ppf(1e-300, 0.7, scale=math.exp(1.2))
    assert latency_quantile(*_LOGNORMAL, 1e-300) == pytest.approx(want, rel=1e-12)
    assert inv_reg_lower_gamma(1000.0, 0.3) == pytest.approx(st.gamma.ppf(0.3, 1000.0), rel=1e-10)
    # A small shape's lower tail, where the bracket's lower end is the root
    # to within the rounding of its own sum.
    u = 0.16264659798145154
    np.testing.assert_allclose(inv_reg_lower_gamma(0.05, u), st.gamma.ppf(u, 0.05), rtol=1e-13)
    assert inv_reg_lower_gamma(0.001, 0.5) == pytest.approx(st.gamma.ppf(0.5, 0.001), rel=1e-9)
