"""The package's closed forms against scipy, an independent reference.

scipy is a test-only dependency: the program computes the normal CDF, the
low-friction scores it yields, the force-log filter, the three family CDFs,
the KS statistic and the Weibull fit itself, and these tests hold each one
to scipy's.
"""

import numpy as np
import pytest
from scipy import signal, special, stats

from terramesh.evaluation import low_friction_scores
from terramesh.properties import (
    FAMILY_CDFS,
    fit_and_select,
    ks_statistic,
    load_default_models,
    ndtr,
    smooth_exponential,
    weibull_fit,
)

from oracles import estimates_from_dense


def test_ndtr_matches_scipy():
    z = np.linspace(-40.0, 40.0, 80_001)
    ours, ref = ndtr(z), special.ndtr(z)
    normal = ref >= np.finfo(float).tiny
    np.testing.assert_allclose(ours[normal], ref[normal], rtol=1e-9, atol=0.0)
    # below z of about -37.5 scipy's result is subnormal or flushed to zero
    assert np.all(ours[~normal] < np.finfo(float).tiny)
    assert ndtr(0.0) == 0.5
    assert np.array_equal(ndtr(z[1:].reshape(4, -1)), ours[1:].reshape(4, -1))


@pytest.mark.parametrize("seed", range(5))
def test_smooth_exponential_is_lfilter_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(20.0, 4.0, size=4_000) + 3.0 * np.sin(np.arange(4_000) / 40.0)
    a = float(rng.uniform(0.01, 0.9))
    b_coef, a_coef = [a], [1.0, -(1.0 - a)]
    zi = signal.lfiltic(b_coef, a_coef, y=[x[0]], x=[x[0]])
    ref, _ = signal.lfilter(b_coef, a_coef, x, zi=zi)
    assert np.array_equal(smooth_exponential(x, a), ref)


def test_family_cdfs_match_scipy():
    v = np.linspace(1e-3, 4.0, 2_001)
    for mu, sigma in ((0.5, 0.05), (-1.0, 2.0)):
        np.testing.assert_allclose(
            FAMILY_CDFS["gaussian"](v, mu=mu, sigma=sigma), stats.norm.cdf(v, loc=mu, scale=sigma), rtol=0, atol=1e-12
        )
    for shape, scale in ((0.5, 0.45), (1.3, 2.0)):
        np.testing.assert_allclose(
            FAMILY_CDFS["lognormal"](v, shape=shape, scale=scale),
            stats.lognorm.cdf(v, shape, loc=0.0, scale=scale),
            rtol=0,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            FAMILY_CDFS["weibull"](v, shape=shape, scale=scale),
            stats.weibull_min.cdf(v, shape, loc=0.0, scale=scale),
            rtol=0,
            atol=1e-12,
        )


@pytest.mark.parametrize("shape, scale, n", [(1.6, 0.5, 10_000), (0.7, 3.0, 500), (4.5, 0.2, 4_000), (1.0, 1e3, 60)])
def test_weibull_fit_is_the_exact_mle(shape, scale, n):
    rng = np.random.default_rng(n)
    x = stats.weibull_min.rvs(shape, scale=scale, size=n, random_state=rng)
    c, s = weibull_fit(x)
    u = x / x.max()
    residual = 1.0 / c + np.log(u).mean() - (u**c @ np.log(u)) / (u**c).sum()
    assert abs(residual) < 1e-12
    assert s == pytest.approx(np.mean(x**c) ** (1.0 / c), rel=1e-12)
    c_ref, _, s_ref = stats.weibull_min.fit(x, floc=0.0)
    loglik = stats.weibull_min.logpdf(x, c, scale=s).sum()
    assert loglik >= stats.weibull_min.logpdf(x, c_ref, scale=s_ref).sum()
    assert c == pytest.approx(c_ref, rel=1e-4)
    assert s == pytest.approx(s_ref, rel=1e-4)


def test_weibull_fit_survives_large_values():
    # x^c of the raw samples overflows float64; the fit divides by the maximum first
    x = stats.weibull_min.rvs(8.0, scale=1e200, size=1_000, random_state=np.random.default_rng(3))
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(x**8.0))
    c, s = weibull_fit(x)
    assert c == pytest.approx(8.0, rel=0.1)
    assert s == pytest.approx(1e200, rel=0.05)


def test_fit_and_select_ks_matches_scipy_cdfs():
    x = np.random.default_rng(11).lognormal(-0.8, 0.4, size=3_000)
    sel = fit_and_select(x)
    g, ln, w = sel.params["gaussian"], sel.params["lognormal"], sel.params["weibull"]
    refs = {
        "gaussian": lambda v: stats.norm.cdf(v, loc=g["mu"], scale=g["sigma"]),
        "lognormal": lambda v: stats.lognorm.cdf(v, ln["shape"], loc=0.0, scale=ln["scale"]),
        "weibull": lambda v: stats.weibull_min.cdf(v, w["shape"], loc=0.0, scale=w["scale"]),
    }
    for family, cdf in refs.items():
        assert sel.ks[family] == pytest.approx(stats.kstest(x, cdf).statistic, abs=1e-12)


def test_low_friction_scores_are_cdf_at_threshold():
    catalog, models = load_default_models()
    classes = [catalog.index("ice"), catalog.index("concrete")]
    est = estimates_from_dense(np.eye(len(models))[classes], np.ones(2, dtype=bool))
    scores = low_friction_scores(est, models)
    norm = stats.norm
    assert scores[0] == pytest.approx(norm.cdf(0.5, 0.192, 0.046), abs=1e-12)
    assert scores[1] == pytest.approx(norm.cdf(0.5, 0.543, 0.065), abs=1e-12)


class TestKsStatistic:
    def test_bounds(self, rng):
        x = rng.normal(0, 1, size=200)
        d = ks_statistic(x, lambda v: stats.norm.cdf(v))
        assert 0.0 <= d <= 1.0

    def test_matches_scipy(self, rng):
        x = rng.normal(0.3, 0.8, size=500)
        d = ks_statistic(x, lambda v: stats.norm.cdf(v, 0.3, 0.8))
        ref = stats.kstest(x, lambda v: stats.norm.cdf(v, 0.3, 0.8)).statistic
        assert d == pytest.approx(ref, abs=1e-12)

    def test_lower_bound_over_random_cdfs(self, rng):
        x = np.sort(rng.normal(size=50))
        for loc in (-1.0, 0.0, 0.5):
            d = ks_statistic(x, lambda v: stats.norm.cdf(v, loc, 1.0))
            assert d >= 1.0 / (2 * x.size) - 1e-15


class TestFitAndSelect:
    def test_weibull_recovery(self, rng):
        x = stats.weibull_min.rvs(1.6, scale=0.5, size=10_000, random_state=rng)
        sel = fit_and_select(x)
        assert sel.best_family == "weibull"
