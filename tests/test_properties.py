import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terramesh.errors import (
    ConfigurationError,
    DegenerateDataError,
    InputError,
    InsufficientDataError,
)
from terramesh.mesh import MeshConfig, init_mesh
from terramesh.pipeline import EstimatorKind, estimate_properties
from terramesh.properties import (
    GRAVITY,
    ForceLog,
    PropertyMixture,
    PropertyModel,
    default_models_path,
    fit_and_select,
    friction_from_force,
    ks_statistic,
    load_default_models,
    load_models,
    save_models,
    smooth_exponential,
)

TABLE_ROWS = [
    ("concrete", 0.543, 0.065),
    ("grass", 0.577, 0.077),
    ("pebbles", 0.428, 0.059),
    ("rocks", 0.478, 0.113),
    ("wood", 0.372, 0.055),
    ("rubber", 0.616, 0.048),
    ("rug", 0.583, 0.068),
    ("snow", 0.390, 0.071),
    ("ice", 0.192, 0.046),
    ("laminated flooring", 0.311, 0.045),
]


class TestModels:
    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            PropertyModel("x", 0.5, 0.0)
        with pytest.raises(ConfigurationError):
            PropertyModel("x", float("nan"), 0.1)

    def test_shipped_file_matches_reference_table(self):
        catalog, models = load_default_models()
        assert catalog.k == 10
        for model, (name, mu, sigma) in zip(models, TABLE_ROWS):
            assert model.class_name == name
            assert model.mu == mu
            assert model.sigma == sigma

    def test_grass_and_wood_rows(self):
        catalog, models = load_default_models()
        grass = models[catalog.index("grass")]
        assert (grass.mu, grass.sigma) == (0.577, 0.077)
        wood = models[catalog.index("wood")]
        assert (wood.mu, wood.sigma) == (0.372, 0.055)

    def test_roundtrip_bitwise(self, tmp_path):
        shipped = default_models_path().read_bytes()
        _, models = load_default_models()
        out = tmp_path / "models.tsv"
        save_models(out, models)
        assert out.read_bytes() == shipped

    def test_rejects_zero_sigma_file(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("terramesh-friction-models v1\nice\t0.2\t0.0\n")
        with pytest.raises(ConfigurationError):
            load_models(bad)

    def test_rejects_duplicate_class(self, tmp_path):
        bad = tmp_path / "dup.tsv"
        bad.write_text("terramesh-friction-models v1\nice\t0.2\t0.1\nice\t0.3\t0.1\n")
        with pytest.raises(ConfigurationError):
            load_models(bad)

    def test_rejects_bad_magic(self, tmp_path):
        bad = tmp_path / "magic.tsv"
        bad.write_text("something-else v9\nice\t0.2\t0.1\n")
        with pytest.raises(ConfigurationError):
            load_models(bad)


def face_mixture(alpha, models):
    """The property mixture of a face whose class evidence is ``alpha``:
    ``PropertyMixture(estimates.known_weights[i], models)`` over the
    recursive estimate of a map holding it as face ``estimates.ids[i]``;
    ``None`` while the face is unknown."""
    mesh = init_mesh(MeshConfig(1.0, 1.0, len(models)))
    evidence = np.zeros_like(mesh.alpha)
    evidence[0] = alpha
    mesh.alpha = evidence
    estimates = estimate_properties(mesh, EstimatorKind.RECURSIVE, models)
    return PropertyMixture(estimates.known_weights[0], models) if estimates.known[0] else None


class TestMixture:
    def models(self):
        return [PropertyModel("concrete", 0.543, 0.065), PropertyModel("ice", 0.192, 0.046)]

    def test_one_hot_is_single_gaussian(self):
        _, models = load_default_models()
        alpha = np.zeros(10)
        alpha[8] = 4.0  # ice
        mix = face_mixture(alpha, models)
        assert mix.weights[8] == 1.0
        assert mix.mean() == pytest.approx(0.192)
        assert np.sqrt(mix.variance()) == pytest.approx(0.046)

    def test_all_zero_is_unknown(self):
        assert face_mixture(np.zeros(2), self.models()) is None

    def test_equal_weights_mean(self):
        mix = face_mixture(np.array([1.0, 1.0]), self.models())
        assert mix.mean() == pytest.approx((0.543 + 0.192) / 2)
        assert mix.mean() == pytest.approx(0.3675)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            PropertyMixture(np.full(3, 1.0 / 3.0), self.models())

    def test_nan_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="probability vector"):
            PropertyMixture([np.nan, 1.0], self.models())

    def test_weights_match_predictive(self, rng):
        from terramesh.semantics import class_predictive

        for _ in range(20):
            alpha = rng.uniform(0, 5, size=2)
            if alpha.sum() == 0:
                continue
            mix = face_mixture(alpha, self.models())
            assert np.allclose(mix.weights, class_predictive(alpha), atol=1e-12)

    def test_stats_single_component(self):
        mix = PropertyMixture([1.0], [PropertyModel("x", 0.4, 0.05)])
        assert mix.mean() == pytest.approx(0.4)
        assert mix.variance() == pytest.approx(0.05**2)

    def test_cdf_normalizes(self):
        mix = face_mixture(np.array([2.0, 3.0]), self.models())
        assert mix.cdf(10.0) == pytest.approx(1.0, abs=1e-12)
        assert mix.cdf(-10.0) == pytest.approx(0.0, abs=1e-12)

    def test_stats_match_monte_carlo(self, rng):
        mix = face_mixture(np.array([2.0, 1.0]), self.models())
        comp = rng.choice(2, size=1_000_000, p=mix.weights)
        mus = np.array([0.543, 0.192])
        sigmas = np.array([0.065, 0.046])
        samples = rng.normal(mus[comp], sigmas[comp])
        assert mix.mean() == pytest.approx(samples.mean(), rel=0.005)
        assert mix.variance() == pytest.approx(samples.var(), rel=0.005)

    def test_pdf_integrates_to_one(self):
        mix = face_mixture(np.array([1.0, 2.0]), self.models())
        x = np.linspace(-1.0, 2.0, 20001)
        assert np.trapezoid(mix.pdf(x), x) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(w=st.floats(0.0, 1.0), shift=st.floats(0.0, 0.5))
def test_mixture_mean_monotone_in_weight_shift(w, shift):
    # moving weight toward the higher-mean class never lowers the mean
    models = [PropertyModel("lo", 0.2, 0.05), PropertyModel("hi", 0.6, 0.05)]
    shift = min(shift, w)
    base = PropertyMixture([w, 1.0 - w], models)
    moved = PropertyMixture([w - shift, 1.0 - w + shift], models)
    assert moved.mean() >= base.mean() - 1e-12


class TestFriction:
    def test_constant_force_unit_friction(self):
        log = ForceLog(np.arange(100) * 0.01, np.full(100, 3.0 * GRAVITY), mass_kg=3.0)
        mu = friction_from_force(log)
        assert np.allclose(mu, 1.0, atol=1e-12)

    def test_concrete_mean_scenario(self):
        mass = 2.5
        log = ForceLog(np.arange(200) * 0.01, np.full(200, 0.543 * mass * GRAVITY), mass_kg=mass)
        mu = friction_from_force(log, cutoff_hz=2.0)
        assert np.allclose(mu, 0.543, atol=1e-12)

    def test_step_response_closed_form(self):
        x = np.concatenate([[0.0], np.ones(50)])
        a = 0.25
        y = smooth_exponential(x, a)
        n = np.arange(1, 51)
        expected = 1.0 - (1.0 - a) ** n
        assert np.allclose(y[1:], expected, atol=1e-9)
        assert y[0] == 0.0

    def test_filter_coefficient_from_cutoff(self):
        dt = 0.01
        fc = 5.0
        alpha = dt / (dt + 1.0 / (2 * np.pi * fc))
        x = np.concatenate([[0.0], np.ones(30)])
        log = ForceLog(np.arange(31) * dt, x, mass_kg=1.0 / GRAVITY)
        mu = friction_from_force(log, cutoff_hz=fc)
        expected = 1.0 - (1.0 - alpha) ** np.arange(1, 31)
        assert np.allclose(mu[1:], expected, atol=1e-9)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(InputError):
            ForceLog(np.arange(3.0), np.ones(3), mass_kg=0.0)


class TestKsStatistic:
    def test_minimum_attained_by_midpoint_interpolant(self):
        # a continuous CDF can at best thread the empirical steps at their
        # midpoints, giving exactly 1/(2n); zero distance is unattainable
        x = np.arange(1.0, 11.0)
        n = x.size

        def midpoint_cdf(v):
            return (np.searchsorted(x, v, side="left") + 0.5) / n

        d = ks_statistic(x, midpoint_cdf)
        assert d == pytest.approx(1.0 / (2 * n), abs=1e-12)


class TestFitAndSelect:
    def test_gaussian_recovery(self, rng):
        x = rng.normal(0.5, 0.05, size=10_000)
        sel = fit_and_select(x)
        assert sel.best_family == "gaussian"
        assert sel.params["gaussian"]["mu"] == pytest.approx(0.5, abs=0.002)
        assert sel.params["gaussian"]["sigma"] == pytest.approx(0.05, abs=0.002)

    def test_lognormal_recovery(self, rng):
        x = rng.lognormal(mean=-0.8, sigma=0.5, size=10_000)
        sel = fit_and_select(x)
        assert sel.best_family == "lognormal"

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_and_select(np.ones(10) + np.arange(10) * 0.01)

    def test_zero_spread_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_and_select(np.full(100, 0.5))

    def test_nonpositive_samples_skip_positive_families(self, rng):
        x = rng.normal(0.0, 1.0, size=500)
        assert (x <= 0).any()
        sel = fit_and_select(x)
        assert sel.best_family == "gaussian"
        assert sel.skipped["lognormal"] == "non-positive samples"
        assert sel.skipped["weibull"] == "non-positive samples"
        assert "lognormal" not in sel.ks

    def test_gaussian_scale_consistency(self, rng):
        x = rng.normal(0.4, 0.07, size=2_000)
        a = fit_and_select(x).params["gaussian"]
        b = fit_and_select(3.0 * x).params["gaussian"]
        assert b["mu"] == pytest.approx(3.0 * a["mu"], abs=1e-9)
        assert b["sigma"] == pytest.approx(3.0 * a["sigma"], abs=1e-9)

    def test_ks_scores_reported_for_all_applicable(self, rng):
        x = rng.normal(0.5, 0.05, size=1_000)
        sel = fit_and_select(x)
        assert set(sel.ks) == {"gaussian", "lognormal", "weibull"}
        assert all(0.0 <= v <= 1.0 for v in sel.ks.values())
