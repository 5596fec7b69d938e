import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terramesh.errors import ConfigurationError, InputError
from terramesh.semantics import (
    ClassCatalog,
    class_predictive,
    dirichlet_update,
)

from oracles import predictive_by_quadrature


class TestCatalog:
    def test_index_order(self):
        cat = ClassCatalog(("a", "b", "c"))
        assert cat.k == 3
        assert cat.index("b") == 1

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            ClassCatalog(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ClassCatalog(())


class TestUpdate:
    def test_one_hot_both_modes(self):
        alpha = np.zeros(4)
        theta = np.array([[1.0, 0.0, 0.0, 0.0]])
        for mode in ("soft", "hard"):
            out = dirichlet_update(alpha, theta, mode=mode)
            assert np.array_equal(out, [1, 0, 0, 0])

    def test_soft_additive(self):
        out = dirichlet_update([2.0, 1.0], [[0.5, 0.5]], mode="soft")
        assert np.allclose(out, [2.5, 1.5], atol=0)

    def test_hard_counts_empirical(self, rng):
        labels = rng.random(1000) < 0.3  # True -> class 1
        thetas = np.zeros((1000, 2))
        thetas[np.arange(1000), labels.astype(int)] = 1.0
        out = dirichlet_update(np.zeros(2), thetas, mode="hard")
        counts = np.array([(~labels).sum(), labels.sum()], dtype=float)
        assert np.array_equal(out, counts)

    def test_hard_tie_breaks_to_lowest_index(self):
        out = dirichlet_update(np.zeros(3), [[0.4, 0.4, 0.2]], mode="hard")
        assert np.array_equal(out, [1, 0, 0])

    def test_mass_identity(self, rng):
        alpha = rng.uniform(0, 3, size=5)
        thetas = rng.dirichlet(np.ones(5), size=20)
        for mode in ("soft", "hard"):
            out = dirichlet_update(alpha, thetas, mode=mode)
            assert out.sum() == pytest.approx(alpha.sum() + 20, abs=1e-9)

    def test_order_invariance(self, rng):
        alpha = rng.uniform(0, 2, size=4)
        thetas = rng.dirichlet(np.ones(4), size=50)
        perm = rng.permutation(50)
        soft_a = dirichlet_update(alpha, thetas, mode="soft")
        soft_b = dirichlet_update(alpha, thetas[perm], mode="soft")
        assert np.allclose(soft_a, soft_b, atol=1e-12)
        hard_a = dirichlet_update(alpha, thetas, mode="hard")
        hard_b = dirichlet_update(alpha, thetas[perm], mode="hard")
        assert np.array_equal(hard_a, hard_b)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            dirichlet_update([-1.0, 0.0], [[1.0, 0.0]])
        with pytest.raises(InputError):
            dirichlet_update([0.0, 0.0], [[0.7, 0.6]])
        with pytest.raises(InputError):
            dirichlet_update([0.0, 0.0], [[np.nan, 1.0]])
        with pytest.raises(InputError):
            dirichlet_update([0.0, 0.0], [[1.0, 0.0]], mode="fuzzy")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3), st.integers(1, 10))
def test_update_mass_property(alpha, n):
    rng = np.random.default_rng(n)
    thetas = rng.dirichlet(np.ones(3), size=n)
    out = dirichlet_update(np.array(alpha), thetas, mode="soft")
    assert out.sum() == pytest.approx(sum(alpha) + n, abs=1e-9)
    assert np.all(out >= np.array(alpha) - 1e-12)


class TestPredictive:
    def test_normalization(self):
        assert np.allclose(class_predictive([3.0, 1.0]), [0.75, 0.25], atol=0)

    def test_uniform(self):
        assert np.allclose(class_predictive([5.0, 5.0, 5.0, 5.0]), 0.25, atol=0)

    def test_all_zero_signals_no_information(self):
        assert class_predictive(np.zeros(4)) is None

    def test_law_of_large_numbers(self, rng):
        probs = np.array([0.5, 0.2, 0.2, 0.1])
        draws = rng.choice(4, size=10_000, p=probs)
        thetas = np.eye(4)[draws]
        alpha = dirichlet_update(np.zeros(4), thetas, mode="hard")
        predictive = class_predictive(alpha)
        assert 0.5 * np.abs(predictive - probs).sum() < 0.02  # total variation

    def test_hard_mode_argmax_matches_modal_class(self, rng):
        probs = np.array([0.2, 0.5, 0.3])
        draws = rng.choice(3, size=2000, p=probs)
        alpha = dirichlet_update(np.zeros(3), np.eye(3)[draws], mode="hard")
        assert np.argmax(class_predictive(alpha)) == 1


class TestConjugacy:
    def test_predictive_matches_bayes_integral_smoke(self, rng):
        # the full sweep lives in the acceptance suite
        alpha = np.array([1.5, 2.0])
        counts = np.array([3.0, 1.0])
        expected = (alpha + counts) / (alpha + counts).sum()
        quad = predictive_by_quadrature(alpha, counts)
        assert np.allclose(quad, expected, atol=1e-6)

        alpha3 = np.array([1.0, 2.5, 1.2])
        counts3 = np.array([2.0, 0.0, 3.0])
        expected3 = (alpha3 + counts3) / (alpha3 + counts3).sum()
        quad3 = predictive_by_quadrature(alpha3, counts3, nodes=120)
        assert np.allclose(quad3, expected3, atol=1e-5)
