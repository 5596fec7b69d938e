import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terramesh.errors import ConfigurationError, InputError
from terramesh.semantics import (
    SCORE_TOL,
    ClassCatalog,
    class_predictive,
    dirichlet_update,
    non_probability_row,
)

from oracles import einsum_non_probability_row, predictive_by_quadrature


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


def near_tolerance_rows(rng, k, n, edges=(-SCORE_TOL, 0.0, SCORE_TOL)):
    """float32 probability rows rescaled to sum to one plus one of
    ``edges``, each off by up to 8 float32 ulps of one."""
    rows = rng.dirichlet(np.ones(k), size=n)
    target = 1.0 + rng.choice(edges, size=n) + rng.integers(-8, 9, size=n) * 2.0**-24
    return (rows * target[:, None]).astype(np.float32)


def special_rows(rng, k):
    """Valid float32 rows with one entry replaced by NaN, +inf, -inf, -0.0,
    a tiny or a plain negative value."""
    out = []
    for value in (np.nan, np.inf, -np.inf, -0.0, -1e-30, -0.5):
        row = rng.dirichlet(np.ones(k)).astype(np.float32)
        row[rng.integers(k)] = value
        out.append(row)
    if k > 1:
        # -0.0 entries in a row that sums to one
        row = np.full(k, -0.0, dtype=np.float32)
        row[0] = 1.0
        out.append(row)
    return np.array(out)


class TestScoreRule:
    """``non_probability_row`` decides float32 rows in float32 first; its
    verdicts stay those of the float64 rule."""

    @pytest.mark.parametrize("k", [1, 2, 10, 64])
    def test_rows_match_float64_rule(self, rng, k):
        rows = np.concatenate([near_tolerance_rows(rng, k, 600), special_rows(rng, k)])
        verdicts = [non_probability_row(row) for row in rows]
        assert verdicts == [einsum_non_probability_row(row) for row in rows]
        assert None in verdicts and 0 in verdicts

    @pytest.mark.parametrize("k", [1, 2, 10, 64])
    def test_frames_match_float64_rule(self, rng, k):
        rows = np.concatenate([near_tolerance_rows(rng, k, 600), special_rows(rng, k)])
        good = rows[[einsum_non_probability_row(row) is None for row in rows]]
        bad = rows[[einsum_non_probability_row(row) is not None for row in rows]]
        frame = good[rng.integers(good.shape[0], size=12 * 9)].reshape(12, 9, k)
        assert non_probability_row(frame) is einsum_non_probability_row(frame) is None
        # a frame whose rows all sum to one within a few ulps
        centred = near_tolerance_rows(rng, k, 12 * 9, edges=(0.0,)).reshape(12, 9, k)
        assert non_probability_row(centred) is einsum_non_probability_row(centred) is None
        # one bad row inside the valid frame, and a second one after it
        for row in bad:
            spoiled = frame.copy()
            at = rng.integers(12 * 9 - 1)
            spoiled.reshape(-1, k)[at] = row
            assert non_probability_row(spoiled) == einsum_non_probability_row(spoiled) == at
            spoiled.reshape(-1, k)[-1] = bad[0]
            assert non_probability_row(spoiled) == at

    def test_float64_input_is_unchanged(self, rng):
        rows = near_tolerance_rows(rng, 10, 600).astype(float)
        assert [non_probability_row(r) for r in rows] == [einsum_non_probability_row(r) for r in rows]


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
