import csv
import math

import numpy as np
import pytest

from terramesh.errors import EvaluationError
from terramesh.evaluation import (
    KL_BLOCK_ROWS,
    BenchRow,
    accuracy,
    bench_update,
    evaluate_estimator,
    kl_mixture,
    kl_per_face,
    kl_summary,
    low_friction_scores,
    pr_curve,
    write_bench_csv,
    write_pr_csv,
    write_summary_csv,
)
from terramesh.properties import PropertyMixture, PropertyModel, load_default_models

from oracles import (
    dense_accuracy,
    dense_kl_per_face,
    dense_low_friction_scores,
    dense_pr_curve,
    estimates_from_dense,
    gaussian_kl_reference,
)


def polygon_area(polygon) -> float:
    """Shoelace area of a simple polygon."""
    x, y = np.asarray(polygon, dtype=float).T
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def single(mu, sigma):
    return PropertyMixture([1.0], [PropertyModel("x", mu, sigma)])


def one_hot_estimates(classes, k, known=None):
    classes = np.asarray(classes)
    weights = np.eye(k)[classes].astype(float)
    if known is None:
        known = np.ones(classes.size, dtype=bool)
    weights[~known] = 0.0
    return estimates_from_dense(weights, np.asarray(known))


class TestKlMixture:
    def test_identical_mixtures_zero(self, rng):
        _, models = load_default_models()
        for _ in range(5):
            w = rng.dirichlet(np.ones(10))
            mix = PropertyMixture(w, models)
            assert kl_mixture(mix, mix) < 1e-6

    def test_single_gaussians_match_closed_form(self, rng):
        # parameter ranges follow the friction models the grid was sized for
        for _ in range(20):
            mu1, mu2 = rng.uniform(0.15, 0.85, size=2)
            s1, s2 = rng.uniform(0.03, 0.12, size=2)
            got = kl_mixture(single(mu1, s1), single(mu2, s2))
            assert got == pytest.approx(gaussian_kl_reference(mu1, s1, mu2, s2), abs=1e-4)

    def test_concrete_vs_ice_both_directions(self):
        concrete = single(0.543, 0.065)
        ice = single(0.192, 0.046)
        assert kl_mixture(concrete, ice) == pytest.approx(
            gaussian_kl_reference(0.543, 0.065, 0.192, 0.046), abs=1e-4
        )
        assert kl_mixture(ice, concrete) == pytest.approx(
            gaussian_kl_reference(0.192, 0.046, 0.543, 0.065), abs=1e-4
        )

    def test_nonnegative_on_random_mixtures(self, rng):
        _, models = load_default_models()
        for _ in range(20):
            p = PropertyMixture(rng.dirichlet(np.ones(10)), models)
            q = PropertyMixture(rng.dirichlet(np.ones(10)), models)
            assert kl_mixture(p, q) >= 0.0

    def test_no_overlap_reports_infinity(self):
        p = single(0.5, 0.05)
        q = single(-40.0, 0.001)  # no mass anywhere on the grid near p
        assert kl_mixture(p, q) == np.inf

    def test_per_face_vectorized_matches_scalar(self, rng):
        _, models = load_default_models()
        truth = rng.integers(0, 10, size=12)
        weights = rng.dirichlet(np.ones(10), size=12)
        known = rng.random(12) < 0.8
        weights[~known] = 0.0
        est = estimates_from_dense(weights, known)
        per_face = kl_per_face(est, truth, models)
        for i in range(12):
            if not known[i]:
                assert np.isnan(per_face[i])
                continue
            p = single(models[truth[i]].mu, models[truth[i]].sigma)
            q = PropertyMixture(weights[i], models)
            assert per_face[i] == pytest.approx(kl_mixture(p, q), rel=1e-9)

    def test_blocked_matches_dense_oracle(self, rng):
        # several blocks mixed with unknown faces and a known face with no
        # mass must all come out as in the one-grid form, bit for bit
        _, models = load_default_models()
        n = 1000
        truth = rng.integers(0, 10, size=n)
        weights = rng.dirichlet(np.full(10, 0.3), size=n)
        known = rng.random(n) < 0.9
        weights[~known] = 0.0
        no_mass = np.flatnonzero(known)[500]
        weights[no_mass] = 0.0
        per_face = kl_per_face(estimates_from_dense(weights, known), truth, models)
        assert np.array_equal(per_face, dense_kl_per_face(weights, known, truth, models), equal_nan=True)
        assert per_face[no_mass] == np.inf
        assert np.isnan(per_face[~known]).all()

    def test_lone_tail_row_matches_dense_oracle(self, rng):
        # one row is left after whole blocks; on its own that row's product
        # would round differently from the dense product
        _, models = load_default_models()
        n = 4 * KL_BLOCK_ROWS + 1
        for _ in range(30):
            truth = rng.integers(0, 10, size=n)
            weights = rng.dirichlet(np.ones(10), size=n)
            known = np.ones(n, dtype=bool)
            per_face = kl_per_face(estimates_from_dense(weights, known), truth, models)
            assert np.array_equal(per_face, dense_kl_per_face(weights, known, truth, models))

    def test_memory_does_not_grow_with_known_faces(self, rng):
        import tracemalloc

        _, models = load_default_models()
        n = 4000
        truth = rng.integers(0, 10, size=n)
        est = estimates_from_dense(rng.dirichlet(np.ones(10), size=n), np.ones(n, dtype=bool))
        tracemalloc.start()
        try:
            kl_per_face(est, truth, models)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense (faces x 4096) float64 grid would be 131 MB
        assert peak < 16e6

    def test_summary_requires_known_faces(self):
        _, models = load_default_models()
        est = estimates_from_dense(np.zeros((4, 10)), np.zeros(4, dtype=bool))
        with pytest.raises(EvaluationError):
            kl_summary(est, np.zeros(4, dtype=int), models)


class TestPrCurve:
    def setup_method(self):
        self.catalog, self.models = load_default_models()
        self.ice = self.catalog.index("ice")        # low friction
        self.concrete = self.catalog.index("concrete")  # high friction

    def test_perfect_estimates_ap_one(self):
        truth = np.array([self.ice] * 6 + [self.concrete] * 14)
        est = one_hot_estimates(truth, 10)
        pr = pr_curve(est, truth, self.models, positive="low")
        assert pr.average_precision == pytest.approx(1.0, abs=1e-9)
        assert np.all((0 <= pr.precision) & (pr.precision <= 1))
        assert np.all((0 <= pr.recall) & (pr.recall <= 1))

    def test_constant_detector_ap_equals_base_rate(self):
        truth = np.array([self.ice] * 5 + [self.concrete] * 15)
        weights = np.tile(np.full(10, 0.1), (20, 1))
        est = estimates_from_dense(weights, np.ones(20, dtype=bool))
        pr = pr_curve(est, truth, self.models, positive="low")
        base = 5 / 20
        assert pr.average_precision == pytest.approx(base, abs=1.0 / 20)
        assert np.allclose(pr.precision, base, atol=1e-12)

    def test_unknown_faces_count_as_missed_positives(self):
        truth = np.array([self.ice] * 4 + [self.concrete] * 4)
        known = np.array([True, True, False, False, True, True, True, True])
        est = one_hot_estimates(truth, 10, known=known)
        pr = pr_curve(est, truth, self.models, positive="low")
        # only half the positives are ever retrievable
        assert pr.recall.max() == pytest.approx(0.5)
        # at each threshold, two of the four positives are found and two missed
        assert np.array_equal(pr.recall, [0.5, 0.5])
        assert pr.average_precision <= 0.5 + 1e-9

    def test_high_friction_direction(self):
        truth = np.array([self.ice] * 5 + [self.concrete] * 5)
        est = one_hot_estimates(truth, 10)
        pr = pr_curve(est, truth, self.models, positive="high")
        assert pr.average_precision == pytest.approx(1.0, abs=1e-9)

    def test_empty_faces_rejected(self):
        est = one_hot_estimates(np.array([], dtype=int), 10)
        with pytest.raises(EvaluationError):
            pr_curve(est, np.array([], dtype=int), self.models)

    def test_no_positive_faces_empty_curve(self):
        truth = np.array([self.concrete] * 5)
        est = one_hot_estimates(truth, 10)
        pr = pr_curve(est, truth, self.models, positive="low")
        for arr in (pr.thresholds, pr.recall, pr.precision):
            assert arr.shape == (0,) and arr.dtype == np.float64
        assert math.isnan(pr.average_precision)
        # the other class still has its curve
        assert pr_curve(est, truth, self.models, positive="high").average_precision == pytest.approx(1.0)

    def test_unknown_positive_class_rejected(self):
        truth = np.array([self.ice, self.concrete])
        with pytest.raises(EvaluationError, match="unknown positive class"):
            pr_curve(one_hot_estimates(truth, 10), truth, self.models, positive="middle")


def assert_same_curve(got, want):
    for name in ("thresholds", "recall", "precision"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.average_precision == want.average_precision


class TestAgainstDenseOracle:
    """The known-row curve and accuracy against the dense originals in
    :mod:`oracles`, bit for bit."""

    def setup_method(self):
        _, self.models = load_default_models()

    def random_case(self, rng, f, p_known):
        # weights drawn from a pool of 6 rows, so that many scores tie
        pool = np.vstack([rng.dirichlet(np.ones(10), size=4), np.eye(10)[[0, 4]]])
        weights = pool[rng.integers(0, pool.shape[0], size=f)]
        known = rng.random(f) < p_known
        weights[~known] = 0.0
        return estimates_from_dense(weights, known), rng.integers(0, 10, size=f)

    def check(self, est, truth):
        for positive in ("low", "high"):
            assert_same_curve(
                pr_curve(est, truth, self.models, positive), dense_pr_curve(est, truth, self.models, positive)
            )
        assert accuracy(est, truth, self.models) == dense_accuracy(est, truth, self.models)

    @pytest.mark.parametrize("f, p_known", [(40, 0.7), (500, 0.9), (3000, 0.3)])
    def test_random_tied_estimates(self, rng, f, p_known):
        for _ in range(5):
            est, truth = self.random_case(rng, f, p_known)
            assert 0 < est.ids.size < f
            assert np.unique(low_friction_scores(est, self.models)).size < est.ids.size  # ties
            self.check(est, truth)

    def test_single_known_face(self, rng):
        for face in (0, 7, 19):
            known = np.arange(20) == face
            weights = np.where(known[:, None], rng.dirichlet(np.ones(10)), 0.0)
            self.check(estimates_from_dense(weights, known), rng.integers(0, 10, size=20))

    def test_no_known_face(self, rng):
        est = estimates_from_dense(np.zeros((20, 10)), np.zeros(20, dtype=bool))
        truth = rng.integers(0, 10, size=20)
        self.check(est, truth)
        pr = pr_curve(est, truth, self.models, "low")
        assert pr.average_precision == 0.0 and pr.recall.size == 0
        assert accuracy(est, truth, self.models) == 0.0

    def test_scores_are_the_dense_scores_at_ids(self, rng):
        est, _ = self.random_case(rng, 200, 0.6)
        rows = low_friction_scores(est, self.models)
        assert rows.shape == est.ids.shape
        assert np.array_equal(rows, dense_low_friction_scores(est, self.models)[est.ids])


class TestAccuracy:
    def setup_method(self):
        self.catalog, self.models = load_default_models()
        self.ice = self.catalog.index("ice")
        self.concrete = self.catalog.index("concrete")

    def test_all_correct(self):
        truth = np.array([self.ice] * 3 + [self.concrete] * 7)
        est = one_hot_estimates(truth, 10)
        assert accuracy(est, truth, self.models) == pytest.approx(1.0)

    def test_all_unknown_zero(self):
        truth = np.array([self.ice] * 4)
        est = estimates_from_dense(np.zeros((4, 10)), np.zeros(4, dtype=bool))
        assert accuracy(est, truth, self.models) == 0.0

    def test_constant_high_predictor_scores_base_rate(self):
        truth = np.array([self.concrete] * 70 + [self.ice] * 30)
        est = one_hot_estimates(np.full(100, self.concrete), 10)
        assert accuracy(est, truth, self.models) == pytest.approx(0.70)

    def test_constant_high_predictor_on_imbalanced_scene(self):
        # the constant predictor's accuracy equals the scene's high-friction
        # area share, up to face-grid rounding
        from terramesh.mesh import MeshConfig, init_mesh
        from terramesh.sim import scenario_library

        spec = scenario_library()["imbalanced"]
        mesh = init_mesh(MeshConfig(0.15, 3.0, 10))
        cents = mesh.face_centroids()
        truth = spec.class_map.classify(cents[:, 0], cents[:, 1])
        mus = np.array([m.mu for m in self.models])
        low_area = sum(
            polygon_area(r.polygon)
            for r in spec.class_map.regions
            if mus[r.class_index] <= 0.5
        )
        expected_high = 1.0 - low_area / 36.0
        est = one_hot_estimates(np.full(truth.size, self.concrete), 10)
        got = accuracy(est, truth, self.models)
        assert got == pytest.approx(expected_high, abs=0.02)
        assert expected_high >= 0.70


class TestReports:
    def test_evaluate_and_write(self, tmp_path, rng):
        catalog, models = load_default_models()
        truth = rng.integers(0, 10, size=40)
        est = one_hot_estimates(truth, 10)
        report = evaluate_estimator("recursive", est, truth, models)
        assert report.faces_total == 40
        assert report.accuracy == pytest.approx(1.0)
        write_summary_csv(tmp_path / "summary.csv", [report])
        write_pr_csv(tmp_path / "pr.csv", report.pr_low)
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "estimator"
        assert rows[1][0] == "recursive"
        with open(tmp_path / "pr.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["threshold", "recall", "precision"]


class TestBench:
    def test_smoke_and_parts_sum(self, tmp_path):
        rows = bench_update([0.08, 0.16], half_extent_m=0.48, image_size=(60, 40), trials=5, warmup=1)
        by = {(r.side_length_m, r.stage): r for r in rows}
        for side in (0.08, 0.16):
            total = by[(side, "total")].mean_s
            parts = sum(by[(side, s)].mean_s for s in ("project", "assign", "elevation", "semantics"))
            assert parts == pytest.approx(total, rel=0.05, abs=2e-4)
            assert by[(side, "update")].mean_s <= total
        write_bench_csv(tmp_path / "bench.csv", rows)
        with open(tmp_path / "bench.csv") as fh:
            lines = list(csv.reader(fh))
        assert lines[0][0] == "side_length_m"
        assert len(lines) == 1 + len(rows)

    def test_row_metadata(self):
        rows = bench_update([0.12], half_extent_m=0.48, image_size=(40, 30), trials=3, warmup=1)
        update = [r for r in rows if r.stage == "update"][0]
        assert update.trials == 3
        assert update.num_faces == 2 * (2 * int(0.48 / 0.12)) ** 2
        assert update.num_points > 0
