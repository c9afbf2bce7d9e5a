import numpy as np
import pytest

from sceneid.backend import (
    BackendError,
    BackendModel,
    classify_many,
    backend_from_bytes,
    backend_to_bytes,
    score,
    score_many,
    train_backend,
)

from conftest import eq2_labels


def gaussian_classes(rng, n_classes=4, rank=4, per_class=200, separation=5.0):
    x, labels = [], []
    for c in range(n_classes):
        mu = np.zeros(rank)
        mu[c % rank] = separation
        x.append(rng.normal(mu, 1.0, (per_class, rank)))
        labels += [f"cls{c}"] * per_class
    return np.vstack(x), labels


class TestTrainBackend:
    def test_alpha_one_gives_shared(self, rng):
        x, labels = gaussian_classes(rng)
        model = train_backend(x, labels, alpha=1.0)
        for c in range(len(model.class_labels)):
            assert np.array_equal(model.sigma_tilde[c], model.sigma_s)

    def test_alpha_zero_gives_class(self, rng):
        x, labels = gaussian_classes(rng)
        model = train_backend(x, labels, alpha=0.0)
        for c in range(len(model.class_labels)):
            assert np.array_equal(model.sigma_tilde[c], model.sigma_c[c])

    def test_operating_point(self, rng):
        x, labels = gaussian_classes(rng)
        model = train_backend(x, labels, alpha=0.7)
        assert model.alpha == 0.7
        blend = 0.7 * model.sigma_s + 0.3 * model.sigma_c
        np.testing.assert_allclose(model.sigma_tilde, blend, atol=1e-12)

    def test_shared_is_unweighted_average(self, rng):
        # class sizes differ wildly; the shared covariance must not care
        x1 = rng.normal(0, 1.0, (500, 3))
        x2 = rng.normal(5, 2.0, (10, 3))
        x = np.vstack([x1, x2])
        labels = ["a"] * 500 + ["b"] * 10
        model = train_backend(x, labels, alpha=0.5)
        np.testing.assert_allclose(
            model.sigma_s, 0.5 * (model.sigma_c[0] + model.sigma_c[1]), atol=1e-10
        )

    def test_ml_covariance_denominator(self, rng):
        x = rng.normal(0, 1, (50, 2))
        y = rng.normal(3, 1, (60, 2))
        model = train_backend(np.vstack([x, y]), ["a"] * 50 + ["b"] * 60, alpha=0.0)
        centered = x - x.mean(axis=0)
        np.testing.assert_allclose(model.sigma_c[0], centered.T @ centered / 50, atol=1e-12)

    def test_small_class_rejected(self, rng):
        x = rng.normal(0, 1, (11, 2))
        labels = ["a"] * 10 + ["b"]
        with pytest.raises(BackendError, match="samples"):
            train_backend(x, labels, alpha=0.5)

    def test_single_class_rejected(self, rng):
        with pytest.raises(BackendError, match="classes"):
            train_backend(rng.normal(0, 1, (10, 2)), ["a"] * 10, alpha=0.5)

    def test_ridge_repair_on_degenerate_class(self, rng):
        # class 'b' lives on a line: its ML covariance is singular at alpha=0
        x_a = rng.normal(0, 1, (30, 3))
        direction = np.array([1.0, 2.0, -1.0])
        x_b = np.outer(rng.normal(0, 1, 30), direction) + 4.0
        model = train_backend(np.vstack([x_a, x_b]), ["a"] * 30 + ["b"] * 30, alpha=0.0)
        assert model.ridge[1] > 0.0
        assert np.all(np.isfinite(score(model, np.zeros(3))))
        # The ridge is derived again, to the same bits, when the model is read.
        back = backend_from_bytes(backend_to_bytes(model))
        assert np.array_equal(back.ridge, model.ridge)
        assert np.array_equal(score(back, np.ones(3)), score(model, np.ones(3)))


class TestScore:
    def test_max_at_class_mean_with_equal_covariances(self, rng):
        x, labels = gaussian_classes(rng)
        model = train_backend(x, labels, alpha=1.0)
        for c, lab in enumerate(model.class_labels):
            scores = score(model, model.mu[c])
            assert model.class_labels[int(np.argmax(scores))] == lab

    def test_matches_dense_oracle(self, rng):
        x, labels = gaussian_classes(rng, n_classes=2, rank=2, per_class=40)
        model = train_backend(x, labels, alpha=0.4)
        for _ in range(20):
            w = rng.normal(0, 3, 2)
            got = score(model, w)
            for c in range(2):
                sign, logdet = np.linalg.slogdet(model.sigma_tilde[c])
                assert sign > 0
                d = w - model.mu[c]
                want = -0.5 * logdet - 0.5 * d @ np.linalg.solve(model.sigma_tilde[c], d)
                assert got[c] == pytest.approx(want, abs=1e-10)

    def test_alpha_one_class_mode_equals_shared_decisions(self, rng):
        x, labels = gaussian_classes(rng, n_classes=4, rank=3)
        model = train_backend(x, labels, alpha=1.0)
        probes = rng.normal(0, 4, (1000, 3))
        assert classify_many(model, probes) == eq2_labels(model, probes)

    def test_dimension_mismatch(self, rng):
        x, labels = gaussian_classes(rng)
        model = train_backend(x, labels, alpha=0.5)
        with pytest.raises(BackendError):
            score(model, np.zeros(7))


class TestClassify:
    def test_tie_breaks_to_first_label(self, rng):
        pts = rng.normal(0, 1, (20, 2))
        x = np.vstack([pts, pts])  # identical models for both classes
        labels = ["zeta"] * 20 + ["alpha"] * 20
        model = train_backend(x, labels, alpha=0.5)
        assert model.class_labels == ["alpha", "zeta"]
        assert classify_many(model, rng.normal(0, 1, (1, 2))) == ["alpha"]

    def test_monte_carlo_separated_clouds(self, rng):
        x, labels = gaussian_classes(rng, n_classes=4, rank=4, per_class=200)
        model = train_backend(x, labels, alpha=0.7)
        test_x, test_labels = gaussian_classes(rng, n_classes=4, rank=4, per_class=500)
        predicted = classify_many(model, test_x)
        accuracy = np.mean([p == t for p, t in zip(predicted, test_labels)])
        assert accuracy >= 0.99

    def test_far_vector_still_labeled(self, rng):
        x, labels = gaussian_classes(rng)
        model = train_backend(x, labels, alpha=0.7)
        assert classify_many(model, np.full((1, 4), 1e4))[0] in model.class_labels

    def test_affine_equivariance_of_decisions(self, rng):
        x, labels = gaussian_classes(rng, n_classes=3, rank=3, per_class=60)
        probes = rng.normal(0, 3, (200, 3))
        base = train_backend(x, labels, alpha=0.6)
        base_scores = score_many(base, probes)

        for _ in range(10):
            a_mat = rng.normal(0, 1, (3, 3)) + 3.0 * np.eye(3)
            b_vec = rng.normal(0, 5, 3)
            mapped = train_backend(x @ a_mat.T + b_vec, labels, alpha=0.6)
            mapped_pred = classify_many(mapped, probes @ a_mat.T + b_vec)
            for i, pred in enumerate(mapped_pred):
                ranked = np.sort(base_scores[i])
                if ranked[-1] - ranked[-2] > 1e-6:  # skip near-ties
                    assert pred == base.class_labels[int(np.argmax(base_scores[i]))]


class TestModelChecks:
    @pytest.mark.parametrize("name, bad", [
        ("mu", np.nan), ("sigma_c", np.inf), ("class_counts", np.nan),
        ("alpha", 7.5), ("alpha", -0.5), ("alpha", np.nan),
    ])
    def test_bad_parameter_rejected(self, rng, name, bad):
        x, labels = gaussian_classes(rng, n_classes=2, rank=2, per_class=20)
        model = train_backend(x, labels, alpha=0.5)
        params = dict(class_labels=model.class_labels, mu=model.mu.copy(),
                      sigma_c=model.sigma_c.copy(), alpha=model.alpha,
                      class_counts=model.class_counts.copy())
        if name == "alpha":
            params["alpha"] = bad
        else:
            params[name].flat[0] = bad
        with pytest.raises(BackendError, match="alpha must lie|NaN or infinity"):
            BackendModel(**params)

    def test_score_that_overflows_is_rejected(self, rng):
        # A class mean far out of range overflows its quadratic form.
        x, labels = gaussian_classes(rng, n_classes=2, rank=2, per_class=20)
        model = train_backend(x, labels, alpha=0.5)
        model.mu[0, 0] = -1.9e306
        with pytest.raises(BackendError, match="scores are not finite"):
            score_many(model, rng.normal(0, 1, (3, 2)))


class TestSerialization:
    def test_roundtrip(self, rng):
        x, labels = gaussian_classes(rng)
        model = train_backend(x, labels, alpha=0.7)
        back = backend_from_bytes(backend_to_bytes(model))
        assert back.class_labels == model.class_labels
        assert back.alpha == model.alpha
        np.testing.assert_array_equal(back.mu, model.mu)
        np.testing.assert_array_equal(back.sigma_tilde, model.sigma_tilde)
        w = rng.normal(0, 2, 4)
        np.testing.assert_allclose(score(back, w), score(model, w), atol=0)
