import numpy as np
import pytest
from scipy.special import logsumexp

from sceneid.gmm import (
    GmmError,
    GmmModel,
    accumulate_stats,
    gmm_checksum,
    gmm_from_bytes,
    gmm_to_bytes,
    log_likelihood,
    responsibilities,
    train_ubm,
)


def random_model(rng, n_components=5, n_features=3) -> GmmModel:
    weights = rng.dirichlet(np.ones(n_components))
    means = rng.normal(0, 2, (n_components, n_features))
    variances = rng.uniform(0.3, 2.0, (n_components, n_features))
    return GmmModel(weights, means, variances, np.full(n_features, 1e-10))


def oracle_log_density(model, x):
    """High-precision brute-force mixture density in extended precision."""
    x = np.asarray(x, dtype=np.longdouble)
    total = np.longdouble(0.0)
    for c in range(model.n_components):
        mu = model.means[c].astype(np.longdouble)
        var = model.variances[c].astype(np.longdouble)
        norm = np.prod(1.0 / np.sqrt(2 * np.pi * var))
        quad = np.sum((x - mu) ** 2 / var)
        total += np.longdouble(model.weights[c]) * norm * np.exp(-0.5 * quad)
    return float(np.log(total))


def naive_stats(model, x):
    """Baum-Welch statistics frame by frame from the densities themselves."""
    n_naive = np.zeros(model.n_components)
    f_naive = np.zeros_like(model.means)
    for t in range(x.shape[0]):
        dens = np.array(
            [
                model.weights[c]
                * np.prod(1 / np.sqrt(2 * np.pi * model.variances[c]))
                * np.exp(-0.5 * np.sum((x[t] - model.means[c]) ** 2 / model.variances[c]))
                for c in range(model.n_components)
            ]
        )
        gamma = dens / dens.sum()
        n_naive += gamma
        for c in range(model.n_components):
            f_naive[c] += gamma[c] * (x[t] - model.means[c])
    return n_naive, f_naive


class TestTrainUbm:
    def test_two_cluster_recovery(self, rng):
        truth = np.array([[-5.0, 0.0], [5.0, 0.0]])
        x = np.vstack(
            [rng.normal(truth[0], 1.0, (2000, 2)), rng.normal(truth[1], 1.0, (2000, 2))]
        )
        model = train_ubm(x, 2, n_iters=20, seed=0)
        order = np.argsort(model.means[:, 0])
        np.testing.assert_allclose(model.means[order], truth, atol=0.1)
        np.testing.assert_allclose(model.weights, 0.5, atol=0.05)

    def test_single_component_closed_form(self, rng):
        x = rng.normal(1.5, 2.0, (500, 3))
        model = train_ubm(x, 1, n_iters=3, seed=0)
        np.testing.assert_allclose(model.means[0], x.mean(axis=0), atol=1e-8)
        np.testing.assert_allclose(model.variances[0], x.var(axis=0), atol=1e-8)
        assert model.weights[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_em_monotone(self, seed):
        rng = np.random.default_rng(seed)
        centers = rng.normal(0, 3, (4, 5))
        x = np.vstack([rng.normal(c, rng.uniform(0.5, 1.5), (300, 5)) for c in centers])
        model = train_ubm(x, 4, n_iters=25, seed=seed)
        ll = np.array(model.ll_history)
        assert len(ll) == 25
        assert np.all(np.diff(ll) >= -1e-8 * np.maximum(1.0, np.abs(ll[:-1])))

    def test_variance_floor(self, rng):
        # one dimension is almost constant: the floor must hold after EM
        x = rng.normal(0, 1, (400, 2))
        x[:, 1] = 0.123
        model = train_ubm(x, 3, n_iters=10, seed=0)
        assert np.all(model.variances >= model.var_floor - 1e-300)

    def test_too_few_frames(self, rng):
        with pytest.raises(GmmError):
            train_ubm(rng.normal(0, 1, (5, 2)), 10)

    def test_nan_rejected(self, rng):
        x = rng.normal(0, 1, (100, 2))
        x[3, 1] = np.nan
        with pytest.raises(GmmError, match="NaN"):
            train_ubm(x, 2)

    def test_seeded_determinism(self, rng):
        x = rng.normal(0, 1, (500, 3))
        a = train_ubm(x, 4, n_iters=5, seed=7)
        b = train_ubm(x, 4, n_iters=5, seed=7)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)


class TestLogLikelihood:
    def test_gaussian_at_mean(self):
        model = GmmModel(
            np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)), np.full(2, 1e-10)
        )
        assert log_likelihood(model, np.zeros(2)) == pytest.approx(-np.log(2 * np.pi))

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            model = random_model(rng)
            x = rng.normal(0, 2, 3)
            assert log_likelihood(model, x) == pytest.approx(
                oracle_log_density(model, x), abs=1e-10
            )

    def test_degenerate_weights(self, rng):
        model = GmmModel(
            np.array([1.0, 0.0]),
            np.array([[0.0, 0.0], [5.0, 5.0]]),
            np.ones((2, 2)),
            np.full(2, 1e-10),
        )
        x = np.array([0.3, -0.2])
        single = GmmModel(
            np.array([1.0]), model.means[:1], model.variances[:1], np.full(2, 1e-10)
        )
        assert log_likelihood(model, x) == pytest.approx(log_likelihood(single, x), abs=1e-12)

    def test_dimension_mismatch(self, rng):
        model = random_model(rng)
        with pytest.raises(GmmError):
            log_likelihood(model, np.zeros(7))


class TestAccumulateStats:
    def test_single_component(self, rng):
        model = GmmModel(
            np.array([1.0]), np.full((1, 2), 0.5), np.ones((1, 2)), np.full(2, 1e-10)
        )
        x = rng.normal(0, 1, (50, 2))
        stats = accumulate_stats(model, x)
        assert stats.n[0] == pytest.approx(50.0, abs=1e-9)
        np.testing.assert_allclose(stats.f[0], (x - 0.5).sum(axis=0), atol=1e-9)

    def test_posteriors_normalized(self, rng):
        model = random_model(rng)
        gamma = responsibilities(model, rng.normal(0, 2, (200, 3)))
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_naive_oracle(self, rng):
        model = random_model(rng, n_components=3, n_features=2)
        x = rng.normal(0, 2, (40, 2))
        stats = accumulate_stats(model, x)
        n_naive, f_naive = naive_stats(model, x)
        np.testing.assert_allclose(stats.n, n_naive, atol=1e-10)
        np.testing.assert_allclose(stats.f, f_naive, atol=1e-10)

    def test_subnormal_posteriors_are_zero(self):
        # Component 1 sits 40 standard deviations from component 0, so frames
        # between them give it log-posteriors from about -1200 to 0, through
        # the range (-745, -708) where exp() returns a subnormal.
        tiny = np.finfo(np.float64).tiny
        model = GmmModel(
            np.array([0.5, 0.5]), np.array([[0.0], [40.0]]), np.ones((2, 1)), np.full(1, 1e-10)
        )
        x = np.linspace(-10.0, 20.0, 301)[:, None]
        log_joint = np.log(0.5) - 0.5 * (np.log(2 * np.pi) + (x - model.means[:, 0]) ** 2)
        log_post = log_joint - logsumexp(log_joint, axis=1, keepdims=True)
        assert np.any((log_post > -745.0) & (log_post < np.log(tiny)))

        gamma = responsibilities(model, x)
        stats = accumulate_stats(model, x)
        for values in (gamma, stats.n, stats.f):
            assert not np.any((values != 0) & (np.abs(values) < tiny))
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)
        n_naive, f_naive = naive_stats(model, x)
        np.testing.assert_allclose(stats.n, n_naive, atol=1e-10)
        np.testing.assert_allclose(stats.f, f_naive, atol=1e-10)

    def test_counts_sum_to_frames(self, rng):
        model = random_model(rng)
        x = rng.normal(0, 2, (333, 3))
        stats = accumulate_stats(model, x)
        assert stats.n.sum() == pytest.approx(333.0, abs=1e-6)

    def test_additive(self, rng):
        model = random_model(rng)
        a = rng.normal(0, 2, (60, 3))
        b = rng.normal(1, 2, (40, 3))
        combined = accumulate_stats(model, np.vstack([a, b]))
        summed = accumulate_stats(model, a) + accumulate_stats(model, b)
        np.testing.assert_allclose(combined.n, summed.n, atol=1e-10)
        np.testing.assert_allclose(combined.f, summed.f, atol=1e-10)

    def test_frame_order_invariance(self, rng):
        model = random_model(rng)
        x = rng.normal(0, 2, (100, 3))
        perm = rng.permutation(100)
        s1 = accumulate_stats(model, x)
        s2 = accumulate_stats(model, x[perm])
        np.testing.assert_allclose(s1.n, s2.n, atol=1e-9)
        np.testing.assert_allclose(s1.f, s2.f, atol=1e-9)

    def test_empty_rejected(self, rng):
        model = random_model(rng)
        with pytest.raises(GmmError):
            accumulate_stats(model, np.zeros((0, 3)))


class TestSerialization:
    def test_roundtrip(self, rng):
        model = random_model(rng)
        back = gmm_from_bytes(gmm_to_bytes(model))
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.means, model.means)
        assert np.array_equal(back.variances, model.variances)
        assert gmm_checksum(back) == gmm_checksum(model)

    def test_checksum_tracks_content(self, rng):
        model = random_model(rng)
        other = GmmModel(
            model.weights, model.means + 1e-9, model.variances, model.var_floor
        )
        assert gmm_checksum(other) != gmm_checksum(model)
