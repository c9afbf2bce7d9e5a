import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from conftest import reference_init, reference_kmeans
from sceneid import gmm
from sceneid.gmm import (
    GmmError,
    GmmModel,
    accumulate_stats,
    gmm_checksum,
    gmm_from_bytes,
    gmm_to_bytes,
    log_likelihood,
    train_ubm,
)


def responsibilities(model: GmmModel, x) -> np.ndarray:
    """Posterior gamma_t(c) of every frame: the gamma blocks of the E-step, stacked."""
    blocks = gmm._e_step(model, np.asarray(x, dtype=np.float64))
    return np.vstack([gamma for _, gamma, _ in blocks])


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


def logsumexp_oracle(model, x):
    """Posteriors and per-frame log-likelihoods of the whole frame matrix at
    once, from direct differences and scipy's logsumexp."""
    with np.errstate(divide="ignore"):
        log_w = np.log(model.weights)
    log_joint = log_w - 0.5 * (
        np.log(2 * np.pi * model.variances).sum(axis=1)
        + ((x[:, None, :] - model.means) ** 2 / model.variances).sum(axis=2)
    )
    per_frame = logsumexp(log_joint, axis=1)
    return np.exp(log_joint - per_frame[:, None]), per_frame


def reference_kmeans_plus_plus(x, k, rng, n_iters):
    """k-means++ as one (N, F) difference per seeded centre and one mask pass
    per cluster and Lloyd iteration. Also returns the (cluster, owner) pairs of
    every re-seed on the farthest frame, owner being the cluster that frame
    was assigned to before the iteration's first re-seed."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = x[rng.integers(n)]
        else:
            centers[c] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))

    x_sq = (x**2).sum(axis=1)
    assign = np.zeros(n, dtype=np.int64)
    reseeds = []
    for _ in range(n_iters):
        dists = x_sq[:, None] - 2.0 * (x @ centers.T) + (centers**2).sum(axis=1)
        assign = dists.argmin(axis=1)
        owner = assign[dists.min(axis=1).argmax()]
        for c in range(k):
            mask = assign == c
            if mask.any():
                centers[c] = x[mask].mean(axis=0)
            else:
                far = dists.min(axis=1).argmax()
                centers[c] = x[far]
                assign[far] = c
                reseeds.append((c, owner))
    return centers, assign, reseeds


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

    def test_ll_history_is_plain_floats(self, rng):
        model = train_ubm(rng.normal(0, 1, (300, 3)), 3, n_iters=4, seed=0)
        assert [type(v) for v in model.ll_history] == [float] * 4


class TestBlockedEStep:
    """The E-step runs over blocks of gmm._FRAME_BLOCK frames. Every consumer
    must match the whole-matrix oracle across two full blocks and a ragged
    third one."""

    @pytest.fixture
    def frames(self, rng):
        return rng.normal(0, 2, (2 * gmm._FRAME_BLOCK + 17, 3))

    def test_responsibilities_match_oracle(self, rng, frames):
        model = random_model(rng)
        gamma, _ = logsumexp_oracle(model, frames)
        np.testing.assert_allclose(responsibilities(model, frames), gamma, rtol=0, atol=1e-12)

    def test_stats_match_oracle(self, rng, frames):
        model = random_model(rng)
        gamma, _ = logsumexp_oracle(model, frames)
        stats = accumulate_stats(model, frames)
        n = gamma.sum(axis=0)
        np.testing.assert_allclose(stats.n, n, rtol=1e-12)
        f = gamma.T @ frames - n[:, None] * model.means
        np.testing.assert_allclose(stats.f, f, rtol=1e-12, atol=1e-12 * np.abs(f).max())

    def test_em_matches_oracle(self, frames):
        # One EM step from m1 gives m2: its log-likelihood entry is m1's mean
        # per-frame log-likelihood, and its parameters are the M-step of m1's
        # posteriors.
        m1 = train_ubm(frames, 4, n_iters=1, seed=3, kmeans_iters=2)
        m2 = train_ubm(frames, 4, n_iters=2, seed=3, kmeans_iters=2)
        gamma, per_frame = logsumexp_oracle(m1, frames)
        assert m2.ll_history[0] == m1.ll_history[0]
        assert m2.ll_history[1] == pytest.approx(per_frame.mean(), rel=1e-12)
        nk = gamma.sum(axis=0)
        means = gamma.T @ frames / nk[:, None]
        variances = gamma.T @ frames**2 / nk[:, None] - means**2
        np.testing.assert_allclose(m2.weights, nk / frames.shape[0], rtol=1e-12)
        np.testing.assert_allclose(m2.means, means, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(m2.variances, np.maximum(variances, m2.var_floor), rtol=1e-11)

    def test_log_likelihood_matches_oracle(self, rng, frames):
        model = random_model(rng)
        _, per_frame = logsumexp_oracle(model, frames[:20])
        for x, expected in zip(frames[:20], per_frame):
            assert log_likelihood(model, x) == pytest.approx(expected, rel=1e-12)


class TestKmeansPlusPlus:
    """The GEMV seeding and bincount Lloyd update give the reference loop's
    centres and assignments bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n, k, n_iters", [(500, 8, 1), (500, 8, 10), (60, 20, 5)])
    def test_matches_reference(self, seed, n, k, n_iters):
        x = np.random.default_rng(100 + seed).normal(0, 1.5, (n, 6))
        centers, assign = gmm._kmeans_plus_plus(x, k, np.random.default_rng(seed), n_iters)
        ref_centers, ref_assign, _ = reference_kmeans_plus_plus(
            x, k, np.random.default_rng(seed), n_iters
        )
        assert np.array_equal(centers, ref_centers)
        assert np.array_equal(assign, ref_assign)

    @pytest.mark.parametrize("n_iters", [0, 3])
    def test_empty_clusters_match_reference(self, n_iters):
        # Five distinct frames, repeated, for eight clusters: the seeding runs
        # out of distance mass and draws frames uniformly (what n_iters=0
        # returns), so Lloyd empties clusters. Across the seeds, the farthest
        # frame's own cluster comes both before and after the first empty one.
        events = []
        for seed in range(12):
            x = np.tile(np.random.default_rng(seed).normal(0, 1, (5, 76)), (7, 1))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            centers, assign = gmm._kmeans_plus_plus(x, 8, rng, n_iters)
            ref_centers, ref_assign, reseeds = reference_kmeans_plus_plus(x, 8, ref_rng, n_iters)
            assert np.array_equal(centers, ref_centers)
            assert np.array_equal(assign, ref_assign)
            assert rng.random() == ref_rng.random()  # the same draws were taken
            events += reseeds
        if n_iters:
            assert any(c < owner for c, owner in events)
            assert any(c > owner for c, owner in events)


@st.composite
def ubm_cases(draw):
    """(frames, components, k-means iterations, seed): up to three full
    frame blocks and a ragged tail, one-row tails included. Frames are
    either all distinct or drawn from a few distinct rows, which makes
    duplicate centres, empty clusters and the seeding's near-zero path."""
    k = draw(st.integers(1, 64))
    n_features = draw(st.sampled_from([1, 2, 3, 7, 76]))
    n = max(draw(st.integers(0, 3)) * gmm._FRAME_BLOCK + draw(st.integers(0, 300)), k)
    distinct = draw(st.none() | st.integers(1, 2 * k))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if distinct is None:
        x = rng.normal(0, 1, (n, n_features))
    else:
        x = rng.normal(0, 1, (distinct, n_features))[rng.integers(0, distinct, n)]
    return x, k, draw(st.integers(0, 3)), seed


class TestPooledReference:
    """`train_ubm` walks the frame pool in blocks; the initial model it
    trains equals the pooled reference (conftest) bit for bit, unless a
    Lloyd decision across blocks is a tie within rounding."""

    @settings(deadline=None, max_examples=40)
    @given(case=ubm_cases())
    def test_initial_model_matches_pooled_reference(self, case):
        x, k, kmeans_iters, seed = case
        model = train_ubm(x, k, n_iters=0, seed=seed, kmeans_iters=kmeans_iters)
        centers, assign, tied = reference_kmeans(x, k, np.random.default_rng(seed), kmeans_iters)
        if tied and len(gmm._blocks(x.shape[0])) > 1:
            # Across blocks the GEMM may break a rounding tie otherwise (see
            # reference_kmeans), so the rest of the initial model is checked
            # on the blocked k-means' own centres and assignments.
            event("Lloyd tie within rounding across blocks")
            centers, assign = gmm._kmeans_plus_plus(x, k, np.random.default_rng(seed),
                                                    kmeans_iters)
        expected = reference_init(x, centers, assign, seed)
        for name in ("weights", "means", "variances", "var_floor"):
            assert np.array_equal(getattr(model, name), getattr(expected, name)), name

    @pytest.mark.parametrize("n, k", [(50_000, 16), (20_000, 256)])
    def test_memory_beyond_the_pool_is_bounded(self, n, k):
        # Beyond its input, training holds a few blocks of frames and of
        # distances or posteriors, plus a few values per frame; a whole-pool
        # (N, F) or (N, C) temporary is over the bound at these sizes.
        n_features = 76
        x = np.random.default_rng(0).normal(0, 1, (n, n_features))
        block_bytes = gmm._FRAME_BLOCK * (n_features + k) * 8
        tracemalloc.start()
        try:
            train_ubm(x, k, n_iters=1, seed=0, kmeans_iters=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * block_bytes + 100 * n


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
        sa, sb = accumulate_stats(model, a), accumulate_stats(model, b)
        np.testing.assert_allclose(combined.n, sa.n + sb.n, atol=1e-10)
        np.testing.assert_allclose(combined.f, sa.f + sb.f, atol=1e-10)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, rng, bad):
        model = random_model(rng)
        x = rng.normal(0, 2, (50, 3))
        x[7, 2] = bad
        with pytest.raises(GmmError, match="NaN or infinity"):
            accumulate_stats(model, x)


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

    @pytest.mark.parametrize("name", ["weights", "means", "variances", "var_floor"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, rng, name, bad):
        model = random_model(rng)
        params = dict(weights=model.weights, means=model.means, variances=model.variances,
                      var_floor=model.var_floor)
        params[name] = params[name].copy()
        params[name].flat[0] = bad
        with pytest.raises(GmmError, match="NaN or infinity"):
            GmmModel(**params)
