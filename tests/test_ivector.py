import numpy as np
import pytest

from sceneid.gmm import GmmModel, SufficientStats, gmm_checksum
from sceneid.ivector import (
    IVectorError,
    TvMatrix,
    extract_ivector,
    extract_ivectors,
    init_tv_pca,
    load_ivectors,
    load_tv,
    save_ivectors,
    save_tv,
    train_tv,
    tv_evidence,
)


def make_ubm(rng, n_components=3, n_features=2, unit_var=False) -> GmmModel:
    weights = np.full(n_components, 1.0 / n_components)
    means = rng.normal(0, 1, (n_components, n_features))
    variances = (
        np.ones((n_components, n_features))
        if unit_var
        else rng.uniform(0.5, 2.0, (n_components, n_features))
    )
    return GmmModel(weights, means, variances, np.full(n_features, 1e-10))


def make_tv(rng, ubm, rank, scale=1.0) -> TvMatrix:
    t = scale * rng.normal(0, 1, (ubm.n_components, ubm.n_features, rank))
    return TvMatrix(t, gmm_checksum(ubm))


def oracle_posterior_mean(tv, ubm, stats):
    """Dense linear-Gaussian posterior over the full supervector model.

    f = D T w + e with D = blockdiag(n_c I), e ~ N(0, blockdiag(n_c Sigma_c)),
    w ~ N(0, I); computed with explicit dense matrices and inversions.
    """
    c, f_dim, rank = tv.t.shape
    t_full = tv.t.reshape(c * f_dim, rank)
    n_rep = np.repeat(stats.n, f_dim)
    d_mat = np.diag(n_rep)
    lam = np.diag(n_rep * ubm.variances.reshape(-1))
    lam_inv = np.linalg.inv(lam)
    x_mat = d_mat @ t_full
    cov = np.linalg.inv(np.eye(rank) + x_mat.T @ lam_inv @ x_mat)
    return cov @ x_mat.T @ lam_inv @ stats.f.reshape(-1)


def synthetic_stats(rng, ubm, tv_true, n_recordings, count_range=(50.0, 200.0)):
    """Draw recordings from the generative model f_c | w ~ N(n_c T_c w, n_c Sigma_c)."""
    c, f_dim, rank = tv_true.t.shape
    stats, w_true = [], []
    for _ in range(n_recordings):
        w = rng.normal(0, 1, rank)
        n = rng.uniform(*count_range, c)
        mean = n[:, None] * (tv_true.t @ w)
        noise = rng.normal(0, 1, (c, f_dim)) * np.sqrt(n[:, None] * ubm.variances)
        stats.append(SufficientStats(n, mean + noise))
        w_true.append(w)
    return stats, np.array(w_true)


# Each public entry point into the iVector E-step, called on one recording.
E_STEP_CALLS = {
    "extract_ivector": extract_ivector,
    "extract_ivectors": lambda tv, ubm, stats: extract_ivectors(tv, ubm, [stats]),
    "tv_evidence": lambda tv, ubm, stats: tv_evidence(tv, ubm, [stats]),
}


class TestExtractIvector:
    def test_zero_stats_gives_prior_mean(self, rng):
        ubm = make_ubm(rng)
        tv = make_tv(rng, ubm, rank=2)
        stats = SufficientStats(np.zeros(3), np.zeros((3, 2)))
        ivec = extract_ivector(tv, ubm, stats)
        assert np.array_equal(ivec.w, np.zeros(2))
        assert ivec.posterior_precision_logdet == pytest.approx(0.0, abs=1e-12)

    def test_scalar_closed_form(self, rng):
        # C=F=R=1, T=t, var=v: w = (1 + n t^2 / v)^-1 (t f / v)
        ubm = GmmModel(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)), np.array([1e-10]))
        tv = TvMatrix(np.ones((1, 1, 1)), gmm_checksum(ubm))
        stats = SufficientStats(np.array([4.0]), np.array([[2.0]]))
        ivec = extract_ivector(tv, ubm, stats)
        assert ivec.w[0] == pytest.approx(0.4, abs=1e-12)

    def test_matches_dense_posterior_oracle(self, rng):
        for _ in range(20):
            c = int(rng.integers(1, 5))
            f_dim = int(rng.integers(1, 4))
            rank = int(rng.integers(1, min(4, c * f_dim + 1)))
            ubm = make_ubm(rng, c, f_dim)
            tv = make_tv(rng, ubm, rank)
            stats = SufficientStats(
                rng.uniform(0.1, 10.0, c), rng.normal(0, 3.0, (c, f_dim))
            )
            got = extract_ivector(tv, ubm, stats).w
            want = oracle_posterior_mean(tv, ubm, stats)
            np.testing.assert_allclose(got, want, atol=1e-8)

    @pytest.mark.parametrize("call", E_STEP_CALLS.values(), ids=E_STEP_CALLS.keys())
    def test_checksum_mismatch(self, rng, call):
        ubm = make_ubm(rng)
        other = make_ubm(rng)
        tv = make_tv(rng, ubm, rank=2)
        stats = SufficientStats(np.ones(3), np.zeros((3, 2)))
        with pytest.raises(IVectorError, match="checksum"):
            call(tv, other, stats)

    @pytest.mark.parametrize("call", E_STEP_CALLS.values(), ids=E_STEP_CALLS.keys())
    def test_nonfinite_stats_rejected(self, rng, call):
        ubm = make_ubm(rng)
        tv = make_tv(rng, ubm, rank=2)
        stats = SufficientStats(np.ones(3), np.full((3, 2), np.nan))
        with pytest.raises(IVectorError):
            call(tv, ubm, stats)

    def test_component_order_invariance(self, rng):
        ubm = make_ubm(rng, 4, 3)
        tv = make_tv(rng, ubm, rank=2)
        stats = SufficientStats(rng.uniform(0, 5, 4), rng.normal(0, 1, (4, 3)))
        w = extract_ivector(tv, ubm, stats).w

        perm = rng.permutation(4)
        ubm_p = GmmModel(
            ubm.weights[perm], ubm.means[perm], ubm.variances[perm], ubm.var_floor
        )
        tv_p = TvMatrix(tv.t[perm], gmm_checksum(ubm_p))
        stats_p = SufficientStats(stats.n[perm], stats.f[perm])
        w_p = extract_ivector(tv_p, ubm_p, stats_p).w
        np.testing.assert_allclose(w, w_p, atol=1e-10)

    def test_posterior_shrinkage(self, rng):
        ubm = make_ubm(rng)
        tv = make_tv(rng, ubm, rank=2)
        stats = SufficientStats(rng.uniform(1, 10, 3), rng.normal(0, 2, (3, 2)))
        full = np.linalg.norm(extract_ivector(tv, ubm, stats).w)
        for alpha in (0.3, 0.7):
            scaled = SufficientStats(alpha * stats.n, alpha * stats.f)
            partial = np.linalg.norm(extract_ivector(tv, ubm, scaled).w)
            assert partial < full

    def test_spd_never_fails_on_valid_stats(self, rng):
        ubm = make_ubm(rng, 4, 3)
        tv = make_tv(rng, ubm, rank=3, scale=5.0)
        for _ in range(50):
            n = rng.uniform(0.0, 1000.0, 4) * rng.integers(0, 2, 4)
            stats = SufficientStats(n, rng.normal(0, 10, (4, 3)) * (n[:, None] > 0))
            ivec = extract_ivector(tv, ubm, stats)
            assert np.all(np.isfinite(ivec.w))


class TestPcaInit:
    def test_rank_one_line_recovered(self, rng):
        ubm = make_ubm(rng, 2, 2, unit_var=True)
        direction = rng.normal(0, 1, 4)
        direction /= np.linalg.norm(direction)
        stats = []
        for _ in range(12):
            coef = rng.normal(0, 2)
            resid = (coef * direction).reshape(2, 2)
            n = np.full(2, 10.0)
            stats.append(SufficientStats(n, resid * n[:, None]))
        tv = init_tv_pca(stats, ubm, rank=1)
        col = tv.t.reshape(-1)
        cosine = abs(col @ direction) / np.linalg.norm(col)
        assert cosine > 0.999

    def test_paper_scale_rank_accepted(self, rng):
        ubm = make_ubm(rng, 256, 76, unit_var=True)
        stats = [
            SufficientStats(rng.uniform(1, 5, 256), rng.normal(0, 1, (256, 76)))
            for _ in range(160)
        ]
        tv = init_tv_pca(stats, ubm, rank=150)
        assert tv.rank == 150
        assert tv.t.shape == (256, 76, 150)

    def test_degenerate_duplicates_error(self, rng):
        ubm = make_ubm(rng, 2, 2)
        one = SufficientStats(np.full(2, 5.0), rng.normal(0, 1, (2, 2)))
        stats = [SufficientStats(one.n.copy(), one.f.copy()) for _ in range(10)]
        with pytest.raises(IVectorError, match="rank"):
            init_tv_pca(stats, ubm, rank=2)

    def test_too_few_recordings(self, rng):
        ubm = make_ubm(rng, 2, 2)
        stats = [SufficientStats(np.ones(2), rng.normal(0, 1, (2, 2))) for _ in range(3)]
        with pytest.raises(IVectorError, match="recordings"):
            init_tv_pca(stats, ubm, rank=4)


class TestTrainTv:
    def test_zero_iters_equals_pca(self, rng):
        ubm = make_ubm(rng, 3, 2)
        tv_true = make_tv(rng, ubm, rank=2)
        stats, _ = synthetic_stats(rng, ubm, tv_true, 20)
        pca = init_tv_pca(stats, ubm, rank=2)
        trained = train_tv(stats, ubm, rank=2, n_iters=0)
        assert np.array_equal(pca.t, trained.t)

    def test_evidence_nondecreasing(self, rng):
        ubm = make_ubm(rng, 3, 2)
        tv_true = make_tv(rng, ubm, rank=2, scale=0.8)
        stats, _ = synthetic_stats(rng, ubm, tv_true, 30)
        evidences = [
            tv_evidence(train_tv(stats, ubm, rank=2, n_iters=k), ubm, stats)
            for k in range(6)
        ]
        diffs = np.diff(evidences)
        assert np.all(diffs >= -1e-6 * np.abs(np.array(evidences[:-1])))

    def test_generative_recovery(self, rng):
        ubm = make_ubm(rng, 2, 2, unit_var=True)
        t_true = rng.normal(0, 1, (2, 2, 1))
        tv_true = TvMatrix(t_true, gmm_checksum(ubm))
        stats, w_true = synthetic_stats(rng, ubm, tv_true, 100)
        learned = train_tv(stats, ubm, rank=1, n_iters=10)

        a = learned.t.reshape(-1)
        b = t_true.reshape(-1)
        angle = np.degrees(
            np.arccos(min(1.0, abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))))
        )
        assert angle < 5.0

        w_est = extract_ivectors(learned, ubm, stats)[:, 0]
        r = np.corrcoef(w_est, w_true[:, 0])[0, 1]
        assert abs(r) > 0.95

    def test_unoccupied_component_warns_and_keeps_block(self, rng):
        ubm = make_ubm(rng, 3, 2)
        tv_true = make_tv(rng, ubm, rank=2)
        stats, _ = synthetic_stats(rng, ubm, tv_true, 15)
        for s in stats:  # component 2 never occupied anywhere
            s.n[2] = 0.0
            s.f[2] = 0.0
        with pytest.warns(RuntimeWarning, match="occupancy"):
            trained = train_tv(stats, ubm, rank=2, n_iters=2)
        pca = init_tv_pca(stats, ubm, rank=2)
        assert np.array_equal(trained.t[2], pca.t[2])


class TestSerialization:
    def test_tv_roundtrip(self, tmp_path, rng):
        ubm = make_ubm(rng)
        tv = make_tv(rng, ubm, rank=2)
        path = tmp_path / "t.tvm"
        save_tv(tv, path)
        back = load_tv(path)
        assert np.array_equal(back.t, tv.t)
        assert back.ubm_checksum == tv.ubm_checksum

    def test_ivector_batch_roundtrip(self, tmp_path, rng):
        ids = ["a.wav", "b.wav", "c.wav"]
        w = rng.normal(0, 1, (3, 4))
        path = tmp_path / "w.ivec"
        save_ivectors(ids, w, path)
        ids_back, w_back = load_ivectors(path)
        assert ids_back == ids
        assert np.array_equal(w_back, w)

    def test_rank_bound_validated(self, rng):
        ubm = make_ubm(rng, 2, 2)
        with pytest.raises(IVectorError, match="rank"):
            TvMatrix(rng.normal(0, 1, (2, 2, 5)), gmm_checksum(ubm))
