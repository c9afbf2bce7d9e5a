import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sceneid import ivector
from sceneid.gmm import GmmModel, SufficientStats, gmm_checksum
from sceneid.ivector import (
    IVECTOR_CHUNK,
    IVectorError,
    TvMatrix,
    extract_ivector,
    extract_ivectors,
    init_tv_pca,
    ivectors_from_bytes,
    ivectors_to_bytes,
    train_tv,
    tv_evidence,
    tv_from_bytes,
    tv_to_bytes,
)
from sceneid.serialize import ContainerError


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


def oracle_on_occupied(tv, ubm, stats):
    """The dense oracle over the components a recording occupies: a component
    with no frames carries no evidence, so with none the answer is the prior
    mean."""
    active = stats.n > 0
    if not active.any():
        return np.zeros(tv.rank)
    return oracle_posterior_mean(
        SimpleNamespace(t=tv.t[active]),
        SimpleNamespace(variances=ubm.variances[active]),
        SufficientStats(stats.n[active], stats.f[active]),
    )


def reference_train_tv(stats_list, ubm, rank, n_iters):
    """train_tv as a per-recording loop: dense E-step, then per-component sums
    sum_i n_ic E[ww']_i and sum_i f_ic w_i' for the M-step."""
    tv = init_tv_pca(stats_list, ubm, rank)
    c, f_dim = ubm.means.shape
    for _ in range(n_iters):
        t_over_var = tv.t / ubm.variances[:, :, None]
        acc_a = np.zeros((c, rank, rank))
        acc_c = np.zeros((c, f_dim, rank))
        for s in stats_list:
            precision = np.eye(rank)
            b = np.zeros(rank)
            for k in range(c):
                precision += s.n[k] * tv.t[k].T @ t_over_var[k]
                b += t_over_var[k].T @ s.f[k]
            cov = np.linalg.inv(precision)
            w = cov @ b
            for k in range(c):
                acc_a[k] += s.n[k] * (cov + np.outer(w, w))
                acc_c[k] += np.outer(s.f[k], w)
        t_new = tv.t.copy()
        for k in range(c):
            if sum(s.n[k] for s in stats_list) > 1e-12:
                t_new[k] = np.linalg.solve(acc_a[k], acc_c[k].T).T
        tv = TvMatrix(t_new, tv.ubm_checksum)
    return tv


def reference_init_tv_pca(stats_list, ubm, rank):
    """init_tv_pca through a thin SVD of the (n_recordings, C*F) residuals."""
    n = np.stack([s.n for s in stats_list])
    f = np.stack([s.f for s in stats_list])
    c, f_dim = ubm.means.shape
    sigma = np.sqrt(ubm.variances)
    resid = (f / np.maximum(n, 1e-2)[:, :, None] / sigma).reshape(len(stats_list), c * f_dim)
    resid = resid - resid.mean(axis=0)
    _, svals, vt = np.linalg.svd(resid, full_matrices=False)
    tol = max(svals[0] * 1e-10, 1e-12)
    if int((svals > tol).sum()) < rank:
        raise IVectorError(f"residual spread has rank {int((svals > tol).sum())} < requested {rank}")
    t_white = vt[:rank].T * (svals[:rank] / np.sqrt(len(stats_list)))
    return (t_white * sigma.reshape(-1)[:, None]).reshape(c, f_dim, rank)


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


# R = 60 and IVECTOR_CHUNK + 2 recordings: more than one row block of the
# stored Gram and more than one GEMM tile.
PINNED_MULTI_BLOCK = dict(c=40, f_dim=30, rank_draw=59, n_rec=IVECTOR_CHUNK + 2, cuts=[7], seed=3)


class TestBatchInvariance:
    def test_pinned_example_spans_several_blocks(self):
        p = PINNED_MULTI_BLOCK
        assert 1 + p["rank_draw"] > ivector._GRAM_ROW_BLOCK
        assert p["n_rec"] > IVECTOR_CHUNK

    @settings(deadline=None, max_examples=30)
    @given(
        c=st.integers(min_value=1, max_value=8),
        f_dim=st.integers(min_value=1, max_value=5),
        rank_draw=st.integers(min_value=0, max_value=29),
        n_rec=st.integers(min_value=IVECTOR_CHUNK + 1, max_value=3 * IVECTOR_CHUNK),
        cuts=st.lists(st.integers(min_value=1, max_value=3 * IVECTOR_CHUNK), max_size=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(c=8, f_dim=5, rank_draw=29, n_rec=2 * IVECTOR_CHUNK + 3, cuts=[5, 20], seed=1)
    @example(**PINNED_MULTI_BLOCK)
    def test_rows_independent_of_batch(self, c, f_dim, rank_draw, n_rec, cuts, seed):
        # PINNED_MULTI_BLOCK also spans several Gram row blocks.
        rng = np.random.default_rng(seed)
        rank = 1 + rank_draw % (c * f_dim)
        ubm = make_ubm(rng, c, f_dim)
        tv = make_tv(rng, ubm, rank, scale=0.5)
        stats = []
        for i in range(n_rec):
            n = rng.uniform(0.1, 10.0, c) * (rng.random(c) < 0.8)
            if i % 7 == 3:
                n[:] = 0.0  # a recording with no frames at all
            stats.append(SufficientStats(n, rng.normal(0, 3.0, (c, f_dim)) * (n[:, None] > 0)))

        whole = extract_ivectors(tv, ubm, stats)
        for i, s in enumerate(stats):
            assert np.array_equal(whole[i], extract_ivectors(tv, ubm, [s])[0])
            np.testing.assert_allclose(whole[i], oracle_on_occupied(tv, ubm, s), atol=1e-8)
        bounds = [0, *sorted({cut for cut in cuts if cut < n_rec}), n_rec]
        for lo, hi in zip(bounds, bounds[1:]):
            assert np.array_equal(whole[lo:hi], extract_ivectors(tv, ubm, stats[lo:hi]))

    @pytest.mark.parametrize(
        "c, f_dim, rank, never_occupied",
        [
            pytest.param(3, 2, 2, None, id="3-2-2"),
            pytest.param(6, 4, 5, None, id="6-4-5"),
            pytest.param(4, 8, 24, None, id="4-8-24"),
            pytest.param(6, 4, 5, 3, id="6-4-5-component-3-never-occupied"),
        ],
    )
    def test_train_tv_matches_per_recording_loop(self, rng, c, f_dim, rank, never_occupied):
        # Five E-step tiles of recordings.
        ubm = make_ubm(rng, c, f_dim)
        tv_true = make_tv(rng, ubm, rank, scale=0.8)
        stats, _ = synthetic_stats(rng, ubm, tv_true, 4 * IVECTOR_CHUNK + 5)
        for s in stats[::4]:  # component 0 unoccupied in some recordings
            s.n[0] = 0.0
            s.f[0] = 0.0
        if never_occupied is None:
            got = train_tv(stats, ubm, rank, n_iters=2)
        else:
            for s in stats:
                s.n[never_occupied] = 0.0
                s.f[never_occupied] = 0.0
            with pytest.warns(RuntimeWarning, match=f"component {never_occupied} has no occupancy"):
                got = train_tv(stats, ubm, rank, n_iters=2)
        want = reference_train_tv(stats, ubm, rank, n_iters=2)
        np.testing.assert_allclose(got.t, want.t, rtol=0, atol=1e-10)
        if never_occupied is not None:  # the PCA block, kept bit for bit
            assert np.array_equal(got.t[never_occupied], want.t[never_occupied])


# Paper shape: C=256, F=76, R=150 over about three tiles of recordings.
PAPER_SHAPE = dict(c=256, f_dim=76, rank=150, n_rec=3 * IVECTOR_CHUNK + 3)
# The only recording that occupies the last LONELY_COMPONENTS components, so
# no other row of its tile (or of any tile) shares them.
LONELY_ROW, LONELY_COMPONENTS = IVECTOR_CHUNK + 2, 16


def paper_shape_case(seed=0):
    """A paper-shape T, UBM and statistics: about 40% occupancy per
    recording, every seventh recording with no occupancy at all, and one
    recording (LONELY_ROW) alone on its components."""
    rng = np.random.default_rng(seed)
    p = PAPER_SHAPE
    c = p["c"]
    ubm = make_ubm(rng, c, p["f_dim"])
    tv = make_tv(rng, ubm, p["rank"], scale=0.1)
    stats = []
    for i in range(p["n_rec"]):
        n = rng.uniform(0.1, 20.0, c) * (rng.random(c) < 0.4)
        if i == LONELY_ROW:
            n[:-LONELY_COMPONENTS] = 0.0
            n[-LONELY_COMPONENTS:] = rng.uniform(0.1, 20.0, LONELY_COMPONENTS)
        else:
            n[-LONELY_COMPONENTS:] = 0.0
        if i % 7 == 3:
            n[:] = 0.0
        stats.append(SufficientStats(n, rng.normal(0, 3.0, (c, p["f_dim"])) * (n[:, None] > 0)))
    return tv, ubm, stats


def check_paper_shape_invariance(seed=0):
    """Whole-batch rows equal single-recording rows and rows of random splits,
    bit for bit."""
    tv, ubm, stats = paper_shape_case(seed)
    whole = extract_ivectors(tv, ubm, stats)
    for i, s in enumerate(stats):
        assert np.array_equal(whole[i], extract_ivector(tv, ubm, s).w), i
        if not s.n.any():
            assert not whole[i].any()
    rng = np.random.default_rng(seed + 1)
    for _ in range(2):
        cuts = sorted(rng.choice(np.arange(1, len(stats)), size=3, replace=False))
        bounds = [0, *cuts, len(stats)]
        for lo, hi in zip(bounds, bounds[1:]):
            assert np.array_equal(whole[lo:hi], extract_ivectors(tv, ubm, stats[lo:hi])), (lo, hi)


class TestPaperShape:
    def test_rows_independent_of_batch(self):
        check_paper_shape_invariance()

    def test_rows_independent_of_batch_at_one_blas_thread(self):
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", "import test_ivector; test_ivector.check_paper_shape_invariance()"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_prebuilt_gram_gives_the_same_bits(self):
        tv, ubm, stats = paper_shape_case()
        n, f = np.stack([s.n for s in stats]), np.stack([s.f for s in stats])
        lazy = ivector._TvOperator(tv, ubm)
        full = ivector._TvOperator(tv, ubm)
        full._build_grams(range(tv.t.shape[0]))
        for lo in range(0, len(stats), IVECTOR_CHUNK):
            rows = slice(lo, lo + IVECTOR_CHUNK)
            for got, want in zip(lazy.posterior(n[rows], f[rows]), full.posterior(n[rows], f[rows])):
                assert np.array_equal(got, want)
            if lo == 0:  # the lonely components wait for the lonely row's tile
                assert not lazy._built[-LONELY_COMPONENTS:].any()
        assert np.array_equal(lazy._built, (n != 0).any(axis=0))

    def test_no_state_leaks_between_calls(self):
        tv, ubm, stats = paper_shape_case()
        n, f = np.stack([s.n for s in stats]), np.stack([s.f for s in stats])
        used = ivector._TvOperator(tv, ubm)
        used.posterior(n[:IVECTOR_CHUNK], f[:IVECTOR_CHUNK])
        for rows in (slice(LONELY_ROW, LONELY_ROW + 1), slice(IVECTOR_CHUNK, 2 * IVECTOR_CHUNK)):
            fresh = ivector._TvOperator(tv, ubm)
            for got, want in zip(used.posterior(n[rows], f[rows]), fresh.posterior(n[rows], f[rows])):
                assert np.array_equal(got, want)


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

    @pytest.mark.parametrize(
        "c, f_dim, n_rec, rank",
        [(6, 4, 12, 5), (16, 8, 40, 12), (3, 2, 20, 4), (2, 2, 9, 4)],
        ids=["fewer-recordings", "wider", "more-recordings-than-CF", "rank-equals-CF"],
    )
    def test_matches_svd_reference_up_to_sign(self, rng, c, f_dim, n_rec, rank):
        ubm = make_ubm(rng, c, f_dim)
        stats = [
            SufficientStats(rng.uniform(0.0, 5.0, c), rng.normal(0, 2.0, (c, f_dim)))
            for _ in range(n_rec)
        ]
        got = init_tv_pca(stats, ubm, rank).t.reshape(-1, rank)
        want = reference_init_tv_pca(stats, ubm, rank).reshape(-1, rank)
        signs = np.sign(np.sum(got * want, axis=0))
        assert np.all(signs != 0)
        np.testing.assert_allclose(got * signs, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n_rec", [10, 30])
    def test_rank_deficient_spread_same_error_as_svd_reference(self, rng, n_rec):
        # Residuals spanning two directions of a 4-dimensional supervector.
        ubm = make_ubm(rng, 2, 2, unit_var=True)
        basis = rng.normal(0, 1, (2, 4))
        stats = []
        for _ in range(n_rec):
            n = np.full(2, 10.0)
            resid = (rng.normal(0, 1, 2) @ basis).reshape(2, 2)
            stats.append(SufficientStats(n, resid * n[:, None]))
        with pytest.raises(IVectorError) as want:
            reference_init_tv_pca(stats, ubm, rank=3)
        with pytest.raises(IVectorError) as got:
            init_tv_pca(stats, ubm, rank=3)
        assert str(got.value) == str(want.value) == "residual spread has rank 2 < requested 3"
        init_tv_pca(stats, ubm, rank=2)  # the spread it has is accepted

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

    def test_em_iteration_peak_stays_near_pca_init(self, rng):
        # The PCA init stacks the statistics once. An EM iteration that kept
        # a second stack of them beside its E[ww'] stack, or kept E[ww']
        # unpacked as an (N, R, R) stack, would peak far above it.
        c, f_dim, rank, n_rec = 64, 24, 48, 120
        ubm = make_ubm(rng, c, f_dim)
        stats = [
            SufficientStats(rng.uniform(0.1, 20.0, c), rng.normal(0, 3.0, (c, f_dim)))
            for _ in range(n_rec)
        ]
        peaks = []
        for call in (
            lambda: init_tv_pca(stats, ubm, rank),
            lambda: train_tv(stats, ubm, rank, n_iters=1),
        ):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

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
    def test_tv_roundtrip(self, rng):
        ubm = make_ubm(rng)
        tv = make_tv(rng, ubm, rank=2)
        back = tv_from_bytes(tv_to_bytes(tv))
        assert np.array_equal(back.t, tv.t)
        assert back.ubm_checksum == tv.ubm_checksum

    def test_loaded_t_is_an_owned_writeable_copy(self, rng):
        ubm = make_ubm(rng, 4, 3)
        tv = make_tv(rng, ubm, rank=5)
        back = tv_from_bytes(tv_to_bytes(tv))
        assert back.t.flags.writeable and back.t.flags.owndata
        assert np.array_equal(back.t, tv.t)

    def test_decoding_copies_the_payload_once(self):
        # 64 x 64 x 256 doubles: an 8 MB payload, far above the decoder's
        # own small allocations.
        t = np.arange(64 * 64 * 256, dtype=np.float64).reshape(64, 64, 256)
        raw = tv_to_bytes(TvMatrix(t, "0" * 64))
        tracemalloc.start()
        try:
            back = tv_from_bytes(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.t, t)
        assert t.nbytes <= peak < 1.5 * t.nbytes

    def test_truncated_tv_rejected(self, rng):
        ubm = make_ubm(rng)
        raw = tv_to_bytes(make_tv(rng, ubm, rank=2))
        with pytest.raises(ContainerError, match="truncated"):
            tv_from_bytes(raw[:-1])

    def test_ivector_batch_roundtrip(self, rng):
        ids = ["a.wav", "b.wav", "c.wav"]
        w = rng.normal(0, 1, (3, 4))
        ids_back, w_back = ivectors_from_bytes(ivectors_to_bytes(ids, w))
        assert ids_back == ids
        assert np.array_equal(w_back, w)

    def test_rank_bound_validated(self, rng):
        ubm = make_ubm(rng, 2, 2)
        with pytest.raises(IVectorError, match="rank"):
            TvMatrix(rng.normal(0, 1, (2, 2, 5)), gmm_checksum(ubm))
