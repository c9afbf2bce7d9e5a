"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its headline numbers (visible with -s or
in the captured-output section). Criteria with runtime bounds assert them.
"""

import time

import numpy as np

from sceneid.audio import AudioBuffer, FrameConfig, frame_signal, window_values
from sceneid.backend import classify_many, train_backend
from sceneid.config import PipelineConfig
from sceneid.features import make_mel_bank, mfcc, power_spectrogram
from sceneid.gmm import SufficientStats, gmm_checksum, train_ubm
from sceneid.ivector import TvMatrix, extract_ivector, extract_ivectors, train_tv
from sceneid.manifest import CorpusManifest
from sceneid.mixer import active_speech_level, align_speech, mix_at_sbr, rms_level
from sceneid.noisefloor import SppParams, noise_floor_spectrogram
from sceneid.pipeline import (
    build_multicondition_corpus,
    run_evaluation,
    run_sbr_sweep,
    run_training,
)
from sceneid.synth import generate_corpus, scene_clip, speech_clip

from conftest import eq2_labels, init_state, noise_periodogram_estimate, update
from test_features import oracle_log_mel_dct
from test_ivector import make_tv, make_ubm, oracle_posterior_mean, synthetic_stats


def test_criterion_1_dsp_oracles():
    """MFCC matches an independent naive log-mel-DCT; flat spectra put
    everything in c0. Runtime < 10 s."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    bank = make_mel_bank(40, 1024, 16000)

    worst = 0.0
    for _ in range(100):
        frames = rng.uniform(0.0, 4.0, size=(5, 513))
        got = mfcc(frames, bank, 21)
        want = oracle_log_mel_dct(frames, bank, 21)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-8

    flat = mfcc(np.full((3, 513), 2.0), bank, 21)
    flat_leak = float(np.max(np.abs(flat[:, 1:])))
    assert flat_leak < 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"PASS criterion 1: MFCC oracle max err {worst:.2e} (<1e-8), "
        f"flat-spectrum leak {flat_leak:.2e} (<1e-9), {elapsed:.1f}s (<10s)"
    )


def test_criterion_2_noise_floor_tracking():
    """White-noise accuracy and burst robustness of the tracker. Runtime < 30 s."""
    start = time.monotonic()
    rate = 16000
    params = SppParams()
    cfg = FrameConfig()
    settled = int(2.0 / 0.020)

    # clause 1: 10 s stationary white noise vs the known generator PSD
    rng = np.random.default_rng(0)
    spec = power_spectrogram(
        frame_signal(AudioBuffer(rng.standard_normal(10 * rate), rate), cfg)
    )
    true_psd = float(np.sum(window_values("hann", 640) ** 2))
    est = noise_floor_spectrogram(spec, params)[settled:].mean(axis=0)
    coverage = float(np.mean(np.abs(10 * np.log10(est / true_psd)) <= 1.5))
    assert coverage >= 0.95

    # clause 2: +10 dB 200 ms bursts; tracker holds, plain smoothing does not
    rng = np.random.default_rng(3)
    sigma = 0.05
    noise = sigma * rng.standard_normal(10 * rate)
    t = np.arange(10 * rate) / rate
    tone = np.sqrt(20) * sigma * np.sin(2 * np.pi * 1000.0 * t)
    sig = noise.copy()
    for s0 in range(0, 10 * rate, int(0.6 * rate)):
        sig[s0 : s0 + int(0.2 * rate)] += tone[s0 : s0 + int(0.2 * rate)]
    spec_burst = power_spectrogram(frame_signal(AudioBuffer(sig, rate), cfg))
    ref = power_spectrogram(frame_signal(AudioBuffer(noise, rate), cfg)).mean(axis=0)
    tone_bins = 10 * np.log10(spec_burst.mean(axis=0) / ref) > 1.0

    tracked = noise_floor_spectrogram(spec_burst, params)[settled:].mean(axis=0)
    dev_tracked = 10 * np.log10(tracked / ref)
    assert np.abs(dev_tracked[tone_bins]).max() <= 3.0
    assert np.mean(np.abs(dev_tracked) <= 3.0) >= 0.95

    state = init_state(spec_burst[:5], params)
    plain = np.empty_like(spec_burst)
    plain[:5] = state.noise_psd
    for k in range(5, plain.shape[0]):
        state, plain[k] = update(state, spec_burst[k], params, spp=0.0)
    dev_plain = 10 * np.log10(plain[settled:].mean(axis=0) / ref)
    assert np.abs(dev_plain[tone_bins]).max() > 3.0

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"PASS criterion 2: white-noise coverage {coverage:.1%} (>=95% within 1.5 dB), "
        f"burst dev {np.abs(dev_tracked[tone_bins]).max():.2f} dB (<=3) vs plain "
        f"{np.abs(dev_plain[tone_bins]).max():.1f} dB (>3), {elapsed:.1f}s (<30s)"
    )


def test_criterion_3_eq5_endpoints():
    """P=0 passes the periodogram through; P=1 passes the previous floor."""
    rng = np.random.default_rng(7)
    per = rng.uniform(0.1, 5.0, 64)
    prev = rng.uniform(0.1, 5.0, 64)
    assert np.max(np.abs(noise_periodogram_estimate(per, prev, 0.0) - per)) <= 1e-12
    assert np.max(np.abs(noise_periodogram_estimate(per, prev, 1.0) - prev)) <= 1e-12

    params = SppParams()
    state = init_state(rng.uniform(0.5, 2.0, (5, 64)), params)
    _, psd_hold = update(state, per, params, spp=1.0)
    assert np.max(np.abs(psd_hold - state.noise_psd)) <= 1e-12
    _, psd_pass = update(state, per, params, spp=0.0)
    direct = params.psd_smooth * state.noise_psd + (1 - params.psd_smooth) * per
    assert np.max(np.abs(psd_pass - direct)) <= 1e-12
    print("PASS criterion 3: Eq-endpoint passthroughs exact to 1e-12")


def test_criterion_4_em_monotonicity_and_recovery():
    """UBM EM never decreases training likelihood; recovers two clusters."""
    for seed in (11, 22, 33):
        rng = np.random.default_rng(seed)
        centers = rng.normal(0, 3, (4, 6))
        x = np.vstack([rng.normal(c, rng.uniform(0.5, 1.5), (400, 6)) for c in centers])
        model = train_ubm(x, 4, n_iters=25, seed=seed)
        ll = np.array(model.ll_history)
        assert len(ll) == 25
        assert np.all(np.diff(ll) >= -1e-8 * np.maximum(1.0, np.abs(ll[:-1])))

    rng = np.random.default_rng(4)
    truth = np.array([[-5.0, 0.0], [5.0, 0.0]])
    x = np.vstack([rng.normal(mu, 1.0, (2500, 2)) for mu in truth])
    model = train_ubm(x, 2, n_iters=20, seed=4)
    order = np.argsort(model.means[:, 0])
    mean_err = float(np.abs(model.means[order] - truth).mean())
    assert mean_err < 0.1
    assert np.abs(model.weights - 0.5).max() < 0.05
    print(
        f"PASS criterion 4: EM monotone on 3 datasets (25 iters), "
        f"2-cluster mean error {mean_err:.3f} (<0.1)"
    )


def test_criterion_5_ivector_correctness():
    """Posterior solver vs dense oracle; prior mean at zero stats; recovery."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        c = int(rng.integers(1, 5))
        f_dim = int(rng.integers(1, 4))
        rank = int(rng.integers(1, min(4, c * f_dim + 1)))
        ubm = make_ubm(rng, c, f_dim)
        tv = make_tv(rng, ubm, rank)
        stats = SufficientStats(rng.uniform(0.1, 10.0, c), rng.normal(0, 3.0, (c, f_dim)))
        got = extract_ivector(tv, ubm, stats)
        want = oracle_posterior_mean(tv, ubm, stats)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-8

    ubm = make_ubm(rng, 3, 2)
    tv = make_tv(rng, ubm, 2)
    zero = extract_ivector(tv, ubm, SufficientStats(np.zeros(3), np.zeros((3, 2))))
    assert np.array_equal(zero, np.zeros(2))

    ubm = make_ubm(rng, 2, 2, unit_var=True)
    tv_true = TvMatrix(rng.normal(0, 1, (2, 2, 1)), gmm_checksum(ubm))
    stats_list, w_true = synthetic_stats(rng, ubm, tv_true, 100)
    learned = train_tv(stats_list, ubm, rank=1, n_iters=10)
    a = learned.t.reshape(-1)
    b = tv_true.t.reshape(-1)
    angle = np.degrees(
        np.arccos(min(1.0, abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))))
    )
    assert angle < 5.0
    w_est = extract_ivectors(learned, ubm, stats_list)[:, 0]
    pearson = abs(np.corrcoef(w_est, w_true[:, 0])[0, 1])
    assert pearson > 0.95
    print(
        f"PASS criterion 5: oracle max err {worst:.2e} (<1e-8), zero-stats w=0, "
        f"subspace angle {angle:.2f} deg (<5), |r| {pearson:.3f} (>0.95)"
    )


def test_criterion_6_backend_equivalences():
    """Alpha endpoints, Eq-2/Eq-3 decision identity at alpha=1, affine maps."""
    rng = np.random.default_rng(66)

    def clouds(per_class):
        x, labels = [], []
        for c in range(4):
            mu = np.zeros(3)
            mu[c % 3] = 5.0 if c < 3 else -5.0
            x.append(rng.normal(mu, 1.0, (per_class, 3)))
            labels += [f"c{c}"] * per_class
        return np.vstack(x), labels

    x, labels = clouds(80)
    shared_model = train_backend(x, labels, alpha=1.0)
    for c in range(4):
        assert np.array_equal(shared_model.sigma_tilde[c], shared_model.sigma_s)
    class_model = train_backend(x, labels, alpha=0.0)
    for c in range(4):
        assert np.array_equal(class_model.sigma_tilde[c], class_model.sigma_c[c])

    probes = rng.normal(0, 4, (1000, 3))
    assert classify_many(shared_model, probes) == eq2_labels(shared_model, probes)

    base = train_backend(x, labels, alpha=0.7)
    base_pred = classify_many(base, probes)
    agreements = 0
    for _ in range(10):
        a_mat = rng.normal(0, 1, (3, 3)) + 3.0 * np.eye(3)
        b_vec = rng.normal(0, 5, 3)
        mapped = train_backend(x @ a_mat.T + b_vec, labels, alpha=0.7)
        mapped_pred = classify_many(mapped, probes @ a_mat.T + b_vec)
        assert mapped_pred == base_pred
        agreements += 1
    print(
        f"PASS criterion 6: alpha endpoints exact, Eq-2/Eq-3 identical on 1000 "
        f"vectors, decisions invariant under {agreements}/10 affine maps"
    )


def test_criterion_7_sbr_mixing(tmp_path):
    """Re-measured SBR within 0.2 dB on 50 random triples; builds reproducible."""
    rng = np.random.default_rng(77)
    rate = 16000
    worst = 0.0
    for i in range(50):
        bg = AudioBuffer(scene_clip(int(rng.integers(0, 4)), 2 * rate, rate, rng), rate)
        sp = AudioBuffer(speech_clip(2 * rate, rate, rng, float(rng.uniform(110, 260))), rate)
        target = float(rng.uniform(-10.0, 25.0))
        _, spec = mix_at_sbr(bg, sp, target, rng_seed=i)
        aligned = align_speech(sp.samples, bg.samples.size, spec.speech_offset)
        comp = AudioBuffer(spec.headroom_gain * spec.speech_gain * aligned, rate)
        scaled_bg = AudioBuffer(spec.headroom_gain * bg.samples, rate)
        sbr = active_speech_level(comp) - rms_level(scaled_bg)
        worst = max(worst, abs(sbr - target))
    assert worst <= 0.2

    paths = generate_corpus(
        tmp_path / "corpus", n_classes=2, train_per_class=3, test_per_class=1,
        clip_seconds=1.0, n_speakers_train=2, n_speakers_eval=1,
        clips_per_speaker=1, seed=9,
    )
    manifest = CorpusManifest.load(paths["train"])
    pool = CorpusManifest.load(paths["speech_train"])
    out1 = build_multicondition_corpus(manifest, [None, -5.0], pool, 4, tmp_path / "o1")
    out2 = build_multicondition_corpus(manifest, [None, -5.0], pool, 4, tmp_path / "o2")
    (tmp_path / "o1" / "manifest.jsonl").write_bytes(out1.to_bytes())
    (tmp_path / "o2" / "manifest.jsonl").write_bytes(out2.to_bytes())
    assert (tmp_path / "o1" / "manifest.jsonl").read_bytes() == (
        tmp_path / "o2" / "manifest.jsonl"
    ).read_bytes()
    for e1, e2 in zip(out1.entries, out2.entries):
        if e1.condition != "clean":
            assert (tmp_path / "o1" / e1.path).read_bytes() == (
                tmp_path / "o2" / e2.path
            ).read_bytes()
    print(
        f"PASS criterion 7: worst re-measured SBR error {worst:.3f} dB (<=0.2), "
        f"corpus builds byte-reproducible"
    )


def test_criterion_8_end_to_end_directional(tmp_path):
    """Synthetic 4-class pipeline mirrors the published robustness trends.

    Clean >= 95%; +20 dB speech costs >= 10 points without the noise floor;
    noise-floor features recover at +20 dB; multi-condition training helps
    at +5 dB. Runtime < 10 min.
    """
    start = time.monotonic()
    paths = generate_corpus(
        tmp_path / "corpus", n_classes=4, train_per_class=30, test_per_class=20,
        clip_seconds=10.0, n_speakers_train=10, n_speakers_eval=6,
        clips_per_speaker=2, seed=3,
    )
    train = CorpusManifest.load(paths["train"])
    test = CorpusManifest.load(paths["test"])
    pool_train = CorpusManifest.load(paths["speech_train"])
    pool_eval = CorpusManifest.load(paths["speech_eval"])
    eval_speakers = {e.speaker_id for e in pool_eval.entries}

    desk = dict(
        ubm_components=16, ubm_iters=12, kmeans_iters=8, tv_rank=12, tv_iters=4, seed=20
    )
    bundle_plain = run_training(PipelineConfig(**desk), train)
    rep_plain = run_sbr_sweep(bundle_plain, test, pool_eval, [None, 5.0, 20.0], seed=600)
    acc_clean = rep_plain.condition_accuracy("clean")
    acc_plain_5 = rep_plain.condition_accuracy("sbr+5dB")
    acc_plain_20 = rep_plain.condition_accuracy("sbr+20dB")

    bundle_nf = run_training(PipelineConfig(noise_floor=True, **desk), train)
    rep_nf = run_sbr_sweep(bundle_nf, test, pool_eval, [20.0], seed=600)
    acc_nf_20 = rep_nf.condition_accuracy("sbr+20dB")

    mct_manifest = build_multicondition_corpus(
        train, [None, -5.0], pool_train, 333, tmp_path / "mct",
        exclude_speakers=eval_speakers,
    )
    bundle_mct = run_training(PipelineConfig(**desk), mct_manifest)
    acc_mct_5 = run_sbr_sweep(
        bundle_mct, test, pool_eval, [5.0], seed=600
    ).condition_accuracy("sbr+5dB")

    elapsed = time.monotonic() - start
    assert acc_clean >= 0.95
    assert acc_clean - acc_plain_20 >= 0.10
    assert acc_nf_20 >= acc_plain_20
    assert acc_mct_5 >= acc_plain_5
    assert elapsed < 600.0
    print(
        f"PASS criterion 8: clean {acc_clean:.1%} (>=95%), +20 dB drop "
        f"{100 * (acc_clean - acc_plain_20):.0f} pts (>=10), noise-floor at +20 dB "
        f"{acc_nf_20:.1%} >= {acc_plain_20:.1%}, MCT at +5 dB {acc_mct_5:.1%} >= "
        f"{acc_plain_5:.1%}, {elapsed:.0f}s (<600s)"
    )


def test_criterion_9_determinism(tmp_path):
    """Identical seeds give byte-identical bundles and reports."""
    paths = generate_corpus(
        tmp_path / "corpus", n_classes=3, train_per_class=6, test_per_class=3,
        clip_seconds=2.0, n_speakers_train=2, n_speakers_eval=2,
        clips_per_speaker=1, seed=5,
    )
    train = CorpusManifest.load(paths["train"])
    test = CorpusManifest.load(paths["test"])
    cfg = PipelineConfig(
        ubm_components=8, ubm_iters=6, kmeans_iters=4, tv_rank=4, tv_iters=2, seed=11
    )
    d1, d2 = tmp_path / "b1", tmp_path / "b2"
    b1 = run_training(cfg, train)
    b2 = run_training(cfg, train)
    b1.save(d1)
    b2.save(d2)
    names = ("config.txt", "ubm.gmm", "tv.tvm", "backend.gbe", "bundle.json")
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    r1 = run_evaluation(b1, test)
    r2 = run_evaluation(b2, test)
    r1.save(tmp_path / "r1.json")
    r2.save(tmp_path / "r2.json")
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    print("PASS criterion 9: bundles and reports byte-identical across reruns")
