"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py -v` to see one pass line per
criterion; any failure shows up as a normal pytest failure.
"""

from unittest import mock

import numpy as np
import pytest
from oracles import oracle_eer, oracle_min_dcf

from svkit import audio, augment, backend, metrics, objectives, pooling, scoring, store


def _report(n, desc):
    print(f"[PASS] criterion {n}: {desc}")


def test_c01_schedule_exactness():
    msched = objectives.MarginSchedule()
    assert objectives.margin_at(10, msched) == 0.0
    assert abs(objectives.margin_at(30, msched) - 0.1) <= 1e-12 * 0.1
    assert objectives.margin_at(100, msched) == 0.2
    assert objectives.margin_at(100, msched, lmf=True) == 0.5
    lsched = objectives.LrSchedule()
    assert abs(objectives.lr_at(6, lsched) - 0.1) <= 1e-12 * 0.1
    assert abs(objectives.lr_at(150, lsched) - 5e-5) <= 1e-12 * 5e-5
    _report(1, "margin ramp and warmup/decay learning rate hit their anchors")


def test_c02_aam_gradient():
    rng = np.random.default_rng(2024)
    h = 1e-5

    def loss_at(e, w, labels, cfg):
        return objectives.aam_forward(e, w, labels, cfg)[0]

    worst = 0.0
    for _ in range(20):
        emb = rng.normal(size=(4, 8))
        weights = rng.normal(size=(5, 8))
        labels = rng.integers(0, 5, size=4)
        cfg = objectives.AamConfig(scale=32.0, margin=float(rng.uniform(0.0, 0.5)))
        de, dw = objectives.aam_grad(emb, weights, labels, cfg)
        for arr, which in ((emb, "e"), (weights, "w")):
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                hi, lo = arr.copy(), arr.copy()
                hi[idx] += h
                lo[idx] -= h
                if which == "e":
                    fd[idx] = (loss_at(hi, weights, labels, cfg) - loss_at(lo, weights, labels, cfg)) / (2 * h)
                else:
                    fd[idx] = (loss_at(emb, hi, labels, cfg) - loss_at(emb, lo, labels, cfg)) / (2 * h)
            got = de if which == "e" else dw
            denom = np.maximum(np.maximum(np.abs(got), np.abs(fd)), 1e-5)
            worst = max(worst, float(np.max(np.abs(got - fd) / denom)))
    assert worst < 1e-4

    # m = 0, s = 1 reduces to softmax cross-entropy over raw cosines
    emb = rng.normal(size=(6, 10))
    weights = rng.normal(size=(7, 10))
    labels = rng.integers(0, 7, size=6)
    loss, _ = objectives.aam_forward(emb, weights, labels, objectives.AamConfig(1.0, 0.0))
    u = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    v = weights / np.linalg.norm(weights, axis=1, keepdims=True)
    z = u @ v.T
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -logp[np.arange(6), labels].mean()
    assert abs(loss - want) < 1e-10
    _report(2, f"analytic AAM gradient vs finite differences (max rel err {worst:.2e})")


def test_c03_xi_pool():
    stats = pooling.XiFrameStats(np.array([[0.0], [1.0]]), np.log([[1.0], [3.0]]))
    mean, _ = pooling.xi_pool(stats, pooling.XiPrior.flat(1, -60.0))
    assert abs(mean[0] - 0.75) <= 1e-12

    rng = np.random.default_rng(3)
    z = rng.normal(size=(7, 5))
    flat_mean, _ = pooling.xi_pool(
        pooling.XiFrameStats(z, np.zeros((7, 5))), pooling.XiPrior.flat(5, -60.0)
    )
    assert np.max(np.abs(flat_mean - z.mean(axis=0))) < 1e-10

    prior_mean = rng.normal(size=5)
    dom_mean, _ = pooling.xi_pool(
        pooling.XiFrameStats(z, np.zeros((7, 5))),
        pooling.XiPrior(prior_mean, np.full(5, 60.0)),
    )
    assert np.max(np.abs(dom_mean - prior_mean)) < 1e-10

    for _ in range(1000):
        t, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        zs = rng.normal(scale=3.0, size=(t, d))
        lp = rng.uniform(-60, 60, size=(t, d))
        prior = pooling.XiPrior(rng.normal(size=d), rng.uniform(-60, 60, size=d))
        m, _ = pooling.xi_pool(pooling.XiFrameStats(zs, lp), prior)
        lo = np.minimum(zs.min(axis=0), prior.prior_mean)
        hi = np.maximum(zs.max(axis=0), prior.prior_mean)
        assert np.all(m >= lo - 1e-9) and np.all(m <= hi + 1e-9)
    _report(3, "xi pooling closed form, limits, and convex-combination bound")


def test_c04_pooling_permutation_invariance():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(2, 30))
        d = int(rng.integers(2, 12))
        n_layers = int(rng.integers(1, 4))
        frames = rng.normal(size=(t, d))
        perm = rng.permutation(t)

        dev = np.abs(pooling.tstp(frames) - pooling.tstp(frames[perm]))
        worst = max(worst, float(dev.max()))

        asp_params = pooling.AspParams.random(d, 6, rng)
        dev = np.abs(pooling.asp(frames, asp_params) - pooling.asp(frames[perm], asp_params))
        worst = max(worst, float(dev.max()))

        mh = pooling.MhfaParams.random(n_layers, d, rng, num_heads=4, key_dim=5, embed_dim=16)
        stack = rng.normal(size=(n_layers, t, d))
        dev = np.abs(pooling.mhfa(stack, mh) - pooling.mhfa(stack[:, perm, :], mh))
        worst = max(worst, float(dev.max()))
    assert worst < 1e-9

    # MHFA degenerate cases: T = 1 ignores queries, L = 1 ignores layer weights
    mh = pooling.MhfaParams.random(3, 8, rng, num_heads=4, key_dim=5, embed_dim=16)
    stack1 = rng.normal(size=(3, 1, 8))
    alt = pooling.MhfaParams(
        mh.layer_weights_k, mh.layer_weights_v, mh.key_proj, mh.value_proj,
        rng.normal(size=mh.queries.shape) * 50, mh.out_proj,
    )
    np.testing.assert_array_equal(pooling.mhfa(stack1, mh), pooling.mhfa(stack1, alt))
    single = pooling.MhfaParams.random(1, 8, rng, num_heads=4, key_dim=5, embed_dim=16)
    shifted = pooling.MhfaParams(
        single.layer_weights_k + 10, single.layer_weights_v - 3, single.key_proj,
        single.value_proj, single.queries, single.out_proj,
    )
    stackL1 = rng.normal(size=(1, 6, 8))
    np.testing.assert_array_equal(pooling.mhfa(stackL1, single), pooling.mhfa(stackL1, shifted))
    _report(4, f"pooling permutation invariance (max deviation {worst:.2e}) and degenerate cases")


def test_c05_metrics_oracle_equivalence():
    rng = np.random.default_rng(5)
    ops = [metrics.OperatingPoint(0.01), metrics.OperatingPoint(0.005)]
    for _ in range(200):
        nt = int(rng.integers(1, 50))
        nn = int(rng.integers(1, 50))
        tar = rng.normal(rng.uniform(0, 2), 1.0, nt)
        non = rng.normal(0.0, 1.0, nn)
        if rng.random() < 0.3:
            tar, non = np.round(tar, 1), np.round(non, 1)
        s = metrics.LabeledScores(tar, non)

        assert abs(metrics.eer(s) - oracle_eer(s.target, s.nontarget)) <= 1e-12
        for op in ops:
            got_v, got_t = metrics.min_dcf(s, op)
            want_v, want_t = oracle_min_dcf(s.target, s.nontarget, op.p_target)
            assert abs(got_v - want_v) <= 1e-12
            assert got_t == want_t
        want_cp = 0.5 * (
            oracle_min_dcf(s.target, s.nontarget, 0.01)[0]
            + oracle_min_dcf(s.target, s.nontarget, 0.005)[0]
        )
        assert abs(metrics.c_primary(s, ops) - want_cp) <= 1e-12

        warped = metrics.LabeledScores(3 * np.tanh(s.target) + 2, 3 * np.tanh(s.nontarget) + 2)
        assert metrics.eer(s) == metrics.eer(warped)
        for op in ops:
            assert metrics.min_dcf(s, op)[0] == metrics.min_dcf(warped, op)[0]
        assert metrics.c_primary(s, ops) == metrics.c_primary(warped, ops)
    _report(5, "eer/minDCF/averaged cost match the brute-force sweep; monotone invariance exact")


def _pairwise_trials(ids, labels_by_id, rng, n_trials=4000):
    pairs = set()
    items = []
    while len(items) < n_trials:
        a, b = rng.choice(len(ids), size=2, replace=False)
        key = (ids[a], ids[b])
        if key in pairs:
            continue
        pairs.add(key)
        items.append((key, labels_by_id[ids[a]] == labels_by_id[ids[b]]))
    return scoring.TrialList.from_pairs([k for k, _ in items], np.array([t for _, t in items]))


def test_c06_backend_improves_eer():
    rng = np.random.default_rng(6)
    n, d = 500, 20
    # class direction e1; all other dims carry large isotropic noise
    noise = np.concatenate([[0.4], np.full(d - 1, 3.0)])
    xa = rng.normal(size=(n, d)) * noise + np.eye(d)[0]
    xb = rng.normal(size=(n, d)) * noise - np.eye(d)[0]
    ids = [f"a{k}" for k in range(n)] + [f"b{k}" for k in range(n)]
    labels = {i: i[0] for i in ids}
    s = store.EmbeddingSet(ids, np.vstack([xa, xb]).astype(np.float32))

    trials = _pairwise_trials(ids, labels, rng)

    def eer_of(emb_set):
        scores = scoring.score_trials(emb_set, emb_set, trials)
        ls = metrics.LabeledScores(scores[trials.labels], scores[~trials.labels])
        toolkit = metrics.eer(ls)
        oracle = oracle_eer(ls.target, ls.nontarget)
        assert abs(toolkit - oracle) <= 1e-12
        return toolkit

    raw_eer = eer_of(s)
    center = backend.fit_center(s)
    centered = backend.apply_pipeline(backend.Pipeline(center=center), s)
    lda = backend.fit_lda(centered, labels, k=1)
    pipe = backend.Pipeline(center=center, lda=lda, length_norm=True)
    processed = backend.apply_pipeline(pipe, s)
    lda_eer = eer_of(processed)
    assert lda_eer < raw_eer
    _report(6, f"center+LDA+length-norm EER {lda_eer:.4f} < raw cosine EER {raw_eer:.4f}")


def test_c07_scoring_determinism():
    rng = np.random.default_rng(7)
    models = store.EmbeddingSet(
        [f"m{k}" for k in range(100)], rng.normal(size=(100, 64)).astype(np.float32)
    )
    tests = store.EmbeddingSet(
        [f"t{k}" for k in range(200)], rng.normal(size=(200, 64)).astype(np.float32)
    )
    pairs = [(f"m{i}", f"t{j}") for i in range(100) for j in range(100)]
    trials = scoring.TrialList.from_pairs(pairs)
    assert len(trials) == 10000
    blobs = set()
    for values in (scoring.SCORE_BLOCK, 999 * 64, 17 * 64):  # the default, 999 and 17 rows of 64
        for _ in range(2):  # repeated runs
            with mock.patch.object(scoring, "SCORE_BLOCK", values):
                got = scoring.score_trials(models, tests, trials)
            blobs.add(got.tobytes())
    assert len(blobs) == 1
    _report(7, "10,000-trial scoring bitwise identical across block sizes and runs")


def test_c08_dsp_checks():
    buf = audio.AudioBuffer(np.random.default_rng(8).normal(0, 0.1, 16000), 16000)
    feats = audio.log_mel_fbank(buf)
    assert feats.values.shape == (98, 80)

    t = np.arange(16000) / 16000.0
    tone = audio.AudioBuffer(0.7 * np.sin(2 * np.pi * 1000 * t), 16000)
    down = audio.resample(tone, 8000)
    spectrum = np.abs(np.fft.rfft(down.samples))
    assert spectrum.argmax() == 1000
    trim = down.samples[150:-150]
    tt = (np.arange(len(trim)) + 150) / 8000.0
    basis = np.column_stack([np.cos(2 * np.pi * 1000 * tt), np.sin(2 * np.pi * 1000 * tt)])
    coef, *_ = np.linalg.lstsq(basis, trim, rcond=None)
    amp = float(np.hypot(*coef))
    assert abs(amp - 0.7) / 0.7 < 0.01

    tone6 = audio.AudioBuffer(np.sin(2 * np.pi * 6000 * t), 16000)
    out6 = audio.resample(tone6, 8000)
    rms_ratio = np.sqrt(np.mean(out6.samples**2)) / np.sqrt(np.mean(tone6.samples**2))
    assert rms_ratio < 10 ** (-40 / 20)
    _report(8, f"98x80 features; 1 kHz within {100 * abs(amp - 0.7) / 0.7:.2f}%; "
               f"6 kHz at {20 * np.log10(rms_ratio):.1f} dB")


GOLDEN_COMMANDS = {
    "down8k": [
        "sox /data/audio/utt1.wav -r 8000 -t gsm /out/utt1.gsm && "
        "sox /out/utt1.gsm -t wav -e signed -b 16 /out/utt1.wav",
        "sox '/data/audio/utt 2.wav' -r 8000 /out/utt2.wav",
    ],
    "down8k-up16k": [
        "sox /data/audio/utt1.wav -r 8000 -t gsm /out/utt1.gsm && "
        "sox /out/utt1.gsm -t wav -e signed -b 16 -r 16000 /out/utt1.wav",
        "sox '/data/audio/utt 2.wav' -r 8000 /out/utt2.8k.wav && "
        "sox /out/utt2.8k.wav -r 16000 /out/utt2.wav",
    ],
    "keep16k": [
        "cp /data/audio/utt1.wav /out/utt1.wav",
        "cp '/data/audio/utt 2.wav' /out/utt2.wav",
    ],
}


def test_c09_augment_planning():
    for n in range(1, 51):
        manifest = augment.UtteranceManifest(
            [augment.Utterance(f"u{k}", f"/d/u{k}.wav", 2.0, 16000) for k in range(n)]
        )
        plan = augment.plan_augmentation(manifest, 0.5, "down8k", seed=n * 7)
        flagged = sum(e.codec == "gsm" for e in plan.entries)
        assert flagged == int(np.floor(0.5 * n + 0.5))

    manifest = augment.UtteranceManifest(
        [
            augment.Utterance("utt1", "/data/audio/utt1.wav", 3.2, 16000),
            augment.Utterance("utt2", "/data/audio/utt 2.wav", 5.0, 16000),
        ]
    )
    for mode, want in GOLDEN_COMMANDS.items():
        codec = "gsm" if mode != "keep16k" else "none"
        entries = [
            augment.PlanEntry("utt1", codec, mode, 1.0),
            augment.PlanEntry("utt2", "none", mode, 1.0),
        ]
        got = list(augment.render_commands(augment.AugmentPlan(manifest, entries), "/out"))
        assert got == want
    _report(9, "exact codec fractions for N in 1..50; golden command templates byte-exact")


def test_c10_format_roundtrips(tmp_path):
    rng = np.random.default_rng(10)
    for trial in range(100):
        n = int(rng.integers(0, 25))
        d = int(rng.integers(1, 40))
        ids = [f"r{trial}_{k}" for k in range(n)]
        s = store.EmbeddingSet(ids, rng.normal(size=(n, d)).astype(np.float32))
        path = tmp_path / "set.sveb"
        store.write_embeddings(s, path)
        back = store.read_embeddings(path)
        assert back.ids == s.ids and back.vectors.tobytes() == s.vectors.tobytes()

        if n >= 4 and d >= 2:
            labels = {i: f"c{k % 2}" for k, i in enumerate(ids)}
            stages = int(rng.integers(0, 8))
            pipe = backend.Pipeline(
                center=backend.fit_center(s) if stages & 1 else None,
                lda=backend.fit_lda(s, labels, 1) if stages & 2 else None,
                length_norm=bool(stages & 4),
            )
            ppath = tmp_path / "pipe.svpl"
            backend.save_pipeline(pipe, ppath)
            reloaded = backend.load_pipeline(ppath)
            a = backend.apply_pipeline(pipe, s)
            b = backend.apply_pipeline(reloaded, s)
            assert a.vectors.tobytes() == b.vectors.tobytes()
    _report(10, "SVEB and pipeline files roundtrip bit-exactly on 100 random sets")
