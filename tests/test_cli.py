import argparse
import importlib.util
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import svkit
from oracles import oracle_min_dcf
from svkit import audio, augment, backend, cli, metrics, pooling, scoring, store
from svkit.cli import main
from svkit.errors import ContractError, FormatError
from test_backend import labelled_set, traced_peak


def make_wavs(dirpath):
    """Three deterministic test signals: tone, noise, silence+burst."""
    rng = np.random.default_rng(1234)
    t = np.arange(8000) / 16000.0
    signals = {
        "tone": 0.5 * np.sin(2 * np.pi * 440 * t),
        "noise": 0.3 * rng.standard_normal(4800).clip(-3, 3) / 3,
        "burst": np.concatenate([np.zeros(8000), rng.uniform(-0.8, 0.8, 8000)]),
    }
    paths = {}
    for name, x in signals.items():
        p = dirpath / f"{name}.wav"
        audio.write_wav(audio.AudioBuffer(x, 16000), p)
        paths[name] = p
    return paths


def synthetic_speakers(rng, n_spk=4, per_spk=10, dim=16):
    means = rng.normal(0, 1.0, size=(n_spk, dim)) * 3
    ids, vecs, labels = [], [], {}
    for s in range(n_spk):
        for u in range(per_spk):
            i = f"spk{s}-utt{u}"
            ids.append(i)
            vecs.append(means[s] + rng.normal(0, 1.0, dim))
            labels[i] = f"spk{s}"
    return store.EmbeddingSet(ids, np.asarray(vecs, np.float32)), labels


class TestFeaturesCommand:
    def test_a_frame_below_one_sample_exits_3(self, tmp_path, capsys):
        """0.05 ms is 0.4 samples at 8 kHz."""
        audio.write_wav(audio.AudioBuffer(np.zeros(800), 8000), tmp_path / "x.wav")
        assert main(["features", "--frame-len", "0.05", "--frame-shift", "0.05", "--out-dir", str(tmp_path / "f"),
                     str(tmp_path / "x.wav")]) == 3
        assert capsys.readouterr() == ("", f"svkit: {tmp_path / 'x.wav'}: frame length/shift below one sample at this rate\n")

    def test_matches_library_output(self, tmp_path, capsys):
        wavs = make_wavs(tmp_path)
        out_dir = tmp_path / "feats"
        rc = main(["features", "--out-dir", str(out_dir)] + [str(p) for p in wavs.values()])
        assert rc == 0
        for name, p in wavs.items():
            got = (out_dir / f"{name}.feats").read_bytes()
            feats = audio.log_mel_fbank(audio.read_wav(p))
            want_path = tmp_path / f"want_{name}.feats"
            store.write_matrix(feats.values, want_path)
            assert got == want_path.read_bytes()

    def test_frame_count_formula_without_vad(self, tmp_path):
        wavs = make_wavs(tmp_path)
        out_dir = tmp_path / "f2"
        rc = main(["features", "--out-dir", str(out_dir), str(wavs["tone"])])
        assert rc == 0
        m = store.read_matrix(out_dir / "tone.feats")
        assert m.shape == (1 + (8000 - 400) // 160, 80)

    def test_vad_drops_silence(self, tmp_path):
        wavs = make_wavs(tmp_path)
        out_dir = tmp_path / "f3"
        rc = main(["features", "--vad", "--out-dir", str(out_dir), str(wavs["burst"])])
        assert rc == 0
        buf = audio.read_wav(wavs["burst"])
        feats = audio.log_mel_fbank(buf)
        mask = audio.energy_vad(buf)
        got = store.read_matrix(out_dir / "burst.feats")
        assert got.shape[0] == int(mask.sum()) < feats.num_frames

    def test_vad_masks_the_fbank_frames_of_any_geometry(self, tmp_path):
        """--frame-len/--frame-shift set the frames of both the features and the VAD mask."""
        wavs = make_wavs(tmp_path)
        out_dir = tmp_path / "f6"
        rc = main(["features", "--vad", "--frame-len", "20", "--frame-shift", "8", "--out-dir", str(out_dir),
                   str(wavs["burst"])])
        assert rc == 0
        buf = audio.read_wav(wavs["burst"])
        fbank = audio.FbankConfig(frame_len_ms=20.0, frame_shift_ms=8.0)
        feats = audio.apply_vad(audio.log_mel_fbank(buf, fbank), audio.energy_vad(buf, audio.VadConfig(), fbank))
        assert 0 < feats.num_frames < audio.log_mel_fbank(buf, fbank).num_frames
        store.write_matrix(feats.values, tmp_path / "want.feats")
        assert (out_dir / "burst.feats").read_bytes() == (tmp_path / "want.feats").read_bytes()

    def test_directory_input_and_text(self, tmp_path):
        wavs = make_wavs(tmp_path)
        out_dir = tmp_path / "f4"
        rc = main(["features", "--text", "--out-dir", str(out_dir), str(tmp_path)])
        assert rc == 0
        assert sorted(p.name for p in out_dir.glob("*.tsv")) == [
            "burst.tsv",
            "noise.tsv",
            "tone.tsv",
        ]

    def test_empty_dir_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["features", "--out-dir", str(tmp_path / "o"), str(empty)])
        assert rc == 1

    def test_dither_without_seed_exit_1(self, tmp_path, capsys):
        wavs = make_wavs(tmp_path)
        assert main(["features", "--dither", "0.5", "--out-dir", str(tmp_path / "f"), str(wavs["tone"])]) == 1
        assert capsys.readouterr().err == "svkit: usage error: --dither > 0 requires --seed\n"
        assert not (tmp_path / "f" / "tone.feats").exists()

    def test_duplicate_stem_exit_3_first_written(self, tmp_path, capsys):
        wavs = make_wavs(tmp_path)
        (tmp_path / "other").mkdir()
        twin = tmp_path / "other" / "tone.wav"
        twin.write_bytes(wavs["noise"].read_bytes())
        out_dir = tmp_path / "f"
        assert main(["features", "--out-dir", str(out_dir), str(wavs["tone"]), str(twin)]) == 3
        assert capsys.readouterr().err == f"svkit: {twin}: duplicate output name 'tone'\n"
        store.write_matrix(audio.log_mel_fbank(audio.read_wav(wavs["tone"])).values, tmp_path / "want.feats")
        assert (out_dir / "tone.feats").read_bytes() == (tmp_path / "want.feats").read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["--n-mels", "0"], "n_mels must be >= 1, got 0"),
        (["--vad", "--vad-context", "-1"], "context_frames must be >= 0, got -1")], ids=["n-mels", "vad-context"])
    def test_bad_feature_size_exit_3(self, tmp_path, capsys, argv, message):
        wavs = make_wavs(tmp_path)
        assert main(["features", *argv, "--out-dir", str(tmp_path / "f"), str(wavs["tone"])]) == 3
        assert capsys.readouterr().err == f"svkit: error: {message}\n"
        assert not (tmp_path / "f" / "tone.feats").exists()

    @pytest.mark.parametrize("tag", [3, 6])  # IEEE float, A-law
    def test_non_pcm_format_tag_exit_2(self, tmp_path, capsys, tag):
        path = tmp_path / "x.wav"
        audio.write_wav(audio.AudioBuffer(np.zeros(800), 16000), path)
        raw = bytearray(path.read_bytes())
        raw[20:22] = struct.pack("<H", tag)  # the fmt chunk's format tag
        path.write_bytes(bytes(raw))
        assert main(["features", "--out-dir", str(tmp_path / "f"), str(path)]) == 2
        assert capsys.readouterr().err == f"svkit: {path}: {path}: unknown format: {tag}\n"

    def test_bad_file_reported_but_others_written(self, tmp_path, capsys):
        wavs = make_wavs(tmp_path)
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio at all")
        out_dir = tmp_path / "f5"
        rc = main(["features", "--out-dir", str(out_dir), str(bad), str(wavs["tone"])])
        assert rc == 2  # format error on the bad file
        assert (out_dir / "tone.feats").exists()
        assert "bad.wav" in capsys.readouterr().err


class TestPoolCommand:
    def test_tstp_known_values(self, tmp_path, capsys):
        path = tmp_path / "m.tsv"
        path.write_text("0\t0\n2\t2\n")
        rc = main(["pool", "--method", "tstp", str(path)])
        assert rc == 0
        vals = [float(v) for v in capsys.readouterr().out.strip().split("\t")]
        np.testing.assert_allclose(vals, [1.0, 1.0, 1.0, 1.0])

    def test_asp_requires_seed(self, tmp_path, capsys):
        path = tmp_path / "m.tsv"
        path.write_text("1\t2\n")
        assert main(["pool", "--method", "asp", str(path)]) == 1

    # unchecked, these exit 0 with a meaningless vector or end in a ZeroDivisionError
    # or ValueError traceback
    @pytest.mark.parametrize("argv, message", [
        (["asp", "--hidden-dim", "0"], "hidden_dim must be >= 1, got 0"),
        (["asp", "--hidden-dim", "-1"], "hidden_dim must be >= 1, got -1"),
        (["mhfa", "--heads", "0"], "num_heads must be >= 1, got 0"),
        (["mhfa", "--heads", "-2"], "num_heads must be >= 1, got -2"),
        (["mhfa", "--key-dim", "0"], "key_dim must be >= 1, got 0"),
        (["mhfa", "--embed-dim", "0"], "embed_dim must be >= 1, got 0")])
    def test_size_below_one_exit_3(self, tmp_path, capsys, argv, message):
        path = tmp_path / "m.tsv"
        path.write_text("1\t2\n3\t4\n")
        assert main(["pool", "--seed", "1", "--method", *argv, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"svkit: error: {message}\n"

    # checked before the read, as eval, dcf-curve and score check theirs: a missing matrix
    # does not change the exit
    @pytest.mark.parametrize("argv, code", [
        (["--method", "asp"], 1),
        (["--method", "mhfa", "--seed", "1", "--embed-dim", "250"], 3),
        (["--method", "asp", "--seed", "1", "--hidden-dim", "0"], 3)])
    def test_options_checked_before_the_read(self, tmp_path, capsys, argv, code):
        assert main(["pool", *argv, str(tmp_path / "missing.tsv")]) == code
        assert "No such file" not in capsys.readouterr().err

    def test_mhfa_output_dim(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "m.feats"
        store.write_matrix(rng.normal(size=(12, 8)), path)
        rc = main(["pool", "--method", "mhfa", "--seed", "3", "--heads", "4",
                   "--embed-dim", "32", str(path)])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().split("\t")) == 32

    def test_mhfa_embed_dim_not_a_multiple_of_heads_exit_3(self, tmp_path, capsys):
        path = tmp_path / "m.tsv"
        path.write_text("1\t2\n3\t4\n")
        assert main(["pool", "--method", "mhfa", "--seed", "1", "--embed-dim", "250", "--heads", "64",
                     str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "svkit: error: embed_dim 250 not divisible by 64 heads\n"

    def test_xi_with_precisions_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        store.write_matrix(rng.normal(size=(9, 5)), tmp_path / "m.feats")
        store.write_matrix(rng.normal(size=(9, 5)), tmp_path / "p.feats")
        assert main(["pool", "--method", "xi", "--precisions", str(tmp_path / "p.feats"),
                     str(tmp_path / "m.feats")]) == 0
        x = store.read_matrix(tmp_path / "m.feats")
        stats = pooling.XiFrameStats(x, store.read_matrix(tmp_path / "p.feats"))
        vec, _ = pooling.xi_pool(stats, pooling.XiPrior.flat(5, -60.0))
        assert capsys.readouterr().out == "\t".join(f"{v:.9g}" for v in vec) + "\n"

    def test_xi_defaults_to_frame_mean(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(9, 5))
        path = tmp_path / "m.feats"
        store.write_matrix(m, path)
        rc = main(["pool", "--method", "xi", str(path)])
        assert rc == 0
        vals = [float(v) for v in capsys.readouterr().out.strip().split("\t")]
        np.testing.assert_allclose(vals, m.astype(np.float32).astype(np.float64).mean(0), atol=1e-6)


class TestBackendScoreEvalFlow:
    @pytest.fixture
    def workspace(self, tmp_path):
        rng = np.random.default_rng(99)
        train, labels = synthetic_speakers(rng)
        store.write_embeddings(train, tmp_path / "train.sveb")
        store.write_labels(labels, tmp_path / "train.labels")

        # enroll on 3 segments per speaker, test on the remainder
        enroll_map_lines = []
        test_ids = []
        for s in range(4):
            segs = [f"spk{s}-utt{u}" for u in range(3)]
            enroll_map_lines.append(f"model{s} " + " ".join(segs))
            test_ids.extend(f"spk{s}-utt{u}" for u in range(3, 10))
        (tmp_path / "enroll.map").write_text("\n".join(enroll_map_lines) + "\n")

        trial_lines = []
        for s in range(4):
            for t in test_ids:
                label = "target" if t.startswith(f"spk{s}-") else "nontarget"
                trial_lines.append(f"model{s} {t} {label}")
        (tmp_path / "trials.txt").write_text("\n".join(trial_lines) + "\n")
        return tmp_path, train, labels, test_ids

    def test_end_to_end_matches_library(self, workspace, capsys):
        tmp_path, train, labels, test_ids = workspace
        assert main([
            "fit-backend", "--embeddings", str(tmp_path / "train.sveb"),
            "--labels", str(tmp_path / "train.labels"),
            "--out", str(tmp_path / "pipe.svpl"),
        ]) == 0
        assert main([
            "apply-backend", "--pipeline", str(tmp_path / "pipe.svpl"),
            "--embeddings", str(tmp_path / "train.sveb"),
            "--out", str(tmp_path / "proc.sveb"),
        ]) == 0
        assert main([
            "score", "--enroll", str(tmp_path / "proc.sveb"),
            "--test", str(tmp_path / "proc.sveb"),
            "--trials", str(tmp_path / "trials.txt"),
            "--enroll-map", str(tmp_path / "enroll.map"),
            "--out", str(tmp_path / "scores.tsv"),
        ]) == 0
        capsys.readouterr()

        # library-side replication of the whole flow, written independently
        center = backend.fit_center(train)
        lda = backend.fit_lda(train, labels)
        pipe = backend.Pipeline(center=center, lda=lda, length_norm=True)
        proc = backend.apply_pipeline(pipe, train)
        backend.save_pipeline(pipe, tmp_path / "pipe_lib.svpl")
        store.write_embeddings(proc, tmp_path / "proc_lib.sveb")
        assert (tmp_path / "pipe.svpl").read_bytes() == (tmp_path / "pipe_lib.svpl").read_bytes()
        assert (tmp_path / "proc.sveb").read_bytes() == (tmp_path / "proc_lib.sveb").read_bytes()
        member_map = scoring.parse_enroll_map(tmp_path / "enroll.map")
        models = scoring.build_enrollment(proc, member_map)
        trials = scoring.parse_trials(tmp_path / "trials.txt")
        scores = scoring.score_trials(models, proc, trials)
        scoring.write_scores(trials, scores, tmp_path / "scores_lib.tsv")
        assert (tmp_path / "scores.tsv").read_bytes() == (tmp_path / "scores_lib.tsv").read_bytes()

        # eval output matches library-computed metrics, formatted identically
        assert main([
            "eval", "--scores", str(tmp_path / "scores.tsv"),
            "--trials", str(tmp_path / "trials.txt"),
        ]) == 0
        out = capsys.readouterr().out
        vals = scoring.read_scores(tmp_path / "scores_lib.tsv", trials)
        ls = metrics.LabeledScores(vals[trials.labels], vals[~trials.labels])
        assert f"EER (%): {100 * metrics.eer(ls):.2f}" in out
        cprim = metrics.c_primary(ls, list(metrics.DEFAULT_OPERATING_POINTS))
        assert f"C_primary [default]: {cprim:.3f}" in out

    def test_eval_report_equals_the_centered_copy_recipe(self, workspace, capsys):
        """fit-backend fits LDA on the set as read; LDA fitted on a float32 centered copy
        differs only by rounding, and gives the same `eval` report."""
        tmp_path, train, labels, _ = workspace
        center = backend.fit_center(train)
        lda = backend.fit_lda(backend.apply_pipeline(backend.Pipeline(center=center), train), labels)
        backend.save_pipeline(backend.Pipeline(center=center, lda=lda, length_norm=True), tmp_path / "old.svpl")
        assert main(["fit-backend", "--embeddings", str(tmp_path / "train.sveb"),
                     "--labels", str(tmp_path / "train.labels"), "--out", str(tmp_path / "new.svpl")]) == 0
        capsys.readouterr()
        reports = []
        for name in ("old", "new"):
            assert main(["apply-backend", "--pipeline", str(tmp_path / f"{name}.svpl"),
                         "--embeddings", str(tmp_path / "train.sveb"), "--out", str(tmp_path / f"{name}.sveb")]) == 0
            assert main(["score", "--enroll", str(tmp_path / f"{name}.sveb"), "--test", str(tmp_path / f"{name}.sveb"),
                         "--trials", str(tmp_path / "trials.txt"), "--enroll-map", str(tmp_path / "enroll.map"),
                         "--out", str(tmp_path / f"{name}.tsv")]) == 0
            capsys.readouterr()
            assert main(["eval", "--scores", str(tmp_path / f"{name}.tsv"),
                         "--trials", str(tmp_path / "trials.txt")]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_workers_do_not_change_bytes(self, workspace, capsys):
        tmp_path, train, _, _ = workspace
        main([
            "fit-backend", "--embeddings", str(tmp_path / "train.sveb"),
            "--labels", str(tmp_path / "train.labels"), "--no-lda",
            "--out", str(tmp_path / "pipe.svpl"),
        ])
        main([
            "apply-backend", "--pipeline", str(tmp_path / "pipe.svpl"),
            "--embeddings", str(tmp_path / "train.sveb"),
            "--out", str(tmp_path / "proc.sveb"),
        ])
        outs = []
        for workers in (1, 2, 8):
            out = tmp_path / f"s{workers}.tsv"
            rc = main([
                "score", "--enroll", str(tmp_path / "proc.sveb"),
                "--test", str(tmp_path / "proc.sveb"),
                "--trials", str(tmp_path / "trials.txt"),
                "--enroll-map", str(tmp_path / "enroll.map"),
                "--workers", str(workers),
                "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_an_empty_trial_file_scores_0_trials(self, workspace, capsys):
        tmp_path, _, _, _ = workspace
        (tmp_path / "empty.txt").write_text("")
        assert main(["score", "--enroll", str(tmp_path / "train.sveb"), "--test", str(tmp_path / "train.sveb"),
                     "--trials", str(tmp_path / "empty.txt"), "--out", str(tmp_path / "scores.tsv")]) == 0
        assert capsys.readouterr() == (f"scored 0 trials -> {tmp_path / 'scores.tsv'}\n", "")
        assert (tmp_path / "scores.tsv").read_bytes() == b""

    def test_score_file_order_does_not_matter(self, workspace, capsys):
        tmp_path, _, _, _ = workspace
        assert main(["score", "--enroll", str(tmp_path / "train.sveb"),
                     "--test", str(tmp_path / "train.sveb"),
                     "--trials", str(tmp_path / "trials.txt"),
                     "--enroll-map", str(tmp_path / "enroll.map"),
                     "--out", str(tmp_path / "scores.tsv")]) == 0
        lines = (tmp_path / "scores.tsv").read_text().splitlines(keepends=True)
        perm = np.random.default_rng(3).permutation(len(lines))
        (tmp_path / "shuffled.tsv").write_text("".join(lines[k] for k in perm))
        (tmp_path / "missing.tsv").write_text("".join(lines[1:]))  # in order, less the first
        capsys.readouterr()
        reports = []
        for name in ("scores", "shuffled"):
            trials = ["--scores", str(tmp_path / f"{name}.tsv"), "--trials", str(tmp_path / "trials.txt")]
            assert main(["eval", *trials, "--csv", str(tmp_path / f"{name}.csv")]) == 0
            assert main(["dcf-curve", *trials, "--mark", "0.01", "--out", str(tmp_path / f"{name}.curve")]) == 0
            reports.append((capsys.readouterr().out, (tmp_path / f"{name}.csv").read_bytes(),
                            (tmp_path / f"{name}.curve").read_bytes()))
        assert reports[0] == reports[1]
        for command in ("eval", "dcf-curve"):
            assert main([command, "--scores", str(tmp_path / "missing.tsv"),
                         "--trials", str(tmp_path / "trials.txt")]) == 3
            assert "no score for trial model0 spk0-utt3" in capsys.readouterr().err

    def test_score_lines_outside_the_trials_are_ignored(self, workspace, capsys):
        """Extra lines after the trials in order, or mixed into a permuted file,
        change no `eval` byte."""
        tmp_path, _, _, _ = workspace
        assert main(["score", "--enroll", str(tmp_path / "train.sveb"),
                     "--test", str(tmp_path / "train.sveb"),
                     "--trials", str(tmp_path / "trials.txt"),
                     "--enroll-map", str(tmp_path / "enroll.map"),
                     "--out", str(tmp_path / "scores.tsv")]) == 0
        lines = (tmp_path / "scores.tsv").read_text().splitlines(keepends=True)
        lines += ["model0\tspk0-utt0\t0.999999\n", "model9\tspk1-utt3\t-0.5\n"]  # not trials
        (tmp_path / "tail.tsv").write_text("".join(lines))
        perm = np.random.default_rng(5).permutation(len(lines))
        (tmp_path / "mixed.tsv").write_text("".join(lines[k] for k in perm))
        capsys.readouterr()
        reports = []
        for name in ("scores", "tail", "mixed"):
            csv = tmp_path / f"{name}.csv"
            assert main(["eval", "--scores", str(tmp_path / f"{name}.tsv"),
                         "--trials", str(tmp_path / "trials.txt"), "--csv", str(csv)]) == 0
            reports.append((capsys.readouterr(), csv.read_bytes()))
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_identity_enroll_map_changes_no_score_byte(self, tmp_path, data):
        """`sK sK` for every segment makes each segment its own model, as no map does."""
        n, dim = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        vecs = data.draw(arrays(np.float32, (n, dim), elements=st.floats(-4, 4, width=32), fill=st.nothing()))
        ids = [f"s{k}" for k in range(n)]
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                                   min_size=1, max_size=12, unique=True))
        store.write_embeddings(store.EmbeddingSet(ids, vecs), tmp_path / "e.sveb")
        (tmp_path / "t.txt").write_text("".join(f"{e} {t}\n" for e, t in pairs))
        (tmp_path / "map.txt").write_text("".join(f"{i} {i}\n" for i in ids))
        score = ["score", "--enroll", str(tmp_path / "e.sveb"), "--test", str(tmp_path / "e.sveb"),
                 "--trials", str(tmp_path / "t.txt")]
        plain = main([*score, "--out", str(tmp_path / "plain.tsv")])
        mapped = main([*score, "--enroll-map", str(tmp_path / "map.txt"), "--out", str(tmp_path / "mapped.tsv")])
        assert plain == mapped  # 3 on a zero vector, else 0
        if plain == 0:
            assert (tmp_path / "plain.tsv").read_bytes() == (tmp_path / "mapped.tsv").read_bytes()

    def test_workers_below_one_exit_3(self, tmp_path, capsys):
        store.write_embeddings(store.EmbeddingSet(["a"], np.ones((1, 2), np.float32)), tmp_path / "e.sveb")
        (tmp_path / "t.txt").write_text("a a\n")
        rc = main(["score", "--enroll", str(tmp_path / "e.sveb"), "--test", str(tmp_path / "e.sveb"),
                   "--trials", str(tmp_path / "t.txt"), "--out", str(tmp_path / "s.tsv"), "--workers", "0"])
        assert rc == 3
        assert capsys.readouterr().err == "svkit: error: --workers must be >= 1, got 0\n"
        # checked before any file is read, so a missing input does not change the exit
        rc = main(["score", "--enroll", str(tmp_path / "none"), "--test", str(tmp_path / "none"),
                   "--trials", str(tmp_path / "none"), "--out", str(tmp_path / "s.tsv"), "--workers", "-1"])
        assert rc == 3
        assert capsys.readouterr().err == "svkit: error: --workers must be >= 1, got -1\n"

    def test_block_size_option_is_gone(self, tmp_path, capsys):
        """Blocks are sized from the dimension (scoring.SCORE_BLOCK), so the option and
        its config key are usage errors."""
        store.write_embeddings(store.EmbeddingSet(["a"], np.ones((1, 2), np.float32)), tmp_path / "e.sveb")
        (tmp_path / "t.txt").write_text("a a\n")
        (tmp_path / "svkit.cfg").write_text("[score]\nblock-size = 256\n")
        score = ["score", "--enroll", str(tmp_path / "e.sveb"), "--test", str(tmp_path / "e.sveb"),
                 "--trials", str(tmp_path / "t.txt"), "--out", str(tmp_path / "s.tsv")]
        assert main([*score, "--block-size", "256"]) == 1
        assert "unrecognized arguments: --block-size 256" in capsys.readouterr().err
        assert main(["--config", str(tmp_path / "svkit.cfg"), *score]) == 1
        assert "unknown config key in [score]: block-size" in capsys.readouterr().err
        assert not (tmp_path / "s.tsv").exists()

    def test_mismatched_dimensions_exit_3(self, tmp_path, capsys):
        store.write_embeddings(store.EmbeddingSet(["a"], np.ones((1, 2), np.float32)), tmp_path / "e.sveb")
        store.write_embeddings(store.EmbeddingSet(["b"], np.ones((1, 3), np.float32)), tmp_path / "t.sveb")
        (tmp_path / "t.txt").write_text("a b\n")
        rc = main(["score", "--enroll", str(tmp_path / "e.sveb"), "--test", str(tmp_path / "t.sveb"),
                   "--trials", str(tmp_path / "t.txt"), "--out", str(tmp_path / "s.tsv")])
        assert rc == 3
        assert "enrollment dimension 2 != test dimension 3" in capsys.readouterr().err

    def test_eval_perfect_separation(self, tmp_path, capsys):
        (tmp_path / "trials.txt").write_text(
            "e1 t1 target\ne1 t2 nontarget\ne2 t1 nontarget\ne2 t2 target\n"
        )
        (tmp_path / "scores.tsv").write_text(
            "e1\tt1\t0.900000\ne1\tt2\t0.100000\ne2\tt1\t0.050000\ne2\tt2\t0.800000\n"
        )
        rc = main(["eval", "--scores", str(tmp_path / "scores.tsv"),
                   "--trials", str(tmp_path / "trials.txt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "EER (%): 0.00" in out
        assert "C_primary [default]: 0.000" in out


class TestEvalOperatingPoints:
    """Costs apply to every prior, the default ones included; `[default]` marks only a
    run that sets none of --p-target, --c-miss and --c-fa."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "trials.txt").write_text("e t1 target\ne t2 nontarget\ne t3 target\ne t4 nontarget\n")
        (tmp_path / "s.tsv").write_text("e\tt1\t0.9\ne\tt2\t0.5\ne\tt3\t0.4\ne\tt4\t0.1\n")
        return ["eval", "--scores", str(tmp_path / "s.tsv"), "--trials", str(tmp_path / "trials.txt"),
                "--csv", str(tmp_path / "eval.csv")]

    def test_costs_apply_to_the_default_priors(self, files, capsys):
        assert main([*files, "--c-miss", "10"]) == 0
        out = capsys.readouterr().out
        s = metrics.LabeledScores([0.9, 0.4], [0.5, 0.1])
        ops = [metrics.OperatingPoint(p, 10.0) for p in (0.01, 0.005)]
        assert out.splitlines()[2:] == [
            *(f"minDCF (p_target={op.p_target:g}, c_miss=10, c_fa=1): {metrics.min_dcf(s, op)[0]:.3f}" for op in ops),
            f"C_primary: {metrics.c_primary(s, ops):.3f}"]
        csv = Path(files[-1]).read_text().splitlines()
        assert [line.split(",")[1:5] for line in csv[2:4]] == [["0.01", "10", "1", "no"], ["0.005", "10", "1", "no"]]
        assert csv[4].startswith("c_primary,,,,no,")

    def test_default_points_are_tagged(self, files, capsys):
        assert main(files) == 0
        out = capsys.readouterr().out
        assert "minDCF (p_target=0.01, c_miss=1, c_fa=1) [default]: " in out and "C_primary [default]: " in out
        assert all(line.split(",")[4] == "yes" for line in Path(files[-1]).read_text().splitlines()[2:])

    @pytest.mark.parametrize("options,message", [
        (["--c-miss", "nan"], "costs must be finite and positive, got nan/1.0"),
        (["--c-fa", "-5"], "costs must be finite and positive, got 1.0/-5.0"),
        (["--p-target", "0.9999999999999999", "--c-fa", "1e-320"],
         "OperatingPoint(p_target=0.9999999999999999, c_miss=1.0, c_fa=1e-320) has a best trivial cost of 0")])
    def test_a_bad_point_exits_3_before_any_read(self, files, tmp_path, capsys, options, message):
        (tmp_path / "s.tsv").unlink()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*files, *options]) == 3
        assert capsys.readouterr() == ("", f"svkit: error: {message}\n")
        assert not (tmp_path / "eval.csv").exists()


class TestFitBackendCommand:
    """fit-backend fits each stage on the training set as read, with no centered copy."""

    @pytest.fixture
    def train(self, tmp_path):
        """4000 x 256 embeddings of 40 speakers around a shared offset of 4, as SVEB and labels."""
        s, labels = labelled_set(0, 4000, 256, 40)
        s = store.EmbeddingSet(s.ids, s.vectors + 4)
        store.write_embeddings(s, tmp_path / "e.sveb")
        store.write_labels(labels, tmp_path / "e.labels")
        return tmp_path, s, labels

    def fit(self, tmp_path, *options, out="p.svpl"):
        return main(["fit-backend", "--embeddings", str(tmp_path / "e.sveb"), "--labels", str(tmp_path / "e.labels"),
                     "--out", str(tmp_path / out), *options])

    def test_within_1e_6_of_the_centered_copy_recipe(self, train, capsys):
        """Against LDA fitted on a float32 centered copy of the set: both scatters subtract
        means, so the projection and every applied value differ by rounding only, by at most
        3.7e-7 on this set and 2.7e-7 on 15000 x 256 sets; the bound is 1e-6."""
        tmp_path, s, labels = train
        assert self.fit(tmp_path) == 0
        assert capsys.readouterr().out == (
            f"fitted pipeline [center -> lda -> length-norm] on 4000 embeddings -> {tmp_path / 'p.svpl'}\n")
        assert main(["apply-backend", "--pipeline", str(tmp_path / "p.svpl"), "--embeddings", str(tmp_path / "e.sveb"),
                     "--out", str(tmp_path / "out.sveb")]) == 0
        center = backend.fit_center(s)
        lda = backend.fit_lda(backend.apply_pipeline(backend.Pipeline(center=center), s), labels)
        old = backend.Pipeline(center=center, lda=lda, length_norm=True)
        new = backend.load_pipeline(tmp_path / "p.svpl")
        assert new.center.tobytes() == old.center.tobytes()
        np.testing.assert_allclose(new.lda, old.lda, rtol=0, atol=1e-6)
        np.testing.assert_allclose(store.read_embeddings(tmp_path / "out.sveb").vectors,
                                   backend.apply_pipeline(old, s).vectors, rtol=0, atol=1e-6)

    def test_lda_does_not_depend_on_center(self, train, capsys):
        tmp_path, _, _ = train
        assert self.fit(tmp_path, "--center", out="c.svpl") == 0
        assert self.fit(tmp_path, "--no-center", out="n.svpl") == 0
        with_center, without = (tmp_path / "c.svpl").read_bytes(), (tmp_path / "n.svpl").read_bytes()
        lda_block = 8 + 4 * 256 * 39 + 1  # rows, cols, the projection, then the length-norm flag
        assert len(with_center) == len(without) + 8 + 4 * 256  # the center block
        assert with_center[-lda_block:] == without[-lda_block:]

    def test_peak_is_the_read(self, train, capsys):
        """Fitting holds the set as read and no copy of it.  The read holds the set and one
        block of records, so the fit's own work now sets the peak: fit_lda's d x d float64
        matrices (0.5 MiB each at 256-d) and the label map, 1.8 MiB above the read's peak
        here.  The bound allows 2.5 MiB, where a float32 copy of the set is 4 MB."""
        tmp_path, _, _ = train
        assert self.fit(tmp_path) == 0  # first run: lazy imports are not counted
        _, read_peak = traced_peak(store.read_embeddings, tmp_path / "e.sveb")
        rc, peak = traced_peak(self.fit, tmp_path)
        assert rc == 0
        assert peak <= read_peak + (5 << 19), (peak, read_peak)

    def test_a_label_with_a_trailing_nul_is_its_own_speaker(self, tmp_path, capsys):
        """`spk` and `spk` with a trailing NUL are two speakers that sort as `spk` and `spkA` do:
        both sidecars fit one LDA dimension and write the same pipeline bytes."""
        s = store.EmbeddingSet([f"u{k}" for k in range(4)], np.random.default_rng(3).normal(size=(4, 3)))
        store.write_embeddings(s, tmp_path / "e.sveb")
        for name, second in (("nul", "spk\x00"), ("letter", "spkA")):
            store.write_labels(dict(zip(s.ids, ["spk", second] * 2)), tmp_path / f"{name}.labels")
            assert main(["fit-backend", "--embeddings", str(tmp_path / "e.sveb"),
                         "--labels", str(tmp_path / f"{name}.labels"), "--out", str(tmp_path / f"{name}.svpl")]) == 0
        assert backend.load_pipeline(tmp_path / "nul.svpl").lda.shape == (3, 1)
        assert (tmp_path / "nul.svpl").read_bytes() == (tmp_path / "letter.svpl").read_bytes()

    @pytest.mark.parametrize("sidecar, message", [
        (None, "embedding set has no labels"),
        ("u0\ta\nu2\tb\n", "id 'u1' has no label"),
    ])
    def test_a_missing_label_exits_3(self, tmp_path, capsys, sidecar, message):
        store.write_embeddings(store.EmbeddingSet(["u0", "u1", "u2"], np.eye(3)), tmp_path / "e.sveb")
        argv = ["fit-backend", "--embeddings", str(tmp_path / "e.sveb"), "--out", str(tmp_path / "p.svpl")]
        if sidecar is not None:
            (tmp_path / "e.labels").write_text(sidecar)
            argv += ["--labels", str(tmp_path / "e.labels")]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"svkit: error: {message}\n")
        assert not (tmp_path / "p.svpl").exists()

    def test_labels_are_checked_after_the_read(self, tmp_path, capsys):
        (tmp_path / "e.tsv").write_text("u0\tx\n")
        assert main(["fit-backend", "--embeddings", str(tmp_path / "e.tsv"), "--out", str(tmp_path / "p.svpl")]) == 2
        assert capsys.readouterr().err == f"svkit: format error: {tmp_path / 'e.tsv'}:1: non-numeric value\n"

    def test_an_empty_set_exits_3(self, tmp_path, capsys):
        store.write_embeddings(store.EmbeddingSet([], np.zeros((0, 3))), tmp_path / "e.sveb")
        (tmp_path / "e.labels").write_text("a\tx\n")
        assert main(["fit-backend", "--embeddings", str(tmp_path / "e.sveb"), "--labels", str(tmp_path / "e.labels"),
                     "--no-center", "--out", str(tmp_path / "p.svpl")]) == 3
        assert capsys.readouterr() == ("", "svkit: error: cannot fit LDA on an empty set\n")

    def test_an_lda_of_another_input_dim_exits_3(self, tmp_path, capsys):
        """A pipeline with LDA and no center, fitted on 5-d vectors and applied to 7-d ones."""
        rng = np.random.default_rng(4)
        s = store.EmbeddingSet([f"u{k}" for k in range(6)], rng.normal(size=(6, 5)))
        store.write_embeddings(s, tmp_path / "five.sveb")
        store.write_labels({i: f"s{k % 2}" for k, i in enumerate(s.ids)}, tmp_path / "five.labels")
        store.write_embeddings(store.EmbeddingSet(["a", "b"], rng.normal(size=(2, 7))), tmp_path / "seven.sveb")
        assert main(["fit-backend", "--embeddings", str(tmp_path / "five.sveb"), "--labels",
                     str(tmp_path / "five.labels"), "--no-center", "--lda-dim", "1", "--out", str(tmp_path / "p.svpl")]) == 0
        capsys.readouterr()
        assert main(["apply-backend", "--pipeline", str(tmp_path / "p.svpl"), "--embeddings", str(tmp_path / "seven.sveb"),
                     "--out", str(tmp_path / "o.sveb")]) == 3
        assert capsys.readouterr() == ("", "svkit: error: LDA input dim 5 != embedding dim 7\n")
        assert not (tmp_path / "o.sveb").exists()


def _sveb_bytes(ids: list[bytes], rows) -> bytes:
    """An SVEB file of raw id bytes and float32 rows, written record by record."""
    rows = np.asarray(rows, np.float32)
    return (store.MAGIC + struct.pack("<HQI", 1, len(ids), rows.shape[1])
            + b"".join(struct.pack("<H", len(i)) + i + r.tobytes() for i, r in zip(ids, rows)))


class TestApplyBackendCommand:
    """apply-backend reads its input a block at a time into one output array, and writes only
    once every check has passed: its errors keep the order of a whole read followed by
    apply_pipeline, so an error of the input comes before one of the apply."""

    CASES = {  # name: (pipeline, input bytes or TSV text, exit code, message after the label)
        "cut-after-a-bad-id": (backend.Pipeline(), _sveb_bytes([b"a b", b"c", b"d"], np.eye(3, 2))[:-1],
                               2, "{e}: truncated: 9 bytes needed at byte 44"),
        "bad-id-and-zero-vector": (backend.Pipeline(length_norm=True), _sveb_bytes([b"a", b"a"], [[1, 0], [0, 0]]),
                                   2, "{e}: duplicate id 'a'"),
        "bad-id-and-center-dim": (backend.Pipeline(center=np.zeros(3)), _sveb_bytes([b"a b", b"c"], np.eye(2)),
                                  2, "{e}: invalid id 'a b': must be non-empty, no whitespace"),
        "nan-and-zero-vector": (backend.Pipeline(length_norm=True), _sveb_bytes([b"a", b"b"], [[np.nan, 0], [0, 0]]),
                                2, "{e}: non-finite embedding values"),
        "zero-vector-then-not-utf8": (backend.Pipeline(length_norm=True),
                                      _sveb_bytes([b"a", b"b", b"\xff"], [[0, 0], [1, 0], [0, 1]]),
                                      2, "{e}: record 2: id is not UTF-8"),
        "zero-vector": (backend.Pipeline(length_norm=True), _sveb_bytes([b"a", b"b", b"c"], [[1, 0], [0, 1], [0, 0]]),
                        3, "cannot length-normalize a zero vector"),
        "lda-dim": (backend.Pipeline(lda=np.ones((3, 1))), _sveb_bytes([b"a", b"b"], np.eye(2)),
                    3, "LDA input dim 3 != embedding dim 2"),
        "tsv-bad-id-and-zero-vector": (backend.Pipeline(length_norm=True), "a\t0\t0\na\t1\t0\n",
                                       2, "{e}: duplicate id 'a'"),
    }

    @pytest.mark.parametrize("block", [1, 24, 1 << 20])
    @pytest.mark.parametrize("old", [None, b"old bytes"], ids=["absent", "existing"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_an_error_keeps_its_message_and_the_output(self, tmp_path, capsys, monkeypatch, case, old, block):
        pipe, data, rc, message = self.CASES[case]
        monkeypatch.setattr(store, "_RECORD_BLOCK", block, raising=False)
        e = tmp_path / ("e.tsv" if isinstance(data, str) else "e.sveb")
        e.write_bytes(data.encode() if isinstance(data, str) else data)
        backend.save_pipeline(pipe, tmp_path / "p.svpl")
        out = tmp_path / "out.sveb"
        if old is not None:
            out.write_bytes(old)
        label = {2: "format error", 3: "error"}[rc]
        want = f"svkit: {label}: {message.format(e=e)}\n"
        assert main(["apply-backend", "--pipeline", str(tmp_path / "p.svpl"), "--embeddings", str(e),
                     "--out", str(out)]) == rc
        assert capsys.readouterr() == ("", want)
        assert (out.read_bytes() if out.exists() else None) == old
        # the whole read, then apply_pipeline, as the command ran them before it read in blocks
        with pytest.raises((FormatError, ContractError)) as raised:
            backend.apply_pipeline(backend.load_pipeline(tmp_path / "p.svpl"), store.read_embeddings(e))
        assert f"svkit: {label}: {raised.value}\n" == want

    def test_the_peak_is_the_output_not_the_input(self, tmp_path, capsys, monkeypatch):
        """8000 x 256 embeddings (8.2 MB of SVEB) through a 200-d LDA: with blocks of 4 kiB of
        records and 1024 float64 values, the command holds its 6.4 MB output, its ids, the
        projection in float32 and as the float64 operand of each product, and one block; the
        earlier command held the whole file and a float32 copy of it, twice the input.  (At
        4000 rows, the fixed 0.6 MB of the projection would leave too little room for the ids
        to show the bound.)"""
        s, labels = labelled_set(0, 8000, 256, 250)
        store.write_embeddings(s, tmp_path / "e.sveb")
        store.write_labels(labels, tmp_path / "e.labels")
        assert main(["fit-backend", "--embeddings", str(tmp_path / "e.sveb"), "--labels", str(tmp_path / "e.labels"),
                     "--lda-dim", "200", "--out", str(tmp_path / "p.svpl")]) == 0
        monkeypatch.setattr(store, "_RECORD_BLOCK", 1 << 12, raising=False)
        monkeypatch.setattr(backend, "APPLY_BLOCK", 1 << 10)
        argv = ["apply-backend", "--pipeline", str(tmp_path / "p.svpl"), "--embeddings", str(tmp_path / "e.sveb"),
                "--out", str(tmp_path / "o.sveb")]
        assert main(argv) == 0  # lazy imports are not counted
        rc, peak = traced_peak(main, argv)
        assert rc == 0
        assert peak < (tmp_path / "e.sveb").stat().st_size, peak
        assert (store.read_embeddings(tmp_path / "o.sveb").vectors.tobytes()
                == backend.apply_pipeline(backend.load_pipeline(tmp_path / "p.svpl"), s).vectors.tobytes())


class TestDcfCurveCommand:
    def test_csv_shape_and_marked_section(self, tmp_path, capsys):
        (tmp_path / "trials.txt").write_text("e t1 target\ne t2 nontarget\n")
        (tmp_path / "scores.tsv").write_text("e\tt1\t0.9\ne\tt2\t0.1\n")
        out = tmp_path / "curve.csv"
        rc = main(["dcf-curve", "--scores", str(tmp_path / "scores.tsv"),
                   "--trials", str(tmp_path / "trials.txt"),
                   "--lo", "-4", "--hi", "4", "--points", "9",
                   "--mark", "0.01", "--mark", "0.1:10:1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "logodds,min_dcf"
        assert "# marked" in lines
        sep = lines.index("# marked")
        assert len(lines[1:sep]) == 9  # curve samples
        assert lines[sep + 1] == "logodds,min_dcf,p_target,c_miss,c_fa"
        assert len(lines[sep + 2 :]) == 2  # marked operating points
        assert all(float(ln.split(",")[1]) == 0.0 for ln in lines[1:sep])

    @pytest.mark.parametrize("options,message", [
        (["--lo", "1", "--hi", "1.0000000000000002", "--points", "5"], "log odds must be strictly increasing"),
        (["--mark", "0.5:5e-324:1"], "OperatingPoint(p_target=0.5, c_miss=5e-324, c_fa=1.0) has a best trivial cost of 0")])
    def test_a_grid_or_mark_it_cannot_use_exits_3(self, tmp_path, capsys, options, message):
        (tmp_path / "trials.txt").write_text("e t1 target\ne t2 nontarget\n")
        (tmp_path / "scores.tsv").write_text("e\tt1\t0.9\ne\tt2\t0.1\n")
        assert main(["dcf-curve", "--scores", str(tmp_path / "scores.tsv"), "--trials", str(tmp_path / "trials.txt"),
                     "--out", str(tmp_path / "curve.csv"), *options]) == 3
        assert capsys.readouterr() == ("", f"svkit: error: {message}\n")
        assert not (tmp_path / "curve.csv").exists()


class TestScheduleCommand:
    def test_epoch_six_peak_lr(self, tmp_path, capsys):
        rc = main(["schedule"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "stage,epoch,segment_seconds,margin,lr"
        by_epoch = {}
        for row in rows[1:]:
            stage, epoch, seg, margin, lr = row.split(",")
            if stage == "1":
                by_epoch[int(epoch)] = (float(seg), float(margin), float(lr))
        assert by_epoch[6][2] == 0.1
        assert by_epoch[10][1] == 0.0
        assert by_epoch[30][1] == pytest.approx(0.1, abs=1e-12)
        assert by_epoch[100][1] == 0.2
        assert by_epoch[150][2] == pytest.approx(5e-5, rel=1e-12)
        stage2 = [row for row in rows[1:] if row.startswith("2,")]
        assert len(stage2) == 10
        for row in stage2:
            _, _, seg, margin, lr = row.split(",")
            assert float(seg) == 10.0 and float(margin) == 0.5

    def test_alternative_recipe_flags(self, tmp_path, capsys):
        rc = main(["schedule", "--epochs", "130", "--lmf-epochs", "5",
                   "--segment-seconds", "3"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        stage1 = [r for r in rows if r.startswith("1,")]
        assert len(stage1) == 131
        assert stage1[10].split(",")[2] == "3"
        assert len([r for r in rows if r.startswith("2,")]) == 5

    def test_lmf_epochs(self, tmp_path, capsys):
        """0 stage-2 epochs writes no stage-2 row; a negative count exits 3 and writes nothing."""
        assert main(["schedule", "--lmf-epochs", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 152 and not [r for r in rows if r.startswith("2,")]
        assert main(["schedule", "--lmf-epochs", "-3", "--out", str(tmp_path / "s.csv")]) == 3
        assert capsys.readouterr().err == "svkit: error: --lmf-epochs must be >= 0, got -3\n"
        assert not (tmp_path / "s.csv").exists()

    def test_a_margin_that_ends_before_it_starts_exits_3(self, tmp_path, capsys):
        assert main(["schedule", "--margin-start", "40", "--margin-end", "20", "--out", str(tmp_path / "s.csv")]) == 3
        assert capsys.readouterr() == ("", "svkit: error: start_epoch must precede end_epoch\n")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("option", ["--segment-seconds", "--lmf-segment-seconds"])
    def test_segment_length_the_cropper_refuses_exit_3(self, tmp_path, capsys, option):
        for seconds in ("0", "-2"):
            assert main(["schedule", f"{option}={seconds}", "--out", str(tmp_path / "s.csv")]) == 3
            assert capsys.readouterr().err == (f"svkit: error: target_len_s must be finite and positive, "
                                               f"got {float(seconds)}\n")
            assert not (tmp_path / "s.csv").exists()


class TestAugmentPlanCommand:
    def test_plan_and_commands_written(self, tmp_path, capsys):
        lines = [f"utt{k}\t/data/utt{k}.wav\t4.0\t16000" for k in range(10)]
        (tmp_path / "man.tsv").write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "aug"
        rc = main(["augment-plan", "--manifest", str(tmp_path / "man.tsv"),
                   "--out-dir", str(out_dir), "--fraction", "0.5",
                   "--mode", "down8k", "--seed", "5"])
        assert rc == 0
        plan_lines = (out_dir / "plan.tsv").read_text().splitlines()
        assert len(plan_lines) == 10
        assert sum("\tgsm\t" in ln for ln in plan_lines) == 5
        cmds = (out_dir / "commands.txt").read_text().splitlines()
        assert len(cmds) == 10
        assert "5 codec-flagged" in capsys.readouterr().out

    def test_id_outside_out_dir_exit_2(self, tmp_path, capsys):
        # the id would make the command write aug/../../tmp/evil.wav
        (tmp_path / "man.tsv").write_text("ok\t/d/a.wav\t1.0\t16000\n../../tmp/evil\t/d/b.wav\t2.0\t16000\n")
        rc = main(["augment-plan", "--manifest", str(tmp_path / "man.tsv"),
                   "--out-dir", str(tmp_path / "aug"), "--seed", "1"])
        assert rc == 2
        assert "'../../tmp/evil' is not a plain file name" in capsys.readouterr().err
        assert not (tmp_path / "aug" / "commands.txt").exists()

    def test_codec_on_keep16k_exit_3_writes_nothing(self, tmp_path, capsys):
        lines = [f"utt{k}\t/data/utt{k}.wav\t4.0\t16000" for k in range(4)]
        (tmp_path / "man.tsv").write_text("\n".join(lines) + "\n")
        argv = ["augment-plan", "--manifest", str(tmp_path / "man.tsv"), "--mode", "keep16k", "--seed", "1"]
        assert main([*argv, "--out-dir", str(tmp_path / "a")]) == 3
        assert re.fullmatch(r"svkit: error: utt\d: codec requires an 8 kHz chain, not keep16k\n",
                            capsys.readouterr().err)
        assert not (tmp_path / "a" / "plan.tsv").exists()
        assert not (tmp_path / "a" / "commands.txt").exists()
        assert main([*argv, "--out-dir", str(tmp_path / "b"), "--fraction", "0"]) == 0
        plan = (tmp_path / "b" / "plan.tsv").read_text()
        assert plan == "".join(f"utt{k}\tnone\tkeep16k\t1\n" for k in range(4))
        assert (tmp_path / "b" / "commands.txt").read_text() == "".join(
            f"cp /data/utt{k}.wav {tmp_path / 'b'}/utt{k}.wav\n" for k in range(4))

    def test_duplicate_id_named_exit_2(self, tmp_path, capsys):
        (tmp_path / "man.tsv").write_text("".join(f"{i}\t/d/{k}.wav\t1.0\t16000\n" for k, i in enumerate("abb")))
        rc = main(["augment-plan", "--manifest", str(tmp_path / "man.tsv"), "--out-dir", str(tmp_path / "a"),
                   "--seed", "1"])
        assert rc == 2
        assert capsys.readouterr().err == f"svkit: format error: {tmp_path / 'man.tsv'}: duplicate utterance id 'b'\n"
        assert not (tmp_path / "a").exists()

    def test_seed_required(self, tmp_path):
        (tmp_path / "man.tsv").write_text("u\t/p.wav\t1.0\t16000\n")
        rc = main(["augment-plan", "--manifest", str(tmp_path / "man.tsv"),
                   "--out-dir", str(tmp_path / "a")])
        assert rc == 1


class TestConfigAndExitCodes:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "svkit.cfg"
        cfg.write_text("[schedule]\nepochs = 20\nlmf-epochs = 2\n")
        rc = main(["--config", str(cfg), "schedule"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len([r for r in rows if r.startswith("1,")]) == 21
        assert len([r for r in rows if r.startswith("2,")]) == 2
        rc = main(["--config", str(cfg), "schedule", "--epochs", "40"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len([r for r in rows if r.startswith("1,")]) == 41
        assert len([r for r in rows if r.startswith("2,")]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "svkit.cfg"
        cfg.write_text("[schedule]\nepochz = 20\n")
        assert main(["--config", str(cfg), "schedule"]) == 1
        assert "epochz" in capsys.readouterr().err

    def test_unknown_config_section(self, tmp_path, capsys):
        cfg = tmp_path / "svkit.cfg"
        cfg.write_text("[nosuch]\nx = 1\n")
        assert main(["--config", str(cfg), "schedule"]) == 1

    @pytest.mark.parametrize("section,bad", [
        ("[pool]\nseed = 1\nmethod = bogus", "bogus"),
        ("[augment-plan]\nmode = bogus", "bogus"),
        ("[eval]\np-target = 0.01, abc", "abc"),
        ("[score]\nworkers = x", "x"),
        ("[fit-backend]\nlda = maybe", "maybe"),
    ], ids=["choices", "choices-contract", "list-type", "type", "flag"])
    def test_config_value_checked_like_its_flag(self, tmp_path, capsys, section, bad):
        command = section[1:section.index("]")]
        (tmp_path / "m.tsv").write_text("1\t2\n3\t4\n")
        (tmp_path / "man.tsv").write_text("u\t/p.wav\t1.0\t16000\n")
        (tmp_path / "svkit.cfg").write_text(section + "\n")
        t = str(tmp_path)
        argv = {
            "pool": [f"{t}/m.tsv"],
            "augment-plan": ["--manifest", f"{t}/man.tsv", "--out-dir", f"{t}/aug", "--seed", "1"],
            "eval": ["--scores", f"{t}/s.tsv", "--trials", f"{t}/t.txt"],
            "score": ["--enroll", f"{t}/e", "--test", f"{t}/e", "--trials", f"{t}/t.txt", "--out", f"{t}/o"],
            "fit-backend": ["--embeddings", f"{t}/e", "--out", f"{t}/p.svpl"],
        }[command]
        assert main(["--config", f"{t}/svkit.cfg", command, *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("svkit: usage error: ")
        assert f"'{bad}'" in err

    def test_required_options_from_config_only(self, tmp_path, capsys):
        lines = [f"utt{k}\t/data/utt{k}.wav\t4.0\t16000" for k in range(6)]
        (tmp_path / "man.tsv").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "svkit.cfg"
        cfg.write_text(f"[augment-plan]\nmanifest = {tmp_path / 'man.tsv'}\nseed = 5\n"
                       f"out-dir = {tmp_path / 'a1'}\nspeed-perturb = yes\n")
        assert main(["--config", str(cfg), "augment-plan"]) == 0
        assert main(["augment-plan", "--manifest", str(tmp_path / "man.tsv"), "--seed", "5",
                     "--out-dir", str(tmp_path / "a2"), "--speed-perturb"]) == 0
        assert (tmp_path / "a1" / "plan.tsv").read_bytes() == (tmp_path / "a2" / "plan.tsv").read_bytes()

    def test_command_line_replaces_repeatable_config_option(self, tmp_path, capsys):
        (tmp_path / "trials.txt").write_text("e t1 target\ne t2 nontarget\n")
        (tmp_path / "scores.tsv").write_text("e\tt1\t0.9\ne\tt2\t0.1\n")
        cfg = tmp_path / "svkit.cfg"
        cfg.write_text("[dcf-curve]\nmark = 0.01, 0.005\nlo = -4\npoints = 3\n")
        curve = ["dcf-curve", "--scores", str(tmp_path / "scores.tsv"), "--trials", str(tmp_path / "trials.txt")]

        def marked(*extra):
            assert main(["--config", str(cfg), *curve, *extra]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[1].startswith("-4,")  # `lo = -4` keeps its sign
            return [ln.split(",")[2] for ln in lines[lines.index("# marked") + 2:]]

        assert marked() == ["0.01", "0.005"]
        assert marked("--mark", "0.1") == ["0.1"]
        assert marked("--mark=0.1", "--mark", "0.2") == ["0.1", "0.2"]
        assert marked("--mar", "0.1") == ["0.1"]  # an abbreviation names the option too

    def test_config_workers_accepted(self, tmp_path, capsys):
        store.write_embeddings(store.EmbeddingSet(["a", "b"], np.eye(2, dtype=np.float32)), tmp_path / "e.sveb")
        (tmp_path / "t.txt").write_text("a b\n")
        (tmp_path / "svkit.cfg").write_text("[score]\nworkers = 2\n")
        score = ["score", "--enroll", str(tmp_path / "e.sveb"), "--test", str(tmp_path / "e.sveb"),
                 "--trials", str(tmp_path / "t.txt")]
        assert main(["--config", str(tmp_path / "svkit.cfg"), *score, "--out", str(tmp_path / "s1")]) == 0
        assert main([*score, "--out", str(tmp_path / "s2")]) == 0
        assert (tmp_path / "s1").read_bytes() == (tmp_path / "s2").read_bytes()

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_config_value_exits_with_a_code(self, tmp_path, data):
        command = data.draw(st.sampled_from(["eval", "dcf-curve", "pool", "schedule"]))
        keys = [a.option_strings[0][2:] for a in _subcommands()[command]._actions
                if a.option_strings[0:1] != ["-h"] and a.option_strings] + ["help", "no-such"]
        values = ["abc", "-4", "0.5", "1e999", "", "nan", "yes", "tstp", "0.1, x", "3"]
        section = data.draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(values), max_size=4))
        cfg = tmp_path / "svkit.cfg"
        cfg.write_text(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in section.items()))
        t = str(tmp_path)
        argv = {"eval": ["--scores", f"{t}/none", "--trials", f"{t}/none"],
                "dcf-curve": ["--scores", f"{t}/none", "--trials", f"{t}/none"],
                "pool": [f"{t}/none"], "schedule": ["--out", f"{t}/sched.csv"]}[command]
        assert main(["--config", str(cfg), command, *argv]) in range(5)  # never a traceback

    @pytest.mark.parametrize("argv,code", [
        (["dcf-curve", "--mark", "bogus"], 1),
        (["dcf-curve", "--mark", "2"], 3),
        (["eval", "--p-target", "2"], 3),
    ])
    def test_bad_operating_point_exits_before_reading(self, tmp_path, capsys, argv, code):
        missing = ["--scores", str(tmp_path / "missing"), "--trials", str(tmp_path / "missing")]
        assert main([*argv, *missing]) == code  # reading either file would exit 4
        assert "No such file" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv,option", [
        (["dcf-curve", "--lo", "1_0", "--hi", "\u0661\u0662"], "--lo"),  # a curve from 10 to 12 before
        (["dcf-curve", "--hi", "\u0661\u0662"], "--hi"),
        (["dcf-curve", "--points", "1\x0c"], "--points"),
        (["eval", "--p-target", "0_01"], "--p-target"),  # exit 3, "got 1.0", before
        (["dcf-curve", "--mark", "0.01:1_0:1"], "--mark"),
        (["dcf-curve", "--mark", " 0.01"], "--mark"),
    ])
    def test_number_option_must_be_a_plain_decimal(self, tmp_path, capsys, argv, option):
        missing = ["--scores", str(tmp_path / "missing"), "--trials", str(tmp_path / "missing")]
        assert main([*argv, *missing]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("svkit: usage error: ") and option in err

    def test_usage_errors_exit_1(self, capsys):
        assert main(["score"]) == 1  # missing required options
        assert main(["nonexistent-command"]) == 1
        assert main([]) == 1

    def test_format_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.sveb"
        bad.write_bytes(b"SVEB\x01\x00")  # truncated header
        (tmp_path / "t.txt").write_text("a b\n")
        rc = main(["score", "--enroll", str(bad), "--test", str(bad),
                   "--trials", str(tmp_path / "t.txt"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_hostile_sveb_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.sveb"
        huge.write_bytes(b"SVEB" + struct.pack("<HQI", 1, 2**40, 1))
        bad_id = tmp_path / "id.sveb"
        bad_id.write_bytes(b"SVEB" + struct.pack("<HQIH", 1, 1, 1, 2) + b"\xff\xfe"
                           + struct.pack("<f", 1.0))
        for path in (huge, bad_id):
            assert main(["pool", str(path), "--method", "tstp"]) == 2
        assert "format error" in capsys.readouterr().err

    def test_float32_overflow_is_one_message(self, tmp_path, capsys):
        """A value past float32's range reads as inf, which the set rejects: one svkit
        line on stderr and no numpy warning, even when numpy raises on overflow."""
        path = tmp_path / "big.tsv"
        path.write_text("a\t1e39\t0\nb\t0\t1\n")
        proc = _run_with_stdin(["pool", "--method", "tstp", str(path)], b"")
        assert proc.returncode == 2
        assert proc.stderr.decode() == f"svkit: format error: {path}: non-finite embedding values\n"
        with np.errstate(over="raise"):
            assert main(["pool", "--method", "tstp", str(path)]) == 2
        assert "non-finite embedding values" in capsys.readouterr().err

    def test_dimension_zero_sveb_exit_2(self, tmp_path, capsys):
        path = tmp_path / "d0.sveb"
        path.write_bytes(b"SVEB" + struct.pack("<HQI", 1, 1, 0) + b"\x01\x000")
        assert main(["pool", str(path), "--method", "tstp"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"format error: {path}: dimension 0" in err

    def test_unwritable_id_creates_no_file(self, tmp_path, capsys):
        backend.save_pipeline(backend.Pipeline(), tmp_path / "p.svpl")
        (tmp_path / "e.tsv").write_text(f"a\t1\n{'b' * 70000}\t2\n")
        out = tmp_path / "out.sveb"
        assert main(["apply-backend", "--pipeline", str(tmp_path / "p.svpl"),
                     "--embeddings", str(tmp_path / "e.tsv"), "--out", str(out)]) == 3
        assert "id longer than 65535 bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "dcf-curve"])
    def test_non_finite_score_exit_2(self, tmp_path, capsys, command):
        (tmp_path / "trials.txt").write_text("e t1 target\ne t2 nontarget\n")
        # the non-finite score is on a pair that the trial list does not name
        (tmp_path / "s.tsv").write_text("e\tt1\t0.9\ne\tt2\t0.1\nx\ty\tnan\n")
        argv = [command, "--scores", str(tmp_path / "s.tsv"), "--trials", str(tmp_path / "trials.txt")]
        if command == "dcf-curve":
            argv += ["--out", str(tmp_path / "curve.csv")]
        assert main(argv) == 2
        assert f"format error: {tmp_path / 's.tsv'}:3: non-finite score 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "dcf-curve"])
    def test_unlabeled_trials_exit_3(self, tmp_path, capsys, command):
        (tmp_path / "trials.txt").write_text("e t1\ne t2\n")
        (tmp_path / "s.tsv").write_text("e\tt1\t0.9\ne\tt2\t0.1\n")
        assert main([command, "--scores", str(tmp_path / "s.tsv"), "--trials", str(tmp_path / "trials.txt")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"svkit: error: {tmp_path / 'trials.txt'}: trial list has no target/nontarget labels\n"

    @pytest.mark.parametrize("score", ["0_5", "\u0661", " 0.9"])
    def test_score_not_a_plain_decimal_exit_2(self, tmp_path, capsys, score):
        (tmp_path / "trials.txt").write_text("e t1 target\ne t2 nontarget\n")
        (tmp_path / "s.tsv").write_text(f"e\tt1\t0.9\ne\tt2\t{score}\n", encoding="utf-8")
        assert main(["eval", "--scores", str(tmp_path / "s.tsv"), "--trials", str(tmp_path / "trials.txt")]) == 2
        assert f"format error: {tmp_path / 's.tsv'}:2: bad score {score!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("ends, named", [(["--hi", "40"], "log odds 40"), (["--lo", "-800"], "log odds -800"),
                                             (["--mark", "0.5:1e300:1"], "c_miss=1e+300, c_fa=1.0)")])
    def test_dcf_curve_names_the_log_odds_it_cannot_use(self, tmp_path, capsys, ends, named):
        (tmp_path / "trials.txt").write_text("e t1 target\ne t2 nontarget\n")
        (tmp_path / "s.tsv").write_text("e\tt1\t0.9\ne\tt2\t0.1\n")
        argv = ["dcf-curve", "--scores", str(tmp_path / "s.tsv"), "--trials", str(tmp_path / "trials.txt"), *ends]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{named} give" in err or f"{named} has" in err
        assert "effective prior of" in err and "must be in" not in err and "Traceback" not in err

    @pytest.mark.parametrize("record", ["a\t3\t4", "c\tnan\t1", "c\t1e400\t1", "c d\t1\t2"],
                             ids=["duplicate-id", "nan", "1e400", "space-in-id"])
    def test_bad_tsv_embedding_record_exit_2(self, tmp_path, capsys, record):
        path = tmp_path / "e.tsv"
        path.write_text(f"a\t1\t2\nb\t2\t1\n{record}\n")
        rc = main(["fit-backend", "--no-lda", "--embeddings", str(path),
                   "--out", str(tmp_path / "p.svpl")])
        assert rc == 2
        assert f"format error: {path}: " in capsys.readouterr().err

    def test_nan_matrix_exit_2_in_every_layout(self, tmp_path, capsys):
        sveb = tmp_path / "m.feats"
        sveb.write_bytes(b"SVEB" + struct.pack("<HQI", 1, 2, 2)
                         + b"".join(struct.pack("<H", 1) + t + struct.pack("<2f", 1.0, v)
                                    for t, v in ((b"0", 2.0), (b"1", float("nan")))))
        (tmp_path / "ids.tsv").write_text("f0\t1\t2\nf1\t1\tnan\n")
        (tmp_path / "plain.tsv").write_text("1\t2\n1\tnan\n")
        for name in ("m.feats", "ids.tsv", "plain.tsv"):
            assert main(["pool", "--method", "tstp", str(tmp_path / name)]) == 2, name
        assert capsys.readouterr().err.count("non-finite") == 3

    def test_not_utf8_exit_2(self, tmp_path, capsys):
        s = store.EmbeddingSet(["a", "b"], np.eye(2, dtype=np.float32))
        store.write_embeddings(s, tmp_path / "e.sveb")
        (tmp_path / "t.txt").write_text("a b\n")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a b\n\xff\n")
        score = ["score", "--enroll", str(tmp_path / "e.sveb"), "--test", str(tmp_path / "e.sveb"),
                 "--out", str(tmp_path / "o")]
        assert main(score + ["--trials", str(bad)]) == 2
        assert main(score + ["--trials", str(tmp_path / "t.txt"), "--enroll-map", str(bad)]) == 2
        assert main(["--config", str(bad), "schedule"]) == 2
        assert capsys.readouterr().err.count("not UTF-8 text") == 3

    def test_hostile_wav_rate_exit_2(self, tmp_path, capsys):
        # 2 GHz: at 8 kHz, a file long enough for one output sample would need a 16M-tap
        # resampling kernel; 2 Hz: this 844-byte file would become 1.6M samples at 8 kHz
        # and a 6.5 MB feature file
        for rate, samples in ((2_000_000_000, 1000), (2, 400)):
            path = tmp_path / "hostile.wav"
            audio.write_wav(audio.AudioBuffer(np.zeros(samples), 16000), path)
            raw = bytearray(path.read_bytes())
            raw[24:32] = struct.pack("<II", rate, 2 * rate)  # sample rate, byte rate
            path.write_bytes(bytes(raw))
            rc = main(["features", "--resample", "8000", "--out-dir", str(tmp_path / "f"), str(path)])
            assert rc == 2
            assert f"sample rate {rate} Hz outside 1000..768000" in capsys.readouterr().err
            assert not (tmp_path / "f" / "hostile.feats").exists()

    # unchecked, these end in an OverflowError, a 21.8 TiB allocation, and a
    # 2.4 GB output array that takes minutes to fill
    @pytest.mark.parametrize("argv", [["--frame-len", "inf"], ["--resample", "1000000000000"],
                                      ["--resample", "100000000"]])
    def test_unusable_geometry_exit_3(self, tmp_path, capsys, argv):
        path = tmp_path / "x.wav"
        audio.write_wav(audio.AudioBuffer(np.zeros(48000), 16000), path)
        assert main(["features", *argv, "--out-dir", str(tmp_path / "f"), str(path)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and ("not a finite sample count" in err or "1..768000 Hz" in err)

    @pytest.mark.parametrize("dither", ["-1", "nan"])  # unchecked, both meant no dither
    def test_negative_dither_exit_3(self, tmp_path, capsys, dither):
        wavs = make_wavs(tmp_path)
        rc = main(["features", "--dither", dither, "--out-dir", str(tmp_path / "f"), str(wavs["tone"])])
        assert rc == 3
        assert f"dither must be finite and >= 0, got {float(dither)}" in capsys.readouterr().err
        assert not (tmp_path / "f" / "tone.feats").exists()

    # unchecked, each ends in numpy's "expected non-negative integer" traceback
    @pytest.mark.parametrize("argv, option", [
        (["features", "--seed", "-1", "--dither", "0.1", "--out-dir", "{t}/f", "{t}/tone.wav"], "--seed"),
        (["pool", "--method", "asp", "--seed", "-1", "{t}/m.tsv"], "--seed"),
        (["pool", "--method", "mhfa", "--seed", "-1", "{t}/m.tsv"], "--seed"),
        (["augment-plan", "--manifest", "{t}/man.tsv", "--out-dir", "{t}/a", "--seed", "-1"], "--seed"),
        (["augment-plan", "--manifest", "{t}/man.tsv", "--out-dir", "{t}/a", "--seed", "1",
          "--speed-perturb", "--speed-seed", "-5"], "--speed-seed")])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv, option):
        make_wavs(tmp_path)
        (tmp_path / "m.tsv").write_text("1\t2\n3\t4\n")
        (tmp_path / "man.tsv").write_text("u\t/p.wav\t1.0\t16000\n")
        assert main([a.format(t=tmp_path) for a in argv]) == 1
        value = argv[argv.index(option) + 1]
        assert capsys.readouterr().err == f"svkit: usage error: {option} must be >= 0, got {value}\n"

    def test_wav_chunk_past_riff_exit_2(self, tmp_path, capsys):
        # a fmt chunk size of 0x55 makes the reader take noise samples for
        # the next chunk header, whose size runs past the RIFF chunk
        path = tmp_path / "chunk.wav"
        pcm = np.random.default_rng(5).uniform(-0.5, 0.5, 400)
        audio.write_wav(audio.AudioBuffer(pcm, 16000), path)
        raw = bytearray(path.read_bytes())
        raw[16] = 0x55
        path.write_bytes(bytes(raw))
        rc = main(["features", "--out-dir", str(tmp_path / "f"), str(path)])
        assert rc == 2
        assert "chunk.wav: chunk size runs past" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, code, message", [
        ("wav", 4, r".*a\.wav: .*a\.wav: truncated file: \d+ bytes for \d+ frames"),
        ("sveb", 2, r"format error: .*e\.sveb: header claims 2 records of dim 2, more than the \d+ bytes that follow"),
        ("svpl", 2, r"format error: .*p\.svpl: truncated: \d+ bytes needed at byte \d+")],
        ids=["wav", "sveb", "svpl"])
    def test_truncated_input_exit_code(self, tmp_path, capsys, kind, code, message):
        """A WAV cut short is an I/O error (an OSError, as any read that ends
        early), while a cut SVEB or SVPL file is a format error."""
        audio.write_wav(audio.AudioBuffer(np.zeros(1600), 16000), tmp_path / "a.wav")
        store.write_embeddings(store.EmbeddingSet(["a", "b"], np.eye(2, dtype=np.float32)), tmp_path / "e.sveb")
        backend.save_pipeline(backend.Pipeline(center=np.zeros(2)), tmp_path / "p.svpl")
        path = tmp_path / {"wav": "a.wav", "sveb": "e.sveb", "svpl": "p.svpl"}[kind]
        path.write_bytes(path.read_bytes()[:-3])
        argv = (["features", "--out-dir", str(tmp_path / "f"), str(tmp_path / "a.wav")] if kind == "wav" else
                ["apply-backend", "--pipeline", str(tmp_path / "p.svpl"),
                 "--embeddings", str(tmp_path / "e.sveb"), "--out", str(tmp_path / "o.sveb")])
        capsys.readouterr()
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert re.fullmatch(f"svkit: {message}\n", err), err

    def test_contract_error_exit_3(self, tmp_path, capsys):
        s = store.EmbeddingSet(["a", "b"], np.eye(2, dtype=np.float32))
        store.write_embeddings(s, tmp_path / "e.sveb")
        (tmp_path / "t.txt").write_text("a nosuchtest\n")
        rc = main(["score", "--enroll", str(tmp_path / "e.sveb"),
                   "--test", str(tmp_path / "e.sveb"),
                   "--trials", str(tmp_path / "t.txt"), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_io_error_exit_4(self, tmp_path, capsys):
        (tmp_path / "t.txt").write_text("a b\n")
        rc = main(["score", "--enroll", str(tmp_path / "missing.sveb"),
                   "--test", str(tmp_path / "missing.sveb"),
                   "--trials", str(tmp_path / "t.txt"), "--out", str(tmp_path / "o")])
        assert rc == 4

    @pytest.mark.parametrize("command", ["svkit", *cli._DISPATCH])
    def test_help_exits_zero(self, capsys, command):
        assert main(["--help"] if command == "svkit" else [command, "--help"]) == 0
        assert "usage: svkit" in capsys.readouterr().out

    def test_idempotent_given_same_inputs(self, tmp_path, capsys):
        lines = [f"utt{k}\t/d/u{k}.wav\t2.0\t16000" for k in range(6)]
        (tmp_path / "man.tsv").write_text("\n".join(lines) + "\n")
        blobs = []
        for d in ("a1", "a2"):
            rc = main(["augment-plan", "--manifest", str(tmp_path / "man.tsv"),
                       "--out-dir", str(tmp_path / d), "--seed", "3",
                       "--speed-perturb", "--mode", "down8k-up16k"])
            assert rc == 0
            blobs.append((tmp_path / d / "plan.tsv").read_bytes())
        assert blobs[0] == blobs[1]


def _subcommands():
    return next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _valid_values(action):
    """Two command-line values that `action` accepts, neither its default."""
    if action.choices:
        return [c for c in action.choices if c != action.default][:2]
    return {cli._int: ["7", "8"], cli._float: ["-0.5", "0.25"], None: ["x", "y"]}[action.type]


# numbers that int() or float() read but that are not plain decimals
NOT_PLAIN = ["1_0", "\u0661\u0662", " 7", "7\x0c"]


@pytest.mark.parametrize("command,key", [
    (command, action.option_strings[0][2:]) for command, sub in _subcommands().items()
    for action in sub._actions if action.option_strings and action.option_strings[0] != "-h"])
def test_config_value_parses_like_command_line(tmp_path, command, key):
    """Setting any option through --config gives the same arguments as passing it on the command line."""
    sub = _subcommands()[command]
    action = sub._option_string_actions[f"--{key}"]
    base = [command]
    for other in sub._actions:
        if not other.option_strings:
            base.append("in.wav")  # a positional argument
        elif other.required and other is not action:
            base += [other.option_strings[0], _valid_values(other)[0]]
    if isinstance(action, argparse.BooleanOptionalAction):
        cases = [(raw, [f"--{key}"]) for raw in ("yes", "True", "1", "on")]
        cases += [(raw, [f"--no-{key}"]) for raw in ("no", "FALSE", "0", " off ")]
    elif isinstance(action, argparse._AppendAction):
        values = _valid_values(action)
        cases = [(", ".join(values), [tok for v in values for tok in (f"--{key}", v)])]
    else:
        cases = [(v, [f"--{key}", v]) for v in _valid_values(action)]
    cfg = tmp_path / "svkit.cfg"
    seen = []
    for raw, tokens in cases:
        cfg.write_text(f"[{command}]\n{key} = {raw}\n")
        from_config = vars(cli._build_parser().parse_args(["--config", str(cfg), *base]))
        from_flags = vars(cli._build_parser().parse_args([*base, *tokens]))
        assert from_config.pop("config") == str(cfg) and from_flags.pop("config") is None
        assert from_config == from_flags, raw
        seen.append(from_flags[action.dest])
    assert any(v != action.default for v in seen)
    if action.type in (cli._int, cli._float):  # the number rule of files, from either source
        for bad in NOT_PLAIN:
            argvs = [[*base, f"--{key}={bad}"]]
            if bad.strip() == bad:  # configparser strips the whitespace around a value
                cfg.write_text(f"[{command}]\n{key} = {bad}\n")
                argvs.append(["--config", str(cfg), *base])
            for argv in argvs:
                with pytest.raises(cli.UsageError, match=f"argument --{key}: invalid"):
                    cli._build_parser().parse_args(argv)


def test_benchmark_command_lines_parse():
    """Every command line the benchmark runs (perfbench/spec.py) parses, so a CLI
    change that would break the benchmark fails here first."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"
    loader = importlib.util.spec_from_file_location("perfbench_spec", path)
    spec = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spec)
    argvs = [argv for w in spec.WORKLOADS for step in spec.steps(w, spec.sizes(w, spec.SCALE[w]), 1)
             for argv in step.argvs]
    assert argvs
    for argv in argvs:
        cli._build_parser().parse_args(argv)


def test_benchmark_trace_targets_resolve():
    """Every function the benchmark's traced run wraps (perfbench/child.py
    TARGETS) exists, so renaming one fails here rather than leaving a layer
    of the benchmark silently empty.  scoring.models_to_set is the one known
    stale target: it was deleted from svkit and is still listed there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    loader = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(child)
    missing = set()
    for mod_name, attr, name, _ in child.TARGETS:
        owner = importlib.import_module(f"svkit.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(name)
    assert child.TARGETS
    assert missing == {"scoring.models_to_set"}


def test_benchmark_checker_loads(monkeypatch):
    """The benchmark's output checker (perfbench/check.py) imports tests/oracles.py, which
    imports private svkit names, and calls oracles by name: a rename that breaks either
    fails here rather than only when the benchmark runs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
    monkeypatch.syspath_prepend(str(path.parent))  # for its `import spec`; sys.path is restored
    loader = importlib.util.spec_from_file_location("perfbench_check", path)
    check = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(check)
    called = set(re.findall(r"\boracles\.(\w+)\(", path.read_text()))
    assert called and all(callable(getattr(check.oracles, name, None)) for name in called), called


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(code, *args, cwd=None, **threads):
    """Run `code` in a new interpreter that imports svkit from this checkout, in `cwd`,
    with no BLAS thread variable set but `threads`: importing svkit.cli here may have set
    one in os.environ."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(threads, PYTHONPATH=str(Path(svkit.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


_IMPORT_CLI = {"svkit", "svkit.chains", "svkit.cli", "svkit.errors", "svkit.store"}
# the svkit modules each command loads beyond those `import svkit.cli` loads
_COMMAND_LOADS = {
    "features": {"svkit.audio"},
    "pool": {"svkit.pooling", "svkit.objectives"},
    "fit-backend": {"svkit.backend"},
    "apply-backend": {"svkit.backend"},
    "score": {"svkit.scoring"},
    "eval": {"svkit.scoring", "svkit.metrics"},
    "dcf-curve": {"svkit.scoring", "svkit.metrics"},
    "augment-plan": {"svkit.augment"},
    "schedule": {"svkit.objectives"},
}


def _command_runs(tmp_path) -> list[list[str]]:
    """Command lines for all nine commands on tiny inputs, each reading what
    the ones before it wrote."""
    s, labels = synthetic_speakers(np.random.default_rng(5), n_spk=3, per_spk=4, dim=6)
    store.write_embeddings(s, tmp_path / "e.sveb")
    store.write_labels(labels, tmp_path / "e.labels")
    (tmp_path / "trials.txt").write_text("".join(
        f"{a} {b} {'target' if labels[a] == labels[b] else 'nontarget'}\n"
        for a in s.ids[:6] for b in s.ids[6:]))
    wavs = make_wavs(tmp_path)
    augment.write_manifest(augment.UtteranceManifest(
        [augment.Utterance(f"u{k}", f"/d/u{k}.wav", 2.0, 16000) for k in range(4)]),
        tmp_path / "man.tsv")
    t = str(tmp_path)
    return [
        ["features", "--resample", "8000", "--out-dir", f"{t}/feats", str(wavs["tone"])],
        ["pool", "--method", "asp", "--seed", "1", f"{t}/feats/tone.feats"],
        ["pool", "--method", "xi", f"{t}/feats/tone.feats"],
        ["fit-backend", "--embeddings", f"{t}/e.sveb", "--labels", f"{t}/e.labels",
         "--lda", "--out", f"{t}/lda.svpl"],
        ["apply-backend", "--pipeline", f"{t}/lda.svpl", "--embeddings", f"{t}/e.sveb",
         "--out", f"{t}/e.proc.sveb"],
        ["score", "--enroll", f"{t}/e.proc.sveb", "--test", f"{t}/e.proc.sveb",
         "--trials", f"{t}/trials.txt", "--out", f"{t}/scores.tsv"],
        ["eval", "--scores", f"{t}/scores.tsv", "--trials", f"{t}/trials.txt"],
        ["dcf-curve", "--scores", f"{t}/scores.tsv", "--trials", f"{t}/trials.txt",
         "--out", f"{t}/curve.csv"],
        ["augment-plan", "--manifest", f"{t}/man.tsv", "--out-dir", f"{t}/aug", "--seed", "1"],
        ["schedule", "--epochs", "10", "--out", f"{t}/schedule.csv"],
    ]


@pytest.fixture(scope="module")
def float_option_runs(tmp_path_factory):
    """A valid run, by command, of each command with a float option, after the runs
    that write its inputs; features filters the burst WAV by VAD, which keeps some of
    its frames, and has a seed for its dither, eval uses the default priors so that
    its costs apply to them, and schedule runs all 150 epochs, past the margin ramp,
    so that every float option is used."""
    tmp = tmp_path_factory.mktemp("float_options")
    runs = _command_runs(tmp)
    for argv in runs:
        assert main(argv) == 0
    runs = {argv[0]: argv for argv in runs}  # the xi run, which reads --prior-log-precision, for pool
    runs["features"] = [*(a.replace("tone.wav", "burst.wav") for a in runs["features"]), "--vad", "--seed", "1"]
    assert main(_outputs_in(runs["features"], tmp / "vad")) == 0
    assert store.read_matrix(tmp / "vad" / "feats" / "burst.feats").shape[0] >= 1
    runs["eval"] = [*runs["eval"], "--csv", "eval.csv"]
    runs["schedule"] = ["schedule", "--out", "schedule.csv"]
    return runs


def _outputs_in(argv, tmp_path):
    """`argv` with its outputs moved into `tmp_path`, a directory of this run's own."""
    argv = list(argv)
    for k, arg in enumerate(argv[:-1]):
        if arg in ("--out", "--csv", "--out-dir"):
            argv[k + 1] = str(tmp_path / Path(argv[k + 1]).name)
    return argv


@pytest.mark.parametrize("command,key", [
    (command, action.option_strings[0]) for command, sub in _subcommands().items()
    for action in sub._actions if action.type is cli._float])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_option(float_option_runs, tmp_path, capsys, command, key, value):
    """nan in any float option exits non-zero, and an infinity either does too or writes
    no nan or inf; a failure prints only svkit messages, and nothing warns."""
    argv = _outputs_in(float_option_runs[command], tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rc = main([*argv, f"{key}={value}"])
    out, err = capsys.readouterr()
    assert bool(err) == (rc != 0) and all(line.startswith("svkit: ") for line in err.splitlines()), err
    if value == "nan":
        assert rc != 0, out
    elif rc == 0:
        csvs = [p.read_text() for p in tmp_path.glob("*.csv")]
        assert not re.search(r"\b(nan|inf)\b", "".join([out, *csvs]), re.IGNORECASE), (out, csvs)


@pytest.mark.parametrize("command,key", [
    (command, action.option_strings[0]) for command, sub in _subcommands().items()
    for action in sub._actions if action.type is cli._int])
def test_negative_int_option(float_option_runs, tmp_path, capsys, command, key):
    """-1 in any integer option exits non-zero: 1 for a seed, 3 for a count or size."""
    argv = _outputs_in(float_option_runs[command], tmp_path)
    if command == "pool":  # a method that reads the option
        argv[argv.index("xi")] = "asp" if key in ("--seed", "--hidden-dim") else "mhfa"
        argv += ["--seed", "1"]
    assert main([*argv, f"{key}=-1"]) == (1 if key in ("--seed", "--speed-seed") else 3)
    err = capsys.readouterr().err
    assert err and all(line.startswith("svkit: ") for line in err.splitlines()), err


@pytest.mark.parametrize("command,options", [
    ("features", ["--dither=1e300"]),
    ("features", ["--preemphasis=1e300"]),
    ("features", ["--vad-energy-threshold=1e308", "--vad-energy-mean-scale=1e308"]),
    ("features", ["--low-freq=0", "--high-freq=1e-300"]),
    ("eval", ["--c-fa=1e-320"]),
], ids=["dither", "preemphasis", "vad-threshold", "mel-band", "c-fa"])
def test_huge_finite_float_option(float_option_runs, tmp_path, capsys, command, options):
    """A finite option that overflows numpy's float range warns nothing: a huge dither or
    pre-emphasis fails with one svkit message, as does a band whose mel edges round to one
    value; a huge mean scale times the burst's mean
    log energy, which is below 0, takes the VAD threshold to -inf, so every frame is kept;
    and a tiny false-alarm cost still gives the oracle's minDCF."""
    argv = list(float_option_runs[command])
    for k, arg in enumerate(argv[:-1]):
        if arg in ("--csv", "--out-dir"):
            argv[k + 1] = str(tmp_path / Path(argv[k + 1]).name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rc = main([*argv, *options])
    out, err = capsys.readouterr()
    wav = next((a for a in argv if a.endswith(".wav")), None)
    if "--dither=1e300" in options or "--preemphasis=1e300" in options:
        assert (rc, err) == (3, f"svkit: {wav}: non-finite feature values\n")
    elif "--high-freq=1e-300" in options:
        assert (rc, err) == (3, f"svkit: {wav}: the 80 mel filters of band 0.0/1e-300 Hz "
                                "have edges that are not strictly increasing\n")
    elif command == "features":
        assert (rc, err) == (0, "")
        energies = audio.frame_log_energies(audio.resample(audio.read_wav(wav), 8000))
        assert energies.mean() < 0
        assert store.read_matrix(tmp_path / "feats" / "burst.feats").shape == (len(energies), 80)
    else:
        assert (rc, err) == (0, "")
        scores = cli._labeled_scores(argv[argv.index("--scores") + 1], argv[argv.index("--trials") + 1])
        with np.errstate(over="ignore"):
            want, _ = oracle_min_dcf(scores.target, scores.nontarget, 0.01, 1.0, 1e-320)
        assert f"c_fa=9.99989e-321): {want:.3f}\n" in out


@pytest.mark.parametrize("method", ["tstp", "asp", "mhfa"])
@pytest.mark.parametrize("rows", ["1e308\t1e308\n" * 2, "1e200\t1\n-1e200\t2\n"], ids=["1e308", "+-1e200"])
def test_pool_statistics_that_overflow_exit_3(tmp_path, capsys, method, rows):
    """Finite frames whose float64 statistics overflow exit 3 with one svkit message and no
    numpy warning, or, where mhfa's attention saturates, print a finite vector."""
    (tmp_path / "x.tsv").write_text(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["pool", "--method", method, "--seed", "1", str(tmp_path / "x.tsv")])
    out, err = capsys.readouterr()
    if method == "mhfa" and rows.startswith("1e200"):
        vec = np.array(out.split("\t"), dtype=float)
        assert (rc, err, vec.shape) == (0, "", (256,)) and np.all(np.isfinite(vec))
    else:
        assert (rc, out, err) == (3, "", f"svkit: error: {method} statistics overflow float64\n")


def test_pool_xi_with_extreme_log_precisions_warns_nothing(tmp_path, capsys):
    """Log precisions of -1e308 and 1e308 take, per dimension, the frame of the larger one."""
    (tmp_path / "x.tsv").write_text("1\t2\n3\t4\n")
    (tmp_path / "p.tsv").write_text("-1e308\t1e308\n1e308\t-1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["pool", "--method", "xi", "--precisions", str(tmp_path / "p.tsv"), str(tmp_path / "x.tsv")])
    assert (rc, capsys.readouterr()) == (0, ("3\t2\n", ""))


def test_apply_backend_float32_overflow_exits_3_without_a_warning(tmp_path, capsys):
    """A finite center that pushes outputs past float32's range exits 3 with one message."""
    backend.save_pipeline(backend.Pipeline(center=np.full(2, -3e38)), tmp_path / "p.svpl")
    store.write_embeddings(store.EmbeddingSet(["a", "b"], np.float32([[3e38, -3e38], [-3e38, 3e38]])),
                           tmp_path / "e.sveb")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["apply-backend", "--pipeline", str(tmp_path / "p.svpl"), "--embeddings", str(tmp_path / "e.sveb"),
                   "--out", str(tmp_path / "out.sveb")])
    assert (rc, capsys.readouterr()) == (3, ("", "svkit: error: non-finite embedding values\n"))
    assert not (tmp_path / "out.sveb").exists()


# The options whose default is the one of the library type they go to (FbankConfig, VadConfig,
# MhfaParams.random, XiPrior.flat, OperatingPoint, MarginSchedule, LrSchedule), by command, with
# the value each had as its parser default before the types became its only home.
LIBRARY_DEFAULTS = {
    "features": {"--n-mels": "80", "--frame-len": "25", "--frame-shift": "10", "--preemphasis": "0.97",
                 "--low-freq": "20", "--log-floor": "1e-10", "--dither": "0", "--vad-energy-threshold": "5",
                 "--vad-energy-mean-scale": "0.5", "--vad-context": "5", "--vad-proportion": "0.6"},
    "pool": {"--heads": "64", "--key-dim": "64", "--embed-dim": "256", "--prior-log-precision": "-60"},
    "eval": {"--c-miss": "1", "--c-fa": "1"},
    "schedule": {"--epochs": "150", "--warmup-epochs": "6", "--peak-lr": "0.1", "--final-lr": "5e-5",
                 "--margin-start": "20", "--margin-end": "40", "--margin-final": "0.2", "--lmf-margin": "0.5"},
}


@pytest.mark.parametrize("command,key", [(c, k) for c, options in LIBRARY_DEFAULTS.items() for k in options])
def test_a_library_owned_option_has_no_parser_default(command, key):
    """The library type states the default, so the parser states none: an option left
    unset reaches the command as None and is not passed on."""
    assert _subcommands()[command]._option_string_actions[key].default is None


@pytest.mark.parametrize("command,extra", [
    ("features", []), ("features", ["--text"]), ("pool", []), ("pool", ["--method", "mhfa", "--seed", "1"]),
    ("eval", ["--p-target", "0.01"]), ("schedule", [])],
    ids=["features", "features-text", "pool-xi", "pool-mhfa", "eval", "schedule"])
def test_library_defaults_equal_the_old_parser_defaults(float_option_runs, tmp_path, capsys, command, extra):
    """A run that leaves every library-owned option unset prints and writes the same bytes
    as one that sets each to its old parser default (eval names a prior, so that neither
    run reports the default operating points)."""
    runs = []
    for name, options in (("unset", []), ("set", [f"{k}={v}" for k, v in LIBRARY_DEFAULTS[command].items()])):
        (tmp_path / name).mkdir()
        assert main([*_outputs_in(float_option_runs[command], tmp_path / name), *extra, *options]) == 0
        files = {p.relative_to(tmp_path / name): p.read_bytes() for p in (tmp_path / name).rglob("*") if p.is_file()}
        runs.append((capsys.readouterr(), files))
    assert runs[0] == runs[1]
    assert runs[0][0].out or min(map(len, runs[0][1].values())) > 1000


@pytest.mark.parametrize("command,options,message", [
    ("features", ["--frame-shift=30"], "need 0 < frame_shift <= frame_len, got 30.0/25.0 ms"),
    ("features", ["--vad-energy-threshold=inf"],
     "energy_threshold and energy_mean_scale must be finite, got inf/0.5"),
    ("pool", ["--method", "mhfa", "--seed", "1", "--heads=3"], "embed_dim 256 not divisible by 3 heads"),
    ("pool", ["--prior-log-precision=nan"], "non-finite values in prior_log_precision"),
    ("eval", ["--c-fa=0"], "costs must be finite and positive, got 1.0/0.0"),
    ("schedule", ["--lmf-margin=inf"], "margin epochs and margins must be finite, got "
     "MarginSchedule(start_epoch=20.0, end_epoch=40.0, final=0.2, lmf_margin=inf)"),
    ("schedule", ["--epochs=6"], "need 0 < warmup_epochs < total_epochs"),
    ("schedule", ["--peak-lr=1e308", "--final-lr=1e-308"], "peak * warmup_epochs overflows float64, got 1e+308/6.0"),
    ("schedule", ["--peak-lr=1e307", "--final-lr=1e-308"], "final / peak underflows float64, got 1e-308/1e+307"),
    ("schedule", ["--margin-start=-1e308", "--margin-end=1e308"],
     "end_epoch - start_epoch overflows float64, got -1e+308/1e+308")])
def test_a_bad_library_owned_option_exits_3_with_its_message(float_option_runs, tmp_path, capsys,
                                                             command, options, message):
    """The message names the library defaults of the options left unset."""
    assert main([*_outputs_in(float_option_runs[command], tmp_path), *options]) == 3
    assert capsys.readouterr() == ("", f"svkit: error: {message}\n")
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


class TestStartup:
    """No command loads scipy: numpy is the only runtime dependency.  A
    command loads only the svkit modules it runs."""

    def test_import_cli_loads_no_scipy(self):
        proc = _fresh_python(f"import sys, svkit.cli; print({_SCIPY})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_command_loads_scipy(self, tmp_path):
        runs = _command_runs(tmp_path)
        code = f"""
import json, sys
from svkit.cli import main
runs = json.loads(sys.argv[1])
print(json.dumps({{"rc": [main(argv) for argv in runs], "scipy": {_SCIPY}}}))
"""
        proc = _fresh_python(code, json.dumps(runs))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["rc"] == [0] * len(runs), proc.stderr
        assert {argv[0] for argv in runs} == set(cli._DISPATCH)  # all nine commands
        assert result["scipy"] == []

    def test_each_command_loads_only_its_modules(self, tmp_path):
        code = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("svkit", "configparser"))
import svkit.cli
imported = loaded()
rc = svkit.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "import": imported, "run": loaded()}))
"""
        cfg = tmp_path / "svkit.cfg"
        cfg.write_text("[schedule]\nepochs = 3\n")
        runs = [(argv, _IMPORT_CLI | _COMMAND_LOADS[argv[0]]) for argv in _command_runs(tmp_path)]
        runs.append((["--config", str(cfg), *runs[-1][0]], runs[-1][1] | {"configparser"}))
        assert set(_COMMAND_LOADS) == set(cli._DISPATCH)
        for argv, want in runs:  # in order: each command reads what the ones before it wrote
            proc = _fresh_python(code, json.dumps(argv))
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["rc"] == 0, (argv, proc.stderr)
            assert set(result["import"]) == _IMPORT_CLI
            assert set(result["run"]) == want, argv


# prints the OpenBLAS thread count of a process that imported svkit.cli, or None
_BLAS_THREADS = """
import ctypes
import svkit.cli

def blas_threads():
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln and ".so" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None

print(blas_threads())
"""


class TestBlasThreads:
    """Importing svkit.cli starts OpenBLAS with one thread unless the environment names
    a count; outputs do not depend on the count, except fit-backend's by rounding."""

    @pytest.mark.parametrize("threads, want", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"GOTO_NUM_THREADS": "2"}, 2),
    ], ids=["default", "openblas", "omp", "goto"])
    def test_one_thread_unless_the_environment_names_a_count(self, threads, want):
        if want > (os.cpu_count() or 1):
            pytest.skip("OpenBLAS starts no more threads than the machine has cores")
        proc = _fresh_python(_BLAS_THREADS, **threads)
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.strip() == "None":
            pytest.skip("numpy does not use OpenBLAS here")
        assert int(proc.stdout) == want

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        """Each command under one and two threads, on inputs large enough that OpenBLAS
        splits its products (2000 x 256 embeddings, 4 s of audio): every output byte and
        stdout are equal, but fit-backend's projection, whose d x d products may be summed
        in another order, only agrees within 1e-6."""
        s, labels = labelled_set(7, 2000, 256, 40)
        store.write_embeddings(s, tmp_path / "e.sveb")
        store.write_labels(labels, tmp_path / "e.labels")
        pipe = backend.Pipeline(backend.fit_center(s), backend.fit_lda(s, labels), length_norm=True)
        backend.save_pipeline(pipe, tmp_path / "p.svpl")
        (tmp_path / "trials.txt").write_text("".join(
            f"{a} {b} {'target' if labels[a] == labels[b] else 'nontarget'}\n"
            for a in s.ids[:60] for b in s.ids[1000:1050]))
        rng = np.random.default_rng(8)
        x = rng.uniform(-0.8, 0.8, 64000) * np.repeat(rng.uniform(0, 1, 16) > 0.4, 4000)
        audio.write_wav(audio.AudioBuffer(x, 16000), tmp_path / "speech.wav")
        augment.write_manifest(augment.UtteranceManifest(
            [augment.Utterance(f"u{k}", f"/d/u{k}.wav", 2.0, 16000) for k in range(500)]), tmp_path / "man.tsv")
        t = str(tmp_path)
        runs = [
            ["fit-backend", "--embeddings", f"{t}/e.sveb", "--labels", f"{t}/e.labels", "--out", "fit.svpl"],
            ["apply-backend", "--pipeline", f"{t}/p.svpl", "--embeddings", f"{t}/e.sveb", "--out", "e.proc.sveb"],
            ["apply-backend", "--pipeline", f"{t}/p.svpl", "--embeddings", f"{t}/e.sveb", "--out", "e.proc.tsv",
             "--text"],
            ["score", "--enroll", "e.proc.tsv", "--test", "e.proc.tsv", "--trials", f"{t}/trials.txt",
             "--out", "scores.tsv"],
            ["eval", "--scores", "scores.tsv", "--trials", f"{t}/trials.txt", "--csv", "eval.csv"],
            ["dcf-curve", "--scores", "scores.tsv", "--trials", f"{t}/trials.txt", "--out", "curve.csv"],
            ["augment-plan", "--manifest", f"{t}/man.tsv", "--out-dir", "aug", "--seed", "1", "--speed-perturb"],
            ["features", f"{t}/speech.wav", "--out-dir", "f8k", "--resample", "8000", "--vad"],
            ["features", f"{t}/speech.wav", "--out-dir", "fnative", "--vad", "--text"],
        ]
        code = "import json, sys, svkit.cli\nprint([svkit.cli.main(a) for a in json.loads(sys.argv[1])])"
        outs = {}
        for n in ("1", "2"):
            (tmp_path / n).mkdir()
            proc = _fresh_python(code, json.dumps(runs), cwd=tmp_path / n, OPENBLAS_NUM_THREADS=n)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip().endswith(str([0] * len(runs))), proc.stderr
            outs[n] = {p.relative_to(tmp_path / n): p.read_bytes() for p in (tmp_path / n).rglob("*") if p.is_file()}
            outs[n]["stdout"] = proc.stdout
        assert len(outs["1"]) == 11 and outs["1"].keys() == outs["2"].keys()
        fit = [backend.load_pipeline(tmp_path / n / "fit.svpl") for n in ("1", "2")]
        assert fit[0].center.tobytes() == fit[1].center.tobytes()
        np.testing.assert_allclose(fit[0].lda, fit[1].lda, rtol=0, atol=1e-6)
        for name in outs["1"].keys() - {Path("fit.svpl")}:
            assert outs["1"][name] == outs["2"][name], name


def _run_with_stdin(argv, data: bytes):
    """svkit `argv` in a new interpreter, with `data` on a pipe as its standard input."""
    env = dict(os.environ, PYTHONPATH=str(Path(svkit.__file__).resolve().parents[1]))
    code = "import sys, svkit.cli; sys.exit(svkit.cli.main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], input=data, env=env,
                          capture_output=True, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
class TestPipedInputs:
    """A pipe can be read only once: every input path reads from standard input
    what it reads from a file with the same bytes."""

    @pytest.fixture
    def files(self, tmp_path):
        rng = np.random.default_rng(21)
        for name in "et":
            s = store.EmbeddingSet([f"{name}{k}" for k in range(4)], rng.normal(size=(4, 3)))
            store.write_embeddings_tsv(s, tmp_path / f"{name}.tsv")
            store.write_embeddings(s, tmp_path / f"{name}.sveb")
        (tmp_path / "trials.txt").write_text("".join(
            f"e{a} t{b} {'target' if a == b else 'nontarget'}\n" for a in range(4) for b in range(4)))
        store.write_matrix_tsv(rng.normal(size=(5, 3)), tmp_path / "m.tsv")
        store.write_matrix(rng.normal(size=(5, 3)), tmp_path / "m.sveb")
        return tmp_path

    @pytest.mark.parametrize("test_set", ["t.tsv", "t.sveb"])
    def test_score_reads_the_test_set_from_stdin(self, files, test_set, capsys):
        argv = ["score", "--enroll", str(files / "e.tsv"), "--trials", str(files / "trials.txt")]
        assert main([*argv, "--test", str(files / test_set), "--out", str(files / "want.tsv")]) == 0
        proc = _run_with_stdin([*argv, "--test", "/dev/stdin", "--out", str(files / "got.tsv")],
                               (files / test_set).read_bytes())
        assert proc.returncode == 0, proc.stderr
        assert (files / "got.tsv").read_bytes() == (files / "want.tsv").read_bytes()

    @pytest.mark.parametrize("piped", ["--scores", "--trials"])
    def test_eval_reads_scores_or_trials_from_stdin(self, files, piped, capsys):
        assert main(["score", "--enroll", str(files / "e.sveb"), "--test", str(files / "t.sveb"),
                     "--trials", str(files / "trials.txt"), "--out", str(files / "scores.tsv")]) == 0
        paths = {"--scores": files / "scores.tsv", "--trials": files / "trials.txt"}
        capsys.readouterr()
        assert main(["eval", *(str(v) for kv in paths.items() for v in kv)]) == 0
        want = capsys.readouterr().out
        argv = ["eval", *(v for k, p in paths.items() for v in (k, "/dev/stdin" if k == piped else str(p)))]
        proc = _run_with_stdin(argv, paths[piped].read_bytes())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode() == want

    @pytest.mark.parametrize("matrix", ["m.tsv", "m.sveb"])
    def test_pool_reads_a_matrix_from_stdin(self, files, matrix, capsys):
        capsys.readouterr()
        assert main(["pool", "--method", "tstp", str(files / matrix)]) == 0
        want = capsys.readouterr().out
        proc = _run_with_stdin(["pool", "--method", "tstp", "/dev/stdin"], (files / matrix).read_bytes())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode() == want
