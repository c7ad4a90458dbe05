import struct

import numpy as np
import pytest

from svkit import audio, backend, metrics, scoring, store
from svkit.cli import main


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
    return store.EmbeddingSet(ids, np.asarray(vecs, np.float32), labels)


class TestFeaturesCommand:
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

    def test_mhfa_output_dim(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "m.feats"
        store.write_matrix(rng.normal(size=(12, 8)), path)
        rc = main(["pool", "--method", "mhfa", "--seed", "3", "--heads", "4",
                   "--embed-dim", "32", str(path)])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().split("\t")) == 32

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
        train = synthetic_speakers(rng)
        store.write_embeddings(train, tmp_path / "train.sveb")
        store.write_labels(train.labels, tmp_path / "train.labels")

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
        return tmp_path, train, test_ids

    def test_end_to_end_matches_library(self, workspace, capsys):
        tmp_path, train, test_ids = workspace
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
        centered = backend.apply_pipeline(backend.Pipeline(center=center), train)
        lda = backend.fit_lda(centered)
        pipe = backend.Pipeline(center=center, lda=lda, length_norm=True)
        proc = backend.apply_pipeline(pipe, train)
        member_map = scoring.parse_enroll_map(tmp_path / "enroll.map")
        segments = {m: [proc.vector(i) for i in ids] for m, ids in member_map.items()}
        models = scoring.models_to_set(scoring.build_enrollment(segments))
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
        by_pair = scoring.read_scores(tmp_path / "scores_lib.tsv")
        vals = np.array([by_pair[p] for p in trials.pairs])
        ls = metrics.LabeledScores(vals[trials.labels], vals[~trials.labels])
        assert f"EER (%): {100 * metrics.eer(ls):.2f}" in out
        cprim = metrics.c_primary(ls, list(metrics.DEFAULT_OPERATING_POINTS))
        assert f"C_primary [default]: {cprim:.3f}" in out

    def test_workers_do_not_change_bytes(self, workspace, capsys):
        tmp_path, train, _ = workspace
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
        for workers, block in ((1, 4096), (2, 17), (8, 3)):
            out = tmp_path / f"s{workers}_{block}.tsv"
            rc = main([
                "score", "--enroll", str(tmp_path / "proc.sveb"),
                "--test", str(tmp_path / "proc.sveb"),
                "--trials", str(tmp_path / "trials.txt"),
                "--enroll-map", str(tmp_path / "enroll.map"),
                "--workers", str(workers), "--block-size", str(block),
                "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

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


class TestScheduleCommand:
    def test_epoch_six_peak_lr(self, tmp_path, capsys):
        rc = main(["schedule", "--dump"])
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

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

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
