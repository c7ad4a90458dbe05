"""Whole-command mutation fuzz: each command runs in process on small valid
inputs with one input file mutated (a flipped bit, a cut, a deleted or
repeated span, an inserted byte string, or a field replaced by one).  Under
numpy errors raised on overflow, invalid values and division by zero, the
command must return an exit code in 0-4 and let nothing escape, and every
line it writes to stderr must be an ``svkit: ...`` message, one at least
when it fails."""

import re
import shlex
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from svkit import audio, augment, store
from svkit.cli import main
from test_backend import traced_peak
from test_cli import make_wavs, synthetic_speakers

TOKENS = [b"\t", b" ", b"\n", b"#", b"nan", b"inf", b"1e39", b"-1e400", b"\x0c", b"\xff", b"0", b"_"]
KINDS = ["flip", "truncate", "delete", "repeat", "insert", "field"]

# argv by command, with {input} placeholders
COMMANDS = {
    "score": ["score", "--enroll", "{e.tsv}", "--test", "{t.tsv}", "--trials", "{trials.txt}",
              "--enroll-map", "{map.txt}", "--out", "{out}"],
    "eval": ["eval", "--scores", "{scores.tsv}", "--trials", "{trials.txt}"],
    "dcf-curve": ["dcf-curve", "--scores", "{scores.tsv}", "--trials", "{trials.txt}", "--points", "9",
                  "--mark", "0.01", "--out", "{out}"],
    "fit-backend": ["fit-backend", "--embeddings", "{e.tsv}", "--labels", "{e.labels}", "--out", "{out}"],
    "apply-backend": ["apply-backend", "--pipeline", "{p.svpl}", "--embeddings", "{e.tsv}", "--out", "{out}",
                      "--text"],
    "pool-xi": ["pool", "--method", "xi", "{m.tsv}"],
    "pool-asp": ["pool", "--method", "asp", "--seed", "1", "--hidden-dim", "8", "{m.feats}"],
    "features": ["features", "--vad", "--resample", "8000", "--out-dir", "{out}", "{burst.wav}"],
    "augment-plan": ["augment-plan", "--manifest", "{man.tsv}", "--out-dir", "{out}", "--seed", "1",
                     "--speed-perturb"],
}
# command/the input it reads that gets mutated
CASES = ["score/e.tsv", "score/t.tsv", "score/trials.txt", "score/map.txt", "eval/scores.tsv", "eval/trials.txt",
         "dcf-curve/scores.tsv", "fit-backend/e.tsv", "fit-backend/e.labels", "apply-backend/e.tsv",
         "apply-backend/p.svpl", "pool-xi/m.tsv", "pool-asp/m.feats", "features/burst.wav",
         "augment-plan/man.tsv"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid file of each kind that the cases read, by name."""
    d = tmp_path_factory.mktemp("inputs")
    s, labels = synthetic_speakers(np.random.default_rng(31), n_spk=3, per_spk=4, dim=5)
    store.write_embeddings_tsv(s.select(s.ids[:6]), d / "e.tsv")
    store.write_embeddings_tsv(s.select(s.ids[6:]), d / "t.tsv")
    store.write_labels({i: labels[i] for i in s.ids[:6]}, d / "e.labels")
    (d / "map.txt").write_text("m0 spk0-utt0 spk0-utt1\nm1 spk0-utt2 spk0-utt3 # two\nm2 spk1-utt0\n")
    (d / "trials.txt").write_text("".join(
        f"{m} {t} {'target' if m == 'm2' and t.startswith('spk1-') else 'nontarget'}\n"
        for m in ("m0", "m1", "m2") for t in s.ids[6:]))
    store.write_matrix_tsv(np.random.default_rng(32).normal(size=(12, 4)), d / "m.tsv")
    store.write_matrix(np.random.default_rng(33).normal(size=(12, 4)), d / "m.feats")
    make_wavs(d)
    augment.write_manifest(augment.UtteranceManifest(
        [augment.Utterance(f"u{k}", f"/d/u{k}.wav", 1.0 + k, 8000 * (1 + k % 2)) for k in range(4)]),
        d / "man.tsv")
    assert main(["score", "--enroll", str(d / "e.tsv"), "--test", str(d / "t.tsv"), "--trials",
                 str(d / "trials.txt"), "--enroll-map", str(d / "map.txt"), "--out", str(d / "scores.tsv")]) == 0
    assert main(["fit-backend", "--embeddings", str(d / "e.tsv"), "--labels", str(d / "e.labels"),
                 "--out", str(d / "p.svpl")]) == 0
    return {p.name: p for p in d.iterdir()}


def mutate(data: bytes, kind: str, a: int, b: int, token: bytes) -> bytes:
    """`data` with one mutation; `a` and `b` pick where."""
    i, j = sorted((a % (len(data) + 1), b % (len(data) + 1)))
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ (1 << b % 8)]) + data[i + 1:] if i < len(data) else data
    if kind == "truncate":
        return data[:i]
    if kind == "delete":
        return data[:i] + data[j:]
    if kind == "repeat":
        return data[:j] + data[i:j] + data[j:]
    if kind == "insert":
        return data[:i] + token + data[i:]
    fields = list(re.finditer(rb"[^\t\n ]+", data))  # "field": replace one whole field
    if not fields:
        return token
    f = fields[a % len(fields)]
    return data[:f.start()] + token + data[f.end():]


def run(inputs, tmp_path, case, mutated: bytes, traced=False):
    """main() on `case` with its input replaced by `mutated`: the exit code.  When `traced`, a
    second call, warmed by the first, is traced and held to the peak bound."""
    command, target = case.split("/")
    (tmp_path / "mutated").write_bytes(mutated)
    paths = {**{name: str(p) for name, p in inputs.items()}, target: str(tmp_path / "mutated"),
             "out": str(tmp_path / command)}  # features makes a directory there
    argv = [paths[arg[1:-1]] if arg.startswith("{") else arg for arg in COMMANDS[command]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print to stderr beside the message
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rc = main(argv)
            if traced:
                again, peak = traced_peak(main, argv)
                read = [Path(paths[arg[1:-1]]) for arg in COMMANDS[command] if arg.startswith("{") and arg != "{out}"]
                bound = peak_bound(read, BLOCKS.get(command, 0))
                assert again == rc and peak <= bound, (again, rc, peak, bound)
    return rc


@pytest.mark.parametrize("case", CASES)
def test_unmutated_inputs_exit_0(inputs, tmp_path, capsys, case):
    assert run(inputs, tmp_path, case, inputs[case.split("/")[1]].read_bytes()) == 0
    assert capsys.readouterr().err == ""


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=st.sampled_from(CASES), kind=st.sampled_from(KINDS),
       a=st.integers(0, 2**16), b=st.integers(0, 2**16), token=st.sampled_from(TOKENS))
@example(case="apply-backend/e.tsv", kind="field", a=1, b=0, token=b"1e39")  # past float32: inf
def test_a_mutated_input_exits_with_a_code_and_a_message(inputs, tmp_path, capsys, case, kind, a, b, token):
    target = case.split("/")[1]
    # a traced call doubles the time of an example, so a quarter of them, picked by the drawn values
    rc = run(inputs, tmp_path, case, mutate(inputs[target].read_bytes(), kind, a, b, token), traced=(a + b) % 4 == 0)
    err = capsys.readouterr().err
    assert 0 <= rc <= 4
    assert bool(err) == (rc != 0), (rc, err)
    assert all(line.startswith("svkit: ") for line in err.splitlines()), err


# A run's tracemalloc peak is at most PEAK_C + PEAK_K x the bytes of its inputs: PEAK_C covers
# the CLI's own allocations (about 0.1 MB), PEAK_K the few whole-file arrays of a text read.
PEAK_C, PEAK_K = 1 << 18, 8
BIG_ID = "a" * (1 << 20)
# the bytes of fixed blocks by command: features' resample and filterbank blocks (see the
# 768 kHz and 480 kB cases below)
BLOCKS = {"features": 3 * 8 * (1 << 18) + 3 * 8 * (1 << 16)}


def peak_bound(inputs, blocks=0):
    """The peak bound of a run that reads `inputs`, raised by `blocks` bytes for a command that
    works in fixed blocks."""
    return PEAK_C + blocks + PEAK_K * sum(p.stat().st_size for p in inputs)


def bounded_run(argv, inputs, blocks=0):
    """main(argv), once untraced so that lazy imports and caches are not counted, then traced:
    its exit code, after asserting the peak bound."""
    main(argv)
    rc, peak = traced_peak(main, argv)
    bound = peak_bound(inputs, blocks)
    assert peak <= bound, (peak, bound)
    return rc


@pytest.mark.parametrize("trials, scores", [
    (f"e1 t1 target\ne1 t2 nontarget\n{BIG_ID} t1 nontarget\n", "e1\tt1\t0.9\ne1\tt2\t0.1\n"),
    ("e1 t1 target\ne1 t2 nontarget\n", f"e1\tt1\t0.9\n{BIG_ID}\tt2\t0.1\n")])
def test_a_1_mib_id_stays_within_the_peak_bound(tmp_path, capsys, trials, scores):
    (tmp_path / "trials.txt").write_text(trials)
    (tmp_path / "scores.tsv").write_text(scores)
    rc = bounded_run(["eval", "--scores", str(tmp_path / "scores.tsv"), "--trials", str(tmp_path / "trials.txt")],
                     [tmp_path / "trials.txt", tmp_path / "scores.tsv"])
    assert rc == 3
    assert "svkit: error: no score for trial " in capsys.readouterr().err


@pytest.fixture(scope="module")
def trials_100k(tmp_path_factory):
    """100k labeled trials in shuffled order, of 100 enrollment and 1000 test ids of 2 to 4
    bytes, the 4-d embeddings of both sets, and the scores of the trials."""
    d = tmp_path_factory.mktemp("trials_100k")
    rng = np.random.default_rng(100)
    enroll = store.EmbeddingSet([f"m{k}" for k in range(100)], rng.normal(size=(100, 4)))
    test = store.EmbeddingSet([f"t{k}" for k in range(1000)], rng.normal(size=(1000, 4)))
    store.write_embeddings_tsv(enroll, d / "e.tsv")
    store.write_embeddings_tsv(test, d / "t.tsv")
    (d / "trials.txt").write_text("".join(
        f"m{k // 1000} t{k % 1000} {'target' if k % 10 == 0 else 'nontarget'}\n" for k in rng.permutation(100_000)))
    assert main(["score", "--enroll", str(d / "e.tsv"), "--test", str(d / "t.tsv"), "--trials",
                 str(d / "trials.txt"), "--out", str(d / "scores.tsv")]) == 0
    return d


@pytest.mark.parametrize("command", ["score", "eval"])
def test_a_valid_100k_trial_run_stays_within_the_peak_bound(trials_100k, tmp_path, capsys, command):
    """The trial and score columns are gathered in line blocks: checking a whole 1.8 MB trial
    list at once took `score` to 18.1 MiB, over its 14.8 MiB bound."""
    d = trials_100k
    argv, inputs = {
        "score": (["score", "--enroll", str(d / "e.tsv"), "--test", str(d / "t.tsv"), "--trials",
                   str(d / "trials.txt"), "--out", str(tmp_path / "scores.tsv")], ["e.tsv", "t.tsv", "trials.txt"]),
        "eval": (["eval", "--scores", str(d / "scores.tsv"), "--trials", str(d / "trials.txt")],
                 ["scores.tsv", "trials.txt"])}[command]
    assert bounded_run(argv, [d / name for name in inputs]) == 0
    assert capsys.readouterr().err == ""
    if command == "score":
        assert (tmp_path / "scores.tsv").read_bytes() == (d / "scores.tsv").read_bytes()


def test_an_sveb_header_of_2_to_the_60_records_stays_within_the_peak_bound(tmp_path, capsys):
    sveb = store.MAGIC + struct.pack("<HQI", store.FORMAT_VERSION, 1 << 60, 4) + b"\x01\x00a" + bytes(16)
    (tmp_path / "e.sveb").write_bytes(sveb)
    (tmp_path / "trials.txt").write_text("a a\n")
    rc = bounded_run(["score", "--enroll", str(tmp_path / "e.sveb"), "--test", str(tmp_path / "e.sveb"),
                      "--trials", str(tmp_path / "trials.txt"), "--out", str(tmp_path / "s.tsv")],
                     [tmp_path / "e.sveb", tmp_path / "trials.txt"])
    assert rc == 2
    assert f"header claims {1 << 60} records of dim 4" in capsys.readouterr().err


@pytest.mark.parametrize("utt_id, path, rc", [
    (BIG_ID, "/d/b.wav", 2), ("b", "'" * (1 << 20), 2), ("'" * 248, "/" + "'" * 4094, 0)],
    ids=["id", "path", "longest-id-and-path"])
def test_a_1_mib_utterance_id_stays_within_the_peak_bound(tmp_path, capsys, utt_id, path, rc):
    """A line holds the id three times (down8k with the codec goes through <id>.gsm to
    <id>.wav) and the path once, and shell quoting makes each `'` five characters.  An id
    whose <id>.8k.wav is over 255 bytes names no file, and Linux opens no path of 4096 bytes
    or more: either exits 2 before any file is written (a 1 MiB path of `'` characters, as
    the longest line, peaked at 11.1 MiB)."""
    (tmp_path / "man.tsv").write_text(f"u0\t/d/u0.wav\t1.0\t16000\n{utt_id}\t{path}\t2.0\t16000\n")
    assert bounded_run(["augment-plan", "--manifest", str(tmp_path / "man.tsv"), "--out-dir", str(tmp_path / "a"),
                        "--mode", "down8k", "--fraction", "1", "--seed", "1", "--speed-perturb"],
                       [tmp_path / "man.tsv"]) == rc
    out, err = capsys.readouterr()
    if rc:
        assert out == "" and err.count(f"svkit: format error: {tmp_path / 'man.tsv'}: ") == 2
        assert not (tmp_path / "a").exists()
    else:
        assert out.count("2 codec-flagged") == 2
        commands = (tmp_path / "a" / "commands.txt").read_text()
        assert commands.count(shlex.quote(f"{tmp_path / 'a'}/{utt_id}.gsm")) == 2
        assert commands.count(shlex.quote(path)) == 1


def test_a_768_khz_wav_stays_within_the_peak_bound(tmp_path, capsys):
    """6144 taps per 8 kHz output: blocks of 2^18 cells hold 42 outputs, where
    one block of every output would be 51 MB an array."""
    x = np.concatenate([np.zeros(50000), np.random.default_rng(7).uniform(-0.8, 0.8, 50000)])
    audio.write_wav(audio.AudioBuffer(x, 768000), tmp_path / "hi.wav")  # 195 kB
    # PEAK_C: the CLI's own allocations; 3 x 8 x 2^18: resample's gathered taps, the weights
    # gathered for them and its phase table, each at most 2^18 float64 (output, tap) cells;
    # PEAK_K x 195 kB: read_wav's PCM bytes and the float64 samples, 4 bytes per file byte
    rc = bounded_run(["features", "--vad", "--resample", "8000", "--out-dir", str(tmp_path / "f"),
                      str(tmp_path / "hi.wav")], [tmp_path / "hi.wav"], blocks=3 * 8 * (1 << 18))
    assert rc == 0
    assert store.read_matrix(tmp_path / "f" / "hi.feats").shape[0] > 0


@pytest.mark.parametrize("rate, seconds", [(16000, 15), (48000, 5)])
def test_a_480_kb_wav_stays_within_the_peak_bound(tmp_path, capsys, rate, seconds):
    """log_mel_fbank in frame blocks: all 1498 frames of 15 s at 16 kHz at once
    held their copy, rfft and power, 15.3 MiB traced in all."""
    half = rate * seconds // 2
    x = np.concatenate([np.zeros(half), np.random.default_rng(3).uniform(-0.8, 0.8, half)])  # silence, then noise
    audio.write_wav(audio.AudioBuffer(x, rate), tmp_path / "n.wav")  # 480 kB
    # PEAK_C: the CLI's own allocations; PEAK_K x 480 kB: read_wav's PCM bytes, its float64
    # samples and their finiteness mask (5.5 bytes per file byte), and 80 float64 mels per
    # 10 ms frame with their mask (2.25 per file byte at 16 kHz); 3 x 8 x 2^16: one fbank
    # block's frames, rfft and power, at most 2.5 float64 per 2^16 (frame, FFT-bin) cells,
    # with the rest for the mel bank (164 kB at 16 kHz)
    rc = bounded_run(["features", "--vad", "--text", "--out-dir", str(tmp_path / "f"), str(tmp_path / "n.wav")],
                     [tmp_path / "n.wav"], blocks=3 * 8 * (1 << 16))
    assert rc == 0
    kept = store.read_matrix(tmp_path / "f" / "n.tsv")
    assert kept.shape[1] == 80 and 0 < len(kept) < 100 * seconds
