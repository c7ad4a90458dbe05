"""Every line-oriented text reader against bad bytes: not UTF-8, records its
constructor rejects, and arbitrary input.  Each may raise FormatError (or
OSError) on bad input and nothing else."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svkit import augment, cli, scoring, store
from svkit.errors import FormatError

MANIFEST = augment.UtteranceManifest(
    [augment.Utterance("a", "/d/a.wav", 1.0, 16000), augment.Utterance("b", "/d/b.wav", 2.0, 8000)]
)

READERS = {
    "trials": scoring.parse_trials,
    "enroll-map": scoring.parse_enroll_map,
    "scores": scoring.read_scores,
    "labels": store.read_labels,
    "manifest": augment.read_manifest,
    "plan": lambda path: augment.read_plan(path, MANIFEST),
    "config": cli._load_config,
    "embeddings": store.read_embeddings,
    "matrix": store.read_matrix,
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_not_utf8_is_format_error(tmp_path, name):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"a\tb\n\xff\xfe\n")
    with pytest.raises(FormatError, match="not UTF-8 text"):
        READERS[name](path)


def test_text_lines_splits_only_at_newlines(tmp_path):
    path = tmp_path / "ctl.txt"
    path.write_bytes("a\x0bb\x0cc\x1cd\x85e f\r\ng\rh\n".encode("utf-8"))
    assert list(store.text_lines(path)) == [
        (1, "a\x0bb\x0cc\x1cd\x85e f\n"), (2, "g\n"), (3, "h\n")]


def test_tsv_embeddings_cite_text_line_numbers(tmp_path):
    path = tmp_path / "ff.tsv"
    path.write_bytes(b"a\t1\t2\x0c\nb\t1\t2\n\x0cc\t1\n")  # form feeds are not line ends
    for read in (store.read_embeddings, store.read_matrix):
        with pytest.raises(FormatError, match="ff.tsv:3: dimension 1 != 2"):
            read(path)


def test_manifest_record_error_is_format_error(tmp_path):
    path = tmp_path / "man.tsv"
    path.write_text("a\t/d/a.wav\t1.0\t16000\na\t/d/b.wav\t2.0\t16000\n")
    with pytest.raises(FormatError, match="man.tsv: duplicate"):
        augment.read_manifest(path)
    for duration in ("0", "nan", "inf"):
        path.write_text(f"a\t/d/a.wav\t{duration}\t16000\n")
        with pytest.raises(FormatError, match="man.tsv: a: duration"):
            augment.read_manifest(path)
    path.write_text("a\t/d/a.wav\t1.0\t-5\n")
    with pytest.raises(FormatError, match="man.tsv: a: sample rate"):
        augment.read_manifest(path)
    # commands write <out_dir>/<id>.wav, so an id must name a file inside out_dir
    for utt_id in ("", ".", "..", "../../tmp/evil", "a/b", "/abs", "a\0b"):
        path.write_text(f"{utt_id}\t/d/a.wav\t1.0\t16000\n")
        with pytest.raises(FormatError, match="man.tsv: utterance id .* is not a plain file name"):
            augment.read_manifest(path)


def test_plan_record_error_is_format_error(tmp_path):
    path = tmp_path / "plan.tsv"
    path.write_text("a\tnone\tkeep16k\t1\n")  # no entry for b
    with pytest.raises(FormatError, match="plan.tsv: plan entries"):
        augment.read_plan(path, MANIFEST)
    path.write_text("a\tmp3\tkeep16k\t1\nb\tnone\tkeep16k\t1\n")
    with pytest.raises(FormatError, match="plan.tsv: a: unknown codec"):
        augment.read_plan(path, MANIFEST)
    for speed in ("nan", "inf"):
        path.write_text(f"a\tnone\tkeep16k\t{speed}\nb\tnone\tkeep16k\t1\n")
        with pytest.raises(FormatError, match="plan.tsv: a: speed factor"):
            augment.read_plan(path, MANIFEST)


# fragments that reach past the decoder: field separators, line ends,
# numbers, labels, codecs and config syntax, plus bytes that are not UTF-8
TOKENS = [b"a", b"b", b" ", b"\t", b"\n", b"\r", b"\x0c", b"#", b"1", b"-2.5", b"0", b"nan",
          b"inf", b"1e999", b"16000", b"target", b"NonTarget", b"none", b"gsm", b"keep16k",
          b"down8k", b"[score]", b"[x]", b"workers", b"=", b":", b"\xc2\x85", b"\xff", b"\xc3"]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(st.binary(max_size=48),
                      st.lists(st.sampled_from(TOKENS), max_size=24).map(b"".join)))
def test_arbitrary_bytes_only_format_error(tmp_path, data):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    for read in READERS.values():
        try:
            read(path)
        except (FormatError, OSError):
            pass
