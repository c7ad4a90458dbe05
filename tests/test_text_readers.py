"""Every line-oriented text reader against bad bytes: not UTF-8, records its
constructor rejects, and arbitrary input.  Each may raise FormatError (or
OSError) on bad input and nothing else, and each returns or raises what the
earlier readers in oracles.py did, except for the rewordings and the new
checks listed below.  The score reader is given the file's own pairs as its
trial list, so that it reads a well-formed file as byte columns."""

import ast
import math
import re
import sys
import tracemalloc
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from svkit import augment, cli, scoring, store
from svkit.errors import ContractError, FormatError
from test_binary_readers import check_sveb

MANIFEST = augment.UtteranceManifest(
    [augment.Utterance("a", "/d/a.wav", 1.0, 16000), augment.Utterance("b", "/d/b.wav", 2.0, 8000)]
)


def _file_trials(path) -> scoring.TrialList:
    """The distinct pairs of a score file's 3-field lines, in file order, read
    from any bytes; a file that read_scores accepts holds exactly these."""
    with open(path, encoding="utf-8", errors="replace") as f:
        rows = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    return scoring.TrialList.from_pairs(list(dict.fromkeys((r[0], r[1]) for r in rows if len(r) == 3)))


READERS = {
    "trials": scoring.parse_trials,
    "enroll-map": scoring.parse_enroll_map,
    "scores": lambda path: scoring.read_scores(path, _file_trials(path)),
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
    path.write_bytes(b"a\x0c\t1\t2\nb\t1\t2\n\x0cc\t1\n")  # form feeds are not line ends
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
    # <id>.8k.wav fits a 255-byte file name, and Linux opens no path of 4096 bytes or more
    path.write_text(f"{'é' * 124}\t/{'é' * 2047}\t1.0\t16000\n")  # 248 and 4095 UTF-8 bytes
    assert augment.read_manifest(path).utterances[0].path == "/" + "é" * 2047
    for fields, message in ((f"{'é' * 124}a\t/d/a.wav", f"utterance id '{'é' * 16}'... is longer than 248"),
                            ("a\t" + "/" * 4096, "a: path is longer than 4095")):
        path.write_text(f"{fields}\t1.0\t16000\n")
        with pytest.raises(FormatError, match=f"man.tsv: {message} UTF-8 bytes$"):
            augment.read_manifest(path)


def test_plan_record_error_is_format_error(tmp_path):
    path = tmp_path / "plan.tsv"
    path.write_text("a\tnone\tkeep16k\t1\n")  # no entry for b
    with pytest.raises(FormatError, match="plan.tsv: plan entries"):
        augment.read_plan(path, MANIFEST)
    path.write_text("a\tmp3\tkeep16k\t1\nb\tnone\tkeep16k\t1\n")
    with pytest.raises(FormatError, match="plan.tsv: a: unknown codec"):
        augment.read_plan(path, MANIFEST)
    path.write_text("a\tnone\tkeep16k\t1\nb\tnone\tkeep8k\t1\n")
    with pytest.raises(FormatError, match="plan.tsv: b: unknown chain 'keep8k'$"):
        augment.read_plan(path, MANIFEST)
    for speed in ("nan", "inf"):
        path.write_text(f"a\tnone\tkeep16k\t{speed}\nb\tnone\tkeep16k\t1\n")
        with pytest.raises(FormatError, match="plan.tsv: a: speed factor"):
            augment.read_plan(path, MANIFEST)


# fragments that reach past the decoder: field separators, line ends,
# numbers, labels, codecs and config syntax, plus bytes that are not UTF-8
TOKENS = [b"a", b"b", b" ", b"\t", b"\n", b"\r", b"\x0c", b"#", b"1", b"-2.5", b"0", b"nan",
          b"inf", b"1e999", b"16000", b"target", b"NonTarget", b"none", b"gsm", b"keep16k",
          b"down8k", b"[score]", b"[x]", b"workers", b"=", b":", b"\xc2\x85", b"\xff", b"\xc3",
          b"_", b"0_5", "\u0661".encode(), b"\xc2\xa0", b"\x0b"]


# fields of whole records, which every reader gets past its field-count check
FIELDS = [b"a", b"b", b"1", b"-2.5", b"0", b"3", b"nan", b"1e999", b"16000", b"target", b"none",
          b"keep16k", b"0_5", b"1_0", " 0.9".encode(), "\u0661".encode(), "1\u00a0".encode(),
          b"2\x0c", b"\x0b4"]
FUZZ_BYTES = st.one_of(
    st.binary(max_size=48),
    st.lists(st.sampled_from(TOKENS), max_size=24).map(b"".join),
    # up to 5 records, each of 1 to 4 fields joined by one separator
    st.lists(st.tuples(st.sampled_from([b"\t", b" "]),
                       st.lists(st.sampled_from(FIELDS), min_size=1, max_size=4))
             .map(lambda sep_fields: sep_fields[0].join(sep_fields[1]) + b"\n"),
             max_size=5).map(b"".join))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=FUZZ_BYTES)
def test_arbitrary_bytes_only_format_error(tmp_path, data):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    for read in READERS.values():
        try:
            read(path)
        except (FormatError, OSError):
            pass


ORACLES = {
    "trials": oracles.oracle_parse_trials,
    "enroll-map": oracles.oracle_parse_enroll_map,
    "scores": lambda path: oracles.oracle_labeled_scores(path, _file_trials(path)),
    "labels": oracles.oracle_read_labels,
    "manifest": oracles.oracle_read_manifest,
    "plan": lambda path: oracles.oracle_read_plan(path, MANIFEST),
    "embeddings": lambda path: (oracles.oracle_parse_sveb(path) if store._is_sveb(path)
                                else oracles.oracle_parse_tsv(path)),
    "matrix": oracles.oracle_read_matrix,
}

# the only messages that changed: a plain matrix now words a short row and an
# empty file as id-prefixed TSV does
REWORDED = {"matrix": {"inconsistent row length": r"dimension \d+ != \d+ of first record",
                       "no rows": "no records"}}


def _outcome(read, path):
    """What read(path) returns, in a form that == compares (NaN included),
    or the type and message of what it raises."""
    try:
        value = read(path)
    except (FormatError, ContractError, OSError) as e:
        return "raises", type(e), str(e)
    def array(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    if isinstance(value, store.EmbeddingSet):
        value = (value.ids, array(value.vectors))
    elif isinstance(value, scoring.TrialList):
        value = (value.enroll_ids, array(value.enroll), value.test_ids, array(value.test),
                 array(value.labels))
    elif isinstance(value, np.ndarray):
        value = array(value)
    return "returns", repr(value)


def _plain(parse):
    """`parse` (float or int) refusing text with `_`, a space, an ASCII control
    character or a character past ASCII, which the readers no longer take for a number."""
    def strict(text):
        if re.search(r"[^!-^`-~]", text):
            raise ValueError(f"not a plain decimal: {text!r}")
        return parse(text)
    return strict


def _first_non_finite_score(path, got):
    """`got` when read_scores raised for a non-finite score at line L, once
    the earlier reader is seen to accept lines 1..L with that score last;
    else None."""
    m = got[0] == "raises" and re.fullmatch(rf"{re.escape(str(path))}:(\d+): non-finite score .*",
                                             got[2])
    if not m:
        return None
    head = path.with_name("head.txt")
    head.write_text("".join(line for _, line in islice(store.text_lines(path), int(m[1]))))
    kept = oracles.oracle_read_scores(head)
    assert not math.isfinite(list(kept.values())[-1]), (got, kept)
    return got


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=FUZZ_BYTES)
@example(data=b"a\tb\t1\n\nc\td\tinf\n")
@example(data=b"a\tb\tnan\na\tb\t1\n")  # the earlier reader's error came on the next line
@example(data=b"a\tb\t1\na\tb\tnan\n")  # a duplicate pair is reported first, as before
@example(data=b"a\tb\t1\nc\td\t0_5\n")
@example(data="a\tb\t\u0661\n".encode())
@example(data=b"a\tb\t 0.9\n")
@example(data=b"1_0\t2\n")  # an id, no longer the number 10
@example(data=b"a\t/d/a.wav\t1\t16_000\n")
@example(data=b"a\t1\t2\x0c\nb\t3\t\x0b4\n")  # read as [1, 2] and [3, 4] before
def test_readers_match_earlier_readers(tmp_path, data):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    sveb = store._is_sveb(path)
    if sveb:  # with the SVEB rewordings and the dimension-0 check
        check_sveb(path, data)
    # the one new number rule: the earlier readers, with float() and int() taking plain decimals only
    with (mock.patch.object(oracles, "float", _plain(float), create=True),
          mock.patch.object(oracles, "int", _plain(int), create=True)):
        expected = {name: _outcome(old_read, path) for name, old_read in ORACLES.items()}
    for name, want in expected.items():
        if sveb and name in ("embeddings", "matrix"):
            continue
        got = _outcome(READERS[name], path)
        if name == "scores":  # the one new score error: a non-finite score at its line
            want = _first_non_finite_score(path, got) or want
        for old, new in REWORDED.get(name, {}).items():
            if want[0] == "raises" and want[2].endswith(": " + old):
                prefix = re.escape(want[2][: -len(old)])  # the path and line number
                assert got[:2] == want[:2] and re.fullmatch(prefix + new, got[2]), (name, data)
                break
        else:
            assert got == want, (name, data)


IDS = [b"a", b"b", b"c", b"d"]
# score files of 3-field records over few pairs, most of them well formed, some with a
# duplicate pair, a non-finite score or a score that is not a plain decimal
SCORE_FILES = st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS),
                                 st.sampled_from([b"1", b"-2.5", b"0.125", b"-0", b"1e-06", b"7", b"nan",
                                                  b"1e999", b"0_5", b" 0.9"]))
                       .map(lambda fields: b"\t".join(fields) + b"\n"), max_size=6).map(b"".join)
MISSING = ("no\nsuch", "pair")  # no line of a file holds a newline inside a field


def _trials_for(path, order, key) -> scoring.TrialList:
    """A trial list over the file's pairs: in file order, permuted, with one pair
    the file lacks, with one of its pairs dropped, or a strict prefix, which
    leaves the file extra trailing lines."""
    pairs = _file_trials(path).pairs
    rng = np.random.default_rng(key)
    if order == "permuted":
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    elif order == "missing":
        pairs.insert(rng.integers(len(pairs) + 1), MISSING)
    elif order == "dropped" and pairs:
        del pairs[rng.integers(len(pairs))]
    elif order == "prefix" and pairs:
        pairs = pairs[: rng.integers(len(pairs))]
    return scoring.TrialList.from_pairs(pairs)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(FUZZ_BYTES, SCORE_FILES),
       order=st.sampled_from(["file", "permuted", "missing", "dropped", "prefix"]),
       key=st.integers(0, 2**32 - 1))
@example(data=b"a\tb\t1\nc\td\tx\ne\tf\n", order="file", key=0)  # bad score, then a 2-field line
@example(data=b"a\tb\t1\nc\td\tnan\n", order="file", key=0)  # nan on the last line
@example(data=b"a\tb\t1\nc\td\t2\n", order="permuted", key=3)
@example(data=b"a\tb\t1\na\tc\t2\n", order="permuted", key=3)  # the same enroll ids in order
@example(data=b"a\tb\t1\nc\td\t2\ne\tf\tnan\n", order="prefix", key=0)  # a bad extra line
@example(data=b"a\tb\t1\nc\td\t2\n", order="missing", key=0)
def test_read_scores_matches_earlier_reader_and_alignment(tmp_path, data, order, key):
    """read_scores(path, trials) returns the values, or raises the error, of
    the earlier per-pair table followed by the CLI's alignment loop."""
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    trials = _trials_for(path, order, key)
    with (mock.patch.object(oracles, "float", _plain(float), create=True),
          mock.patch.object(oracles, "int", _plain(int), create=True)):
        want = _outcome(lambda p: oracles.oracle_labeled_scores(p, trials), path)
    with mock.patch.object(scoring, "records", wraps=store.records) as spy:
        got = _outcome(lambda p: scoring.read_scores(p, trials), path)
    if order == "file" and got[0] == "returns" and store.byte_fields(path, (3, 3), "\t") is not None:
        assert not spy.called, data  # read as byte columns, without a per-pair table
    assert got == (_first_non_finite_score(path, got) or want), (order, data)


# ids of 1 to 12 bytes, wider than the 8 that _byte_codes packs into one integer
ID_TEXT = st.text(st.sampled_from("ab0Z-.:~"), min_size=1, max_size=12)
RUNS = st.sampled_from([" ", "  ", "\t", " \t", "\t\t "])
LABEL_TEXT = st.sampled_from(["target", "nontarget", "Target", "NonTarget", "TARGET", "nonTARGET"])
SCORE_TEXT = st.one_of(st.floats(-1e3, 1e3).map("{:.6f}".format),
                       st.sampled_from(["1e-3", "-0", "7", "+0.5", "1E5", ".5", "-2.", "1" * 20]))


@st.composite
def well_formed(draw, kind):
    """The lines of a trial or score file that the byte path reads: distinct pairs,
    blank lines, and for trials runs of spaces and tabs around the fields and labels
    in any case (or none).  The second value says whether to end with a newline."""
    ids = draw(st.lists(ID_TEXT, min_size=1, max_size=4, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          min_size=1, max_size=8, unique=True))
    labeled = draw(st.booleans())
    lines = []
    for e, t in pairs:
        if kind == "scores":
            lines.append(f"{e}\t{t}\t{draw(SCORE_TEXT)}")
        else:
            fields = [e, t, draw(LABEL_TEXT)] if labeled else [e, t]
            runs = [draw(RUNS | st.just("")), *(draw(RUNS) for _ in fields[1:]), draw(RUNS | st.just(""))]
            lines.append(runs[0] + "".join(f + r for f, r in zip(fields, runs[1:])))
        if draw(st.integers(0, 3)) == 0:
            lines.append("" if kind == "scores" else draw(RUNS | st.just("")))
    return lines, draw(st.booleans())


# each turns a well-formed file into one that the byte path refuses or that fails to read
CORRUPT = {
    "crlf": lambda lines: [line + "\r" for line in lines],
    "comment": lambda lines: ["# trials", lines[0].rstrip(" \t") + "#c", *lines[1:]],
    "tab-only line": lambda lines: [*lines, "\t"],
    "spaces": lambda lines: [line.replace("\t", " ") for line in lines],
    "empty field": lambda lines: [lines[0].replace("\t", "\t\t", 1), "\t" + lines[-1], *lines[1:]],
    "repeat": lambda lines: [*lines, lines[0]],
    "bad label": lambda lines: [re.sub("(?i)target", "bogus", lines[0]), *lines[1:]],
    "score": lambda lines: [*lines[:-1], re.sub(r"[^\t]*$", "0_5", lines[-1])],
    "extra field": lambda lines: [lines[0] + "\tx", *lines[1:]],
}


# by reader: the corruptions whose files the byte path refuses, and the reader's fields and sep
REFUSED = {"trials": ({"crlf", "comment"}, (2, 3), None),
           "scores": ({"crlf", "comment", "tab-only line", "spaces", "empty field"}, (3, 3), "\t")}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file=st.sampled_from(["trials", "scores"]).flatmap(lambda kind: st.tuples(st.just(kind), well_formed(kind))),
       corrupt=st.none() | st.sampled_from(sorted(CORRUPT)),
       order=st.sampled_from(["file", "file", "permuted", "missing", "dropped", "prefix"]),  # file: byte path
       key=st.integers(0, 2**32 - 1))
# 56 bytes, but a score column of 3 rows padded to 20 bytes needs 60: the size guard refuses it
@example(file=("scores", (["0\t0\t0.000000", "", "0\t00\t0.000000", "", "00\t0\t11111111111111111111", ""], True)),
         corrupt=None, order="file", key=0)
def test_well_formed_files_take_the_byte_path(tmp_path, file, corrupt, order, key):
    """parse_trials and read_scores read a well-formed file as byte columns, without
    records, and return what the earlier readers return, unless a field is so wide that
    its padded column would outgrow the file; a corrupted one returns or raises what they do."""
    kind, (lines, final_newline) = file
    if corrupt is not None:
        lines = CORRUPT[corrupt](lines)
    path = tmp_path / "wf.txt"
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""))
    if kind == "trials":
        read, old_read = scoring.parse_trials, oracles.oracle_parse_trials
    else:
        trials = _trials_for(path, order, key)
        read = lambda p: scoring.read_scores(p, trials)
        old_read = lambda p: oracles.oracle_labeled_scores(p, trials)
    with (mock.patch.object(oracles, "float", _plain(float), create=True),
          mock.patch.object(oracles, "int", _plain(int), create=True)):
        want = _outcome(old_read, path)
    with mock.patch.object(scoring, "records", wraps=store.records) as spy:
        got = _outcome(read, path)
    assert got == (_first_non_finite_score(path, got) or want), (kind, corrupt, lines)
    if corrupt is None and (kind == "trials" or order == "file"):
        rows = [line.split() for line in lines if line.strip()]
        too_wide = len(rows) * max(len(f) for row in rows for f in row) > path.stat().st_size
        assert got[0] == "returns" and spy.called == too_wide, (kind, lines)
    refused, fields, sep = REFUSED[kind]
    if corrupt in refused:
        assert store.byte_fields(path, fields, sep) is None, (kind, corrupt)


@pytest.mark.parametrize("kind", ["trials", "scores"])
def test_a_wide_field_is_read_line_by_line_in_linear_memory(tmp_path, kind):
    """One 1 MB id would pad every row of its byte column to 1 MB: such a file goes to
    records, and the reader's peak grows with the file's size, not faster."""
    path, peaks = tmp_path / "wide.txt", []
    for size in (1 << 20, 1 << 21):
        pairs = [(f"e{k}", f"t{k}") for k in range(2000)] + [("x" * size, "t0")]
        if kind == "trials":
            path.write_text("".join(f"{e} {t} target\n" for e, t in pairs))
            read = scoring.parse_trials
        else:
            path.write_text("".join(f"{e}\t{t}\t0.5\n" for e, t in pairs))
            trials = scoring.TrialList.from_pairs(pairs)
            read = lambda p: scoring.read_scores(p, trials)
        with mock.patch.object(scoring, "records", wraps=store.records) as spy:
            tracemalloc.start()
            try:
                assert len(read(path)) == len(pairs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert spy.called
    assert peaks[1] < 2.5 * peaks[0], peaks


# (reader, a valid first line, the second line around a number field, its error)
NUMBER_FIELDS = {
    "scores": ("e\tt\t0.5\n", "e\tu\t{}\n", "bad score"),
    "embeddings": ("a\t1\t2\n", "b\t1\t{}\n", "non-numeric value"),
    "matrix": ("1\t2\n", "1\t{}\n", "non-numeric value"),
    "manifest": ("a\t/d/a.wav\t1\t16000\n", "b\t/d/b.wav\t{}\t16000\n", "bad duration or sample rate"),
    "plan": ("a\tnone\tkeep16k\t1\n", "b\tnone\tkeep16k\t{}\n", "bad speed factor"),
}


@pytest.mark.parametrize("name", sorted(NUMBER_FIELDS))
@pytest.mark.parametrize("field", ["0_5", "1_0", "\u0661", " 0.9", "0.9 ", "\u00a00.9", "0.\uff15",
                                   "2\x0c", "\x0b4"])
def test_number_field_must_be_a_plain_decimal(tmp_path, name, field):
    """float() reads each of these fields; a reader names its line instead."""
    first, line, error = NUMBER_FIELDS[name]
    path = tmp_path / "n.tsv"
    path.write_text(first + line.format(field), encoding="utf-8")
    with pytest.raises(FormatError, match=f"n.tsv:2: {error}"):
        READERS[name](path)
    path.write_bytes((first + line.format("1")).replace("\n", "\r\n").encode())
    READERS[name](path)  # CRLF line ends still read


@pytest.mark.parametrize("rate", ["16_000", " 16000", "\u0661\u0666000"])
def test_sample_rate_must_be_a_plain_decimal(tmp_path, rate):
    path = tmp_path / "m.tsv"
    path.write_text(f"a\t/d/a.wav\t1\t{rate}\n", encoding="utf-8")
    with pytest.raises(FormatError, match="m.tsv:1: bad duration or sample rate"):
        augment.read_manifest(path)


def test_first_field_sniffs_a_number_only_in_plain_decimals(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("1_0\t2\n3\t4\n")  # read as the plain matrix [[10, 2], [3, 4]] before
    assert store.read_matrix(path).tolist() == [[2.0], [4.0]]


# score tokens: signs, -0, exponents, more than 17 digits, 1e400, the words float() knows
# and near misses, and any short run of ASCII graphic characters
NUMBER_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789+-.eE"), max_size=24),
    st.floats().map(repr),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.integers(-10**25, 10**25).map(str),
    st.sampled_from(["-0", "+0", "-0.0", "1e400", "-1e400", "1e-400", "4.9e-324", "inf", "-Infinity",
                     "nan", "-nan", "NaN(1)", "0x10", "1d5", "1_0", "١"]),
    st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=8))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=NUMBER_TEXT)
def test_byte_path_reads_a_score_as_float_does(tmp_path, text):
    """read_scores converts a score column with numpy's bytes-to-float cast.  On every
    token that plain_number accepts, the cast refuses what float() refuses and gives
    float()'s bits otherwise, and read_scores returns those bits or names the line.
    The cast also reads `1_0` as float() does, so read_scores refuses a `_` itself."""
    assert np.array([b"1_0"]).astype(np.float64)[0] == float("1_0") == 10
    try:
        want = float(store.plain_number(text))
    except ValueError:
        want = None
    if re.fullmatch(r"[!-^`-~]*", text):  # a token that plain_number accepts
        try:
            got = np.array([text.encode()]).astype(np.float64)[0]
        except ValueError:
            got = None
        assert (got is None) == (want is None), text
        assert want is None or np.float64(want).tobytes() == got.tobytes(), text
    path = tmp_path / "s.tsv"
    path.write_text(f"a\tb\t{text}\n", encoding="utf-8")
    got = _outcome(lambda p: scoring.read_scores(p, scoring.TrialList.from_pairs([("a", "b")])), path)
    if want is not None and math.isfinite(want):
        assert got == ("returns", repr(("<f8", (1,), np.float64(want).tobytes()))), text
    else:
        assert got[:2] == ("raises", FormatError), text


@pytest.mark.parametrize("text, old, new", [
    (b"1\t2\n3\n", "inconsistent row length", "dimension 1 != 2 of first record"),
    (b"\n \n", "no rows", "no records")])
def test_plain_matrix_rewordings(tmp_path, text, old, new):
    path = tmp_path / "m.tsv"
    path.write_bytes(text)
    for read, message in ((oracles.oracle_read_matrix, old), (store.read_matrix, new)):
        with pytest.raises(FormatError, match=re.escape(message)):
            read(path)


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _record_readers() -> dict[tuple[str, int], str]:
    """(file, first line) -> name of every svkit function whose body
    calls store.records or store.text_lines."""
    found = {}
    for path in sorted(Path(store.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            calls = {_callee(n) for n in ast.walk(node) if isinstance(n, ast.Call)}
            if calls & {"records", "text_lines"}:
                first = min([d.lineno for d in node.decorator_list] + [node.lineno])
                found[(str(path), first)] = f"{path.stem}.{node.name}"
    return found


def test_every_record_reader_is_fuzzed(tmp_path):
    """A function that reads text records must be reached by an entry of
    READERS, so that the fuzz tests above cover it."""
    readers = _record_readers()
    assert {"scoring.parse_trials", "store.read_matrix", "cli._load_config"} <= set(readers.values())
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    path = tmp_path / "in.txt"
    for text in (b"", b"a\tb\n", b"1\t2\n", b"a 1\n"):
        path.write_bytes(text)
        sys.setprofile(profile)
        try:
            for read in READERS.values():
                try:
                    read(path)
                except (FormatError, OSError):
                    pass
        finally:
            sys.setprofile(None)
    missing = sorted(name for key, name in readers.items() if key not in reached)
    assert not missing, f"not reached by test_text_readers.READERS: {missing}"
