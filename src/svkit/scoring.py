"""Trial parsing, enrollment models, batched deterministic cosine scoring, and score files.

Scoring runs on one thread over blocks of trials that cast at most SCORE_BLOCK values per
operand to float64, so a block stays in cache.  Each row's norm is computed once, and each
score is a pure function of its two rows, so block size never changes an output bit.

A trial list keeps its ids as codes.  A trial file, and a score file that holds the trials
in order, is read whole as byte columns when ``store.byte_fields`` accepts it: a file of
ASCII graphic ids and labels, no ``#``, no CR and the same field count on every line.  Any
other file is read line by line, which is also where every error message comes from.  A
pipe is read once into memory and then takes the same path as a file.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError, FormatError
from .store import EmbeddingSet, byte_fields, plain_number, read_once, records, sorted_codes, write_text

_LABELS = {"target": True, "nontarget": False}
SCORE_BLOCK = 1 << 15  # float64 values per operand per scoring block: 128 rows at 256-d
WRITE_BLOCK = 1 << 14  # trials per id gather in write_scores, which beats one trial at a time


@dataclass
class TrialList:
    """Ordered (enroll, test) pairs as codes: trial k pairs ``enroll_ids[enroll[k]]`` with
    ``test_ids[test[k]]``, where both id lists are sorted and distinct; optionally labeled
    target/nontarget."""

    enroll_ids: list[str]
    enroll: np.ndarray  # intp per trial
    test_ids: list[str]
    test: np.ndarray  # intp per trial
    labels: np.ndarray | None = None  # bool per trial, True = target

    def __post_init__(self):
        self.enroll, self.test = np.asarray(self.enroll, np.intp), np.asarray(self.test, np.intp)
        n = len(self.enroll)
        if self.enroll.shape != (n,) or self.test.shape != (n,) or n and (
                min(self.enroll.min(), self.test.min()) < 0 or self.enroll.max() >= len(self.enroll_ids)
                or self.test.max() >= len(self.test_ids)):
            raise ContractError("trial codes must be two 1-D arrays of one length that index the id lists")
        pair = np.sort(self.enroll * len(self.test_ids) + self.test)
        if (pair[1:] == pair[:-1]).any():
            raise ContractError("duplicate (enroll, test) pair")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=bool)
            if self.labels.shape != (n,):
                raise ContractError("labels must align one-to-one with pairs")

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, str]], labels=None) -> TrialList:
        """The trial list of (enroll, test) id pairs, in order."""
        return cls(*sorted_codes([e for e, _ in pairs]), *sorted_codes([t for _, t in pairs]), labels)

    @property
    def pairs(self) -> list[tuple[str, str]]:
        """The (enroll, test) ids of every trial, built on each call."""
        e_ids, t_ids = self.enroll_ids, self.test_ids
        return [(e_ids[e], t_ids[t]) for e, t in zip(self.enroll.tolist(), self.test.tolist())]

    def __len__(self) -> int:
        return len(self.enroll)


def _byte_codes(col: np.ndarray) -> tuple[list[str], np.ndarray]:
    """sorted_codes of the ASCII ids in the rows of a byte_fields matrix."""
    rows, width = col.shape
    if width <= 8:  # as big-endian u64, which sort as the ids do and much faster than bytes
        keys = np.zeros((rows, 8), np.uint8)
        keys[:, :width] = col
        distinct, codes = np.unique(keys.view(">u8").ravel().astype(np.uint64), return_inverse=True)
        distinct = distinct.astype(">u8").view("S8")
    else:
        distinct, codes = np.unique(col.view(f"S{width}").ravel(), return_inverse=True)
    return distinct.astype(str).tolist(), codes


def _same_codes(col: np.ndarray, ids: list[str], codes: np.ndarray) -> bool:
    col_ids, col_codes = _byte_codes(col)
    return col_ids == ids and np.array_equal(col_codes, codes)


def _byte_labels(col: np.ndarray) -> np.ndarray | None:
    """True for `target` and False for `nontarget` in any case, per row of a byte_fields
    matrix; None if a row holds another label."""
    lower = np.where((col >= ord("A")) & (col <= ord("Z")), col | 0x20, col)
    words = lower.view(f"S{col.shape[1]}").ravel()
    target = words == b"target"
    return target if (target | (words == b"nontarget")).all() else None


def parse_trials(path) -> TrialList:
    """Parse whitespace-separated `enroll test [label]` lines.

    `#` starts a comment; labels are matched case-insensitively against
    target/nontarget and must be present on all lines or none.
    """
    path = read_once(path)
    cols = byte_fields(path, (2, 3), None)
    if cols:
        target = _byte_labels(cols[2]) if len(cols) == 3 else None
        if len(cols) == 2 or target is not None:
            with suppress(ContractError):  # a repeated pair: the loop below names its line
                return TrialList(*_byte_codes(cols[0]), *_byte_codes(cols[1]), target)
    pairs: list[tuple[str, str]] = []
    labels: list[bool] = []
    seen: set[tuple[str, str]] = set()
    labeled: bool | None = None
    for ln, fields in records(path, "'enroll test [label]'", fields=(2, 3),
                              sep=None, comment=True):
        pair = (fields[0], fields[1])
        if pair in seen:
            raise FormatError(f"{path}:{ln}: duplicate pair {pair[0]} {pair[1]}")
        seen.add(pair)
        has_label = len(fields) == 3
        if labeled is None:
            labeled = has_label
        elif labeled != has_label:
            raise FormatError(f"{path}:{ln}: mixed labeled and unlabeled lines")
        if has_label:
            key = fields[2].lower()
            if key not in _LABELS:
                raise FormatError(f"{path}:{ln}: unknown label {fields[2]!r}")
            labels.append(_LABELS[key])
        pairs.append(pair)
    return TrialList.from_pairs(pairs, np.asarray(labels, dtype=bool) if labeled else None)


def build_enrollment(
    enroll: EmbeddingSet, member_map: Mapping[str, Sequence[str]] | None = None
) -> EmbeddingSet:
    """Aggregate segment embeddings into a set of unit-norm model vectors.

    `member_map` maps model_id -> member segment ids in `enroll`; without
    one, each segment is its own model.  Each member is length-normalized,
    members are averaged, and the average is normalized again; a zero
    average (e.g. antipodal members) is an error.
    """
    if member_map is None:
        member_map = {i: [i] for i in enroll.ids}
    if not member_map:
        raise ContractError("no enrollment models")
    members = {model_id: enroll.rows(ids) for model_id, ids in member_map.items()}
    vectors = []
    for model_id, rows in members.items():
        if len(rows) == 0:
            raise ContractError(f"model {model_id!r} has no member segments")
        units = []
        for v in enroll.vectors[rows].astype(np.float64):
            n = np.linalg.norm(v)
            if n == 0:
                raise ContractError(f"model {model_id!r} has a zero-norm member")
            units.append(v / n)
        mean = np.mean(units, axis=0)
        n = np.linalg.norm(mean)
        if n == 0:
            raise ContractError(f"model {model_id!r}: member mean is the zero vector")
        vectors.append(mean / n)
    return EmbeddingSet(list(members), np.stack(vectors).astype(np.float32))


def parse_enroll_map(path) -> dict[str, list[str]]:
    """Parse `model seg1 seg2 ...` lines (one model per line)."""
    out: dict[str, list[str]] = {}
    for ln, fields in records(path, "'model seg1 [seg2 ...]'", fields=(2, None),
                              sep=None, comment=True):
        if fields[0] in out:
            raise FormatError(f"{path}:{ln}: duplicate model {fields[0]!r}")
        out[fields[0]] = fields[1:]
    return out


def _row_norms(x: np.ndarray, block_size: int) -> np.ndarray:
    """float64 norm of every row, casting at most block_size rows at a time."""
    out = np.empty(len(x))
    for lo in range(0, len(x), block_size):
        rows = x[lo : lo + block_size].astype(np.float64)
        out[lo : lo + block_size] = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    return out


def _trial_rows(s: EmbeddingSet, ids: list[str], codes: np.ndarray, what: str) -> np.ndarray:
    """Row in `s` of each trial's id, looking up each distinct id once; of the unknown ids,
    the error names the one that comes first in trial order."""
    try:
        return s.rows(ids, what)[codes]
    except ContractError:
        s.rows((ids[c] for c in codes.tolist()), what)  # raises at the first unknown in trial order
        raise


def score_trials(models: EmbeddingSet, tests: EmbeddingSet, trials: TrialList) -> np.ndarray:
    """Cosine score per trial, aligned with the trial list order.

    Deterministic: repeated runs and any block size produce bitwise-identical
    scores.  A block holds ``max(1, SCORE_BLOCK // dim)`` rows.
    """
    block_size = max(1, SCORE_BLOCK // max(models.dim, 1))
    if models.dim != tests.dim:
        raise ContractError(f"enrollment dimension {models.dim} != test dimension {tests.dim}")
    n = len(trials)
    scores = np.empty(n)
    e_rows = _trial_rows(models, trials.enroll_ids, trials.enroll, "enrollment id")
    t_rows = _trial_rows(tests, trials.test_ids, trials.test, "test id")
    na = _row_norms(models.vectors, block_size)
    nb = _row_norms(tests.vectors, block_size)
    for lo in range(0, n, block_size):
        e, t = e_rows[lo : lo + block_size], t_rows[lo : lo + block_size]
        norms = na[e] * nb[t]
        if not norms.all():
            raise ContractError("cannot score a zero vector")
        a, b = models.vectors[e].astype(np.float64), tests.vectors[t].astype(np.float64)
        scores[lo : lo + block_size] = np.einsum("ij,ij->i", a, b) / norms
    return scores


def write_scores(trials: TrialList, scores: np.ndarray, path) -> None:
    """Score TSV: `enroll<TAB>test<TAB>score` with 6 decimal digits."""
    scores = np.asarray(scores)
    if scores.shape != (len(trials),):
        raise ContractError(f"scores of shape {scores.shape} for {len(trials)} trials")
    e_ids, t_ids = np.array(trials.enroll_ids, object), np.array(trials.test_ids, object)
    blocks = (slice(lo, lo + WRITE_BLOCK) for lo in range(0, len(trials), WRITE_BLOCK))
    write_text(path, ("%s\t%s\t%.6f\n" % line for b in blocks
                      for line in zip(e_ids[trials.enroll[b]].tolist(), t_ids[trials.test[b]].tolist(),
                                      scores[b].tolist())))


def read_scores(path, trials: TrialList) -> np.ndarray:
    """float64 score of each trial, in trial order, from a score TSV whose lines may come in any
    order and may hold other pairs, which are ignored; an error names the first bad line."""
    path = read_once(path)
    cols = byte_fields(path, (3, 3), "\t")
    if (cols and len(cols[0]) == len(trials) and _same_codes(cols[0], trials.enroll_ids, trials.enroll)
            and _same_codes(cols[1], trials.test_ids, trials.test) and not (cols[2] == ord("_")).any()):
        with suppress(ValueError):  # not a number: the table below names its line
            out = cols[2].view(f"S{cols[2].shape[1]}").ravel().astype(np.float64)  # as float() reads it
            if np.isfinite(out).all():
                return out
    by_pair: dict[tuple[str, str], float] = {}
    for ln, (e, t, value) in records(path, "'enroll<TAB>test<TAB>score'", fields=(3, 3)):
        try:
            score = float(plain_number(value))
        except ValueError:
            raise FormatError(f"{path}:{ln}: bad score {value!r}") from None
        if (e, t) in by_pair:
            raise FormatError(f"{path}:{ln}: duplicate pair {e} {t}")
        if not math.isfinite(score):
            raise FormatError(f"{path}:{ln}: non-finite score {value!r}")
        by_pair[e, t] = score
    pairs = trials.pairs
    if missing := next((pair for pair in pairs if pair not in by_pair), None):
        raise ContractError(f"no score for trial {missing[0]} {missing[1]}")
    return np.fromiter((by_pair[pair] for pair in pairs), float, len(pairs))
