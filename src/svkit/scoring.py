"""Trial parsing, enrollment models, batched deterministic cosine scoring, and score files.

Scoring runs on one thread over blocks of trials that cast at most SCORE_BLOCK values per
operand to float64, so a block stays in cache.  Each row's norm is computed once, and each
score is a pure function of its two rows, so block size never changes an output bit.
``workers`` is accepted for compatibility and ignored.  A score file is read against the
trial list: in one pass, with no per-pair table, when it holds the trials in order.
"""

from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import InitVar, dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError, FormatError
from .store import EmbeddingSet, plain_number, records, row_blocks, write_text

_LABELS = {"target": True, "nontarget": False}
SCORE_BLOCK = 1 << 15  # float64 values per operand per scoring block: 128 rows at 256-d


@dataclass
class TrialList:
    """Ordered (enroll, test) pairs, optionally labeled target/nontarget."""

    pairs: list[tuple[str, str]]
    labels: np.ndarray | None = None  # bool per pair, True = target
    unique: InitVar[bool] = False  # True: the caller has checked that no pair repeats

    def __post_init__(self, unique):
        if not unique and len(set(self.pairs)) != len(self.pairs):
            raise ContractError("duplicate (enroll, test) pair")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=bool)
            if self.labels.shape != (len(self.pairs),):
                raise ContractError("labels must align one-to-one with pairs")

    def __len__(self) -> int:
        return len(self.pairs)


def parse_trials(path) -> TrialList:
    """Parse whitespace-separated `enroll test [label]` lines.

    `#` starts a comment; labels are matched case-insensitively against
    target/nontarget and must be present on all lines or none.
    """
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
    return TrialList(pairs, np.asarray(labels, dtype=bool) if labeled else None, unique=True)


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


def score_trials(
    models: EmbeddingSet,
    tests: EmbeddingSet,
    trials: TrialList,
    workers: int = 1,
    block_size: int | None = None,
) -> np.ndarray:
    """Cosine score per trial, aligned with the trial list order.

    Deterministic: repeated runs and any block_size produce bitwise-identical
    scores.  block_size bounds the rows cast to float64 at once; None, the
    default, is ``max(1, SCORE_BLOCK // dim)``.  workers must be >= 1 and
    does not change anything.
    """
    if block_size is None:
        block_size = max(1, SCORE_BLOCK // max(models.dim, 1))
    if workers < 1 or block_size < 1:
        raise ContractError("workers and block_size must be >= 1")
    if models.dim != tests.dim:
        raise ContractError(f"enrollment dimension {models.dim} != test dimension {tests.dim}")
    n = len(trials)
    scores = np.empty(n)
    if n == 0:
        return scores
    e_rows = models.rows((e for e, _ in trials.pairs), "enrollment id")
    t_rows = tests.rows((t for _, t in trials.pairs), "test id")
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
    write_text(path, ("%s\t%s\t%.6f\n" % (e, t, s) for b in row_blocks(len(trials), 1)
                      for (e, t), s in zip(trials.pairs[b], scores[b].tolist())))


def read_scores(path, trials: TrialList) -> np.ndarray:
    """float64 score of each trial, in trial order, from a score TSV whose lines may come in any
    order and may hold other pairs, which are ignored; an error names the first bad line."""
    expect, pairs, values = "'enroll<TAB>test<TAB>score'", trials.pairs, []
    if os.path.isfile(path):  # the table below reads the file again, and a pipe reads only once
        lines = records(path, expect, fields=(3, 3))
        with suppress(ValueError):  # a FormatError from records, or a score that float() refuses
            for (e, t), (_, (fe, ft, value)) in zip(pairs, lines):
                if e != fe or t != ft:
                    break
                values.append(value)
            if len(values) == len(pairs) and next(lines, None) is None:
                plain_number(",".join(values))
                out = np.fromiter(map(float, values), float, len(values))
                if np.isfinite(out).all():
                    return out
    by_pair: dict[tuple[str, str], float] = {}
    for ln, (e, t, value) in records(path, expect, fields=(3, 3)):
        try:
            score = float(plain_number(value))
        except ValueError:
            raise FormatError(f"{path}:{ln}: bad score {value!r}") from None
        if (e, t) in by_pair:
            raise FormatError(f"{path}:{ln}: duplicate pair {e} {t}")
        if not math.isfinite(score):
            raise FormatError(f"{path}:{ln}: non-finite score {value!r}")
        by_pair[e, t] = score
    if missing := next((pair for pair in pairs if pair not in by_pair), None):
        raise ContractError(f"no score for trial {missing[0]} {missing[1]}")
    return np.fromiter((by_pair[pair] for pair in pairs), float, len(pairs))
