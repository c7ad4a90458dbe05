"""Detection metrics on labeled scores: ROC sweep, EER, normalized
min/actual DCF, their multi-operating-point average, and DCF curves over a
range of effective priors.

Decision rule throughout: accept iff score >= threshold (ties accept).
All metrics are rank statistics, invariant under strictly increasing
transforms of the scores.

One sweep per score set: the ROC sweep is the only step that sorts, and it
runs once per LabeledScores, which caches it.  EER, every minDCF, C_primary
and every DCF-curve point then cost one O(N) pass over that sweep.  The
minimum of a linear cost over the ROC depends only on the sweep, not on
the prior (Brümmer & du Preez, CSL 2006), so one sweep serves every
operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class LabeledScores:
    """Target and nontarget scores, immutable so that the ROC sweep can be
    cached: the constructor copies both arrays and makes them read-only."""

    target: np.ndarray
    nontarget: np.ndarray

    def __post_init__(self):
        for name in ("target", "nontarget"):
            values = np.array(getattr(self, name), dtype=np.float64).reshape(-1)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if len(self.target) == 0 or len(self.nontarget) == 0:
            raise ContractError("need at least one target and one nontarget score")
        if not (np.all(np.isfinite(self.target)) and np.all(np.isfinite(self.nontarget))):
            raise ContractError("non-finite scores")

    @cached_property
    def _roc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _sweep(self.target, self.nontarget)


@dataclass(frozen=True)
class OperatingPoint:
    p_target: float
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0 < self.p_target < 1:
            raise ContractError(f"p_target must be in (0, 1), got {self.p_target}")
        if not (0 < self.c_miss < math.inf and 0 < self.c_fa < math.inf):  # NaN fails too
            raise ContractError(f"costs must be finite and positive, got {self.c_miss}/{self.c_fa}")
        if self.norm == 0:  # a cost times its prior rounds off: no cost could be normalized
            raise ContractError(f"{self} has a best trivial cost of 0")

    @property
    def norm(self) -> float:
        """Cost of the best trivial system, accept all or reject all: the DCF normalizer."""
        return min(self.c_miss * self.p_target, self.c_fa * (1 - self.p_target))

    def cost(self, p_miss, p_fa):
        """Normalized DCF of error rates, scalars or arrays alike:
        (c_miss * p_target * P_miss + c_fa * (1 - p_target) * P_fa) / norm."""
        with np.errstate(over="ignore"):  # an overflow is no minimum: one end of the sweep costs 1
            return (self.c_miss * self.p_target * p_miss + self.c_fa * (1 - self.p_target) * p_fa) / self.norm

    @property
    def effective_logodds(self) -> float:
        """Log odds of the cost-folded effective prior (DCF-curve x-axis)."""
        p_eff = (
            self.p_target
            * self.c_miss
            / (self.p_target * self.c_miss + (1 - self.p_target) * self.c_fa)
        )
        if not 0 < p_eff < 1:  # costs so uneven that the folded prior rounds off
            raise ContractError(f"{self} has an effective prior of {p_eff:g}, not in (0, 1)")
        return float(np.log(p_eff / (1 - p_eff)))


def roc_points(scores: LabeledScores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Error-rate sweep over all distinct score values plus +-inf.

    Returns (p_fa, p_miss, thresholds) with thresholds ascending, so p_miss
    is non-decreasing and p_fa non-increasing.  The (1, 0) and (0, 1)
    endpoints are always present.  Computed on the first call for a score
    set and cached on it; the arrays are read-only.
    """
    return scores._roc


def _sweep(target: np.ndarray, nontarget: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tar = np.sort(target)
    non = np.sort(nontarget)
    thresholds = np.concatenate(
        [[-np.inf], np.unique(np.concatenate([tar, non])), [np.inf]]
    )
    # pure count ratios, bit-identical to direct comparison counting
    p_miss = np.searchsorted(tar, thresholds, side="left") / len(tar)
    p_fa = (len(non) - np.searchsorted(non, thresholds, side="left")) / len(non)
    for a in (p_fa, p_miss, thresholds):
        a.flags.writeable = False
    return p_fa, p_miss, thresholds


def eer(scores: LabeledScores) -> float:
    """Equal error rate: the P_miss = P_fa point on the ROC polyline.

    Linear interpolation between adjacent sweep points when the crossing
    falls between them.
    """
    p_fa, p_miss, _ = roc_points(scores)
    diff = p_miss - p_fa  # non-decreasing from -1 to 1
    i = int(np.flatnonzero(diff >= 0)[0])
    if diff[i] == 0:
        return float(p_miss[i])
    dm = p_miss[i] - p_miss[i - 1]
    df = p_fa[i] - p_fa[i - 1]
    t = (p_fa[i - 1] - p_miss[i - 1]) / (dm - df)
    return float(p_miss[i - 1] + t * dm)


def min_dcf(scores: LabeledScores, op: OperatingPoint) -> tuple[float, float]:
    """Minimum normalized detection cost (op.cost) over the pooled score
    sweep.  Ties break toward the smallest threshold.  Returns (value, threshold)."""
    p_fa, p_miss, thresholds = roc_points(scores)
    dcf = op.cost(p_miss, p_fa)
    i = int(np.argmin(dcf))  # first minimum = smallest threshold
    return float(dcf[i]), float(thresholds[i])


def act_dcf(scores: LabeledScores, op: OperatingPoint, threshold: float) -> float:
    """Normalized detection cost of the fixed decision threshold (not NaN)."""
    if np.isnan(threshold):
        raise ContractError("threshold must not be NaN")
    p_fa, p_miss, thresholds = roc_points(scores)
    i = int(np.searchsorted(thresholds, threshold, "left"))  # no score lies between two thresholds
    return float(op.cost(p_miss[i], p_fa[i]))


def c_primary(scores: LabeledScores, ops: list[OperatingPoint]) -> float:
    """Mean normalized minDCF over the configured operating points."""
    if not ops:
        raise ContractError("need at least one operating point")
    return float(np.mean([min_dcf(scores, op)[0] for op in ops]))


DEFAULT_OPERATING_POINTS = (OperatingPoint(0.01), OperatingPoint(0.005))


class DcfCurve(NamedTuple):
    """Normalized minDCF sampled over effective-prior log odds; each value is at
    most 1, since one end of the sweep costs exactly 1."""

    logodds: np.ndarray
    values: np.ndarray
    marked: list[tuple[float, float, OperatingPoint]]


def dcf_curve(
    scores: LabeledScores,
    logodds_lo: float,
    logodds_hi: float,
    n_points: int,
    marked_ops: list[OperatingPoint] | None = None,
) -> DcfCurve:
    """Sweep normalized minDCF over effective priors sigmoid(log odds).

    Each sample equals an independent min_dcf call at (p_eff, 1, 1), and
    all of them read the one cached sweep; marked operating points are
    evaluated at their cost-folded effective prior and carried alongside
    the curve.
    """
    if not logodds_lo < logodds_hi:
        raise ContractError("need logodds_lo < logodds_hi")
    if n_points < 2:
        raise ContractError("need at least two curve points")
    for end in (logodds_lo, logodds_hi):  # the prior is monotone in the log odds
        if not 0 < effective_prior(end) < 1:
            raise ContractError(f"log odds {end:g} give an effective prior of "
                                f"{effective_prior(end):g}, not in (0, 1)")
    grid = np.linspace(logodds_lo, logodds_hi, n_points)
    if np.any(np.diff(grid) <= 0):  # ends closer than n_points floats apart
        raise ContractError("log odds must be strictly increasing")
    values = np.array(
        [min_dcf(scores, OperatingPoint(effective_prior(x)))[0] for x in grid]
    )
    marked = []
    for op in marked_ops or []:
        lam = op.effective_logodds
        eff = OperatingPoint(effective_prior(lam))
        marked.append((lam, min_dcf(scores, eff)[0], op))
    return DcfCurve(grid, values, marked)


def effective_prior(logodds: float) -> float:
    """Inverse of the log-odds map: sigmoid, computed overflow-free."""
    if logodds >= 0:
        return float(1.0 / (1.0 + np.exp(-logodds)))
    z = np.exp(logodds)
    return float(z / (1.0 + z))
