"""Deterministic channel-simulation planning.

Assigns a telephone-codec flag to an exact fraction of utterances, records
the sampling-rate chain and speed factor per utterance, and renders the
plan as a manifest of external sox command lines.  The codec itself is
delegated to sox; only the planning and command templates live here.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError

CHAIN_KEEP16K = "keep16k"
CHAIN_DOWN8K = "down8k"
CHAIN_DOWN8K_UP16K = "down8k-up16k"
CHAINS = (CHAIN_KEEP16K, CHAIN_DOWN8K, CHAIN_DOWN8K_UP16K)

SPEED_FACTORS = (0.9, 1.0, 1.1)


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    path: str
    duration_s: float
    sample_rate: int


@dataclass
class UtteranceManifest:
    utterances: list[Utterance]

    def __post_init__(self):
        ids = [u.utt_id for u in self.utterances]
        if len(set(ids)) != len(ids):
            raise ContractError("duplicate utterance id in manifest")
        for u in self.utterances:
            if u.duration_s <= 0:
                raise ContractError(f"{u.utt_id}: duration must be positive")

    @property
    def ids(self) -> list[str]:
        return [u.utt_id for u in self.utterances]

    def __len__(self) -> int:
        return len(self.utterances)


def read_manifest(path) -> UtteranceManifest:
    """TSV manifest: `utt_id<TAB>path<TAB>duration_s<TAB>sample_rate`."""
    utts = []
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise FormatError(f"{path}:{ln}: expected 4 tab-separated fields")
            try:
                utts.append(
                    Utterance(fields[0], fields[1], float(fields[2]), int(fields[3]))
                )
            except ValueError:
                raise FormatError(f"{path}:{ln}: bad duration or sample rate") from None
    return UtteranceManifest(utts)


def write_manifest(manifest: UtteranceManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for u in manifest.utterances:
            f.write(f"{u.utt_id}\t{u.path}\t{u.duration_s:g}\t{u.sample_rate}\n")


@dataclass(frozen=True)
class PlanEntry:
    utt_id: str
    codec: str = "none"  # "gsm" | "none"
    chain: str = CHAIN_KEEP16K
    speed: float = 1.0


@dataclass
class AugmentPlan:
    """One entry per manifest utterance, in manifest order."""

    manifest: UtteranceManifest
    entries: list[PlanEntry]

    def __post_init__(self):
        if [e.utt_id for e in self.entries] != self.manifest.ids:
            raise ContractError("plan entries do not match manifest ids")
        for e in self.entries:
            if e.codec not in ("gsm", "none"):
                raise ContractError(f"{e.utt_id}: unknown codec {e.codec!r}")
            if e.chain not in CHAINS:
                raise ContractError(f"{e.utt_id}: unknown chain {e.chain!r}")
            if e.speed <= 0:
                raise ContractError(f"{e.utt_id}: speed factor must be positive")

    def entry(self, utt_id: str) -> PlanEntry:
        for e in self.entries:
            if e.utt_id == utt_id:
                return e
        raise ContractError(f"unknown utterance {utt_id!r}")


def exact_fraction_count(fraction: float, n: int) -> int:
    """round(fraction * n) with half-up rounding, the planning contract."""
    return int(np.floor(fraction * n + 0.5))


def assign_codec(manifest: UtteranceManifest, fraction: float, seed: int) -> AugmentPlan:
    """Flag exactly round(fraction * N) utterances for the codec.

    Selection is a seeded shuffle of the manifest ids with the first
    round(fraction * N) taken, so the count is exact for every N and seed.
    """
    if not 0 <= fraction <= 1:
        raise ContractError(f"fraction must be in [0, 1], got {fraction}")
    n = len(manifest)
    k = exact_fraction_count(fraction, n)
    order = np.random.default_rng(seed).permutation(n)
    ids = manifest.ids  # a property that builds a new list on every access
    flagged = {ids[i] for i in order[:k]}
    entries = [PlanEntry(u, codec="gsm" if u in flagged else "none") for u in ids]
    return AugmentPlan(manifest, entries)


def plan_rate_chain(plan: AugmentPlan, mode: str) -> AugmentPlan:
    """Record the sampling-rate chain for every utterance."""
    if mode not in CHAINS:
        raise ContractError(f"unknown chain mode {mode!r}")
    return AugmentPlan(plan.manifest, [replace(e, chain=mode) for e in plan.entries])


def assign_speed(plan: AugmentPlan, perturb: bool, seed: int) -> AugmentPlan:
    """Assign speed factors: all 1.0 when off, else seeded uniform choice."""
    if not perturb:
        entries = [replace(e, speed=1.0) for e in plan.entries]
    else:
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, len(SPEED_FACTORS), size=len(plan.entries))
        entries = [
            replace(e, speed=SPEED_FACTORS[p]) for e, p in zip(plan.entries, picks)
        ]
    return AugmentPlan(plan.manifest, entries)


def _speed_suffix(speed: float) -> str:
    return "" if speed == 1.0 else f" speed {speed:g}"


def render_commands(plan: AugmentPlan, out_dir: str) -> list[str]:
    """One shell line per utterance implementing its planned transformation.

    The codec step always happens at 8 kHz; flagging the codec on a
    keep16k chain is therefore a contract error.
    """
    lines = []
    for utt, entry in zip(plan.manifest.utterances, plan.entries):
        src = shlex.quote(utt.path)
        dst = shlex.quote(f"{out_dir}/{entry.utt_id}.wav")
        tmp_gsm = shlex.quote(f"{out_dir}/{entry.utt_id}.gsm")
        tmp_8k = shlex.quote(f"{out_dir}/{entry.utt_id}.8k.wav")
        sp = _speed_suffix(entry.speed)
        if entry.chain == CHAIN_KEEP16K:
            if entry.codec == "gsm":
                raise ContractError(
                    f"{entry.utt_id}: codec requires an 8 kHz chain, not {CHAIN_KEEP16K}"
                )
            if entry.speed == 1.0:
                lines.append(f"cp {src} {dst}")
            else:
                lines.append(f"sox {src} {dst}{sp}")
        elif entry.chain == CHAIN_DOWN8K:
            if entry.codec == "gsm":
                lines.append(
                    f"sox {src} -r 8000 -t gsm {tmp_gsm}{sp} && "
                    f"sox {tmp_gsm} -t wav -e signed -b 16 {dst}"
                )
            else:
                lines.append(f"sox {src} -r 8000 {dst}{sp}")
        else:  # down8k-up16k: codec (when flagged) happens at 8 kHz, then upsample
            if entry.codec == "gsm":
                lines.append(
                    f"sox {src} -r 8000 -t gsm {tmp_gsm}{sp} && "
                    f"sox {tmp_gsm} -t wav -e signed -b 16 -r 16000 {dst}"
                )
            else:
                lines.append(
                    f"sox {src} -r 8000 {tmp_8k}{sp} && sox {tmp_8k} -r 16000 {dst}"
                )
    return lines


def emit_commands(plan: AugmentPlan, out_dir) -> Path:
    """Write the command manifest to `<out_dir>/commands.txt`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "commands.txt"
    lines = render_commands(plan, str(out))
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")
    return path


def write_plan(plan: AugmentPlan, path) -> None:
    """Plan TSV: `utt_id<TAB>codec<TAB>chain<TAB>speed`."""
    with open(path, "w", encoding="utf-8") as f:
        for e in plan.entries:
            f.write(f"{e.utt_id}\t{e.codec}\t{e.chain}\t{e.speed:g}\n")


def read_plan(path, manifest: UtteranceManifest) -> AugmentPlan:
    entries = []
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise FormatError(f"{path}:{ln}: expected 4 tab-separated fields")
            try:
                speed = float(fields[3])
            except ValueError:
                raise FormatError(f"{path}:{ln}: bad speed factor") from None
            entries.append(PlanEntry(fields[0], fields[1], fields[2], speed))
    return AugmentPlan(manifest, entries)
