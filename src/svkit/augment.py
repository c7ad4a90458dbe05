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

from .chains import CHAIN_DOWN8K, CHAIN_DOWN8K_UP16K, CHAIN_KEEP16K, CHAINS
from .errors import ContractError, FormatError
from .store import plain_number, record_errors, records, write_text

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
            # render_commands writes <out_dir>/<id>.wav: an id must not leave out_dir
            if u.utt_id in ("", ".", "..") or "/" in u.utt_id or "\0" in u.utt_id:
                raise ContractError(f"utterance id {u.utt_id!r} is not a plain file name")
            if not 0 < u.duration_s < np.inf:  # NaN fails both
                raise ContractError(f"{u.utt_id}: duration must be finite and positive")
            if u.sample_rate <= 0:
                raise ContractError(f"{u.utt_id}: sample rate must be positive")

    @property
    def ids(self) -> list[str]:
        return [u.utt_id for u in self.utterances]

    def __len__(self) -> int:
        return len(self.utterances)


def read_manifest(path) -> UtteranceManifest:
    """TSV manifest: `utt_id<TAB>path<TAB>duration_s<TAB>sample_rate`."""
    utts = []
    for ln, fields in records(path, "4 tab-separated fields", fields=(4, 4)):
        try:
            utts.append(
                Utterance(fields[0], fields[1], float(plain_number(fields[2])),
                          int(plain_number(fields[3])))
            )
        except ValueError:
            raise FormatError(f"{path}:{ln}: bad duration or sample rate") from None
    with record_errors(path):  # a duplicate id, or a bad duration or rate
        return UtteranceManifest(utts)


def write_manifest(manifest: UtteranceManifest, path) -> None:
    write_text(path, (f"{u.utt_id}\t{u.path}\t{u.duration_s:g}\t{u.sample_rate}\n"
                      for u in manifest.utterances))


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
            if not 0 < e.speed < np.inf:  # NaN fails both
                raise ContractError(f"{e.utt_id}: speed factor must be finite and positive")


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


def render_commands(plan: AugmentPlan, out_dir: str) -> list[str]:
    """One shell line per utterance implementing its planned transformation.

    Every chain but keep16k goes to 8 kHz first, into GSM when flagged, so
    flagging the codec on a keep16k chain is a contract error.
    """
    lines = []
    for utt, entry in zip(plan.manifest.utterances, plan.entries):
        src = shlex.quote(utt.path)
        dst = shlex.quote(f"{out_dir}/{entry.utt_id}.wav")
        speed = "" if entry.speed == 1.0 else f" speed {entry.speed:g}"
        gsm = entry.codec == "gsm"
        if entry.chain == CHAIN_KEEP16K:
            if gsm:
                raise ContractError(
                    f"{entry.utt_id}: codec requires an 8 kHz chain, not {CHAIN_KEEP16K}"
                )
            lines.append(f"sox {src} {dst}{speed}" if speed else f"cp {src} {dst}")
            continue
        decode = " -t wav -e signed -b 16" if gsm else ""
        upsample = " -r 16000" if entry.chain == CHAIN_DOWN8K_UP16K else ""
        tmp, second = dst, ""
        if decode or upsample:  # decode and/or upsample the 8 kHz file in a second step
            tmp = shlex.quote(f"{out_dir}/{entry.utt_id}.{'gsm' if gsm else '8k.wav'}")
            second = f" && sox {tmp}{decode}{upsample} {dst}"
        lines.append(f"sox {src} -r 8000{' -t gsm' if gsm else ''} {tmp}{speed}{second}")
    return lines


def emit_commands(plan: AugmentPlan, out_dir) -> Path:
    """Write the command manifest to `<out_dir>/commands.txt`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "commands.txt"
    lines = render_commands(plan, str(out))  # a plan it cannot render creates no file
    write_text(path, (line + "\n" for line in lines))
    return path


def write_plan(plan: AugmentPlan, path) -> None:
    """Plan TSV: `utt_id<TAB>codec<TAB>chain<TAB>speed`."""
    write_text(path, (f"{e.utt_id}\t{e.codec}\t{e.chain}\t{e.speed:g}\n" for e in plan.entries))


def read_plan(path, manifest: UtteranceManifest) -> AugmentPlan:
    entries = []
    for ln, fields in records(path, "4 tab-separated fields", fields=(4, 4)):
        try:
            speed = float(plain_number(fields[3]))
        except ValueError:
            raise FormatError(f"{path}:{ln}: bad speed factor") from None
        entries.append(PlanEntry(fields[0], fields[1], fields[2], speed))
    with record_errors(path):  # entries that do not match the manifest, or a bad field
        return AugmentPlan(manifest, entries)
