"""Deterministic channel-simulation planning.

Assigns a telephone-codec flag to an exact fraction of utterances, records
the sampling-rate chain and speed factor per utterance, and renders the
plan as a manifest of external sox command lines.  The codec itself is
delegated to sox; only the planning and command templates live here.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .chains import CHAIN_DOWN8K, CHAIN_DOWN8K_UP16K, CHAIN_KEEP16K, CHAINS
from .errors import ContractError, FormatError
from .store import plain_number, record_errors, records, write_text

SPEED_FACTORS = (0.9, 1.0, 1.1)


@dataclass(frozen=True, slots=True)
class Utterance:
    utt_id: str
    path: str
    duration_s: float
    sample_rate: int


@dataclass
class UtteranceManifest:
    utterances: list[Utterance]

    def __post_init__(self):
        ids = self.ids
        if len(set(ids)) != len(ids):
            seen = set()
            dup = next(i for i in ids if i in seen or seen.add(i))
            raise ContractError(f"duplicate utterance id {dup!r}")
        for u in self.utterances:
            # render_commands writes <out_dir>/<id>.wav: an id must not leave out_dir
            if u.utt_id in ("", ".", "..") or "/" in u.utt_id or "\0" in u.utt_id:
                raise ContractError(f"utterance id {u.utt_id!r} is not a plain file name")
            # its longest name, <id>.8k.wav, must fit the 255 bytes of every common file system
            if len(u.utt_id.encode()) > 248:
                raise ContractError(f"utterance id {u.utt_id[:16]!r}... is longer than 248 UTF-8 bytes")
            if len(u.path.encode()) >= 4096:  # Linux opens no path of PATH_MAX bytes or more
                raise ContractError(f"{u.utt_id}: path is longer than 4095 UTF-8 bytes")
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
            plain_number(fields[2] + "," + fields[3])  # one check per row; "," passes
            utts.append(Utterance(fields[0], fields[1], float(fields[2]), int(fields[3])))
        except ValueError:
            raise FormatError(f"{path}:{ln}: bad duration or sample rate") from None
    with record_errors(path):  # a duplicate id, or a bad duration or rate
        return UtteranceManifest(utts)


def write_manifest(manifest: UtteranceManifest, path) -> None:
    write_text(path, (f"{u.utt_id}\t{u.path}\t{u.duration_s:g}\t{u.sample_rate}\n"
                      for u in manifest.utterances))


@dataclass(frozen=True, slots=True)
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
            if e.codec == "gsm" and e.chain == CHAIN_KEEP16K:  # the codec runs at 8 kHz
                raise ContractError(f"{e.utt_id}: codec requires an 8 kHz chain, not {CHAIN_KEEP16K}")
            if not 0 < e.speed < np.inf:  # NaN fails both
                raise ContractError(f"{e.utt_id}: speed factor must be finite and positive")


def exact_fraction_count(fraction: float, n: int) -> int:
    """round(fraction * n) with half-up rounding, the planning contract."""
    return int(np.floor(fraction * n + 0.5))


def assign_codec(n: int, fraction: float, seed: int) -> np.ndarray:
    """Codec mask: the first round(fraction * n) positions of a seeded
    permutation, so the count is exact for every n and seed."""
    if not 0 <= fraction <= 1:
        raise ContractError(f"fraction must be in [0, 1], got {fraction}")
    flagged = np.zeros(n, dtype=bool)
    flagged[np.random.default_rng(seed).permutation(n)[:exact_fraction_count(fraction, n)]] = True
    return flagged


def plan_rate_chain(mode: str) -> str:
    """The sampling-rate chain of every utterance, checked."""
    if mode not in CHAINS:
        raise ContractError(f"unknown chain mode {mode!r}")
    return mode


def assign_speed(n: int, perturb: bool, seed: int) -> list[float]:
    """Speed factors: all 1.0 when off, else seeded uniform choice."""
    if not perturb:
        return [1.0] * n
    picks = np.random.default_rng(seed).integers(0, len(SPEED_FACTORS), size=n)
    return [SPEED_FACTORS[p] for p in picks.tolist()]


def plan_augmentation(manifest: UtteranceManifest, fraction: float, mode: str, seed: int,
                      speed_perturb: bool = False, speed_seed: int | None = None) -> AugmentPlan:
    """Codec flag, rate chain and speed of every utterance; speed_seed defaults to seed + 1."""
    flagged = assign_codec(len(manifest), fraction, seed)
    chain = plan_rate_chain(mode)
    speeds = assign_speed(len(manifest), speed_perturb, seed + 1 if speed_seed is None else speed_seed)
    entries = [PlanEntry(u.utt_id, "gsm" if gsm else "none", chain, speed)
               for u, gsm, speed in zip(manifest.utterances, flagged.tolist(), speeds)]
    return AugmentPlan(manifest, entries)


def render_commands(plan: AugmentPlan, out_dir: str) -> Iterator[str]:
    """One shell line per utterance implementing its planned transformation,
    each rendered as it is asked for.

    Every chain but keep16k goes to 8 kHz first, into GSM when flagged.
    """
    return (_command(utt, entry, out_dir) for utt, entry in zip(plan.manifest.utterances, plan.entries))


def _command(utt: Utterance, entry: PlanEntry, out_dir: str) -> str:
    src = shlex.quote(utt.path)
    dst = shlex.quote(f"{out_dir}/{entry.utt_id}.wav")
    speed = "" if entry.speed == 1.0 else f" speed {entry.speed:g}"
    gsm = entry.codec == "gsm"
    if entry.chain == CHAIN_KEEP16K:
        return f"sox {src} {dst}{speed}" if speed else f"cp {src} {dst}"
    decode = " -t wav -e signed -b 16" if gsm else ""
    upsample = " -r 16000" if entry.chain == CHAIN_DOWN8K_UP16K else ""
    if not (decode or upsample):
        return f"sox {src} -r 8000 {dst}{speed}"
    # decode and/or upsample the 8 kHz file in a second step, in one string: no partial copies
    tmp = shlex.quote(f"{out_dir}/{entry.utt_id}.{'gsm' if gsm else '8k.wav'}")
    return (f"sox {src} -r 8000{' -t gsm' if gsm else ''} {tmp}{speed} "
            f"&& sox {tmp}{decode}{upsample} {dst}")


def emit_commands(plan: AugmentPlan, out_dir) -> Path:
    """Write the command manifest to `<out_dir>/commands.txt`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "commands.txt"
    # each line as it is rendered, then its newline: no list of lines, and no copy of a long line
    write_text(path, (s for line in render_commands(plan, str(out)) for s in (line, "\n")))
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
