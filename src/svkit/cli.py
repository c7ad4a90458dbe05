"""Command-line entry point.

Subcommands: features, pool, fit-backend, apply-backend, score, eval,
dcf-curve, augment-plan, schedule.  Options may also come from a sectioned
``key = value`` config file (one section per subcommand); command-line
flags take precedence and unknown config keys are errors.

Exit codes: 0 ok, 1 usage, 2 format, 3 contract, 4 I/O.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from . import audio, augment, backend, metrics, scoring, store
from .errors import ContractError, FormatError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_REQUIRED = object()

# handled error -> (exit code, message label); exit code 1 is UsageError
_EXITS = {FormatError: (2, "format error"), ContractError: (3, "error"), OSError: (4, "I/O error")}


def _exit_of(e: Exception) -> tuple[int, str]:
    return next(v for kind, v in _EXITS.items() if isinstance(e, kind))

# option registries: subcommand -> name -> (kind, default)
# kind is a callable type, "flag", or "list:<type>"
_REGISTRY: dict[str, dict[str, tuple]] = {}


def _opt(sub, registry, name, kind, default=None, help="", choices=None, metavar=None):
    registry[name] = (kind, default)
    if kind == "flag":
        sub.add_argument(f"--{name}", action=argparse.BooleanOptionalAction, default=None, help=help)
    elif isinstance(kind, str) and kind.startswith("list:"):
        typ = {"float": float, "str": str}[kind.split(":", 1)[1]]
        sub.add_argument(f"--{name}", action="append", type=typ, default=None, help=help, metavar=metavar)
    else:
        sub.add_argument(
            f"--{name}", type=kind, default=None, help=help, choices=choices, metavar=metavar
        )


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"cannot parse boolean config value {raw!r}")


def _resolve(args, command: str, config: dict[str, dict[str, str]]):
    registry = _REGISTRY[command]
    section = config.get(command, {})
    unknown = sorted(set(section) - set(registry))
    if unknown:
        raise UsageError(f"unknown config key in [{command}]: {unknown[0]}")
    for name, (kind, default) in registry.items():
        dest = name.replace("-", "_")
        val = getattr(args, dest)
        if val is None and name in section:
            raw = section[name]
            if kind == "flag":
                val = _parse_bool(raw)
            elif isinstance(kind, str) and kind.startswith("list:"):
                typ = {"float": float, "str": str}[kind.split(":", 1)[1]]
                val = [typ(v.strip()) for v in raw.split(",") if v.strip()]
            else:
                try:
                    val = kind(raw)
                except ValueError:
                    raise UsageError(f"bad config value for {name}: {raw!r}") from None
        if val is None:
            val = default
        if val is _REQUIRED:
            raise UsageError(f"missing required option --{name}")
        setattr(args, dest, val)


def _load_config(path) -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_file((line for _, line in store.text_lines(path)), source=str(path))
    except configparser.Error as e:
        raise FormatError(f"{path}: {e}") from None
    unknown = sorted(set(cp.sections()) - set(_REGISTRY))
    if unknown:
        raise UsageError(f"unknown config section [{unknown[0]}]")
    return {s: dict(cp.items(s)) for s in cp.sections()}


def _build_parser() -> _Parser:
    p = _Parser(prog="svkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", default=None, help="sectioned key = value config file")
    subs = p.add_subparsers(dest="command", metavar="COMMAND")

    s = subs.add_parser("features", help="extract log-Mel features (optionally VAD-filtered)")
    r = _REGISTRY["features"] = {}
    s.add_argument("inputs", nargs="+", help="wav files or directories")
    _opt(s, r, "out-dir", str, _REQUIRED, "output directory for feature files")
    _opt(s, r, "resample", int, None, "resample to this rate before extraction")
    _opt(s, r, "n-mels", int, 80)
    _opt(s, r, "frame-len", float, 25.0, "frame length, ms")
    _opt(s, r, "frame-shift", float, 10.0, "frame shift, ms")
    _opt(s, r, "preemphasis", float, 0.97)
    _opt(s, r, "low-freq", float, 20.0)
    _opt(s, r, "high-freq", float, None, "defaults to Nyquist")
    _opt(s, r, "log-floor", float, 1e-10)
    _opt(s, r, "dither", float, 0.0, "dither stddev; requires --seed when > 0")
    _opt(s, r, "seed", int, None)
    _opt(s, r, "vad", "flag", False, "drop non-speech frames")
    _opt(s, r, "vad-energy-threshold", float, 5.0)
    _opt(s, r, "vad-energy-mean-scale", float, 0.5)
    _opt(s, r, "vad-context", int, 5)
    _opt(s, r, "vad-proportion", float, 0.6)
    _opt(s, r, "text", "flag", False, "write TSV instead of binary matrices")

    s = subs.add_parser("pool", help="pool a frame matrix into a single vector")
    r = _REGISTRY["pool"] = {}
    s.add_argument("matrix", help="feature/frame matrix file (binary or TSV)")
    _opt(s, r, "method", str, _REQUIRED, "tstp | asp | xi | mhfa", choices=["tstp", "asp", "xi", "mhfa"])
    _opt(s, r, "seed", int, None, "seed for randomly drawn asp/mhfa parameters")
    _opt(s, r, "hidden-dim", int, 128, "asp attention hidden size")
    _opt(s, r, "heads", int, 64, "mhfa attention heads")
    _opt(s, r, "key-dim", int, 64, "mhfa key dimension")
    _opt(s, r, "embed-dim", int, 256, "mhfa output dimension")
    _opt(s, r, "precisions", str, None, "matrix of per-frame log precisions (xi)")
    _opt(s, r, "prior-log-precision", float, -60.0, "flat prior log precision (xi)")

    s = subs.add_parser("fit-backend", help="fit center/LDA/length-norm stages")
    r = _REGISTRY["fit-backend"] = {}
    _opt(s, r, "embeddings", str, _REQUIRED, "training embedding set (SVEB/TSV)")
    _opt(s, r, "labels", str, None, "sidecar TSV id<TAB>speaker (needed for LDA)")
    _opt(s, r, "out", str, _REQUIRED, "output pipeline file")
    _opt(s, r, "center", "flag", True)
    _opt(s, r, "lda", "flag", True)
    _opt(s, r, "lda-dim", int, None, "defaults to min(dim, classes - 1)")
    _opt(s, r, "length-norm", "flag", True)

    s = subs.add_parser("apply-backend", help="apply a fitted pipeline to embeddings")
    r = _REGISTRY["apply-backend"] = {}
    _opt(s, r, "pipeline", str, _REQUIRED)
    _opt(s, r, "embeddings", str, _REQUIRED)
    _opt(s, r, "out", str, _REQUIRED)
    _opt(s, r, "text", "flag", False, "write TSV instead of SVEB")

    s = subs.add_parser("score", help="cosine-score a trial list")
    r = _REGISTRY["score"] = {}
    _opt(s, r, "enroll", str, _REQUIRED, "enrollment embeddings")
    _opt(s, r, "test", str, _REQUIRED, "test embeddings")
    _opt(s, r, "trials", str, _REQUIRED)
    _opt(s, r, "out", str, _REQUIRED, "output score TSV")
    _opt(s, r, "enroll-map", str, None, "multi-segment models: `model seg1 seg2 ...` lines")
    _opt(s, r, "workers", int, 1)
    _opt(s, r, "block-size", int, 4096)

    s = subs.add_parser("eval", help="EER / minDCF / averaged-cost report")
    r = _REGISTRY["eval"] = {}
    _opt(s, r, "scores", str, _REQUIRED, "score TSV from `score`")
    _opt(s, r, "trials", str, _REQUIRED, "labeled trial list")
    _opt(s, r, "p-target", "list:float", None, "operating-point prior (repeatable)")
    _opt(s, r, "c-miss", float, 1.0)
    _opt(s, r, "c-fa", float, 1.0)
    _opt(s, r, "csv", str, None, "also write a CSV report here")

    s = subs.add_parser("dcf-curve", help="minDCF over a range of effective priors")
    r = _REGISTRY["dcf-curve"] = {}
    _opt(s, r, "scores", str, _REQUIRED)
    _opt(s, r, "trials", str, _REQUIRED)
    _opt(s, r, "lo", float, -8.0, "lowest effective-prior log odds")
    _opt(s, r, "hi", float, 8.0, "highest effective-prior log odds")
    _opt(s, r, "points", int, 161)
    _opt(s, r, "mark", "list:str", None, "operating point p[:c_miss:c_fa] (repeatable)", metavar="P[:CM:CF]")
    _opt(s, r, "out", str, None, "output CSV (default stdout)")

    s = subs.add_parser("augment-plan", help="plan codec/rate-chain/speed augmentation")
    r = _REGISTRY["augment-plan"] = {}
    _opt(s, r, "manifest", str, _REQUIRED, "TSV utt_id<TAB>path<TAB>duration<TAB>rate")
    _opt(s, r, "out-dir", str, _REQUIRED)
    _opt(s, r, "fraction", float, 0.5, "fraction of utterances to codec-flag")
    _opt(s, r, "mode", str, augment.CHAIN_DOWN8K, "rate chain", choices=list(augment.CHAINS))
    _opt(s, r, "seed", int, _REQUIRED)
    _opt(s, r, "speed-perturb", "flag", False)
    _opt(s, r, "speed-seed", int, None, "defaults to seed + 1")

    s = subs.add_parser("schedule", help="dump the margin/learning-rate recipe as CSV")
    r = _REGISTRY["schedule"] = {}
    _opt(s, r, "dump", "flag", True)
    _opt(s, r, "out", str, None, "output CSV (default stdout)")
    _opt(s, r, "epochs", int, 150, "stage-1 epochs")
    _opt(s, r, "warmup-epochs", float, 6.0)
    _opt(s, r, "peak-lr", float, 0.1)
    _opt(s, r, "final-lr", float, 5e-5)
    _opt(s, r, "margin-start", float, 20.0)
    _opt(s, r, "margin-end", float, 40.0)
    _opt(s, r, "margin-final", float, 0.2)
    _opt(s, r, "segment-seconds", float, 2.0)
    _opt(s, r, "lmf-epochs", int, 10, "stage-2 epochs")
    _opt(s, r, "lmf-margin", float, 0.5)
    _opt(s, r, "lmf-segment-seconds", float, 10.0)
    return p


def _collect_wavs(inputs) -> list[Path]:
    files: list[Path] = []
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            files.extend(sorted(path.glob("*.wav")))
        else:
            files.append(path)
    return files


def cmd_features(args) -> int:
    wavs = _collect_wavs(args.inputs)
    if not wavs:
        raise UsageError("no input wav files")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fcfg = audio.FbankConfig(
        n_mels=args.n_mels,
        frame_len_ms=args.frame_len,
        frame_shift_ms=args.frame_shift,
        preemphasis=args.preemphasis,
        low_freq=args.low_freq,
        high_freq=args.high_freq,
        log_floor=args.log_floor,
        dither=args.dither,
    )
    vcfg = audio.VadConfig(
        energy_mean_scale=args.vad_energy_mean_scale,
        energy_threshold=args.vad_energy_threshold,
        context_frames=args.vad_context,
        proportion_threshold=args.vad_proportion,
        frame_len_ms=args.frame_len,
        frame_shift_ms=args.frame_shift,
    )
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    if args.dither > 0 and rng is None:
        raise UsageError("--dither > 0 requires --seed")
    first_fail = 0
    seen_names: set[str] = set()
    for wav in wavs:
        try:
            name = wav.stem
            if name in seen_names:
                raise ContractError(f"duplicate output name {name!r}")
            seen_names.add(name)
            buf = audio.read_wav(wav)
            if args.resample is not None:
                buf = audio.resample(buf, args.resample)
            feats = audio.log_mel_fbank(buf, fcfg, rng)
            if args.vad:
                feats = audio.apply_vad(feats, audio.energy_vad(buf, vcfg))
            if args.text:
                store.write_matrix_tsv(feats.values, out_dir / f"{name}.tsv")
            else:
                store.write_matrix(feats.values, out_dir / f"{name}.feats")
        except tuple(_EXITS) as e:
            print(f"svkit: {wav}: {e}", file=sys.stderr)
            if first_fail == 0:
                first_fail = _exit_of(e)[0]
    return first_fail


def cmd_pool(args) -> int:
    from . import pooling  # about 10 ms of imports that no other command needs

    x = store.read_matrix(args.matrix)
    if args.method == "tstp":
        vec = pooling.tstp(x)
    elif args.method == "asp":
        if args.seed is None:
            raise UsageError("--method asp requires --seed")
        params = pooling.AspParams.random(x.shape[1], args.hidden_dim, np.random.default_rng(args.seed))
        vec = pooling.asp(x, params)
    elif args.method == "xi":
        if args.precisions is not None:
            log_prec = store.read_matrix(args.precisions)
        else:
            log_prec = np.zeros_like(x)
        stats = pooling.XiFrameStats(x, log_prec)
        prior = pooling.XiPrior.flat(x.shape[1], args.prior_log_precision)
        vec, _ = pooling.xi_pool(stats, prior)
    else:  # mhfa over a single-layer stack
        if args.seed is None:
            raise UsageError("--method mhfa requires --seed")
        params = pooling.MhfaParams.random(
            1, x.shape[1], np.random.default_rng(args.seed),
            num_heads=args.heads, key_dim=args.key_dim, embed_dim=args.embed_dim,
        )
        vec = pooling.mhfa(x[None, :, :], params)
    print("\t".join(f"{v:.9g}" for v in vec))
    return 0


def _load_labeled(path, labels_path):
    s = store.read_embeddings(path)
    if labels_path is not None:
        return store.EmbeddingSet(s.ids, s.vectors, store.read_labels(labels_path))
    return s


def cmd_fit_backend(args) -> int:
    s = _load_labeled(args.embeddings, args.labels)
    center = backend.fit_center(s) if args.center else None
    lda = None
    if args.lda:
        sc = s
        if center is not None:
            sc = backend.apply_pipeline(backend.Pipeline(center=center), s)
        lda = backend.fit_lda(sc, args.lda_dim)
    pipe = backend.Pipeline(center=center, lda=lda, length_norm=args.length_norm)
    backend.save_pipeline(pipe, args.out)
    stages = [
        name
        for name, on in (("center", center), ("lda", lda), ("length-norm", args.length_norm))
        if on
    ]
    print(f"fitted pipeline [{' -> '.join(stages) if stages else 'identity'}] on {len(s)} embeddings -> {args.out}")
    return 0


def cmd_apply_backend(args) -> int:
    pipe = backend.load_pipeline(args.pipeline)
    s = store.read_embeddings(args.embeddings)
    out = backend.apply_pipeline(pipe, s)
    if args.text:
        store.write_embeddings_tsv(out, args.out)
    else:
        store.write_embeddings(out, args.out)
    print(f"applied pipeline to {len(out)} embeddings -> {args.out}")
    return 0


def cmd_score(args) -> int:
    enroll = store.read_embeddings(args.enroll)
    tests = store.read_embeddings(args.test)
    trials = scoring.parse_trials(args.trials)
    if args.enroll_map is not None:
        member_map = scoring.parse_enroll_map(args.enroll_map)
        segments = {m: [enroll.vector(i) for i in ids] for m, ids in member_map.items()}
    else:
        segments = {i: [enroll.vector(i)] for i in enroll.ids}
    models = scoring.models_to_set(scoring.build_enrollment(segments))
    scores = scoring.score_trials(
        models, tests, trials, workers=args.workers, block_size=args.block_size
    )
    scoring.write_scores(trials, scores, args.out)
    print(f"scored {len(trials)} trials -> {args.out}")
    return 0


def _labeled_scores(scores_path, trials_path):
    trials = scoring.parse_trials(trials_path)
    if trials.labels is None:
        raise ContractError(f"{trials_path}: trial list has no target/nontarget labels")
    by_pair = scoring.read_scores(scores_path)
    if list(by_pair) == trials.pairs:  # `score` writes in trial order
        values = np.fromiter(by_pair.values(), float, len(trials))
    else:
        values = np.empty(len(trials))
        for k, pair in enumerate(trials.pairs):
            if pair not in by_pair:
                raise ContractError(f"no score for trial {pair[0]} {pair[1]}")
            values[k] = by_pair[pair]
    return metrics.LabeledScores(values[trials.labels], values[~trials.labels])


def _operating_points(args) -> tuple[list[metrics.OperatingPoint], bool]:
    if args.p_target:
        return [metrics.OperatingPoint(p, args.c_miss, args.c_fa) for p in args.p_target], False
    return list(metrics.DEFAULT_OPERATING_POINTS), True


def cmd_eval(args) -> int:
    scores = _labeled_scores(args.scores, args.trials)
    ops, is_default = _operating_points(args)
    tag = " [default]" if is_default else ""
    err = metrics.eer(scores)
    dcfs = [metrics.min_dcf(scores, op)[0] for op in ops]
    cprim = metrics.c_primary(scores, ops)
    lines = [
        f"trials: {len(scores.target)} target, {len(scores.nontarget)} nontarget",
        f"EER (%): {100 * err:.2f}",
    ]
    for op, v in zip(ops, dcfs):
        lines.append(
            f"minDCF (p_target={op.p_target:g}, c_miss={op.c_miss:g}, c_fa={op.c_fa:g}){tag}: {v:.3f}"
        )
    lines.append(f"C_primary{tag}: {cprim:.3f}")
    print("\n".join(lines))
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write("metric,p_target,c_miss,c_fa,default_ops,value\n")
            flag = "yes" if is_default else "no"
            f.write(f"eer,,,,,{err:.9g}\n")
            for op, v in zip(ops, dcfs):
                f.write(f"min_dcf,{op.p_target:g},{op.c_miss:g},{op.c_fa:g},{flag},{v:.9g}\n")
            f.write(f"c_primary,,,,{flag},{cprim:.9g}\n")
    return 0


def _parse_mark(spec: str) -> metrics.OperatingPoint:
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            return metrics.OperatingPoint(float(parts[0]))
        if len(parts) == 3:
            return metrics.OperatingPoint(float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError:
        pass
    raise UsageError(f"bad --mark value {spec!r}, expected p or p:c_miss:c_fa")


def cmd_dcf_curve(args) -> int:
    scores = _labeled_scores(args.scores, args.trials)
    marked = [_parse_mark(m) for m in args.mark] if args.mark else []
    curve = metrics.dcf_curve(scores, args.lo, args.hi, args.points, marked)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write("logodds,min_dcf\n")
        for x, v in zip(curve.logodds, curve.values):
            out.write(f"{x:.9g},{v:.9g}\n")
        if curve.marked:
            out.write("# marked\n")
            out.write("logodds,min_dcf,p_target,c_miss,c_fa\n")
            for lam, v, op in curve.marked:
                out.write(f"{lam:.9g},{v:.9g},{op.p_target:g},{op.c_miss:g},{op.c_fa:g}\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_augment_plan(args) -> int:
    manifest = augment.read_manifest(args.manifest)
    plan = augment.assign_codec(manifest, args.fraction, args.seed)
    plan = augment.plan_rate_chain(plan, args.mode)
    speed_seed = args.speed_seed if args.speed_seed is not None else args.seed + 1
    plan = augment.assign_speed(plan, args.speed_perturb, speed_seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    augment.write_plan(plan, out_dir / "plan.tsv")
    cmd_path = augment.emit_commands(plan, out_dir)
    flagged = sum(1 for e in plan.entries if e.codec == "gsm")
    print(f"planned {len(manifest)} utterances ({flagged} codec-flagged) -> {cmd_path}")
    return 0


def cmd_schedule(args) -> int:
    from . import objectives  # about 5 ms of imports that no other command needs

    msched = objectives.MarginSchedule(
        start_epoch=args.margin_start, end_epoch=args.margin_end, final=args.margin_final,
        lmf_margin=args.lmf_margin,
    )
    lsched = objectives.LrSchedule(
        warmup_epochs=args.warmup_epochs, peak=args.peak_lr, final=args.final_lr,
        total_epochs=args.epochs,
    )
    rows = ["stage,epoch,segment_seconds,margin,lr"]
    for e in range(args.epochs + 1):
        rows.append(
            f"1,{e},{args.segment_seconds:g},{objectives.margin_at(e, msched):.12g},"
            f"{objectives.lr_at(e, lsched):.12g}"
        )
    # stage 2 holds the stage-1 final learning rate
    for e in range(1, args.lmf_epochs + 1):
        rows.append(
            f"2,{e},{args.lmf_segment_seconds:g},"
            f"{objectives.margin_at(e, msched, lmf=True):.12g},{args.final_lr:.12g}"
        )
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


_DISPATCH = {
    "features": cmd_features,
    "pool": cmd_pool,
    "fit-backend": cmd_fit_backend,
    "apply-backend": cmd_apply_backend,
    "score": cmd_score,
    "eval": cmd_eval,
    "dcf-curve": cmd_dcf_curve,
    "augment-plan": cmd_augment_plan,
    "schedule": cmd_schedule,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing subcommand (see --help)")
        config = _load_config(args.config) if args.config else {}
        _resolve(args, args.command, config)
        return _DISPATCH[args.command](args)
    except UsageError as e:
        print(f"svkit: usage error: {e}", file=sys.stderr)
        return 1
    except tuple(_EXITS) as e:
        code, label = _exit_of(e)
        print(f"svkit: {label}: {e}", file=sys.stderr)
        return code
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
