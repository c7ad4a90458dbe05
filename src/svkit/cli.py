"""Command-line entry point.

Subcommands: features, pool, fit-backend, apply-backend, score, eval,
dcf-curve, augment-plan, schedule.  Options may also come from a sectioned
``key = value`` config file (one section per subcommand); command-line
flags take precedence and unknown config keys are errors.

Start-up is the largest cost of a short command, so a command imports the
svkit modules it runs only when it runs.

Exit codes: 0 ok, 1 usage, 2 format, 3 contract, 4 I/O.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import store
from .chains import CHAIN_DOWN8K, CHAINS
from .errors import ContractError, FormatError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# handled error -> (exit code, message label); exit code 1 is UsageError
_EXITS = {FormatError: (2, "format error"), ContractError: (3, "error"), OSError: (4, "I/O error")}


def _exit_of(e: Exception) -> tuple[int, str]:
    return next(v for kind, v in _EXITS.items() if isinstance(e, kind))


def _int(text: str) -> int:  # option values follow the number rule of files
    return int(store.plain_number(text))


def _float(text: str) -> float:
    return float(store.plain_number(text))


_int.__name__, _float.__name__ = "int", "float"  # argparse: "invalid int value: '1_0'"


def _parse_bool(raw: str) -> bool:
    from configparser import ConfigParser

    try:
        return ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise UsageError(f"cannot parse boolean config value {raw!r}") from None


def _load_config(path) -> dict[str, dict[str, str]]:
    import configparser

    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_file((line for _, line in store.text_lines(path)), source=str(path))
    except configparser.Error as e:
        raise FormatError(f"{path}: {e}") from None
    return {s: dict(cp.items(s)) for s in cp.sections()}


def _with_config(config: dict[str, dict[str, str]], parsers: dict, values: list[str]) -> list[str]:
    """`values`, a command and its arguments, with the command's config section as
    option tokens after the command name, less the options the arguments name.

    `--key=value` keeps a value such as `-8` attached to its key; a flag becomes `--key`
    or `--no-key`, and a repeatable option one token per comma-separated value."""
    unknown = sorted(set(config) - set(parsers))
    if unknown:
        raise UsageError(f"unknown config section [{unknown[0]}]")
    command, *argv = values
    strings = parsers[command]._option_string_actions
    names = {t.split("=", 1)[0] for t in argv if t.startswith("--") and t != "--"}
    # an exact name, else an abbreviation (an ambiguous one fails the parse anyway)
    named = {a for s, a in strings.items() for n in names if s == n or (n not in strings and s.startswith(n))}
    tokens = []
    for key, raw in config.get(command, {}).items():
        action = strings.get(f"--{key}")
        if action is None or action.option_strings[0] != f"--{key}":  # -h/--help, --no-KEY
            raise UsageError(f"unknown config key in [{command}]: {key}")
        if action in named:
            continue
        if isinstance(action, argparse.BooleanOptionalAction):
            tokens.append(f"--{key}" if _parse_bool(raw) else f"--no-{key}")
        elif isinstance(action, argparse._AppendAction):
            tokens += [f"--{key}={v.strip()}" for v in raw.split(",") if v.strip()]
        else:
            tokens.append(f"--{key}={raw}")
    return [command, *tokens, *argv]


class _Commands(argparse._SubParsersAction):
    """Subcommand action that parses the command's `--config` section together
    with its arguments, so that both get the same types, choices and checks."""

    def __call__(self, parser, namespace, values, option_string=None):
        if namespace.config:  # `--config` precedes the command, so it is parsed by now
            values = _with_config(_load_config(namespace.config), self.choices, values)
        super().__call__(parser, namespace, values, option_string)


def _build_parser() -> _Parser:
    p = _Parser(prog="svkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", default=None, help="sectioned key = value config file")
    subs = p.add_subparsers(dest="command", metavar="COMMAND", required=True, action=_Commands)
    flag = argparse.BooleanOptionalAction

    s = subs.add_parser("features", help="extract log-Mel features (optionally VAD-filtered)")
    s.add_argument("inputs", nargs="+", help="wav files or directories")
    s.add_argument("--out-dir", required=True, help="output directory for feature files")
    s.add_argument("--resample", type=_int, help="resample to this rate before extraction")
    s.add_argument("--n-mels", type=_int)
    s.add_argument("--frame-len", type=_float, help="frame length, ms")
    s.add_argument("--frame-shift", type=_float, help="frame shift, ms")
    s.add_argument("--preemphasis", type=_float)
    s.add_argument("--low-freq", type=_float)
    s.add_argument("--high-freq", type=_float, help="defaults to Nyquist")
    s.add_argument("--log-floor", type=_float)
    s.add_argument("--dither", type=_float, help="dither stddev; requires --seed when > 0")
    s.add_argument("--seed", type=_int)
    s.add_argument("--vad", action=flag, default=False, help="drop non-speech frames")
    s.add_argument("--vad-energy-threshold", type=_float)
    s.add_argument("--vad-energy-mean-scale", type=_float)
    s.add_argument("--vad-context", type=_int)
    s.add_argument("--vad-proportion", type=_float)
    s.add_argument("--text", action=flag, default=False, help="write TSV instead of binary matrices")

    s = subs.add_parser("pool", help="pool a frame matrix into a single vector")
    s.add_argument("matrix", help="feature/frame matrix file (binary or TSV)")
    s.add_argument("--method", required=True, choices=["tstp", "asp", "xi", "mhfa"], help="tstp | asp | xi | mhfa")
    s.add_argument("--seed", type=_int, help="seed for randomly drawn asp/mhfa parameters")
    s.add_argument("--hidden-dim", type=_int, default=128, help="asp attention hidden size")
    s.add_argument("--heads", type=_int, help="mhfa attention heads")
    s.add_argument("--key-dim", type=_int, help="mhfa key dimension")
    s.add_argument("--embed-dim", type=_int, help="mhfa output dimension")
    s.add_argument("--precisions", help="matrix of per-frame log precisions (xi)")
    s.add_argument("--prior-log-precision", type=_float, help="flat prior log precision (xi)")

    s = subs.add_parser("fit-backend", help="fit center/LDA/length-norm stages")
    s.add_argument("--embeddings", required=True, help="training embedding set (SVEB/TSV)")
    s.add_argument("--labels", help="sidecar TSV id<TAB>speaker (needed for LDA)")
    s.add_argument("--out", required=True, help="output pipeline file")
    s.add_argument("--center", action=flag, default=True)
    s.add_argument("--lda", action=flag, default=True)
    s.add_argument("--lda-dim", type=_int, help="defaults to min(dim, classes - 1)")
    s.add_argument("--length-norm", action=flag, default=True)

    s = subs.add_parser("apply-backend", help="apply a fitted pipeline to embeddings")
    s.add_argument("--pipeline", required=True)
    s.add_argument("--embeddings", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--text", action=flag, default=False, help="write TSV instead of SVEB")

    s = subs.add_parser("score", help="cosine-score a trial list")
    s.add_argument("--enroll", required=True, help="enrollment embeddings")
    s.add_argument("--test", required=True, help="test embeddings")
    s.add_argument("--trials", required=True)
    s.add_argument("--out", required=True, help="output score TSV")
    s.add_argument("--enroll-map", help="multi-segment models: `model seg1 seg2 ...` lines")
    s.add_argument("--workers", type=_int, default=1)

    s = subs.add_parser("eval", help="EER / minDCF / averaged-cost report")
    s.add_argument("--scores", required=True, help="score TSV from `score`")
    s.add_argument("--trials", required=True, help="labeled trial list")
    s.add_argument("--p-target", action="append", type=_float, help="operating-point prior (repeatable)")
    s.add_argument("--c-miss", type=_float)
    s.add_argument("--c-fa", type=_float)
    s.add_argument("--csv", help="also write a CSV report here")

    s = subs.add_parser("dcf-curve", help="minDCF over a range of effective priors")
    s.add_argument("--scores", required=True)
    s.add_argument("--trials", required=True)
    s.add_argument("--lo", type=_float, default=-8.0, help="lowest effective-prior log odds")
    s.add_argument("--hi", type=_float, default=8.0, help="highest effective-prior log odds")
    s.add_argument("--points", type=_int, default=161)
    s.add_argument("--mark", action="append", help="operating point p[:c_miss:c_fa] (repeatable)", metavar="P[:CM:CF]")
    s.add_argument("--out", help="output CSV (default stdout)")

    s = subs.add_parser("augment-plan", help="plan codec/rate-chain/speed augmentation")
    s.add_argument("--manifest", required=True, help="TSV utt_id<TAB>path<TAB>duration<TAB>rate")
    s.add_argument("--out-dir", required=True)
    s.add_argument("--fraction", type=_float, default=0.5, help="fraction of utterances to codec-flag")
    s.add_argument("--mode", default=CHAIN_DOWN8K, choices=list(CHAINS), help="rate chain")
    s.add_argument("--seed", type=_int, required=True)
    s.add_argument("--speed-perturb", action=flag, default=False)
    s.add_argument("--speed-seed", type=_int, help="defaults to seed + 1")

    s = subs.add_parser("schedule", help="dump the margin/learning-rate recipe as CSV")
    s.add_argument("--out", help="output CSV (default stdout)")
    s.add_argument("--epochs", type=_int, help="stage-1 epochs")
    s.add_argument("--warmup-epochs", type=_float)
    s.add_argument("--peak-lr", type=_float)
    s.add_argument("--final-lr", type=_float)
    s.add_argument("--margin-start", type=_float)
    s.add_argument("--margin-end", type=_float)
    s.add_argument("--margin-final", type=_float)
    s.add_argument("--segment-seconds", type=_float, default=2.0)
    s.add_argument("--lmf-epochs", type=_int, default=10, help="stage-2 epochs")
    s.add_argument("--lmf-margin", type=_float)
    s.add_argument("--lmf-segment-seconds", type=_float, default=10.0)
    return p


def _given(args, **dests) -> dict:
    """{keyword: value} of each option `dests` names by keyword that the command line or
    config file set: an option left unset takes the default of the library type it goes to."""
    return {key: getattr(args, dest) for key, dest in dests.items() if getattr(args, dest) is not None}


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
    from . import audio

    wavs = _collect_wavs(args.inputs)
    if not wavs:
        raise UsageError("no input wav files")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fcfg = audio.FbankConfig(**_given(
        args, n_mels="n_mels", frame_len_ms="frame_len", frame_shift_ms="frame_shift", preemphasis="preemphasis",
        low_freq="low_freq", high_freq="high_freq", log_floor="log_floor", dither="dither"))
    vcfg = audio.VadConfig(**_given(
        args, energy_mean_scale="vad_energy_mean_scale", energy_threshold="vad_energy_threshold",
        context_frames="vad_context", proportion_threshold="vad_proportion"))
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    if fcfg.dither > 0 and rng is None:
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
                feats = audio.apply_vad(feats, audio.energy_vad(buf, vcfg, fcfg))
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
    from . import pooling

    if args.method in ("asp", "mhfa") and args.seed is None:
        raise UsageError(f"--method {args.method} requires --seed")
    draw = {  # drawn once for a 1-dim input first, so a bad size fails before the read
        "asp": lambda d, rng: pooling.AspParams.random(d, args.hidden_dim, rng),
        "mhfa": lambda d, rng: pooling.MhfaParams.random(
            1, d, rng, **_given(args, num_heads="heads", key_dim="key_dim", embed_dim="embed_dim")),
    }.get(args.method, lambda d, rng: None)
    draw(1, np.random.default_rng(0))
    x = store.read_matrix(args.matrix)
    params = draw(x.shape[1], np.random.default_rng(args.seed))
    if args.method == "tstp":
        vec = pooling.tstp(x)
    elif args.method == "asp":
        vec = pooling.asp(x, params)
    elif args.method == "xi":
        if args.precisions is not None:
            log_prec = store.read_matrix(args.precisions)
        else:
            log_prec = np.zeros_like(x)
        stats = pooling.XiFrameStats(x, log_prec)
        prior = pooling.XiPrior.flat(x.shape[1], **_given(args, log_precision="prior_log_precision"))
        vec, _ = pooling.xi_pool(stats, prior)
    else:  # mhfa over a single-layer stack
        vec = pooling.mhfa(x[None, :, :], params)
    print("\t".join(f"{v:.9g}" for v in vec))
    return 0


def cmd_fit_backend(args) -> int:
    from . import backend

    s = store.read_embeddings(args.embeddings)
    labels = None if args.labels is None else store.read_labels(args.labels)
    center = backend.fit_center(s) if args.center else None
    lda = backend.fit_lda(s, labels, args.lda_dim) if args.lda else None
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
    from . import backend

    pipe = backend.load_pipeline(args.pipeline)
    out = backend.apply_pipeline(pipe, store.read_embeddings(args.embeddings))  # input freed before the write
    if args.text:
        store.write_embeddings_tsv(out, args.out)
    else:
        store.write_embeddings(out, args.out)
    print(f"applied pipeline to {len(out)} embeddings -> {args.out}")
    return 0


def cmd_score(args) -> int:
    from . import scoring

    if args.workers < 1:  # the option does nothing else; scoring is single-threaded
        raise ContractError(f"--workers must be >= 1, got {args.workers}")
    enroll = store.read_embeddings(args.enroll)
    tests = store.read_embeddings(args.test)
    trials = scoring.parse_trials(args.trials)
    member_map = scoring.parse_enroll_map(args.enroll_map) if args.enroll_map is not None else None
    models = scoring.build_enrollment(enroll, member_map)
    scores = scoring.score_trials(models, tests, trials)
    scoring.write_scores(trials, scores, args.out)
    print(f"scored {len(trials)} trials -> {args.out}")
    return 0


def _labeled_scores(scores_path, trials_path):
    from . import metrics, scoring

    trials = scoring.parse_trials(trials_path)
    if trials.labels is None:
        raise ContractError(f"{trials_path}: trial list has no target/nontarget labels")
    values = scoring.read_scores(scores_path, trials)
    return metrics.LabeledScores(values[trials.labels], values[~trials.labels])


def cmd_eval(args) -> int:
    from . import metrics

    costs = _given(args, c_miss="c_miss", c_fa="c_fa")
    is_default = not (args.p_target or costs)
    priors = args.p_target or [op.p_target for op in metrics.DEFAULT_OPERATING_POINTS]
    ops = [metrics.OperatingPoint(p, **costs) for p in priors]  # a bad point fails here, before any read
    scores = _labeled_scores(args.scores, args.trials)
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
        flag = "yes" if is_default else "no"
        store.write_text(args.csv, ["metric,p_target,c_miss,c_fa,default_ops,value\n", f"eer,,,,,{err:.9g}\n",
                                    *(f"min_dcf,{op.p_target:g},{op.c_miss:g},{op.c_fa:g},{flag},{v:.9g}\n"
                                      for op, v in zip(ops, dcfs)), f"c_primary,,,,{flag},{cprim:.9g}\n"])
    return 0


def _parse_mark(spec: str) -> metrics.OperatingPoint:
    from . import metrics

    try:
        values = [_float(v) for v in spec.split(":")]
    except ValueError:
        values = []  # not a number: the same usage error as a wrong field count
    if len(values) not in (1, 3):
        raise UsageError(f"bad --mark value {spec!r}, expected p or p:c_miss:c_fa")
    return metrics.OperatingPoint(*values)  # a value out of range exits 3, as --p-target does


def cmd_dcf_curve(args) -> int:
    from . import metrics

    marked = [_parse_mark(m) for m in args.mark] if args.mark else []  # before any read, as in eval
    scores = _labeled_scores(args.scores, args.trials)
    curve = metrics.dcf_curve(scores, args.lo, args.hi, args.points, marked)
    lines = ["logodds,min_dcf\n", *(f"{x:.9g},{v:.9g}\n" for x, v in zip(curve.logodds, curve.values))]
    if curve.marked:
        lines += ["# marked\n", "logodds,min_dcf,p_target,c_miss,c_fa\n"]
        lines += [f"{lam:.9g},{v:.9g},{op.p_target:g},{op.c_miss:g},{op.c_fa:g}\n"
                  for lam, v, op in curve.marked]
    store.write_text(args.out or None, lines)  # `--out ""` is stdout, as no --out is
    return 0


def cmd_augment_plan(args) -> int:
    from . import augment

    manifest = augment.read_manifest(args.manifest)
    plan = augment.plan_augmentation(manifest, args.fraction, args.mode, args.seed,
                                     args.speed_perturb, args.speed_seed)
    cmd_path = augment.emit_commands(plan, args.out_dir)
    augment.write_plan(plan, cmd_path.parent / "plan.tsv")
    flagged = sum(1 for e in plan.entries if e.codec == "gsm")
    print(f"planned {len(manifest)} utterances ({flagged} codec-flagged) -> {cmd_path}")
    return 0


def cmd_schedule(args) -> int:
    from . import objectives

    msched = objectives.MarginSchedule(**_given(
        args, start_epoch="margin_start", end_epoch="margin_end", final="margin_final", lmf_margin="lmf_margin"))
    lsched = objectives.LrSchedule(**_given(
        args, warmup_epochs="warmup_epochs", peak="peak_lr", final="final_lr", total_epochs="epochs"))
    for seconds in (args.segment_seconds, args.lmf_segment_seconds):
        objectives.CropSpec(seconds)  # a segment length the cropper would accept
    if args.lmf_epochs < 0:  # 0 is no stage 2
        raise ContractError(f"--lmf-epochs must be >= 0, got {args.lmf_epochs}")
    rows = ["stage,epoch,segment_seconds,margin,lr\n"]
    for e in range(int(lsched.total_epochs) + 1):
        rows.append(
            f"1,{e},{args.segment_seconds:g},{objectives.margin_at(e, msched):.12g},"
            f"{objectives.lr_at(e, lsched):.12g}\n"
        )
    # stage 2 holds the stage-1 final learning rate
    for e in range(1, args.lmf_epochs + 1):
        rows.append(
            f"2,{e},{args.lmf_segment_seconds:g},"
            f"{objectives.margin_at(e, msched, lmf=True):.12g},{lsched.final:.12g}\n"
        )
    store.write_text(args.out or None, rows)  # `--out ""` is stdout, as no --out is
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
    try:
        args = _build_parser().parse_args(argv)
        for option in ("seed", "speed_seed"):  # numpy seeds no generator from a negative int
            value = getattr(args, option, None)
            if value is not None and value < 0:
                raise UsageError(f"--{option.replace('_', '-')} must be >= 0, got {value}")
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
