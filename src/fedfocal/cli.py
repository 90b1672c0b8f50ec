"""Batch command-line entry point.

Subcommands: synth, partition, train, evaluate, analyze, sweep.
Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiment as X
from .config import SCHEMA, ExperimentConfig
from .data import save_dataset, synthesize_longtail, load_dataset
from .errors import ConfigError, FedFocalError
from .metrics import evaluate_scores
from .partition import build_partition, write_manifest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_key_flags(p: argparse.ArgumentParser, prefix: str) -> None:
    """One flag per config key under prefix (dataset.synth.image_size is
    --image-size); SCHEMA parses each value and gives its default."""
    for key in SCHEMA:
        if key.startswith(prefix):
            p.add_argument("--" + key[len(prefix):].replace("_", "-"), dest=key,
                           metavar="VALUE", help=f"config key {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedfocal",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--names", help="comma-separated class names (default class-i)")
    _add_key_flags(p, "dataset.synth.")

    p = sub.add_parser("partition", help="split a dataset and write the manifest")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_key_flags(p, "partition.")

    for name, help_text in (("train", "run one configured experiment"),
                            ("sweep", "run a preset family of experiments")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="config file to start from")
        p.add_argument("--preset", default=None, choices=X.PRESETS,
                       help="named starting configuration")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override any config key")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--rounds", type=int, default=None)
        if name == "train":
            p.add_argument("--dry-run", action="store_true",
                           help="validate config and partition, skip training")

    p = sub.add_parser("evaluate", help="score a finished run's checkpoint")
    p.add_argument("--run", required=True)

    p = sub.add_parser("analyze", help="derive reports from a finished run")
    p.add_argument("--run", required=True)
    p.add_argument("--out", default=None)

    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.config and args.preset:
        raise ConfigError("pass either --config or --preset, not both")
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
    elif args.preset:
        cfg = X.preset_config(args.preset, seed=args.seed or 0)
    else:
        raise ConfigError("pass --config FILE or --preset NAME")
    overrides: dict[str, object] = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides.setdefault("federation.seed", str(args.seed))
        overrides.setdefault("partition.seed", str(args.seed))
        overrides.setdefault("dataset.synth.seed", str(args.seed))
    if args.rounds is not None:
        overrides["federation.rounds"] = str(args.rounds)
    return cfg.with_overrides(overrides) if overrides else cfg


def _key_flags_config(args) -> ExperimentConfig:
    """The default config with the command's config-key flags set."""
    flags = {k: v for k, v in vars(args).items() if k in SCHEMA and v is not None}
    return ExperimentConfig({}).with_overrides(flags)


def cmd_synth(args) -> int:
    cfg = _key_flags_config(args)
    names = args.names.split(",") if args.names else None
    bundle = synthesize_longtail(cfg["dataset.synth.counts"], X.feature_spec(cfg),
                                 seed=cfg["dataset.synth.seed"], class_names=names)
    save_dataset(args.out, bundle)
    print(f"wrote {bundle.num_samples} samples, {bundle.num_classes} classes "
          f"to {args.out}")
    return EXIT_OK


def cmd_partition(args) -> int:
    spec = _key_flags_config(args).partition_spec()
    bundle = load_dataset(args.data)
    result = build_partition(bundle.labels, spec, bundle.num_classes)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_manifest(out, result)
    sizes = ", ".join(f"client-{j}: {len(s)}"
                      for j, s in enumerate(result.client_indices))
    print(f"{sizes}, test: {len(result.test_indices)} -> {out}")
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out)
    if args.dry_run:
        bundle, _, _ = X.set_up_run(cfg, out)
        print(f"dry run ok: {bundle.num_samples} samples, config echoed to {out}")
        return EXIT_OK
    run = X.run_experiment(cfg, out)
    final = run.records[-1].metrics
    print(f"finished {len(run.records)} rounds; "
          f"accuracy {final.accuracy:.4f}, macro F1 {final.macro_f1:.4f} -> {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    if args.preset not in X.SWEEP_PRESETS:
        raise ConfigError(f"sweep needs --preset {' | '.join(X.SWEEP_PRESETS)}")
    results = X.run_sweep(cfg, args.preset, args.out)
    for label, run in results:
        m = run.records[-1].metrics
        print(f"{label}: accuracy {m.accuracy:.4f}, macro F1 {m.macro_f1:.4f}")
    print(f"comparison table -> {Path(args.out) / 'comparison.csv'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    run = X.load_run(args.run)
    scores, labels = run.score_test_set()
    report = evaluate_scores(scores, labels, run.bundle.num_classes)
    for name in ("accuracy", "macro_precision", "macro_recall", "macro_f1",
                 "macro_specificity", "macro_auc"):
        print(f"{name} = {getattr(report, name)!r}")
    for flag in report.flags:
        print(f"flag: {flag}", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    result = X.analyze(args.run, out_dir=args.out)
    where = args.out or args.run
    print(f"wrote dca.csv, roc.csv, gradnorms.csv to {where}")
    for note in result["notes"]:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "partition": cmd_partition,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "evaluate": cmd_evaluate,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FedFocalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
