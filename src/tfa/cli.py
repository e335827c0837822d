"""Command-line front end.

Subcommands: ``synth`` (generate a synthetic task stream), ``train-align``
(train and checkpoint the alignment scorer), ``run`` (full incremental
experiment), ``ablate`` (sweep alpha/beta/cache-size), ``report`` (render a
report file as CSV or markdown).

Exit codes: 0 success, 2 configuration error, 3 I/O or parse error,
4 semantic validation error. Every subcommand resolves its seed in
:func:`_settings`: flag > config file > ``TFA_SEED`` > 0, and a ``seed``
key that is present must be an integer.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import metrics
from .alignment import TrainConfig, load_alignment, save_alignment
from .embeddings import (
    load_embeddings,
    load_prototypes,
    merge_embedding_sets,
    save_embeddings,
    save_prototypes,
)
from .errors import ConfigError, FormatError, TfaError, ValidationError, check_int, load_json
from .protocol import ExperimentConfig, run_experiment, run_experiments, train_base_alignment
from .synth import SynthConfig, generate_synthetic

_SWEEP_AXES = ("alpha", "beta", "cache-size")


def _load_config(path) -> dict:
    """A JSON config file (``{}`` without one): an object whose ``align``
    section, when present, is an object too."""
    if not path:
        return {}
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if not isinstance(doc.get("align", {}), dict):
        raise ConfigError(f"config {path}: 'align' must be a JSON object")
    return doc


def _settings(section: dict, args, flags=(), seed_name: str = "seed") -> dict:
    """A config section with the given CLI ``flags`` over it and its seed
    resolved: flag > config > ``TFA_SEED`` > 0. A ``seed`` key that is
    present must be an integer; the error names it ``seed_name``."""
    d = {**section, **{k: getattr(args, k) for k in flags if getattr(args, k) is not None}}
    if args.seed is not None:
        d["seed"] = args.seed
    elif "seed" in d:
        check_int(seed_name, d["seed"])
    else:
        raw = os.environ.get("TFA_SEED", "0")
        try:
            d["seed"] = int(raw)
        except ValueError as e:
            raise ConfigError(f"TFA_SEED must be an integer, got {raw!r}") from e
    return d


def _task_files(tasks_dir) -> list[Path]:
    files = sorted(Path(tasks_dir).glob("task_*.emb"))
    if not files:
        raise FormatError(f"no task_*.emb files under {tasks_dir}")
    return files


def _load_task_dir(tasks_dir):
    data = merge_embedding_sets([load_embeddings(p) for p in _task_files(tasks_dir)])
    protos = load_prototypes(Path(tasks_dir) / "prototypes.emb")
    return data, protos


# ---- subcommands ----


def cmd_synth(args) -> int:
    cfg = SynthConfig.from_dict(_settings(_load_config(args.config), args))
    data, protos = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"synthetic stream: dim={cfg.dim} seed={cfg.seed}")
    for t in data.task_ids():
        sub = data.subset(data.indices(task=t))
        path = out / f"task_{t:03d}.emb"
        save_embeddings(sub, path)
        n_train = len(sub.indices(split="train"))
        n_test = len(sub.indices(split="test"))
        n_cls = len(sub.label_space(t))
        print(f"  wrote {path.name}: task {t}, {n_cls} classes, "
              f"{n_train} train + {n_test} test records")
    save_prototypes(protos, out / "prototypes.emb")
    print(f"  wrote prototypes.emb: {len(protos)} prototypes")
    return 0


def cmd_train_align(args) -> int:
    hyper = TrainConfig.from_dict(_settings(_load_config(args.config).get("align", {}), args,
                                            ("epochs", "batch_size", "lr"), "align.seed"))

    data = load_embeddings(args.base)
    non_base = [int(t) for t in data.task_ids() if int(t) != 0]
    if non_base:
        raise ValidationError(f"base file contains non-base tasks {non_base}")
    trained, history = train_base_alignment(hyper, data, load_prototypes(args.protos))
    save_alignment(trained, args.out, train_config=hyper,
                   final_loss=history[-1], loss_history=history)
    n_train = len(data.indices(task=0, split="train"))
    print(f"trained {trained.n_params()} parameters on {n_train} samples; "
          f"final epoch loss {history[-1]:.6f}")
    print(f"wrote {args.out}")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_settings(_load_config(args.config), args, (
        "alpha", "beta", "capacity", "shots", "novel_capacity", "base_update_policy",
        "trials")))


def cmd_run(args) -> int:
    cfg = _experiment_config(args)
    data, protos = _load_task_dir(args.tasks)
    alignment, _meta = load_alignment(args.align)
    report = run_experiment(cfg, data, protos, alignment=alignment)
    doc = metrics.report_json(report)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(doc)
    last = report.aggregate[-1]
    hm = "n/a" if report.mean_harmonic is None else f"{report.mean_harmonic:.2f}"
    tag = " [no-cache baseline]" if report.flags.get("no_cache_baseline") else ""
    print(f"{len(report.trials)} trials, {len(report.aggregate)} sessions{tag}")
    print(f"final accuracy {last.accuracy_mean:.2f}, delta {report.delta:.2f}, "
          f"mean harmonic {hm}")
    print(f"wrote {args.out}")
    return 0


def _parse_values(raw: str, axis: str) -> list[float]:
    parts = [p for p in (s.strip() for s in raw.split(",")) if p]
    if not parts:
        raise ConfigError("empty sweep value list")
    try:
        vals = [float(p) for p in parts]
    except ValueError as e:
        raise ConfigError(f"bad sweep value in {raw!r}") from e
    for v in vals:
        if not math.isfinite(v):
            raise ConfigError(f"sweep values must be finite, got {v}")
        if axis == "cache-size" and (v != int(v) or v < 1):
            raise ConfigError(f"cache-size values must be positive integers, got {v}")
    return vals


def _sweep_setting(axis: str, v: float, shots: int) -> dict:
    if axis == "cache-size":
        return {"capacity": int(v), "novel_capacity": min(int(v), shots)}
    return {axis: v}


def cmd_ablate(args) -> int:
    values = _parse_values(args.values, args.sweep)
    cfg = _experiment_config(args)
    data, protos = _load_task_dir(args.tasks)
    alignment, _meta = load_alignment(args.align)
    cfgs = [replace(cfg, **_sweep_setting(args.sweep, v, cfg.shots)) for v in values]
    reports = run_experiments(cfgs, data, protos, alignment)

    def fmt(x):
        return f"{x:g}" if x == int(x) else f"{x}"

    label = {"alpha": "residual ratio alpha", "beta": "sharpness ratio beta",
             "cache-size": "cache size"}[args.sweep]
    hms = [r.mean_harmonic for r in reports]
    print(f"| {label} | " + " | ".join(fmt(v) for v in values) + " |")
    print("|" + "---|" * (len(values) + 1))
    print("| mean harmonic accuracy | "
          + " | ".join("n/a" if h is None else f"{h:.1f}" for h in hms) + " |")
    if args.out:
        combined = {
            "sweep": args.sweep,
            "values": values,
            "mean_harmonic": hms,
            "delta": [r.delta for r in reports],
            "reports": [r.to_dict() for r in reports],
        }
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(metrics.canonical_json(combined))
        print(f"wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    doc = metrics.check_report(load_json(getattr(args, "in")))
    sys.stdout.write(metrics.emit_report(doc, args.format))
    return 0


# ---- parser ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfa",
        description="Training-free dual-cache adaptor experiments on "
                    "precomputed embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic task stream")
    p.add_argument("--config", help="SynthConfig JSON (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="generator seed (default: 0)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-align", help="train the alignment scorer on the base task")
    p.add_argument("--base", required=True, help="base-task EMB1 file")
    p.add_argument("--protos", required=True, help="prototype EMB1 file")
    p.add_argument("--config", help="experiment JSON; its 'align' section is used")
    p.add_argument("--out", required=True, help="output ALN1 checkpoint")
    p.add_argument("--epochs", type=int, help="training epochs (default: 10)")
    p.add_argument("--batch-size", type=int, help="minibatch size (default: 25)")
    p.add_argument("--lr", type=float, help="Adam learning rate (default: 0.001)")
    p.add_argument("--seed", type=int, help="init/shuffle seed (default: 0)")
    p.set_defaults(func=cmd_train_align)

    def add_run_flags(p):
        p.add_argument("--tasks", required=True, help="directory of task_*.emb + prototypes.emb")
        p.add_argument("--align", required=True, help="ALN1 checkpoint")
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--alpha", type=float, help="residual ratio alpha (default: 2.0)")
        p.add_argument("--beta", type=float, help="affinity sharpness beta (default: 2.0)")
        p.add_argument("--capacity", type=int, help="base cache capacity per class (default: 5)")
        p.add_argument("--shots", type=int, help="novel shots K per class (default: 5)")
        p.add_argument("--novel-capacity", type=int, dest="novel_capacity",
                       help="novel cache entries per class (default: K)")
        p.add_argument("--base-update-policy", dest="base_update_policy",
                       choices=["off", "session0_only", "always"],
                       help="when the base cache admits test samples (default: session0_only)")
        p.add_argument("--trials", type=int, help="number of seeded trials (default: 10)")
        p.add_argument("--seed", type=int, help="experiment seed (default: 0)")

    p = sub.add_parser("run", help="run the incremental experiment")
    add_run_flags(p)
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="sweep one hyperparameter")
    add_run_flags(p)
    p.add_argument("--sweep", required=True, choices=list(_SWEEP_AXES),
                   help="axis to sweep")
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values, e.g. 0,0.5,1,2,3")
    p.add_argument("--out", help="optional combined report JSON")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="render a report file")
    p.add_argument("--in", required=True, help="report JSON produced by run")
    p.add_argument("--format", required=True, choices=["csv", "md"])
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        try:
            return args.func(args)
        except OSError as e:
            raise FormatError(str(e)) from e
    except TfaError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
