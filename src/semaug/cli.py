"""Command-line entry point.

Subcommands: gen, train, compare, bound-check, grad-check, score.  Every
command resolves its configuration from defaults, an optional --config
file, and repeatable --set key=value overrides (--seed and --out are
shorthands for the seed/out keys, parsed and checked like --set).  A
command that returns (exit 0, or 3 for a failed check) leaves the fully
resolved configuration next to its outputs as <command>.config, so any
run can be reproduced exactly; one stopped by an error leaves none.

Exit codes: 0 success, 2 validation or usage error, 3 numerical failure
(divergence, degenerate covariance, or a failed bound/gradient check).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import (
    CompareSettings,
    ConfigError,
    build,
    parse_config_file,
    parse_value,
    resolve,
    to_train_settings,
    write_config,
)
from .covariance import DegenerateCovarianceError, save_bank
from .data import (FLOAT, SynthSpec, float_cells, generate, read_csv_rows, read_dataset, read_embeddings,
                   write_csv, write_dataset, write_embeddings)
from .losses import LossConfig
from .metrics import (DcfParams, eer_and_min_dcf, format_metrics, read_trials, score_trials, write_scores,
                      write_trials)
from .suites import BoundSettings, GradSettings, composed_gradcheck, family_verdicts, gradcheck_suite, jensen_suite
from .trainer import TrainingDivergedError, save_metrics, save_model, train

GRAD_THRESHOLD = 1e-5


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="configuration file (flat key = value lines)")
    p.add_argument("--seed", help="override the seed key")
    p.add_argument("--out", help="override the out (output directory) key")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semaug",
                                     description="difficulty-aware semantic augmentation lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen", "generate a synthetic dataset CSV"),
        ("train", "train an embedding model and report EER/minDCF"),
        ("compare", "train several loss variants on shared data"),
        ("bound-check", "Monte-Carlo validation of the closed-form bounds"),
        ("grad-check", "finite-difference validation of analytic gradients"),
        ("score", "score a trial list against an embeddings CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "score":
            p.add_argument("embeddings", help="embeddings CSV (index,e0,...)")
            p.add_argument("trials", help="trial CSV (index_a,index_b,is_target)")
    return parser


def _resolve_config(args) -> dict:
    file_values = parse_config_file(args.config) if args.config else None
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        overrides[key.strip()] = parse_value(key.strip(), raw)
    for key in ("seed", "out"):  # the shorthands win over --set
        if (raw := getattr(args, key)) is not None:
            overrides[key] = parse_value(key, raw)
    return resolve(file_values, overrides)


def _outdir(cfg: dict) -> str:
    """Make the out directory.  Each command calls this just before its
    first write, so a run stopped by an error before then leaves none."""
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_gen(cfg: dict, args) -> int:
    ds = generate(build(SynthSpec, cfg))
    out = _outdir(cfg)
    path = os.path.join(out, "dataset.csv")
    write_dataset(ds, path)
    print(path)
    return 0


def cmd_train(cfg: dict, args) -> int:
    ds = read_dataset(cfg["train.dataset"])
    diag = os.path.join(_outdir(cfg), "diagnostics.csv") if cfg["train.diagnostics"] else None
    run = train(ds, build(LossConfig, cfg), to_train_settings(cfg, diagnostics_path=diag))
    out = _outdir(cfg)
    save_metrics(os.path.join(out, "metrics.csv"), run.metrics)
    save_model(os.path.join(out, "model.csv"), run.embedder, run.head)
    save_bank(run.bank, os.path.join(out, "bank.csv"))
    write_embeddings(os.path.join(out, "embeddings.csv"),
                     range(len(run.eval_indices)), run.eval_embeddings)
    write_trials(os.path.join(out, "trials.csv"), run.trials)
    print(format_metrics(run.final_eer, run.final_min_dcf))
    print(f"fallbacks={run.fallback_count}", file=sys.stderr)
    return 0


def cmd_compare(cfg: dict, args) -> int:
    settings = build(CompareSettings, cfg)
    variants = list(dict.fromkeys(settings.variants))
    if len(variants) < len(settings.variants):
        print("warning: duplicate variants removed", file=sys.stderr)
    rows = []
    for seed in settings.seeds:
        ds = generate(build(SynthSpec, cfg, seed=seed))
        for v in variants:
            lc = build(LossConfig, cfg, variant=v)
            run = train(ds, lc, to_train_settings(cfg, seed=seed))
            rows.append((v, lc.difficulty, lc.strength_mode, cfg["loss.lambda0"], seed,
                         run.final_eer, run.final_min_dcf))
    path = os.path.join(_outdir(cfg), "compare.csv")
    write_csv(path, ["variant", "difficulty", "strength_mode", "lambda0", "seed", "eer", "min_dcf"],
              "%s,%s,%s," + FLOAT + ",%d," + float_cells(2), rows)
    print(path)
    return 0


def cmd_bound_check(cfg: dict, args) -> int:
    settings = build(BoundSettings, cfg)
    results = jensen_suite(settings.trials, settings.samples, cfg["seed"])
    out = _outdir(cfg)
    path = os.path.join(out, "bound_check.csv")
    write_csv(path, ["trial", "variant", "lambda", "M", "mc_mean", "se", "bound", "slack", "z_score"],
              "%d,%s," + FLOAT + ",%d," + float_cells(5),
              ((r.trial, r.family, r.lam, r.report.samples, r.report.mean, r.report.std_error,
                r.report.bound_value, r.report.slack, r.report.z_score) for r in results))
    failed = [v for v in family_verdicts(results) if not v.passed]
    if failed:
        for r in results:
            if r.report.z_score < -3.0:
                print(f"bound violated: family={r.family} trial={r.trial} "
                      f"z={r.report.z_score:.2f}", file=sys.stderr)
        for v in failed:
            print(f"bound family failed: family={v.family} mean_slack={v.mean_slack:.3e} "
                  f"z_below_-3={v.below}/{v.trials} z_nan={v.nan}", file=sys.stderr)
        print("bound check FAILED", file=sys.stderr)
        return 3
    print(f"{path}: all {len(results)} trials within tolerance")
    return 0


def cmd_grad_check(cfg: dict, args) -> int:
    settings = build(GradSettings, cfg)
    results = gradcheck_suite(settings.trials, settings.epsilon, cfg["seed"])
    results += composed_gradcheck(settings.composed_trials, settings.epsilon, cfg["seed"])
    out = _outdir(cfg)
    path = os.path.join(out, "grad_check.csv")
    write_csv(path, ["kind", "variant", "trial", "epsilon", "max_rel_error"], "%s,%s,%d," + float_cells(2),
              ((r.kind, r.variant, r.trial, settings.epsilon, r.max_rel_error) for r in results))
    bad = [r for r in results if not r.max_rel_error < GRAD_THRESHOLD]
    if bad:
        for r in bad:
            print(f"gradient mismatch: {r.kind}/{r.variant} trial={r.trial} "
                  f"rel_error={r.max_rel_error:.3e}", file=sys.stderr)
        print("gradient check FAILED", file=sys.stderr)
        return 3
    print(f"{path}: all {len(results)} trials below {GRAD_THRESHOLD}")
    return 0


def cmd_score(cfg: dict, args) -> int:
    embs = read_embeddings(args.embeddings)
    trials = read_trials(args.trials)
    for kind, present in (("target", trials.is_target), ("nontarget", ~trials.is_target)):
        if not present.any():
            raise ValueError(f"{args.trials}: line {read_csv_rows(args.trials)[1][-1]}: no {kind} trial")
    order = np.array(sorted(embs), dtype=np.int64)
    wanted = np.concatenate([trials.index_a, trials.index_b])
    pos = np.searchsorted(order, wanted)
    missing = np.unique(wanted[order[np.minimum(pos, order.size - 1)] != wanted])
    if missing.size:
        raise ValueError(f"{args.trials}: indices missing from embeddings: {missing[:5].tolist()}")
    mat = np.array([embs[idx] for idx in order.tolist()])
    remapped = type(trials)(index_a=pos[:len(trials)], index_b=pos[len(trials):], is_target=trials.is_target)
    scores = score_trials(mat, remapped)
    eer, _, mdcf = eer_and_min_dcf(scores, build(DcfParams, cfg))
    out = _outdir(cfg)
    write_scores(os.path.join(out, "scores.csv"), trials, scores)
    print(format_metrics(eer, mdcf))
    return 0


COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "compare": cmd_compare,
    "bound-check": cmd_bound_check,
    "grad-check": cmd_grad_check,
    "score": cmd_score,
}


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Floating-point warnings are silenced: every quantity that matters is
    # checked for finiteness where it is made, and the exit-3 message names
    # it, so a warning would only print a stray source line before it.
    with np.errstate(all="ignore"):
        try:
            cfg = _resolve_config(args)
            code = COMMANDS[args.command](cfg, args)  # 0, or 3 for a failed check
            write_config(os.path.join(cfg["out"], args.command.replace("-", "_") + ".config"), cfg)
            return code
        except (TrainingDivergedError, DegenerateCovarianceError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        except (ConfigError, ValueError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
