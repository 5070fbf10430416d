"""Flat "key = value" run configuration with dotted keys.

Files are UTF-8 text, one assignment per line; blank lines and lines
starting with '#' are skipped.  Unknown keys are errors, so typos fail
loudly.  Every run serializes its fully resolved configuration (defaults
plus file plus overrides) next to its outputs; re-running from that file
reproduces the outputs byte for byte.
"""

from __future__ import annotations

import math

from .data import SynthSpec
from .losses import LossConfig
from .metrics import DcfParams
from .trainer import TrainSettings


class ConfigError(ValueError):
    pass


def _int(s: str) -> int:
    return int(s, 10)


def _float(s: str) -> float:
    v = float(s)
    if math.isnan(v):
        raise ValueError("nan is not a valid config value")
    return v


def _str(s: str) -> str:
    return s


# key -> (parser, default)
REGISTRY = {
    "seed": (_int, 0),
    "out": (_str, "out"),
    "data.num_classes": (_int, 20),
    "data.dim": (_int, 20),
    "data.samples_per_class": (_int, 60),
    "data.sigma": (_float, 0.3),
    "data.anisotropy": (_float, 0.65),
    "data.hard_pair_fraction": (_float, 0.5),
    "model.hidden": (_str, "64"),
    "model.embed_dim": (_int, 16),
    "loss.variant": (_str, "dasa"),
    "loss.difficulty": (_str, "DA"),
    "loss.strength_mode": (_str, "DA"),
    "loss.lambda0": (_float, 0.15),
    "loss.gamma": (_float, 2.0),
    "loss.scale": (_float, 12.0),
    "loss.margin": (_float, 0.2),
    "sched.deferred_fraction": (_float, 0.4),
    "opt.epochs": (_int, 60),
    "opt.batch_size": (_int, 32),
    "opt.lr_init": (_float, 0.05),
    "opt.lr_final": (_float, 1e-4),
    "opt.momentum": (_float, 0.9),
    "opt.weight_decay": (_float, 1e-4),
    "stats.mode": (_str, "full"),
    "stats.after_deferred_only": (_int, 0),
    "eval.max_nontarget_per_target": (_float, 10.0),
    "eval.p_target": (_float, 0.01),
    "eval.c_miss": (_float, 1.0),
    "eval.c_fa": (_float, 1.0),
    "train.dataset": (_str, "dataset.csv"),
    "train.diagnostics": (_int, 0),
    "compare.variants": (_str, "am,daam,dasa"),
    "compare.seeds": (_str, "0,1,2,3,4"),
    "bound.trials": (_int, 50),
    "bound.samples": (_int, 100000),
    "grad.trials": (_int, 100),
    "grad.composed_trials": (_int, 10),
    "grad.epsilon": (_float, 6e-5),
}


def parse_value(key: str, raw: str):
    if key not in REGISTRY:
        raise ConfigError(f"unknown config key {key!r}")
    parser, _ = REGISTRY[key]
    try:
        return parser(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def parse_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {ln}: expected 'key = value'")
            key, raw = line.split("=", 1)
            key = key.strip()
            values[key] = parse_value(key, raw)
    return values


def resolve(file_values: dict | None = None, overrides: dict | None = None) -> dict:
    """Defaults, then file values, then overrides; all keys present after."""
    cfg = {k: d for k, (_, d) in REGISTRY.items()}
    for source in (file_values, overrides):
        if source:
            for k, v in source.items():
                if k not in REGISTRY:
                    raise ConfigError(f"unknown config key {k!r}")
                cfg[k] = v
    return cfg


def serialize(cfg: dict) -> str:
    """Deterministic text form; parsing it back yields identical values."""
    lines = []
    for key in sorted(cfg):
        v = cfg[key]
        if isinstance(v, float):
            text = repr(v)
        else:
            text = str(v)
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def write_config(path, cfg: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(cfg))


def hidden_sizes(cfg: dict) -> list:
    text = cfg["model.hidden"].strip()
    if not text:
        return []
    try:
        return [int(s.strip(), 10) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad value for 'model.hidden': {cfg['model.hidden']!r}") from None


def to_synth_spec(cfg: dict) -> SynthSpec:
    return SynthSpec(
        num_classes=cfg["data.num_classes"],
        dim=cfg["data.dim"],
        samples_per_class=cfg["data.samples_per_class"],
        sigma=cfg["data.sigma"],
        anisotropy=cfg["data.anisotropy"],
        hard_pair_fraction=cfg["data.hard_pair_fraction"],
        seed=cfg["seed"],
    )


def to_loss_config(cfg: dict, variant: str | None = None) -> LossConfig:
    v = variant if variant is not None else cfg["loss.variant"]
    difficulty = cfg["loss.difficulty"]
    if v in ("softmax", "isda", "am"):
        difficulty = "none"
    return LossConfig(
        variant=v,
        difficulty=difficulty,
        strength_mode=cfg["loss.strength_mode"],
        lambda0=cfg["loss.lambda0"],
        gamma=cfg["loss.gamma"],
        ramp_total_iters=1,  # the trainer replaces this with its true horizon
        deferred_fraction=cfg["sched.deferred_fraction"],
    )


def to_dcf_params(cfg: dict) -> DcfParams:
    return DcfParams(p_target=cfg["eval.p_target"],
                     c_miss=cfg["eval.c_miss"],
                     c_fa=cfg["eval.c_fa"])


def to_train_settings(cfg: dict, seed: int | None = None,
                      diagnostics_path=None) -> TrainSettings:
    return TrainSettings(
        hidden=hidden_sizes(cfg),
        embed_dim=cfg["model.embed_dim"],
        epochs=cfg["opt.epochs"],
        batch_size=cfg["opt.batch_size"],
        lr_init=cfg["opt.lr_init"],
        lr_final=cfg["opt.lr_final"],
        momentum=cfg["opt.momentum"],
        weight_decay=cfg["opt.weight_decay"],
        scale=cfg["loss.scale"],
        margin=cfg["loss.margin"],
        cov_mode=cfg["stats.mode"],
        stats_after_deferred_only=bool(cfg["stats.after_deferred_only"]),
        max_nontarget_per_target=cfg["eval.max_nontarget_per_target"],
        dcf=to_dcf_params(cfg),
        seed=cfg["seed"] if seed is None else seed,
        diagnostics_path=diagnostics_path,
    )
