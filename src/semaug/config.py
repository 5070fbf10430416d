"""Flat "key = value" run configuration with dotted keys.

Files are UTF-8 text, one assignment per line; blank lines and lines
starting with '#' are skipped.  Unknown keys are errors, so typos fail
loudly.  Every run serializes its fully resolved configuration (defaults
plus file plus overrides) next to its outputs; re-running from that file
reproduces the outputs byte for byte.

Most keys stand for a field of a settings dataclass; ``FIELDS`` maps each
to its dataclass and field.  Such a key's default is the field's default,
so the library and the command line share one set of defaults, and
:func:`build` fills each dataclass from the same table.

A resolved ``cfg`` holds field values: each key's parser turns text into
the value its field takes, so a list key (``model.hidden``,
``compare.variants``, ``compare.seeds``) holds a list and a 0/1 flag a
bool.  Library callers of ``resolve(overrides=...)`` pass values in that
form.  :func:`serialize` is the one place a value becomes text again: a
list comma-joined, a bool as 0 or 1, anything else with ``str``.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field

from .data import SynthSpec, utf8_error
from .losses import VARIANTS, LossConfig
from .metrics import DcfParams
from .suites import BoundSettings, GradSettings
from .trainer import TrainSettings


class ConfigError(ValueError):
    pass


@dataclass
class CompareSettings:  # a variant named twice runs once
    variants: list = field(default_factory=lambda: ["am", "daam", "dasa"])
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])

    def __post_init__(self):
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"each variant must be one of {VARIANTS}, got {v!r}")
        if len(set(self.variants)) < 2:
            raise ValueError(f"compare needs at least 2 distinct variants, got {list(self.variants)}")
        if not self.seeds:
            raise ValueError("seeds must hold at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ValueError(f"seeds must be >= 0, got {list(self.seeds)}")


def _float(s: str) -> float:
    v = float(s)
    if math.isnan(v):
        raise ValueError("nan is not a valid config value")
    return v


def _flag(s: str) -> bool:
    v = int(s)
    if v not in (0, 1):
        raise ValueError(f"must be 0 or 1, got {v}")
    return bool(v)


def _ints(s: str) -> list:  # comma-separated; blank text is no ints
    try:
        return [int(v, 10) for v in s.split(",")] if s else []
    except ValueError:
        raise ValueError(repr(s)) from None


def _names(s: str) -> list:  # comma-separated; blank names are dropped
    return [v.strip() for v in s.split(",") if v.strip()]


# key -> (parser, dataclass, field); the key's default is the field's default
FIELDS = {
    "seed": (int, SynthSpec, "seed"),  # to_train_settings passes it on too
    "data.num_classes": (int, SynthSpec, "num_classes"),
    "data.dim": (int, SynthSpec, "dim"),
    "data.samples_per_class": (int, SynthSpec, "samples_per_class"),
    "data.sigma": (_float, SynthSpec, "sigma"),
    "data.anisotropy": (_float, SynthSpec, "anisotropy"),
    "data.hard_pair_fraction": (_float, SynthSpec, "hard_pair_fraction"),
    "model.hidden": (_ints, TrainSettings, "hidden"),
    "model.embed_dim": (int, TrainSettings, "embed_dim"),
    "loss.variant": (str, LossConfig, "variant"),
    "loss.difficulty": (str, LossConfig, "difficulty"),
    "loss.strength_mode": (str, LossConfig, "strength_mode"),
    "loss.lambda0": (_float, LossConfig, "lambda0"),
    "loss.gamma": (_float, LossConfig, "gamma"),
    "loss.scale": (_float, TrainSettings, "scale"),
    "loss.margin": (_float, TrainSettings, "margin"),
    "sched.deferred_fraction": (_float, LossConfig, "deferred_fraction"),
    "opt.epochs": (int, TrainSettings, "epochs"),
    "opt.batch_size": (int, TrainSettings, "batch_size"),
    "opt.lr_init": (_float, TrainSettings, "lr_init"),
    "opt.lr_final": (_float, TrainSettings, "lr_final"),
    "opt.momentum": (_float, TrainSettings, "momentum"),
    "opt.weight_decay": (_float, TrainSettings, "weight_decay"),
    "stats.mode": (str, TrainSettings, "cov_mode"),
    "stats.after_deferred_only": (_flag, TrainSettings, "stats_after_deferred_only"),
    "eval.max_nontarget_per_target": (_float, TrainSettings, "max_nontarget_per_target"),
    "eval.p_target": (_float, DcfParams, "p_target"),
    "eval.c_miss": (_float, DcfParams, "c_miss"),
    "eval.c_fa": (_float, DcfParams, "c_fa"),
    "compare.variants": (_names, CompareSettings, "variants"),
    "compare.seeds": (_ints, CompareSettings, "seeds"),
    "bound.trials": (int, BoundSettings, "trials"),
    "bound.samples": (int, BoundSettings, "samples"),
    "grad.trials": (int, GradSettings, "trials"),
    "grad.composed_trials": (int, GradSettings, "composed_trials"),
    "grad.epsilon": (_float, GradSettings, "epsilon"),
}


# key -> (parser, default); the keys of FIELDS first, then those no dataclass holds
REGISTRY = {
    **{key: (parser, getattr(cls(), name)) for key, (parser, cls, name) in FIELDS.items()},
    "out": (str, "out"),
    "train.dataset": (str, "dataset.csv"),
    "train.diagnostics": (_flag, False),
}


def build(cls, cfg: dict, **extra):
    """An instance of ``cls`` from its keys in ``cfg``; ``extra`` wins.  A
    field no key names, like ``LossConfig.ramp_total_iters``, keeps its
    default."""
    kwargs = {name: cfg[key] for key, (_, owner, name) in FIELDS.items() if owner is cls}
    return cls(**{**kwargs, **extra})


def parse_value(key: str, raw: str):
    """The value of ``key`` parsed from ``raw``.  A key that sets a field
    is checked by building its dataclass with that field alone, so a
    value out of range fails here, naming the key."""
    if key not in REGISTRY:
        raise ConfigError(f"unknown config key {key!r}")
    parser, _ = REGISTRY[key]
    try:
        value = parser(raw.strip())
        if key in FIELDS:
            _, cls, name = FIELDS[key]
            cls(**{name: value})
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None
    return value


def parse_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError:
            raise utf8_error(path) from None
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {ln}: expected 'key = value'")
        key, raw = line.split("=", 1)
        key = key.strip()
        try:
            values[key] = parse_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}: line {ln}: {exc}") from None
    return values


def resolve(file_values: dict | None = None, overrides: dict | None = None) -> dict:
    """Defaults, then file values, then overrides; all keys present after."""
    cfg = {k: copy(d) for k, (_, d) in REGISTRY.items()}  # a list default is not shared
    for source in (file_values, overrides):
        for k, v in (source or {}).items():
            if k not in REGISTRY:
                raise ConfigError(f"unknown config key {k!r}")
            cfg[k] = v
    return cfg


def _text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(str, value))
    if isinstance(value, bool):
        return str(int(value))
    return str(value)  # str(float) is repr


def serialize(cfg: dict) -> str:
    """Deterministic text form; parsing it back yields identical values."""
    return "".join(f"{key} = {_text(cfg[key])}\n" for key in sorted(cfg))


def write_config(path, cfg: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(cfg))


def to_train_settings(cfg: dict, seed: int | None = None,
                      diagnostics_path=None) -> TrainSettings:
    return build(TrainSettings, cfg, dcf=build(DcfParams, cfg),
                 seed=cfg["seed"] if seed is None else seed,
                 diagnostics_path=diagnostics_path)
