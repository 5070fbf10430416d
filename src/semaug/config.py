"""Flat "key = value" run configuration with dotted keys.

Files are UTF-8 text, one assignment per line; blank lines and lines
starting with '#' are skipped.  Unknown keys are errors, so typos fail
loudly.  Every run serializes its fully resolved configuration (defaults
plus file plus overrides) next to its outputs; re-running from that file
reproduces the outputs byte for byte.

Most keys stand for a field of a settings dataclass; ``FIELDS`` maps each
to its dataclass and field.  Such a key's default is the field's default,
so the library and the command line share one set of defaults, and the
``to_*`` builders fill each dataclass from the same table.
"""

from __future__ import annotations

import math

from .data import SynthSpec, utf8_error
from .losses import LossConfig
from .metrics import DcfParams
from .trainer import TrainSettings


class ConfigError(ValueError):
    pass


def _float(s: str) -> float:
    v = float(s)
    if math.isnan(v):
        raise ValueError("nan is not a valid config value")
    return v


# key -> (parser, dataclass, field); the key's default is the field's default
FIELDS = {
    "seed": (int, SynthSpec, "seed"),  # to_train_settings passes it on too
    "data.num_classes": (int, SynthSpec, "num_classes"),
    "data.dim": (int, SynthSpec, "dim"),
    "data.samples_per_class": (int, SynthSpec, "samples_per_class"),
    "data.sigma": (_float, SynthSpec, "sigma"),
    "data.anisotropy": (_float, SynthSpec, "anisotropy"),
    "data.hard_pair_fraction": (_float, SynthSpec, "hard_pair_fraction"),
    "model.hidden": (str, TrainSettings, "hidden"),
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
    "stats.after_deferred_only": (int, TrainSettings, "stats_after_deferred_only"),
    "eval.max_nontarget_per_target": (_float, TrainSettings, "max_nontarget_per_target"),
    "eval.p_target": (_float, DcfParams, "p_target"),
    "eval.c_miss": (_float, DcfParams, "c_miss"),
    "eval.c_fa": (_float, DcfParams, "c_fa"),
}


def hidden_sizes(cfg: dict) -> list:
    text = cfg["model.hidden"].strip()
    if not text:
        return []
    try:
        return [int(s.strip(), 10) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad value for 'model.hidden': {cfg['model.hidden']!r}") from None


# Keys whose value has another form than their field: key -> (cfg -> field
# value, field value -> key value).  "model.hidden" is text like "32,16".
_FORMS = {
    "model.hidden": (hidden_sizes, lambda sizes: ",".join(map(str, sizes))),
    "stats.after_deferred_only": (lambda cfg: bool(cfg["stats.after_deferred_only"]), int),
}


def _key_default(key: str, cls, name: str):
    value = getattr(cls(), name)
    return _FORMS[key][1](value) if key in _FORMS else value


# key -> (parser, default); the keys of FIELDS first, then those no dataclass holds
REGISTRY = {
    **{key: (parser, _key_default(key, cls, name)) for key, (parser, cls, name) in FIELDS.items()},
    "out": (str, "out"),
    "train.dataset": (str, "dataset.csv"),
    "train.diagnostics": (int, 0),
    "compare.variants": (str, "am,daam,dasa"),
    "compare.seeds": (str, "0,1,2,3,4"),
    "bound.trials": (int, 50),
    "bound.samples": (int, 100000),
    "grad.trials": (int, 100),
    "grad.composed_trials": (int, 10),
    "grad.epsilon": (_float, 6e-5),
}


def _build(cls, cfg: dict, **extra):
    """An instance of ``cls`` from its keys in ``cfg``; ``extra`` wins."""
    kwargs = {name: _FORMS[key][0](cfg) if key in _FORMS else cfg[key]
              for key, (_, owner, name) in FIELDS.items() if owner is cls}
    return cls(**{**kwargs, **extra})


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
    cfg = {k: d for k, (_, d) in REGISTRY.items()}
    for source in (file_values, overrides):
        for k, v in (source or {}).items():
            if k not in REGISTRY:
                raise ConfigError(f"unknown config key {k!r}")
            cfg[k] = v
    return cfg


def serialize(cfg: dict) -> str:
    """Deterministic text form; parsing it back yields identical values."""
    return "".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg))  # str(float) is repr


def write_config(path, cfg: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(cfg))


def to_synth_spec(cfg: dict) -> SynthSpec:
    return _build(SynthSpec, cfg)


def to_loss_config(cfg: dict, variant: str | None = None) -> LossConfig:
    """The loss set-up of ``cfg``, or of ``variant`` with the same keys.

    ``ramp_total_iters`` keeps its default; the trainer replaces it with
    its true horizon.
    """
    return _build(LossConfig, cfg, variant=cfg["loss.variant"] if variant is None else variant)


def to_dcf_params(cfg: dict) -> DcfParams:
    return _build(DcfParams, cfg)


def to_train_settings(cfg: dict, seed: int | None = None,
                      diagnostics_path=None) -> TrainSettings:
    return _build(TrainSettings, cfg, dcf=to_dcf_params(cfg),
                  seed=cfg["seed"] if seed is None else seed,
                  diagnostics_path=diagnostics_path)
