"""Configuration parsing: strict keys, typed values, round-trips, and the
constructors that turn a flat config into component settings."""

import pytest

from semaug.cli import entry
from semaug.config import (
    REGISTRY,
    CompareSettings,
    ConfigError,
    build,
    parse_config_file,
    parse_value,
    resolve,
    serialize,
    to_train_settings,
    write_config,
)
from semaug.data import SynthSpec
from semaug.losses import LossConfig
from semaug.metrics import DcfParams
from semaug.suites import BoundSettings, GradSettings
from semaug.trainer import TrainSettings


def test_resolve_defaults_covers_every_key():
    cfg = resolve()
    assert set(cfg) == set(REGISTRY)
    assert cfg["loss.variant"] == "dasa"
    assert cfg["opt.epochs"] == 60


def test_a_resolved_list_is_not_the_registry_default():
    cfg = resolve()
    cfg["model.hidden"].append(8)
    cfg["compare.seeds"].clear()
    assert resolve()["model.hidden"] == [64]
    assert resolve()["compare.seeds"] == [0, 1, 2, 3, 4]


def test_resolve_precedence():
    cfg = resolve({"opt.epochs": 5}, {"opt.epochs": 9, "seed": 3})
    assert cfg["opt.epochs"] == 9
    assert cfg["seed"] == 3
    assert cfg["opt.batch_size"] == 32  # untouched default


def test_unknown_keys_fail_loudly():
    with pytest.raises(ConfigError, match="unknown"):
        parse_value("opt.lr", "0.1")
    with pytest.raises(ConfigError, match="unknown"):
        resolve({"opt.epoch": 5})


def test_typed_parsing_and_bad_values():
    assert parse_value("opt.epochs", " 12 ") == 12
    assert parse_value("opt.lr_init", "1e-3") == 1e-3
    assert parse_value("loss.variant", "am") == "am"
    with pytest.raises(ConfigError, match="opt.epochs"):
        parse_value("opt.epochs", "twelve")
    with pytest.raises(ConfigError, match="nan"):
        parse_value("opt.lr_init", "nan")


@pytest.mark.parametrize("key,value,message", [
    ("data.num_classes", "1", "num_classes must be >= 2, got 1"),
    ("loss.gamma", "0", "gamma must be positive, got 0.0"),
    ("opt.lr_init", "inf", "learning rates must be positive and finite"),
    ("eval.p_target", "1.5", "p_target must be in (0, 1), got 1.5"),
    ("model.hidden", "8,x", "'8,x'"),
    ("model.hidden", "a,b", "'a,b'"),
    ("model.hidden", "0", "hidden sizes must be >= 1, got [0]"),
    ("model.hidden", "16,-2", "hidden sizes must be >= 1, got [16, -2]"),
    ("model.embed_dim", "0", "embed_dim must be >= 1, got 0"),
    ("stats.mode", "bogus", "cov_mode must be 'full' or 'diagonal', got 'bogus'"),
    ("data.sigma", "inf", "sigma must be positive and finite, got inf"),
    ("loss.lambda0", "inf", "lambda0 must be >= 0 and finite, got inf"),
    ("loss.gamma", "inf", "gamma must be finite, got inf"),
    ("eval.c_miss", "inf", "costs must be positive and finite"),
    ("eval.c_fa", "inf", "costs must be positive and finite"),
    ("loss.scale", "inf", "scale must be positive and finite, got inf"),
    ("loss.scale", "0", "scale must be positive and finite, got 0.0"),
    ("loss.margin", "-1", "margin must be nonnegative and finite, got -1.0"),
    ("loss.margin", "inf", "margin must be nonnegative and finite, got inf"),
    ("opt.weight_decay", "inf", "weight_decay must be >= 0 and finite"),
    ("eval.max_nontarget_per_target", "0", "max_nontarget_per_target must be > 0, got 0.0"),
    ("eval.max_nontarget_per_target", "-1", "max_nontarget_per_target must be > 0, got -1.0"),
    ("stats.after_deferred_only", "-7", "must be 0 or 1, got -7"),
    ("train.diagnostics", "42", "must be 0 or 1, got 42"),
    ("grad.trials", "-1", "trials must be >= 0, got -1"),
    ("grad.composed_trials", "-3", "composed_trials must be >= 0, got -3"),
    ("bound.trials", "-2", "trials must be >= 0, got -2"),
    ("bound.samples", "5", "count must be >= 100, got 5"),
    ("bound.samples", "2001", "count must be even: the draws come in antithetic pairs, got 2001"),
    ("grad.epsilon", "1e-3", "epsilon must be in [1e-7, 1e-4], got 0.001"),
    ("compare.variants", "am,bogus",
     "each variant must be one of ('softmax', 'isda', 'am', 'daam', 'dasa'), got 'bogus'"),
    ("compare.variants", "am", "compare needs at least 2 distinct variants, got ['am']"),
    ("compare.seeds", "0,-1", "seeds must be >= 0, got [0, -1]"),
    ("compare.seeds", "", "seeds must hold at least one seed"),
])
def test_a_value_its_dataclass_rejects_names_key_and_source(tmp_path, capsys, key, value, message):
    expected = f"bad value for {key!r}: {message}"
    assert entry(["gen", "--out", str(tmp_path / "g"), "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    path = tmp_path / "run.config"
    path.write_text(f"seed = 1\n{key} = {value}\n")
    assert entry(["gen", "--out", str(tmp_path / "g"), "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 2: {expected}\n"
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("key,value", [("stats.mode", "bogus"), ("model.hidden", "0"), ("model.embed_dim", "0")])
def test_train_rejects_a_model_or_bank_setting_before_reading_its_dataset(tmp_path, capsys, key, value):
    # the dataset does not exist: the setting must fail first, naming its key
    out = tmp_path / "run"
    assert entry(["train", "--out", str(out), "--set", f"train.dataset={tmp_path / 'none.csv'}",
                  "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad value for {key!r}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "train", "bound-check", "grad-check"])
def test_a_negative_seed_fails_naming_its_key_before_any_file_is_touched(tmp_path, capsys, command):
    # --seed goes through the same parser as --set seed=, ahead of the missing dataset
    out = tmp_path / "run"
    assert entry([command, "--seed", "-1", "--out", str(out),
                  "--set", f"train.dataset={tmp_path / 'none.csv'}"]) == 2
    assert capsys.readouterr().err == "error: bad value for 'seed': seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_every_default_round_trips_through_its_text(key):
    default = REGISTRY[key][1]
    line = serialize({key: default})
    value = parse_value(key, line.split(" = ", 1)[1])
    assert value == default
    assert type(value) is type(default)
    assert serialize({key: value}) == line


@pytest.mark.parametrize("key,raw,value,text", [
    ("model.hidden", "32, 16", [32, 16], "32,16"),
    ("model.hidden", "", [], ""),
    ("compare.variants", " softmax ,,isda", ["softmax", "isda"], "softmax,isda"),
    ("compare.seeds", "7,0, 3", [7, 0, 3], "7,0,3"),
    ("stats.after_deferred_only", "1", True, "1"),
    ("train.diagnostics", "1", True, "1"),
    ("train.diagnostics", "0", False, "0"),
])
def test_a_list_or_flag_parses_to_its_field_value_and_back(key, raw, value, text):
    parsed = parse_value(key, raw)
    assert parsed == value
    assert type(parsed) is type(value)
    assert serialize({key: parsed}) == f"{key} = {text}\n"
    assert parse_value(key, text) == value


def test_config_file_round_trip_is_exact(tmp_path):
    cfg = resolve(overrides={"opt.lr_final": 3.0000000000000004e-05,
                             "loss.lambda0": 0.1, "model.hidden": [32, 16]})
    path = tmp_path / "run.config"
    write_config(path, cfg)
    back = resolve(parse_config_file(path))
    assert back == cfg


def test_config_file_syntax(tmp_path):
    path = tmp_path / "run.config"
    path.write_text("# comment\n\nseed = 4\nopt.epochs=7\n")
    vals = parse_config_file(path)
    assert vals == {"seed": 4, "opt.epochs": 7}
    path.write_text("seed 4\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_file(path)
    path.write_text("seed = 1\nbogus.key = 2\n")
    with pytest.raises(ConfigError, match="bogus.key"):
        parse_config_file(path)


def test_serialize_is_sorted_and_reparseable():
    text = serialize(resolve())
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert keys == sorted(keys)
    assert "opt.lr_final = 0.0001" in text
    # a list is written comma-joined, a flag as 0 or 1
    assert "model.hidden = 64\n" in text
    assert "stats.after_deferred_only = 0\n" in text


def test_library_defaults_are_the_registry_defaults():
    cfg = resolve()
    for cls in (SynthSpec, LossConfig, DcfParams, GradSettings, BoundSettings, CompareSettings):
        assert build(cls, cfg) == cls()
    assert to_train_settings(cfg) == TrainSettings()


def test_synth_spec_constructor():
    spec = build(SynthSpec, resolve(overrides={"seed": 9, "data.sigma": 0.4}))
    assert spec.seed == 9
    assert spec.sigma == 0.4
    assert spec.num_classes == 20


def test_loss_config_constructor_coerces_modes():
    cfg = resolve()
    dasa = build(LossConfig, cfg)
    assert dasa.variant == "dasa"
    assert dasa.difficulty == "DA"
    assert dasa.strength_mode == "DA"
    am = build(LossConfig, cfg, variant="am")
    assert am.difficulty == "none"
    assert am.strength_mode == "constant"
    soft = build(LossConfig, cfg, variant="softmax")
    assert soft.difficulty == "none"
    daam = build(LossConfig, cfg, variant="daam")
    assert daam.difficulty == "DA"
    assert daam.strength_mode == "constant"


def test_train_settings_constructor():
    cfg = resolve(overrides={"stats.after_deferred_only": True, "eval.p_target": 0.05})
    st = to_train_settings(cfg, seed=7, diagnostics_path="d.csv")
    assert st.seed == 7
    assert st.stats_after_deferred_only is True
    assert st.dcf.p_target == 0.05
    assert st.hidden == [64]
    assert st.diagnostics_path == "d.csv"
    assert to_train_settings(cfg).seed == cfg["seed"]
