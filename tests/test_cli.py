"""Command-line flows: exit codes, produced files, reproducibility from
the recorded resolved config, and the scoring round trip."""

import re
import subprocess
import sys

import numpy as np
import pytest

from semaug import cli
from semaug.cli import entry
from semaug.data import write_embeddings
from semaug.metrics import TrialSet, write_trials
from semaug.trainer import train

TINY_DATA = [
    "--set", "data.num_classes=3",
    "--set", "data.dim=6",
    "--set", "data.samples_per_class=8",
]
TINY_TRAIN = TINY_DATA + [
    "--set", "model.hidden=8",
    "--set", "model.embed_dim=4",
    "--set", "opt.epochs=2",
    "--set", "opt.batch_size=8",
]


def run_gen(tmp_path, name="gen", extra=()):
    out = tmp_path / name
    code = entry(["gen", "--out", str(out), *TINY_DATA, *extra])
    assert code == 0
    return out


def test_gen_writes_dataset_and_config(tmp_path, capsys):
    out = run_gen(tmp_path)
    assert (out / "dataset.csv").is_file()
    assert (out / "gen.config").is_file()
    assert str(out / "dataset.csv") in capsys.readouterr().out


def test_gen_rerun_from_recorded_config_is_byte_identical(tmp_path):
    a = run_gen(tmp_path, "a", extra=["--seed", "5"])
    b = tmp_path / "b"
    code = entry(["gen", "--config", str(a / "gen.config"), "--out", str(b)])
    assert code == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


def test_train_then_score_reproduces_the_metrics_line(tmp_path, capsys):
    gen_out = run_gen(tmp_path)
    train_out = tmp_path / "train"
    code = entry(["train", "--out", str(train_out), *TINY_TRAIN,
                  "--set", f"train.dataset={gen_out / 'dataset.csv'}"])
    assert code == 0
    train_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert re.fullmatch(r"EER\(%\)=\d+\.\d{3} minDCF=\d+\.\d{3}", train_line)
    for name in ("metrics.csv", "model.csv", "bank.csv", "embeddings.csv",
                 "trials.csv", "train.config"):
        assert (train_out / name).is_file(), name

    score_out = tmp_path / "score"
    code = entry(["score", "--out", str(score_out),
                  str(train_out / "embeddings.csv"), str(train_out / "trials.csv")])
    assert code == 0
    score_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert score_line == train_line
    assert (score_out / "scores.csv").is_file()


def test_train_prints_the_fallback_count_to_stderr_only(tmp_path, capsys, monkeypatch):
    """The embedder's all-dead fallback count goes to standard error after
    the metrics line; standard output is that line alone."""
    gen_out = run_gen(tmp_path)
    capsys.readouterr()
    argv = ["train", "--out", str(tmp_path / "t"), *TINY_TRAIN, "--set", f"train.dataset={gen_out / 'dataset.csv'}"]
    assert entry(argv) == 0
    out, err = capsys.readouterr()
    assert re.fullmatch(r"EER\(%\)=\d+\.\d{3} minDCF=\d+\.\d{3}\n", out) and err == "fallbacks=0\n"

    def with_fallbacks(*args):
        run = train(*args)
        run.embedder.fallback_count = 5
        return run

    monkeypatch.setattr(cli, "train", with_fallbacks)
    assert entry(argv) == 0
    assert capsys.readouterr() == (out, "fallbacks=5\n")


def test_train_rerun_is_byte_identical(tmp_path):
    gen_out = run_gen(tmp_path)
    outs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        code = entry(["train", "--out", str(out), *TINY_TRAIN,
                      "--set", f"train.dataset={gen_out / 'dataset.csv'}"])
        assert code == 0
        outs.append(out)
    for name in ("metrics.csv", "model.csv", "bank.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_train_reports_missing_dataset(tmp_path, capsys):
    code = entry(["train", "--out", str(tmp_path / "x"), *TINY_TRAIN,
                  "--set", "train.dataset=no_such_file.csv"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("lr,quantity", [("1e308", "parameters"), ("1e300", "eval embeddings")])
def test_divergence_in_the_last_step_exits_3(tmp_path, capsys, lr, quantity):
    """One batch per epoch, so the step that blows up is the epoch's last:
    1e308 overflows the weights themselves, 1e300 only the eval forward."""
    data = tmp_path / "gen" / "dataset.csv"
    assert entry(["gen", "--out", str(data.parent), "--set", "data.num_classes=4",
                  "--set", "data.samples_per_class=10"]) == 0
    capsys.readouterr()
    code = entry(["train", "--out", str(tmp_path / "t"), "--set", f"train.dataset={data}",
                  "--set", f"opt.lr_init={lr}", "--set", "opt.epochs=1"])
    assert code == 3
    assert f"numerical failure: non-finite {quantity} at iteration 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sets,quantity", [
    (("opt.lr_init=1e200", "opt.lr_final=1e200"), "embedding at iteration 1"),
    (("loss.variant=isda", "loss.lambda0=1e300", "sched.deferred_fraction=0"), "loss at iteration 2"),
])
def test_a_diverged_run_prints_only_its_exit_3_line(tmp_path, capsys, sets, quantity):
    """Floating-point warnings stay silent even where warnings are errors:
    the one line on stderr names the quantity that went non-finite."""
    gen_out = run_gen(tmp_path)
    capsys.readouterr()
    overrides = [arg for kv in sets for arg in ("--set", kv)]
    code = entry(["train", "--out", str(tmp_path / "t"), *TINY_TRAIN,
                  "--set", f"train.dataset={gen_out / 'dataset.csv'}", *overrides])
    assert code == 3
    assert capsys.readouterr().err == f"numerical failure: non-finite {quantity}\n"


def test_infinite_learning_rate_exits_2(tmp_path, capsys):
    gen_out = run_gen(tmp_path)
    code = entry(["train", "--out", str(tmp_path / "t"), *TINY_TRAIN, "--set", "opt.lr_init=inf",
                  "--set", f"train.dataset={gen_out / 'dataset.csv'}"])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_compare_trains_every_variant_per_seed(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = entry(["compare", "--out", str(out), *TINY_TRAIN,
                  "--set", "compare.variants=am,dasa",
                  "--set", "compare.seeds=0,1"])
    assert code == 0
    rows = (out / "compare.csv").read_text().strip().splitlines()
    assert rows[0] == "variant,difficulty,strength_mode,lambda0,seed,eer,min_dcf"
    assert len(rows) == 1 + 4
    variants = {line.split(",")[0] for line in rows[1:]}
    assert variants == {"am", "dasa"}


def test_compare_deduplicates_variants(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = entry(["compare", "--out", str(out), *TINY_TRAIN,
                  "--set", "compare.variants=am,am,dasa",
                  "--set", "compare.seeds=0"])
    assert code == 0
    assert "duplicate" in capsys.readouterr().err
    rows = (out / "compare.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2


def test_compare_needs_two_variants(tmp_path, capsys):
    code = entry(["compare", "--out", str(tmp_path / "cmp"), *TINY_TRAIN,
                  "--set", "compare.variants=am,am"])
    assert code == 2
    assert "2 distinct variants" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_bound_check_small_run_passes(tmp_path, capsys):
    out = tmp_path / "bc"
    code = entry(["bound-check", "--out", str(out),
                  "--set", "bound.trials=2", "--set", "bound.samples=2000"])
    assert code == 0
    assert "all 6 trials within tolerance" in capsys.readouterr().out
    header = (out / "bound_check.csv").read_text().splitlines()[0]
    assert header == "trial,variant,lambda,M,mc_mean,se,bound,slack,z_score"


def test_bound_check_failure_names_each_failing_family(tmp_path, capsys, monkeypatch):
    import semaug.cli
    from semaug.montecarlo import McReport
    from semaug.suites import BoundTrial

    def trial(k, family, z, slack):
        rep = McReport(mean=1.0, std_error=0.1, samples=200, bound_value=1.0 + slack,
                       slack=slack, z_score=z)
        return BoundTrial(trial=k, family=family, lam=0.5, report=rep)

    results = ([trial(k, "ce", 1.0, 0.2) for k in range(4)]
               + [trial(k, "margin", 0.5, -0.1) for k in range(4)]
               + [trial(0, "margin_da", -4.0, 0.3), trial(1, "margin_da", 0.5, 0.3)])
    monkeypatch.setattr(semaug.cli, "jensen_suite", lambda trials, count, seed: results)
    assert entry(["bound-check", "--out", str(tmp_path / "bc")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "bound violated: family=margin_da trial=0 z=-4.00",
        "bound family failed: family=margin mean_slack=-1.000e-01 z_below_-3=0/4 z_nan=0",
        "bound family failed: family=margin_da mean_slack=3.000e-01 z_below_-3=1/2 z_nan=0",
        "bound check FAILED",
    ]


def test_bound_check_rejects_tiny_sample_counts(tmp_path, capsys):
    code = entry(["bound-check", "--out", str(tmp_path / "bc"),
                  "--set", "bound.samples=50"])
    assert code == 2
    assert "100" in capsys.readouterr().err


def test_bound_check_with_zero_trials_passes_and_writes_a_header(tmp_path, capsys):
    # a run that checks nothing measures start-up alone
    out = tmp_path / "bc"
    assert entry(["bound-check", "--out", str(out), "--set", "bound.trials=0"]) == 0
    assert "all 0 trials within tolerance" in capsys.readouterr().out
    assert (out / "bound_check.csv").read_text() == "trial,variant,lambda,M,mc_mean,se,bound,slack,z_score\n"


def test_bound_check_reports_an_impossible_sample_count_as_a_usage_error(tmp_path, capsys):
    # 80 TB of draws: numpy refuses the allocation at once, before any page is touched
    out = tmp_path / "bc"
    assert entry(["bound-check", "--out", str(out), "--set", "bound.trials=1",
                  "--set", "bound.samples=10000000000000"]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate ")
    assert not out.exists()


def test_grad_check_small_run_passes(tmp_path, capsys):
    out = tmp_path / "gc"
    code = entry(["grad-check", "--out", str(out),
                  "--set", "grad.trials=2", "--set", "grad.composed_trials=1"])
    assert code == 0
    assert "below 1e-05" in capsys.readouterr().out
    rows = (out / "grad_check.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 5 + 1


def test_a_failed_check_leaves_its_config_and_an_error_leaves_none(tmp_path, capsys, monkeypatch):
    import semaug.cli
    from semaug.suites import GradTrial

    failed = [GradTrial(kind="loss", variant="am", trial=0, max_rel_error=1.0)]
    monkeypatch.setattr(semaug.cli, "gradcheck_suite", lambda trials, epsilon, seed: failed)
    out = tmp_path / "gc"
    assert entry(["grad-check", "--out", str(out), "--set", "grad.composed_trials=0"]) == 3
    assert "gradient check FAILED" in capsys.readouterr().err
    assert (out / "grad_check.config").is_file()

    out = tmp_path / "train"
    assert entry(["train", "--out", str(out), "--set", f"train.dataset={tmp_path / 'none.csv'}"]) == 2
    assert not (out / "train.config").exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_a_run_that_fails_in_training_leaves_no_out_directory(tmp_path, capsys, command):
    """The trial cap keeps no nontarget pair, so training fails in
    build_trials before any output is written."""
    extra = ["--set", f"train.dataset={run_gen(tmp_path) / 'dataset.csv'}"] if command == "train" else []
    out = tmp_path / "out"
    code = entry([command, "--out", str(out), *TINY_TRAIN, *extra,
                  "--set", "eval.max_nontarget_per_target=0.0001"])
    assert code == 2
    assert "keeps no nontarget pair" in capsys.readouterr().err
    assert not out.exists()


# Seed 39 first draws loss/daam trial 29 with cos_y = 1 - 1.47e-5, where the
# default stencil would straddle the difficulty clamp at 1; the suite redraws
# that embedding (tests/test_suites.py checks the gradient at the original).
GRAD_CHECK_SEEDS = list(range(11, 41))


@pytest.mark.parametrize("seed", GRAD_CHECK_SEEDS)
def test_grad_check_passes_at_default_settings(tmp_path, seed):
    """The full default suite (100 trials per loss variant, 10 composed)
    stays under the 1e-5 gate at these seeds."""
    assert entry(["grad-check", "--seed", str(seed), "--out", str(tmp_path / "gc")]) == 0


def test_grad_check_rejects_bad_epsilon(tmp_path, capsys):
    code = entry(["grad-check", "--out", str(tmp_path / "gc"),
                  "--set", "grad.epsilon=1e-8", "--set", "grad.trials=1",
                  "--set", "grad.composed_trials=1"])
    assert code == 2
    assert "epsilon" in capsys.readouterr().err


def test_score_accepts_sparse_indices(tmp_path, capsys):
    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((4, 3))
    write_embeddings(tmp_path / "emb.csv", [10, 20, 30, 41], vecs)
    trials = TrialSet(index_a=np.array([10, 10, 30]),
                      index_b=np.array([20, 30, 41]),
                      is_target=np.array([True, False, True]))
    write_trials(tmp_path / "trials.csv", trials)
    code = entry(["score", "--out", str(tmp_path / "s"),
                  str(tmp_path / "emb.csv"), str(tmp_path / "trials.csv")])
    assert code == 0
    assert "EER" in capsys.readouterr().out


def test_score_reads_embedding_rows_in_any_order(tmp_path, capsys):
    # the same rows, written in index order and shuffled, with gaps in the indices
    rng = np.random.default_rng(2)
    index = np.array([1, 4, 7, 8, 13, 40, 41, 57, 90, 91, 300, 1000])
    vecs = rng.standard_normal((index.size, 4))
    a, b = np.triu_indices(index.size, 1)
    trials = TrialSet(index_a=index[a], index_b=index[b], is_target=a % 3 == b % 3)
    write_trials(tmp_path / "trials.csv", trials)
    perm = rng.permutation(index.size)
    assert not np.all(np.diff(index[perm]) > 0)
    write_embeddings(tmp_path / "sorted.csv", index, vecs)
    write_embeddings(tmp_path / "shuffled.csv", index[perm], vecs[perm])
    outputs = []
    for name in ("sorted", "shuffled"):
        assert entry(["score", "--out", str(tmp_path / name), str(tmp_path / f"{name}.csv"),
                      str(tmp_path / "trials.csv")]) == 0
        outputs.append((capsys.readouterr().out, (tmp_path / name / "scores.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    # an index in a gap or past the last one is still missing
    write_trials(tmp_path / "gaps.csv", TrialSet(index_a=np.array([1, 5]), index_b=np.array([2000, 7]),
                                                 is_target=np.array([True, False])))
    assert entry(["score", "--out", str(tmp_path / "g"), str(tmp_path / "shuffled.csv"),
                  str(tmp_path / "gaps.csv")]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'gaps.csv'}: indices missing from embeddings: [5, 2000]\n"


def test_score_reports_unknown_indices(tmp_path, capsys):
    vecs = np.eye(3)
    write_embeddings(tmp_path / "emb.csv", [0, 1, 2], vecs)
    trials = TrialSet(index_a=np.array([12, 1]), index_b=np.array([1, 9]),
                      is_target=np.array([True, False]))
    write_trials(tmp_path / "trials.csv", trials)
    code = entry(["score", "--out", str(tmp_path / "s"),
                  str(tmp_path / "emb.csv"), str(tmp_path / "trials.csv")])
    assert code == 2
    # plain ints, not numpy reprs such as np.int64(9)
    assert capsys.readouterr().err == f"error: {tmp_path / 'trials.csv'}: indices missing from embeddings: [9, 12]\n"


@pytest.mark.parametrize("kind,is_target", [("target", [False, False]), ("nontarget", [True, True])])
def test_score_needs_a_target_and_a_nontarget_trial(tmp_path, capsys, kind, is_target):
    write_embeddings(tmp_path / "emb.csv", [0, 1, 2], np.eye(3))
    write_trials(tmp_path / "trials.csv", TrialSet(index_a=np.array([0, 0]), index_b=np.array([1, 2]),
                                                   is_target=np.array(is_target)))
    code = entry(["score", "--out", str(tmp_path / "s"),
                  str(tmp_path / "emb.csv"), str(tmp_path / "trials.csv")])
    assert code == 2
    # the line after the last row, as for a file with no data rows
    assert capsys.readouterr().err == f"error: {tmp_path / 'trials.csv'}: line 4: no {kind} trial\n"
    assert not (tmp_path / "s").exists()


def test_bad_overrides_exit_with_usage_error(tmp_path, capsys):
    assert entry(["gen", "--out", str(tmp_path / "g"), "--set", "no.such.key=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert entry(["gen", "--out", str(tmp_path / "g"), "--set", "seed"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        entry([])


def test_module_entry_point_help_runs():
    proc = subprocess.run([sys.executable, "-m", "semaug", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("gen", "train", "compare", "bound-check", "grad-check", "score"):
        assert name in proc.stdout
    for name in cli.COMMANDS:  # every subcommand of the one table takes the common options
        proc = subprocess.run([sys.executable, "-m", "semaug", name, "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, name
        for option in ("--config", "--seed", "--out", "--set"):
            assert option in proc.stdout, (name, option)
        if name == "score":
            assert "embeddings" in proc.stdout and "trials" in proc.stdout
