"""The three workloads: their inputs, the commands of one unit, and the
checks of a unit's outputs.

Each workload pins every config key its checks depend on in a config file
of its own, so a later change to the registry defaults does not change
what is measured.  A unit is a fixed list of `semaug` commands; every unit
of a run issues the same commands on the same inputs.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

import checks
from checks import CHECK_ERRORS, require

DCF = (0.01, 1.0, 1.0)   # eval.p_target, eval.c_miss, eval.c_fa


def report(label: str, eer: float, min_dcf: float) -> None:
    """Recomputed verification figures, for the record (standard error)."""
    print(f"[bench] {label}: EER(%)={100.0 * eer:.3f} minDCF={min_dcf:.3f}", file=sys.stderr, flush=True)


def write_config(path, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


class Workload:
    name = ""
    config: dict = {}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.config_path = os.path.join(workdir, f"{self.name}.config")
        write_config(self.config_path, self.config)

    def common(self, out: str) -> list:
        return ["--config", self.config_path, "--seed", str(self.seed), "--out", out]

    def setup_argv(self, k: int) -> list:
        """`semaug` arguments of the k-th set-up process."""
        raise NotImplementedError

    def prepare(self, setup_dirs: list) -> None:
        """Read the inputs the set-up processes wrote."""

    def commands(self) -> list:
        """(argv, output files) of each command of one unit."""
        raise NotImplementedError

    work_per_unit = 0
    visits_per_unit = 0      # training-sample visits in one unit

    def check(self, outputs: list) -> list:
        """Check the first unit's outputs; returns one message (or None)
        per command.  ``outputs`` holds (exit code, stdout) per command."""
        raise NotImplementedError


class _TrainWorkload(Workload):
    variants: list = []

    def setup_argv(self, k):
        return ["gen"] + self.common(os.path.join(self.workdir, f"setup-{k}"))

    def prepare(self, setup_dirs):
        first = os.path.join(setup_dirs[0], "dataset.csv")
        with open(first, "rb") as fh:
            data = fh.read()
        for d in setup_dirs[1:]:
            with open(os.path.join(d, "dataset.csv"), "rb") as fh:
                require(fh.read() == data, f"{d}/dataset.csv differs from {first}")
        self.dataset = first
        self.features, self.labels, self.is_eval = checks.read_dataset(first)
        self.eval_labels = self.labels[self.is_eval]
        self.train_counts = np.bincount(self.labels[~self.is_eval], minlength=self.labels.max() + 1)
        self.n_train = int(self.train_counts.sum())
        self.epochs = int(self.config["opt.epochs"])
        self.iters_per_epoch = math.ceil(self.n_train / int(self.config["opt.batch_size"]))
        self.work_per_unit = len(self.variants) * self.epochs * self.n_train
        self.visits_per_unit = self.work_per_unit

    def run_dir(self, i: int) -> str:
        return os.path.join(self.workdir, f"run-{i}")

    def commands(self):
        out = []
        for i, (variant, extra) in enumerate(self.variants):
            d = self.run_dir(i)
            argv = ["train"] + self.common(d) + ["--set", f"train.dataset={self.dataset}",
                                                 "--set", f"loss.variant={variant}"]
            for item in extra:
                argv += ["--set", item]
            files = ["metrics.csv", "model.csv", "bank.csv", "embeddings.csv", "trials.csv"]
            out.append((argv, [os.path.join(d, f) for f in files]))
        return out

    def check_train(self, i: int, variant: str, line: str) -> tuple:
        d = self.run_dir(i)
        eer, mdcf = checks.check_verification(d, self.eval_labels, DCF)
        checks.check_metric_line(line, eer, mdcf, f"{d}: semaug train")
        checks.check_schedule(d, variant, self.epochs, self.iters_per_epoch,
                              float(self.config["sched.deferred_fraction"]))
        return eer, mdcf


class TrainToy(_TrainWorkload):
    """The registry defaults, cycling through every loss variant."""

    name = "train-toy"
    config = {
        "data.num_classes": 20, "data.dim": 20, "data.samples_per_class": 60,
        "data.sigma": 0.3, "data.anisotropy": 0.65, "data.hard_pair_fraction": 0.5,
        "model.hidden": "64", "model.embed_dim": 16,
        "loss.difficulty": "DA", "loss.strength_mode": "DA", "loss.lambda0": 0.15,
        "loss.gamma": 2.0, "loss.scale": 12.0, "loss.margin": 0.2,
        "sched.deferred_fraction": 0.4, "stats.mode": "full",
        "opt.epochs": 3, "opt.batch_size": 32,
        "eval.max_nontarget_per_target": 10.0,
        "eval.p_target": DCF[0], "eval.c_miss": DCF[1], "eval.c_fa": DCF[2],
    }
    variants = [("softmax", ()), ("isda", ()), ("am", ()), ("daam", ()), ("dasa", ()),
                ("dasa", ("stats.mode=diagonal",))]

    def commands(self):
        out = []
        for i, (argv, files) in enumerate(super().commands()):
            d = self.run_dir(i)
            score_dir = os.path.join(d, "score")
            out.append((argv, files))
            out.append((["score", "--config", self.config_path, "--out", score_dir,
                         os.path.join(d, "embeddings.csv"), os.path.join(d, "trials.csv")],
                        [os.path.join(score_dir, "scores.csv")]))
        return out

    def check(self, outputs):
        messages = []
        for i, (variant, extra) in enumerate(self.variants):
            d = self.run_dir(i)
            (_, train_line), (_, score_line) = outputs[2 * i], outputs[2 * i + 1]
            try:
                eer, mdcf = self.check_train(i, variant, train_line)
                checks.check_bank(os.path.join(d, "bank.csv"), self.epochs * self.train_counts)
                report(" ".join((variant,) + extra), eer, mdcf)
                train_msg = None
            except CHECK_ERRORS as exc:
                train_msg, eer = str(exc), None
            try:
                require(eer is not None, f"{d}: score not checked, its train failed")
                checks.check_metric_line(score_line, eer, mdcf, f"{d}: semaug score")
                checks.check_scores(os.path.join(d, "score", "scores.csv"),
                                    os.path.join(d, "embeddings.csv"))
                score_msg = None
            except CHECK_ERRORS as exc:
                score_msg = str(exc)
            messages += [train_msg, score_msg]
        return messages


class TrainPaper(_TrainWorkload):
    """A paper-shaped point: hundreds of classes, full covariance, dasa
    with difficulty-scaled strength from the first iteration on."""

    name = "train-paper"
    config = {
        "data.num_classes": 256, "data.dim": 64, "data.samples_per_class": 8,
        "data.sigma": 0.3, "data.anisotropy": 0.65, "data.hard_pair_fraction": 0.5,
        "model.hidden": "256", "model.embed_dim": 64,
        "loss.difficulty": "DA", "loss.strength_mode": "DA", "loss.lambda0": 0.15,
        "loss.gamma": 2.0, "loss.scale": 12.0, "loss.margin": 0.2,
        "sched.deferred_fraction": 0.0, "stats.mode": "full",
        "opt.epochs": 1, "opt.batch_size": 128,
        "eval.max_nontarget_per_target": 10.0,
        "eval.p_target": DCF[0], "eval.c_miss": DCF[1], "eval.c_fa": DCF[2],
    }
    variants = [("dasa", ())]
    sample_rows = 8

    def check(self, outputs):
        (_, line), = outputs
        d = self.run_dir(0)
        try:
            eer, mdcf = self.check_train(0, "dasa", line)
            report("dasa", eer, mdcf)
            rows = np.random.default_rng(self.seed).choice(self.eval_labels.size,
                                                           self.sample_rows, replace=False)
            labels = sorted({int(self.eval_labels[r]) for r in rows})
            kept = checks.check_bank(os.path.join(d, "bank.csv"),
                                     self.epochs * self.train_counts, keep=labels)
            self.check_bounds(d, rows, kept)
        except CHECK_ERRORS as exc:
            return [str(exc)]
        return [None]

    def check_bounds(self, d, rows, kept) -> None:
        """On the reloaded model: the embedding of each sampled eval row
        matches embeddings.csv, dasa_bound >= daam_softmax (phi >= 0 under
        a PSD covariance), and quadratic_forms equals d^T Cov d."""
        from semaug.covariance import ClassStats, CovarianceBank, quadratic_forms
        from semaug.losses import ClassifierHead, LossConfig, daam_softmax, dasa_bound

        model = checks.read_model(os.path.join(d, "model.csv"))
        E = checks.read_embeddings(os.path.join(d, "embeddings.csv"))
        X = self.features[self.is_eval]
        C, F = model["HW"].shape
        W_hat = model["HW"] / np.linalg.norm(model["HW"], axis=1)[:, None]
        head = ClassifierHead(weights=model["HW"], biases=None,
                              scale=model["scale"], margin=model["margin"])
        bank = CovarianceBank(C, F, "full")
        for label, (mean, cov) in kept.items():
            bank.stats[label] = ClassStats(class_id=label, count=int(self.epochs * self.train_counts[label]),
                                           mean=mean, cov=cov)
        T = self.epochs * self.iters_per_epoch
        cfg = LossConfig(variant="dasa", difficulty=self.config["loss.difficulty"],
                         strength_mode=self.config["loss.strength_mode"],
                         lambda0=self.config["loss.lambda0"], gamma=self.config["loss.gamma"],
                         ramp_total_iters=T, deferred_fraction=self.config["sched.deferred_fraction"])
        for r in rows:
            label = int(self.eval_labels[r])
            f = checks.embed(model, X[r])
            gap = float(np.max(np.abs(f - E[r])))
            require(gap <= 1e-12, f"{d}/model.csv: eval row {r} embeds {gap:.3e} away from embeddings.csv")
            upper = dasa_bound(f, head, bank, label, cfg, T).value
            plain = daam_softmax(f, head, label, cfg.difficulty, cfg.gamma).value
            require(upper >= plain, f"{d}: eval row {r}: dasa_bound {upper!r} < daam_softmax {plain!r}")
            got = quadratic_forms(bank.stats[label], W_hat, label)
            want = checks.quadratic_forms_reference(W_hat, kept[label][1], label)
            err = float(np.max(np.abs(got - want)))
            require(err <= 1e-9 * float(np.max(np.abs(want))),
                    f"{d}: eval row {r}: quadratic_forms off by {err:.3e} from d^T Cov d")


class Verify(Workload):
    """The bound check suite at fixed trial counts.

    `semaug grad-check` is left out: at some seeds one of its trials lands
    above the 1e-5 gate (seed 21: loss/daam trial 9, 1.5e-5), so it would
    fail on some seeds and pass on others.
    """

    name = "verify"
    # Every trial draws its own class count and dimension from the seed, so
    # the cost of a check differs from seed to seed; enough trials per unit
    # keep that difference to a few percent of a unit.
    config = {"bound.trials": 100, "bound.samples": 16384}
    bound_rows = 3 * config["bound.trials"]
    work_per_unit = bound_rows

    def setup_argv(self, k):
        # No input files: set-up is process start, imports and config
        # resolution, run as a bound-check with zero trials.
        return (["bound-check"] + self.common(os.path.join(self.workdir, f"setup-{k}"))
                + ["--set", "bound.trials=0"])

    def commands(self):
        bc = os.path.join(self.workdir, "bound")
        return [(["bound-check"] + self.common(bc), [os.path.join(bc, "bound_check.csv")])]

    def check(self, outputs):
        try:
            checks.check_bound_csv(os.path.join(self.workdir, "bound", "bound_check.csv"),
                                   self.bound_rows)
            checks.check_closed_forms(self.seed)
        except CHECK_ERRORS as exc:
            return [str(exc)]
        return [None]


WORKLOADS = {w.name: w for w in (TrainToy, TrainPaper, Verify)}
