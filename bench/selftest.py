"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one `dasa` train (with its score) of the train-toy workload and one
unit of the verify workload, confirms that every check passes on those
real outputs, then corrupts a copy of one output at a time and confirms
that the check meant to catch it fails.  Exits 0 when every case behaves,
1 otherwise.  Scratch files go to `.bench_work/` and are removed.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys

import numpy as np

import run


def rewrite_csv(path, edit) -> None:
    """Apply ``edit(rows)`` to the rows of a CSV file (header included)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def main() -> int:
    cli = run.import_program()
    import checks
    import workloads

    workdir = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        toy = workloads.TrainToy(0, workdir)
        rc, _, err = run.call(cli, toy.setup_argv(0))
        if rc != 0:
            print(f"FAIL semaug gen: {err}")
            return 1
        toy.prepare([os.path.join(workdir, "setup-0")])
        dasa = next(i for i, (v, extra) in enumerate(toy.variants) if v == "dasa" and not extra)
        (train_argv, _), (score_argv, _) = toy.commands()[2 * dasa: 2 * dasa + 2]
        outputs = [run.call(cli, train_argv)[:2], run.call(cli, score_argv)[:2]]
        run_dir = toy.run_dir(dasa)

        verify = workloads.Verify(0, workdir)
        v_out = [run.call(cli, argv)[:2] for argv, _ in verify.commands()]

        def train_checks(d):
            checks.check_verification(d, toy.eval_labels, workloads.DCF)
            checks.check_schedule(d, "dasa", toy.epochs, toy.iters_per_epoch,
                                  toy.config["sched.deferred_fraction"])
            checks.check_bank(os.path.join(d, "bank.csv"), toy.epochs * toy.train_counts)

        def verify_checks(d):
            checks.check_bound_csv(os.path.join(d, "bound", "bound_check.csv"), verify.bound_rows)

        failures = 0
        # The real outputs pass every check.
        try:
            checks.require(outputs[0][0] == 0 and outputs[1][0] == 0 and
                           all(rc == 0 for rc, _ in v_out), "a command exited non-zero")
            train_checks(run_dir)
            eer, mdcf = checks.check_verification(run_dir, toy.eval_labels, workloads.DCF)
            checks.check_metric_line(outputs[0][1], eer, mdcf, "train")
            checks.check_metric_line(outputs[1][1], eer, mdcf, "score")
            verify_checks(workdir)
            checks.check_closed_forms(0)
            print("PASS real outputs pass every check")
        except checks.CHECK_ERRORS as exc:
            print(f"FAIL real outputs: {exc}")
            failures += 1

        def flip_target(d):
            rewrite_csv(os.path.join(d, "trials.csv"),
                        lambda rows: rows[1].__setitem__(2, str(1 - int(rows[1][2]))))

        def perturb_embedding(d):
            def edit(rows):
                rows[1][1] = repr(float(rows[1][1]) + 1e-3)
            rewrite_csv(os.path.join(d, "embeddings.csv"), edit)

        def negative_eigenvalue(d):
            path = os.path.join(d, "bank.csv")
            with open(path) as fh:
                lines = fh.readlines()
            cells = lines[1].rstrip("\n").split(",")
            dim = toy.config["model.embed_dim"]
            cov = np.array(cells[2 + dim:], dtype=float).reshape(dim, dim)
            cov[0, 0] = -np.trace(cov)          # still symmetric, no longer PSD
            cells[2 + dim:] = [format(v, ".17g") for v in cov.ravel()]
            lines[1] = ",".join(cells) + "\n"
            with open(path, "w") as fh:
                fh.writelines(lines)

        def early_strength(d):
            rewrite_csv(os.path.join(d, "metrics.csv"),
                        lambda rows: rows[1].__setitem__(4, "1e-3"))

        def wrong_count(d):
            path = os.path.join(d, "bank.csv")
            with open(path) as fh:
                lines = fh.readlines()
            cid, count, rest = lines[1].split(",", 2)
            lines[1] = f"{cid},{int(count) + 1},{rest}"
            with open(path, "w") as fh:
                fh.writelines(lines)

        def z_below(d):
            rewrite_csv(os.path.join(d, "bound", "bound_check.csv"),
                        lambda rows: rows[1].__setitem__(8, "-4"))

        def bound_slack(d):
            rewrite_csv(os.path.join(d, "bound", "bound_check.csv"),
                        lambda rows: rows[1].__setitem__(7, repr(float(rows[1][7]) + 1e-6)))

        for corrupt, target, check in (
                (flip_target, run_dir, train_checks),
                (perturb_embedding, run_dir, train_checks),
                (negative_eigenvalue, run_dir, train_checks),
                (early_strength, run_dir, train_checks),
                (wrong_count, run_dir, train_checks),
                (z_below, workdir, verify_checks),
                (bound_slack, workdir, verify_checks)):
            copy = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}-copy")
            shutil.copytree(target, copy)
            try:
                corrupt(copy)
                check(copy)
                print(f"FAIL {corrupt.__name__}: the corrupted copy passed")
                failures += 1
            except checks.CHECK_ERRORS as exc:
                print(f"PASS {corrupt.__name__}: {exc}")
            finally:
                shutil.rmtree(copy)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
