"""Benchmark of the `semaug` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/` of that checkout and nowhere else, and scratch files go to
`.bench_work/` there (removed at exit).  Workloads (see workloads.py and
README.md): `train-toy`, `train-paper`, `verify`.

A run sets up its inputs with SETUP_REPEATS fresh `python3 -m semaug`
processes, then repeats units of the workload's commands, each called
in-process through `semaug.cli.entry`, until S seconds have passed.  The
first unit's outputs are checked against computations made apart from the
program; every later unit must reproduce them byte for byte.  The last
line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are setup_s, throughput and peak_rss_mb.  With
--trace 1 units alternate between untraced and traced, and the metrics
are the per-layer table of layers.py plus the tracing overhead.
"""

from __future__ import annotations

import os

# One BLAS thread: the host has two CPUs, and a second BLAS thread would
# compete with the benchmark itself.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
SETUP_PERIOD_S = 0.03   # set-up processes last a few tenths of a second


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


def import_program():
    """Import semaug from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "semaug", "cli.py")):
        raise SystemExit(f"[bench] no program source at {SRC}/semaug; run from a source checkout")
    sys.path.insert(0, SRC)
    import semaug.cli
    if not os.path.abspath(semaug.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"[bench] imported semaug from {semaug.cli.__file__}, not {SRC}")
    return semaug.cli


def run_setup(workload, speed, clock) -> list:
    """Time SETUP_REPEATS fresh processes that write the workload's inputs.
    Returns (seconds, nominal seconds) per process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    dirs = []
    for k in range(SETUP_REPEATS):
        argv = [sys.executable, "-m", "semaug"] + workload.setup_argv(k)
        with speed.SpeedProbe(clock, period_s=SETUP_PERIOD_S, work_in_child=True) as probe:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"[bench] set-up failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr}")
        times.append((probe.seconds, probe.seconds * probe.factor))
        dirs.append(argv[argv.index("--out") + 1])
    workload.prepare(dirs)
    return times


def call(cli, argv) -> tuple:
    """One command through semaug.cli.entry: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.entry(argv)
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def in_child(fn, *args):
    """fn(*args) in a forked child, so that the memory it uses never counts
    toward this process's peak RSS; returns fn's (picklable) result."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 0
        try:
            data = pickle.dumps(fn(*args))
        except BaseException:
            code, data = 1, pickle.dumps(traceback.format_exc())
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    result = pickle.loads(data)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"check process failed:\n{result}")
    return result


def fingerprint(results, commands) -> list:
    prints = []
    for (rc, out, _), (_, files) in zip(results, commands):
        h = hashlib.sha256(out.encode())
        for path in files:
            try:
                with open(path, "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 20), b""):
                        h.update(block)
            except FileNotFoundError:
                h.update(b"missing " + path.encode())
        prints.append((rc, h.hexdigest()))
    return prints


def measure(args, cli, workload, speed, clock, tracer):
    """Repeat units until args.seconds have passed.  Returns the per-unit
    records and the operation counts."""
    commands = workload.commands()
    units = []
    attempted = failed = 0
    correct = True
    reference = None
    t_start = time.perf_counter()
    min_units = 2 if args.trace else 1
    while len(units) < min_units or time.perf_counter() - t_start < args.seconds:
        traced = bool(args.trace) and len(units) % 2 == 1
        if traced:
            tracer.install()
        try:
            with speed.SpeedProbe(clock) as probe:
                results = [call(cli, argv) for argv, _ in commands]
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(results)
        bad = [rc != 0 for rc, _, _ in results]
        for (rc, _, err), (argv, _) in zip(results, commands):
            if rc != 0:
                log(f"exit {rc}: semaug {' '.join(argv)}\n{err}")
        if reference is None:
            messages = in_child(workload.check, [(rc, out) for rc, out, _ in results])
            for i, msg in enumerate(messages):
                if msg is not None and not bad[i]:
                    log(f"check failed: {msg}")
                    bad[i] = True
                    correct = False
            reference = fingerprint(results, commands)
        else:
            for i, now in enumerate(fingerprint(results, commands)):
                if now != reference[i] and not bad[i]:
                    log(f"unit {len(units)}: outputs of semaug {' '.join(commands[i][0])} "
                        "differ from the first unit's")
                    bad[i] = True
                    correct = False
        failed += sum(bad)
        units.append({"traced": traced, "seconds": probe.seconds, "factor": probe.factor,
                      "work": workload.work_per_unit})
    return units, attempted, failed, correct


def throughput(units, nominal: bool) -> float:
    return statistics.median(u["work"] / (u["seconds"] * (u["factor"] if nominal else 1.0))
                             for u in units)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    sys.path.insert(0, HERE)
    import speed
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"[bench] unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        clock = speed.WorkClock()
        setup = run_setup(workload, speed, clock)
        tracer = setup_tracer = None
        if args.trace:
            # One set-up in-process under the tracer, for the functions
            # that only set-up calls.
            tracer, setup_tracer = layers.Tracer(clock.now), layers.Tracer(clock.now)
            setup_tracer.install()
            try:
                rc, _, err = call(cli, workload.setup_argv("traced"))
            finally:
                setup_tracer.uninstall()
            if rc != 0:
                raise SystemExit(f"[bench] traced set-up failed ({rc}):\n{err}")
        units, attempted, failed, correct = measure(args, cli, workload, speed, clock, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [u for u in units if not u["traced"]]
    setup_s = statistics.median(n for _, n in setup)
    log(f"{args.workload} seed={args.seed}: {len(plain)} untraced units of "
        f"{workload.work_per_unit} work; throughput {throughput(plain, True):.2f}/s "
        f"(wall clock {throughput(plain, False):.2f}/s); setup {setup_s:.4f} s "
        f"(wall clock {statistics.median(s for s, _ in setup):.4f} s); "
        f"speed factor median {statistics.median(u['factor'] for u in units):.3f}")
    if args.trace:
        traced = [u for u in units if u["traced"]]
        values = tracer.metrics(len(traced), len(traced) * workload.visits_per_unit)
        setup_values = setup_tracer.metrics(1, 0)
        for name, value in setup_values.items():
            if name.endswith(".calls") and value and not values[name]:
                stem = name[:-len(".calls")]
                values[name], values[stem + ".us"] = value, setup_values[stem + ".us"]
        values["trace.overhead_pct"] = 100.0 * (1.0 - throughput(traced, True) / throughput(plain, True))
        if tracer.absent:
            log(f"absent from the program, reported as 0: {', '.join(tracer.absent)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput": {"value": throughput(plain, True), "unit": "1/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
