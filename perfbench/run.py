"""Benchmark of the nonlocal-logistic CLI: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The process pins BLAS to one thread, puts
the checkout's ``src/`` first on the import path, generates the workload's
configs and runs a warm-up solve (together: set-up), then repeats *rounds*
of the workload's CLI runs through ``nonlocal_logistic.cli.main`` until
another round would end after ``--seconds``.  The seed fixes the order of
the runs in every round.  After each round every run's outputs are checked.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (CLI runs), ``failed`` (runs that exited non-zero or whose
outputs failed a check) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (medians over rounds) with ``--trace 1``.
The exit code is 0 only if no CLI run failed.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import os  # noqa: E402

# before numpy is imported anywhere: one BLAS thread, here and in child processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# one CPU for the whole run: no migration between CPUs mid-round
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_cli():
    """The checkout's CLI module; exits 2 when ``src/`` holds no program."""
    if not (SRC / "nonlocal_logistic" / "cli.py").is_file():
        sys.exit(f"error: no program at {SRC}/nonlocal_logistic; run from a checkout")
    from nonlocal_logistic import cli

    if Path(cli.__file__).resolve().parent != SRC / "nonlocal_logistic":
        sys.exit(f"error: imported {cli.__file__}, not the checkout's program")
    return cli


def prepare(cli, workload: str, workdir: Path, small: bool = False):
    """Write the workload's configs and run the warm-up; return the runs and config paths."""
    runs = workloads.runs_for(workload, small)
    configs = workdir / "configs"
    configs.mkdir(parents=True)
    paths = {}
    for run in [workloads.WARMUP, *runs]:
        paths[run.name] = configs / f"{run.name}.cfg"
        paths[run.name].write_text(workloads.config_text(run.config))
    warm = workdir / "warmup"
    if cli.main(workloads.WARMUP.argv(paths["warmup"], warm)) != 0:
        sys.exit("error: warm-up run failed")
    workloads.WARMUP.check(warm, workloads.WARMUP.config)
    return runs, paths


def setup_probe(workload: str) -> float:
    """Set-up time of a fresh process: the same imports, configs and warm-up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(cli, runs, paths, order, round_dir: Path):
    """One pass over the workload; returns (CLI seconds, failed names, wrong names)."""
    wall = 0.0
    exited = {}
    for run in order:
        argv = run.argv(paths[run.name], round_dir / run.name)
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed run, not the end of the benchmark
            traceback.print_exc()
            rc = None
        wall += time.perf_counter() - t
        exited[run.name] = rc
    failed, wrong = [], []
    for run in runs:
        if exited[run.name] != 0:
            print(f"  {run.name}: exit code {exited[run.name]}", file=sys.stderr)
            failed.append(run.name)
            continue
        try:
            run.check(round_dir / run.name, run.config)
        except (checks.CheckFailed, OSError, KeyError, IndexError, ValueError) as exc:
            print(f"  {run.name}: check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed.append(run.name)
            wrong.append(run.name)
    return wall, failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runs, paths = prepare(cli, args.workload, workdir)
        setups = [time.perf_counter() - T0]
        setups += [setup_probe(args.workload) for _ in range(SETUP_PROBES)]

        tracer = uninstall = None
        if args.trace:
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
        walls, layer_rounds = [], []
        attempted = failed = 0
        correct = True
        begin = time.perf_counter()
        while True:
            order = list(runs)
            random.Random(args.seed * 1_000_003 + len(walls)).shuffle(order)
            round_dir = workdir / f"round{len(walls)}"
            gc.collect()
            if tracer is not None:
                tracer.reset()
            wall, bad, wrong = run_round(cli, runs, paths, order, round_dir)
            if tracer is not None:
                layer_rounds.append(tracer.metrics())
            shutil.rmtree(round_dir, ignore_errors=True)
            walls.append(wall)
            attempted += len(runs)
            failed += len(bad)
            correct = correct and not wrong
            print(f"round {len(walls)}: {wall:.3f} s over {len(runs)} runs"
                  + (f", failed: {', '.join(bad)}" if bad else ""), flush=True)
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(walls) > args.seconds:
                break
        if uninstall is not None:
            uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": statistics.median(r[name] for r in layer_rounds), "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "unit": "MB"},
        }
    print(f"workload {args.workload}, seed {args.seed}, {len(walls)} rounds, "
          f"round wall median {statistics.median(walls):.4f} s, "
          f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
