#!/usr/bin/env python3
"""Run every shipped config with every subcommand its header lists.

Usage: python tools/run_shipped.py [--rev REV] OUTDIR

For each ``configs/*.cfg`` and each subcommand on its ``# Subcommands:``
line, runs the CLI with every output flag that ``cli.FLAGS`` declares for
that subcommand, writing to ``OUTDIR/<config>-<subcommand>``.  Then runs
every run of every benchmark workload, with the config and arguments that
``perfbench/workloads.py`` renders for it, writing to
``OUTDIR/workloads/<run name>``.  Prints each run's wall seconds (a fresh
process, so start-up included) and their total.  Exits 1 if a config has
no such line or any run fails, after trying every run.

The runs take a tree's configs, ``cli.FLAGS`` and ``perfbench/workloads.py``
and run ``python -m nonlocal_logistic.cli`` with the tree's ``src/`` first
on ``PYTHONPATH``, so no install is needed.  The tree is this checkout, or
with ``--rev`` a temporary ``git worktree`` of REV, removed afterwards.  Run
for two commits, then ``python tools/compare_outputs.py`` of the two output
trees, it is the byte check of a refactor.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# prints the module file and, per flag, the subcommands that honour it
FLAGS_QUERY = (
    "import json; from nonlocal_logistic import cli; "
    "print(json.dumps([cli.__file__, {f: list(h) for f, (h, _) in cli.FLAGS.items()}]))"
)


def claimed_subcommands(config: Path) -> list[str]:
    """The subcommands on the config's ``# Subcommands:`` line; none without one."""
    for line in config.read_text().splitlines():
        if line.startswith("# Subcommands:"):
            return [name.strip() for name in line.split(":", 1)[1].split(",")]
    return []


def shipped_argvs(configs: list[Path], honoured: dict[str, list[str]],
                  outdir: Path) -> list[list[str]]:
    """CLI arguments of every config and each subcommand it claims."""
    argvs = []
    for config in configs:
        for name in claimed_subcommands(config):
            flags = [flag for flag, names in honoured.items() if name in names]
            argvs.append([name, "--config", str(config),
                          "--output", str(outdir / f"{config.stem}-{name}"), *flags])
    return argvs


def workload_argvs(bench: Path, config_dir: Path, outdir: Path) -> list[list[str]]:
    """CLI arguments of every benchmark workload run, its config written to ``config_dir``.

    Imports ``bench/workloads.py`` (which imports its sibling ``checks``) and
    changes no file under ``bench``.
    """
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("workloads", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(bench))
    argvs = []
    for name in workloads.WORKLOADS:
        for run in workloads.runs_for(name):
            config = config_dir / f"{run.name}.cfg"
            config.write_text(workloads.config_text(run.config))
            argvs.append(run.argv(config, outdir / "workloads" / run.name))
    return argvs


def run_all(argvs: list[list[str]], command: list[str], env: dict[str, str],
            failed: list[str]) -> int:
    """Run ``command`` with each argument list; 1 if any run or ``failed`` failed."""
    total = 0.0
    for argv in argvs:
        start = time.perf_counter()
        code = subprocess.run([*command, *argv], env=env).returncode
        seconds = time.perf_counter() - start
        total += seconds
        print(f"{seconds:7.3f} s  {' '.join(argv)}", flush=True)
        if code != 0:
            failed.append(f"{' '.join(argv)}: exit {code}")
    print(f"{total:7.3f} s  total", flush=True)
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


def run_tree(tree: Path, outdir: Path) -> int:
    """Run ``tree``'s shipped configs and workloads by its program; 2 if another is imported."""
    src = tree / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src))
    query = subprocess.run([sys.executable, "-c", FLAGS_QUERY], env=env, check=True,
                           capture_output=True, text=True)
    module, honoured = json.loads(query.stdout)
    if not Path(module).resolve().is_relative_to(src.resolve()):
        print(f"imported {module}, not the program of {tree}", file=sys.stderr)
        return 2
    configs = sorted((tree / "configs").glob("*.cfg"))
    failed = [f"{config.name} has no '# Subcommands:' line"
              for config in configs if not claimed_subcommands(config)]
    with tempfile.TemporaryDirectory() as config_dir:
        argvs = [*shipped_argvs(configs, honoured, outdir),
                 *workload_argvs(tree / "perfbench", Path(config_dir), outdir)]
        return run_all(argvs, [sys.executable, "-m", "nonlocal_logistic.cli"], env, failed)


def run_rev(rev: str, outdir: Path) -> int:
    """Run the shipped configs and workloads of ``rev`` from a temporary worktree of it."""
    git = ["git", "-C", str(ROOT), "worktree"]
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            subprocess.run([*git, "add", "--detach", str(tree), rev], check=True)
            try:
                return run_tree(tree, outdir)
            finally:
                if subprocess.run([*git, "remove", "--force", str(tree)]).returncode != 0:
                    print(f"warning: could not remove the worktree {tree}", file=sys.stderr)
    finally:
        # drops the registration of a worktree whose directory is gone: a failed
        # remove above, or an earlier run that was killed
        subprocess.run([*git, "prune"])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--rev", help="run this commit's configs and program, from a worktree")
    args = parser.parse_args(argv)
    if args.rev is None:
        return run_tree(ROOT, args.outdir)
    return run_rev(args.rev, args.outdir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
