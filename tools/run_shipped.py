#!/usr/bin/env python3
"""Run every shipped config with every subcommand its header lists.

Usage: python tools/run_shipped.py [--rev REV] OUTDIR

For each ``configs/*.cfg`` and each subcommand on its ``# Subcommands:``
line, runs the CLI with every output flag that ``cli.FLAGS`` declares for
that subcommand, writing to ``OUTDIR/<config>-<subcommand>``, and prints
each run's wall seconds (a fresh process, so start-up included) and their
total.  Exits 1 if a config has no such line or any run fails, after trying
every run.

The runs take a tree's configs and ``cli.FLAGS`` and run
``python -m nonlocal_logistic.cli`` with the tree's ``src/`` first on
``PYTHONPATH``, so no install is needed.  The tree is this checkout, or with
``--rev`` a temporary ``git worktree`` of REV, removed afterwards.  Run for
two commits, then ``python tools/compare_outputs.py`` of the two output
trees, it is the byte check of a refactor.
"""

from __future__ import annotations

import argparse
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


def run_all(configs: Path, honoured: dict[str, list[str]], command: list[str],
            outdir: Path, env: dict[str, str] | None = None) -> int:
    """Run ``command`` for every config and claimed subcommand; 1 on any failure."""
    failed = []
    total = 0.0
    for config in sorted(configs.glob("*.cfg")):
        subcommands = claimed_subcommands(config)
        if not subcommands:
            failed.append(f"{config.name} has no '# Subcommands:' line")
        for name in subcommands:
            flags = [flag for flag, names in honoured.items() if name in names]
            cmd = [*command, name, "--config", str(config),
                   "--output", str(outdir / f"{config.stem}-{name}"), *flags]
            start = time.perf_counter()
            code = subprocess.run(cmd, env=env).returncode
            seconds = time.perf_counter() - start
            total += seconds
            print(f"{seconds:7.3f} s  {' '.join(cmd[len(command):])}", flush=True)
            if code != 0:
                failed.append(f"{config.name} {name}: exit {code}")
    print(f"{total:7.3f} s  total", flush=True)
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


def run_tree(tree: Path, outdir: Path) -> int:
    """Run the shipped configs of ``tree`` by its own program; 2 if another is imported."""
    src = tree / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src))
    query = subprocess.run([sys.executable, "-c", FLAGS_QUERY], env=env, check=True,
                           capture_output=True, text=True)
    module, honoured = json.loads(query.stdout)
    if not Path(module).resolve().is_relative_to(src.resolve()):
        print(f"imported {module}, not the program of {tree}", file=sys.stderr)
        return 2
    return run_all(tree / "configs", honoured,
                   [sys.executable, "-m", "nonlocal_logistic.cli"], outdir, env)


def run_rev(rev: str, outdir: Path) -> int:
    """Run the shipped configs of ``rev`` from a temporary worktree of it."""
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
