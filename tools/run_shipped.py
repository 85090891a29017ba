#!/usr/bin/env python3
"""Run every shipped config with every subcommand its header lists.

Usage: python tools/run_shipped.py OUTDIR

For each ``configs/*.cfg`` of this checkout and each subcommand on its
``# Subcommands:`` line, runs the ``nonlocal-logistic`` console script with
every output flag that ``cli.FLAGS`` declares for that subcommand, writing
to ``OUTDIR/<config>-<subcommand>``, and prints each run's wall seconds
(a fresh process, so start-up included) and their total.  Exits 1 if a
config has no such line or any run fails, after trying every run.  Run with
each of two commits' packages installed, then ``diff -r -x manifest.json``
of the two trees, it is the byte check of a refactor.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

from nonlocal_logistic.cli import FLAGS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def claimed_subcommands(config: Path) -> list[str]:
    """The subcommands on the config's ``# Subcommands:`` line; none without one."""
    for line in config.read_text().splitlines():
        if line.startswith("# Subcommands:"):
            return [name.strip() for name in line.split(":", 1)[1].split(",")]
    return []


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/run_shipped.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    script = shutil.which("nonlocal-logistic")
    if script is None:
        print("the nonlocal-logistic console script is not on PATH: pip install -e .",
              file=sys.stderr)
        return 2
    failed = []
    total = 0.0
    for config in sorted(CONFIGS.glob("*.cfg")):
        subcommands = claimed_subcommands(config)
        if not subcommands:
            failed.append(f"{config.name} has no '# Subcommands:' line")
        for name in subcommands:
            flags = [flag for flag, (honoured, _) in FLAGS.items() if name in honoured]
            cmd = [script, name, "--config", str(config),
                   "--output", str(outdir / f"{config.stem}-{name}"), *flags]
            start = time.perf_counter()
            code = subprocess.run(cmd).returncode
            seconds = time.perf_counter() - start
            total += seconds
            print(f"{seconds:7.3f} s  {' '.join(cmd[1:])}", flush=True)
            if code != 0:
                failed.append(f"{config.name} {name}: exit {code}")
    print(f"{total:7.3f} s  total", flush=True)
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
