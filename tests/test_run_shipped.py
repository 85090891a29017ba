"""tools/run_shipped.py: the shipped runs of a tree's program, this checkout or a worktree."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nonlocal_logistic.config import load_config

TOOL = Path(__file__).resolve().parents[1] / "tools" / "run_shipped.py"
_spec = importlib.util.spec_from_file_location("run_shipped", TOOL)
run_shipped = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_shipped)

HONOURED = {"--dump-matrix": ["eigen", "steady"], "--trace-paths": ["mc-check"]}
GIT = ["git", "-C", str(run_shipped.ROOT), "worktree"]

# the worktree's own workload table: two runs, the interface of perfbench/workloads.py
FAKE_WORKLOADS = """
from dataclasses import dataclass

WORKLOADS = ("scan",)


@dataclass
class CliRun:
    name: str
    config: dict

    def argv(self, config_path, outdir):
        return ["bifurcate", "--config", str(config_path), "--output", str(outdir),
                "--workers", "1"]


def runs_for(workload):
    return [CliRun("scan-63", {"n": 63}), CliRun("scan-99", {"n": 99})]


def config_text(blocks):
    return "".join(f"{key} = {value}\\n" for key, value in blocks.items())
"""


class FakeRun:
    """Stands in for ``subprocess.run``: a worktree with two configs, scripted runs."""

    def __init__(self, exit_code=0, module=None, remove_code=0, rss=None):
        self.calls = []
        self.configs = {}  # config text of each CLI run, read when it is issued
        self.tree = None
        self.exit_code = exit_code
        self.module = module
        self.remove_code = remove_code
        self.rss = rss  # with it, eigen runs write it as peak_rss_mb, others an older manifest

    def __call__(self, cmd, env=None, **kwargs):
        self.calls.append((list(cmd), env))
        if cmd[:5] == [*GIT, "add"]:
            self.tree = Path(cmd[6])
            (self.tree / "configs").mkdir(parents=True)
            (self.tree / "src" / "nonlocal_logistic").mkdir(parents=True)
            (self.tree / "configs" / "a.cfg").write_text("# Subcommands: eigen, steady\n")
            (self.tree / "configs" / "b.cfg").write_text("# Subcommands: mc-check\n")
            (self.tree / "perfbench").mkdir()
            (self.tree / "perfbench" / "workloads.py").write_text(FAKE_WORKLOADS)
            return subprocess.CompletedProcess(cmd, 0)
        if cmd[1:3] == ["-c", run_shipped.FLAGS_QUERY]:
            # the program the first PYTHONPATH entry holds, unless told otherwise
            first = env["PYTHONPATH"].split(os.pathsep)[0]
            module = self.module or Path(first) / "nonlocal_logistic" / "cli.py"
            return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps([str(module), HONOURED]))
        if cmd[:5] == [*GIT, "remove"]:
            return subprocess.CompletedProcess(cmd, self.remove_code)
        if cmd[:5] == [*GIT, "prune"]:
            return subprocess.CompletedProcess(cmd, 0)
        config = Path(cmd[cmd.index("--config") + 1])
        self.configs[config] = config.read_text()
        if self.rss is not None:
            outdir = Path(cmd[cmd.index("--output") + 1])
            outdir.mkdir(parents=True)
            manifest = {"peak_rss_mb": self.rss} if cmd[3] == "eigen" else {}
            (outdir / "manifest.json").write_text(json.dumps(manifest))
        return subprocess.CompletedProcess(cmd, self.exit_code)


@pytest.fixture
def fake(monkeypatch):
    def install(**kwargs):
        run = FakeRun(**kwargs)
        monkeypatch.setattr(run_shipped.subprocess, "run", run)
        return run
    return install


def _cli_runs(run):
    return [(cmd, env) for cmd, env in run.calls if cmd[1:3] == ["-m", "nonlocal_logistic.cli"]]


def _workload(cmd):
    return Path(cmd[cmd.index("--output") + 1]).parent.name == "workloads"


def _runs(run):
    """The runs of the shipped configs."""
    return [(cmd, env) for cmd, env in _cli_runs(run) if not _workload(cmd)]


def _workload_runs(run):
    return [(cmd, env) for cmd, env in _cli_runs(run) if _workload(cmd)]


def _expected(configs, outdir, runs):
    return [
        [sys.executable, "-m", "nonlocal_logistic.cli", name, "--config",
         str(configs / f"{stem}.cfg"), "--output", str(outdir / f"{stem}-{name}"), *flags]
        for stem, name, flags in runs
    ]


def test_rev_runs_the_worktree_program_and_removes_it(fake, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    run = fake()
    assert run_shipped.main(["--rev", "abc123", str(tmp_path / "out")]) == 0
    assert run.calls[0][0] == [*GIT, "add", "--detach", str(run.tree), "abc123"]
    assert [cmd for cmd, _ in run.calls[-2:]] == [
        [*GIT, "remove", "--force", str(run.tree)], [*GIT, "prune"]]
    runs = _runs(run)
    assert [cmd for cmd, _ in runs] == _expected(run.tree / "configs", tmp_path / "out", [
        ("a", "eigen", ["--dump-matrix"]), ("a", "steady", ["--dump-matrix"]),
        ("b", "mc-check", ["--trace-paths"]),
    ])
    src = str(run.tree / "src")
    assert all(env["PYTHONPATH"] == f"{src}{os.pathsep}elsewhere" for _, env in runs)


def test_checkout_runs_its_own_program(fake, tmp_path, monkeypatch):
    # without --rev the same command runs this checkout's configs, with no worktree
    monkeypatch.delenv("PYTHONPATH", raising=False)
    run = fake()
    assert run_shipped.main([str(tmp_path / "out")]) == 0
    assert not any(cmd[:2] == ["git", "-C"] for cmd, _ in run.calls)
    configs = run_shipped.ROOT / "configs"
    claimed = [(config.stem, name) for config in sorted(configs.glob("*.cfg"))
               for name in run_shipped.claimed_subcommands(config)]
    runs = _runs(run)
    assert claimed and [cmd for cmd, _ in runs] == _expected(configs, tmp_path / "out", [
        (stem, name, [flag for flag, names in HONOURED.items() if name in names])
        for stem, name in claimed
    ])
    assert all(env["PYTHONPATH"] == str(run_shipped.ROOT / "src") for _, env in runs)
    # then every benchmark workload run, each with a config the program loads
    workload_runs = _workload_runs(run)
    outputs = [cmd[cmd.index("--output") + 1] for cmd, _ in workload_runs]
    assert workload_runs and len(set(outputs)) == len(outputs)
    assert _cli_runs(run)[-len(workload_runs):] == workload_runs
    for cmd, env in workload_runs:
        assert env["PYTHONPATH"] == str(run_shipped.ROOT / "src")
        load_config(run.configs[Path(cmd[cmd.index("--config") + 1])])


def test_rev_runs_the_worktree_workloads(fake, tmp_path):
    # the worktree's own workload table, each run with its rendered config,
    # into OUTDIR/workloads/<run name>
    run = fake()
    assert run_shipped.main(["--rev", "abc123", str(tmp_path / "out")]) == 0
    workload_runs = _workload_runs(run)
    assert [cmd[3:5] + cmd[6:] for cmd, _ in workload_runs] == [
        ["bifurcate", "--config", "--output", str(tmp_path / "out" / "workloads" / name),
         "--workers", "1"]
        for name in ("scan-63", "scan-99")
    ]
    assert [(config.name, text) for config, text in run.configs.items()
            if config.name.startswith("scan")] == [("scan-63.cfg", "n = 63\n"),
                                                   ("scan-99.cfg", "n = 99\n")]
    src = str(run.tree / "src")
    assert all(env["PYTHONPATH"].split(os.pathsep)[0] == src for _, env in workload_runs)


def test_rev_removes_the_worktree_after_a_failed_run(fake, tmp_path):
    run = fake(exit_code=3)
    assert run_shipped.main(["--rev", "abc123", str(tmp_path / "out")]) == 1
    assert len(_runs(run)) == 3
    assert [cmd[3:5] for cmd, _ in run.calls[-2:]] == [["worktree", "remove"], ["worktree", "prune"]]


def test_failed_removal_keeps_the_result_and_prunes(fake, tmp_path, capsys):
    run = fake(exit_code=3, remove_code=128)
    assert run_shipped.main(["--rev", "abc123", str(tmp_path / "out")]) == 1
    assert run.calls[-1][0] == [*GIT, "prune"]
    assert "could not remove the worktree" in capsys.readouterr().err


def test_rev_refuses_a_program_from_outside_the_worktree(fake, tmp_path):
    run = fake(module=tmp_path / "installed" / "cli.py")
    assert run_shipped.main(["--rev", "abc123", str(tmp_path / "out")]) == 2
    assert _cli_runs(run) == []
    assert [cmd[3:5] for cmd, _ in run.calls[-2:]] == [["worktree", "remove"], ["worktree", "prune"]]


def test_prints_each_runs_peak_rss_or_a_dash(fake, tmp_path, capsys):
    fake(rss=44.272)
    assert run_shipped.main(["--rev", "abc123", str(tmp_path / "out")]) == 0
    rows = [line.split()[2:5] for line in capsys.readouterr().out.splitlines() if "--config" in line]
    assert rows == [["44.3", "MB", "eigen"], ["-", "MB", "steady"], ["-", "MB", "mc-check"],
                    ["-", "MB", "bifurcate"], ["-", "MB", "bifurcate"]]
