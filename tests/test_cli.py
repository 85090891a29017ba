import json
from pathlib import Path

import numpy as np
import pytest

from nonlocal_logistic.cli import SUBCOMMANDS, main

BASE = """
symbol = {{ kind = "fractional", alpha = 1.0 }}
domain = {{ left = -1.0, right = 1.0, n = 63 }}
{extra}
output = {{ directory = "{outdir}" }}
"""


def run_cli(tmp_path, subcommand, extra="", name="run", args=()):
    outdir = tmp_path / name
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(BASE.format(extra=extra, outdir=outdir.as_posix()))
    code = main([subcommand, "--config", str(cfg), *args])
    return code, outdir


def tree_bytes(outdir: Path) -> dict:
    return {
        p.name: p.read_bytes()
        for p in sorted(outdir.iterdir())
        if p.name != "manifest.json"
    }


class TestEigen:
    def test_artifacts(self, tmp_path):
        code, outdir = run_cli(tmp_path, "eigen")
        assert code == 0
        summary = json.loads((outdir / "eigen.json").read_text())
        assert summary["lambda1"] > 0
        assert summary["residual"] <= 1e-8
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["subcommand"] == "eigen"
        assert len(manifest["config_sha256"]) == 64
        header = (outdir / "eigen.csv").read_text().splitlines()[0]
        assert header == "node,x,phi"

    def test_byte_determinism(self, tmp_path):
        _, out1 = run_cli(tmp_path, "eigen", name="a")
        _, out2 = run_cli(tmp_path, "eigen", name="b")
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_plot_script_emission(self, tmp_path):
        code, outdir = run_cli(tmp_path, "eigen", name="p", args=("--plot-script",))
        assert code == 0
        assert "eigen.csv" in (outdir / "plot_eigen.py").read_text()

    def test_matrix_dump(self, tmp_path):
        code, outdir = run_cli(tmp_path, "eigen", name="m", args=("--dump-matrix",))
        assert code == 0
        assert (outdir / "operator_matrix.csv").read_text().startswith("row,col,value")


class TestValidation:
    def test_unknown_symbol_kind_exits_2_with_error_log_only(self, tmp_path):
        outdir = tmp_path / "bad"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            'symbol = { kind = "unknown", alpha = 1.0 }\n'
            f'output = {{ directory = "{outdir.as_posix()}" }}\n'
        )
        code = main(["eigen", "--config", str(cfg), "--output", str(outdir)])
        assert code == 2
        files = [p.name for p in outdir.iterdir()]
        assert files == ["error.log"]
        assert "ConfigurationError" in (outdir / "error.log").read_text()

    def test_missing_config_file(self, tmp_path):
        assert main(["eigen", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_statistical_power_exits_4(self, tmp_path):
        # survival horizon far too short: the curve never drops below 0.1
        extra = "stochastic = { n_paths = 2000, dt_path = 0.01, seed = 3, t_max = 0.05, n_t = 5 }"
        code, outdir = run_cli(tmp_path, "mc-check", extra=extra, name="power")
        assert code == 4
        assert "StatisticalPowerError" in (outdir / "error.log").read_text()

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        import nonlocal_logistic.cli as cli

        override = tmp_path / "env_out"
        monkeypatch.setenv(cli.ENV_OUTDIR, str(override))
        cfg = tmp_path / "env.cfg"
        cfg.write_text(BASE.format(extra="", outdir=(tmp_path / "ignored").as_posix()))
        assert main(["eigen", "--config", str(cfg)]) == 0
        assert (override / "eigen.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_misspelled_block_key_exits_2_with_error_log_only(self, tmp_path):
        extra = "stochastic = { n_paths = 2000, dt_paht = 0.05, seed = 3 }"
        code, outdir = run_cli(tmp_path, "mc-check", extra=extra, name="typo",
                               args=("--output", str(tmp_path / "typo")))
        assert code == 2
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        log = (outdir / "error.log").read_text().splitlines()
        assert len(log) == 1
        assert "ConfigurationError" in log[0] and "dt_paht" in log[0]

    def test_rejected_config_logs_to_its_output_directory(self, tmp_path, monkeypatch):
        # the config parses but fails validation: error.log goes to the
        # directory it names, unless the environment variable overrides it
        import nonlocal_logistic.cli as cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.ENV_OUTDIR, raising=False)
        extra = "stochastic = { n_paths = 2000, dt_paht = 0.05, seed = 3 }"
        Path("typo.cfg").write_text(BASE.format(extra=extra, outdir="mine"))
        assert main(["mc-check", "--config", "typo.cfg"]) == 2
        assert [p.name for p in Path("mine").iterdir()] == ["error.log"]
        assert "dt_paht" in Path("mine/error.log").read_text()
        assert not Path("out").exists()
        monkeypatch.setenv(cli.ENV_OUTDIR, "env_out")
        assert main(["mc-check", "--config", "typo.cfg"]) == 2
        assert [p.name for p in Path("env_out").iterdir()] == ["error.log"]

    def test_scan_error_exits_3(self, tmp_path):
        # c_max inside the existence region: the scan reports it numerically
        extra = (
            'problem = { a_rel = 1.05, c = 1.0, f = { kind = "quadratic" }, '
            'h = { kind = "constant_yield", h0 = 1.0 } }\n'
            'scan = { c_max = 1e-6 }'
        )
        code, outdir = run_cli(tmp_path, "bifurcate", extra=extra, name="scanfail")
        assert code == 3
        assert "ScanError" in (outdir / "error.log").read_text()


class TestSteadyCommand:
    def test_branches_reported(self, tmp_path):
        extra = (
            'problem = { a_rel = 2.0, c = 0.01, f = { kind = "quadratic" }, '
            'h = { kind = "constant_yield", h0 = 1.0 } }'
        )
        code, outdir = run_cli(tmp_path, "steady", extra=extra)
        assert code == 0
        summary = json.loads((outdir / "steady.json").read_text())
        assert summary["logistic_branch"] == "logistic"
        assert summary["maximal_branch"] == "maximal"
        assert summary["maximal_sup"] <= summary["logistic_sup"]


class TestBifurcate:
    def test_rows_sorted_and_flags_monotone(self, tmp_path):
        extra = (
            'problem = { a_rel = 1.05, c = 1.0, f = { kind = "quadratic" }, '
            'h = { kind = "constant_yield", h0 = 1.0 } }\n'
            'scan = { c_max = 0.2, rel_tol = 0.01, ladder = 2 }'
        )
        code, outdir = run_cli(tmp_path, "bifurcate", extra=extra)
        assert code == 0
        rows = (outdir / "bifurcation.csv").read_text().splitlines()[1:]
        cs = [float(r.split(",")[0]) for r in rows]
        flags = [r.split(",")[1] == "true" for r in rows]
        assert cs == sorted(cs)
        assert all(not flags[i + 1] or flags[i] for i in range(len(flags) - 1))
        summary = json.loads((outdir / "bifurcation.json").read_text())
        assert summary["bracket_lo"] < summary["c_star"] < summary["bracket_hi"]

    def test_manifest_records_solver_work(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        extra = (
            'problem = { a_rel = 1.05, c = 1.0, f = { kind = "quadratic" }, '
            'h = { kind = "constant_yield", h0 = 1.0 } }\n'
            'scan = { c_max = 0.2, rel_tol = 0.01, ladder = 2 }'
        )
        code, outdir = run_cli(tmp_path, "bifurcate", extra=extra)
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert manifest["blas_threads"]["MKL_NUM_THREADS"] is None
        solvers = manifest["solvers"]
        rows = (outdir / "bifurcation.csv").read_text().splitlines()[1:]
        assert solvers["scan_probes"] == len(rows)
        assert solvers["descent_newton_steps"] > 0
        assert solvers["descent_relaxation_steps"] >= 0
        # one 20-step continuation from zero, then a few steps per further sample
        existing = sum(r.split(",")[1] == "true" for r in rows)
        assert 20 <= solvers["small_branch_steps"] < 20 * existing


class TestParabolicCommands:
    def test_evolve_snapshots(self, tmp_path):
        extra = (
            "problem = { a_rel = 2.0 }\n"
            "parabolic = { dt = 0.01, horizon = 0.2, snapshot_times = [0.0, 0.1, 0.2], "
            'u0 = { kind = "eigenfunction", scale = 0.01 } }'
        )
        code, outdir = run_cli(tmp_path, "evolve", extra=extra)
        assert code == 0
        assert (outdir / "snapshots.csv").read_text().startswith("s,node,x,value")

    def test_longtime_verdict(self, tmp_path):
        extra = (
            "problem = { a_rel = 2.0 }\n"
            "parabolic = { dt = 0.02, s_max = 200.0, verdict_tol = 1e-4, "
            'u0 = { kind = "eigenfunction", scale = 0.01 } }'
        )
        code, outdir = run_cli(tmp_path, "longtime", extra=extra)
        assert code == 0
        summary = json.loads((outdir / "longtime.json").read_text())
        assert summary["verdict"] == "to_positive_steady"
        assert summary["final_distance"] <= 1e-4


class TestMcCheck:
    EXTRA = "stochastic = { n_paths = 4000, dt_path = 0.02, seed = 7, t_max = 3.0, n_t = 10 }"

    def test_byte_determinism_same_seed(self, tmp_path):
        _, out1 = run_cli(tmp_path, "mc-check", extra=self.EXTRA, name="m1")
        _, out2 = run_cli(tmp_path, "mc-check", extra=self.EXTRA, name="m2")
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_worker_count_invariance(self, tmp_path):
        _, out1 = run_cli(tmp_path, "mc-check", extra=self.EXTRA, name="w1")
        _, out4 = run_cli(tmp_path, "mc-check", extra=self.EXTRA, name="w4",
                          args=("--workers", "4"))
        assert tree_bytes(out1) == tree_bytes(out4)

    def test_summary_contents(self, tmp_path):
        code, outdir = run_cli(tmp_path, "mc-check", extra=self.EXTRA, name="m3")
        assert code == 0
        summary = json.loads((outdir / "mc_check.json").read_text())
        assert summary["green_mc"]["n_paths"] == 4000
        assert summary["lambda1_spectral"] > 0
        assert (outdir / "laplace_check.csv").exists()
        assert (outdir / "survival.csv").exists()

    def test_path_trace_dump_capped(self, tmp_path):
        # Exact survival from x0 = 0 (lambda_1 = 1.168 at n = 63) is 0.119 at
        # t = 2.0, above the 0.1 survival gate; at t = 2.5 it is about 0.066.
        extra = "stochastic = { n_paths = 2000, dt_path = 0.05, seed = 9, t_max = 2.5, n_t = 10 }"
        code, outdir = run_cli(tmp_path, "mc-check", extra=extra, name="tr",
                               args=("--trace-paths",))
        assert code == 0
        lines = (outdir / "path_traces.csv").read_text().splitlines()
        assert lines[0] == "path,t,x"
        traces: dict[int, list[tuple[float, float]]] = {}
        for line in lines[1:]:
            p, t, x = line.split(",")
            traces.setdefault(int(p), []).append((float(t), float(x)))
        assert sorted(traces) == list(range(1000))
        for trace in traces.values():
            ts = np.array([t for t, _ in trace])
            assert trace[0] == (0.0, 0.0)
            assert np.diff(ts) == pytest.approx(0.05, rel=1e-12)


class TestOtherCommands:
    def test_validate_kernel(self, tmp_path):
        code, outdir = run_cli(tmp_path, "validate-kernel")
        assert code == 0
        report = json.loads((outdir / "kernel_report.json").read_text())
        assert report["scaling"]["passed"]
        assert report["shift_bound_b2"] > 1.0

    def test_diagnose(self, tmp_path):
        extra = "problem = { a_rel = 2.0 }"
        code, outdir = run_cli(tmp_path, "diagnose", extra=extra)
        assert code == 0
        summary = json.loads((outdir / "diagnose.json").read_text())
        assert summary["phi1_ratio_min"] > 0
        assert summary["steady_ratio_min"] > 0
        assert summary["torsion_v_modulus"] > 0


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _claimed_runs():
    """(config, subcommand) for every subcommand a shipped config's header names."""
    runs = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        claims = [line.split(":", 1)[1] for line in path.read_text().splitlines()
                  if line.startswith("# Subcommands:")]
        assert len(claims) == 1, f"{path.name} names no subcommands in its header"
        runs += [(path.name, sub.strip()) for sub in claims[0].split(",")]
    return runs


class TestShippedConfigs:
    @pytest.mark.parametrize("config, subcommand", _claimed_runs())
    def test_runs_every_claimed_subcommand(self, tmp_path, config, subcommand):
        assert subcommand in SUBCOMMANDS
        code = main([subcommand, "--config", str(CONFIGS / config),
                     "--output", str(tmp_path / "out"), "--workers", "1"])
        assert code == 0
