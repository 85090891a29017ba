import argparse
import json
import math
import os
import subprocess
import sys
import tomllib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nonlocal_logistic
from nonlocal_logistic import (
    BernsteinSymbol, ContinuationError, SubordinatorSampler, assemble, mc_green,
    survival_lambda1,
)
from nonlocal_logistic.cli import CSV_BLOCK, SUBCOMMANDS, RunOutput, build_parser, main
from nonlocal_logistic.config import load_config

from oracles import csv_reference

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


def _reject_constant(name):
    raise ValueError(f"bare {name} in JSON")


class TestJsonOutput:
    def test_undefined_residual_is_null(self, tmp_path):
        # on the shipped baseline the harvested branch does not exist, so its
        # residual is undefined: strict JSON has no NaN, the file says null
        cfg = Path(__file__).resolve().parents[1] / "configs" / "baseline.cfg"
        outdir = tmp_path / "steady"
        assert main(["steady", "--config", str(cfg), "--output", str(outdir)]) == 0
        for path in outdir.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
        summary = json.loads((outdir / "steady.json").read_text(), parse_constant=_reject_constant)
        assert summary["maximal_branch"] == "none"
        assert summary["maximal_residual"] is None


class TestCsvWriter:
    MIXED = [3, np.int64(-7), 0.1, np.float64(2.5e-8), True, np.bool_(False), "u1",
             math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float64(-0.0), 10 ** 20]

    @staticmethod
    def _written(tmp_path, header, columns) -> str:
        out = RunOutput()
        out.csvs["t.csv"] = (header, columns)
        out.write(tmp_path)
        return (tmp_path / "t.csv").read_text()

    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1,
                                   3 * CSV_BLOCK + 7])
    def test_bytes_match_the_row_formatter(self, tmp_path, n):
        rng = np.random.default_rng(n)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[::5] = np.resize([math.nan, math.inf, -math.inf, -0.0, 5e-324], floats[::5].size)
        columns = [
            np.arange(n),  # int64
            floats,
            rng.standard_normal(n) > 0,  # bool
            [self.MIXED[i % len(self.MIXED)] for i in range(n)],
            [f"p{i}" for i in range(n)],
            rng.standard_normal(n).astype(np.float32),
            rng.integers(-2**31, 2**31, n, dtype=np.int32),
            np.arange(n, dtype=np.uint64) * np.uint64(2**43),
            np.array([f"s{i}" for i in range(n)], dtype=str),
            list(floats),
        ]
        header = ["i", "x", "flag", "mixed", "name", "single", "i32", "u64", "label", "xlist"]
        rows = list(zip(*columns))  # numpy scalars, as a row-by-row writer sees them
        got, want = self._written(tmp_path, header, columns), csv_reference(header, rows)
        # the first differing line, not a diff of megabytes of text
        lines = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
        assert [pair for pair in lines if pair[0] != pair[1]][:1] == []
        assert len(got) == len(want)

    def test_formatter_chosen_once_for_float_and_integer_arrays(self, tmp_path, monkeypatch):
        import nonlocal_logistic.cli as cli

        seen = []

        def counting_fmt(value):
            seen.append(value)
            return fmt(value)

        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", counting_fmt)
        n = 10
        columns = [np.linspace(0.0, 1.0, n), np.arange(n), np.arange(n) % 2 == 0, ["a"] * n]
        got = self._written(tmp_path, ["x", "i", "flag", "name"], columns)
        assert got == csv_reference(["x", "i", "flag", "name"], list(zip(*columns)))
        assert len(seen) == 2 * n  # the bool array and the list only

    # every block has at least twice as many rows as any column has distinct values
    @pytest.mark.parametrize("n", [CSV_BLOCK - 1, CSV_BLOCK + 40, 2 * CSV_BLOCK + 50])
    def test_repeated_values_match_the_row_formatter(self, tmp_path, monkeypatch, n):
        import nonlocal_logistic.cli as cli

        seen = []

        def counting_fmt(value):
            seen.append(value)
            return fmt(value)

        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", counting_fmt)
        specials = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                             -5e-324, 2.2e-308, 0.1])
        singles = np.array([0.1, -0.0, 0.0, 1e-45, math.nan, -3.5], dtype=np.float32)
        rng = np.random.default_rng(n)
        columns = [
            specials[rng.integers(0, specials.size, n)],
            rng.integers(-3, 4, n) * np.int64(10 ** 17),  # int64
            singles[np.arange(n) % singles.size],
            rng.standard_normal(n),  # distinct: formatted field by field
        ]
        header = ["special", "i", "single", "x"]
        got = self._written(tmp_path, header, columns)
        assert got == csv_reference(header, list(zip(*columns)))
        # the float32 column goes through _fmt once per distinct value per block
        assert len(seen) == singles.size * -(-n // CSV_BLOCK)

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="unequal"):
            self._written(tmp_path, ["a", "b"], [np.arange(5), [1.0] * 4])

    def test_memory_is_bounded_by_one_block(self, tmp_path):
        rng = np.random.default_rng(3)
        columns = [rng.standard_normal(200_000) for _ in range(3)]
        out = RunOutput()
        out.csvs["big.csv"] = (["a", "b", "c"], columns)
        tracemalloc.start()
        try:
            out.write(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~70 bytes per field of one block; the file's text alone is ~9 MB
        assert peak < 128 * 3 * CSV_BLOCK < (tmp_path / "big.csv").stat().st_size


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
        # in MB, not KiB or bytes: a process with numpy loaded holds some tens of MB
        assert 10.0 < manifest["peak_rss_mb"] < 10_000.0
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
        # the n = 63 operator is dense: one row per entry, in row-major order
        dump = np.loadtxt(outdir / "operator_matrix.csv", delimiter=",", skiprows=1)
        assert dump.shape == (63 * 63, 3)
        cfg = load_config((tmp_path / "m.cfg").read_text())
        op = assemble(cfg.grid, cfg.kernel, cfg.far_cutoff)
        rows, cols = dump[:, 0].astype(int), dump[:, 1].astype(int)
        assert np.array_equal(rows * 63 + cols, np.arange(63 * 63))
        assert np.array_equal(dump[:, 2], op.matrix[rows, cols])


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

    def test_overflowing_shift_bound_exits_3_with_error_log(self, tmp_path):
        # relativistic m = 1000: j(r) / j(r + 1) ~ e^1000 is past the float range
        cfg, outdir = tmp_path / "heavy.cfg", tmp_path / "heavy"
        cfg.write_text('symbol = { kind = "relativistic", alpha = 1.0, m = 1000.0 }\n')
        assert main(["validate-kernel", "--config", str(cfg), "--output", str(outdir)]) == 3
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        log = (outdir / "error.log").read_text().splitlines()
        assert len(log) == 1 and log[0].startswith("error: NumericError: shift ratio bound")

    def test_unevaluable_bessel_ratio_exits_3_naming_it(self, tmp_path):
        # relativistic m = 1e8: psi(1) = 5e-9 without cancellation, then kve gives NaN
        cfg, outdir = tmp_path / "heavier.cfg", tmp_path / "heavier"
        cfg.write_text('symbol = { kind = "relativistic", alpha = 1.0, m = 1e8 }\n')
        assert main(["validate-kernel", "--config", str(cfg), "--output", str(outdir)]) == 3
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        log = (outdir / "error.log").read_text().splitlines()
        assert len(log) == 1 and "the Bessel ratio" in log[0] and "nan" not in log[0]

    def test_missing_config_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["eigen", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("target", ["directory", "missing", "binary"])
    def test_unreadable_config_exits_2_with_error_log(self, tmp_path, target):
        path = tmp_path / "cfg"
        if target == "directory":
            path.mkdir()
        elif target == "binary":
            path.write_bytes(b"\xff\xfe\x00symbol")
        outdir = tmp_path / "out"
        assert main(["eigen", "--config", str(path), "--output", str(outdir)]) == 2
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        log = (outdir / "error.log").read_text().splitlines()
        assert len(log) == 1
        assert log[0].startswith("error: ConfigurationError: cannot read config")

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

    @pytest.mark.parametrize(
        "subcommand, extra",
        [
            ("bifurcate", 'scan = { c_max = 0.2, rel_tol = "tight" }'),
            ("mc-check", "stochastic = { n_paths = 2000.7 }"),
            ("mc-check", "stochastic = { seed = true }"),
            ("evolve", 'problem = { a_rel = 2.0 }\nparabolic = { snapshot_times = ["a"] }'),
            ("evolve", 'problem = { a_rel = 2.0 }\nparabolic = { u0 = { scale = "x" } }'),
            ("eigen", "discretization = { n = 31 }"),
            ("steady", 'problem = { a_rel = 2.0, f = { kind = "quadratic", p = 3.0 } }'),
            ("evolve", 'problem = { a_rel = 2.0 }\nparabolic = { u0 = { kind = "vortex" } }'),
            ("validate-kernel", 'kernel = { mode = "auto" }'),
            ("validate-kernel", "solver = { moment_h = 0.01 }"),
            ("evolve", "problem = { a_rel = 2.0 }\nparabolic = { u0 = { scale = nan } }"),
            ("evolve", "problem = { a_rel = 2.0 }\nparabolic = { snapshot_times = [0.0, inf] }"),
            ("longtime", "problem = { a_rel = 2.0 }\nparabolic = { verdict_tol = nan }"),
            ("mc-check", "stochastic = { n_paths = 0 }"),
            ("mc-check", "stochastic = { n_paths = 1 }"),
            ("mc-check", "stochastic = { n_paths = -5 }"),
            ("evolve", "problem = { a_rel = 2.0 }\nparabolic = { dt = 0 }"),
            ("evolve", "problem = { a_rel = 2.0 }\nparabolic = { snapshot_times = [] }"),
            ("evolve", "problem = { a_rel = 2.0 }\nparabolic = { snapshot_times = [-1.0, 0.5] }"),
            ("evolve", "problem = { a_rel = 2.0 }\n"
                       "parabolic = { horizon = 0.2, snapshot_times = [0.0, 0.3] }"),
            ("longtime", "problem = { a_rel = 2.0 }\nparabolic = { s_max = -1 }"),
            ("mc-check", "stochastic = { n_t = 0 }"),
            ("mc-check", "stochastic = { seed = -1 }"),
            ("bifurcate", 'problem = { a_rel = 1.05, c = 0.001, h = { kind = "constant_yield" } }\n'
                          "scan = { c_max = 0.2, ladder = -1 }"),
            ("steady", "problem = { a_rel = nan }"),
            ("eigen", "solver = { tol = nan }"),
            ("bifurcate", 'problem = { a_rel = 1.05, c = 0.001, h = { kind = "constant_yield" } }\n'
                          "scan = { c_max = inf }"),
            ("steady", "problem = { a_rel = 2.0, f = { b = inf } }"),
            ("bifurcate", 'problem = { a_rel = 1.05, c = 0.001, h = { kind = "constant_yield" } }\n'
                          "scan = { c_max = 0.2, rel_tol = -1 }"),
            ("evolve", "problem = { a_rel = 2.0 }\nparabolic = { horizon = 1e400 }"),
            pytest.param("evolve", "problem = { a_rel = 2.0 }\nparabolic = { horizon = 1e17 }",
                         marks=pytest.mark.filterwarnings("error::RuntimeWarning"),
                         id="evolve-horizon-past-2**53-steps"),
            ("evolve", "problem = { a_rel = 2.0 }\nparabolic = { dt = 0.1, horizon = 0.15 }"),
            ("longtime", "problem = { a_rel = 2.0 }\nparabolic = { dt = 0.1, s_max = 0.15 }"),
            ("evolve", "problem = { a_rel = 2.0 }\nparabolic = { snapshot_times = [0.0, 0.123] }"),
            pytest.param("evolve", "problem = { a_rel = 2.0 }\n"
                         "parabolic = { u0 = { scale = 1" + "0" * 400 + " } }",
                         id="evolve-integer-past-the-float-range"),
        ],
    )
    def test_bad_value_exits_2_before_assembly(self, tmp_path, monkeypatch, subcommand, extra):
        import nonlocal_logistic.cli as cli

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled an invalid config")

        monkeypatch.setattr(cli, "assemble", no_assembly)
        code, outdir = run_cli(tmp_path, subcommand, extra=extra)
        assert code == 2
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        log = (outdir / "error.log").read_text().splitlines()
        assert len(log) == 1 and log[0].startswith("error: ConfigurationError: ")

    @pytest.mark.parametrize("subcommand", ["eigen", "validate-kernel", "mc-check"])
    @pytest.mark.parametrize("symbol", ['{ kind = "fractional", alpha = 2.0 }',
                                        '{ kind = "sum_fractional", alpha = 1.0, beta = 2.0 }'])
    def test_order_2_symbol_exits_2(self, tmp_path, subcommand, symbol):
        # an order 2 is the local Laplacian, which has no jump-kernel operator
        cfg, outdir = tmp_path / "o2.cfg", tmp_path / "o2"
        cfg.write_text(f"symbol = {symbol}\ndomain = {{ left = -1.0, right = 1.0, n = 31 }}\n")
        assert main([subcommand, "--config", str(cfg), "--output", str(outdir)]) == 2
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        log = (outdir / "error.log").read_text().splitlines()
        assert len(log) == 1 and log[0].startswith("error: ConfigurationError: ")
        assert "order-2" in log[0]

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
        solvers = json.loads((outdir / "manifest.json").read_text())["solvers"]
        assert set(solvers) == {
            "eigen_iterations", "logistic_steps", "logistic_cg_iterations",
            "descent_newton_steps", "descent_chord_steps"}
        assert solvers["logistic_steps"] > 0
        assert solvers["logistic_cg_iterations"] == 0  # n = 63: the dense path
        assert solvers["descent_newton_steps"] > 0
        assert solvers["descent_chord_steps"] >= 0

    def test_cg_iterations_reach_the_manifest(self, tmp_path, monkeypatch):
        # the CG path at n = 63, where the dense path is the default
        monkeypatch.setattr(nonlocal_logistic.steady, "CG_MIN_N", 63)
        extra = (
            "problem = { a_rel = 2.0 }\n"
            "parabolic = { dt = 0.02, horizon = 0.2, s_max = 200.0, verdict_tol = 1e-4, "
            'u0 = { kind = "eigenfunction", scale = 0.01 } }'
        )
        counts = {}
        for sub in ("steady", "diagnose", "longtime"):
            code, outdir = run_cli(tmp_path, sub, extra=extra, name=sub)
            assert code == 0
            solvers = json.loads((outdir / "manifest.json").read_text())["solvers"]
            counts[sub] = solvers["logistic_cg_iterations"]
        # steady and diagnose run the same solve; longtime's reference is tighter
        assert counts["steady"] == counts["diagnose"] > 0
        assert counts["longtime"] > 0


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
        assert solvers["descent_chord_steps"] >= 0
        # each existing sample is one Newton solve of a few steps from the one below
        existing = sum(r.split(",")[1] == "true" for r in rows)
        assert existing <= solvers["small_branch_newton_steps"] <= 5 * existing
        assert solvers["small_branch_failures"] == 0

    def test_failed_small_branch_is_counted(self, tmp_path, monkeypatch):
        # a sample whose small-branch solve raises keeps sup_u2 = nan, the
        # manifest counts it, and the next sample starts from the last good state
        import nonlocal_logistic.cli as cli

        solve = cli.small_branch
        predictors, states = [], []

        def failing_third(op, spec, tol, u0=None):
            predictors.append(u0)
            if len(predictors) == 3:
                raise ContinuationError("planted failure")
            states.append(solve(op, spec, tol=tol, u0=u0))
            return states[-1]

        monkeypatch.setattr(cli, "small_branch", failing_third)
        cfg = Path(__file__).resolve().parents[1] / "configs" / "baseline.cfg"
        outdir = tmp_path / "bifurcate"
        assert main(["bifurcate", "--config", str(cfg), "--output", str(outdir)]) == 0
        solvers = json.loads((outdir / "manifest.json").read_text())["solvers"]
        rows = [r.split(",") for r in (outdir / "bifurcation.csv").read_text().splitlines()[1:]]
        lost = sum(r[1] == "true" and r[3] == "nan" for r in rows)
        assert solvers["small_branch_failures"] == 1 == lost
        assert len(predictors) > 3 and predictors[3] is states[1].u


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

    def test_evolve_snapshot_off_the_step_grid_exits_2(self, tmp_path):
        extra = (
            "problem = { a_rel = 2.0 }\n"
            "parabolic = { dt = 0.01, horizon = 0.2, snapshot_times = [0.0, 0.123] }"
        )
        code, outdir = run_cli(tmp_path, "evolve", extra=extra)
        assert code == 2
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        log = (outdir / "error.log").read_text().splitlines()
        assert len(log) == 1 and "0.123" in log[0]

    def test_evolve_snapshot_outside_the_horizon_names_entry_and_range(self, tmp_path):
        # -1.0 is a whole number of steps: the range, not the step grid, rejects it
        extra = ("problem = { a_rel = 2.0 }\n"
                 "parabolic = { dt = 0.01, horizon = 0.2, snapshot_times = [-1.0, 0.1] }")
        code, outdir = run_cli(tmp_path, "evolve", extra=extra)
        assert code == 2
        assert (outdir / "error.log").read_text() == (
            "error: ConfigurationError: parabolic.snapshot_times[0] = -1.0 must lie in "
            "[0, parabolic.horizon] = [0, 0.2]\n")

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

    def test_manifest_records_eigen_and_step_counts(self, tmp_path):
        extra = (
            "problem = { a_rel = 2.0 }\n"
            "parabolic = { dt = 0.02, horizon = 0.2, s_max = 200.0, verdict_tol = 1e-4, "
            'u0 = { kind = "eigenfunction", scale = 0.01 } }'
        )
        counts = {}
        for sub in ("eigen", "diagnose", "evolve", "longtime"):
            code, outdir = run_cli(tmp_path, sub, extra=extra, name=sub)
            assert code == 0
            counts[sub] = json.loads((outdir / "manifest.json").read_text())["solvers"]
        iterations = json.loads((tmp_path / "eigen" / "eigen.json").read_text())["iterations"]
        assert counts["eigen"] == {"eigen_iterations": iterations}
        # the logistic solve's CG iterations: 0 on the dense path at this n
        assert counts["diagnose"] == {"eigen_iterations": iterations, "logistic_cg_iterations": 0}
        assert counts["evolve"] == {"eigen_iterations": iterations, "imex_steps": 10}
        curve = (tmp_path / "longtime" / "distance_curve.csv").read_text().splitlines()
        assert counts["longtime"]["eigen_iterations"] == iterations
        assert counts["longtime"]["logistic_cg_iterations"] == 0
        assert counts["longtime"]["imex_steps"] == round(float(curve[-1].split(",")[0]) / 0.02)


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
        assert "t_max_derived" not in summary  # t_max was set
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

    def test_off_grid_window_exits_2_before_any_path(self, tmp_path, monkeypatch):
        # t_max / n_t = 0.495 is not a multiple of dt_path = 0.1
        import nonlocal_logistic.cli as cli

        def no_paths(*args, **kwargs):
            raise AssertionError("drew paths for an off-grid window")

        monkeypatch.setattr(cli.SubordinatorSampler, "increments", no_paths)
        extra = "stochastic = { n_paths = 2000, dt_path = 0.1, seed = 9, t_max = 2.97, n_t = 6 }"
        code, outdir = run_cli(tmp_path, "mc-check", extra=extra, name="offgrid")
        assert code == 2
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        assert "survival time 0.495 is not a multiple of dt_path" in (
            outdir / "error.log").read_text()

    def test_off_grid_horizon_exits_2_before_any_path(self, tmp_path, monkeypatch):
        # horizon 0.505 is not a multiple of dt_path = 0.01
        import nonlocal_logistic.cli as cli

        def no_paths(*args, **kwargs):
            raise AssertionError("drew paths for an off-grid horizon")

        monkeypatch.setattr(cli.SubordinatorSampler, "increments", no_paths)
        extra = ("stochastic = { n_paths = 2000, dt_path = 0.01, seed = 9, horizon = 0.505, "
                 "t_max = 3.0, n_t = 10 }")
        code, outdir = run_cli(tmp_path, "mc-check", extra=extra, name="offhorizon",
                               args=("--trace-paths",))
        assert code == 2
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        assert "horizon 0.505 is not a multiple of dt_path" in (outdir / "error.log").read_text()

    @pytest.mark.parametrize("stochastic, message", [
        ("horizon = 0.505", "horizon 0.505 is not a multiple of dt_path"),
        ("dt_path = 0.1, t_max = 2.97, n_t = 6", "survival time 0.495 is not a multiple of dt_path"),
    ])
    def test_domain_free_off_grid_time_exits_2(self, tmp_path, monkeypatch, stochastic, message):
        # without a domain, mc-check draws only the Laplace check: load rejects the times first
        import nonlocal_logistic.cli as cli

        def no_paths(*args, **kwargs):
            raise AssertionError("drew increments for an off-grid time")

        monkeypatch.setattr(cli.SubordinatorSampler, "increments", no_paths)
        cfg, outdir = tmp_path / "free.cfg", tmp_path / "free"
        cfg.write_text('symbol = { kind = "fractional", alpha = 1.0 }\n'
                       f"stochastic = {{ n_paths = 2000, {stochastic} }}\n")
        assert main(["mc-check", "--config", str(cfg), "--output", str(outdir)]) == 2
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        log = (outdir / "error.log").read_text().splitlines()
        assert len(log) == 1 and log[0].startswith("error: ConfigurationError: ")
        assert message in log[0]

    def test_green_and_survival_come_from_one_pass_at_seed_plus_2(self, tmp_path):
        code, outdir = run_cli(tmp_path, "mc-check", extra=self.EXTRA)
        assert code == 0
        green = json.loads((outdir / "mc_check.json").read_text())["green_mc"]
        assert green["seed"] == 9  # seed = 7
        sampler = SubordinatorSampler(BernsteinSymbol("fractional", 1.0))
        t_grid = np.linspace(0.3, 3.0, 10)
        fit = survival_lambda1(sampler, (-1.0, 1.0), 0.0, t_grid, 4000, 0.02, 9)
        rows = (outdir / "survival.csv").read_text().splitlines()[1:]
        assert rows == [f"{t!r},{p!r}" for t, p in zip(fit.t_grid.tolist(),
                                                     fit.survival.tolist())]
        est = mc_green(sampler, (-1.0, 1.0), lambda x: np.ones_like(x), 0.0, 4000, 0.02, 9,
                       horizon=64.0)
        assert (green["value"], green["std_error"]) == (est.value, est.std_error)

    def test_trace_paths_needs_domain(self, tmp_path):
        outdir = tmp_path / "nodomain"
        cfg = tmp_path / "nodomain.cfg"
        cfg.write_text(
            'symbol = { kind = "fractional", alpha = 1.0 }\n'
            "stochastic = { n_paths = 200, dt_path = 0.05, seed = 9, x0 = 0.5 }\n"
        )
        code = main(["mc-check", "--config", str(cfg), "--output", str(outdir),
                     "--trace-paths"])
        assert code == 2
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        assert "--trace-paths needs a domain block" in (outdir / "error.log").read_text()

    @pytest.mark.parametrize("x0", [1.5, 1.0])
    @pytest.mark.parametrize("args", [(), ("--trace-paths",)])
    def test_start_outside_the_domain_exits_2_before_assembly(self, tmp_path, monkeypatch,
                                                              x0, args):
        # every path from x0 on or past the edge is killed at once
        import nonlocal_logistic.cli as cli

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled for a start outside the domain")

        monkeypatch.setattr(cli, "assemble", no_assembly)
        extra = f"stochastic = {{ n_paths = 2000, dt_path = 0.05, seed = 9, x0 = {x0} }}"
        code, outdir = run_cli(tmp_path, "mc-check", extra=extra, name="outside", args=args)
        assert code == 2
        assert [p.name for p in outdir.iterdir()] == ["error.log"]
        log = (outdir / "error.log").read_text().splitlines()
        assert len(log) == 1
        assert log[0].startswith(f"error: ConfigurationError: stochastic.x0 = {x0} must lie")


class TestManifestSolvers:
    def test_eigen_iterations_and_trace_counts(self, tmp_path):
        code, outdir = run_cli(tmp_path, "eigen", name="eigen")
        assert code == 0
        iterations = json.loads((outdir / "eigen.json").read_text())["iterations"]
        harvest = ('problem = { a_rel = 1.05, c = 1.0, f = { kind = "quadratic" }, '
                   'h = { kind = "constant_yield", h0 = 1.0 } }')
        runs = [
            ("steady", 'problem = { a_rel = 2.0, f = { kind = "quadratic" } }', ()),
            ("bifurcate", harvest + "\nscan = { c_max = 0.2, rel_tol = 0.01, ladder = 2 }", ()),
            ("mc-check", TestMcCheck.EXTRA, ("--trace-paths",)),
        ]
        for sub, extra, args in runs:
            code, outdir = run_cli(tmp_path, sub, extra=extra, name=sub, args=args)
            assert code == 0
            solvers = json.loads((outdir / "manifest.json").read_text())["solvers"]
            assert solvers["eigen_iterations"] == iterations
        rows = (tmp_path / "mc-check" / "path_traces.csv").read_text().splitlines()[1:]
        assert solvers["trace_paths"] == 1000  # the cap: n_paths = 4000
        assert solvers["trace_rows"] == len(rows)

    def test_survivors_are_the_paths_alive_at_the_last_time(self, tmp_path):
        code, outdir = run_cli(tmp_path, "mc-check", extra=TestMcCheck.EXTRA)
        assert code == 0
        survivors = json.loads((outdir / "manifest.json").read_text())["solvers"]["survivors"]
        last = (outdir / "survival.csv").read_text().splitlines()[-1].split(",")
        assert survivors >= 50  # the survival fit's power gate
        assert survivors == round(float(last[1]) * 4000)  # n_paths = 4000

    def test_path_steps_are_the_occupation_time_in_steps(self, tmp_path):
        # horizon 64 at lambda_1 ~ 1.17: no path is alive there, so every move
        # of the exit pass adds dt_path to the Green occupation time
        code, outdir = run_cli(tmp_path, "mc-check", extra=TestMcCheck.EXTRA)
        assert code == 0
        steps = json.loads((outdir / "manifest.json").read_text())["solvers"]["path_steps"]
        green = json.loads((outdir / "mc_check.json").read_text())["green_mc"]
        assert green["value"] * 4000 == pytest.approx(0.02 * steps, rel=1e-12)


# the output flags and the subcommands that honour them; --config, --output
# and --workers are on every subcommand
FLAG_SUBCOMMANDS = {
    "--dump-matrix": {"eigen", "steady"},
    "--plot-script": {"eigen", "steady", "bifurcate", "evolve", "longtime"},
    "--trace-paths": {"mc-check"},
}
COMMON_OPTIONS = {"-h", "--help", "--config", "--output", "--workers"}


class TestFlags:
    def test_each_flag_is_on_exactly_its_subcommands(self):
        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        assert set(action.choices) == set(SUBCOMMANDS)
        offered = {}
        for name, parser in action.choices.items():
            options = {o for a in parser._actions for o in a.option_strings}
            assert COMMON_OPTIONS <= options
            for flag in options - COMMON_OPTIONS:
                offered.setdefault(flag, set()).add(name)
        assert offered == FLAG_SUBCOMMANDS

    @pytest.mark.parametrize("subcommand, flag", [
        (sub, flag) for flag, subs in FLAG_SUBCOMMANDS.items()
        for sub in SUBCOMMANDS if sub not in subs])
    def test_unhonoured_flag_is_a_usage_error(self, tmp_path, capsys, subcommand, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, subcommand, args=(flag,))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert f"usage: nonlocal-logistic {subcommand} " in err  # the subcommand's usage
        assert not (tmp_path / "run").exists()  # a usage error writes no error.log

    def test_steady_dump_and_plot_script(self, tmp_path):
        code, outdir = run_cli(tmp_path, "steady", extra="problem = { a_rel = 2.0 }",
                               args=("--dump-matrix", "--plot-script"))
        assert code == 0
        dump = (outdir / "operator_matrix.csv").read_text().splitlines()
        assert dump[0] == "row,col,value" and len(dump) == 1 + 63 * 63
        assert "steady.csv" in (outdir / "plot_steady.py").read_text()


class TestOtherCommands:
    def test_validate_kernel(self, tmp_path):
        code, outdir = run_cli(tmp_path, "validate-kernel")
        assert code == 0
        report = json.loads((outdir / "kernel_report.json").read_text())
        assert report["scaling"]["passed"]
        assert report["shift_bound_b2"] > 1.0

    @pytest.mark.parametrize("symbol", ['{ kind = "log_damped", alpha = 1.0, beta = 0.5 }',
                                        '{ kind = "log_boosted", alpha = 1.0, beta = 0.5 }'])
    def test_scaled_profile_symbols(self, tmp_path, symbol):
        # the only symbols on the profile psi(r^-2) / r; no shipped config runs them
        cfg = tmp_path / "log.cfg"
        cfg.write_text(f"symbol = {symbol}\n"
                       "domain = { left = -1.0, right = 1.0, n = 63 }\n"
                       "problem = { a_rel = 2.0 }\n")

        def run(subcommand):
            outdir = tmp_path / subcommand
            return main([subcommand, "--config", str(cfg), "--output", str(outdir)]), outdir

        for subcommand in ("validate-kernel", "eigen", "steady"):
            assert run(subcommand)[0] == 0
        report = json.loads((tmp_path / "validate-kernel" / "kernel_report.json").read_text())
        assert report["mode"] == "scaled_profile"
        lam1 = json.loads((tmp_path / "eigen" / "eigen.json").read_text())["lambda1"]
        assert math.isfinite(lam1) and lam1 > 0
        assert json.loads((tmp_path / "steady" / "steady.json").read_text())["lambda1"] == lam1
        code, outdir = run("mc-check")
        assert code == 2
        assert (outdir / "error.log").read_text().startswith("error: SamplerError: ")

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

    @pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
    def test_derived_survival_window(self, tmp_path, config):
        # the shipped symbol and stochastic block without t_max, on fewer
        # paths and a coarser grid: mc-check derives the window from lambda_1
        raw = tomllib.loads((CONFIGS / config).read_text())
        del raw["stochastic"]["t_max"]
        raw["stochastic"]["n_paths"] = 4000
        raw["domain"]["n"] = 63
        path = tmp_path / "derived.json"
        path.write_text(json.dumps(raw))
        outdir = tmp_path / "out"
        code = main(["mc-check", "--config", str(path), "--output", str(outdir),
                     "--workers", "1"])
        assert code == 0  # the 0.1 and 50-survivor gates passed
        summary = json.loads((outdir / "mc_check.json").read_text())
        t_max = summary["t_max_derived"]
        block = raw["stochastic"]["n_t"] * raw["stochastic"]["dt_path"]
        rule = 1.5 * math.log(12.0) / summary["lambda1_spectral"]
        assert rule <= t_max < rule + block
        assert t_max / block == pytest.approx(round(t_max / block), abs=1e-9)
        last = (outdir / "survival.csv").read_text().splitlines()[-1].split(",")
        assert float(last[0]) == pytest.approx(t_max, rel=1e-12)


class TestImports:
    """A CLI process imports only the scipy its symbol needs."""

    # LAPACK, Levinson, QUADPACK and the Bessel ufuncs come from scipy's
    # compiled modules, without their packages; only mc-check on more than
    # one worker needs the thread pool
    UNUSED = ("scipy.linalg", "scipy.integrate", "scipy.special", "scipy.fft",
              "scipy.optimize", "scipy.sparse", "concurrent.futures.thread")
    # only the Bessel form and adaptive quadrature load these
    ON_FIRST_USE = ("scipy.special._special_ufuncs", "scipy.integrate._quadpack")

    @staticmethod
    def _modules_after(tmp_path, runs) -> set[str]:
        """The modules a fresh process holds after importing the CLI and making ``runs``.

        ``runs`` is a list of (subcommand, symbol); each runs on n = 31 with
        ``a_rel = 2`` and must exit 0.
        """
        argvs = []
        for i, (subcommand, symbol) in enumerate(runs):
            cfg = tmp_path / f"run{i}.cfg"
            cfg.write_text(f"symbol = {symbol}\n"
                           "domain = { left = -1.0, right = 1.0, n = 31 }\n"
                           "problem = { a_rel = 2.0 }\n")
            argvs.append([subcommand, "--config", str(cfg), "--output", str(tmp_path / f"out{i}")])
        script = ("import json, sys\n"
                  "from nonlocal_logistic.cli import main\n"
                  f"codes = [main(argv) for argv in {argvs!r}]\n"
                  "print(json.dumps([codes, sorted(sys.modules)]))\n")
        src = str(Path(nonlocal_logistic.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        codes, modules = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0] * len(runs)
        return set(modules)

    def test_power_law_runs_import_no_unused_scipy(self, tmp_path):
        modules = self._modules_after(tmp_path, [
            ("steady", '{ kind = "fractional", alpha = 1.0 }'),
            ("evolve", '{ kind = "sum_fractional", alpha = 1.0, beta = 1.5 }'),
        ])
        assert [name for name in self.UNUSED + self.ON_FIRST_USE if name in modules] == []

    def test_bessel_form_loads_only_compiled_quadpack_and_bessel(self, tmp_path):
        modules = self._modules_after(tmp_path, [
            ("eigen", '{ kind = "relativistic", alpha = 1.0, m = 1.0 }'),
            ("validate-kernel", '{ kind = "relativistic", alpha = 1.0, m = 1.0 }'),
        ])
        assert [name for name in self.ON_FIRST_USE if name not in modules] == []
        assert [name for name in self.UNUSED if name in modules] == []
