"""tools/compare_outputs.py: the data-file comparison of two output trees."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from nonlocal_logistic.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CONFIG = """
symbol = {{ kind = "fractional", alpha = 1.0 }}
domain = {{ left = -1.0, right = 1.0, n = 63 }}
problem = {{ a_rel = 2.0, c = 0.05, h = {{ kind = "constant_yield", h0 = 1.0 }} }}
output = {{ directory = "{outdir}" }}
"""


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    cfg = root / "steady.cfg"
    cfg.write_text(CONFIG.format(outdir=(root / "a" / "steady").as_posix()))
    assert main(["steady", "--config", str(cfg)]) == 0
    return root / "a"


def _copy(tree, tmp_path) -> Path:
    return Path(shutil.copytree(tree, tmp_path / "b"))


def test_tree_against_itself_is_identical(tree, capsys):
    assert compare_outputs.main([str(tree), str(tree)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["identical  steady/steady.csv", "identical  steady/steady.json"]


def test_manifest_is_skipped(tree, tmp_path):
    other = _copy(tree, tmp_path)
    (other / "steady" / "manifest.json").write_text("{}\n")
    assert compare_outputs.compare_trees(tree, other)[1] is False


def test_one_ulp_in_one_column_is_flagged(tree, tmp_path, capsys):
    other = _copy(tree, tmp_path)
    path = other / "steady" / "steady.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    column = rows[0].index("maximal")
    value = float(rows[30][column])
    rows[30][column] = repr(float(np.nextafter(value, np.inf)))
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    assert compare_outputs.main([str(tree), str(other)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "DIFFERS    steady/steady.csv"
    assert lines[1].startswith("    column maximal: 1 of 63 rows moved, ")
    assert len(lines) == 3 and lines[2] == "identical  steady/steady.json"
    ulp = float(np.spacing(value))
    assert f"max abs {ulp:.3e}, max rel {ulp / np.nextafter(value, np.inf):.3e}" in lines[1]


def test_json_numbers_and_missing_files_are_named(tree, tmp_path):
    other = _copy(tree, tmp_path)
    path = other / "steady" / "steady.json"
    summary = json.loads(path.read_text())
    summary["maximal_sup"] *= 1.0 + 1e-9
    summary["maximal_branch"] = "none"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    (other / "steady" / "steady.csv").unlink()
    lines, differs = compare_outputs.compare_trees(tree, other)
    assert differs
    assert lines[0] == "only in A  steady/steady.csv"
    assert lines[1] == "DIFFERS    steady/steady.json"
    assert lines[2] == "    maximal_branch: 'maximal' against 'none'"
    assert lines[3].startswith("    maximal_sup: ") and "rel 1.000e-09" in lines[3]
