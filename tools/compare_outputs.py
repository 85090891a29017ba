#!/usr/bin/env python3
"""Compare the data files of two output trees.

Usage: python tools/compare_outputs.py A B

Pairs the files under A and B by relative path, skipping every
``manifest.json`` (its timings and versions differ from run to run).  A
file that is byte-identical on both sides is reported ``identical``.
Otherwise a CSV file is compared column by column and a JSON file number by
number: each column or number that moved gets its largest absolute
difference and its largest relative difference ``|a - b| / max(|a|, |b|)``,
and every other difference (a file on one side only, a changed header or
row count, a non-numeric cell or value, a change of text only) is named.
Exits 1 if any file differs, 0 if all are identical, 2 on bad usage.  Run on
the output trees of ``tools/run_shipped.py`` for two commits, it is the
byte check of a refactor and the measure of a documented output change.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

SKIPPED = "manifest.json"


def _number(value) -> float | None:
    """``value`` as a float if it is a number (CSV text or JSON), else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _gap(x: float, y: float) -> tuple[float, float]:
    """Absolute and relative difference of two finite numbers."""
    d = abs(x - y)
    return d, (d / max(abs(x), abs(y)) if d else 0.0)


def _moved(x, y) -> tuple[float, float] | None:
    """The gap of two unequal values if both are finite numbers, else None."""
    fx, fy = _number(x), _number(y)
    if fx is None or fy is None or not (math.isfinite(fx) and math.isfinite(fy)) or fx == fy:
        return None
    return _gap(fx, fy)


def compare_csv(text_a: str, text_b: str) -> list[str]:
    rows_a = list(csv.reader(io.StringIO(text_a)))
    rows_b = list(csv.reader(io.StringIO(text_b)))
    if rows_a[:1] != rows_b[:1]:
        return [f"header {rows_a[:1]} against {rows_b[:1]}"]
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return [f"{len(rows_a) - 1} rows against {len(rows_b) - 1}, or ragged rows"]
    n_rows = len(rows_a) - 1
    report = []
    for j, name in enumerate(rows_a[0] if rows_a else []):
        worst_abs = worst_rel = 0.0
        moved = other = 0
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            if row_a[j] == row_b[j]:
                continue
            gap = _moved(row_a[j], row_b[j])
            if gap is None:
                other += 1
                continue
            moved += 1
            worst_abs, worst_rel = max(worst_abs, gap[0]), max(worst_rel, gap[1])
        if moved:
            report.append(f"column {name}: {moved} of {n_rows} rows moved, "
                          f"max abs {worst_abs:.3e}, max rel {worst_rel:.3e}")
        if other:
            report.append(f"column {name}: {other} of {n_rows} cells differ "
                          f"other than in value")
    return report


def _leaves(value, path: str = ""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def compare_json(text_a: str, text_b: str) -> list[str]:
    leaves_a = dict(_leaves(json.loads(text_a)))
    leaves_b = dict(_leaves(json.loads(text_b)))
    report = [f"{path}: only in {side}"
              for side, mine, theirs in (("A", leaves_a, leaves_b), ("B", leaves_b, leaves_a))
              for path in mine if path not in theirs]
    for path, x in leaves_a.items():
        if path not in leaves_b or leaves_b[path] == x:
            continue
        y = leaves_b[path]
        gap = _moved(x, y)
        if gap is None:
            report.append(f"{path}: {x!r} against {y!r}")
        else:
            report.append(f"{path}: {x!r} against {y!r}, abs {gap[0]:.3e}, rel {gap[1]:.3e}")
    return report


def compare_file(a: Path, b: Path) -> list[str] | None:
    """None if the two files are byte-identical, else what differs."""
    bytes_a, bytes_b = a.read_bytes(), b.read_bytes()
    if bytes_a == bytes_b:
        return None
    if a.suffix == ".csv":
        report = compare_csv(bytes_a.decode(), bytes_b.decode())
    elif a.suffix == ".json":
        report = compare_json(bytes_a.decode(), bytes_b.decode())
    else:
        return ["contents differ (neither CSV nor JSON)"]
    return report or ["bytes differ, values equal"]


def data_files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.name != SKIPPED}


def compare_trees(a: Path, b: Path) -> tuple[list[str], bool]:
    """Report lines for every data file under ``a`` or ``b``, and whether any differs."""
    files_a, files_b = data_files(a), data_files(b)
    lines, differs = [], False
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            lines.append(f"only in {'A' if rel in files_a else 'B'}  {rel}")
            differs = True
            continue
        report = compare_file(a / rel, b / rel)
        if report is None:
            lines.append(f"identical  {rel}")
            continue
        differs = True
        lines.append(f"DIFFERS    {rel}")
        lines.extend(f"    {line}" for line in report)
    return lines, differs


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print("usage: python tools/compare_outputs.py A B  (two directories)", file=sys.stderr)
        return 2
    lines, differs = compare_trees(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
