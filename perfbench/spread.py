"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--trace 0|1]

Every run measures for ``run_seconds`` of ``BENCHMARK.json``.  Workloads
alternate: seed i runs the workload list rotated by i, so no workload
always runs first or right after the same neighbour.  For every
workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile distance
as a share of the median, plus the failed share of attempted CLI runs.
The last line is the same table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {"runs": len(results),
           "failed_share": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
           "correct": all(r["correct"] for r in results), "metrics": {}}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out["metrics"][name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                                "iqr_share": (q3 - q1) / med if med else 0.0,
                                "min": min(values), "max": max(values)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(WORKLOADS)
    results = {w: [] for w in names}
    for i in range(args.seeds):
        seed = args.first_seed + i
        for w in names[i % len(names):] + names[:i % len(names)]:
            res = one_run(w, seed, seconds, args.trace)
            results[w].append(res)
            vals = ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                             if not args.trace or k.endswith("_s"))
            print(f"seed {seed} {w}: failed {res['failed']}/{res['attempted']} {vals}", flush=True)
    table = {w: summarize(rs) for w, rs in results.items()}
    for w, t in table.items():
        print(f"{w}: {t['runs']} runs, failed share {t['failed_share']}, correct {t['correct']}")
        for name, m in t["metrics"].items():
            print(f"  {name:28s} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  iqr/median {100 * m['iqr_share']:.2f}%")
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
