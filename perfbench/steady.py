"""Steadiness check: two sets of ten benchmark runs of the same code, compared.

    python3 perfbench/steady.py

Runs ``run.py --trace 0`` ten times per set and workload of BENCHMARK.json,
every run with its own seed (seeds 1-10 for set 1, 11-20 for set 2),
interleaving the workloads.  For each workload and end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance over
median) and whether the sets agree with the metric's bound in
BENCHMARK.json: each spread within the bound, set 2's median within the
bound of set 1's in either direction, and the same share of failed
operations in every run.  Results are also written to perfbench/out/.
Exits 1 when anything disagrees.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from statistics import quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    argv[0] = sys.executable if argv[0] in ("python3", "python") else argv[0]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(spec: dict, results: dict) -> bool:
    """Print the comparison; True when the two sets agree."""
    ok = True
    for workload, sets in results.items():
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"\n{workload}: failed share {sorted(shares)}"
              + ("" if len(shares) == 1 else "  DISAGREES"))
        ok &= len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for index, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, mid, q3 = quantiles(values, n=4)
                spread = (q3 - q1) / mid
                first = mid if first is None else first
                change = (mid - first) / first
                good = spread <= bound and abs(change) <= bound
                ok &= good
                print(f"  {name:12s} set {index + 1}: median {mid:.6g} "
                      f"{metric['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f} "
                      f"(bound {bound}, target < {bound / 3:.3f})  "
                      f"vs set 1 {change:+.3f}  {'ok' if good else 'DISAGREES'}")
    return ok


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    results = {name: [[] for _ in range(SETS)] for name in names}
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for name in names:
                result = run_once(spec, name, seed)
                results[name][s].append(result)
                print(f"set {s + 1} seed {seed} {name}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump(results, fh)
    return 0 if judge(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
