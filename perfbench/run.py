"""circenum's benchmark: one workload of CLI queries, every answer checked.

    python3 perfbench/run.py --workload formula|verify|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each query runs in a fresh interpreter
(``worker.py``), one at a time, in rounds: every round runs the workload's
whole query mix once, in an order shuffled from the seed, and rounds repeat
until S seconds have passed.  Answers are checked outside the timed calls;
a wrong answer, a wrong exit code or a crash counts as a failed operation.
A relation between several answers that fails marks one query failed: the
first one it reads.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: round_s, the median over rounds of the summed time
of ``circenum.cli.main``; setup_s, the median over all queries of the time
from process start until the CLI is ready; and peak_rss_mb, the largest peak
resident set of any query process.  With ``--trace 1`` untraced and traced
rounds alternate and the line carries the per-layer metrics instead (see
``tracer.py``), the untraced time per query kind and the tracing overhead.
Every run writes its per-query timings to ``perfbench/out/``, and a traced
run the spans of its last traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from statistics import median

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
QUERY_TIMEOUT = 150
WARM_UP = ("count", "--order", "5", "--class", "d")


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CIRCENUM_FORMAT", None)      # would change the CLI's output format
    env["PYTHONHASHSEED"] = "0"
    return env


def run_query(argv, trace_path: str = "-") -> dict:
    """One query in a fresh interpreter; 'setup' is spawn-to-ready time."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, trace_path, "--", *argv],
                          capture_output=True, text=True, timeout=QUERY_TIMEOUT,
                          env=_worker_env(), cwd=ROOT)
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {"secs": 0.0, "setup": None, "rss_kb": 0, "code": None, "out": "",
                "error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    record["setup"] = record["ready"] - spawned
    return record


def run_round(workload, order, trace_dir=None) -> dict:
    """Run the queries in the given order; check every answer afterwards."""
    records = {}
    for query in order:
        path = os.path.join(trace_dir, query.name.replace(" ", "_") + ".jsonl") if trace_dir else "-"
        records[query.name] = run_query(query.argv, path)
    problems = {q.name: [] for q in workload.queries}
    for query in workload.queries:
        rec = records[query.name]
        if rec["error"]:
            problems[query.name].append(rec["error"].strip().splitlines()[-1])
            continue
        try:
            problems[query.name] += query.check(rec["code"], rec["out"])
        except (ValueError, KeyError, IndexError) as exc:
            problems[query.name].append(f"unreadable answer: {exc!r}")
    for relation in workload.relations:
        if any(problems[name] for name in relation.names):
            continue
        answers = {name: (records[name]["code"], records[name]["out"]) for name in relation.names}
        try:
            found = relation.check(answers)
        except (ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable answer: {exc!r}"]
        if found:      # one failed relation is one failed operation
            problems[relation.names[0]] += found
    return {"records": records, "problems": problems,
            "secs": sum(r["secs"] for r in records.values())}


def _report(rounds: list[dict]) -> tuple[int, int]:
    attempted = failed = 0
    for rnd in rounds:
        for name, found in rnd["problems"].items():
            attempted += 1
            if found:
                failed += 1
                print(f"FAILED {name}: {'; '.join(found)[:400]}", file=sys.stderr)
    return attempted, failed


def timed(workload, rng, seconds) -> tuple[list[dict], dict]:
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(run_round(workload, rng.sample(workload.queries, len(workload.queries))))
    records = [r for rnd in rounds for r in rnd["records"].values()]
    setups = [r["setup"] for r in records if r["setup"] is not None]
    metrics = {
        "round_s": (median(rnd["secs"] for rnd in rounds), "s"),
        "setup_s": (median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in records) / 1024, "MB"),
    }
    return rounds, metrics


def traced(workload, rng, seconds, trace_dir) -> tuple[list[dict], dict]:
    """Untraced and traced rounds alternate; counts come from one traced
    round (they repeat exactly), times are medians over traced rounds."""
    plain, spanned = [], []
    start = time.monotonic()
    while not spanned or time.monotonic() - start < seconds:
        plain.append(run_round(workload, rng.sample(workload.queries, len(workload.queries))))
        spanned.append(run_round(workload, rng.sample(workload.queries, len(workload.queries)),
                                 trace_dir))
    per_round = []
    for rnd in spanned:
        summaries = [r["trace"] for r in rnd["records"].values() if "trace" in r]
        out_bytes = sum(len(r["out"].encode()) for r in rnd["records"].values())
        per_round.append(tracer.layer_metrics(summaries, out_bytes))
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "s" or unit == "ms":
            value = median(m[name][0] for m in per_round)
        metrics[name] = (value, unit)
    for kind in workloads.KINDS:
        metrics[f"query.{kind}_s"] = (median(
            sum(rnd["records"][q.name]["secs"] for q in workload.queries if q.kind == kind)
            for rnd in plain), "s")
    plain_s = median(rnd["secs"] for rnd in plain)
    traced_s = median(rnd["secs"] for rnd in spanned)
    metrics["trace.round_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return plain + spanned, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "circenum", "cli.py")):
        print(f"no circenum sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    warm = run_query(WARM_UP)      # also leaves compiled bytecode behind
    if warm["error"] or warm["code"] != 0:
        print(f"circenum does not run: {warm['error'] or warm['code']}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    if args.trace:
        trace_dir = os.path.join(OUT, f"trace-{args.workload}")
        os.makedirs(trace_dir, exist_ok=True)
        run_query(WARM_UP, os.path.join(trace_dir, "warm-up.jsonl"))
        rounds, metrics = traced(workload, rng, args.seconds, trace_dir)
    else:
        rounds, metrics = timed(workload, rng, args.seconds)
    attempted, failed = _report(rounds)
    print(f"{args.workload}: {len(rounds)} rounds of {len(workload.queries)} queries, "
          "seconds per round: " + " ".join(f"{rnd['secs']:.3f}" for rnd in rounds),
          file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {(m["name"], m["unit"]) for m in
                  json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    printed = {(name, unit) for name, (_, unit) in metrics.items()}
    if printed != listed:
        print(f"metrics differ from BENCHMARK.json: {sorted(printed ^ listed)}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": result, "rounds": [
            {name: {k: rec[k] for k in ("secs", "setup", "rss_kb", "code")}
             for name, rec in rnd["records"].items()} for rnd in rounds]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
