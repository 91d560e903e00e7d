"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/campaign.py --workload validate --seeds 1-10 [--seconds 10]
                                  [--trace 0|1] [--out perfbench/results/NAME.json]

Runs ``perfbench/run.py`` once per seed, one run after another, and prints
for every metric the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median.  With ``--out`` the summary and
every run's result line are added to a JSON file under the workload's name,
so one file can hold a commit's numbers for all workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in _seeds(args.seeds):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, cwd=HERE.parent, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["env"] = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
        result["seed"], result["run_s"] = seed, time.perf_counter() - started
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {result['run_s']:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}"
              + (f", {values}" if args.trace == "0" else ""), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         **summarise([r["metrics"][name]["value"] for r in runs])}
        if args.trace == "0":
            s = summary[name]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{name}: median {s['median']:.6g} {s['unit']}, q1 {s['q1']:.6g}, "
                  f"q3 {s['q3']:.6g}, spread {spread}")
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = args.workload + ("/traced" if args.trace == "1" else "")
        data[key] = {"seconds": float(args.seconds), "summary": summary, "runs": runs}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
