"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--trace 0|1]
        [--seconds S] [--out FILE]

Runs ``run.py`` once per seed, one after another, and prints for every
metric its median, quartiles and interquartile distance over the median
(``statistics.quantiles(values, n=4)``), next to the bound in
BENCHMARK.json. ``--out`` writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from arith import relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr[-3000:])
            print(f"seed {seed}: exit {done.returncode}")
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "result": result, "report": json.loads(lines[-2])})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']}",
              flush=True)

    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": relative_spread(values),
            "bound": bounds.get(name),
        }
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if summary[name]["spread"] < bound / 3 else "  WIDE")
        print(f"{name:34s} median {q2:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {summary[name]['spread']:.4f}  bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seconds": seconds,
             "summary": summary, "runs": runs}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
