"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload codes --seeds 1-10 [--trace 0] [--seconds 10]

Each run's result line is appended to bench/runs/<workload>-trace<t>.jsonl.
For every metric it prints the median and the quartile spread
(q3 - q1) / median, with quartiles from statistics.quantiles(values, n=4),
and the failed share of each run. Under each run it echoes the run's last
stderr line: per round, the scaled and unscaled wall time and the
slow-down factor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()

    out = BENCH / "runs" / f"{args.workload}-trace{args.trace}.jsonl"
    out.parent.mkdir(exist_ok=True)
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent, check=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        res["seed"] = seed
        runs.append(res)
        with out.open("a") as fh:
            fh.write(json.dumps(res) + "\n")
        print(seed, res["correct"], res["attempted"], res["failed"],
              {k: round(v["value"], 4) for k, v in res["metrics"].items() if not args.trace}, flush=True)
        print("   ", proc.stderr.strip().splitlines()[-1][:300], flush=True)

    print("failed shares:", sorted({r["failed"] / r["attempted"] for r in runs}),
          "all correct:", all(r["correct"] for r in runs))
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) > 1 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:45s} median {med:.6g}  spread {(q3 - q1) / med:.4f}")
        else:
            print(f"{name:45s} median {med:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
