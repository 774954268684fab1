"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workload scatter --runs 10

Runs ``run.py`` for ``run_seconds`` once per seed, seeds 1 to ``--runs`` in
turn, and prints for each metric the median and the interquartile range as a
share of the median, with the quartiles of ``statistics.quantiles(values,
n=4)``; then each metric's bound from BENCHMARK.json. Run it from the root of
a dfsphere checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    runs = []
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: " + json.dumps(result), flush=True)

    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
          f"failed shares {sorted(shares)}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"  {m['name']:<12} median {med:12.4f} {m['unit']:<5} IQR/median {(q3 - q1) / med:7.4f}"
              f"  (bound {m['bound']}, min {min(values):.4f}, max {max(values):.4f})")


if __name__ == "__main__":
    main()
