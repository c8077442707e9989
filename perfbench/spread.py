"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root:

    python3 perfbench/spread.py --workload <name> --seeds 1-10

Runs the benchmark command from BENCHMARK.json once per seed, for its
run_seconds, and prints for each end-to-end metric the median, the quartile
spread as a share of the median (statistics.quantiles, n=4) and that spread
as a share of the metric's bound. A steady benchmark keeps every spread but set-up's under a
third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in seeds_of(args.seeds):
        argv = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect answers\n{proc.stdout}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{metric['name']:16s} median {med:.5g} {metric['unit']:5s} spread {spread:.4f}"
              f" = {spread / metric['bound']:.2f} of bound {metric['bound']}")


if __name__ == "__main__":
    main()
