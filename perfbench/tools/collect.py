"""Run the benchmark once per seed on each workload and keep the outputs.

    python3 perfbench/tools/collect.py OUT_DIR [--seeds 1-10] [--workloads a,b] [--trace 0|1]

Runs `BENCHMARK.json`'s command from the repository root with its
`run_seconds`, writes each run's stdout to OUT_DIR/<workload>-<seed>.out,
and prints, per workload and metric, the median, the quartiles and the
spread (interquartile distance over median) next to the metric's bound.
"""

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import runs  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out_dir")
    ap.add_argument("--seeds", default="1-10", type=seed_range)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    bench = runs.load_benchmark(ROOT)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    os.makedirs(args.out_dir, exist_ok=True)
    for workload in names:
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", args.trace,
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
            path = os.path.join(args.out_dir, f"{workload}-{seed}.out")
            with open(path, "w") as f:
                f.write(done.stdout)
            _, result = runs.parse_run(done.stdout)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    if args.trace == "1":
        return
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    collected = runs.load_set(args.out_dir)
    print(f"{'workload':<10} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload in names:
        results = collected.get(workload, [])
        for name, bound in bounds.items():
            values = runs.metric_values(results, name)
            if not values:
                continue
            q1, med, q3 = runs.quartiles(values)
            flag = "" if runs.spread(values) <= bound / 3 else "  > bound/3"
            print(f"{workload:<10} {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{runs.spread(values):>8.4f} {bound:>6}{flag}")


if __name__ == "__main__":
    main()
