"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/tools/bench_diff.py BASE_DIR NEW_DIR

Each directory holds run outputs (see collect.py). For every workload and
end-to-end metric in `BENCHMARK.json` it prints both medians with their
quartiles, the relative difference of the medians and the metric's bound,
and flags a metric only when NEW is worse than BASE by more than the
bound. Exits 1 if any metric is flagged, or if the share of failed
actions differs between the sets.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import runs  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = runs.load_set(sys.argv[1]), runs.load_set(sys.argv[2])
    bench = runs.load_benchmark(ROOT)
    flagged = 0
    print(f"{'workload':<10} {'metric':<18} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'diff':>8} {'bound':>6}")
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = base.get(workload, []), new.get(workload, [])
        if not a or not b:
            print(f"{workload:<10} (missing in {'base' if not a else 'new'})")
            continue
        if failed_share(a) != failed_share(b):
            print(f"{workload:<10} failed share {failed_share(a):.6f} -> {failed_share(b):.6f}  FLAG")
            flagged += 1
        for m in bench["end_to_end"]:
            va, vb = runs.metric_values(a, m["name"]), runs.metric_values(b, m["name"])
            if not va or not vb:
                continue
            qa, qb = runs.quartiles(va), runs.quartiles(vb)
            diff = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            worse = diff if m["better"] == "lower" else -diff
            flag = "  FLAG" if worse > m["bound"] else ""
            flagged += bool(flag)
            print(f"{workload:<10} {m['name']:<18} "
                  f"{qa[1]:>12.6g} [{qa[0]:>9.6g}, {qa[2]:>9.6g}] "
                  f"{qb[1]:>12.6g} [{qb[0]:>9.6g}, {qb[2]:>9.6g}] "
                  f"{100 * diff:>+7.2f}% {m['bound']:>6}{flag}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
