"""Load benchmark run outputs and summarize them.

A run output is the captured stdout of one benchmark run: a stamp line
(`# perfbench rev=... workload=... seed=...`), a counts line, and the
result JSON as the last line. A set of runs is a directory of such files.
"""

import json
import os
import statistics


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(text):
    """Return (stamp dict, result dict) of one run's stdout."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("empty output")
    stamp = {}
    for line in lines:
        if line.startswith("# perfbench "):
            for field in line[len("# perfbench "):].split():
                key, _, value = field.partition("=")
                stamp[key] = value
    return stamp, json.loads(lines[-1])


def load_set(directory):
    """{workload: [result, ...]} for every run output in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not name.endswith(".out") or not os.path.isfile(path):
            continue
        with open(path) as f:
            stamp, result = parse_run(f.read())
        runs.setdefault(stamp.get("workload", "?"), []).append(result)
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")
