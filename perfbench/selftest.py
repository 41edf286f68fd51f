#!/usr/bin/env python3
"""Self-test of the tripQuery benchmark at the small test scale.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, and for `user`, which runs the same way
but is left out of the timed set, it runs the benchmark twice untraced and twice traced
with the same seed, and checks that:
  - every run is correct, with no failed query;
  - every named metric prints, with the unit BENCHMARK.json gives it;
  - every count metric, and each metric that only depends on the data and the
    seed, is identical across the two runs;
  - the traced mirror reproduced every query (trace.mismatch = 0).
Exits non-zero on the first set of problems it finds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
# Runnable by hand (`--workload user`) but not in BENCHMARK.json: see README.md.
UNTIMED_WORKLOADS = ["user"]
# Metrics that depend only on the data set and the seed, besides the counts.
DETERMINISTIC = {"index_mib", "smape_pct", "nll", "sntindex.build_map_yield", "core.accept_ratio",
                 "mem.c_mib", "mem.wt_mib", "mem.user_mib", "mem.forest_mib"}


def run(workload, trace):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "test"],
                       cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if not lines:
        return p.returncode, None
    return p.returncode, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in [x["name"] for x in spec["workloads"]] + UNTIMED_WORKLOADS:
        for trace in (0, 1):
            runs = [run(w, trace) for _ in range(2)]
            tag = f"{w} --trace {trace}"
            for code, r in runs:
                if code != 0 or r is None or not r["correct"] or r["failed"] != 0:
                    problems.append(f"{tag}: exit {code}, result {r}")
            if any(r is None for _, r in runs):
                continue
            (_, a), (_, b) = runs
            if set(a) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(a)}")
            got = {k: v["unit"] for k, v in a["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected[trace]))}, "
                                f"units {[(k, got[k]) for k in got if expected[trace].get(k, got[k]) != got[k]]}")
            for k, unit in got.items():
                if (unit == "count" or k in DETERMINISTIC) and a["metrics"][k]["value"] != b["metrics"][k]["value"]:
                    problems.append(f"{tag}: {k} differs across runs with seed {SEED}: "
                                    f"{a['metrics'][k]['value']} vs {b['metrics'][k]['value']}")
            if trace == 1 and a["metrics"]["trace.mismatch"]["value"] != 0:
                problems.append(f"{tag}: trace.mismatch = {a['metrics']['trace.mismatch']['value']}")
            print(f"{tag}: checked {len(got)} metrics", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
