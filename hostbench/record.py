#!/usr/bin/env python3
"""Helpers that record the benchmark's reference data.

Run from the repository root:

  python3 hostbench/record.py pin --seeds 0-12,97 [--workloads a,b]
      Runs each workload once per seed, one whole seed cycle, and prints
      the children's digests in the form of the "digests" object of
      hostbench/pins.json.

  python3 hostbench/record.py steady --runs 10 [--workloads a,b] --out hostbench/steadiness.json
      Runs every workload --runs times, each with another seed, through
      hostbench/run.sh with BENCHMARK.json's run_seconds, and writes each
      end-to-end metric's values, median, quartiles and spread (the
      quartile distance as a share of the median).
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

def seed_list(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def workload_names(args, bench):
    if args.workloads:
        return args.workloads.split(",")
    return [w["name"] for w in bench["workloads"]]


def run(name, seed, seconds, trace):
    """Runs the benchmark once and returns its standard output lines."""
    return subprocess.run(
        ["bash", "hostbench/run.sh", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout.strip().splitlines()


CHILD = re.compile(r"^# child \d+ traced=false cycle=(\d+) .* failed=(\d+) digest=(\S+)$")


def pin(args, bench):
    digests = {}
    for name in workload_names(args, bench):
        digests[name] = {}
        for seed in seed_list(args.seeds):
            cycle = {}
            for line in run(name, seed, 1, 0):
                if line.startswith("# child") and "error=" in line:
                    sys.exit(f"{name} seed {seed}: {line}")
                m = CHILD.match(line)
                if not m:
                    continue
                index, failed, digest = int(m[1]), int(m[2]), m[3]
                if failed or cycle.setdefault(index, digest) != digest:
                    sys.exit(f"{name} seed {seed}: {line}")
            digests[name][str(seed)] = [cycle[i] for i in range(len(cycle))]
            print(f"{name} seed {seed}: {len(cycle)} digests", file=sys.stderr)
    json.dump(digests, sys.stdout, indent=2)
    print()


def steady(args, bench):
    seconds = bench["run_seconds"]
    names = workload_names(args, bench)
    record = {
        "commit": args.commit,
        "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in record["seeds"]:
            res = json.loads(run(name, seed, seconds, 0)[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{name} seed {seed}: {res}")
            for m in values:
                values[m].append(res["metrics"][m]["value"])
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()}, file=sys.stderr)
        stats = {}
        for m, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            stats[m] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": xs}
        record["workloads"][name] = stats
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    for name, stats in record["workloads"].items():
        print(name, {m: round(s["spread"], 4) for m, s in stats.items()})


def main():
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="cmd", required=True)
    pp = sub.add_parser("pin")
    pp.add_argument("--seeds", default="0-12,97")
    pp.add_argument("--workloads", default="")
    sp = sub.add_parser("steady")
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--first-seed", type=int, default=1)
    sp.add_argument("--workloads", default="")
    sp.add_argument("--commit", default="")
    sp.add_argument("--out", default="hostbench/steadiness.json")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    {"pin": pin, "steady": steady}[args.cmd](args, bench)


if __name__ == "__main__":
    main()
