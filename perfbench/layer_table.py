#!/usr/bin/env python3
"""Regenerate the "ns/packet by layer" table of perfbench/README.md.

Usage, from the root of the repository:

    python3 perfbench/layer_table.py [--seed N] [--seconds S]

Runs every workload once traced (--trace 1) and once untraced, then prints
a Markdown table: each layer's normalised seconds per op and nanoseconds
per packet, and the tracing overhead (traced op_s - untraced op_s).
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
WORKLOADS = ["replay_e2e", "kappa_offline", "monitored_flows"]


def run(workload, seed, seconds, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: run failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    print("| workload | layer | s/op | ns/pkt |")
    print("|---|---|---:|---:|")
    for w in WORKLOADS:
        traced = run(w, args.seed, args.seconds, 1)
        plain = run(w, args.seed, args.seconds, 0)
        pkts = traced["host.pkts_per_op"]
        for name, value in traced.items():
            if name.startswith("host.") or not name.endswith("_s") or value == 0:
                continue
            print(f"| {w} | {name} | {value:.4f} | {1e9 * value / pkts:.1f} |")
        obs = traced["monitor.observe_ns_per_pkt"]
        if obs:
            print(f"| {w} | monitor.observe_ns_per_pkt | | {obs:.1f} |")
        print(f"| {w} | op_s untraced / traced | {plain['op_s']:.4f} / "
              f"{traced['host.traced_op_s']:.4f} | {1e9 * plain['op_s'] / pkts:.1f} / "
              f"{1e9 * traced['host.traced_op_s'] / pkts:.1f} |")
        print(f"| {w} | tracing overhead | "
              f"{traced['host.traced_op_s'] - plain['op_s']:+.4f} | |")


if __name__ == "__main__":
    main()
