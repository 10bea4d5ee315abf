#!/usr/bin/env python3
"""Compare a freshly generated smoke-benchmark report against the newest
committed BENCH_*.json baseline and fail (exit 1) on a >20% regression.

Absolute throughput is not comparable across machines, so the gate is built
from metrics that are:

  * message counts per row: msgs_per_op, because more messages for the
    same work is a protocol regression wherever it runs, and replication
    messages per *second* (repl_msgs_per_op x tx_per_sec) — the ΔR plane
    sends one batch per round and destination however many transactions the
    round carries, so its per-op count falls as the machine gets faster
    while its rate stays put unless batching regresses;
  * summary per-op / byte / ratio metrics (allocs, codec bytes, reduction
    factors) shared by both reports;
  * throughput *shape*: each row's tx_per_sec relative to the first common
    row of its own report. Both arms of one report always run on one
    machine, so the ratio transfers — e.g. the TCP path collapsing relative
    to memnet fails the gate even though both absolute numbers moved.

Usage: bench_diff.py FRESH_REPORT --baseline-dir DIR [--tolerance 0.20]
"""

import argparse
import glob
import json
import os
import re
import sys

# Summary metrics eligible for the gate, with the direction that counts as a
# regression. Machine-dependent summaries (tx/s, wall-clock ns) are excluded;
# scaling_* is excluded because the dedicated scaling-floor CI step owns it
# and core counts differ across machines.
LOWER_IS_BETTER = {
    "allocs_per_tx",
    "read_single_allocs_per_op",
    "read_multi_allocs_per_op",
    "start_tx_allocs_per_op",
    "encode_allocs_per_op",
    "codec_bytes_per_round_v2",
    "codec_bulk_bytes_v2",
    "repair_chunk_max_bytes",
    "gossip_idle_msgs_per_sec_delta",
}
HIGHER_IS_BETTER = {
    "repl_msgs_per_op_reduction",
    "codec_bytes_reduction",
    "codec_bulk_bytes_reduction",
}


def canon(label):
    """memnet-24 and memnet-8 are the same arm at different core counts."""
    return re.sub(r"^(memnet|tcp)-(?!1$)\d+$", r"\1-N", label)


def rows_by_label(report):
    return {canon(r["label"]): r for r in report.get("rows", [])}


def comparable(fresh, base):
    """How many gated metrics the two reports share."""
    n = len(set(rows_by_label(fresh)) & set(rows_by_label(base)))
    keys = set(fresh.get("summary", {})) & set(base.get("summary", {}))
    return n + len(keys & (LOWER_IS_BETTER | HIGHER_IS_BETTER))


def pick_baseline(fresh, baseline_dir, fresh_path):
    best, best_key = None, None
    for path in glob.glob(os.path.join(baseline_dir, "BENCH_*.json")):
        if os.path.abspath(path) == os.path.abspath(fresh_path):
            continue
        with open(path) as f:
            rep = json.load(f)
        if comparable(fresh, rep) == 0:
            continue
        key = rep.get("generated_at", "")
        if best is None or key > best_key:
            best, best_key = (path, rep), key
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh")
    ap.add_argument("--baseline-dir", default=".")
    ap.add_argument("--tolerance", type=float, default=0.20)
    args = ap.parse_args()

    with open(args.fresh) as f:
        fresh = json.load(f)
    picked = pick_baseline(fresh, args.baseline_dir, args.fresh)
    if picked is None:
        print("bench-diff: no comparable BENCH_*.json baseline found; nothing to gate")
        return 0
    base_path, base = picked
    print(f"bench-diff: {args.fresh} vs baseline {base_path} "
          f"(generated {base.get('generated_at', '?')})")

    tol = args.tolerance
    failures = []

    def check(name, worse_by):
        status = "FAIL" if worse_by > tol else "ok"
        print(f"  {status:4s} {name}: {worse_by * 100:+.1f}% vs baseline")
        if worse_by > tol:
            failures.append(name)

    frows, brows = rows_by_label(fresh), rows_by_label(base)
    common = sorted(set(frows) & set(brows))

    def repl_per_sec(row):
        return row.get("repl_msgs_per_op", 0) * row.get("tx_per_sec", 0)

    for label in common:
        fv, bv = frows[label].get("msgs_per_op"), brows[label].get("msgs_per_op")
        if fv is not None and bv:
            check(f"{label}.msgs_per_op", fv / bv - 1)
        if repl_per_sec(brows[label]) > 0:
            check(f"{label}.repl_msgs_per_sec",
                  repl_per_sec(frows[label]) / repl_per_sec(brows[label]) - 1)

    # Throughput shape: each common row relative to the first common row.
    ref = common[0] if common else None
    if ref and frows[ref].get("tx_per_sec", 0) > 0 and brows[ref].get("tx_per_sec", 0) > 0:
        for label in common[1:]:
            fv, bv = frows[label].get("tx_per_sec", 0), brows[label].get("tx_per_sec", 0)
            if fv <= 0 or bv <= 0:
                continue
            frel = fv / frows[ref]["tx_per_sec"]
            brel = bv / brows[ref]["tx_per_sec"]
            check(f"{label}.tx_per_sec (relative to {ref})", 1 - frel / brel)

    fsum, bsum = fresh.get("summary", {}), base.get("summary", {})
    for key in sorted(set(fsum) & set(bsum)):
        fv, bv = fsum[key], bsum[key]
        if not bv:
            continue
        if key in LOWER_IS_BETTER:
            check(f"summary.{key}", fv / bv - 1)
        elif key in HIGHER_IS_BETTER:
            check(f"summary.{key}", 1 - fv / bv)

    if failures:
        print(f"bench-diff: {len(failures)} metric(s) regressed more than "
              f"{tol * 100:.0f}%: {', '.join(failures)}")
        return 1
    print("bench-diff: no regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
