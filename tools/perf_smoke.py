#!/usr/bin/env python3
"""Perf smoke gate: compare a fresh bench JSON against the committed artifact.

Usage:
  perf_smoke.py <committed.json> <fresh.json> [--tolerance FRAC]
  perf_smoke.py --policy <committed_policy.json> <fresh_policy.json>
                [--tolerance FRAC]

Default mode checks (all on *modeled*, machine-independent metrics):
  1. every committed gauge whose name contains "cycles_per_op" must not
     regress: fresh <= committed * (1 + tolerance)  [lower is better];
  2. the "hw.cycles" counter, when present, must match exactly — the
     cycle-accurate simulation is deterministic at a fixed seed, so any
     drift means the modeled circuit changed without the artifact being
     regenerated;
  3. the "shard_scaling.n1_identical_to_single" gauge, when present, must
     be 1.0 in the fresh run (the bench also exits non-zero on its own);
  4. the "host.ffs.speedup_vs_model" gauge, when present, must be at
     least --ffs-speedup-floor (default 3.0). Both backends are measured
     in the same process on the same stream, so the ratio is robust to
     machine speed even though each side is wall-clock;
  5. the "shard_scaling.scheduler_demo_packets" gauge, when committed,
     must match exactly — the 4-bank WFQ demo is deterministic, and both
     sorter backends must deliver the committed packet count.

--policy mode gates bench/policy_comparison artifacts (modeled,
seed-deterministic metrics only):
  1. every fresh row with policy.<row>.exact == 1 must report exactly
     zero inversions — an exact PIFO that inverts is a scheduler bug,
     not a perf regression, and no tolerance applies;
  2. every approximation row (exact == 0) must stay inside the committed
     inversion-rate envelope: fresh <= committed * (1 + tolerance);
  3. an approximation whose committed rate is non-zero must stay
     non-zero — a sudden 0 means the inversion meter stopped observing,
     not that SP-PIFO/RIFO became exact;
  4. every committed policy.* row must still be present in the fresh run.

The same-process ratio of check 4 is the one host.* value that gates.
Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import sys

def load_doc(path):
    with open(path) as f:
        return json.load(f)


def flat_metrics(doc):
    metrics = doc.get("metrics", {})
    flat = {}
    flat.update(metrics.get("counters", {}))
    flat.update(metrics.get("gauges", {}))
    return flat


def policy_rows(metrics):
    """Map row name -> {metric: value} over the policy.* gauges."""
    rows = {}
    for name, value in metrics.items():
        if not name.startswith("policy."):
            continue
        row, _, metric = name[len("policy."):].rpartition(".")
        if row:
            rows.setdefault(row, {})[metric] = value
    return rows


def run_policy(args):
    committed = policy_rows(flat_metrics(load_doc(args.committed)))
    fresh = policy_rows(flat_metrics(load_doc(args.fresh)))
    failures = []
    checked = 0
    if not fresh:
        failures.append("fresh run has no policy.* gauges — wrong file?")
    for row in sorted(committed):
        if row not in fresh:
            failures.append(f"{row}: missing from fresh run")
    for row in sorted(fresh):
        metrics = fresh[row]
        if metrics.get("exact") == 1.0:
            checked += 1
            inv = metrics.get("inversions")
            status = "ok" if inv == 0 else "INVERTED"
            print(f"  {row}: exact PIFO, {inv:.0f} inversions {status}")
            if inv != 0:
                failures.append(
                    f"{row}: exact PIFO reported {inv:.0f} inversions "
                    "(must be exactly 0)")
            continue
        base = committed.get(row, {}).get("inversion_rate")
        rate = metrics.get("inversion_rate", 0.0)
        if base is None:
            print(f"  {row}: inversion rate {rate:.4f} (new row, no envelope)")
            continue
        checked += 1
        limit = base * (1.0 + args.tolerance)
        status = "ok" if rate <= limit else "REGRESSED"
        print(f"  {row}: inversion rate {base:.4f} -> {rate:.4f} "
              f"(limit {limit:.4f}) {status}")
        if rate > limit:
            failures.append(f"{row}: inversion rate {rate:.4f} > {limit:.4f}")
        if base > 0.0 and rate == 0.0:
            failures.append(
                f"{row}: committed inversion rate {base:.4f} but fresh run saw "
                "none — is the inversion meter still observing this row?")
    if checked == 0:
        failures.append("no policy rows checked — wrong file pair?")
    if failures:
        print(f"PERF SMOKE FAIL ({len(failures)} issue(s)):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"PERF SMOKE PASS ({checked} policy checks)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("committed", help="committed artifact")
    parser.add_argument("fresh", help="fresh run")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed fractional cycles/op regression (default 5%%)")
    parser.add_argument("--policy", action="store_true",
                        help="gate bench/policy_comparison artifacts: exact "
                             "rows invert zero times, approximation rows stay "
                             "inside the committed inversion-rate envelope")
    parser.add_argument("--ffs-speedup-floor", type=float, default=3.0,
                        help="minimum host.ffs.speedup_vs_model (same-process "
                             "ratio; default 3.0)")
    args = parser.parse_args()

    if args.policy:
        return run_policy(args)

    committed = flat_metrics(load_doc(args.committed))
    fresh = flat_metrics(load_doc(args.fresh))
    failures = []
    checked = 0

    for name, base in sorted(committed.items()):
        if "host." in name:
            continue  # wall-clock numbers: machine-dependent, informational
        if "cycles_per_op" in name:
            now = fresh.get(name)
            if now is None:
                failures.append(f"{name}: missing from fresh run")
                continue
            checked += 1
            limit = base * (1.0 + args.tolerance)
            status = "ok" if now <= limit else "REGRESSED"
            print(f"  {name}: {base:.4f} -> {now:.4f} (limit {limit:.4f}) {status}")
            if now > limit:
                failures.append(f"{name}: {now:.4f} > {limit:.4f}")

    if "hw.cycles" in committed:
        now = fresh.get("hw.cycles")
        checked += 1
        if now != committed["hw.cycles"]:
            failures.append(
                f"hw.cycles: {now} != committed {committed['hw.cycles']} "
                "(modeled circuit changed; regenerate the artifact if intended)")
        else:
            print(f"  hw.cycles: {now} (exact match)")

    gate = "shard_scaling.n1_identical_to_single"
    if gate in fresh:
        checked += 1
        if fresh[gate] != 1.0:
            failures.append(f"{gate}: N=1 sharded run diverged from the bare sorter")
        else:
            print(f"  {gate}: 1 (N=1 bit/cycle identity holds)")

    gate = "shard_scaling.scheduler_demo_packets"
    if gate in committed:
        checked += 1
        now = fresh.get(gate)
        if now != committed[gate]:
            failures.append(f"{gate}: {now} != committed {committed[gate]:.0f} "
                            "(the 4-bank scheduler demo delivered a different count)")
        else:
            print(f"  {gate}: {now:.0f} (exact match)")

    gate = "host.ffs.speedup_vs_model"
    if gate in fresh:
        checked += 1
        ratio = fresh[gate]
        if ratio < args.ffs_speedup_floor:
            failures.append(f"{gate}: {ratio:.2f} < floor "
                            f"{args.ffs_speedup_floor:.2f} (ffs backend lost "
                            "its edge over the cycle model)")
        else:
            print(f"  {gate}: {ratio:.2f} (floor {args.ffs_speedup_floor:.2f})")

    if checked == 0:
        failures.append("no comparable modeled metrics found — wrong file pair?")

    if failures:
        print(f"PERF SMOKE FAIL ({len(failures)} issue(s)):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"PERF SMOKE PASS ({checked} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
