#!/usr/bin/env python3
"""Diff two BENCH_*.metrics.json files (schema rt-metrics-v2).

Compares a candidate metrics file against a baseline along three axes:

  counters      exact comparison. The obs counter registry is deterministic
                at any thread count (docs/TELEMETRY.md), so any drift in a
                counter other than `trace_spans_dropped` is a behaviour
                change, not noise. `trace_spans_dropped` depends on the
                trace-buffer fill order and is always ignored.

  stage shares  each stage's share of total traced wall time. Shares are
                far more stable than absolute durations across machines,
                so this is the default CI gate: a stage whose share grew
                by more than --max-share-drift-pct percentage points
                (and whose absolute share is above --min-share-pct, to
                skip noise-dominated micro-stages) fails the check. A
                candidate without stages against a baseline with stages
                fails too: its bench ran with spans off
                (RT_OBS_SPAN_CAPACITY unset), so nothing could be checked.

  absolute time per-stage total_us slowdown. Only meaningful on the same
                machine (consecutive local runs); enabled by passing
                --max-slowdown-pct explicitly.

With --update-baseline the comparison is skipped: the candidate is
rewritten onto the baseline path with a `provenance` object (UTC
timestamp, source path, git commit, generator) so a committed baseline
always says where it came from. Re-run the gate afterwards to confirm
the fresh baseline passes against its own source.

Exit codes: 0 = within thresholds, 1 = regression found, 2 = bad input.

Usage:
  python3 tools/compare_metrics.py BASELINE.json CANDIDATE.json
  python3 tools/compare_metrics.py --max-slowdown-pct 25 old.json new.json
  python3 tools/compare_metrics.py --update-baseline \\
      tools/baselines/BENCH_x.metrics.json build/bench/BENCH_x.metrics.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import subprocess
import sys

SCHEMAS = ("rt-metrics-v1", "rt-metrics-v2")

# Counters excluded from the exact comparison: their values depend on
# scheduling order, not simulated behaviour.
NONDETERMINISTIC_COUNTERS = {"trace_spans_dropped"}


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"compare_metrics: error: cannot read {path}: {e}")
    schema = doc.get("schema")
    if schema not in SCHEMAS:
        raise SystemExit(
            f"compare_metrics: error: {path}: unsupported schema {schema!r} "
            f"(expected one of {', '.join(SCHEMAS)})"
        )
    return doc


def stage_table(doc: dict) -> dict[str, dict]:
    return doc.get("stages", {}) or {}


def compare_counters(base: dict, cand: dict, failures: list[str]) -> None:
    b = base.get("counters", {})
    c = cand.get("counters", {})
    for name in sorted(set(b) | set(c)):
        if name in NONDETERMINISTIC_COUNTERS:
            continue
        bv, cv = b.get(name), c.get(name)
        if bv != cv:
            failures.append(
                f"counter {name}: baseline {bv} != candidate {cv} "
                "(counters are deterministic; this is a behaviour change)"
            )


def compare_stage_shares(
    base: dict, cand: dict, max_drift_pct: float, min_share_pct: float, failures: list[str]
) -> None:
    bs, cs = stage_table(base), stage_table(cand)
    if not bs:
        return
    if not cs:
        failures.append(
            "stages: baseline has per-stage timings but candidate has none "
            "(run the bench with spans on: RT_OBS_SPAN_CAPACITY=32768)"
        )
        return
    b_total = sum(s.get("total_us", 0.0) for s in bs.values())
    c_total = sum(s.get("total_us", 0.0) for s in cs.values())
    if b_total <= 0.0 or c_total <= 0.0:
        return
    for name in sorted(set(bs) & set(cs)):
        b_share = 100.0 * bs[name].get("total_us", 0.0) / b_total
        c_share = 100.0 * cs[name].get("total_us", 0.0) / c_total
        if c_share < min_share_pct:
            continue
        drift = c_share - b_share
        if drift > max_drift_pct:
            failures.append(
                f"stage {name}: share of traced time grew {b_share:.1f}% -> "
                f"{c_share:.1f}% (+{drift:.1f} pp > {max_drift_pct:.1f} pp allowed)"
            )
    for name in sorted(set(bs) - set(cs)):
        if 100.0 * bs[name].get("total_us", 0.0) / b_total >= min_share_pct:
            print(f"compare_metrics: note: stage {name} present in baseline only")
    for name in sorted(set(cs) - set(bs)):
        if 100.0 * cs[name].get("total_us", 0.0) / c_total >= min_share_pct:
            print(f"compare_metrics: note: stage {name} present in candidate only")


def compare_absolute(
    base: dict, cand: dict, max_slowdown_pct: float, min_total_us: float, failures: list[str]
) -> None:
    bs, cs = stage_table(base), stage_table(cand)
    for name in sorted(set(bs) & set(cs)):
        b_us = bs[name].get("total_us", 0.0)
        c_us = cs[name].get("total_us", 0.0)
        if b_us < min_total_us:
            continue
        slowdown = 100.0 * (c_us - b_us) / b_us
        if slowdown > max_slowdown_pct:
            failures.append(
                f"stage {name}: total_us {b_us:.1f} -> {c_us:.1f} "
                f"(+{slowdown:.1f}% > {max_slowdown_pct:.1f}% allowed)"
            )


def print_summary(base: dict, cand: dict) -> None:
    bs, cs = stage_table(base), stage_table(cand)
    names = sorted(set(bs) | set(cs))
    if not names:
        print("compare_metrics: no stage data in either file (counters only)")
        return
    b_total = sum(s.get("total_us", 0.0) for s in bs.values()) or 1.0
    c_total = sum(s.get("total_us", 0.0) for s in cs.values()) or 1.0
    print(f"{'stage':<20} {'base_us':>12} {'cand_us':>12} {'base_%':>8} {'cand_%':>8}")
    for name in names:
        b = bs.get(name, {})
        c = cs.get(name, {})
        b_us = b.get("total_us", 0.0)
        c_us = c.get("total_us", 0.0)
        print(
            f"{name:<20} {b_us:>12.1f} {c_us:>12.1f} "
            f"{100.0 * b_us / b_total:>7.1f}% {100.0 * c_us / c_total:>7.1f}%"
        )


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=pathlib.Path(__file__).resolve().parent,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def update_baseline(baseline_path: str, candidate_path: str) -> int:
    doc = load(candidate_path)
    doc["provenance"] = {
        "generated_utc": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat(),
        "source": candidate_path,
        "git_commit": git_commit(),
        "generator": "tools/compare_metrics.py --update-baseline",
    }
    path = pathlib.Path(baseline_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"compare_metrics: baseline {baseline_path} regenerated from {candidate_path}")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="compare_metrics.py",
        description="Diff two rt-metrics JSON files and fail on regressions.",
    )
    ap.add_argument("baseline", help="baseline metrics.json")
    ap.add_argument("candidate", help="candidate metrics.json")
    ap.add_argument(
        "--max-share-drift-pct",
        type=float,
        default=15.0,
        metavar="PP",
        help="max percentage-point growth of a stage's share of traced time "
        "(default: %(default)s; robust across machines)",
    )
    ap.add_argument(
        "--min-share-pct",
        type=float,
        default=2.0,
        metavar="PCT",
        help="ignore stages below this share of traced time (default: %(default)s)",
    )
    ap.add_argument(
        "--max-slowdown-pct",
        type=float,
        default=None,
        metavar="PCT",
        help="also gate absolute per-stage total_us slowdown (same-machine "
        "runs only; off by default)",
    )
    ap.add_argument(
        "--min-total-us",
        type=float,
        default=1000.0,
        metavar="US",
        help="ignore stages below this baseline total_us in the absolute "
        "check (default: %(default)s)",
    )
    ap.add_argument(
        "--no-counters", action="store_true", help="skip the exact counter comparison"
    )
    ap.add_argument(
        "--update-baseline",
        action="store_true",
        help="regenerate BASELINE from CANDIDATE (with provenance) instead "
        "of comparing",
    )
    args = ap.parse_args(argv)

    if args.update_baseline:
        return update_baseline(args.baseline, args.candidate)

    base = load(args.baseline)
    cand = load(args.candidate)

    failures: list[str] = []
    if not args.no_counters:
        compare_counters(base, cand, failures)
    compare_stage_shares(
        base, cand, args.max_share_drift_pct, args.min_share_pct, failures
    )
    if args.max_slowdown_pct is not None:
        compare_absolute(base, cand, args.max_slowdown_pct, args.min_total_us, failures)

    print_summary(base, cand)
    if failures:
        for f in failures:
            print(f"compare_metrics: FAIL: {f}", file=sys.stderr)
        print(f"compare_metrics: {len(failures)} regression(s)", file=sys.stderr)
        return 1
    print("compare_metrics: OK (no regressions)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
