#!/usr/bin/env python3
"""Benchmark regression gate.

Compares the BENCH_*.json reports of a fresh bench run (CI's bench-smoke
job, or a local run) against the committed baselines in results/baseline/
and fails when throughput regressed beyond the noise band.

  scripts/check_bench_regression.py [--results-dir results]...
                                    [--baseline-dir results/baseline]
                                    [--band 0.25]
                                    [--update-baseline]

Rows are matched by their identity keys (algorithm, mode, batch_size,
n_subscriptions); the gated metric is events_per_second. A row is a
regression when current < baseline * (1 - band). Improvements beyond the
band are reported as warnings — they usually mean the baseline is stale
(or the runner hardware changed) and should be recalibrated.

--results-dir may repeat: with several dirs (one per independent bench
run) the comparison takes the per-row BEST events_per_second, and
--update-baseline takes the per-row MEDIAN. Shared CI runners are noisy;
the best-of-runs vs median-baseline pairing keeps honest runs inside the
noise band while a real regression drags every run down. Recalibration:

  for i in 1 2 3; do
    VFPS_RESULTS_DIR=results-$i ./build/bench/fig3a_throughput --subs=50000 --events=2000
    VFPS_RESULTS_DIR=results-$i ./build/bench/micro_batch     --subs=50000 --events=2000
  done
  scripts/check_bench_regression.py --results-dir results-1 \
      --results-dir results-2 --results-dir results-3 --update-baseline

See docs/TOOLING.md ("Benchmark smoke & regression gate") for when and how
to refresh baselines.
"""

import argparse
import glob
import json
import os
import statistics
import sys

GATED_METRIC = "events_per_second"
IDENTITY_KEYS = (
    "algorithm",
    "mode",
    "batch_size",
    "n_subscriptions",
    "n_connections",
    "kernel_isa",
    "size",
    "selectivity",
    "churn_rate",
)


def row_identity(row):
    return tuple((k, row.get(k)) for k in IDENTITY_KEYS if k in row)


def near_miss(key, runs, differing_key):
    """True when some current row matches `key` except in `differing_key`.

    Used to turn a generic "row disappeared" into an explicit refusal when
    the only difference is a key whose values are not comparable across
    configurations (churn_rate, or conn_scaling's mt/1core mode, which
    follows the runner's hardware concurrency)."""
    base = dict(key)
    for _, rows in runs:
        for other in rows:
            od = dict(other)
            if set(od) != set(base):
                continue
            diffs = [k for k in base if od[k] != base[k]]
            if diffs == [differing_key]:
                return True
    return False


def load_report(path):
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    rows = {}
    for row in report.get("rows", []):
        if GATED_METRIC not in row:
            continue
        key = row_identity(row)
        if key in rows:
            # Duplicate identity would make the comparison ambiguous.
            raise ValueError(f"{path}: duplicate row identity {key}")
        rows[key] = row
    return report, rows


def fmt_identity(key):
    return " ".join(f"{k}={v}" for k, v in key)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--results-dir",
        action="append",
        dest="results_dirs",
        default=None,
        help="directory with BENCH_*.json reports; may repeat, one per "
        "independent bench run (default: results)",
    )
    parser.add_argument("--baseline-dir", default="results/baseline")
    parser.add_argument(
        "--band",
        type=float,
        default=0.25,
        help="allowed relative deviation before a row counts as a "
        "regression (default 0.25 = ±25%%)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="copy the current BENCH_*.json reports over the baselines "
        "instead of comparing",
    )
    args = parser.parse_args()
    results_dirs = args.results_dirs or ["results"]

    # name -> list of (report, rows) across the result dirs that have it.
    runs_by_name = {}
    for results_dir in results_dirs:
        for path in sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json"))):
            runs_by_name.setdefault(os.path.basename(path), []).append(
                load_report(path)
            )

    if args.update_baseline:
        if not runs_by_name:
            print(
                f"no BENCH_*.json found in {', '.join(results_dirs)}",
                file=sys.stderr,
            )
            return 1
        os.makedirs(args.baseline_dir, exist_ok=True)
        for name, runs in sorted(runs_by_name.items()):
            # First run's report is the template; the gated metric becomes
            # the per-row median across runs.
            report, rows = runs[0]
            for row in report.get("rows", []):
                key = row_identity(row)
                if GATED_METRIC not in row:
                    continue
                values = [
                    r[key][GATED_METRIC] for _, r in runs if key in r
                ]
                row[GATED_METRIC] = statistics.median(values)
            dest = os.path.join(args.baseline_dir, name)
            with open(dest, "w", encoding="utf-8") as f:
                json.dump(report, f, separators=(",", ":"))
                f.write("\n")
            print(f"baseline updated: {dest} (median of {len(runs)} run(s))")
        return 0

    baseline_paths = sorted(
        glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json"))
    )
    if not baseline_paths:
        print(f"no baselines in {args.baseline_dir}", file=sys.stderr)
        return 1

    regressions = []
    warnings = []
    compared = 0
    for baseline_path in baseline_paths:
        name = os.path.basename(baseline_path)
        runs = runs_by_name.get(name)
        if not runs:
            regressions.append(
                f"{name}: missing from {', '.join(results_dirs)} (bench not run?)"
            )
            continue
        baseline_report, baseline_rows = load_report(baseline_path)
        # Numbers from different SIMD kernel variants are not comparable
        # (docs/KERNELS.md): refuse outright rather than flag a bogus
        # regression/improvement. Reports predating the kernel_isa field
        # are skipped from this check.
        isa_mismatch = False
        for current_report, _ in runs:
            baseline_isa = baseline_report.get("kernel_isa")
            current_isa = current_report.get("kernel_isa")
            if (
                baseline_isa is not None
                and current_isa is not None
                and baseline_isa != current_isa
            ):
                regressions.append(
                    f"{name}: kernel_isa mismatch (baseline "
                    f"{baseline_isa!r} vs current {current_isa!r}); refusing "
                    "to compare across SIMD variants — rerun on matching "
                    "hardware/VFPS_SIMD or refresh the baseline"
                )
                isa_mismatch = True
                break
        if isa_mismatch:
            continue
        for current_report, _ in runs:
            if baseline_report.get("scale") != current_report.get("scale"):
                warnings.append(
                    f"{name}: scale mismatch (baseline "
                    f"{baseline_report.get('scale')!r} vs current "
                    f"{current_report.get('scale')!r})"
                )
                break
        for key, baseline_row in baseline_rows.items():
            values = [rows[key][GATED_METRIC] for _, rows in runs if key in rows]
            if not values:
                # Like the kernel_isa refusal above: latency/throughput under
                # different churn rates are different experiments, never a
                # regression of one another.
                if near_miss(key, runs, "churn_rate"):
                    regressions.append(
                        f"{name}: churn_rate mismatch for {fmt_identity(key)}; "
                        "refusing to compare across churn rates — run the "
                        "bench with matching rates or refresh the baseline"
                    )
                elif near_miss(key, runs, "n_connections"):
                    # conn_scaling clamps its connection counts to the
                    # runner's fd budget: fan-out over a different number of
                    # live sockets is a different experiment, never a
                    # regression of this one.
                    regressions.append(
                        f"{name}: n_connections mismatch for "
                        f"{fmt_identity(key)}; refusing to compare across "
                        "connection counts — raise the fd limit (ulimit -n) "
                        "to match or refresh the baseline on this runner"
                    )
                elif near_miss(key, runs, "mode"):
                    warnings.append(
                        f"{name}: mode changed for {fmt_identity(key)} "
                        "(benches derive their mode from the runner's "
                        "hardware concurrency: conn_scaling stamps mt vs "
                        "1core); "
                        "skipping — refresh the baseline on the target "
                        "runner to re-arm this row"
                    )
                else:
                    regressions.append(
                        f"{name}: row disappeared: {fmt_identity(key)}"
                    )
                continue
            base = baseline_row[GATED_METRIC]
            cur = max(values)  # best-of-runs: see module docstring
            compared += 1
            if base <= 0:
                warnings.append(
                    f"{name}: non-positive baseline for {fmt_identity(key)}"
                )
                continue
            ratio = cur / base
            line = (
                f"{name}: {fmt_identity(key)}: "
                f"{GATED_METRIC} {cur:.1f} vs baseline {base:.1f} "
                f"({ratio:.2f}x baseline)"
            )
            if ratio < 1.0 - args.band:
                regressions.append("REGRESSION " + line)
            elif ratio > 1.0 + args.band:
                warnings.append("faster than baseline (stale?) " + line)

    for w in warnings:
        print(f"warning: {w}")
    for r in regressions:
        print(r, file=sys.stderr)
    band_pct = args.band * 100
    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond the ±{band_pct:.0f}% "
            f"band across {compared} compared rows.\n"
            "If this is expected (intentional trade-off or new runner "
            "hardware), refresh the baselines with --update-baseline and "
            "commit results/baseline/ (see docs/TOOLING.md).",
            file=sys.stderr,
        )
        return 1
    print(
        f"bench regression gate: OK ({compared} rows within ±{band_pct:.0f}% "
        f"of baseline; {len(warnings)} warning(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
