#!/usr/bin/env python3
"""Compare a fresh BENCH_kernels.json against the committed baseline.

CI runners are heterogeneous, so absolute seconds are meaningless across
machines.  What IS stable is each fused/batched kernel's advantage over its
unfused/sequential counterpart measured in the same process: the fused and
reference variants run back-to-back on the same box, so their RATIO cancels
the machine.  This script therefore gates on ratio regressions:

    ratio = fused_seconds / reference_seconds       (lower is better)

and fails when a fresh ratio exceeds the committed ratio by more than the
pair's tolerance.  Microsecond-scale BLAS-1/Arnoldi micro-kernel pairs get
2x the base tolerance (their timings carry real run-to-run variance even
min-of-N on one machine); the millisecond-to-second SpMM and batched-solve
pairs use the base tolerance (default 25%).  The batched-reduction records
additionally gate on the BANDWIDTH ratio (higher is better) of the fused
kernel over the single-column dot — the metric the register-blocked
multi-column kernels exist to improve.  (The *_speedup rows in the JSON
are purely informational.)

Record discipline: every gated record must be present.  A record missing
from the fresh run but present in the baseline (or vice versa) means a
kernel was renamed or dropped without updating this gate or the committed
JSON — that is reported as one line naming the record, and the script
exits 2.  A record absent from BOTH files is a feature-conditional kernel
(e.g. the AVX-512 FP16 natives on a machine without the ISA) and its pair
is skipped.

Usage:  tools/bench_diff.py <fresh.json> <baseline.json> [--tolerance 0.25]
        tools/bench_diff.py --self-test
"""

import argparse
import json
import sys

# (fused/batched record, unfused/sequential reference) pairs, per precision.
RATIO_PAIRS = [
    ("dot_many_{p}_k8", "dot_x8_{p}"),
    ("dot_cols_{p}_k8", "dot_x8_{p}"),
    ("axpy_many_{p}_k8", "axpy_x8_{p}"),
    ("scal_copy_{p}", "scal_plus_copy_{p}"),
    ("arnoldi_step_fused_{p}_k8", "arnoldi_step_unfused_{p}_k8"),
]
PRECISIONS = ["fp64", "fp32", "fp16"]

# Native AVX-512 FP16 kernels vs the blas:: dispatch path (F16C unless the
# env opts the natives in).  Absent from both files on machines without the
# ISA, hence skipped there rather than required.
FP16_PAIRS = [
    ("scal_fp16_avx512fp16", "scal_fp16"),
    ("axpy_fp16_avx512fp16", "axpy_fp16"),
    ("dot_fp16_avx512fp16", "dot_fp16"),
]

# Backend-tagged kernel records: the host backend's cost over the serial
# reference backend's, for the same kern::Kernels call.  The host kernel is
# the one under test and the serial loop the yardstick, so the gate fails
# when the host gets slower relative to it (a faster host kernel lowers the
# ratio).  The ratio mostly measures how much the host's OpenMP/SIMD paths
# buy on the bench box, so it gets the generous micro-pair tolerance.
# These records are SOFT: absent from either file (e.g. a committed
# baseline predating the backend seam, or a bench built without the seam)
# the pair is skipped with a note instead of tripping the rename/drop hard
# error.
BACKEND_PAIRS = [
    ("backend_host_spmv_csr_{p}", "backend_serial_spmv_csr_{p}"),
    ("backend_host_spmm_csr_{p}_k8", "backend_serial_spmm_csr_{p}_k8"),
    ("backend_host_dot_cols_{p}_k8", "backend_serial_dot_cols_{p}_k8"),
]
BACKEND_PRECISIONS = ["fp64", "fp32", "fp16_fp32"]

# Autotuner quality records: Session("auto")'s total MODELED WORK over the
# stand-in catalog vs the best fixed spec's, both in the seconds column.
# The gate is an ABSOLUTE ceiling on the fresh auto/best ratio (the tuner
# must stay within the acceptance margin regardless of the baseline), and
# the records are SOFT like the backend ones: a baseline committed before
# the autotuner existed skips the pair instead of hard-failing.
AUTO_PAIRS = [
    ("auto_vs_best_fixed_work", "auto_vs_best_fixed_ref", 1.2),
]

SOFT_RECORDS = {f.format(p=p)
                for pair in BACKEND_PAIRS for f in pair for p in BACKEND_PRECISIONS}
SOFT_RECORDS |= {name for pair in AUTO_PAIRS for name in pair[:2]}

# Matrix-kernel pairs (suffix carries precision + matrix name).
SPMM_PAIRS = [
    ("spmm_csr_fp64_k8/hpcg", "spmv_x8_csr_fp64_k8/hpcg"),
    ("spmm_csr_fp32_k8/hpcg", "spmv_x8_csr_fp32_k8/hpcg"),
    ("spmm_csr_fp16_fp32_k8/hpcg", "spmv_x8_csr_fp16_fp32_k8/hpcg"),
    ("spmv_sell_fp64/hpcg", "spmv_sell_rowwise_fp64/hpcg"),
]

# Batched-solve pairs: one lockstep/compacted solve vs its reference.
SOLVE_PAIRS = [
    ("solve_cg_batched_8rhs_laplace", "solve_cg_seq_8rhs_laplace"),
    ("solve_cg_staggered16_compact_hpcg", "solve_cg_staggered16_masked_hpcg"),
    ("fgmres_staggered16_compact_hpcg", "fgmres_staggered16_masked_hpcg"),
]

# Daemon-throughput pairs: amortized per-solve seconds of N concurrent
# clients vs the single-client cost, through the nkrylovd SolveExecutor.
# Cross-request batching is what these measure — if merged waves stop
# amortizing setup/sweeps, the c64/c1024 per-solve cost climbs back toward
# c1's and the ratio regresses.  Scheduling noise is real at these
# timescales, so they ride the 2x micro-pair tolerance.
DAEMON_PAIRS = [
    ("daemon_solve_c64", "daemon_solve_c1"),
    ("daemon_solve_c1024", "daemon_solve_c1"),
]

# Absolute FLOOR gates on a single record's gbps column (no reference
# record, no baseline-relative drift): the value itself must stay at or
# above the floor.  daemon_cache_hit_rate carries the session-cache hit
# rate in its gbps column — repeat clients must essentially never re-pay
# setup, regardless of what a bad committed baseline happened to record.
FLOOR_GATES = [
    ("daemon_cache_hit_rate", 0.99),
]

# Guard-overhead gates: ABSOLUTE ceilings on the fresh guarded/unguarded
# seconds ratio, not baseline-relative drift.  The resilience layer's
# non-finite panel guard must stay under 2% of the batched CG solve
# regardless of what the committed baseline happened to measure — a slow
# baseline must not grandfather in a slow guard.  bench_kernels times the
# pair as interleaved AB/BA repetitions and stores the records so that
# their seconds ratio is the median of the per-pair ratios.
GUARD_PAIRS = [
    ("solve_cg_batched_8rhs_guard_laplace", "solve_cg_batched_8rhs_laplace", 1.02),
]

# Bandwidth-ratio gates (HIGHER is better): the batched reduction's GB/s
# over the single-column dot's, fresh vs committed.  Catches the
# latency-bound regression class directly — a change that serializes the
# FMA chains again would keep the seconds-ratios plausible on a fast box
# but halve these.
BANDWIDTH_PAIRS = [
    ("dot_many_{p}_k8", "dot_{p}"),
    ("dot_cols_{p}_k8", "dot_{p}"),
]


def load(path):
    with open(path) as f:
        data = json.load(f)
    return {r["name"]: r for r in data["records"]}


def gated_pairs(tolerance):
    """(fused, reference, tolerance, metric) for every gate."""
    micro = [(f.format(p=p), r.format(p=p)) for f, r in RATIO_PAIRS for p in PRECISIONS]
    backend = [(f.format(p=p), r.format(p=p))
               for f, r in BACKEND_PAIRS for p in BACKEND_PRECISIONS]
    pairs = [(f, r, 2.0 * tolerance, "seconds")
             for f, r in micro + FP16_PAIRS + DAEMON_PAIRS + backend]
    pairs += [(f, r, tolerance, "seconds") for f, r in SPMM_PAIRS + SOLVE_PAIRS]
    pairs += [(f.format(p=p), r.format(p=p), 2.0 * tolerance, "gbps")
              for f, r in BANDWIDTH_PAIRS for p in PRECISIONS]
    # Ceiling/floor gates carry their own absolute limit in place of a
    # tolerance; floor gates have no reference record at all.
    pairs += [(f, r, ceiling, "ceiling") for f, r, ceiling in GUARD_PAIRS + AUTO_PAIRS]
    pairs += [(f, None, floor, "floor") for f, floor in FLOOR_GATES]
    return pairs


def diff(fresh, base, tolerance, fresh_name="fresh", base_name="baseline"):
    """Core comparison on already-loaded record dicts; returns the exit code."""
    failures, missing, checked = [], [], 0
    for fused, ref, tol, metric in gated_pairs(tolerance):
        names = (fused,) if ref is None else (fused, ref)
        # A record present in exactly one file is a rename/drop (or a new
        # kernel whose baseline was not refreshed): hard error.  A record
        # absent from BOTH files is a feature-conditional kernel on a
        # machine without the feature: skip its pair.
        ok = True
        # Soft records (backend-tagged pairs) skip on one-sided absence too:
        # a baseline committed before the backend seam must stay diffable.
        if any(n in SOFT_RECORDS and (n not in fresh or n not in base) for n in names):
            absent = [n for n in names if n not in fresh or n not in base]
            print(f"SKIP  {fused} vs {ref}: soft backend record(s) "
                  f"{', '.join(absent)} absent")
            continue
        for n in names:
            if n in fresh and n not in base:
                print(f"MISSING  record '{n}' absent from {base_name} — new kernel; "
                      f"refresh the committed baseline")
                ok = False
            elif n not in fresh and n in base:
                print(f"MISSING  record '{n}' absent from {fresh_name} but present in "
                      f"{base_name} — renamed or dropped without updating the gate?")
                ok = False
        if not ok:
            missing.extend(n for n in names if (n in fresh) != (n in base))
            continue
        if any(n not in fresh for n in names):
            print(f"SKIP  {fused} vs {ref}: feature-conditional record absent "
                  f"from both files")
            continue
        # seconds: lower is better, gate on the fused/ref ratio RISING.
        # gbps: higher is better, gate on the fused/ref ratio FALLING.
        # ceiling: the fresh seconds ratio must stay under `tol` ABSOLUTELY
        # (the baseline ratio is printed for context only).
        # floor: the fresh record's own gbps value must stay >= `tol`
        # ABSOLUTELY (single record, baseline printed for context only).
        if metric == "floor":
            fresh_val = fresh[fused]["gbps"]
            base_val = base[fused]["gbps"]
            checked += 1
            regressed = fresh_val < tol
            status = "FAIL" if regressed else "ok"
            print(f"{status:4}  {fused:42} gbps value {fresh_val:7.3f} vs floor "
                  f"{tol:.3f}  (baseline {base_val:.3f})")
            if regressed:
                failures.append(f"{fused} [{metric}]")
            continue
        real_metric = "seconds" if metric == "ceiling" else metric
        fresh_ratio = fresh[fused][real_metric] / fresh[ref][real_metric]
        base_ratio = base[fused][real_metric] / base[ref][real_metric]
        checked += 1
        if metric == "ceiling":
            regressed = fresh_ratio > tol
            status = "FAIL" if regressed else "ok"
            print(f"{status:4}  {fused:42} seconds ratio {fresh_ratio:7.3f} vs ceiling "
                  f"{tol:.3f}  (baseline {base_ratio:.3f})")
        else:
            rel = fresh_ratio / base_ratio - 1.0
            regressed = rel > tol if metric == "seconds" else rel < -tol
            status = "FAIL" if regressed else "ok"
            print(f"{status:4}  {fused:42} {metric} ratio {fresh_ratio:7.3f} vs baseline "
                  f"{base_ratio:7.3f}  ({rel:+.1%}, tol {tol:.0%})")
        if regressed:
            failures.append(f"{fused} [{metric}]")

    if missing:
        print(f"\nbench_diff: {len(missing)} gated record(s) missing — see MISSING "
              f"lines above", file=sys.stderr)
        return 2
    if checked == 0:
        print("bench_diff: no comparable records found", file=sys.stderr)
        return 2
    if failures:
        print(f"\nbench_diff: {len(failures)} fused/batched kernel metric(s) regressed "
              f"beyond tolerance vs the committed baseline:", file=sys.stderr)
        for name in failures:
            print(f"  {name}", file=sys.stderr)
        return 1
    print(f"\nbench_diff: {checked} fused/batched kernel ratios within "
          f"tolerance of the committed baseline")
    return 0


def self_test():
    """Exercise the pass / regression / missing-record paths on synthetic
    reports (no files, no timing).  Exit 0 iff every path behaves."""
    def synthetic():
        recs = {}
        for fused, ref, _tol, _metric in gated_pairs(0.25):
            # Fused kernels nominally 4x the reference bandwidth / 1/4 the
            # seconds; exact values are irrelevant, only the ratios matter.
            # (gbps=4.0 also sits above every absolute floor gate.)
            recs.setdefault(fused, {"name": fused, "seconds": 0.25, "gbps": 4.0})
            if ref is not None:
                recs.setdefault(ref, {"name": ref, "seconds": 1.0, "gbps": 1.0})
        return recs

    ok = True

    def expect(what, got, want):
        nonlocal ok
        if got != want:
            print(f"self-test FAIL: {what}: exit {got}, expected {want}", file=sys.stderr)
            ok = False
        else:
            print(f"self-test ok: {what} -> exit {got}")

    expect("identical reports pass", diff(synthetic(), synthetic(), 0.25), 0)

    slow = synthetic()
    slow["dot_many_fp64_k8"] = dict(slow["dot_many_fp64_k8"], seconds=1.0)
    expect("seconds-ratio regression fails", diff(slow, synthetic(), 0.25), 1)

    narrow = synthetic()
    narrow["dot_cols_fp32_k8"] = dict(narrow["dot_cols_fp32_k8"], gbps=1.0)
    expect("bandwidth-ratio regression fails", diff(narrow, synthetic(), 0.25), 1)

    # The guard ceiling is absolute: a 5% overhead fails even when the
    # committed baseline carries the same 5% (no grandfathering).
    heavy = synthetic()
    heavy["solve_cg_batched_8rhs_guard_laplace"] = dict(
        heavy["solve_cg_batched_8rhs_guard_laplace"],
        seconds=1.05 * heavy["solve_cg_batched_8rhs_laplace"]["seconds"])
    expect("guard overhead above the absolute ceiling fails",
           diff(heavy, dict(heavy), 0.25), 1)

    # The cache-hit floor is absolute too: a daemon that makes repeat
    # clients re-pay setup fails even against a baseline with the same rate.
    cold = synthetic()
    cold["daemon_cache_hit_rate"] = dict(cold["daemon_cache_hit_rate"], gbps=0.5)
    expect("cache-hit rate below the absolute floor fails",
           diff(cold, dict(cold), 0.25), 1)

    # The autotuner margin is absolute as well: auto costing 1.5x the best
    # fixed spec fails even when the committed baseline carries the same
    # ratio (the acceptance margin, not drift, is the contract).
    detuned = synthetic()
    detuned["auto_vs_best_fixed_work"] = dict(
        detuned["auto_vs_best_fixed_work"],
        seconds=1.5 * detuned["auto_vs_best_fixed_ref"]["seconds"])
    expect("auto/best-fixed work ratio above the ceiling fails",
           diff(detuned, dict(detuned), 0.25), 1)

    # ...but the records are soft: a baseline committed before the
    # autotuner existed skips the pair rather than exiting 2.
    pre_auto = synthetic()
    for name in ("auto_vs_best_fixed_work", "auto_vs_best_fixed_ref"):
        del pre_auto[name]
    expect("auto records absent from baseline skip", diff(synthetic(), pre_auto, 0.25), 0)

    # Backend pairs gate the host kernel against the serial yardstick: a
    # slower host fails, a faster host passes.
    host_slow = synthetic()
    host_slow["backend_host_spmv_csr_fp16_fp32"] = dict(
        host_slow["backend_host_spmv_csr_fp16_fp32"], seconds=1.0)
    expect("host backend slowdown fails", diff(host_slow, synthetic(), 0.25), 1)
    host_fast = synthetic()
    host_fast["backend_host_spmv_csr_fp16_fp32"] = dict(
        host_fast["backend_host_spmv_csr_fp16_fp32"], seconds=0.1)
    expect("host backend speedup passes", diff(host_fast, synthetic(), 0.25), 0)

    renamed = synthetic()
    del renamed["dot_cols_fp16_k8"]
    expect("record missing from fresh run exits 2", diff(renamed, synthetic(), 0.25), 2)

    stale = synthetic()
    del stale["axpy_many_fp32_k8"]
    expect("record missing from baseline exits 2", diff(synthetic(), stale, 0.25), 2)

    # Soft backend records: one-sided absence (a pre-seam baseline) skips
    # the pair instead of exiting 2 like a rename/drop would.
    pre_seam = synthetic()
    for name in list(pre_seam):
        if name in SOFT_RECORDS:
            del pre_seam[name]
    expect("soft backend records absent from baseline skip",
           diff(synthetic(), pre_seam, 0.25), 0)

    both = synthetic()
    conditional = [f for f, _r in FP16_PAIRS]
    for name in conditional:
        del both[name]
    expect("feature-conditional records absent from both sides skip",
           diff(both, dict(both), 0.25), 0)

    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh", nargs="?")
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative ratio regression (default 0.25)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in gate self-test and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.fresh is None or args.baseline is None:
        ap.error("fresh and baseline JSON paths are required (or --self-test)")

    return diff(load(args.fresh), load(args.baseline), args.tolerance,
                fresh_name=args.fresh, base_name=args.baseline)


if __name__ == "__main__":
    sys.exit(main())
