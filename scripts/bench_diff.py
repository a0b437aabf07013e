#!/usr/bin/env python3
"""Perf regression gate for the kernel micro-benchmarks.

Compares a freshly measured google-benchmark JSON report (the candidate,
typically from ``bench/micro_kernels --smoke``) against a committed
baseline snapshot under ``bench/baselines/``.

Absolute times are not comparable across machines (the baselines are
recorded on a dev box, the candidate on whatever CI runner picked up the
job), so the gate checks *speedup ratios measured within one run*: for
each (reference, kernel) pair below, ``speedup = time(reference) /
time(kernel)`` cancels the machine factor.  A regression is a candidate
speedup that drops more than ``--tolerance`` (default 0.35, i.e. 35%)
below the baseline speedup for the same pair.

The tolerance is deliberately loose: smoke-tier measurements use
``--benchmark_min_time=0.01`` and run on shared, noisy CI hardware.  The
gate is meant to catch structural regressions (a kernel silently falling
back to the scalar path, an accidental O(n) -> O(n^2) edit), not
single-digit-percent drift.  Tighten locally with ``--tolerance 0.1``
when measuring on quiet hardware.

Exit codes: 0 = no regression, 1 = regression detected, 2 = usage or
input error.

Refreshing the baseline (see EXPERIMENTS.md): run the full suite with
``--benchmark_out`` on a quiet machine, commit the JSON as
``bench/baselines/BENCH_<date>_<tag>.json``; this script picks the newest
file sharing a benchmark pair with the candidate by default.
"""

import argparse
import copy
import json
import math
import pathlib
import sys

# (label, reference bench, kernel bench): speedup = ref_time / kernel_time.
# A pair is skipped (with a note) when either side is missing from both
# reports being compared -- older baselines predate the *Simd variants.
PAIRS = [
    ("estep-batch-kernel", "BM_UpdateWtsScalarGaussian", "BM_UpdateWtsGaussian"),
    ("estep-simd", "BM_UpdateWtsScalarGaussian", "BM_UpdateWtsGaussianSimd"),
    ("estep-simd-over-batch", "BM_UpdateWtsGaussian", "BM_UpdateWtsGaussianSimd"),
    ("estep-simd-multinormal", "BM_UpdateWtsMultiNormal", "BM_UpdateWtsMultiNormalSimd"),
    # E-step row normalization of one 256-item block at J=4: the per-row
    # logsumexp + pac::exp oracle vs the lanes = items normalizer
    # (bit-identical output).
    ("estep-normalize-lanes", "BM_NormalizeRowsScalar/4", "BM_NormalizeRowsLanes/4"),
    ("mstep-batch-kernel", "BM_UpdateParamsScalarGaussian", "BM_UpdateParamsGaussian"),
    # M-step statistics of the same workload with the lanes = classes
    # kernels forced to their per-class portable loops, over the host's
    # vector level (bit-identical output), at J=8 and the search's J=16.
    ("mstep-lanes", "BM_UpdateParamsGaussianPortable", "BM_UpdateParamsGaussian"),
    ("mstep-lanes-j16", "BM_UpdateParamsGaussianPortableJ16", "BM_UpdateParamsGaussianJ16"),
    # One EM cycle (update_parameters + update_wts, five term families,
    # J=8, 2 pool threads) on resident data vs the same values streamed
    # from a .pacb under an evicting chunk budget.  Below 1x by design; a
    # drop means the chunked data path (lookups, pread, CRC, per-block
    # transforms) grew a cost.
    ("ooc-chunked-vs-resident", "BM_OocCycleResident", "BM_OocCycleChunked"),
    # The data path alone: every block of every column of the same data
    # summed once per pass, no E/M kernels, resident vs chunked under the
    # evicting budget.  Below 1x by design; unlike the cycle pair, a kernel
    # speedup cannot move it, so a drop means the chunk path itself (lookup,
    # pread, CRC) grew a cost.
    ("ooc-scan-chunked-vs-resident", "BM_OocScanResident", "BM_OocScanChunked"),
    # Chunk checksum of a 16 KiB chunk column: slicing-by-8 (the scalar
    # level) vs the PCLMULQDQ fold at the host's level (same value).
    ("crc-fold", "BM_Crc32Portable", "BM_Crc32"),
    # Serving path (bench/serve_latency): micro-batched predict_batch vs
    # the per-request rowwise path and the per-row scalar oracle.
    ("serve-batched-vs-rowwise", "BM_ServePredictRowwise", "BM_ServePredictBatched"),
    ("serve-kernel-vs-scalar-oracle", "BM_ServePredictScalarOracle", "BM_ServePredictBatched"),
    # A 1-row predict round trip to a live Server vs a bare frame ping-pong
    # of the same request over loopback (median of each burst of 8).  Below
    # 1x by design: the server adds its reader and worker hand-offs and the
    # predict.  A drop means a request waits for something it should not,
    # such as a batching delay (a 1 ms window reads about 0.02x).
    ("serve-roundtrip-vs-loopback", "BM_LoopbackRoundTrip/manual_time", "BM_ServeRoundTrip/manual_time"),
    # Try-parallel search (bench/search_tries): G=2 sub-worlds vs the classic
    # single-group sweep at equal total ranks.  Times are *modeled* virtual
    # seconds (UseManualTime), so the ratio is machine-independent and the
    # acceptance bar (>= 1.5x) survives any runner.
    ("search-tries-g2-over-g1", "BM_SearchTriesG1/manual_time", "BM_SearchTriesG2/manual_time"),
    # Ingest path (bench/data_ingest): binary .pacb load vs ASCII .db2
    # parse of the same rows.  Within-run ratio, so it survives machine
    # changes; a collapse means the binary loader grew a parse-shaped cost.
    ("ingest-binary-over-ascii", "BM_IngestAscii", "BM_IngestBinary"),
    # Hybrid shm transport (bench/transport_throughput standalone mode):
    # same-host rank pairs over SPSC shm rings vs the full socket mesh, on
    # loopback 2-rank worlds.  Small-message round trips are the headline
    # (acceptance bar >= 2x); the raw-ring pair isolates ring-protocol
    # regressions from runtime (mailbox/matching) regressions.
    ("transport-shm-small-rt", "BM_TransportPingPongSocket/8/manual_time", "BM_TransportPingPongHybrid/8/manual_time"),
    ("transport-shm-large-bw", "BM_TransportPingPongSocket/65536/manual_time", "BM_TransportPingPongHybrid/65536/manual_time"),
    ("transport-ring-over-hybrid", "BM_TransportPingPongHybrid/8/manual_time", "BM_TransportShmRingPingPong/8/manual_time"),
]

DEFAULT_TOLERANCE = 0.35
BASELINE_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench" / "baselines"


def load_report(path):
    """Return (name -> real_time ns for iteration entries, build type)."""
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    times = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        time = float(b["real_time"])
        if math.isnan(time):
            # An unmeasured quantity (e.g. a quantile of an empty histogram)
            # serializes as NaN; treat it as absent, never as a real time.
            print(f"  SKIP {b['name']}: NaN time (unmeasured) in {path}")
            continue
        times[b["name"]] = time
    if not times:
        sys.exit(f"bench_diff: no benchmark entries in {path}")
    # "pac_build" is this project's own build flavor (attached by
    # micro_kernels); "library_build_type" describes only the
    # google-benchmark library and is a weak fallback for old snapshots.
    context = report.get("context", {})
    build_type = context.get("pac_build", context.get("library_build_type", ""))
    return times, build_type


def shared_pairs(a_times, b_times):
    """Number of PAIRS complete (ref and kernel present) in both reports."""
    return sum(
        1
        for _, ref, kernel in PAIRS
        if ref in a_times and kernel in a_times
        and ref in b_times and kernel in b_times
    )


def newest_baseline(build_type, candidate_times=None):
    """Newest baseline snapshot comparable to the candidate.

    Baselines from different suites coexist under bench/baselines/ (the
    kernel micros and the serve-latency benches record disjoint benchmark
    names), so "lexicographically newest" alone can pick a snapshot with
    zero pairs in common with the candidate and dead-end the gate.
    Selection order: baselines sharing at least one complete PAIR with the
    candidate, then those recorded at the same build type (debug and
    release runs have very different kernel-vs-oracle ratios), then the
    lexicographically newest."""
    files = sorted(BASELINE_DIR.glob("BENCH_*.json"))
    if not files:
        sys.exit(f"bench_diff: no baselines under {BASELINE_DIR}")
    loaded = [(f, *load_report(f)) for f in files]
    if candidate_times is not None:
        comparable = [
            (f, times, bt)
            for f, times, bt in loaded
            if shared_pairs(candidate_times, times) > 0
        ]
        if comparable:
            loaded = comparable
        else:
            print(
                "bench_diff: warning: no baseline shares a benchmark pair"
                f" with the candidate; falling back to {loaded[-1][0].name}"
            )
    if build_type is not None:
        matching = [(f, times, bt) for f, times, bt in loaded if bt == build_type]
        if matching:
            loaded = matching
        else:
            print(
                f"bench_diff: warning: no {build_type or 'unknown'}-build"
                f" baseline among comparable snapshots; falling back to"
                f" {loaded[-1][0].name}"
            )
    return loaded[-1][0]


def speedup(times, ref, kernel):
    if ref not in times or kernel not in times:
        return None
    return times[ref] / times[kernel]


def compare(candidate, baseline, tolerance):
    """Return the number of regressions; prints one line per pair."""
    regressions = 0
    compared = 0
    for label, ref, kernel in PAIRS:
        cand = speedup(candidate, ref, kernel)
        base = speedup(baseline, ref, kernel)
        if cand is None or base is None:
            where = "candidate" if cand is None else "baseline"
            print(f"  SKIP {label}: {ref} / {kernel} missing from {where}")
            continue
        compared += 1
        floor = base * (1.0 - tolerance)
        status = "ok" if cand >= floor else "REGRESSION"
        print(
            f"  {status:>10} {label}: speedup {cand:.2f}x vs baseline"
            f" {base:.2f}x (floor {floor:.2f}x)"
        )
        if cand < floor:
            regressions += 1
    if compared == 0:
        sys.exit("bench_diff: no comparable pairs between the two reports")
    return regressions


def self_test(baseline_times, tolerance):
    """The gate must pass on an identical report and fail on a synthetic
    regression (one kernel bench slowed 3x, as if it fell back to the
    scalar path)."""
    print("self-test: identical candidate (must pass)")
    if compare(dict(baseline_times), baseline_times, tolerance) != 0:
        print("bench_diff: self-test FAILED: identical report flagged")
        return 1
    slowed = copy.deepcopy(baseline_times)
    victim = next(
        (k for _, _, k in PAIRS if k in slowed),
        None,
    )
    if victim is None:
        print("bench_diff: self-test FAILED: no kernel bench to slow down")
        return 1
    slowed[victim] *= 3.0
    print(f"self-test: {victim} slowed 3x (must fail)")
    if compare(slowed, baseline_times, tolerance) == 0:
        print("bench_diff: self-test FAILED: synthetic regression passed")
        return 1
    print("self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "candidate",
        nargs="?",
        help="fresh benchmark JSON (e.g. build/BENCH_micro_kernels.json)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        help="baseline JSON (default: newest bench/baselines/BENCH_*.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional speedup drop (default %(default)s)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate flags a synthetic regression, then exit",
    )
    args = parser.parse_args()

    if args.self_test:
        baseline_path = args.baseline or newest_baseline(None)
        baseline, _ = load_report(baseline_path)
        print(f"baseline: {baseline_path}")
        sys.exit(self_test(baseline, args.tolerance))

    if not args.candidate:
        parser.error("candidate JSON required unless --self-test")
    candidate, build_type = load_report(args.candidate)
    print(f"candidate: {args.candidate} ({build_type or 'unknown'} build)")
    baseline_path = args.baseline or newest_baseline(build_type, candidate)
    baseline, _ = load_report(baseline_path)
    print(f"baseline: {baseline_path}")
    regressions = compare(candidate, baseline, args.tolerance)
    if regressions:
        print(f"bench_diff: {regressions} perf regression(s) detected")
        sys.exit(1)
    print("bench_diff: no perf regressions")


if __name__ == "__main__":
    main()
