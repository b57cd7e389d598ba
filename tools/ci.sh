#!/usr/bin/env bash
# CI driver: builds the release and asan presets, runs the full test
# suite under both (the detector-calibration and detector-power suites
# get their own labelled ASan pass, and the evasion bench's ROC gates
# are checked from BENCH_detector_power.json), self-tests the pipeline
# benchmark (pipebench/) at a small scale, checks every figure, table
# and ablation bench's stdout and CSVs against bench/outputs.sha256
# (tools/check_bench_outputs.sh), gates the observability overhead on
# the bit bench_audit writes to bench_out/BENCH_audit.json, re-runs the
# concurrency-sensitive tests (the ThreadPool, the lock-free obs
# registry, the audit pipeline and the pinned-report suite with their
# parallel dataset build, the fault-injection property suite, and the
# daemon's serving and checkpoint tests) under tsan, runs the
# fault-injection and CSV reader
# suites under asan plus the ingestion throughput bench, exercises the
# CNB1 leg (round-trip suite under asan, a cnconvert-built fixture whose
# report must equal the reports from its source CSV export and from the
# CSV converted back, and the CNB1-vs-CSV ingest gate from
# bench_dataset_build), runs the cnauditd daemon leg (the labelled
# suite, with the checkpoint files' seeded mutation loop, plus the
# chaos harness under asan — kill points mid-apply, mid-append to the
# event-log segment, after the segment's fsync, before the state file's
# fsync, before and after its rename, each with its expected resume or
# cold start — and the >=10x incremental-update gate from bench_daemon),
# and runs the cnsweep smoke matrix cold then warm (warm must be all
# cache hits, <10% sim time, byte-identical bench CSVs).
#
# Usage: tools/ci.sh [--quick]
#   --quick   skip the sanitizer configurations (release build + ctest only)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

run() {
  echo "+ $*" >&2
  "$@"
}

echo "=== release: configure + build + ctest ==="
run cmake --preset release
run cmake --build --preset release -j "${JOBS}"
run ctest --preset release -j "${JOBS}"

if [[ "${QUICK}" == "1" ]]; then
  echo "=== quick mode: skipping sanitizer builds ==="
  exit 0
fi

echo "=== pipeline benchmark self-test (pipebench/selftest.py) ==="
# Builds its own Release tree of the harness and runs all four workloads
# (simulate, audit, ingest-csv, daemon) with their output checks at scale
# 0.05, so a src/ change that breaks the benchmark fails here.
run python3 pipebench/selftest.py

echo "=== observability overhead gate (bench_audit) ==="
# bench_audit measures the columnar audit with obs on vs off and writes
# obs_overhead_ok (overhead <= 2%) and obs_reports_byte_identical into
# its JSON; a FATAL divergence already exits non-zero above, the gate
# here catches a >2% slowdown that is not otherwise fatal.
run env CN_SCALE=0.3 ./build-release/bench/bench_audit --benchmark_filter='^$'
python3 - <<'EOF'
import json, sys
with open("bench_out/BENCH_audit.json") as f:
    metrics = json.load(f)["metrics"]
for bit in ("obs_overhead_ok", "obs_reports_byte_identical"):
    if metrics.get(bit) != 1.0:
        sys.exit(f"observability gate failed: {bit}={metrics.get(bit)} "
                 f"(overhead {metrics.get('obs_overhead_fraction')})")
print(f"obs overhead {metrics['obs_overhead_fraction']:+.4f} (budget 0.02), "
      "reports byte-identical")
EOF

echo "=== bench outputs: every figure, table and ablation bench and example, pinned ==="
# Runs the 17 figure/table/ablation benches and the 5 examples in fresh
# directories (cold world caches) and checks the SHA-256 of each one's
# stdout and CSVs against bench/outputs.sha256 (~80 s serially).
run tools/check_bench_outputs.sh

echo "=== asan+ubsan: configure + build + ctest ==="
run cmake --preset asan
run cmake --build --preset asan -j "${JOBS}"
run ctest --preset asan -j "${JOBS}" -LE calibration

echo "=== detector calibration + power under asan ==="
# The ground-truth calibration suite (planted selfish / low-fee-tolerant
# / honest worlds) and the evasion power suite (theta-throttled
# adversaries, withholding worlds, zero-evasion byte-identity) run in
# their own labelled pass so failures are unmistakably a detector
# regression, not a unit-test flake. CN_SMOKE=1 halves the power
# suite's world durations — the statistical separations it asserts
# survive the shorter sims, and ASan is ~5x slower.
run env CN_SMOKE=1 ctest --preset asan -j "${JOBS}" -L calibration

echo "=== detector power gate (bench_ablation_evasion --smoke) ==="
# The reduced grid (theta in {0,1}, one seed) at the default 0.4 scale
# still enforces the pinned ROC gates in-process (exit non-zero on
# failure); the json check guards the emitted bits so an edit to the
# bench's own enforcement cannot slip through CI.
run ./build-release/bench/bench_ablation_evasion --smoke
python3 - <<'EOF'
import json, sys
with open("bench_out/BENCH_detector_power.json") as f:
    metrics = json.load(f)["metrics"]
if metrics.get("gates_enforced") != 1.0:
    sys.exit("detector power gates were not enforced (scale too small?)")
for bit in ("gate_power_monotone_in_budget", "gate_power_full_selfish",
            "gate_fpr_at_alpha"):
    if metrics.get(bit) != 1.0:
        sys.exit(f"detector power gate failed: {bit}={metrics.get(bit)}")
print(f"power {metrics['power_theta_100']:.2f} at theta=1, "
      f"FPR {metrics['false_positive_rate']:.3f} "
      f"(alpha {metrics['alpha']})")
EOF

echo "=== fault injection: property tests under asan + ingest bench ==="
# Lenient import must survive any seeded corruption asan-clean; strict
# import must pinpoint injected faults (see tests/io/test_fault_injection.cpp).
# CsvReader unescapes quoted fields in place inside its file buffer, where
# an out-of-bounds write would hide: its edge cases and the differential
# against the char-at-a-time reader (tests/util/test_csv.cpp) run here too.
run ./build-asan/tests/cn_tests_io --gtest_filter='FaultInjection*:CsvReader*'
run ./build-asan/tests/cn_tests_util --gtest_filter='CsvReader*'
# Strict-vs-lenient ingestion throughput at 1% corruption; emits
# bench_out/BENCH_fault_ingest.json for the perf trajectory.
run ./build-release/bench/bench_fault_ingest

echo "=== CNB1 binary format: round-trip suite under asan ==="
# The CNB1 header/section/corruption suite and the DatasetSource
# sniffing/ownership tests are exactly where a lifetime bug in the
# mmap-backed loader would hide; run them asan-clean.
run ./build-asan/tests/cn_tests_io --gtest_filter='CnbFormat*:DatasetSource*'

echo "=== CNB1 fixtures via cnconvert: one report from every source ==="
# Build a binary fixture with the conversion tool; the report audited
# from it (with its stored dataset) must equal the reports from its
# source CSV export and from the CSV converted back from it.
CNB_WORK="$(mktemp -d)"
trap 'rm -rf "${CNB_WORK}"' EXIT
run ./build-release/tools/cnaudit simulate --dataset A --seed 11 --scale 0.1 \
    --out "${CNB_WORK}/csv"
run ./build-release/tools/cnconvert --input "${CNB_WORK}/csv" \
    --output "${CNB_WORK}/world.cnb"
run ./build-release/tools/cnconvert --input "${CNB_WORK}/world.cnb" \
    --output "${CNB_WORK}/csv2" --format csv
# The "loaded ... from <path>" banner names the input path, so drop it
# before comparing reports read from different sources.
for source in world.cnb csv csv2; do
  ./build-release/tools/cnaudit report --input "${CNB_WORK}/${source}" |
      sed '/^loaded /d' > "${CNB_WORK}/${source}.txt"
done
run cmp "${CNB_WORK}/world.cnb.txt" "${CNB_WORK}/csv.txt"
run cmp "${CNB_WORK}/world.cnb.txt" "${CNB_WORK}/csv2.txt"

echo "=== CNB1 ingest throughput gate (bench_dataset_build) ==="
# The bench exits non-zero when audit-ready CNB1 ingest is not its gate's
# multiple of CSV ingest (the threshold is in the bench and its JSON); the
# json check guards the emitted bit so a silent edit to the bench's own
# gate cannot slip through CI.
run ./build-release/bench/bench_dataset_build --benchmark_filter='^$'
python3 - <<'EOF'
import json, sys
with open("bench_out/BENCH_dataset_build.json") as f:
    report = json.load(f)
metrics = report["metrics"]
# CN_SCALE is unset here, so the report must carry the bench's own
# default scale, not the 1.0 of an unset variable.
if report.get("scale") != 0.5:
    sys.exit(f"BENCH_dataset_build.json reports scale {report.get('scale')}, "
             "expected the bench default 0.5")
if metrics.get("ingest_speedup_ok") != 1.0:
    sys.exit(f"CNB1 ingest gate failed: {metrics.get('ingest_speedup')}x "
             f"(need >= {metrics.get('ingest_speedup_gate')}x)")
print(f"CNB1 ingest {metrics['ingest_speedup']:.1f}x CSV "
      f"(raw load {metrics['load_speedup']:.1f}x, "
      f"{metrics['cnb_bytes_per_tx']:.0f} B/tx)")
EOF

echo "=== cnauditd: daemon suite + chaos harness under asan ==="
# The daemon's checkpoint/recovery dance and serving thread are the
# newest crash-and-concurrency surface.
# `-L daemon` picks up cn_tests_daemon (including the seeded mutation
# loop over the state file and the event-log segment) plus cli.chaos,
# whose kill points (_exit(137) mid-apply, mid-append, between the
# segment's fsync and the state file, before the state file's fsync,
# before and after its rename) emulate SIGKILL
# and require the restarted daemon to resume or cold-start as expected
# and converge to byte-identical reports — here it drives the
# asan-built binaries explicitly so a heap bug on the recovery path
# cannot hide behind a passing exit code.
run ctest --preset asan -j "${JOBS}" -L daemon --output-on-failure

echo "=== cnauditd incremental-update gate (bench_daemon) ==="
# One incremental block update must stay >= 10x cheaper than rebuilding
# the report from scratch (the bench exits non-zero below the gate);
# the json check guards the emitted bit like the other perf gates.
run env CN_SCALE=0.15 ./build-release/bench/bench_daemon --benchmark_filter='^$'
python3 - <<'EOF'
import json, sys
with open("bench_out/BENCH_daemon.json") as f:
    metrics = json.load(f)["metrics"]
if metrics.get("incremental_speedup_ok") != 1.0:
    sys.exit(f"daemon incremental gate failed: "
             f"{metrics.get('incremental_speedup')}x (need >= 10x)")
print(f"daemon incremental update {metrics['incremental_speedup']:.1f}x "
      f"rebuild (recovery {metrics['recovery_speedup']:.1f}x, "
      f"{metrics['queries_per_s'] / 1e3:.0f}k queries/s)")
EOF

echo "=== cnsweep: shared-world smoke matrix (cold, then warm) ==="
# The cold run simulates each unique world once into the content-
# addressed cache; the warm rerun must be all cache hits, spend <10% of
# wall time simulating, and reproduce byte-identical bench reports
# (the DESIGN.md §14 contract).
rm -rf bench_out/worlds bench_out/sweep
run ./build-release/tools/cnsweep --smoke
python3 - <<'EOF'
import json, sys
with open("bench_out/BENCH_sweep.json") as f:
    m = json.load(f)["metrics"]
if m["jobs_failed"] or m["worlds_failed"]:
    sys.exit(f"cold sweep had failures: {m}")
if m["cache_misses"] < 1:
    sys.exit("cold sweep simulated nothing — the cache was not cold")
print(f"cold: {m['cache_misses']:.0f} worlds simulated in "
      f"{m['wall_seconds']:.1f}s ({m['sim_fraction'] * 100:.0f}% sim)")
EOF
SWEEP_SNAP="$(mktemp -d)"
cp bench_out/fig03_*.csv bench_out/fig05_*.csv "${SWEEP_SNAP}/"
rm -rf bench_out/sweep  # drop the --resume markers, keep the worlds
run ./build-release/tools/cnsweep --smoke
python3 - <<'EOF'
import json, sys
with open("bench_out/BENCH_sweep.json") as f:
    m = json.load(f)["metrics"]
if m["jobs_failed"] or m["worlds_failed"]:
    sys.exit(f"warm sweep had failures: {m}")
if m["cache_misses"] != 0 or m["cache_hits"] < 1:
    sys.exit(f"warm sweep was not served from cache: hits="
             f"{m['cache_hits']} misses={m['cache_misses']}")
if m["sim_fraction"] >= 0.10:
    sys.exit(f"warm sweep spent {m['sim_fraction'] * 100:.0f}% of wall "
             "time simulating (budget 10%)")
print(f"warm: {m['cache_hits']:.0f} cache hits, 0 misses, "
      f"{m['wall_seconds']:.1f}s "
      f"({m.get('speedup_vs_prev', 0):.1f}x vs cold)")
EOF
for f in "${SWEEP_SNAP}"/*.csv; do
  run cmp "$f" "bench_out/$(basename "$f")"
done
rm -rf "${SWEEP_SNAP}"

echo "=== tsan: configure + build + concurrency tests ==="
run cmake --preset tsan
run cmake --build --preset tsan -j "${JOBS}" --target cn_tests_util cn_tests_core cn_tests_io cn_tests_obs cn_tests_daemon
run ./build-tsan/tests/cn_tests_util --gtest_filter='ThreadPool*'
# The lock-free metric registry (per-thread shards, CAS-installed chunks)
# is exactly the kind of code tsan exists for.
run ./build-tsan/tests/cn_tests_obs
# The audit pipeline, the pinned-report suite (the parallel
# AuditDataset build at threads 1, 4 and 0, then the serial stages), and
# the fault-injection property tests all drive the thread pool through
# that build; run them race-checked. The CNB1 loader and the stages after
# the build run on one thread.
run ./build-tsan/tests/cn_tests_core --gtest_filter='AuditPipeline*:AuditReportPins*:AuditStages*'
run ./build-tsan/tests/cn_tests_io --gtest_filter='FaultInjection*'
# The daemon's HTTP thread reads the cached report, the run counters and
# the readiness flags while run_to_end applies and seals on another
# thread. The single-threaded SealedPairs* recounts are left out: under
# tsan they take minutes.
run ./build-tsan/tests/cn_tests_daemon --gtest_filter='AuditDaemon*:Checkpoint*'

echo "=== all configurations passed ==="
