#!/usr/bin/env python3
"""Pipeline benchmark: simulate, audit, CSV ingest and a live daemon.

Builds the harness (pipebench.cpp plus the library under ../src) in the
checkout, prepares one workload's inputs from --seed in a private fresh
directory, runs the workload for --seconds, checks its outputs and
prints every metric by name with its unit. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 pipebench/run.py --workload audit --seed 1 --seconds 8 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics (spans around each layer call plus the library's
cn::obs counters). See pipebench/BENCHMARK.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("simulate", "audit", "ingest-csv", "daemon")

# The ROADMAP's pinned world: data set C at scale 0.5.
DEFAULT_SCALE = 0.5

# Set-ups per run; setup_s is their median. The simulate set-up is only a
# fresh directory and a WorldSpec, so it is cheap to repeat more often.
SETUPS = {"simulate": 5, "audit": 2, "ingest-csv": 2, "daemon": 2}

# World seeds of data set C (scale 0.5) with typical congestion: the
# transactions queued at each block, summed over the chain, within 6% of
# the median over world seeds 1-130, and 700-745 blocks. Simulation cost
# follows that congestion (world seeds 1-16 span 3.8-8.4 s), so drawing
# worlds from this list lets --seed change the inputs without changing
# how much work they are. Seed 42 keeps the ROADMAP's pinned world, which
# is more congested than typical (+21%).
TYPICAL_WORLDS = (10, 14, 18, 25, 28, 31, 34, 46, 52, 53, 57, 58, 61, 65, 71, 79,
                  89, 95, 96, 98, 103, 104, 107, 123, 127)
PINNED_SEED = 42


def world_seed(seed):
    return PINNED_SEED if seed == PINNED_SEED else TYPICAL_WORLDS[seed % len(TYPICAL_WORLDS)]


# SHA-256 of each output for seed 42 at scale 0.5: the CNB1 world bytes,
# the rendered audit report (CNB1- and CSV-sourced alike) and the
# daemon's final sealed JSON.
PINNED = {
    "world": "b318f9b1d20c00db7d90c8cf69803e1f49c06d8f3c85e636e7cb6f658b57fd45",
    "report": "388dcb69465b0ade4561bde1bd979cb1e66d22da65cc2cc3bfa7e55359dcd482",
    "daemon": "f6895f00925a96dbd5c32a591f771ff157f40fea751857a499ae62521485651e",
}

# Every run must finish well inside 180 s, and the first one (which
# builds) inside 900 s.
BUILD_TIMEOUT_S = 800
RUN_BUDGET_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources at src/ next to pipebench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs, "--target", "pipebench"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "pipebench")


def run_harness(cmd, deadline):
    """Runs one harness process and returns its last-line JSON."""
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("harness failed (exit %d): %s" % (done.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="data set C scale (default 0.5; the self-test uses less)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--seed must be >= 0, --seconds and --scale > 0")

    end_to_end, per_layer = metric_specs()
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S

    runs = os.path.join(ROOT, ".bench_run")
    run_dir = os.path.join(runs, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    traces = os.path.join(runs, "traces")
    os.makedirs(traces, exist_ok=True)
    setups, jobs = [], []
    try:
        for i in range(SETUPS[args.workload]):
            if setups:
                shutil.rmtree(setups[-1][1], ignore_errors=True)
            setup_dir = os.path.join(run_dir, "setup-%d" % i)
            setups.append((run_harness(
                [binary, "setup", "--workload", args.workload,
                 "--seed", str(world_seed(args.seed)),
                 "--scale", repr(args.scale), "--dir", setup_dir], deadline), setup_dir))
        # One process per job, repeated for --seconds: each job pays what a
        # fresh cnaudit/cnauditd process pays, and reports its own peak
        # RSS. A traced run alternates traced and untraced jobs; per-layer
        # metrics come from the traced ones, and the ratio of the two
        # medians is the tracing overhead.
        start = time.monotonic()
        while True:
            traced = args.trace == "1" and len(jobs) % 2 == 0
            cmd = [binary, "job", "--workload", args.workload, "--dir", setups[-1][1],
                   "--trace", "1" if traced else "0"]
            if traced:
                cmd += ["--trace-out", os.path.join(
                    traces, "%s-seed%d-job%d.json" % (args.workload, args.seed, len(jobs)))]
            job = run_harness(cmd, deadline)
            job["traced"] = traced
            jobs.append(job)
            both_kinds = args.trace == "0" or len(jobs) >= 2
            if both_kinds and time.monotonic() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(int(job["attempted"]) for job in jobs)
    failed = sum(int(job["failed"]) for job in jobs)
    for job in jobs:
        for message in job["errors"]:
            log("check failed: " + message)
    # Every job must produce the same outputs; seed 42 the pinned ones.
    pinned = args.seed == PINNED_SEED and args.scale == DEFAULT_SCALE
    for kind in sorted({kind for job in jobs for kind in job["digests"]}):
        seen = [job["digests"].get(kind) for job in jobs]
        digest = seen[0]
        if len(set(seen)) > 1:
            status = "DIFFERS BETWEEN JOBS"
        elif pinned:
            status = "matches pin" if PINNED[kind] == digest else "DIFFERS FROM PIN"
        else:
            status = "n/a (pinned for seed 42, scale 0.5 only)"
        if status.startswith("DIFFERS"):
            failed = min(attempted, failed + 1)
        print("sha256 %-6s %s  %s" % (kind, digest, status))

    traced = [job for job in jobs if job["traced"]]
    untraced = [job for job in jobs if not job["traced"]]
    provenance = dict(jobs[-1]["provenance"])
    provenance.update({"seed": args.seed, "world_seed": world_seed(args.seed),
                       "scale": args.scale, "seconds": args.seconds,
                       "trace": int(args.trace), "setups": len(setups),
                       "setup_s_samples": [s["setup_s"] for s, _ in setups],
                       "job_s_samples": [job["job_s"] for job in untraced],
                       "traced_job_s_samples": [job["job_s"] for job in traced],
                       "peak_rss_mb_samples": [job["peak_rss_mb"] for job in jobs]})
    print("provenance " + json.dumps(provenance, sort_keys=True))

    error_rate = failed / attempted
    if args.trace == "0":
        measured = {
            "setup_s": statistics.median(s["setup_s"] for s, _ in setups),
            "job_s": statistics.median(job["job_s"] for job in jobs),
            "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
        }
        wanted = end_to_end
    else:
        names = {name for job in traced for name in job["per_layer"]}
        measured = {name: statistics.median(job["per_layer"].get(name, 0.0) for job in traced)
                    for name in names}
        measured["bench.trace_overhead_frac"] = (
            statistics.median(job["job_s"] for job in traced) /
            statistics.median(job["job_s"] for job in untraced) - 1.0)
        measured["bench.error_rate"] = error_rate
        wanted = per_layer
    unknown = sorted(set(measured) - {m["name"] for m in wanted})
    if unknown:
        raise RuntimeError("harness reported metrics BENCHMARK.json lacks: %s" % unknown)

    metrics = {}
    for m in wanted:
        # A layer the workload never calls reads 0.
        value = float(measured.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-36s %s %s" % (m["name"], repr(value), m["unit"]))
    print("%-36s %s fraction (%d failed of %d attempted)" % ("error_rate", repr(error_rate),
                                                         failed, attempted))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log("pipebench: %s" % e)
        sys.exit(2)
