#!/usr/bin/env python3
"""Self-test of the pipeline benchmark.

    python3 pipebench/selftest.py

1. API check: pipebench.cpp calls no library API that ROADMAP items 2-5
   delete (AuditEngine::kLegacy, sim::SeedEngine, EngineConfig::{threads,
   sim_shards, barrier_window_s}, the chain-walking detector overloads),
   and names only an allowlist of library entry points.
2. Every workload runs at a small scale, untraced and traced: the result
   line has exactly the contract's keys, every metric of BENCHMARK.json
   is emitted with its unit, the output checks pass, and each workload's
   own layers report non-zero work.
3. In a directory holding only BENCHMARK.json and pipebench/, run.py
   fails fast without printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"

# Library names the harness may use, per namespace. Anything else is a
# failure, so a new call into an API scheduled for deletion cannot slip in.
ALLOWED = {
    "btc": {"Address", "AddressTable", "Block", "Chain", "CoinbaseTagRegistry", "Txid"},
    "core": {"AuditOptions", "AuditReport", "AuditStage", "DataQualityReport",
             "FirstSeenFn", "assess_data_quality", "print_audit_report",
             "run_full_audit"},
    "daemon": {"AccumulatorOptions", "AuditAccumulators", "AuditDaemon",
               "DaemonConfig", "DaemonStats", "HttpRequest", "HttpResponse",
               "HttpServer"},
    "io": {"CnbWriteOptions", "DatasetFormat", "DatasetHandle", "FirstSeenMap",
           "LoadPolicy", "LoadResult", "ReplaySource", "SimWorldInfo",
           "StreamEvent", "StreamSource", "StreamStatus", "export_chain",
           "export_first_seen", "export_snapshots", "open_dataset", "to_string",
           "write_cnb"},
    "node": {"ObserverNode", "SnapshotSeries"},
    "obs": {"MetricKind", "MetricValue", "snapshot"},
    "sim": {"DatasetKind", "Engine", "SimResult", "WorldSpec", "baseline_spec"},
}
# Spelled out as well, so the check fails loudly even if an allowlist
# entry above is later widened by mistake.
FORBIDDEN = ("kLegacy", "AuditEngine", "SeedEngine", "engine_seed", "EngineConfig",
             "sim_shards", "barrier_window_s", "run_sharded", "neutrality_reports",
             "self_interest_txs", "test_differential_prioritization",
             "PoolAttribution")

# Per workload, per-layer metrics that must read non-zero in a traced run.
OWN = {
    "simulate": ["sim.run_s", "sim.events_per_s", "sim.engine.events",
                 "node.mempool.accepted", "io.cnb_write_s", "io.cnb_verify_s",
                 "io.cnb_bytes", "bench.span_coverage_frac", "bench.dominant_layer_frac"],
    "audit": ["io.cnb_load_s", "io.cnb_bytes", "core.quality_s", "core.audit_s",
              "core.render_s", "core.stage.build_s", "core.stage.withholding_s",
              "core.audit_dataset.memory_bytes", "bench.span_coverage_frac",
              "bench.dominant_layer_frac"],
    "ingest-csv": ["io.csv_load_s", "io.csv_bytes", "io.ingest.rows_read",
                   "core.audit_s", "core.render_s", "bench.span_coverage_frac",
                   "bench.dominant_layer_frac"],
    "daemon": ["daemon.apply_us_p50", "daemon.seal_ms_p50", "daemon.seal_ms_max",
               "daemon.handle_us_p50", "daemon.seals", "daemon.checkpoints",
               "daemon.checkpoint_bytes", "daemon.http.requests", "daemon.queries",
               "daemon.query_p50_us", "daemon.freshness_p50_ms",
               "daemon.freshness_samples", "io.cnb_bytes", "bench.span_coverage_frac",
               "bench.dominant_layer_frac"],
}

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
        print("FAIL " + message)


def api_check():
    with open(os.path.join(HERE, "pipebench.cpp")) as f:
        source = f.read()
    code = re.sub(r"//[^\n]*", "", source)  # comments may name anything
    for word in FORBIDDEN:
        check(word not in code, "pipebench.cpp names %s" % word)
    for ns, name in re.findall(r"\b(btc|core|daemon|io|node|obs|sim)::(\w+)", code):
        check(name in ALLOWED[ns], "pipebench.cpp uses %s::%s, outside the allowlist" % (ns, name))
    # EngineConfig is never named, so its thread/shard knobs cannot be set:
    # the config only ever flows straight into the serial engine.
    for m in re.finditer(r"\.config\(\)", code):
        check(code[max(0, m.start() - 24):m.start()].endswith("sim::Engine(spec"),
              "WorldSpec::config() used outside sim::Engine(spec.config())")


def run(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", trace, "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def workload_check(spec, workload, trace):
    done = run(workload, trace)
    label = "%s --trace %s" % (workload, trace)
    lines = done.stdout.strip().splitlines()
    check(done.returncode == 0, "%s exited %d: %s" % (label, done.returncode, done.stderr[-400:]))
    if not lines:
        return check(False, label + " printed nothing")
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          "%s result keys %s" % (label, sorted(result)))
    check(result.get("correct") is True and result.get("failed") == 0,
          "%s output checks failed" % label)
    check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
          "%s attempted %r" % (label, result.get("attempted")))
    wanted = spec["end_to_end" if trace == "0" else "per_layer"]
    metrics = result.get("metrics", {})
    check(sorted(metrics) == sorted(m["name"] for m in wanted),
          "%s metric names differ from BENCHMARK.json" % label)
    for m in wanted:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"], "%s %s unit %r" % (label, m["name"], got.get("unit")))
        value = got.get("value")
        check(isinstance(value, float) and math.isfinite(value),
              "%s %s value %r" % (label, m["name"], value))
        if trace == "0":
            check(isinstance(value, float) and value > 0, "%s %s is %r" % (label, m["name"], value))
    if trace == "1":
        for name in OWN[workload]:
            check(metrics.get(name, {}).get("value", 0) > 0, "%s %s reads 0" % (label, name))
    print("ok   %s (%d metrics)" % (label, len(metrics)))


def bare_directory_check():
    """run.py must fail, fast and without a result, next to nothing but itself."""
    bare = os.path.join(ROOT, ".bench_run", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "pipebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    start = time.monotonic()
    done = run("audit", "0", cwd=bare, script=os.path.join(bare, "pipebench", "run.py"))
    elapsed = time.monotonic() - start
    shutil.rmtree(bare, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    check(done.returncode != 0, "run.py succeeded without library sources")
    check(not lines or not lines[-1].startswith("{"), "run.py printed a result without sources")
    check(elapsed < 180, "run.py took %.0f s to fail without sources" % elapsed)
    print("ok   bare directory fails (exit %d, %.1f s)" % (done.returncode, elapsed))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    api_check()
    print("ok   API check" if not failures else "FAIL API check")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            workload_check(spec, workload, trace)
    bare_directory_check()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
