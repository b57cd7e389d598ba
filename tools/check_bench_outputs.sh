#!/usr/bin/env bash
# Pins what every figure, table and ablation bench and every example
# prints and writes.
#
# Each bench runs in a fresh temporary directory with its own world
# cache (CN_WORLD_DIR), so every world is simulated from its spec:
#   * the figure and table benches and bench_ablation_{aging,detection}
#     at CN_SEED=42 CN_SCALE=0.05;
#   * bench_ablation_evasion --smoke at its default scale;
#   * the five examples at their documented default arguments.
# The SHA-256 of each program's stdout and of every CSV it wrote under
# bench_out/ must match bench/outputs.sha256. Wall times go to stderr
# or the BENCH_*.json files, which are not pinned. On a mismatch the
# script prints the fresh manifest lines, so an intended output change
# is re-pinned by pasting them into bench/outputs.sha256.
#
# Usage: tools/check_bench_outputs.sh   (after building the release preset)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="${ROOT}/build-release"
MANIFEST="${ROOT}/bench/outputs.sha256"

SMOKE_BENCHES=(
  bench_fig01_ppe_norm_shift bench_fig02_pool_shares bench_fig03_congestion
  bench_fig04_fees_delays bench_fig05_delay_by_feerate
  bench_fig06_pair_violations bench_fig07_ppe_pools bench_fig08_wallets
  bench_fig14_accel_fees bench_tab01_datasets bench_tab02_self_interest
  bench_tab03_scam bench_tab04_darkfee bench_tab05_fee_revenue
  bench_ablation_aging bench_ablation_detection
)
EXAMPLES=(audit_pools congestion_study darkfee_hunt neutrality_report quickstart)

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

# run_pinned DIR NAME [ARGS ...]: runs build-release/DIR/NAME in its own
# directory and world cache, keeping its stdout.
run_pinned() {
  local dir="$1" name="$2"
  shift 2
  mkdir -p "${WORK}/${name}"
  echo "+ ${name} $*" >&2
  if ! (cd "${WORK}/${name}" && CN_WORLD_DIR="${WORK}/${name}/worlds" \
          "${BIN}/${dir}/${name}" "$@" > stdout 2> stderr); then
    cat "${WORK}/${name}/stderr" >&2
    echo "FAILED: ${name} exited non-zero" >&2
    exit 1
  fi
}

for name in "${SMOKE_BENCHES[@]}"; do
  CN_SEED=42 CN_SCALE=0.05 run_pinned bench "${name}" --benchmark_filter='^$'
done
run_pinned bench bench_ablation_evasion --smoke
for name in "${EXAMPLES[@]}"; do
  run_pinned examples "${name}"
done

cd "${WORK}"
fresh="$(sha256sum */stdout */bench_out/*.csv)"
if sha256sum --quiet -c "${MANIFEST}" &&
   [[ "$(cut -d' ' -f3 <<< "${fresh}")" == "$(cut -d' ' -f3 "${MANIFEST}")" ]]; then
  echo "bench outputs match bench/outputs.sha256 ($(wc -l < "${MANIFEST}") files)"
  exit 0
fi
echo "bench outputs differ from bench/outputs.sha256; fresh manifest:" >&2
echo "${fresh}" >&2
exit 1
