#include "sim/world_spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/bytes.hpp"

namespace cn::sim {

namespace {

/// A u32 length, then the bytes (ByteWriter::str's prefix is a u64).
void put_string(util::ByteWriter& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.bytes(s);
}

bool knob_is(const std::pair<std::string, double>& knob, std::string_view name,
             bool& matched) {
  if (knob.first != name) return false;
  matched = true;
  return true;
}

}  // namespace

const char* dataset_kind_name(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kA: return "A";
    case DatasetKind::kB: return "B";
    case DatasetKind::kC: return "C";
  }
  return "?";
}

WorldSpec& WorldSpec::set(std::string_view name, double value) {
  const auto it = std::lower_bound(
      knobs.begin(), knobs.end(), name,
      [](const auto& knob, std::string_view n) { return knob.first < n; });
  if (it != knobs.end() && it->first == name) {
    it->second = value;
  } else {
    knobs.emplace(it, std::string(name), value);
  }
  return *this;
}

std::optional<double> WorldSpec::knob(std::string_view name) const {
  for (const auto& [k, v] : knobs) {
    if (k == name) return v;
  }
  return std::nullopt;
}

std::vector<std::uint8_t> WorldSpec::canonical_bytes() const {
  std::vector<std::uint8_t> out;
  util::ByteWriter w(out);
  w.u32(kWorldSpecVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(seed);
  w.f64(scale);
  put_string(w, scenario);
  // set() keeps the list sorted, but serialize a sorted copy anyway so a
  // hand-built knob vector still canonicalizes.
  std::vector<std::pair<std::string, double>> sorted = knobs;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u32(static_cast<std::uint32_t>(sorted.size()));
  for (const auto& [name, value] : sorted) {
    put_string(w, name);
    w.f64(value);
  }
  return out;
}

std::uint64_t WorldSpec::fingerprint() const {
  const std::vector<std::uint8_t> bytes = canonical_bytes();
  return util::fnv1a(bytes.data(), bytes.size());
}

std::string WorldSpec::label() const {
  char head[64];
  std::snprintf(head, sizeof head, "%s s%llu x%.3g", dataset_kind_name(kind),
                static_cast<unsigned long long>(seed), scale);
  std::string out = head;
  out += ' ';
  out += scenario;
  if (!knobs.empty()) {
    out += '[';
    for (std::size_t i = 0; i < knobs.size(); ++i) {
      char val[40];
      std::snprintf(val, sizeof val, "%s=%.4g", knobs[i].first.c_str(),
                    knobs[i].second);
      if (i != 0) out += ' ';
      out += val;
    }
    out += ']';
  }
  return out;
}

EngineConfig WorldSpec::config() const {
  EngineConfig config = dataset_config(kind, seed, scale);
  // Fixed application order, independent of the knob list's order, so
  // dependent knobs compose deterministically (utilization reads the
  // block budget, which genesis_height/builder never change, but the
  // frozen order removes any doubt).
  bool matched = false;
  for (const auto& knob : knobs) {
    matched = false;
    if (knob_is(knob, "builder", matched)) {
      set_all_builders(config, knob.second == 0.0 ? BuilderKind::kGbt
                                                  : BuilderKind::kLegacyPriority);
    } else if (knob_is(knob, "genesis_height", matched)) {
      config.genesis_height = static_cast<std::uint64_t>(knob.second);
    } else if (knob_is(knob, "scam", matched)) {
      if (knob.second == 0.0) config.workload.scam.reset();
    } else if (knob_is(knob, "self_interest_per_block", matched)) {
      config.workload.self_interest_per_block = knob.second;
    } else if (knob_is(knob, "selfish", matched)) {
      if (knob.second == 0.0) {
        for (auto& pool : config.pools) {
          pool.selfish = false;
          pool.accelerates_for.clear();
        }
      }
    } else if (knob_is(knob, "propagation_exclusion", matched)) {
      config.propagation_exclusion = knob.second != 0.0;
    } else if (knob_is(knob, "age_weight_per_hour", matched)) {
      for (auto& pool : config.pools) pool.age_weight_per_hour = knob.second;
    } else if (knob_is(knob, "clear_bursts", matched)) {
      if (knob.second != 0.0) config.workload.bursts.clear();
    } else if (knob_is(knob, "anchor_multiplier", matched)) {
      config.workload.urgent_anchor_sat_vb *= knob.second;
      config.workload.normal_anchor_sat_vb *= knob.second;
      config.workload.patient_anchor_sat_vb *= knob.second;
    } else if (knob_is(knob, "evasion_theta", matched)) {
      // The adversary-zoo evasion sweep: every selfish pool throttles its
      // own-wallet boosts to intensity theta instead. Collusion is
      // cleared like selfish=0, so theta=0 is byte-identical to the
      // honest control and shares its materialized world bytes.
      for (auto& pool : config.pools) {
        if (!pool.selfish) continue;
        pool.selfish = false;
        pool.accelerates_for.clear();
        pool.evasion_theta = knob.second;
      }
    } else if (knob_is(knob, "withhold_delay_s", matched)) {
      // Applies to the misbehaving pools (selfish or evasive). Knobs are
      // applied in sorted-name order, so "evasion_theta" has already
      // converted selfish pools when both are set — the composition is
      // insertion-order independent.
      for (auto& pool : config.pools) {
        if (pool.selfish || pool.evasion_theta >= 0.0) {
          pool.withhold_delay_s = knob.second;
        }
      }
    } else if (knob_is(knob, "fair_queue", matched)) {
      if (knob.second != 0.0) {
        for (auto& pool : config.pools) pool.fair_queue = true;
      }
    } else if (knob_is(knob, "fee_only", matched)) {
      config.fee_only = knob.second != 0.0;
    }
    if (!matched && knob.first != "utilization") {
      throw std::invalid_argument("WorldSpec: unknown knob '" + knob.first +
                                  "' (cache would silently serve the wrong world)");
    }
  }
  // Last: the arrival rate reads the (possibly overridden) block budget
  // and anchors only through rate_for_utilization's capacity math.
  if (const auto u = knob("utilization")) {
    config.workload.base_tx_per_second = rate_for_utilization(config, *u);
  }
  return config;
}

WorldSpec baseline_spec(DatasetKind kind, std::uint64_t seed, double scale) {
  WorldSpec spec;
  spec.kind = kind;
  spec.seed = seed;
  spec.scale = scale;
  spec.scenario = "baseline";
  return spec;
}

}  // namespace cn::sim
