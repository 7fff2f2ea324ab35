// Rack-level engine scenarios, shared by `gen_transport_scripted
// --engine-reference` (which prints tests/golden/engine_reference.golden.txt)
// and the tests that compare with that file.
//
// RackSimulation owns a concrete sim::Simulator, so the reference oracle
// (reference_scheduler.h) cannot run a rack. Instead the golden was
// recorded while sim::Simulator could still select the reference engine,
// with every scenario below run on it; the production engine's output was
// byte-identical to it on the same tree. A match today therefore proves
// the one engine still executes every rack workload in the reference
// engine's order.
//
// Each scenario yields golden lines `<key>: <value>`:
//
//   rack <role> <off|heavy>         fingerprint, trace length, events of a
//   rack <role> <off|heavy> sim     300-ms scripted capture (4 roles), and
//                                   its Kind::kSim metrics
//   threads <off|heavy>             per-capture fingerprints of a 4-role
//   threads <off|heavy> sim         200-ms batch on a ParallelCaptureRunner,
//                                   and the merged Kind::kSim metrics
//   tcp Cache-l <off|heavy>         NewReno TCP: fingerprint, events
//   sack Hadoop <off|heavy>         SACK: fingerprint, events, SACK
//                                   retransmits
//   dctcp Hadoop <off|heavy>        DCTCP: fingerprint, events, ECN marks
//   obs <role> heavy                TCP + heavy faults with probes, flight
//                                   recorder and FlowLedger on: 64-bit
//                                   hashes of the time-series JSON,
//                                   tracepoint JSONL and flows JSONL, then
//                                   the tracepoint and flow totals
//
// The recorded values are non-degenerate (heavy SACK retransmits > 0, ECN
// marks > 0 in both DCTCP rows, tracepoint totals > 0 and flow totals past
// the 512-record ring), so a match also keeps those scenarios exercising
// what they are meant to. Metrics and observability lines need telemetry
// compiled in; engine_reference_mismatches() skips them under
// FBDCSIM_TELEMETRY=OFF.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/runtime/parallel_capture.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/telemetry/export.h"
#include "fbdcsim/telemetry/flow_ledger.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/telemetry/timeseries.h"
#include "fbdcsim/telemetry/tracepoint.h"
#include "fbdcsim/topology/standard_fleet.h"
#include "fbdcsim/transport/mux.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"
#include "rack_fingerprint.h"
#include "telemetry_on.h"

namespace fbdcsim::tests {

struct GoldenLine {
  std::string key;
  std::string value;
  bool needs_telemetry{false};  // metrics/observability: compiled out when OFF
};

/// The lines as the golden file holds them, one `<key>: <value>` each.
inline std::string golden_text(const std::vector<GoldenLine>& lines) {
  std::string text;
  for (const GoldenLine& l : lines) text += l.key + ": " + l.value + "\n";
  return text;
}

inline std::string golden_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// FNV-1a, 64-bit: observability JSONL is too long to commit verbatim.
inline std::uint64_t golden_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The Kind::kSim metrics object (sim_metrics_json() without its `"sim":`
/// prefix), minus the entries that read zero. Names stay registered across
/// MetricsRegistry::reset(), so which zero entries appear depends on what
/// ran earlier in the process; the values that count do not.
inline std::string nonzero_sim_metrics_json() {
  telemetry::Snapshot snap = telemetry::MetricsRegistry::global().snapshot();
  std::erase_if(snap.counters, [](const auto& c) { return c.value == 0; });
  std::erase_if(snap.gauges, [](const auto& g) { return g.value == 0; });
  std::erase_if(snap.histograms, [](const auto& h) { return h.count == 0; });
  const std::string json = telemetry::to_json(snap);
  const std::size_t sim = json.find("\"sim\":");
  const std::size_t wall = json.find(",\"wall\":");
  if (sim == std::string::npos || wall == std::string::npos) return json;
  return json.substr(sim + 6, wall - sim - 6);
}

inline std::string role_name(core::HostRole role) { return core::to_string(role); }

inline const char* faults_name(bool heavy) { return heavy ? "heavy" : "off"; }

/// EngineDifferentialRack: one scripted 300-ms capture of `role`.
inline std::vector<GoldenLine> rack_preset_lines(const topology::Fleet& fleet,
                                                 core::HostRole role, bool heavy) {
  const TelemetryOn on;
  const faults::FaultPlan plan{faults::heavy_profile()};
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, role, core::Duration::millis(300));
  cfg.warmup = core::Duration::millis(100);
  cfg.sample_buffer = true;
  if (heavy) cfg.faults = &plan;
  telemetry::MetricsRegistry::global().reset();
  workload::RackSimulation rack{fleet, cfg};
  const workload::RackSimResult result = rack.run();
  const std::string key = "rack " + role_name(role) + " " + faults_name(heavy);
  return {{key,
           golden_hex(fingerprint(result)) + " " + std::to_string(result.trace.size()) +
               " " + std::to_string(result.events)},
          {key + " sim", nonzero_sim_metrics_json(), true}};
}

/// EngineDifferentialThreads: four 200-ms role captures on a pool of
/// `workers` threads. The lines must not depend on `workers`.
inline std::vector<GoldenLine> thread_batch_lines(const topology::Fleet& fleet, bool heavy,
                                                  int workers) {
  const TelemetryOn on;
  const faults::FaultPlan plan{faults::heavy_profile()};
  std::vector<std::function<std::uint64_t()>> tasks;
  for (const core::HostRole role : {core::HostRole::kWeb, core::HostRole::kCacheFollower,
                                    core::HostRole::kCacheLeader, core::HostRole::kHadoop}) {
    tasks.push_back([&fleet, &plan, heavy, role] {
      workload::RackSimConfig cfg =
          workload::default_rack_config(fleet, role, core::Duration::millis(200));
      cfg.warmup = core::Duration::millis(100);
      if (heavy) cfg.faults = &plan;
      workload::RackSimulation rack{fleet, cfg};
      return fingerprint(rack.run());
    });
  }
  telemetry::MetricsRegistry::global().reset();
  std::vector<std::uint64_t> fps;
  {
    // Scope the pool so workers are joined before the snapshot: a worker
    // bumps runtime.pool.tasks_completed after delivering its result, so
    // snapshotting while the pool lives would race that last increment.
    runtime::ThreadPool pool{workers};
    runtime::ParallelCaptureRunner runner{pool};
    fps = runner.run(tasks);
  }
  std::string value;
  for (const std::uint64_t fp : fps) value += (value.empty() ? "" : " ") + golden_hex(fp);
  const std::string key = std::string{"threads "} + faults_name(heavy);
  return {{key, value}, {key + " sim", nonzero_sim_metrics_json(), true}};
}

/// The flow-level TCP capture the transport engine scenarios share.
inline workload::RackSimConfig engine_tcp_config(const topology::Fleet& fleet,
                                                 core::HostRole role) {
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, role, core::Duration::millis(200));
  cfg.warmup = core::Duration::millis(100);
  cfg.transport = workload::Transport::kTcp;
  cfg.sample_buffer = true;
  return cfg;
}

enum class TcpVariant : std::uint8_t { kNewReno, kSack, kDctcp };

/// TransportRack/SackDifferential/DctcpDifferential: one TCP variant,
/// fault-free and under heavy faults.
inline std::vector<GoldenLine> tcp_variant_lines(const topology::Fleet& fleet,
                                                 TcpVariant variant) {
  const faults::FaultPlan plan{faults::heavy_profile()};
  std::vector<GoldenLine> lines;
  for (const bool heavy : {false, true}) {
    const core::HostRole role =
        variant == TcpVariant::kNewReno ? core::HostRole::kCacheLeader : core::HostRole::kHadoop;
    workload::RackSimConfig cfg = engine_tcp_config(fleet, role);
    if (variant == TcpVariant::kSack) cfg.tcp.recovery = transport::LossRecovery::kSack;
    if (variant == TcpVariant::kDctcp) {
      cfg.tcp.cc = transport::CongestionControl::kDctcp;
      cfg.tcp.rtt_mode = transport::RttMode::kTopology;
    }
    if (heavy) cfg.faults = &plan;
    workload::RackSimulation rack{fleet, cfg};
    const workload::RackSimResult result = rack.run();
    std::string value =
        golden_hex(fingerprint(result)) + " " + std::to_string(result.events);
    const char* section = "tcp";
    if (variant == TcpVariant::kSack) {
      section = "sack";
      value += " " + std::to_string(rack.transport_mux()->stats().sack_retransmits);
    } else if (variant == TcpVariant::kDctcp) {
      section = "dctcp";
      value += " " + std::to_string(result.uplink.ecn_marked_packets +
                                    result.downlinks.ecn_marked_packets);
    }
    lines.push_back({std::string{section} + " " + role_name(role) + " " + faults_name(heavy),
                     value});
  }
  return lines;
}

/// ObsDifferential: TCP under heavy faults with every observability output
/// on, small enough rings that eviction happens too.
inline workload::RackSimConfig engine_obs_config(const topology::Fleet& fleet,
                                                 core::HostRole role,
                                                 const faults::FaultPlan* plan) {
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, role, core::Duration::millis(200));
  cfg.warmup = core::Duration::millis(100);
  cfg.transport = workload::Transport::kTcp;
  cfg.faults = plan;
  cfg.obs.mode = telemetry::ObsConfig::Mode::kOn;
  cfg.obs.probe_period = core::Duration::micros(20);
  cfg.obs.series_capacity = 32;
  cfg.obs.flight_recorder = 128;
  cfg.obs.flows = true;
  cfg.obs.flow_capacity = 512;
  return cfg;
}

/// Canonical serialized observability output of one capture.
struct ObsOutput {
  std::string timeseries_json;
  std::string tracepoints_jsonl;
  std::string flows_jsonl;
  std::int64_t tracepoint_total{0};
  std::int64_t flows_total{0};
};

inline ObsOutput run_obs_capture(const topology::Fleet& fleet, core::HostRole role,
                                 const faults::FaultPlan* plan) {
  workload::RackSimulation rack{fleet, engine_obs_config(fleet, role, plan)};
  const workload::RackSimResult result = rack.run();
  ObsOutput out;
  out.timeseries_json = telemetry::timeseries_to_json(result.timeseries);
  out.tracepoints_jsonl = telemetry::tracepoints_to_jsonl({result.tracepoints});
  out.tracepoint_total = result.tracepoints.total;
  out.flows_jsonl = telemetry::flows_to_jsonl({result.flows});
  out.flows_total = result.flows.total;
  return out;
}

inline std::vector<GoldenLine> obs_lines(const topology::Fleet& fleet) {
  const TelemetryOn on;
  const faults::FaultPlan plan{faults::heavy_profile()};
  std::vector<GoldenLine> lines;
  for (const core::HostRole role : {core::HostRole::kWeb, core::HostRole::kHadoop}) {
    const ObsOutput o = run_obs_capture(fleet, role, &plan);
    lines.push_back({"obs " + role_name(role) + " heavy",
                     golden_hex(golden_hash(o.timeseries_json)) + " " +
                         golden_hex(golden_hash(o.tracepoints_jsonl)) + " " +
                         golden_hex(golden_hash(o.flows_jsonl)) + " " +
                         std::to_string(o.tracepoint_total) + " " +
                         std::to_string(o.flows_total),
                     true});
  }
  return lines;
}

/// Every scenario, in golden-file order.
inline std::vector<GoldenLine> engine_reference_lines() {
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  std::vector<GoldenLine> lines;
  const auto append = [&lines](std::vector<GoldenLine> more) {
    for (GoldenLine& l : more) lines.push_back(std::move(l));
  };
  for (const core::HostRole role : {core::HostRole::kWeb, core::HostRole::kCacheFollower,
                                    core::HostRole::kCacheLeader, core::HostRole::kHadoop}) {
    for (const bool heavy : {false, true}) append(rack_preset_lines(fleet, role, heavy));
  }
  for (const bool heavy : {false, true}) append(thread_batch_lines(fleet, heavy, 1));
  for (const TcpVariant v : {TcpVariant::kNewReno, TcpVariant::kSack, TcpVariant::kDctcp}) {
    append(tcp_variant_lines(fleet, v));
  }
  append(obs_lines(fleet));
  return lines;
}

#ifdef FBDCSIM_GOLDEN_DIR
/// The committed golden's lines, in file order.
inline std::vector<std::string> engine_reference_golden() {
  std::ifstream file(std::string{FBDCSIM_GOLDEN_DIR} + "/engine_reference.golden.txt");
  std::vector<std::string> lines;
  for (std::string line; std::getline(file, line);) lines.push_back(line);
  return lines;
}

/// One message per line of `lines` whose value differs from (or is missing
/// in) the committed golden; empty when all match. Lines that need
/// telemetry are skipped when it is compiled out.
inline std::vector<std::string> engine_reference_mismatches(
    const std::vector<GoldenLine>& lines) {
  std::map<std::string, std::string> golden;
  for (const std::string& line : engine_reference_golden()) {
    const std::size_t colon = line.find(": ");
    if (colon != std::string::npos) golden[line.substr(0, colon)] = line.substr(colon + 2);
  }
  std::vector<std::string> out;
  if (golden.empty()) out.push_back("missing or empty tests/golden/engine_reference.golden.txt");
  for (const GoldenLine& l : lines) {
    if (l.needs_telemetry && !FBDCSIM_TELEMETRY_ENABLED) continue;
    const auto it = golden.find(l.key);
    if (it == golden.end()) {
      out.push_back("no golden line for '" + l.key + "'");
    } else if (it->second != l.value) {
      out.push_back(l.key + "\n  got:  " + l.value + "\n  want: " + it->second);
    }
  }
  return out;
}
#endif

}  // namespace fbdcsim::tests
