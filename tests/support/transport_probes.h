// Transport probe-series scenarios, shared by `gen_transport_scripted
// --probes` (which prints the golden) and the TransportProbesGolden test
// (which re-runs them and compares byte for byte).
//
// Each scenario is one TCP rack capture with observability on at the
// default probe period and transport stride; its line carries the
// timeseries_to_json rendering of the `transport.*` series only, so the
// golden pins exactly what TransportMux::register_probes samples.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fbdcsim/core/flow.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/telemetry/timeseries.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"

namespace fbdcsim::tests {

/// The transport variants the probe golden covers.
enum class ProbeVariant : std::uint8_t {
  kNewRenoOff,   // default NewReno, fault-free
  kSackHeavy,    // SACK recovery under the heavy fault profile
  kDctcpMarked,  // DCTCP with an explicit shared-buffer ECN threshold
};

inline const char* to_string(ProbeVariant v) {
  switch (v) {
    case ProbeVariant::kNewRenoOff:
      return "newreno-off";
    case ProbeVariant::kSackHeavy:
      return "sack-heavy";
    case ProbeVariant::kDctcpMarked:
      return "dctcp-ecn";
  }
  return "?";
}

/// The capture a probe scenario runs. `heavy` must outlive the simulation.
inline workload::RackSimConfig probe_scenario_config(const topology::Fleet& fleet,
                                                     core::HostRole role, ProbeVariant v,
                                                     const faults::FaultPlan& heavy) {
  workload::RackSimConfig cfg =
      workload::default_rack_config(fleet, role, core::Duration::millis(200));
  cfg.warmup = core::Duration::millis(100);
  cfg.transport = workload::Transport::kTcp;
  cfg.obs.mode = telemetry::ObsConfig::Mode::kOn;
  // Default probe_period and transport_stride; a small ring keeps the
  // golden readable (bins downsample, exact in min/max/last/sum).
  cfg.obs.series_capacity = 32;
  switch (v) {
    case ProbeVariant::kNewRenoOff:
      break;
    case ProbeVariant::kSackHeavy:
      cfg.tcp.recovery = transport::LossRecovery::kSack;
      cfg.faults = &heavy;
      break;
    case ProbeVariant::kDctcpMarked:
      cfg.tcp.cc = transport::CongestionControl::kDctcp;
      cfg.rsw.ecn_threshold = core::DataSize::bytes(64 * 1024);
      break;
  }
  return cfg;
}

/// timeseries_to_json of the run's `transport.*` series.
inline std::string transport_series_json(const workload::RackSimResult& result) {
  std::vector<telemetry::SeriesSnapshot> transport;
  for (const telemetry::SeriesSnapshot& s : result.timeseries) {
    if (std::string_view{s.name}.substr(0, 10) == "transport.") transport.push_back(s);
  }
  return telemetry::timeseries_to_json(transport);
}

/// One golden line per (role, variant): `<role> <variant> <json>`.
/// The caller must have telemetry runtime-enabled (see telemetry_on.h), or
/// every line carries an empty series object.
inline std::vector<std::string> transport_probe_lines() {
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  std::vector<std::string> lines;
  for (const core::HostRole role : {core::HostRole::kWeb, core::HostRole::kHadoop}) {
    for (const ProbeVariant v : {ProbeVariant::kNewRenoOff, ProbeVariant::kSackHeavy,
                                 ProbeVariant::kDctcpMarked}) {
      workload::RackSimulation rack{fleet, probe_scenario_config(fleet, role, v, heavy)};
      const workload::RackSimResult result = rack.run();
      lines.push_back(std::string{core::to_string(role)} + " " + to_string(v) + " " +
                      transport_series_json(result));
    }
  }
  return lines;
}

}  // namespace fbdcsim::tests
