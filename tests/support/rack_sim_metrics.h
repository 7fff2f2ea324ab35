// Registry-counter scenarios, shared by `gen_transport_scripted
// --sim-metrics` (which prints the golden) and the RackSimMetricsGolden
// test (which re-runs them and compares byte for byte).
//
// Each scenario is one rack capture run on a freshly zeroed global
// registry; its line carries sim_metrics_json() afterwards, so the golden
// pins every Kind::kSim counter value the run produces AND which names are
// registered. Registered names persist across reset(), so a line can only
// show the presence rule for names no earlier line registered; the runs
// therefore go from sparse to rich, in one fixed order:
//
//   1. one scripted Web capture under heavy faults with a small capture
//      buffer (switch, capture, arena and scheduler names only; both
//      capture-loss paths, overflow and injected, count);
//   2. the six transport_probes.h scenarios with observability off;
//   3. the same six with the FlowLedger on (FBDCSIM_OBS=flows), so the
//      ledger and flight-recorder arenas count too;
//   4. a stress capture that moves the counters the scenarios above leave
//      at zero (switch drops and their transport notifications, ECN marks,
//      handshake failures) — first with telemetry disabled at runtime,
//      where the names it adds must still register, at zero; then enabled,
//      pinning their values.
#pragma once

#include <string>
#include <vector>

#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/telemetry/telemetry.h"
#include "fbdcsim/workload/presets.h"
#include "fbdcsim/workload/rack_sim.h"
#include "rack_fingerprint.h"
#include "transport_probes.h"

namespace fbdcsim::tests {

/// One golden line per scenario: `<role> <variant> <obs> <sim json>`.
/// The caller must have telemetry runtime-enabled (see telemetry_on.h);
/// the disabled stress run switches it off for its own run and back on.
inline std::vector<std::string> rack_sim_metrics_lines() {
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  std::vector<std::string> lines;
  const auto run = [&](const std::string& label, const workload::RackSimConfig& cfg) {
    telemetry::MetricsRegistry::global().reset();
    workload::RackSimulation rack{fleet, cfg};
    (void)rack.run();
    lines.push_back(label + " " + sim_metrics_json());
  };

  workload::RackSimConfig scripted = workload::default_rack_config(
      fleet, core::HostRole::kWeb, core::Duration::millis(200));
  scripted.warmup = core::Duration::millis(100);
  scripted.faults = &heavy;
  scripted.capture_memory_bytes = 256 * 1024;
  run("Web scripted-heavy obs-off", scripted);

  for (const bool flows : {false, true}) {
    for (const core::HostRole role : {core::HostRole::kWeb, core::HostRole::kHadoop}) {
      for (const ProbeVariant v : {ProbeVariant::kNewRenoOff, ProbeVariant::kSackHeavy,
                                   ProbeVariant::kDctcpMarked}) {
        workload::RackSimConfig cfg = probe_scenario_config(fleet, role, v, heavy);
        cfg.obs.mode = flows ? telemetry::ObsConfig::Mode::kOn
                             : telemetry::ObsConfig::Mode::kOff;
        cfg.obs.flows = flows;
        run(std::string{core::to_string(role)} + " " + to_string(v) +
                (flows ? " obs-flows" : " obs-off"),
            cfg);
      }
    }
  }

  workload::RackSimConfig stress = probe_scenario_config(
      fleet, core::HostRole::kHadoop, ProbeVariant::kDctcpMarked, heavy);
  stress.obs.mode = telemetry::ObsConfig::Mode::kOff;
  stress.tcp.recovery = transport::LossRecovery::kSack;
  stress.tcp.max_handshake_tries = 1;
  stress.faults = &heavy;
  stress.rsw.buffer_total = core::DataSize::kilobytes(200);
  stress.rsw.ecn_threshold = core::DataSize::kilobytes(50);
  telemetry::Telemetry::set_enabled(false);
  run("Hadoop stress telemetry-disabled", stress);
  telemetry::Telemetry::set_enabled(true);
  run("Hadoop stress obs-off", stress);
  return lines;
}

}  // namespace fbdcsim::tests
