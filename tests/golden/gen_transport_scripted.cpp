// Golden generator for the scripted-transport differential gate.
//
// Prints one line per (role, faults) preset: the order-sensitive
// fingerprint of a default-config rack capture (the same presets the
// engine-differential harness runs). The committed golden
// (tests/golden/transport_scripted.golden.txt) was produced by this tool
// on the tree BEFORE the transport/ subsystem landed; the
// TransportScriptedGolden test re-runs the presets with
// RackSimConfig::transport = kScripted and compares, proving the opt-in
// TCP path leaves the scripted path byte-identical to pre-transport
// output. Regenerate (only when a PR deliberately changes scripted
// output) with:
//
//   cmake --build build --target gen_transport_scripted
//   ./build/tests/gen_transport_scripted > tests/golden/transport_scripted.golden.txt
//
// With `--tcp` the same presets run with RackSimConfig::transport = kTcp
// (default TcpParams, i.e. cc = kNewReno), producing the golden for the
// flow-level default path:
//
//   ./build/tests/gen_transport_scripted --tcp > tests/golden/transport_newreno.golden.txt
//
// That file was generated on the tree BEFORE the DCTCP/ECN + topology-RTT
// variant landed; DctcpGolden.NewRenoDefaultMatchesPrePrOutput re-runs the
// presets and compares, proving the kNewReno default stayed byte-identical.
// tests/golden/transport_recovery_newreno.golden.txt is the same presets
// generated on the tree BEFORE the SACK recovery variant landed (it equals
// transport_newreno.golden.txt by construction); SackGolden re-runs them
// with TcpParams::recovery = kNewReno explicit and compares.
//
// With `--sack` the kTcp presets run with TcpParams::recovery = kSack —
// handy for eyeballing the variant's fingerprints; no golden commits this
// output (the SACK differential pins bit-identity across engines and
// thread counts instead).
//
// With `--probes` it prints the transport probe series instead: one line
// per {Web, Hadoop} x {NewReno fault-free, SACK + heavy faults, DCTCP with
// an ECN threshold} capture, each carrying timeseries_to_json of the
// `transport.*` gauges at the default stride (scenarios in
// tests/support/transport_probes.h). The committed
// tests/golden/transport_probes.golden.txt was captured on the tree BEFORE
// the gauges became running totals; the TransportProbesGolden test re-runs
// the scenarios and compares:
//
//   ./build/tests/gen_transport_scripted --probes > tests/golden/transport_probes.golden.txt
//
// With `--sim-metrics` it prints the Kind::kSim registry section after each
// scenario of tests/support/rack_sim_metrics.h (one line per rack capture,
// registry zeroed before each). The committed
// tests/golden/rack_sim_metrics.golden.txt was captured on the tree BEFORE
// the per-event registry writes were replaced by counts the components keep
// and publish once per run; the RackSimMetricsGolden test re-runs the
// scenarios and compares:
//
//   ./build/tests/gen_transport_scripted --sim-metrics > tests/golden/rack_sim_metrics.golden.txt
//
// With `--engine-reference` it prints the rack-level engine scenarios of
// tests/support/engine_reference.h, one `<key>: <value>` line each. The
// committed tests/golden/engine_reference.golden.txt was captured while
// sim::Simulator could still run the pre-rewrite reference engine, with
// every scenario on it (the calendar engine's output was byte-identical);
// EngineReferenceGolden and the engine differential tests re-run the
// scenarios and compare:
//
//   ./build/tests/gen_transport_scripted --engine-reference > tests/golden/engine_reference.golden.txt
#include <cstdio>
#include <cstring>
#include <string>

#include "../support/engine_reference.h"
#include "../support/rack_fingerprint.h"
#include "../support/rack_sim_metrics.h"
#include "../support/telemetry_on.h"
#include "../support/transport_probes.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/workload/presets.h"

using namespace fbdcsim;

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--probes") == 0) {
    const tests::TelemetryOn on;
    for (const std::string& line : tests::transport_probe_lines()) {
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "--sim-metrics") == 0) {
    const tests::TelemetryOn on;
    for (const std::string& line : tests::rack_sim_metrics_lines()) {
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "--engine-reference") == 0) {
    std::fputs(tests::golden_text(tests::engine_reference_lines()).c_str(), stdout);
    return 0;
  }
  const bool sack = argc > 1 && std::strcmp(argv[1], "--sack") == 0;
  const bool tcp = sack || (argc > 1 && std::strcmp(argv[1], "--tcp") == 0);
  const core::HostRole kRoles[] = {core::HostRole::kWeb, core::HostRole::kCacheFollower,
                                   core::HostRole::kCacheLeader, core::HostRole::kHadoop};
  const topology::Fleet fleet = workload::build_rack_experiment_fleet();
  const faults::FaultPlan heavy{faults::heavy_profile()};
  for (const core::HostRole role : kRoles) {
    for (const bool faulted : {false, true}) {
      workload::RackSimConfig cfg =
          workload::default_rack_config(fleet, role, core::Duration::millis(300));
      cfg.warmup = core::Duration::millis(100);
      cfg.sample_buffer = true;
      if (tcp) cfg.transport = workload::Transport::kTcp;
      if (sack) cfg.tcp.recovery = transport::LossRecovery::kSack;
      if (faulted) cfg.faults = &heavy;
      workload::RackSimulation rack{fleet, cfg};
      const workload::RackSimResult result = rack.run();
      std::printf("%s %s %016llx %zu %llu\n", core::to_string(role),
                  faulted ? "heavy" : "off",
                  static_cast<unsigned long long>(tests::fingerprint(result)),
                  result.trace.size(), static_cast<unsigned long long>(result.events));
    }
  }
  return 0;
}
