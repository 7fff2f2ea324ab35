// The benchmark's four workloads, each driven through fbdcsim's public API.
//
// A workload runs in passes. One pass builds everything it needs (the
// set-up phase), runs its captures or its fleet stream plus its analysis
// calls (the timed phase), and folds every deterministic output into a
// fingerprint (the check phase). Every field the workload depends on —
// RackSimConfig, TcpParams, ObsConfig, FleetGenConfig, the pool width — is
// set here explicitly; nothing is read from the environment.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// How long each workload simulates. `full` is what the benchmark measures;
/// `min` is the smallest size that still exercises every layer, for the
/// benchmark's own tests.
struct RackTiming {
  double warmup_s;   // traffic before the capture window opens
  double capture_s;  // the mirrored capture
};

struct Size {
  std::string name;
  RackTiming scripted;  // rack_scripted
  RackTiming tcp;       // rack_tcp and rack_tcp_flows
  /// Seeds each rack pass captures every role at: the run's seed first,
  /// then seeds derived from it.
  int rack_seeds;
  std::int64_t fleet_horizon_h;
};

[[nodiscard]] const Size* find_size(const std::string& name);

enum class Mode {
  kWarmup,    // an untraced pass that is checked but kept out of the medians
  kUntraced,  // the measured program, no spans
  kTraced,    // the same pass with spans and per-call offer timing
  kObsOff,    // rack_tcp_flows only: the same captures with observability off
  kGenOnly,   // fleet_fbflow only: the stream into a counting no-op sink
};

[[nodiscard]] const char* to_string(Mode mode);

struct PassResult {
  Mode mode{Mode::kUntraced};
  double setup_s{0.0};  // fleet, resolver, generator, pool and rack constructors
  double run_s{0.0};    // the batch of RackSimulation::run() calls, or stream()
  double wall_s{0.0};   // run_s plus the workload's analysis calls
  double sim_s{0.0};    // simulated seconds covered by run_s
  std::int64_t flows{0};    // flow records streamed (fleet_fbflow)
  std::uint64_t events{0};  // simulation events executed (rack workloads)
  /// Every deterministic output of the pass.
  std::uint64_t fingerprint{0};
  /// The outputs every mode of the pass shares (obs-off reruns and
  /// gen-only streams are compared on this one).
  std::uint64_t core_fingerprint{0};
  int attempted{0};
  int failed{0};
  std::vector<std::string> failures;
  std::vector<std::string> notes;  // conditions that changed which checks ran
  /// Per-layer values of a traced pass (names as in the benchmark's docs).
  std::map<std::string, double> layers;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Builds everything one pass builds, then tears it down; returns the
  /// set-up seconds.
  virtual double setup_only() = 0;
  virtual PassResult pass(Mode mode, SpanLog& log) = 0;
  /// The modes one group of a traced run cycles through.
  [[nodiscard]] virtual std::vector<Mode> trace_group() const = 0;
};

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed, const Size& size);

}  // namespace perfbench
