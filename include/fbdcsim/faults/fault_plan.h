// Deterministic fault injection: a seeded, schedule-driven fault layer.
//
// The paper's measurement apparatus is explicitly lossy — Fbflow samples
// 1:30,000 and loses records in the agent -> Scribe -> tagger -> Scuba
// pipeline (§3.3.1), and port-mirroring capture competes with live traffic
// (§3.3.2). FaultPlan reproduces those failure modes, plus fabric faults
// (link degradation/failure, switch buffer shrinkage) and host
// crash/restart epochs, so experiments can quantify how robust each
// reproduced finding is to realistic collection and fabric failures.
//
// Determinism contract: every decision is a pure function of
// (plan seed, fault kind, entity identity, time bucket) — no mutable RNG
// state anywhere. Two consequences:
//
//   - re-running any experiment with the same seed reproduces the exact
//     fault schedule, bit for bit;
//   - a decision never depends on how work was sharded or interleaved, so
//     faulted runs stay bit-identical across FBDCSIM_THREADS=1/2/8, the
//     same contract the runtime/ subsystem guarantees for fault-free runs.
//
// A null FaultPlan pointer (or Profile::kOff) is the zero-cost opt-out:
// every consumer guards with `plan == nullptr || !plan->enabled()` and then
// executes the exact pre-fault code path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "fbdcsim/core/ids.h"
#include "fbdcsim/core/rng.h"
#include "fbdcsim/core/time.h"

namespace fbdcsim::faults {

/// Built-in fault intensity tiers. kCustom marks a config loaded from a
/// profile file (FBDCSIM_FAULTS=<path>).
enum class Profile : std::uint8_t { kOff, kLight, kHeavy, kCustom };

[[nodiscard]] const char* to_string(Profile profile);

/// Every rate is a per-decision probability; every decision's granularity
/// (per link-minute, per host-epoch, per sample-attempt, ...) is documented
/// on the corresponding FaultPlan query.
struct FaultConfig {
  Profile profile = Profile::kOff;

  /// Mixed into every decision hash. Experiments that want a different
  /// fault schedule over the same workload change only this.
  std::uint64_t seed = 0xFA017ULL;

  // ---- (a) fabric: links and switch buffers ----
  /// P(hard failure) per (link, minute): capacity 0 for that minute.
  double link_fail_prob = 0.0;
  /// P(degradation) per (link, minute): capacity multiplied by
  /// link_degrade_factor for that minute. Failure wins over degradation.
  double link_degrade_prob = 0.0;
  double link_degrade_factor = 1.0;
  /// P(a rack-sim run starts with a shrunken shared buffer) — models a chip
  /// with part of its buffer carved off for mirroring/other features.
  double buffer_shrink_prob = 0.0;
  double buffer_shrink_factor = 1.0;

  // ---- (b) hosts: crash/restart epochs ----
  /// P(a host is down) per (host, epoch); a down host emits no flows and
  /// receives none for the epoch, then restarts.
  double host_crash_prob = 0.0;
  core::Duration host_epoch = core::Duration::minutes(10);

  // ---- (c) collection pipeline: Scribe, taggers, capture ----
  /// P(one Scribe publish attempt fails) per (sample, attempt). Failed
  /// attempts retry with exponential backoff up to scribe_max_retries; a
  /// sample whose every attempt fails is lost (scribe_dropped).
  double scribe_drop_prob = 0.0;
  int scribe_max_retries = 3;
  core::Duration scribe_backoff_base = core::Duration::millis(50);
  /// P(a delivered sample is delayed in Scribe) per sample; the delay is a
  /// deterministic fraction of scribe_max_delay and shifts which minute the
  /// record lands in (the paper's mis-tagged-minute effect).
  double scribe_delay_prob = 0.0;
  core::Duration scribe_max_delay = core::Duration::seconds(30);
  /// P(the tagger's topology lookup fails) per sample. The pipeline
  /// degrades gracefully: the row lands partial (untagged) and is excluded
  /// from topology-keyed aggregates but still counted.
  double tag_failure_prob = 0.0;
  /// Base P(the mirror drops a frame) per mirrored packet, scaled up by
  /// switch-buffer occupancy (capture competes with live traffic under
  /// load): p = capture_drop_prob * (0.1 + 0.9 * occupancy_fraction).
  double capture_drop_prob = 0.0;

  // ---- (d) fabric beyond the RSW: transport-visible path loss ----
  /// P(the network beyond the monitored RSW loses one transport
  /// transmission) per attempt — congestion or corruption somewhere on the
  /// CSW/FC path that the rack simulation does not model hop-by-hop. Only
  /// the flow-level TCP model (transport/) consults this; scripted traffic
  /// and every pre-transport decision are unaffected by the field.
  double path_loss_prob = 0.0;
};

/// The built-in tiers. Light approximates a healthy production fleet's
/// background failure rates; heavy is a stress tier for robustness studies.
[[nodiscard]] FaultConfig light_profile();
[[nodiscard]] FaultConfig heavy_profile();

/// Parses a FBDCSIM_FAULTS spec: "off" | "light" | "heavy" | <profile
/// file>. A profile file holds `key = value` lines ('#' comments; keys are
/// the FaultConfig field names). Returns std::nullopt and explains it in
/// `why` on malformed specs — callers treat that as "off".
[[nodiscard]] std::optional<FaultConfig> parse_fault_spec(std::string_view spec,
                                                          std::string& why);

/// FBDCSIM_FAULTS from the environment. Unset, "off", and malformed values
/// (diagnosed, core/env.h) all yield a disabled config — never a crash.
[[nodiscard]] FaultConfig fault_config_from_env();

/// The schedule. Queries are const, thread-safe, and allocation-free.
class FaultPlan {
 public:
  explicit FaultPlan(FaultConfig config) : config_{config} {}

  [[nodiscard]] const FaultConfig& config() const { return config_; }
  [[nodiscard]] bool enabled() const { return config_.profile != Profile::kOff; }

  // ---- (a) fabric ----
  /// Hard failure of `link` during the minute containing `at`.
  [[nodiscard]] bool link_failed(core::LinkId link, core::TimePoint at) const;
  /// Capacity multiplier for `link` in the minute containing `at`:
  /// 0 when failed, link_degrade_factor when degraded, otherwise 1.
  [[nodiscard]] double link_capacity_factor(core::LinkId link, core::TimePoint at) const;
  /// Shared-buffer multiplier for a run identified by `run_salt` (the rack
  /// sim's seed): buffer_shrink_factor or 1.
  [[nodiscard]] double buffer_shrink_factor(std::uint64_t run_salt) const;

  // ---- (b) hosts ----
  /// True when `host` is crashed for the host_epoch containing `at`.
  [[nodiscard]] bool host_down(core::HostId host, core::TimePoint at) const;

  // ---- (c) collection pipeline ----
  /// Stable identity of one sampled header, for per-sample decisions. Any
  /// consumer observing the same sample computes the same key regardless of
  /// sharding, so pipeline faults are merge-order independent.
  [[nodiscard]] static std::uint64_t sample_key(std::uint64_t reporter,
                                               std::int64_t captured_at_nanos,
                                               std::uint64_t tuple_hash) {
    return core::splitmix64(core::splitmix64(reporter) ^
                            core::splitmix64(static_cast<std::uint64_t>(captured_at_nanos)) ^
                            tuple_hash);
  }

  /// One Scribe publish attempt (0 = first try) for the sample fails.
  [[nodiscard]] bool scribe_attempt_fails(std::uint64_t sample_key, int attempt) const;
  /// Total backoff accumulated after `attempts_failed` failed attempts:
  /// base * (2^attempts_failed - 1) — the standard exponential schedule.
  [[nodiscard]] core::Duration scribe_backoff(int attempts_failed) const;
  /// The sample is delayed in Scribe (independent of drop/retry).
  [[nodiscard]] bool scribe_delayed(std::uint64_t sample_key) const;
  /// Delay length for a delayed sample: a deterministic per-sample fraction
  /// of scribe_max_delay, never zero.
  [[nodiscard]] core::Duration scribe_delay(std::uint64_t sample_key) const;
  /// The tagger's topology lookup fails for this sample.
  [[nodiscard]] bool tagger_lookup_fails(std::uint64_t sample_key) const;
  /// The mirror drops this frame given current buffer occupancy in [0, 1].
  [[nodiscard]] bool capture_drop(std::uint64_t sample_key, double occupancy_fraction) const;

  // ---- (d) transport path loss ----
  /// The fabric beyond the RSW loses the transport transmission identified
  /// by `transmission_key` (a per-attempt key: connection tuple hash mixed
  /// with a per-connection attempt serial, so retransmissions of the same
  /// bytes draw independently).
  [[nodiscard]] bool path_loss(std::uint64_t transmission_key) const;

 private:
  /// Fault kinds, hashed into decisions so distinct kinds never correlate.
  enum class Decision : std::uint64_t {
    kLinkFail = 1,
    kLinkDegrade,
    kBufferShrink,
    kHostCrash,
    kScribeDrop,
    kScribeDelayFlag,
    kScribeDelayLen,
    kTagFailure,
    kCaptureDrop,
    kPathLoss,  // appended: earlier kinds keep their hash inputs
  };

  /// Uniform value in [0, 1) from (seed, decision, entity, bucket).
  [[nodiscard]] double unit(Decision d, std::uint64_t entity, std::uint64_t bucket) const;

  FaultConfig config_;
};

}  // namespace fbdcsim::faults
