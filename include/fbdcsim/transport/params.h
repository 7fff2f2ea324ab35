// Tuning knobs of the flow-level TCP model (transport/mux.h). Defaults
// match a paper-era production host: Linux Reno/CUBIC-family defaults
// (IW10, 200 ms min RTO, 3-dupack fast retransmit) on a 10-Gbps NIC.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "fbdcsim/core/packet.h"
#include "fbdcsim/core/time.h"
#include "fbdcsim/core/units.h"

namespace fbdcsim::transport {

/// Congestion-control law selection. kNewReno is the default and is
/// byte-identical to every pre-DCTCP release; kDctcp adds ECN-driven
/// window scaling (RFC 8257) on top of the same loss machinery.
enum class CongestionControl : std::uint8_t {
  kNewReno = 0,
  kDctcp = 1,
};

[[nodiscard]] const char* to_string(CongestionControl cc);

/// Parses a FBDCSIM_CC-style spec ("reno" | "newreno" | "dctcp",
/// case-sensitive). Returns std::nullopt and explains it in `why` on
/// failure.
[[nodiscard]] std::optional<CongestionControl> parse_cc_spec(std::string_view spec,
                                                             std::string& why);

/// Resolves the FBDCSIM_CC environment knob: unset or malformed (diagnosed,
/// core/env.h) -> kNewReno.
[[nodiscard]] CongestionControl cc_from_env();

/// Loss-recovery law selection. kNewReno is the default and is
/// byte-identical to every pre-SACK release; kSack replaces the
/// one-hole-per-RTT partial-ACK loop with a selective-acknowledgment
/// scoreboard and RFC-6675-style pipe accounting (transport/tcp.h).
enum class LossRecovery : std::uint8_t {
  kNewReno = 0,
  kSack = 1,
};

[[nodiscard]] const char* to_string(LossRecovery recovery);

/// Parses a FBDCSIM_RECOVERY-style spec ("newreno" | "reno" | "sack",
/// case-sensitive). Returns std::nullopt and explains it in `why` on
/// failure.
[[nodiscard]] std::optional<LossRecovery> parse_recovery_spec(std::string_view spec,
                                                              std::string& why);

/// Resolves the FBDCSIM_RECOVERY environment knob: unset or malformed
/// (diagnosed, core/env.h) -> kNewReno.
[[nodiscard]] LossRecovery recovery_from_env();

/// How a connection's fixed beyond-the-RSW propagation delay is derived.
enum class RttMode : std::uint8_t {
  /// One constant per locality class (cluster_one_way etc.) — the
  /// historical behavior, byte-identical to pre-topology-RTT releases.
  kLocalityClass = 0,
  /// Hop count along the actual 4-post fabric path times per_hop_one_way,
  /// plus inter_site_one_way once when the endpoints sit in different
  /// sites (topology::hops_beyond_rsw).
  kTopology = 1,
};

struct TcpParams {
  /// Maximum segment size; 1460 B matches the fleet's 1500-B MTU.
  std::int64_t mss_bytes = core::wire::kMaxTcpPayloadBytes;
  /// Initial congestion window, in segments (IW10, RFC 6928 — deployed
  /// fleet-wide well before the paper's measurement window).
  int initial_window_segments = 10;
  /// Duplicate ACKs that trigger fast retransmit.
  int dupack_threshold = 3;
  /// Congestion-window cap (stands in for the socket send buffer).
  core::DataSize max_cwnd = core::DataSize::kilobytes(4096);
  /// Floor of the retransmission timer (Linux's 200 ms minimum RTO).
  core::Duration min_rto = core::Duration::millis(200);
  /// RTO doubling cap: backoff never exceeds min_rto << max_backoff.
  int max_backoff = 6;
  /// Host NIC line rate — bounds per-connection emission pacing.
  core::DataRate nic_rate = core::DataRate::gigabits_per_sec(10);
  /// Fixed per-endpoint stack+NIC turnaround (receive -> respond).
  core::Duration host_delay = core::Duration::micros(5);

  /// One-way propagation beyond the monitored RSW, by peer locality.
  /// Intra-rack peers are reached through the RSW itself (zero beyond-RSW
  /// delay); the others approximate cluster fabric, DC fabric, and the
  /// inter-site backbone of Section 3.1.
  core::Duration cluster_one_way = core::Duration::micros(25);
  core::Duration datacenter_one_way = core::Duration::micros(75);
  core::Duration interdc_one_way = core::Duration::micros(17'500);

  /// Handshake/FIN retransmission attempts before the connection gives up
  /// (SYN retries use the RTO machinery with exponential backoff).
  int max_handshake_tries = 5;

  /// Congestion-control law. kNewReno (default) leaves every packet
  /// non-ECT and never consults the DCTCP fields below.
  CongestionControl cc = CongestionControl::kNewReno;
  /// DCTCP alpha EWMA gain as a shift: alpha <- alpha(1 - 2^-g) + F*2^-g
  /// with g = dctcp_gain_shift (RFC 8257 recommends g = 4, i.e. 1/16).
  int dctcp_gain_shift = 4;
  /// Initial alpha in Q16 fixed point (kDctcpAlphaUnit = 1.0). Starting at
  /// 1.0 (Linux behavior) makes the first marked window halve like Reno.
  std::int64_t dctcp_initial_alpha = 1 << 16;

  /// Loss-recovery law. kNewReno (default) keeps the classic partial-ACK
  /// hole-by-hole retransmission loop; kSack activates the selective-ACK
  /// scoreboard. Composes freely with `cc` (Reno+SACK, DCTCP+SACK).
  LossRecovery recovery = LossRecovery::kNewReno;

  /// Beyond-the-RSW delay derivation (see RttMode). kLocalityClass keeps
  /// the three constants above authoritative; kTopology derives the delay
  /// from the fabric path instead.
  RttMode rtt_mode = RttMode::kLocalityClass;
  /// Per-hop one-way latency under RttMode::kTopology. 12.5 us per
  /// switch hop makes the 2-hop intra-cluster path equal the legacy
  /// 25-us cluster_one_way constant.
  core::Duration per_hop_one_way = core::Duration::nanos(12'500);
  /// Extra one-way propagation added once when the endpoints sit in
  /// different sites (the inter-site backbone's geographic distance, which
  /// no per-hop constant can represent). The default makes the 5-hop
  /// inter-site path total exactly the legacy 17.5-ms interdc_one_way:
  /// 5 * 12.5 us + 17'437.5 us = 17'500 us.
  core::Duration inter_site_one_way = core::Duration::nanos(17'437'500);
};

}  // namespace fbdcsim::transport
