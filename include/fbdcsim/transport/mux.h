// TransportMux: the flow-level TCP engine of one simulated rack.
//
// Owns the per-host connection tables (keyed by 5-tuple, one TcpConnection
// per application connection, allocated from a core::Pool) and converts
// the byte demands services queue through the DemandSink interface into
// real packet streams: SYN/SYN-ACK/ACK handshakes, MSS-segmented data
// ACK-clocked by a Reno/NewReno congestion window, fast retransmit on
// duplicate ACKs, and RTO recovery — all driven by actual
// SharedBufferSwitch deliveries and drops plus the fault plan's
// beyond-the-RSW path-loss decisions. Packet sizes, SYN interarrivals and
// burst structure are therefore emergent, not scripted.
//
// Substitution model (one rack simulated, the rest of the fleet
// synthetic): each connection has two directed half-streams. The `out`
// half's sender runs on the modelled host — its segments really traverse
// the RSW (host_send), and the far receiver is synthesized at RSW egress,
// its ACKs re-entering after the connection's beyond-RSW round trip. The
// `in` half mirrors this: the remote sender runs inside the mux and its
// segments enter through host_receive at the monitored host's downlink —
// the exact fan-in point where shared-buffer congestion forms — while the
// modelled host acks them with real packets. Forward propagation beyond
// the RSW is folded into each half's feedback path, so first-byte timing
// matches the scripted path and the feedback-loop length equals the full
// path RTT.
//
// Engine contract (PR-4): every scheduled lambda fits sim::InlineAction's
// inline storage (events stay heap-free), connections recycle through a
// pool, and every telemetry metric is Kind::kSim — deterministic across
// engines and FBDCSIM_THREADS settings; counts live in Stats and reach the
// registry once per run (publish_counters). In-flight packets carry
// `flow_tag` = (slot << 8) | generation; events resolving a stale tag
// (connection since recycled) are ignored.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fbdcsim/core/arena.h"
#include "fbdcsim/core/packet.h"
#include "fbdcsim/services/traffic_model.h"
#include "fbdcsim/sim/simulator.h"
#include "fbdcsim/topology/entities.h"
#include "fbdcsim/transport/demand.h"
#include "fbdcsim/transport/params.h"
#include "fbdcsim/transport/tcp.h"

namespace fbdcsim::faults {
class FaultPlan;
}  // namespace fbdcsim::faults

namespace fbdcsim::telemetry {
class FlowLedger;
class TimeSeriesProbe;
class TracePointLog;
}  // namespace fbdcsim::telemetry

namespace fbdcsim::transport {

class TransportMux final : public DemandSink {
 public:
  /// Aggregate counters, maintained across connection recycling (live
  /// connections' in-progress byte counts are NOT included — sum those via
  /// find_connection / for_each_connection).
  struct Stats {
    std::int64_t connections_created{0};
    std::int64_t connections_destroyed{0};
    std::int64_t handshakes_completed{0};
    std::int64_t handshake_failures{0};
    std::int64_t segments_sent{0};
    std::int64_t retransmit_segments{0};
    std::int64_t fast_retransmits{0};
    std::int64_t rto_fired{0};
    std::int64_t path_loss_drops{0};
    std::int64_t switch_drop_notifications{0};
    std::int64_t bytes_demanded{0};
    std::int64_t bytes_delivered{0};  // receiver-side in-order advance
    std::int64_t bytes_retransmitted{0};
    // Retransmissions split by repair kind (all recovery modes): a segment
    // resent while its half-stream is in fast recovery was dupack-driven;
    // anything else is the go-back-N stream after a timeout.
    std::int64_t rtx_dupack_segments{0};
    std::int64_t rtx_rto_segments{0};
    // SACK (recovery == kSack only; zero otherwise):
    std::int64_t sack_blocks_recorded{0};    // scoreboard merges that added bytes
    std::int64_t sack_bytes{0};              // bytes newly marked sacked
    std::int64_t sack_retransmits{0};        // pipe-gated hole retransmissions
    std::int64_t sack_rescue_retransmits{0}; // rule-4 tail rescues
    // DCTCP (cc == kDctcp only; zero otherwise):
    std::int64_t ecn_ce_segments{0};       // CE-marked data seen at receivers
    std::int64_t ecn_echoed_acks{0};       // ACKs sent with ECE set
    std::int64_t dctcp_cwnd_reductions{0}; // once-per-window ECE reactions
  };

  /// `sink` is the rack simulation (must outlive the mux); `faults` may be
  /// null.
  TransportMux(sim::Simulator& sim, const topology::Fleet& fleet,
               services::TrafficSink& sink, TcpParams params,
               const faults::FaultPlan* faults);
  ~TransportMux() override;

  TransportMux(const TransportMux&) = delete;
  TransportMux& operator=(const TransportMux&) = delete;

  // ---- DemandSink (called by services::Wire) ----
  void open(const core::FiveTuple& tuple, core::HostId self, core::HostId peer,
            core::TimePoint start) override;
  void open_inbound(const core::FiveTuple& tuple, core::HostId self, core::HostId peer,
                    core::TimePoint start) override;
  void app_send(const core::FiveTuple& tuple, core::HostId self, core::HostId peer,
                std::int64_t bytes, core::TimePoint start,
                core::Duration pace_gap) override;
  void app_receive(const core::FiveTuple& tuple, core::HostId self, core::HostId peer,
                   std::int64_t bytes, core::TimePoint start,
                   core::Duration pace_gap) override;
  void app_close(const core::FiveTuple& tuple, core::HostId self, core::HostId peer,
                 core::TimePoint start) override;

  // ---- switch callbacks (wired up by the rack simulation) ----
  /// A packet finished transmission on some RSW egress port.
  void on_delivered(const core::SimPacket& packet);
  /// DT admission rejected a packet (a real shared-buffer drop) on the
  /// given egress port — the causal fact the flow ledger attributes
  /// retransmissions to.
  void on_dropped(std::size_t port, const core::SimPacket& packet);

  // ---- observability (wired up by the rack simulation) ----
  /// Installs (or clears) the tracepoint sink for RTO fires, fast-recovery
  /// transitions, and handshake retries. Null by default (zero cost).
  void set_trace_log(telemetry::TracePointLog* log) { trace_log_ = log; }
  /// Installs (or clears) the per-flow lifecycle ledger (FBDCSIM_OBS=flows).
  /// Null by default — every hook site is a single pointer test, so runs
  /// without the opt-in stay byte-identical. `switch_id` stamps switch-drop
  /// attributions; `switch_drop_fault_epoch` is the kFaultEpoch* code when a
  /// faults/ decision (buffer shrink) is in force, -1 otherwise.
  void set_flow_ledger(telemetry::FlowLedger* ledger, std::uint64_t switch_id = 0,
                       std::int64_t switch_drop_fault_epoch = -1) {
    flow_ledger_ = ledger;
    ledger_switch_id_ = switch_id;
    switch_drop_fault_epoch_ = switch_drop_fault_epoch;
  }
  /// Registers the mux's sim-time gauges on `probe`: live connection count
  /// and the out-half cwnd/ssthresh/inflight/alpha_q16 aggregates plus the
  /// pending-RTO timer count over live connections. Every gauge is an O(1)
  /// read of a running total the mux keeps whether or not a probe is
  /// attached; `stride` (ObsConfig::transport_stride) only sets the
  /// series' resolution.
  void register_probes(telemetry::TimeSeriesProbe& probe, std::int64_t stride) const;

  /// Publishes Stats as the transport.* counters (segments_sent as
  /// transport.segments, ...) and the pool's arena.*. Once, at the run's end.
  void publish_counters() const;

  // ---- introspection (tests, benches) ----
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t live_connections() const;
  /// The connection for a tuple (self -> peer orientation), or null.
  [[nodiscard]] const TcpConnection* find_connection(const core::FiveTuple& tuple) const;
  /// Visits live connections in slot order (deterministic).
  template <typename F>
  void for_each_connection(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.live) f(*s.conn);
    }
  }

 private:
  struct Slot {
    TcpConnection* conn{nullptr};
    std::uint8_t gen{0};
    bool live{false};
  };
  enum class Dir : std::uint8_t { kOut = 0, kIn = 1 };
  /// Control packets / bookkeeping steps small enough to share one event
  /// shape. kXxxOut emits via host_send, kXxxIn via host_receive.
  enum class Ctrl : std::uint8_t {
    kBeginOpen,     // self's handshake starts (emit SYN)
    kBeginInbound,  // peer's SYN arrives at the RSW
    kSynAckIn,      // peer's SYN-ACK arrives (outbound open)
    kHsAckIn,       // peer's final handshake ACK arrives (inbound open)
    kFinAckIn,      // peer's FIN-ACK arrives
    kClose,         // application close requested
  };

  TcpConnection* resolve(std::uint32_t tag);
  TcpConnection& ensure(const core::FiveTuple& tuple, core::HostId self, core::HostId peer,
                        ConnState initial);
  void release(TcpConnection& c);
  [[nodiscard]] HalfStream& half(TcpConnection& c, Dir dir) const {
    return dir == Dir::kOut ? c.out : c.in;
  }

  [[nodiscard]] core::Duration rto_for(const TcpConnection& c, const HalfStream& h) const;
  [[nodiscard]] bool path_lost(TcpConnection& c);

  void establish(TcpConnection& c);
  void on_ctrl(std::uint32_t tag, Ctrl ctrl);
  void on_demand(std::uint32_t tag, Dir dir, std::int64_t bytes, core::Duration pace_gap);
  void on_ack_at_sender(TcpConnection& c, Dir dir, std::int64_t ackno, bool ece,
                        std::int64_t sack_lo = 0, std::int64_t sack_hi = 0);
  void on_data_at_receiver(TcpConnection& c, Dir dir, std::int64_t seq, std::int64_t len,
                           bool psh, bool ce);
  void on_rto_event(std::uint32_t tag, Dir dir);
  void on_hs_event(std::uint32_t tag);
  /// Sends what the window allows on one half, then retallies `c`.
  void pump(TcpConnection& c, Dir dir);
  void pump_segments(TcpConnection& c, Dir dir);
  /// The kSack in-recovery transmission loop: sends whatever sack_next_seg
  /// selects while sack_pipe stays below cwnd (RFC 6675 §5 step C).
  void pump_sack_recovery(TcpConnection& c, Dir dir);
  /// Sends one sack_next_seg selection and applies its bookkeeping
  /// (high_rtx / rescue flag / snd_nxt advance plus the sack counters).
  void send_sack_selected(TcpConnection& c, Dir dir, const SackNextSeg& ns);
  void try_close(TcpConnection& c);
  void arm_rto(TcpConnection& c, Dir dir);
  void arm_hs(TcpConnection& c);
  /// Brings totals_ up to date with c's gauge fields. Idempotent: it adds
  /// the change since c.tallied and stores the new share, so an extra call
  /// never double-counts. Runs wherever those fields settle: ensure, the
  /// end of pump, and the on_rto_event paths that drop the timer without
  /// pumping. arm_rto needs none: every caller pumps afterwards.
  void retally(TcpConnection& c);
  /// Moves c's share of totals_ from c.tallied to `share`.
  void recount(TcpConnection& c, const GaugeTally& share);

  /// Schedules the paced emission of one data segment.
  void send_segment(TcpConnection& c, Dir dir, std::int64_t seq, std::int64_t len);
  /// Emits a packet on the wire right now. Data/ACK/control alike; `dir`
  /// picks host_send (kOut) vs host_receive (kIn). A nonempty SACK block
  /// (sack_hi > sack_lo) rides on the packet and grows its frame by the
  /// option bytes.
  void emit_now(TcpConnection& c, Dir dir, std::int64_t payload, core::TcpFlags flags,
                std::int64_t seq, std::int64_t ackno, std::int64_t sack_lo = 0,
                std::int64_t sack_hi = 0);

  sim::Simulator* sim_;
  const topology::Fleet* fleet_;
  services::TrafficSink* sink_;
  TcpParams params_;
  const faults::FaultPlan* faults_;
  bool faults_enabled_{false};
  telemetry::TracePointLog* trace_log_{nullptr};
  telemetry::FlowLedger* flow_ledger_{nullptr};
  std::uint64_t ledger_switch_id_{0};
  std::int64_t switch_drop_fault_epoch_{-1};

  core::Arena arena_;
  core::Pool<TcpConnection> pool_{arena_};
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<core::FiveTuple, std::uint32_t> by_tuple_;
  Stats stats_;
  /// Sum of every live connection's `tallied` share: what the probe reads.
  GaugeTally totals_;
};

}  // namespace fbdcsim::transport
