#include "fingerprint.h"

#include <bit>
#include <cstdio>

namespace perfbench {

void Hasher::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ULL;
  }
}

void Hasher::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Hasher::add(std::string_view bytes) {
  add(static_cast<std::uint64_t>(bytes.size()));
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
}

void hash_trace(Hasher& h, const std::vector<fbdcsim::core::PacketHeader>& trace) {
  h.add(static_cast<std::uint64_t>(trace.size()));
  for (const auto& p : trace) {
    h.add(p.timestamp.count_nanos());
    h.add(static_cast<std::uint64_t>(p.tuple.src_ip.value()) << 32 | p.tuple.dst_ip.value());
    h.add(static_cast<std::uint64_t>(p.tuple.src_port) << 24 |
          static_cast<std::uint64_t>(p.tuple.dst_port) << 8 |
          static_cast<std::uint64_t>(p.tuple.protocol));
    h.add(p.frame_bytes);
    h.add(p.payload_bytes);
    h.add(static_cast<std::uint64_t>(p.flags.syn) | p.flags.ack << 1 | p.flags.fin << 2 |
          p.flags.rst << 3 | p.flags.psh << 4 | p.flags.ece << 5);
  }
}

void hash_counters(Hasher& h, const fbdcsim::switching::PortCounters& c) {
  for (const std::int64_t v : {c.tx_packets, c.tx_bytes, c.enqueued_packets, c.dropped_packets,
                               c.dropped_bytes, c.queuing_delay_ns, c.max_queuing_delay_ns,
                               c.ecn_marked_packets}) {
    h.add(v);
  }
}

void hash_stats(Hasher& h, const fbdcsim::transport::TransportMux::Stats& s) {
  for (const std::int64_t v :
       {s.connections_created, s.connections_destroyed, s.handshakes_completed,
        s.handshake_failures, s.segments_sent, s.retransmit_segments, s.fast_retransmits,
        s.rto_fired, s.path_loss_drops, s.switch_drop_notifications, s.bytes_demanded,
        s.bytes_delivered, s.bytes_retransmitted, s.rtx_dupack_segments, s.rtx_rto_segments,
        s.sack_blocks_recorded, s.sack_bytes, s.sack_retransmits, s.sack_rescue_retransmits,
        s.ecn_ce_segments, s.ecn_echoed_acks, s.dctcp_cwnd_reductions}) {
    h.add(v);
  }
}

std::string to_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
