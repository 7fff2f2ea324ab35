// Deterministic output fingerprints.
//
// Every operation folds its deterministic outputs into a 64-bit FNV-1a
// hash: event counts, the captured trace (length and every header field),
// switch PortCounters, TransportMux::Stats, the FlowLedger export, FCT
// quantiles, Scuba rows and locality bytes. Host timings never enter a
// fingerprint, so the same seed must give the same value on every host,
// traced or not.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fbdcsim/core/packet.h"
#include "fbdcsim/switching/switch.h"
#include "fbdcsim/transport/mux.h"

namespace perfbench {

class Hasher {
 public:
  void add(std::uint64_t v);
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v);
  void add(std::string_view bytes);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{14695981039346656037ULL};
};

void hash_trace(Hasher& h, const std::vector<fbdcsim::core::PacketHeader>& trace);
void hash_counters(Hasher& h, const fbdcsim::switching::PortCounters& c);
void hash_stats(Hasher& h, const fbdcsim::transport::TransportMux::Stats& s);

/// 16 lowercase hex digits.
[[nodiscard]] std::string to_hex(std::uint64_t v);

}  // namespace perfbench
