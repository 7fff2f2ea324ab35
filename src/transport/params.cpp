#include "fbdcsim/transport/params.h"

#include "fbdcsim/core/env.h"

namespace fbdcsim::transport {

const char* to_string(CongestionControl cc) {
  switch (cc) {
    case CongestionControl::kNewReno:
      return "reno";
    case CongestionControl::kDctcp:
      return "dctcp";
  }
  return "?";
}

std::optional<CongestionControl> parse_cc_spec(std::string_view spec, std::string& why) {
  if (spec == "reno" || spec == "newreno") return CongestionControl::kNewReno;
  if (spec == "dctcp") return CongestionControl::kDctcp;
  why = "expected reno|newreno|dctcp";
  return std::nullopt;
}

CongestionControl cc_from_env() {
  return core::read_env<CongestionControl>("FBDCSIM_CC", parse_cc_spec, "reno")
      .value_or(CongestionControl::kNewReno);
}

const char* to_string(LossRecovery recovery) {
  switch (recovery) {
    case LossRecovery::kNewReno:
      return "newreno";
    case LossRecovery::kSack:
      return "sack";
  }
  return "?";
}

std::optional<LossRecovery> parse_recovery_spec(std::string_view spec, std::string& why) {
  if (spec == "newreno" || spec == "reno") return LossRecovery::kNewReno;
  if (spec == "sack") return LossRecovery::kSack;
  why = "expected newreno|reno|sack";
  return std::nullopt;
}

LossRecovery recovery_from_env() {
  return core::read_env<LossRecovery>("FBDCSIM_RECOVERY", parse_recovery_spec, "newreno")
      .value_or(LossRecovery::kNewReno);
}

}  // namespace fbdcsim::transport
