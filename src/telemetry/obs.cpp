#include "fbdcsim/telemetry/obs.h"

#include <utility>

#include "fbdcsim/core/env.h"

namespace fbdcsim::telemetry {

const char* to_string(ObsConfig::Mode mode) {
  switch (mode) {
    case ObsConfig::Mode::kOff:
      return "off";
    case ObsConfig::Mode::kOn:
      return "on";
    case ObsConfig::Mode::kDump:
      return "dump";
  }
  return "unknown";
}

std::optional<ObsConfig> parse_obs_spec(std::string_view spec, std::string& why) {
  const auto fail = [&why](std::string reason) -> std::optional<ObsConfig> {
    why = std::move(reason);
    return std::nullopt;
  };
  ObsConfig config;
  if (spec == "off") return config;
  if (spec == "on") {
    config.mode = ObsConfig::Mode::kOn;
    return config;
  }
  if (spec == "dump") {
    config.mode = ObsConfig::Mode::kDump;
    return config;
  }
  if (spec == "flows") {
    config.mode = ObsConfig::Mode::kOn;
    config.flows = true;
    return config;
  }
  // dump:N and flows:N carry a ring capacity in 1..1048576.
  const std::size_t colon = spec.find(':');
  const std::string_view level = spec.substr(0, colon);
  if (colon == std::string_view::npos || (level != "dump" && level != "flows")) {
    return fail("expected off|on|dump[:N]|flows[:N]");
  }
  const auto n = core::parse_int_in<1, 1048576>(spec.substr(colon + 1), why);
  if (!n) return fail(std::string{level} + " count " + why);
  if (level == "dump") {
    config.mode = ObsConfig::Mode::kDump;
    config.flight_recorder = static_cast<std::size_t>(*n);
  } else {
    config.mode = ObsConfig::Mode::kOn;
    config.flows = true;
    config.flow_capacity = static_cast<std::size_t>(*n);
  }
  return config;
}

ObsConfig obs_config_from_env() {
  return core::read_env<ObsConfig>("FBDCSIM_OBS", parse_obs_spec, "off").value_or(ObsConfig{});
}

}  // namespace fbdcsim::telemetry
