#include "fbdcsim/faults/fault_plan.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "fbdcsim/core/env.h"

namespace fbdcsim::faults {

const char* to_string(Profile profile) {
  switch (profile) {
    case Profile::kOff:
      return "off";
    case Profile::kLight:
      return "light";
    case Profile::kHeavy:
      return "heavy";
    case Profile::kCustom:
      return "custom";
  }
  return "?";
}

FaultConfig light_profile() {
  FaultConfig c;
  c.profile = Profile::kLight;
  c.link_fail_prob = 0.0005;
  c.link_degrade_prob = 0.005;
  c.link_degrade_factor = 0.5;
  c.buffer_shrink_prob = 0.05;
  c.buffer_shrink_factor = 0.5;
  c.host_crash_prob = 0.002;
  c.scribe_drop_prob = 0.01;
  c.scribe_max_retries = 3;
  c.scribe_delay_prob = 0.05;
  c.tag_failure_prob = 0.005;
  c.capture_drop_prob = 0.01;
  c.path_loss_prob = 0.0005;
  return c;
}

FaultConfig heavy_profile() {
  FaultConfig c;
  c.profile = Profile::kHeavy;
  c.link_fail_prob = 0.01;
  c.link_degrade_prob = 0.05;
  c.link_degrade_factor = 0.25;
  c.buffer_shrink_prob = 0.25;
  c.buffer_shrink_factor = 0.25;
  c.host_crash_prob = 0.02;
  c.scribe_drop_prob = 0.10;
  c.scribe_max_retries = 2;
  c.scribe_delay_prob = 0.20;
  c.scribe_max_delay = core::Duration::seconds(120);
  c.tag_failure_prob = 0.05;
  c.capture_drop_prob = 0.05;
  c.path_loss_prob = 0.005;
  return c;
}

namespace {

/// Strict double parse: the whole token must be a finite number in range.
bool parse_double(const std::string& text, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || text.find('-') != std::string::npos) {
    return false;
  }
  *out = v;
  return true;
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// One `key = value` assignment into the config. Durations take
/// milliseconds; probabilities must be in [0, 1]; factors in (0, 1].
bool apply_key(FaultConfig& c, const std::string& key, const std::string& value,
               std::string* error) {
  const auto prob = [&](double* field) {
    double v = 0.0;
    if (!parse_double(value, &v) || v < 0.0 || v > 1.0) {
      *error = "'" + key + "' must be a probability in [0,1], got '" + value + "'";
      return false;
    }
    *field = v;
    return true;
  };
  const auto factor = [&](double* field) {
    double v = 0.0;
    if (!parse_double(value, &v) || v <= 0.0 || v > 1.0) {
      *error = "'" + key + "' must be a factor in (0,1], got '" + value + "'";
      return false;
    }
    *field = v;
    return true;
  };
  const auto duration_ms = [&](core::Duration* field) {
    double v = 0.0;
    if (!parse_double(value, &v) || v <= 0.0) {
      *error = "'" + key + "' must be a positive duration in ms, got '" + value + "'";
      return false;
    }
    *field = core::Duration::nanos(static_cast<std::int64_t>(v * 1e6));
    return true;
  };

  if (key == "seed") {
    std::uint64_t v = 0;
    if (!parse_u64(value, &v)) {
      *error = "'seed' must be an unsigned integer, got '" + value + "'";
      return false;
    }
    c.seed = v;
    return true;
  }
  if (key == "link_fail_prob") return prob(&c.link_fail_prob);
  if (key == "link_degrade_prob") return prob(&c.link_degrade_prob);
  if (key == "link_degrade_factor") return factor(&c.link_degrade_factor);
  if (key == "buffer_shrink_prob") return prob(&c.buffer_shrink_prob);
  if (key == "buffer_shrink_factor") return factor(&c.buffer_shrink_factor);
  if (key == "host_crash_prob") return prob(&c.host_crash_prob);
  if (key == "host_epoch_ms") return duration_ms(&c.host_epoch);
  if (key == "scribe_drop_prob") return prob(&c.scribe_drop_prob);
  if (key == "scribe_max_retries") {
    std::uint64_t v = 0;
    if (!parse_u64(value, &v) || v > 16) {
      *error = "'scribe_max_retries' must be an integer in [0,16], got '" + value + "'";
      return false;
    }
    c.scribe_max_retries = static_cast<int>(v);
    return true;
  }
  if (key == "scribe_backoff_base_ms") return duration_ms(&c.scribe_backoff_base);
  if (key == "scribe_delay_prob") return prob(&c.scribe_delay_prob);
  if (key == "scribe_max_delay_ms") return duration_ms(&c.scribe_max_delay);
  if (key == "tag_failure_prob") return prob(&c.tag_failure_prob);
  if (key == "capture_drop_prob") return prob(&c.capture_drop_prob);
  if (key == "path_loss_prob") return prob(&c.path_loss_prob);
  *error = "unknown key '" + key + "'";
  return false;
}

std::optional<FaultConfig> parse_profile_file(const std::string& path, std::string* error) {
  // Require a regular file: directories and devices open "successfully" but
  // read as empty, which would silently yield a do-nothing custom profile.
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
    *error = "fault profile '" + path + "' is not a regular file";
    return std::nullopt;
  }
  std::ifstream in{path};
  if (!in) {
    *error = "cannot open fault profile file '" + path + "'";
    return std::nullopt;
  }
  FaultConfig c;
  c.profile = Profile::kCustom;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      *error = path + ":" + std::to_string(lineno) + ": expected 'key = value'";
      return std::nullopt;
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    std::string why;
    if (!apply_key(c, key, value, &why)) {
      *error = path + ":" + std::to_string(lineno) + ": " + why;
      return std::nullopt;
    }
  }
  return c;
}

}  // namespace

std::optional<FaultConfig> parse_fault_spec(std::string_view spec, std::string& why) {
  const std::string s = trim(std::string{spec});
  if (s == "off") return FaultConfig{};
  if (s == "light") return light_profile();
  if (s == "heavy") return heavy_profile();
  return parse_profile_file(s, &why);
}

FaultConfig fault_config_from_env() {
  return core::read_env<FaultConfig>("FBDCSIM_FAULTS", parse_fault_spec, "off")
      .value_or(FaultConfig{});
}

double FaultPlan::unit(Decision d, std::uint64_t entity, std::uint64_t bucket) const {
  std::uint64_t h = core::splitmix64(config_.seed ^ static_cast<std::uint64_t>(d));
  h = core::splitmix64(h ^ core::splitmix64(entity));
  h = core::splitmix64(h ^ bucket);
  // 53 high bits -> exactly representable uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

namespace {
std::uint64_t minute_of(core::TimePoint at) {
  return static_cast<std::uint64_t>(at.count_nanos() / 60'000'000'000LL);
}
}  // namespace

bool FaultPlan::link_failed(core::LinkId link, core::TimePoint at) const {
  if (config_.link_fail_prob <= 0.0) return false;
  return unit(Decision::kLinkFail, link.value(), minute_of(at)) < config_.link_fail_prob;
}

double FaultPlan::link_capacity_factor(core::LinkId link, core::TimePoint at) const {
  if (link_failed(link, at)) return 0.0;
  if (config_.link_degrade_prob > 0.0 &&
      unit(Decision::kLinkDegrade, link.value(), minute_of(at)) < config_.link_degrade_prob) {
    return config_.link_degrade_factor;
  }
  return 1.0;
}

double FaultPlan::buffer_shrink_factor(std::uint64_t run_salt) const {
  if (config_.buffer_shrink_prob <= 0.0) return 1.0;
  return unit(Decision::kBufferShrink, run_salt, 0) < config_.buffer_shrink_prob
             ? config_.buffer_shrink_factor
             : 1.0;
}

bool FaultPlan::host_down(core::HostId host, core::TimePoint at) const {
  if (config_.host_crash_prob <= 0.0) return false;
  const std::uint64_t epoch =
      static_cast<std::uint64_t>(at.count_nanos() / config_.host_epoch.count_nanos());
  return unit(Decision::kHostCrash, host.value(), epoch) < config_.host_crash_prob;
}

bool FaultPlan::scribe_attempt_fails(std::uint64_t sample_key, int attempt) const {
  if (config_.scribe_drop_prob <= 0.0) return false;
  return unit(Decision::kScribeDrop, sample_key, static_cast<std::uint64_t>(attempt)) <
         config_.scribe_drop_prob;
}

core::Duration FaultPlan::scribe_backoff(int attempts_failed) const {
  return core::Duration::nanos(config_.scribe_backoff_base.count_nanos() *
                               ((std::int64_t{1} << attempts_failed) - 1));
}

bool FaultPlan::scribe_delayed(std::uint64_t sample_key) const {
  if (config_.scribe_delay_prob <= 0.0) return false;
  return unit(Decision::kScribeDelayFlag, sample_key, 0) < config_.scribe_delay_prob;
}

core::Duration FaultPlan::scribe_delay(std::uint64_t sample_key) const {
  // In (0, max]: delayed samples are always late by at least one nanosecond.
  const double frac = 1.0 - unit(Decision::kScribeDelayLen, sample_key, 0);
  return core::Duration::nanos(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(frac *
                                   static_cast<double>(config_.scribe_max_delay.count_nanos()))));
}

bool FaultPlan::tagger_lookup_fails(std::uint64_t sample_key) const {
  if (config_.tag_failure_prob <= 0.0) return false;
  return unit(Decision::kTagFailure, sample_key, 0) < config_.tag_failure_prob;
}

bool FaultPlan::capture_drop(std::uint64_t sample_key, double occupancy_fraction) const {
  if (config_.capture_drop_prob <= 0.0) return false;
  const double occ = occupancy_fraction < 0.0   ? 0.0
                     : occupancy_fraction > 1.0 ? 1.0
                                                : occupancy_fraction;
  const double p = config_.capture_drop_prob * (0.1 + 0.9 * occ);
  return unit(Decision::kCaptureDrop, sample_key, 0) < p;
}

bool FaultPlan::path_loss(std::uint64_t transmission_key) const {
  if (config_.path_loss_prob <= 0.0) return false;
  return unit(Decision::kPathLoss, transmission_key, 0) < config_.path_loss_prob;
}

}  // namespace fbdcsim::faults
