// Environment knobs: the one place fbdcsim reads FBDCSIM_* variables
// (README "Environment knobs"). Unset selects a knob's default silently. A
// value its grammar rejects, the empty string included, selects the default
// and prints
//
//   FBDCSIM_X='v' is invalid (<why>); using <default>
//
// on stderr once per (name, value) per process. Every read re-reads the
// environment. Thread-safe, and safe during static initialization.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace fbdcsim::core {

/// A knob grammar: the parsed value, or std::nullopt with `why` set.
template <class T>
using EnvParser = std::optional<T> (*)(std::string_view text, std::string& why);

namespace detail {
[[nodiscard]] const char* env_text(const char* name);  // nullptr when unset
void report_invalid_env(const char* name, const char* text, const std::string& why,
                        const char* fallback);
}  // namespace detail

/// Knob `name` through `parse`: std::nullopt when unset or invalid.
/// `fallback` names, for the diagnostic, the default the caller applies.
template <class T>
[[nodiscard]] std::optional<T> read_env(const char* name, EnvParser<T> parse,
                                        const char* fallback) {
  const char* text = detail::env_text(name);
  if (text == nullptr) return std::nullopt;
  std::string why = "empty value";
  std::optional<T> value;
  if (*text != '\0') value = parse(text, why);
  if (!value) detail::report_invalid_env(name, text, why, fallback);
  return value;
}

/// Shared grammar: a decimal integer in [Lo, Hi] (digits, optional '-').
template <std::int64_t Lo, std::int64_t Hi = std::numeric_limits<std::int64_t>::max()>
[[nodiscard]] std::optional<std::int64_t> parse_int_in(std::string_view text,
                                                       std::string& why) {
  std::int64_t v = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc::invalid_argument || end != last) {
    why = "not an integer";
    return std::nullopt;
  }
  if (ec == std::errc::result_out_of_range || v < Lo || v > Hi) {
    why = Hi == std::numeric_limits<std::int64_t>::max()
              ? "must be at least " + std::to_string(Lo)
              : "must be in " + std::to_string(Lo) + ".." + std::to_string(Hi);
    return std::nullopt;
  }
  return v;
}

/// Shared grammar: a switch, 1/on/true or 0/off/false.
[[nodiscard]] std::optional<bool> parse_switch(std::string_view text, std::string& why);

/// Forgets which values were diagnosed, so a test can see one print again.
void forget_env_diagnostics();

}  // namespace fbdcsim::core
