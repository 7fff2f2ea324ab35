#include "fbdcsim/core/env.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <utility>

namespace fbdcsim::core {

namespace {

struct DiagnosticLog {
  std::mutex mu;
  std::set<std::pair<std::string, std::string>> printed;  // (name, value)
};

// Never destroyed: a pool thread may still read a knob during exit.
DiagnosticLog& diagnostic_log() {
  static auto* log = new DiagnosticLog;
  return *log;
}

}  // namespace

namespace detail {

const char* env_text(const char* name) { return std::getenv(name); }

void report_invalid_env(const char* name, const char* text, const std::string& why,
                        const char* fallback) {
  DiagnosticLog& log = diagnostic_log();
  const std::lock_guard<std::mutex> lock{log.mu};
  if (!log.printed.emplace(name, text).second) return;
  std::fprintf(stderr, "%s='%s' is invalid (%s); using %s\n", name, text, why.c_str(),
               fallback);
}

}  // namespace detail

std::optional<bool> parse_switch(std::string_view text, std::string& why) {
  if (text == "1" || text == "on" || text == "true") return true;
  if (text == "0" || text == "off" || text == "false") return false;
  why = "expected 0|1|on|off|true|false";
  return std::nullopt;
}

void forget_env_diagnostics() {
  DiagnosticLog& log = diagnostic_log();
  const std::lock_guard<std::mutex> lock{log.mu};
  log.printed.clear();
}

}  // namespace fbdcsim::core
