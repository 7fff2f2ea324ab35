// Scoped override of the runtime telemetry switch for tests that need the
// observability layer (probes, flight recorder, ledger), which honors it:
// CI may run with FBDCSIM_TELEMETRY=0 in the environment.
#pragma once

#include "fbdcsim/telemetry/telemetry.h"

namespace fbdcsim::tests {

/// Forces telemetry on for its scope and restores the previous setting.
class TelemetryOn {
 public:
  TelemetryOn() : saved_{telemetry::Telemetry::enabled()} {
    telemetry::Telemetry::set_enabled(true);
  }
  ~TelemetryOn() { telemetry::Telemetry::set_enabled(saved_); }
  TelemetryOn(const TelemetryOn&) = delete;
  TelemetryOn& operator=(const TelemetryOn&) = delete;

 private:
  bool saved_;
};

}  // namespace fbdcsim::tests
