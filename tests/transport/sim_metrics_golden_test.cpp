// RackSimMetricsGolden: the Kind::kSim registry section after each of the
// rack captures in tests/support/rack_sim_metrics.h (TCP variants with
// observability off and with the FlowLedger on, a scripted capture, and a
// run with telemetry disabled at runtime) must match
// tests/golden/rack_sim_metrics.golden.txt byte for byte. That file was
// captured by `gen_transport_scripted --sim-metrics` while every switch,
// capture, arena, scheduler and transport counter was still a per-event
// registry write, so a match proves the once-per-run publish reproduces
// both the values and which names are registered.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../support/rack_sim_metrics.h"
#include "../support/telemetry_on.h"

namespace fbdcsim::transport {
namespace {

TEST(RackSimMetricsGolden, CountersMatchThePerEventRegistryOutput) {
  if (!FBDCSIM_TELEMETRY_ENABLED) {
    GTEST_SKIP() << "registry counters are compiled out under FBDCSIM_TELEMETRY=OFF";
  }
  std::ifstream file(std::string{FBDCSIM_GOLDEN_DIR} + "/rack_sim_metrics.golden.txt");
  ASSERT_TRUE(file.is_open()) << "missing tests/golden/rack_sim_metrics.golden.txt";
  std::stringstream golden;
  golden << file.rdbuf();

  const tests::TelemetryOn on;
  const std::vector<std::string> lines = tests::rack_sim_metrics_lines();
  std::istringstream want_lines{golden.str()};
  std::string want;
  std::size_t matched = 0;
  for (const std::string& line : lines) {
    if (!std::getline(want_lines, want)) want.clear();
    if (line == want) {
      ++matched;
      continue;
    }
    ADD_FAILURE() << "diverged: " << line.substr(0, line.find(" \"sim\""))
                  << "\n  got:  " << line << "\n  want: " << want;
  }
  EXPECT_EQ(matched, lines.size());
  EXPECT_FALSE(std::getline(want_lines, want)) << "golden has more scenarios than generated";
}

}  // namespace
}  // namespace fbdcsim::transport
