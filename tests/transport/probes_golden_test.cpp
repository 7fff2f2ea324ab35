// TransportProbesGolden: the `transport.*` probe series of six TCP rack
// captures ({Web, Hadoop} x {NewReno fault-free, SACK + heavy faults, DCTCP
// with an ECN threshold}, default stride) must match
// tests/golden/transport_probes.golden.txt byte for byte. That file was
// captured by `gen_transport_scripted --probes` while the gauges still
// re-summed every live connection per sample, so a match proves the
// running totals sample exactly what the scans did.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../support/telemetry_on.h"
#include "../support/transport_probes.h"

namespace fbdcsim::transport {
namespace {

TEST(TransportProbesGolden, SeriesMatchThePerSampleScanOutput) {
  if (!FBDCSIM_TELEMETRY_ENABLED) {
    GTEST_SKIP() << "probes are compiled out under FBDCSIM_TELEMETRY=OFF";
  }
  std::ifstream file(std::string{FBDCSIM_GOLDEN_DIR} + "/transport_probes.golden.txt");
  ASSERT_TRUE(file.is_open()) << "missing tests/golden/transport_probes.golden.txt";
  std::stringstream golden;
  golden << file.rdbuf();

  const tests::TelemetryOn on;
  const std::vector<std::string> lines = tests::transport_probe_lines();
  std::string got;
  for (const std::string& line : lines) got += line + "\n";
  if (got == golden.str()) return;

  // Name the scenarios that diverged instead of dumping ~30 KB twice.
  std::istringstream want_lines{golden.str()};
  std::string want;
  for (const std::string& line : lines) {
    if (!std::getline(want_lines, want)) want.clear();
    if (line != want) ADD_FAILURE() << "diverged: " << line.substr(0, line.find(" {"));
  }
  ADD_FAILURE() << "probe output differs from the golden (" << lines.size()
                << " scenarios generated)";
}

}  // namespace
}  // namespace fbdcsim::transport
