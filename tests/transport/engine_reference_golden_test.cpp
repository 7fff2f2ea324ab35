// EngineReferenceGolden: every rack-level engine scenario of
// tests/support/engine_reference.h must print what the reference heap
// engine printed for it, and tests/golden/engine_reference.golden.txt must
// hold exactly those scenarios, in order — the test form of
//
//   diff <(gen_transport_scripted --engine-reference) tests/golden/engine_reference.golden.txt
//
// The per-section tests (EngineDifferentialRack/Threads, the transport and
// observability *AcrossEngines cases) check the same lines one section at
// a time; this one also catches a stale or missing line no section reads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../support/engine_reference.h"

namespace fbdcsim::tests {
namespace {

TEST(EngineReferenceGolden, EveryScenarioMatchesTheReferenceEngineRecording) {
  const std::vector<GoldenLine> lines = engine_reference_lines();
  EXPECT_EQ(engine_reference_mismatches(lines), std::vector<std::string>{});

  std::vector<std::string> keys;
  for (const GoldenLine& l : lines) keys.push_back(l.key);
  std::vector<std::string> golden_keys;
  for (const std::string& line : engine_reference_golden()) {
    golden_keys.push_back(line.substr(0, line.find(": ")));
  }
  EXPECT_EQ(golden_keys, keys) << "the golden's scenarios differ from the generator's";
}

}  // namespace
}  // namespace fbdcsim::tests
