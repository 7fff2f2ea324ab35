// Every environment knob, driven through one table: FBDCSIM_BENCH_SECONDS,
// FBDCSIM_THREADS, FBDCSIM_BENCH_OUT, FBDCSIM_FAULTS, FBDCSIM_OBS,
// FBDCSIM_CC, FBDCSIM_RECOVERY and FBDCSIM_TELEMETRY. The contract under
// test (core/env.h): a valid value resolves per the knob's grammar; unset
// resolves to the documented default silently; anything else — empty,
// whitespace, overflow, negative, wrong case, trailing garbage — resolves
// to the default and prints exactly one diagnostic, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "fbdcsim/core/env.h"
#include "fbdcsim/faults/fault_plan.h"
#include "fbdcsim/runtime/thread_pool.h"
#include "fbdcsim/telemetry/metrics.h"
#include "fbdcsim/telemetry/obs.h"
#include "fbdcsim/transport/params.h"

namespace fbdcsim::bench {
namespace {

/// Saves and restores one environment variable around a test.
class EnvVarGuard {
 public:
  explicit EnvVarGuard(const char* name) : name_{name} {
    if (const char* v = std::getenv(name)) saved_ = v;
    ::unsetenv(name);
  }
  ~EnvVarGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void set(const char* value) { ::setenv(name_, value, 1); }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// Placeholders the runner substitutes: the hardware-concurrency fallback of
// FBDCSIM_THREADS, and an existing directory without a trailing '/'.
constexpr const char* kHw = "<hw>";
constexpr const char* kTmp = "<tmp>";

/// What a knob resolves to, rendered as text.
std::string resolve(std::string_view knob) {
  if (knob == "FBDCSIM_BENCH_SECONDS") {
    const std::optional<std::int64_t> secs = bench_seconds_env();
    EXPECT_EQ(BenchEnv::effective_seconds(30), secs.value_or(30));
    return secs ? std::to_string(*secs) : "nominal";
  }
  if (knob == "FBDCSIM_THREADS") return std::to_string(runtime::env_thread_count());
  if (knob == "FBDCSIM_BENCH_OUT") return resolve_out_path("bench_x.json");
  if (knob == "FBDCSIM_FAULTS") {
    return faults::to_string(faults::fault_config_from_env().profile);
  }
  if (knob == "FBDCSIM_OBS") {
    // The mode is always rendered, so a spec that switches the flow ledger
    // on but leaves observability off (enabled() false) cannot pass.
    const telemetry::ObsConfig c = telemetry::obs_config_from_env();
    std::string out = telemetry::to_string(c.mode);
    if (c.mode == telemetry::ObsConfig::Mode::kDump) {
      out += ":" + std::to_string(c.flight_recorder);
    }
    if (c.flows) out += "+flows:" + std::to_string(c.flow_capacity);
    return out;
  }
  if (knob == "FBDCSIM_CC") return transport::to_string(transport::cc_from_env());
  if (knob == "FBDCSIM_RECOVERY") return transport::to_string(transport::recovery_from_env());
  if (knob == "FBDCSIM_TELEMETRY") return telemetry::enabled_from_env() ? "on" : "off";
  ADD_FAILURE() << "no resolver for " << knob;
  return {};
}

/// One case: `input` (kUnset = unset) resolves to `expected`, with one
/// diagnostic when `diagnosed`.
struct Row {
  const char* input;
  const char* expected;
  bool diagnosed;
};

constexpr const char* kUnset = nullptr;
constexpr bool D = true;    // malformed: one diagnostic, then the default
constexpr bool ok = false;  // silent

/// Rows that all resolve to `fallback` with one diagnostic.
std::vector<Row> invalid(const char* fallback, const std::vector<const char*>& inputs) {
  std::vector<Row> rows;
  for (const char* input : inputs) rows.push_back({input, fallback, D});
  return rows;
}

std::vector<Row> join(std::initializer_list<std::vector<Row>> parts) {
  std::vector<Row> rows;
  for (const auto& part : parts) rows.insert(rows.end(), part.begin(), part.end());
  return rows;
}

// Inputs that must never parse as an integer in range.
const std::vector<const char*> kBadIntegers{
    "",        " ",         "abc",    "12abc", "1.5",  "1e3",
    "--3",     "+-2",       "0x10",   "12 ",   "½",    "999999999999999999999999999",
    "-999999999999999999999999999"};

/// The table: each entry is one registered test, `suite.test`, whose rows
/// all read `knob`.
struct Group {
  const char* suite;
  const char* test;
  const char* knob;
  std::vector<Row> rows;
};

const std::vector<Group> kTable = {
    // ---- FBDCSIM_BENCH_SECONDS: integer >= 1; default: each bench's nominal length
    {"BenchSecondsEnvTest", "UnsetYieldsNullopt", "FBDCSIM_BENCH_SECONDS",
     {{kUnset, "nominal", ok}}},
    {"BenchSecondsEnvTest", "ValidValuesParse", "FBDCSIM_BENCH_SECONDS",
     {{"7", "7", ok}, {"86400", "86400", ok}}},
    {"BenchSecondsEnvTest", "MalformedValuesFallBackToNullopt", "FBDCSIM_BENCH_SECONDS",
     invalid("nominal", kBadIntegers)},
    {"BenchSecondsEnvTest", "NonPositiveValuesFallBackToNullopt", "FBDCSIM_BENCH_SECONDS",
     invalid("nominal", {"0", "-1", "-86400"})},
    {"BenchSecondsEnvTest", "EffectiveSecondsUsesNominalOnFallback", "FBDCSIM_BENCH_SECONDS",
     {{kUnset, "nominal", ok}, {"not-a-number", "nominal", D}, {"0", "nominal", D},
      {"2", "2", ok}}},

    // ---- FBDCSIM_THREADS: integer in 1..4096; default: hardware concurrency
    {"ThreadsEnvTest", "ValidValuesParse", "FBDCSIM_THREADS",
     {{"1", "1", ok}, {"3", "3", ok}, {"4096", "4096", ok}}},
    {"ThreadsEnvTest", "MalformedValuesFallBackToHardwareConcurrency", "FBDCSIM_THREADS",
     join({{{kUnset, kHw, ok}},
           invalid(kHw, kBadIntegers),
           invalid(kHw, {"0", "-2", "4097"})})},
    {"EnvThreadCountTest", "HonorsValidOverride", "FBDCSIM_THREADS", {{"3", "3", ok}}},
    {"EnvThreadCountTest", "RejectsMalformedValues", "FBDCSIM_THREADS",
     join({invalid(kHw, {"abc", "-2", "0", "4x", ""}), {{kUnset, kHw, ok}}})},

    // ---- FBDCSIM_BENCH_OUT: a directory or a file path; default: the working directory
    {"BenchOutEnvTest", "UnsetAndEmptyKeepTheWorkingDirectory", "FBDCSIM_BENCH_OUT",
     {{kUnset, "bench_x.json", ok}, {"", "bench_x.json", D}}},
    {"BenchOutEnvTest", "TrailingSlashIsADirectoryEvenIfAbsent", "FBDCSIM_BENCH_OUT",
     {{"/nonexistent/reports/", "/nonexistent/reports/bench_x.json", ok}}},
    {"BenchOutEnvTest", "ExistingDirectoryGetsASeparator", "FBDCSIM_BENCH_OUT",
     {{kTmp, "<tmp>/bench_x.json", ok}}},
    {"BenchOutEnvTest", "AnythingElseIsTheExactFilePath", "FBDCSIM_BENCH_OUT",
     {{"/tmp/custom_report_name.json", "/tmp/custom_report_name.json", ok}}},

    // ---- FBDCSIM_FAULTS: off|light|heavy|<profile file>; default: off
    {"FaultsEnvFuzzTest", "FaultPlanResolutionNeverCrashes", "FBDCSIM_FAULTS",
     join({{{"off", "off", ok}, {"light", "light", ok}, {"heavy", "heavy", ok}},
           invalid("off", {"", " ", "OFF", "Light", "0.5", "-1", "/", ".", "..", "\n",
                           "light\nheavy", "/dev/null", "/nonexistent/profile.conf"})})},
    {"FaultsEnvTest", "UnsetAndOffYieldDisabledConfig", "FBDCSIM_FAULTS",
     {{kUnset, "off", ok}, {"off", "off", ok}}},
    {"FaultsEnvTest", "BuiltinProfilesResolve", "FBDCSIM_FAULTS",
     {{"light", "light", ok}, {"heavy", "heavy", ok}}},
    {"FaultsEnvTest", "MalformedValuesFallBackToOffWithoutCrashing", "FBDCSIM_FAULTS",
     invalid("off", {"", "  ", "LIGHT", "medium", "/no/such/file", "light;heavy", "0.5",
                     "../../../etc/passwd\n"})},

    // ---- FBDCSIM_OBS: off|on|dump[:N]|flows[:N]; default: off
    {"ObsEnvFuzzTest", "ValidSpecsParse", "FBDCSIM_OBS",
     {{"off", "off", ok},
      {"on", "on", ok},
      {"dump", "dump:256", ok},
      {"dump:64", "dump:64", ok},
      {"dump:1048576", "dump:1048576", ok},
      {"flows", "on+flows:4096", ok},
      {"flows:64", "on+flows:64", ok},
      {"flows:1048576", "on+flows:1048576", ok}}},
    {"ObsEnvFuzzTest", "MalformedSpecsAreRejectedWithAReason", "FBDCSIM_OBS",
     invalid("off", {"",        " ",         "ON",         "Off",        "Dump",
                     "on ",     " on",       "dump:",      "dump:0",     "dump:-1",
                     "dump:abc", "dump:1.5", "dump:1048577", "dump:99999999999999999999",
                     "dumpling", "on,dump",  "off;on",     "dump:64:128", "\n",
                     "on\n",    "flows:",   "flows:0",    "flows:-1",   "flows:abc",
                     "flows:1.5", "flows:1048577", "flows:99999999999999999999", "Flows",
                     "FLOWS",   "flows 64",  " flows",     "flows:64:128", "flowses",
                     "garbage"})},
    {"ObsEnvFuzzTest", "EnvResolutionFallsBackToOffAndNeverCrashes", "FBDCSIM_OBS",
     join({{{kUnset, "off", ok}},
           invalid("off", {"", "garbage", "ON", "dump:0", "dump:abc", "½", "flows:0",
                           "flows:abc", "Flows", "flows "}),
           {{"dump:32", "dump:32", ok}, {"flows:32", "on+flows:32", ok}}})},

    // ---- FBDCSIM_CC: reno|newreno|dctcp; default: reno
    {"CcEnvFuzzTest", "ValidSpecsParse", "FBDCSIM_CC",
     {{"reno", "reno", ok}, {"newreno", "reno", ok}, {"dctcp", "dctcp", ok}}},
    {"CcEnvFuzzTest", "MalformedSpecsAreRejectedAndLeaveTheOutputUntouched", "FBDCSIM_CC",
     invalid("reno", {" ", "Reno", "RENO", "DCTCP", "Dctcp", "dctcp ", " dctcp", "cubic", "bbr",
                      "reno,dctcp", "dctcp:64", "½", "\n", "reno\n", "d c t c p", "0", "1"})},
    {"CcEnvFuzzTest", "EnvResolutionFallsBackToRenoAndNeverCrashes", "FBDCSIM_CC",
     join({{{kUnset, "reno", ok}},
           invalid("reno", {"", " ", "garbage", "DCTCP", "dctcp ", "reno;dctcp", "½", "\n"}),
           {{"dctcp", "dctcp", ok}, {"newreno", "reno", ok}}})},

    // ---- FBDCSIM_RECOVERY: newreno|reno|sack; default: newreno
    {"RecoveryEnvFuzzTest", "ValidSpecsParse", "FBDCSIM_RECOVERY",
     {{"newreno", "newreno", ok}, {"reno", "newreno", ok}, {"sack", "sack", ok}}},
    {"RecoveryEnvFuzzTest", "MalformedSpecsAreRejectedAndLeaveTheOutputUntouched",
     "FBDCSIM_RECOVERY",
     invalid("newreno", {" ", "Sack", "SACK", "NewReno", "RENO", "sack ", " sack", "dsack",
                         "fack", "newreno,sack", "sack:1", "½", "\n", "sack\n", "s a c k", "0",
                         "1"})},
    {"RecoveryEnvFuzzTest", "EnvResolutionFallsBackToNewRenoAndNeverCrashes",
     "FBDCSIM_RECOVERY",
     join({{{kUnset, "newreno", ok}},
           invalid("newreno", {"", " ", "garbage", "SACK", "sack ", "reno;sack", "½", "\n"}),
           {{"sack", "sack", ok}, {"newreno", "newreno", ok}}})},

    // ---- FBDCSIM_TELEMETRY: 0|1|on|off|true|false; default: on
    {"TelemetryEnvTest", "UnsetYieldsOn", "FBDCSIM_TELEMETRY", {{kUnset, "on", ok}}},
    {"TelemetryEnvTest", "ValidValuesParse", "FBDCSIM_TELEMETRY",
     {{"1", "on", ok},
      {"on", "on", ok},
      {"true", "on", ok},
      {"0", "off", ok},
      {"off", "off", ok},
      {"false", "off", ok}}},
    {"TelemetryEnvTest", "MalformedValuesFallBackToOn", "FBDCSIM_TELEMETRY",
     invalid("on", {"", "ON", "yes", " 1"})},
};

std::string substitute(std::string text) {
  if (text == kHw) {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::to_string(hw > 0 ? hw : 1);
  }
  if (text.rfind(kTmp, 0) == 0) {
    std::string dir = ::testing::TempDir();
    while (!dir.empty() && dir.back() == '/') dir.pop_back();  // exercise stat()
    text.replace(0, std::string_view{kTmp}.size(), dir);
  }
  return text;
}

void run_row(const char* knob, const Row& row) {
  EnvVarGuard guard{knob};
  const std::optional<std::string> input =
      row.input == kUnset ? std::nullopt : std::optional{substitute(row.input)};
  if (input) guard.set(input->c_str());
  const std::string label = std::string{knob} + (input ? "='" + *input + "'" : " unset");
  core::forget_env_diagnostics();
  ::testing::internal::CaptureStderr();
  const std::string resolved = resolve(knob);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(resolved, substitute(row.expected)) << label;
  if (!row.diagnosed) {
    EXPECT_EQ(err, "") << label;
    return;
  }
  // Exactly one line, naming the value and a non-empty reason.
  const std::string head = label + " is invalid (";
  ASSERT_EQ(err.rfind(head, 0), 0u) << label << " printed: " << err;
  EXPECT_EQ(err.find(" is invalid (", 1), err.rfind(" is invalid (")) << label << ": " << err;
  EXPECT_NE(err.find("); using ", head.size() + 1), std::string::npos) << label << ": " << err;
  EXPECT_EQ(err.back(), '\n') << label;
}

class EnvTableTest : public ::testing::Test {
 public:
  explicit EnvTableTest(const Group& group) : group_{group} {}
  void TestBody() override {
    for (const Row& row : group_.rows) run_row(group_.knob, row);
  }

 private:
  const Group& group_;
};

/// Registers one test per table entry. The factory returns a plain
/// ::testing::Test so the entries share their suites with the TEST()s below.
const bool kRegistered = [] {
  for (const Group& group : kTable) {
    ::testing::RegisterTest(group.suite, group.test, nullptr, nullptr, __FILE__, __LINE__,
                            [&group]() -> ::testing::Test* { return new EnvTableTest{group}; });
  }
  return true;
}();

TEST(EnvDiagnosticsTest, EachMalformedValuePrintsOncePerProcess) {
  const auto count_lines = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '\n');
  };
  core::forget_env_diagnostics();
  {
    EnvVarGuard guard{"FBDCSIM_BENCH_SECONDS"};
    guard.set("1.5");
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 5; ++i) EXPECT_EQ(BenchEnv::effective_seconds(10), 10);
    EXPECT_EQ(count_lines(::testing::internal::GetCapturedStderr()), 1);
  }
  {
    EnvVarGuard guard{"FBDCSIM_THREADS"};
    guard.set("zero");
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(runtime::env_thread_count(), runtime::env_thread_count());
    EXPECT_EQ(count_lines(::testing::internal::GetCapturedStderr()), 1);
  }
  {
    EnvVarGuard guard{"FBDCSIM_FAULTS"};
    guard.set("bogus");
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(faults::fault_config_from_env().profile, faults::Profile::kOff);
    EXPECT_EQ(faults::fault_config_from_env().profile, faults::Profile::kOff);
    EXPECT_EQ(count_lines(::testing::internal::GetCapturedStderr()), 1);
  }
}

TEST(EnvDiagnosticsTest, ANewValueOfTheSameKnobIsDiagnosedAgain) {
  core::forget_env_diagnostics();
  EnvVarGuard guard{"FBDCSIM_CC"};
  ::testing::internal::CaptureStderr();
  guard.set("cubic");
  EXPECT_EQ(transport::cc_from_env(), transport::CongestionControl::kNewReno);
  guard.set("bbr");
  EXPECT_EQ(transport::cc_from_env(), transport::CongestionControl::kNewReno);
  guard.set("cubic");
  EXPECT_EQ(transport::cc_from_env(), transport::CongestionControl::kNewReno);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "FBDCSIM_CC='cubic' is invalid (expected reno|newreno|dctcp); using reno\n"
            "FBDCSIM_CC='bbr' is invalid (expected reno|newreno|dctcp); using reno\n");
}

TEST(EnvDiagnosticsTest, ConcurrentReadersPrintOneLine) {
  // Bench capture tweaks read FBDCSIM_OBS on pool threads.
  core::forget_env_diagnostics();
  EnvVarGuard guard{"FBDCSIM_OBS"};
  guard.set("bogus");
  std::atomic<int> enabled{0};
  ::testing::internal::CaptureStderr();
  {
    runtime::ThreadPool pool{4};
    pool.parallel_for_each(64, [&enabled](std::size_t) {
      if (telemetry::obs_config_from_env().enabled()) ++enabled;
    });
  }
  EXPECT_EQ(enabled.load(), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "FBDCSIM_OBS='bogus' is invalid (expected off|on|dump[:N]|flows[:N]); using off\n");
}

TEST(FaultsEnvFuzzTest, BenchEnvFaultPlanIsNullWhenOff) {
  EnvVarGuard guard{"FBDCSIM_FAULTS"};
  {
    BenchEnv env;
    EXPECT_EQ(env.fault_plan(), nullptr);
    EXPECT_EQ(env.fault_plan(), nullptr);  // resolved once, stable
  }
  guard.set("garbage-value");
  {
    BenchEnv env;
    EXPECT_EQ(env.fault_plan(), nullptr);
  }
}

TEST(FaultsEnvFuzzTest, BenchEnvFaultPlanResolvesActiveProfiles) {
  EnvVarGuard guard{"FBDCSIM_FAULTS"};
  guard.set("heavy");
  BenchEnv env;
  const faults::FaultPlan* plan = env.fault_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->enabled());
  EXPECT_EQ(plan->config().profile, faults::Profile::kHeavy);
  EXPECT_EQ(env.fault_plan(), plan);  // cached, one instance per env
}

TEST(ObsEnvFuzzTest, BenchEnvResolvesObsOncePerEnv) {
  EnvVarGuard guard{"FBDCSIM_OBS"};
  guard.set("on");
  BenchEnv env;
  const telemetry::ObsConfig& first = env.obs();
  EXPECT_TRUE(first.enabled());
  guard.set("off");  // must not affect the already-resolved env
  EXPECT_TRUE(env.obs().enabled());
  EXPECT_EQ(&env.obs(), &first);  // cached, one instance per env
  BenchEnv fresh;
  EXPECT_FALSE(fresh.obs().enabled());
}

TEST(CcEnvFuzzTest, BenchEnvResolvesCcOncePerEnv) {
  EnvVarGuard guard{"FBDCSIM_CC"};
  guard.set("dctcp");
  BenchEnv env;
  EXPECT_EQ(env.cc(), transport::CongestionControl::kDctcp);
  guard.set("reno");  // must not affect the already-resolved env
  EXPECT_EQ(env.cc(), transport::CongestionControl::kDctcp);
  BenchEnv fresh;
  EXPECT_EQ(fresh.cc(), transport::CongestionControl::kNewReno);
}

TEST(CcEnvFuzzTest, ToStringRoundTripsThroughTheParser) {
  for (const auto cc :
       {transport::CongestionControl::kNewReno, transport::CongestionControl::kDctcp}) {
    std::string why;
    EXPECT_EQ(transport::parse_cc_spec(transport::to_string(cc), why), cc)
        << transport::to_string(cc);
  }
}

TEST(RecoveryEnvFuzzTest, BenchEnvResolvesRecoveryOncePerEnv) {
  EnvVarGuard guard{"FBDCSIM_RECOVERY"};
  guard.set("sack");
  BenchEnv env;
  EXPECT_EQ(env.recovery(), transport::LossRecovery::kSack);
  guard.set("reno");  // must not affect the already-resolved env
  EXPECT_EQ(env.recovery(), transport::LossRecovery::kSack);
  BenchEnv fresh;
  EXPECT_EQ(fresh.recovery(), transport::LossRecovery::kNewReno);
}

TEST(RecoveryEnvFuzzTest, ToStringRoundTripsThroughTheParser) {
  for (const auto rec :
       {transport::LossRecovery::kNewReno, transport::LossRecovery::kSack}) {
    std::string why;
    EXPECT_EQ(transport::parse_recovery_spec(transport::to_string(rec), why), rec)
        << transport::to_string(rec);
  }
}

TEST(BenchReportObsTest, TimeseriesSectionAppearsOnlyWhenAdded) {
  // Route the reports the destructors write into the test temp dir.
  EnvVarGuard out_guard{"FBDCSIM_BENCH_OUT"};
  const std::string tmp = ::testing::TempDir();
  out_guard.set(tmp.c_str());
  BenchReport plain{"obs_section_probe"};
  EXPECT_EQ(plain.to_json().find("\"timeseries\""), std::string::npos);

  telemetry::TimeSeriesProbe probe{core::Duration::micros(10), 4};
  probe.add_gauge("g", [] { return 7; });
  probe.sample_tick(0);
  BenchReport with{"obs_section_probe"};
  with.add_timeseries("k", probe.snapshot());
  const std::string json = with.to_json();
  EXPECT_NE(json.find("\"timeseries\":{\"k\":"), std::string::npos);
  EXPECT_NE(json.find("\"g\":{\"period_ns\":10000"), std::string::npos);
  // Re-adding a key overwrites rather than duplicating.
  with.add_timeseries("k", probe.snapshot());
  const std::string rejson = with.to_json();
  EXPECT_EQ(rejson.find("\"timeseries\":{\"k\":"), rejson.rfind("\"timeseries\":{\"k\":"));
  EXPECT_EQ(rejson.find("\"g\":{"), rejson.rfind("\"g\":{"));
}

TEST(BenchReportObsTest, TracepointsPathSitsNextToTheReport) {
  EnvVarGuard guard{"FBDCSIM_BENCH_OUT"};
  guard.set("/tmp/obs_path_test/");
  BenchReport report{"pathcheck"};
  EXPECT_EQ(report.report_path(), "/tmp/obs_path_test/bench_pathcheck.json");
  EXPECT_EQ(report.tracepoints_path(),
            "/tmp/obs_path_test/bench_pathcheck.tracepoints.jsonl");
}

}  // namespace
}  // namespace fbdcsim::bench
