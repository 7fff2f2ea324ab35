// fbdcsim benchmark binary: runs one named workload for a fixed host-time
// budget and prints its metrics, its checks and a final JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|min] [--reference <file>] [--perturb-reference]
//             [--spans-out <file>]
//
// Both kinds of run start with a warm-up pass, checked but not measured.
// An untraced run (--trace 0) repeats untraced passes and reports the
// end-to-end metrics. A traced run (--trace 1) cycles untraced passes,
// traced passes and the workload's extra reruns (obs off, gen-only) and
// reports the per-layer metrics. Every pass is checked against the first
// pass's fingerprint and, when one is recorded for this workload, size and
// seed, against the reference. Exit code 2 means bad arguments; a failed
// check is reported in the result, not through the exit code.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fbdcsim/telemetry/metrics.h"
#include "fingerprint.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace perfbench {
namespace {

/// Set-up-only rounds before the timed passes; with the passes' own set-up
/// phases they give setup_s its median.
constexpr int kSetupRounds = 5;

struct Metric {
  const char* name;
  const char* unit;
};

// End-to-end metrics of an untraced run.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_rate", "sim_s/s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics of a traced run. A workload that makes no call into a
// layer reports 0 for that layer's metrics.
constexpr Metric kPerLayer[] = {
    {"topology.fleet_build_s", "s"},
    {"analysis.resolver_build_s", "s"},
    {"workload.rack_construct_s", "s"},
    {"workload.rack_run_s", "s"},
    {"workload.fleet_gen_s", "s"},
    {"sim.events", "count"},
    {"sim.events_heap", "count"},
    {"sim.events_per_sim_s", "1/sim_s"},
    {"sim.ns_per_event", "ns"},
    {"switching.packets", "count"},
    {"switching.drop_ratio", "ratio"},
    {"transport.segments", "count"},
    {"transport.retransmit_ratio", "ratio"},
    {"transport.rto_fired", "count"},
    {"transport.handshakes", "count"},
    {"transport.goodput_ratio", "ratio"},
    {"transport.events_per_mb", "events/MB"},
    {"monitoring.trace_packets", "count"},
    {"monitoring.capture_loss_ratio", "ratio"},
    {"monitoring.fbflow_offer_s", "s"},
    {"monitoring.sink_share", "ratio"},
    {"monitoring.scuba_rows", "count"},
    {"runtime.stream_s", "s"},
    {"runtime.worker_utilization", "ratio"},
    {"runtime.task_wait_us", "us"},
    {"telemetry.obs_overhead_ratio", "ratio"},
    {"telemetry.probe_events", "count"},
    {"telemetry.ledger_records", "count"},
    {"telemetry.ledger_total", "count"},
    {"analysis.s", "s"},
    {"faults.path_loss_drops", "count"},
    {"faults.uplinks_failed", "count"},
    {"core.arena_bytes", "bytes"},
    {"core.arena_reuse", "count"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed{42};
  double seconds{10.0};
  bool trace{false};
  std::string size{"full"};
  std::string reference;
  bool perturb_reference{false};
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--size full|min] [--reference <file>] [--perturb-reference] "
               "[--spans-out <file>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--perturb-reference") {
      a.perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("--seed takes an unsigned integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0)) {
        usage("--seconds takes a positive number");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--size") {
      a.size = value;
    } else if (key == "--reference") {
      a.reference = value;
    } else if (key == "--spans-out") {
      a.spans_out = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// The recorded fingerprint for (workload, size, seed), if any. Reference
/// lines read `<workload> <size> <seed> <16 hex digits>`; '#' starts a
/// comment.
std::optional<std::uint64_t> load_reference(const Args& a) {
  if (a.reference.empty()) return std::nullopt;
  std::ifstream in{a.reference};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string workload, size, hex;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> size >> seed >> hex)) continue;
    if (workload == a.workload && size == a.size && seed == a.seed) {
      return std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return std::nullopt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

template <typename F>
std::vector<double> collect(const std::vector<PassResult>& passes, Mode mode, F value) {
  std::vector<double> out;
  for (const PassResult& p : passes) {
    if (p.mode == mode) out.push_back(value(p));
  }
  return out;
}

void print_metric(const Metric& m, double value, const std::string& note) {
  std::printf("  %-32s %16.6g %-10s %s\n", m.name, value, m.unit, note.c_str());
}

void print_json(bool correct, long attempted, long failed, const std::vector<Metric>& metrics,
                const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = values.at(metrics[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name, std::isfinite(value) ? value : 0.0, metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const Size* size = find_size(args.size);
  if (size == nullptr) usage("--size must be full or min");
  auto workload = make_workload(args.workload, args.seed, *size);
  if (!workload) usage(("unknown workload " + args.workload).c_str());

  // The workloads measure the instrumented program; an inherited
  // FBDCSIM_TELEMETRY=0 would silently measure another one.
  fbdcsim::telemetry::Telemetry::set_enabled(true);

  std::printf("perfbench: workload=%s size=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), size->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("perfbench: compiler=%s build_type=%s\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "FBDCSIM_", 8) == 0) {
      std::printf("perfbench: environment %s (ignored: the workloads set every knob)\n", *env);
    }
  }

  std::optional<std::uint64_t> reference = load_reference(args);
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  const auto fail = [&](std::string why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(why));
  };

  SpanLog log;
  std::vector<double> setup_samples;
  std::vector<PassResult> passes;
  const auto start = Clock::now();
  try {
    for (int i = 0; i < kSetupRounds; ++i) setup_samples.push_back(workload->setup_only());
    const std::vector<Mode> group =
        args.trace ? workload->trace_group() : std::vector<Mode>{Mode::kUntraced};
    // A warm-up pass first: the first pass pays for growing the heap and
    // runs its captures in no measured order. Then groups run until the
    // next one would likely end after --seconds, so a run lasts about
    // --seconds however long one pass takes.
    const auto timed_start = Clock::now();
    passes.push_back(workload->pass(Mode::kWarmup, log));
    std::vector<double> group_s;
    do {
      const auto group_start = Clock::now();
      for (const Mode mode : group) passes.push_back(workload->pass(mode, log));
      group_s.push_back(seconds_between(group_start, Clock::now()));
    } while (seconds_between(timed_start, Clock::now()) + median(group_s) <= args.seconds);
  } catch (const std::exception& e) {
    ++attempted;
    fail(std::string{"pass threw: "} + e.what());
  }

  // Output checks: every pass against the first untraced pass, and that
  // one against the recorded reference.
  const PassResult* first = nullptr;
  for (const PassResult& p : passes) {
    if (p.mode == Mode::kWarmup || p.mode == Mode::kUntraced) {
      first = &p;
      break;
    }
  }
  if (first != nullptr) {
    std::printf("perfbench: fingerprint %s %s %llu %s\n", args.workload.c_str(),
                size->name.c_str(), static_cast<unsigned long long>(args.seed),
                to_hex(first->fingerprint).c_str());
    if (args.perturb_reference) reference = reference.value_or(first->fingerprint) ^ 1;
    std::printf("perfbench: reference %s\n",
                reference ? to_hex(*reference).c_str() : "none recorded for this seed");
  }
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& why : p.failures) {
      if (failures.size() < 20) failures.push_back(why);
    }
    ++attempted;
    if (first == nullptr) {
      fail("no untraced pass to compare with");
    } else if (p.mode == Mode::kObsOff || p.mode == Mode::kGenOnly) {
      if (p.core_fingerprint != first->core_fingerprint) {
        fail(std::string{to_string(p.mode)} + " pass changed the simulated outputs");
      }
    } else if (p.fingerprint != first->fingerprint) {
      fail(std::string{to_string(p.mode)} + " pass fingerprint " + to_hex(p.fingerprint) +
           " differs from the first pass");
    } else if (reference && p.fingerprint != *reference) {
      fail("fingerprint " + to_hex(p.fingerprint) + " does not match reference " +
           to_hex(*reference));
    }
  }
  if (attempted == 0) {
    ++attempted;
    fail("no operation ran");
  }

  const auto untraced = [&](auto value) { return collect(passes, Mode::kUntraced, value); };
  std::map<std::string, double> values;
  std::vector<Metric> reported;
  std::printf("\nperfbench: %zu passes in %.3f s\n", passes.size(),
              seconds_between(start, Clock::now()));
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    std::printf("  pass %-3zu %-9s setup %.4f s  run %.4f s  wall %.4f s  events %llu  "
                "flows %lld\n",
                i, to_string(p.mode), p.setup_s, p.run_s, p.wall_s,
                static_cast<unsigned long long>(p.events), static_cast<long long>(p.flows));
  }
  if (!args.trace) {
    std::vector<double> setups = setup_samples;
    for (double s : untraced([](const PassResult& p) { return p.setup_s; })) {
      setups.push_back(s);
    }
    const auto walls = untraced([](const PassResult& p) { return p.wall_s; });
    const auto rates = untraced([](const PassResult& p) { return p.sim_s / p.run_s; });
    const auto flow_rates = untraced(
        [](const PassResult& p) { return static_cast<double>(p.flows) / p.run_s / 1e6; });
    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    values["setup_s"] = median(setups);
    values["wall_s"] = median(walls);
    values["sim_rate"] = median(rates);
    values["peak_rss_mb"] = static_cast<double>(usage_now.ru_maxrss) / 1024.0;
    const std::string of_passes = "(median of " + std::to_string(walls.size()) + " passes)";
    print_metric(kEndToEnd[0], values["setup_s"],
                 "(median of " + std::to_string(setups.size()) + " set-ups)");
    print_metric(kEndToEnd[1], values["wall_s"], of_passes);
    print_metric(kEndToEnd[2], values["sim_rate"], of_passes);
    print_metric(kEndToEnd[3], values["peak_rss_mb"], "(whole process)");
    if (args.workload == "fleet_fbflow") {
      print_metric(Metric{"flow_rate", "Mflows/s"}, median(flow_rates), of_passes);
    }
    reported.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  } else {
    for (const Metric& m : kPerLayer) {
      values[m.name] = median(collect(passes, Mode::kTraced, [&](const PassResult& p) {
        const auto it = p.layers.find(m.name);
        return it == p.layers.end() ? 0.0 : it->second;
      }));
    }
    const auto traced_walls =
        collect(passes, Mode::kTraced, [](const PassResult& p) { return p.wall_s; });
    const double traced_wall = median(traced_walls);
    const double untraced_wall = median(untraced([](const PassResult& p) { return p.wall_s; }));
    values["trace.overhead_ratio"] = untraced_wall > 0 ? traced_wall / untraced_wall : 0.0;
    const auto obs_off =
        collect(passes, Mode::kObsOff, [](const PassResult& p) { return p.run_s; });
    if (!obs_off.empty()) {
      values["telemetry.obs_overhead_ratio"] =
          median(untraced([](const PassResult& p) { return p.run_s; })) / median(obs_off);
    }
    const auto gen_only =
        collect(passes, Mode::kGenOnly, [](const PassResult& p) { return p.run_s; });
    if (!gen_only.empty()) values["workload.fleet_gen_s"] = median(gen_only);
    const std::string note =
        "(median of " + std::to_string(traced_walls.size()) + " traced passes)";
    for (const Metric& m : kPerLayer) print_metric(m, values[m.name], note);
    reported.assign(std::begin(kPerLayer), std::end(kPerLayer));
    if (!args.spans_out.empty()) {
      if (log.write_json(args.spans_out)) {
        std::printf("perfbench: %zu spans written to %s\n", log.spans().size(),
                    args.spans_out.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans_out.c_str());
      }
    }
  }
  std::printf("  %-32s %16.6g %-10s (%ld of %ld operations)\n", "failed_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted), "failed/attempted",
              failed, attempted);
  for (const std::string& why : failures) std::printf("perfbench: FAILED %s\n", why.c_str());
  std::vector<std::string> notes;
  for (const PassResult& p : passes) {
    for (const std::string& note : p.notes) {
      if (std::find(notes.begin(), notes.end(), note) == notes.end()) notes.push_back(note);
    }
  }
  for (const std::string& note : notes) std::printf("perfbench: note: %s\n", note.c_str());
  print_json(failed == 0, attempted, failed, reported, values);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
