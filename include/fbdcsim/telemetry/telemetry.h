// Telemetry: the simulator's own observability layer.
//
// The paper's contribution is making Facebook's fabric observable (Fbflow,
// port mirroring, Scribe -> Scuba); this module does the same for the
// simulator itself. It provides
//
//   - MetricsRegistry (metrics.h): sharded, contention-free counters,
//     gauges, and histograms, merged on snapshot;
//   - TraceSpan / ScopedTimer (trace.h): hierarchical wall-clock timing
//     spans, exportable as Chrome trace events;
//   - exporters (export.h): human-readable summary tables, JSON snapshots,
//     and chrome://tracing / Perfetto-loadable trace files;
//   - publish_counts (below): packet-path components count per event in
//     plain fields and fill the registry once per run (DESIGN.md §7).
//
// Two switches control cost:
//
//   - compile time: the FBDCSIM_TELEMETRY CMake option (default ON). When
//     OFF, the FBDCSIM_T_* instrumentation macros below expand to nothing
//     and publish_counts does nothing, so instrumented code carries zero
//     overhead. The telemetry classes themselves always compile (their unit
//     tests run in both modes).
//   - run time: Telemetry::set_enabled, initialized from the
//     FBDCSIM_TELEMETRY environment variable (0/1/on/off/true/false;
//     default on). When disabled, instrumentation sites reduce to one
//     relaxed atomic load and a predictable branch.
//
// Determinism contract (DESIGN.md §7): every metric is declared with a
// Kind. Kind::kSim metrics are derived purely from simulation state and are
// bit-identical across thread counts and schedules; Kind::kWall metrics
// (latencies, queue depths, utilization) depend on wall clock or scheduling
// and are segregated in every export, so the runtime/ bit-identity gates
// never compare them.
#pragma once

#include <initializer_list>
#include <utility>

#include "fbdcsim/telemetry/metrics.h"
#include "fbdcsim/telemetry/trace.h"

// The CMake option FBDCSIM_TELEMETRY=OFF defines FBDCSIM_TELEMETRY_ENABLED=0
// globally; any other build (including non-CMake consumers) defaults to ON.
#ifndef FBDCSIM_TELEMETRY_ENABLED
#define FBDCSIM_TELEMETRY_ENABLED 1
#endif

#if FBDCSIM_TELEMETRY_ENABLED

/// Declares a function-local static handle bound to the global registry.
/// `kind` is the bare token Sim or Wall (see the determinism contract).
#define FBDCSIM_T_COUNTER(var, name, kind)                          \
  static ::fbdcsim::telemetry::Counter& var =                       \
      ::fbdcsim::telemetry::MetricsRegistry::global().counter(      \
          (name), ::fbdcsim::telemetry::Kind::k##kind)
#define FBDCSIM_T_GAUGE(var, name, kind)                            \
  static ::fbdcsim::telemetry::Gauge& var =                         \
      ::fbdcsim::telemetry::MetricsRegistry::global().gauge(        \
          (name), ::fbdcsim::telemetry::Kind::k##kind)
#define FBDCSIM_T_HISTOGRAM(var, name, kind)                        \
  static ::fbdcsim::telemetry::Histogram& var =                     \
      ::fbdcsim::telemetry::MetricsRegistry::global().histogram(    \
          (name), ::fbdcsim::telemetry::Kind::k##kind)

/// Mutations: no-ops (beyond one relaxed load) while telemetry is disabled.
#define FBDCSIM_T_ADD(var, n)                                            \
  do {                                                                   \
    if (::fbdcsim::telemetry::Telemetry::enabled()) (var).add(n);        \
  } while (0)
#define FBDCSIM_T_SET(var, v)                                            \
  do {                                                                   \
    if (::fbdcsim::telemetry::Telemetry::enabled()) (var).set(v);        \
  } while (0)
#define FBDCSIM_T_MAX(var, v)                                            \
  do {                                                                   \
    if (::fbdcsim::telemetry::Telemetry::enabled()) (var).update_max(v); \
  } while (0)
#define FBDCSIM_T_OBSERVE(var, v)                                        \
  do {                                                                   \
    if (::fbdcsim::telemetry::Telemetry::enabled()) (var).observe(v);    \
  } while (0)

/// Scoped timing spans recorded into the global Tracer.
#define FBDCSIM_T_SPAN(var, name) ::fbdcsim::telemetry::TraceSpan var { name }
#define FBDCSIM_T_SPAN2(var, name, detail) \
  ::fbdcsim::telemetry::TraceSpan var { (name), (detail) }

#else  // FBDCSIM_TELEMETRY_ENABLED

#define FBDCSIM_T_COUNTER(var, name, kind) \
  do {                                     \
  } while (0)
#define FBDCSIM_T_GAUGE(var, name, kind) \
  do {                                   \
  } while (0)
#define FBDCSIM_T_HISTOGRAM(var, name, kind) \
  do {                                       \
  } while (0)
#define FBDCSIM_T_ADD(var, n) \
  do {                        \
  } while (0)
#define FBDCSIM_T_SET(var, v) \
  do {                        \
  } while (0)
#define FBDCSIM_T_MAX(var, v) \
  do {                        \
  } while (0)
#define FBDCSIM_T_OBSERVE(var, v) \
  do {                            \
  } while (0)
#define FBDCSIM_T_SPAN(var, name) \
  do {                            \
  } while (0)
#define FBDCSIM_T_SPAN2(var, name, detail) \
  do {                                     \
  } while (0)

#endif  // FBDCSIM_TELEMETRY_ENABLED

namespace fbdcsim::telemetry {

/// Adds counts a component kept in plain fields to Kind::kSim counters,
/// once per run. Presence rule: a call's names register together once any
/// value is non-zero, even with telemetry disabled at runtime (one call per
/// outcome pair, e.g. enqueued/dropped); values are added only if enabled.
inline void publish_counts(
    [[maybe_unused]] std::initializer_list<std::pair<std::string_view, std::int64_t>> counts) {
#if FBDCSIM_TELEMETRY_ENABLED
  bool any = false;
  for (const auto& count : counts) any = any || count.second != 0;
  if (!any) return;
  for (const auto& [name, value] : counts) {
    Counter& counter = MetricsRegistry::global().counter(name, Kind::kSim);
    if (value != 0 && Telemetry::enabled()) counter.add(value);
  }
#endif
}

}  // namespace fbdcsim::telemetry
