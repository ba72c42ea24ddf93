// The determinism contract of the observability subsystem: a run's capture
// is a pure function of its cell (benchmark, policy, repetition), so the
// exported Chrome trace and metrics JSON are byte-identical for any
// SPCD_JOBS worker count — and a run without tracing carries no capture at
// all (RunMetrics::obs stays null, results untouched).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/metrics_export.hpp"
#include "core/runner.hpp"
#include "obs/export.hpp"
#include "workloads/npb.hpp"

namespace spcd {
namespace {

std::vector<core::RunMetrics> run_grid(const char* jobs, bool traced) {
  ::setenv("SPCD_JOBS", jobs, 1);
  core::RunnerConfig config;
  config.repetitions = 3;
  config.jobs = 0;  // resolve through the SPCD_JOBS environment knob
  config.trace.enabled = traced;
  // Make the mapper and filter actually fire at this small scale, so the
  // exported trace covers every instrumented subsystem.
  config.spcd.mapping_interval = 200'000;
  config.spcd.min_matrix_total = 50;
  core::Runner runner(config);
  auto runs = runner.run_policy("cg", workloads::nas_factory("cg", 0.1),
                                core::MappingPolicy::kSpcd);
  ::unsetenv("SPCD_JOBS");
  return runs;
}

std::string chrome_trace(const std::vector<core::RunMetrics>& runs) {
  std::vector<obs::CaptureRef> captures;
  for (std::size_t rep = 0; rep < runs.size(); ++rep) {
    captures.push_back(
        obs::CaptureRef{"cg/spcd rep " + std::to_string(rep),
                        runs[rep].obs.get()});
  }
  return obs::export_chrome_trace(captures);
}

TEST(TraceDeterminismTest, ExportsAreByteIdenticalAcrossJobCounts) {
  const auto serial = run_grid("1", /*traced=*/true);
  const auto parallel = run_grid("4", /*traced=*/true);

  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& m : serial) ASSERT_NE(m.obs, nullptr);
  for (const auto& m : parallel) ASSERT_NE(m.obs, nullptr);

  // Exact string equality: the whole point of stamping events with
  // simulated cycles and binding sessions per run.
  EXPECT_EQ(chrome_trace(serial), chrome_trace(parallel));
  EXPECT_EQ(core::metrics_json("cg", "spcd", serial),
            core::metrics_json("cg", "spcd", parallel));
}

TEST(TraceDeterminismTest, TraceCoversEveryInstrumentedSubsystem) {
  const auto runs = run_grid("2", /*traced=*/true);
  const std::string trace = chrome_trace(runs);
  for (const char* cat :
       {"\"cat\":\"detector\"", "\"cat\":\"injector\"", "\"cat\":\"filter\"",
        "\"cat\":\"mapper\"", "\"cat\":\"engine\""}) {
    EXPECT_NE(trace.find(cat), std::string::npos) << cat;
  }
}

TEST(TraceDeterminismTest, CapturedMetricsIncludeDegradationCounters) {
  const auto runs = run_grid("1", /*traced=*/true);
  ASSERT_FALSE(runs.empty());
  ASSERT_NE(runs[0].obs, nullptr);
  const std::string json = core::metrics_json("cg", "spcd", runs);
  for (const auto& d : core::degradation_metric_descriptors()) {
    std::string needle = "\"";
    needle += d.name;
    needle += '"';
    EXPECT_NE(json.find(needle), std::string::npos) << d.name;
  }
}

TEST(TraceDeterminismTest, DetectorFaultsFollowOnlyEarlierKernelEvents) {
  // The engine runs a thread's op only while its clock is at or before the
  // next kernel event, and the detector handles each fault inside that op.
  // So in capture order, no injector/filter/mapper instant recorded before
  // a detector fault may carry a later simulated time than the fault.
  const auto runs = run_grid("1", /*traced=*/true);
  std::uint64_t checked = 0;
  for (const auto& m : runs) {
    ASSERT_NE(m.obs, nullptr);
    util::Cycles latest_kernel = 0;
    for (const obs::TraceEvent& ev : m.obs->events) {
      if (ev.kind != obs::EventKind::kInstant) continue;
      if (std::strcmp(ev.cat, "injector") == 0 ||
          std::strcmp(ev.cat, "filter") == 0 ||
          std::strcmp(ev.cat, "mapper") == 0) {
        latest_kernel = std::max(latest_kernel, ev.time);
      } else if (std::strcmp(ev.cat, "detector") == 0 &&
                 std::strcmp(ev.name, "fault") == 0) {
        ASSERT_LE(latest_kernel, ev.time)
            << "a detector fault is recorded after a later kernel event";
        if (latest_kernel != 0) ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(TraceDeterminismTest, DisabledTracingCapturesNothing) {
  const auto traced = run_grid("1", /*traced=*/true);
  const auto untraced = run_grid("1", /*traced=*/false);

  ASSERT_EQ(traced.size(), untraced.size());
  for (const auto& m : untraced) EXPECT_EQ(m.obs, nullptr);
  // Tracing must not perturb the simulation itself.
  for (std::size_t rep = 0; rep < traced.size(); ++rep) {
    EXPECT_EQ(traced[rep].exec_seconds, untraced[rep].exec_seconds);
    EXPECT_EQ(traced[rep].instructions, untraced[rep].instructions);
    EXPECT_EQ(traced[rep].migration_events, untraced[rep].migration_events);
  }
}

}  // namespace
}  // namespace spcd
