// App-runner conformance matrix: every registered app on every parallel
// backend at 1/2/4/8 workers must produce a digest byte-identical to the
// memoized serial-elision reference. This is the output-equality gate of
// the generic runner exercised end to end — the per-app run_* wrappers and
// benches route through the same execute() paths tested here.
//
// Test names carry the backend label, so the sanitizer CI can select the
// hyperqueue rows with --gtest_filter='*Hyperqueue*'.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <tuple>

#include "pipeline/runner.hpp"

namespace {

using hq::pipe::app_params;
using hq::pipe::backend;

std::string backend_label(backend b) {
  switch (b) {
    case backend::hyperqueue: return "Hyperqueue";
    case backend::pthreads: return "Pthreads";
    case backend::tbb: return "Tbb";
    case backend::serial: break;
  }
  return "Serial";
}

std::string app_label(const std::string& name) {
  std::string s = name;
  if (!s.empty()) s[0] = static_cast<char>(std::toupper(s[0]));
  return s;
}

using matrix_param = std::tuple<std::string, backend, unsigned>;

class RunnerConformance : public ::testing::TestWithParam<matrix_param> {};

TEST_P(RunnerConformance, DigestMatchesSerialElision) {
  const auto& [app, b, workers] = GetParam();
  app_params p;
  p.workers = workers;
  const auto run = hq::pipe::run_app(app, b, p);
  EXPECT_FALSE(run.reference.empty());
  EXPECT_EQ(run.digest, run.reference)
      << app << " on " << hq::pipe::to_string(b) << " at " << workers
      << " workers diverged from the serial elision";
  EXPECT_TRUE(run.ok);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, RunnerConformance,
    ::testing::Combine(
        ::testing::Values(std::string("bzip2"), std::string("dedup"),
                          std::string("ferret")),
        ::testing::Values(backend::hyperqueue, backend::pthreads,
                          backend::tbb),
        ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto& info) {
      return app_label(std::get<0>(info.param)) +
             backend_label(std::get<1>(info.param)) + "W" +
             std::to_string(std::get<2>(info.param));
    });

// The registry itself: the built-ins are present, unknown names throw, and
// a repeated run reuses the memoized reference (same digest object).
TEST(RunnerRegistry, BuiltinsRegisteredAndGated) {
  const auto& names = hq::pipe::registered_apps();
  ASSERT_GE(names.size(), 3u);
  for (const char* want : {"bzip2", "dedup", "ferret"})
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end());
  EXPECT_THROW((void)hq::pipe::run_app("no_such_app", backend::tbb, {}),
               std::out_of_range);

  app_params p;
  p.workers = 2;
  const auto first = hq::pipe::run_app("ferret", backend::tbb, p);
  const auto again = hq::pipe::run_app("ferret", backend::tbb, p);
  EXPECT_TRUE(first.ok);
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(first.reference, again.reference);
}

}  // namespace
