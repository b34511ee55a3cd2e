#include "common/bench_compare.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace sgcl {
namespace {

// Writes a minimal google-benchmark JSON file with the given entries.
// Each entry line must already be a JSON object.
std::string WriteBenchFile(const std::string& path,
                           const std::vector<std::string>& entries) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"context\":{\"num_cpus\":1},\"benchmarks\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out << ',';
    out << entries[i];
  }
  out << "]}";
  return path;
}

std::string Iteration(const std::string& name, double real_ms) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"run_name\":\"%s\","
                "\"run_type\":\"iteration\",\"real_time\":%g,"
                "\"cpu_time\":%g,\"time_unit\":\"ms\"}",
                name.c_str(), name.c_str(), real_ms, real_ms);
  return buf;
}

std::string Aggregate(const std::string& run_name, const std::string& kind,
                      double real_ms) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s_%s\",\"run_name\":\"%s\","
                "\"run_type\":\"aggregate\",\"aggregate_name\":\"%s\","
                "\"real_time\":%g,\"cpu_time\":%g,\"time_unit\":\"ms\"}",
                run_name.c_str(), kind.c_str(), run_name.c_str(),
                kind.c_str(), real_ms, real_ms);
  return buf;
}

class BenchCompareTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }
  std::string Tmp(const std::string& name) {
    cleanup_.push_back(name);
    return name;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(BenchCompareTest, LoadPrefersMedianAggregate) {
  const std::string path = WriteBenchFile(
      Tmp("bench_agg.json"),
      {Aggregate("BM_X/16", "mean", 1.1), Aggregate("BM_X/16", "median", 1.0),
       Aggregate("BM_X/16", "stddev", 0.1), Iteration("BM_Y/8", 2.0)});
  auto entries = LoadBenchmarkJson(path);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 2u);
  // ms normalized to ns.
  EXPECT_EQ((*entries)[0].run_name, "BM_X/16");
  EXPECT_DOUBLE_EQ((*entries)[0].real_ns, 1.0e6);
  EXPECT_EQ((*entries)[1].run_name, "BM_Y/8");
  EXPECT_DOUBLE_EQ((*entries)[1].real_ns, 2.0e6);
}

TEST_F(BenchCompareTest, LoadRejectsNonBenchmarkJson) {
  const std::string path = Tmp("bench_bad.json");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"not_benchmarks\": []}";
  }
  EXPECT_EQ(LoadBenchmarkJson(path).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBenchmarkJson("missing_bench.json").status().code(),
            StatusCode::kNotFound);
}

// Malformed and empty inputs must surface as InvalidArgument with a
// message naming the file — never a crash or a silent empty diff.
TEST_F(BenchCompareTest, LoadRejectsEmptyAndMalformedFiles) {
  const std::string empty = Tmp("bench_empty.json");
  { std::ofstream out(empty, std::ios::trunc); }
  const auto empty_result = LoadBenchmarkJson(empty);
  ASSERT_FALSE(empty_result.ok());
  EXPECT_EQ(empty_result.status().code(), StatusCode::kInvalidArgument);

  const std::string garbage = Tmp("bench_garbage.json");
  {
    std::ofstream out(garbage, std::ios::trunc);
    out << "this is not json {]";
  }
  const auto garbage_result = LoadBenchmarkJson(garbage);
  ASSERT_FALSE(garbage_result.ok());
  EXPECT_EQ(garbage_result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BenchCompareTest, LoadRejectsEmptyBenchmarksArray) {
  const std::string path = WriteBenchFile(Tmp("bench_noentries.json"), {});
  const auto result = LoadBenchmarkJson(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("no comparable benchmark entries"),
            std::string::npos);
  EXPECT_NE(result.status().message().find(path), std::string::npos);
}

TEST_F(BenchCompareTest, IdenticalInputsShowNoRegression) {
  const std::string path = WriteBenchFile(
      Tmp("bench_same.json"),
      {Iteration("BM_A", 1.0), Iteration("BM_B", 5.0)});
  auto entries = LoadBenchmarkJson(path);
  ASSERT_TRUE(entries.ok());
  const BenchComparison cmp = CompareBenchmarks(*entries, *entries);
  ASSERT_EQ(cmp.matched.size(), 2u);
  EXPECT_DOUBLE_EQ(cmp.matched[0].pct, 0.0);
  EXPECT_DOUBLE_EQ(cmp.matched[1].pct, 0.0);
  EXPECT_TRUE(cmp.only_base.empty());
  EXPECT_TRUE(cmp.only_current.empty());
  EXPECT_EQ(CountRegressions(cmp, 10.0), 0);
  // A zero threshold flags the 0% delta (>= semantics) — the gate's
  // documented threshold is strictly positive.
  EXPECT_EQ(CountRegressions(cmp, 0.5), 0);
}

TEST_F(BenchCompareTest, InjectedRegressionIsFlagged) {
  const std::string base_path = WriteBenchFile(
      Tmp("bench_base.json"),
      {Iteration("BM_A", 1.0), Iteration("BM_B", 5.0)});
  const std::string cur_path = WriteBenchFile(
      Tmp("bench_cur.json"),
      {Iteration("BM_A", 1.3), Iteration("BM_B", 4.0)});
  auto base = LoadBenchmarkJson(base_path);
  auto current = LoadBenchmarkJson(cur_path);
  ASSERT_TRUE(base.ok() && current.ok());
  const BenchComparison cmp = CompareBenchmarks(*base, *current);
  ASSERT_EQ(cmp.matched.size(), 2u);
  EXPECT_NEAR(cmp.matched[0].pct, 30.0, 1e-9);   // BM_A 30% slower
  EXPECT_NEAR(cmp.matched[1].pct, -20.0, 1e-9);  // BM_B 20% faster
  EXPECT_EQ(CountRegressions(cmp, 10.0), 1);
  EXPECT_EQ(CountRegressions(cmp, 50.0), 0);
  const std::string report = FormatComparison(cmp, 10.0);
  EXPECT_NE(report.find("REGRESSION"), std::string::npos);
}

TEST_F(BenchCompareTest, UnmatchedNamesAreReportedNotCompared) {
  const std::string base_path =
      WriteBenchFile(Tmp("bench_b2.json"),
                     {Iteration("BM_A", 1.0), Iteration("BM_Old", 2.0)});
  const std::string cur_path =
      WriteBenchFile(Tmp("bench_c2.json"),
                     {Iteration("BM_A", 1.0), Iteration("BM_New", 2.0)});
  auto base = LoadBenchmarkJson(base_path);
  auto current = LoadBenchmarkJson(cur_path);
  ASSERT_TRUE(base.ok() && current.ok());
  const BenchComparison cmp = CompareBenchmarks(*base, *current);
  ASSERT_EQ(cmp.matched.size(), 1u);
  ASSERT_EQ(cmp.only_base.size(), 1u);
  EXPECT_EQ(cmp.only_base[0], "BM_Old");
  ASSERT_EQ(cmp.only_current.size(), 1u);
  EXPECT_EQ(cmp.only_current[0], "BM_New");
}

TEST_F(BenchCompareTest, LoadsCommittedBaseline) {
  // The repo's committed baseline must stay loadable — it is the CI
  // gate's input. Located relative to the test binary's cwd (build/tests)
  // and the repo root for manual runs.
  for (const char* candidate :
       {"../../BENCH_lipschitz.json", "BENCH_lipschitz.json"}) {
    std::ifstream probe(candidate);
    if (!probe) continue;
    auto entries = LoadBenchmarkJson(candidate);
    ASSERT_TRUE(entries.ok()) << entries.status().ToString();
    EXPECT_GT(entries->size(), 0u);
    const BenchComparison cmp = CompareBenchmarks(*entries, *entries);
    EXPECT_EQ(CountRegressions(cmp, 10.0), 0);
    return;
  }
  GTEST_SKIP() << "BENCH_lipschitz.json not reachable from cwd";
}

TEST_F(BenchCompareTest, LoadsHostFromContext) {
  const std::string path =
      WriteBenchFile(Tmp("bench_host.json"), {Iteration("BM_X", 1.0)});
  auto host = LoadBenchmarkHost(path);
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  EXPECT_EQ(host->num_cpus, "1");
  EXPECT_EQ(host->build_type, "");
}

TEST_F(BenchCompareTest, WriteBenchJsonRecordsHostAndRows) {
  const std::string path = Tmp("bench_written.json");
  ASSERT_TRUE(WriteBenchJson(path, "unit_test",
                             {{"suite/a", 12.5}, {"suite/b", 3.0}},
                             "\"graphs\":7")
                  .ok());
  auto entries = LoadBenchmarkJson(path);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].name, "suite/a");
  EXPECT_DOUBLE_EQ((*entries)[0].real_ns, 12500.0);
  auto host = LoadBenchmarkHost(path);
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  EXPECT_FALSE(host->num_cpus.empty());
  EXPECT_FALSE(host->build_type.empty());
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"library\":\"unit_test\""), std::string::npos);
  EXPECT_NE(text.find("\"graphs\":7"), std::string::npos);
}

TEST_F(BenchCompareTest, CommittedBenchFilesRecordTheirHost) {
  // bench_diff's host warning can only fire for files that record the
  // host, so every committed baseline at the repo root must.
  const std::filesystem::path root =
      std::filesystem::path(SGCL_TESTDATA_DIR).parent_path().parent_path();
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") {
      continue;
    }
    ++files;
    auto host = LoadBenchmarkHost(entry.path().string());
    ASSERT_TRUE(host.ok()) << name << ": " << host.status().ToString();
    EXPECT_FALSE(host->num_cpus.empty()) << name << " has no num_cpus";
    EXPECT_FALSE(host->build_type.empty())
        << name << " has no library_build_type";
  }
  EXPECT_GT(files, 0) << "no BENCH_*.json under " << root;
}

TEST_F(BenchCompareTest, HostMismatchNamesBothValues) {
  const BenchHost vm{"1", "debug"};
  const BenchHost box{"4", "release"};
  const std::string warning = HostMismatchWarning(vm, box);
  EXPECT_NE(warning.find("num_cpus 1 vs 4"), std::string::npos) << warning;
  EXPECT_NE(warning.find("library_build_type debug vs release"),
            std::string::npos)
      << warning;
  EXPECT_EQ(warning.find('\n'), std::string::npos);
  // Same host, or a field only one file records: nothing to warn about.
  EXPECT_EQ(HostMismatchWarning(vm, vm), "");
  EXPECT_EQ(HostMismatchWarning(vm, BenchHost{}), "");
  EXPECT_EQ(HostMismatchWarning(vm, BenchHost{"1", ""}), "");
}

}  // namespace
}  // namespace sgcl
