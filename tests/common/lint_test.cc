// Fixture tests for the sgcl_lint rule engine (common/lint.h): every
// rule has at least one snippet where it fires and one where it must
// not, so rules are regression-tested like any other subsystem.
#include "common/lint.h"

#include <string>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"

namespace sgcl::lint {
namespace {

std::vector<Finding> LintSnippet(const std::string& path,
                                 const std::string& content,
                                 LintOptions options = {}) {
  Linter linter(std::move(options));
  linter.AddFile(path, content);
  return linter.Run();
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

// ---- sgcl-R1: discarded fallible call --------------------------------

constexpr char kR1Fires[] = R"(
Status Flush(int fd);
void Caller() {
  Flush(3);
}
)";

constexpr char kR1Clean[] = R"(
Status Flush(int fd);
Result<int> Read(int fd);
Status Caller() {
  Status st = Flush(3);
  if (!st.ok()) return st;
  SGCL_RETURN_NOT_OK(Flush(4));
  SGCL_ASSIGN_OR_RETURN(int n, Read(3));
  return Flush(n);
}
)";

TEST(LintR1Test, FiresOnDiscardedFallibleCall) {
  const auto findings = LintSnippet("src/common/a.cc", kR1Fires);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R1");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_NE(findings[0].message.find("Flush"), std::string::npos);
}

TEST(LintR1Test, SilentOnBoundReturnedOrWrappedCalls) {
  EXPECT_TRUE(LintSnippet("src/common/a.cc", kR1Clean).empty());
}

TEST(LintR1Test, CollectsNamesAcrossFiles) {
  // Declaration in one file, discarded call in another.
  Linter linter({});
  linter.AddFile("src/common/api.cc", "Status Sync();\n");
  linter.AddFile("src/core/use.cc", "void F() {\n  Sync();\n}\n");
  const auto findings = linter.Run();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/core/use.cc");
  EXPECT_EQ(findings[0].rule, "sgcl-R1");
}

TEST(LintR1Test, SilentOnContinuationLines) {
  // The call is the right-hand side of an assignment started above.
  constexpr char kSnippet[] = R"(
Status Flush(int fd);
void Caller() {
  const Status st =
      Flush(3);
  (void)st.ok();
}
)";
  EXPECT_TRUE(LintSnippet("src/common/a.cc", kSnippet).empty());
}

// ---- sgcl-R2: determinism --------------------------------------------

constexpr char kR2Fires[] = R"(
void Seeds() {
  int a = rand();
  srand(42);
  std::random_device rd;
  uint64_t s = static_cast<uint64_t>(time(nullptr));
  auto t = std::chrono::system_clock::now();
}
)";

constexpr char kR2Clean[] = R"(
void Seeds() {
  Rng rng(42);
  auto t0 = std::chrono::steady_clock::now();
  int grand_total = my_rand(7);  // identifiers merely containing 'rand'
  double time_delta = time_offset(3);
}
)";

TEST(LintR2Test, FiresOnEveryNondeterminismSource) {
  const auto findings = LintSnippet("src/core/b.cc", kR2Fires);
  ASSERT_EQ(findings.size(), 5u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "sgcl-R2");
    EXPECT_EQ(f.severity, Severity::kError);
  }
}

TEST(LintR2Test, SilentOnSeededRngAndSteadyClock) {
  EXPECT_TRUE(LintSnippet("src/core/b.cc", kR2Clean).empty());
}

TEST(LintR2Test, RngImplementationIsExemptByPath) {
  EXPECT_TRUE(LintSnippet("src/common/rng.cc", kR2Fires).empty());
}

TEST(LintR2Test, CommentsAndStringsDoNotFire) {
  constexpr char kSnippet[] =
      "// rand() in a comment\n"
      "const char* s = \"std::random_device\";\n"
      "/* time(nullptr) */\n";
  EXPECT_TRUE(LintSnippet("src/core/b.cc", kSnippet).empty());
}

// ---- sgcl-R3: side effects in checks ---------------------------------

constexpr char kR3Fires[] = R"(
void F(std::vector<int>* v, int i) {
  SGCL_CHECK(i++ < 3);
  SGCL_CHECK_EQ(i += 1, 2);
  SGCL_DCHECK(v->empty() || (i = 0));
  assert(v->size() > 0 && v->pop_back());
}
)";

constexpr char kR3Clean[] = R"(
void F(const std::vector<int>& v, int i) {
  SGCL_CHECK(i < 3);
  SGCL_CHECK_EQ(v.size(), 2u);
  SGCL_CHECK_GE(i, -1);
  SGCL_DCHECK(v.empty() == false);
  assert(i <= 3 && i >= 0);
  SGCL_CHECK(2 >= 1);
}
)";

TEST(LintR3Test, FiresOnSideEffectsInsideChecks) {
  const auto findings = LintSnippet("src/core/c.cc", kR3Fires);
  ASSERT_EQ(findings.size(), 4u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "sgcl-R3");
  EXPECT_NE(findings[0].message.find("increment"), std::string::npos);
  EXPECT_NE(findings[3].message.find("pop_back"), std::string::npos);
}

TEST(LintR3Test, SilentOnPureComparisons) {
  EXPECT_TRUE(LintSnippet("src/core/c.cc", kR3Clean).empty());
}

TEST(LintR3Test, HandlesMultiLineArguments) {
  constexpr char kSnippet[] = R"(
void F(int i) {
  SGCL_CHECK(i <
             (i = 7));
}
)";
  const auto findings = LintSnippet("src/core/c.cc", kSnippet);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R3");
  EXPECT_EQ(findings[0].line, 3);
}

// ---- sgcl-R4: header hygiene -----------------------------------------

TEST(LintR4Test, ExpectedGuardDerivesFromPath) {
  EXPECT_EQ(ExpectedIncludeGuard("src/common/lint.h"),
            "SGCL_COMMON_LINT_H_");
  EXPECT_EQ(ExpectedIncludeGuard("tests/test_util.h"),
            "SGCL_TESTS_TEST_UTIL_H_");
  EXPECT_EQ(ExpectedIncludeGuard("src/nn/gat_conv.h"),
            "SGCL_NN_GAT_CONV_H_");
}

TEST(LintR4Test, FiresOnWrongGuardName) {
  const auto findings = LintSnippet(
      "src/common/d.h", "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R4");
  EXPECT_NE(findings[0].message.find("SGCL_COMMON_D_H_"), std::string::npos);
}

TEST(LintR4Test, FiresOnMissingGuardAndMismatchedDefine) {
  EXPECT_EQ(Rules(LintSnippet("src/common/d.h", "int x;\n")),
            std::vector<std::string>{"sgcl-R4"});
  const auto findings = LintSnippet(
      "src/common/d.h",
      "#ifndef SGCL_COMMON_D_H_\n#define OTHER_H_\n#endif\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("matching #define"), std::string::npos);
}

TEST(LintR4Test, FiresOnUsingNamespaceInHeader) {
  const auto findings = LintSnippet(
      "src/common/d.h",
      "#ifndef SGCL_COMMON_D_H_\n#define SGCL_COMMON_D_H_\n"
      "using namespace std;\n#endif\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R4");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintR4Test, SilentOnConformingHeaderAndOnSourceFiles) {
  EXPECT_TRUE(LintSnippet("src/common/d.h",
                          "#ifndef SGCL_COMMON_D_H_\n"
                          "#define SGCL_COMMON_D_H_\n#endif\n")
                  .empty());
  // .cc files are exempt from R4 entirely.
  EXPECT_TRUE(
      LintSnippet("src/common/d.cc", "using namespace std;\n").empty());
}

// ---- sgcl-R5: naked new/delete ---------------------------------------

constexpr char kR5Fires[] = R"(
void F() {
  int* p = new int(3);
  delete p;
  auto* a = new int[4];
  delete[] a;
}
)";

constexpr char kR5Clean[] = R"(
struct T {
  T(const T&) = delete;
  T& operator=(const T&) = delete;
};
void F() {
  auto p = std::make_unique<int>(3);
  std::vector<int> v(4);
}
)";

TEST(LintR5Test, FiresOnNakedNewAndDelete) {
  const auto findings = LintSnippet("src/core/e.cc", kR5Fires);
  ASSERT_EQ(findings.size(), 4u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "sgcl-R5");
}

TEST(LintR5Test, SilentOnDeletedFunctionsAndSmartPointers) {
  EXPECT_TRUE(LintSnippet("src/core/e.cc", kR5Clean).empty());
}

// ---- sgcl-R6: raw writes in checkpoint paths -------------------------

constexpr char kR6Fires[] = R"(
void Save(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}
)";

constexpr char kR6FiresCstdio[] = R"(
void Save(const char* path, const char* data, size_t n) {
  FILE* f = fopen(path, "wb");
  fwrite(data, 1, n, f);
}
)";

constexpr char kR6Clean[] = R"(
Status Save(const std::string& path, const std::string& bytes) {
  return AtomicWriteFile(path, bytes);
}
Result<std::string> Load(const std::string& path) {
  std::string bytes;
  SGCL_RETURN_NOT_OK(ReadFileToString(path, &bytes));
  return bytes;
}
)";

TEST(LintR6Test, FiresOnRawOfstreamInCheckpointSources) {
  const auto findings = LintSnippet("src/core/train_state.cc", kR6Fires);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R6");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find("AtomicWriteFile"), std::string::npos);
}

TEST(LintR6Test, FiresOnFopenAndFwrite) {
  const auto findings = LintSnippet("src/nn/checkpoint.cc", kR6FiresCstdio);
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "sgcl-R6");
}

TEST(LintR6Test, SilentOnAtomicWritePathAndReads) {
  EXPECT_TRUE(LintSnippet("src/nn/checkpoint.cc", kR6Clean).empty());
}

// ---- sgcl-R7: blocking I/O in the serving layer ----------------------

constexpr char kR7Fires[] = R"(
Status Reload(const std::string& path, SgclModel* model) {
  return LoadCheckpoint(path, model);
}
)";

constexpr char kR7FiresStream[] = R"(
void Dump(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}
)";

TEST(LintR7Test, FiresOnCheckpointLoadInServeSources) {
  const auto findings = LintSnippet("src/serve/service.cc", kR7Fires);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R7");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find("serving layer"), std::string::npos);
}

TEST(LintR7Test, FiresOnRawStreamsInServeSources) {
  const auto findings = LintSnippet("src/serve/batcher.cc", kR7FiresStream);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "sgcl-R7");
}

TEST(LintR7Test, ToolsAndTestsAreOutOfScope) {
  // The CLI legitimately loads the checkpoint before handing the model
  // to the service; serve tests may read fixture files.
  EXPECT_TRUE(LintSnippet("tools/sgcl_cli.cc", kR7Fires).empty());
  EXPECT_TRUE(LintSnippet("tests/serve/service_test.cc", kR7Fires).empty());
  EXPECT_TRUE(LintSnippet("src/nn/gin_inference.cc", kR7Fires).empty());
}

TEST(LintR6Test, NonCheckpointAndTestFilesAreExempt) {
  // Same raw write elsewhere in the tree: not a checkpoint path.
  EXPECT_TRUE(LintSnippet("src/common/io.cc", kR6Fires).empty());
  // Corruption tests write torn checkpoint files on purpose.
  EXPECT_TRUE(
      LintSnippet("tests/core/train_state_test.cc", kR6Fires).empty());
}

// ---- suppression and allowlist ---------------------------------------

TEST(LintSuppressionTest, InlineNolintSilencesNamedRule) {
  constexpr char kSnippet[] =
      "void F() {\n"
      "  int* p = new int(3);  // NOLINT(sgcl-R5): pool-owned\n"
      "}\n";
  EXPECT_TRUE(LintSnippet("src/core/f.cc", kSnippet).empty());
}

TEST(LintSuppressionTest, NolintNextLineAndBareNolint) {
  constexpr char kNextLine[] =
      "void F() {\n"
      "  // NOLINTNEXTLINE(sgcl-R5)\n"
      "  int* p = new int(3);\n"
      "}\n";
  EXPECT_TRUE(LintSnippet("src/core/f.cc", kNextLine).empty());
  constexpr char kBare[] =
      "void F() {\n"
      "  int* p = new int(3);  // NOLINT\n"
      "}\n";
  EXPECT_TRUE(LintSnippet("src/core/f.cc", kBare).empty());
}

TEST(LintSuppressionTest, NolintForOtherRuleDoesNotSuppress) {
  constexpr char kSnippet[] =
      "void F() {\n"
      "  int* p = new int(3);  // NOLINT(sgcl-R2)\n"
      "}\n";
  EXPECT_EQ(Rules(LintSnippet("src/core/f.cc", kSnippet)),
            std::vector<std::string>{"sgcl-R5"});
}

TEST(LintAllowlistTest, FileRulePairExemptsOnlyThatFile) {
  LintOptions options;
  options.allow.emplace_back("src/core/g.cc", "sgcl-R5");
  constexpr char kSnippet[] = "void F() { int* p = new int(3); }\n";
  EXPECT_TRUE(LintSnippet("src/core/g.cc", kSnippet, options).empty());
  EXPECT_EQ(LintSnippet("src/core/h.cc", kSnippet, options).size(), 1u);
}

// ---- report formats --------------------------------------------------

TEST(LintReportTest, TextAndJsonAreDeterministicAndParseable) {
  Linter linter({});
  linter.AddFile("src/z.cc", "void F() { int* p = new int(1); }\n");
  linter.AddFile("src/a.cc", "void F() { int* p = new int(1); }\n");
  const auto findings = linter.Run();
  ASSERT_EQ(findings.size(), 2u);
  // Sorted by file regardless of AddFile order.
  EXPECT_EQ(findings[0].file, "src/a.cc");
  EXPECT_EQ(findings[1].file, "src/z.cc");

  const std::string text = FormatText(findings);
  EXPECT_NE(text.find("src/a.cc:1: error: [sgcl-R5]"), std::string::npos);

  // The JSON report round-trips through the in-repo parser.
  auto parsed = JsonValue::Parse(FormatJson(findings));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetDouble("count"), 2.0);
  const JsonValue* list = parsed->Find("findings");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->AsArray().size(), 2u);
  EXPECT_EQ(list->AsArray()[0].GetString("file"), "src/a.cc");
  EXPECT_EQ(list->AsArray()[0].GetString("rule"), "sgcl-R5");
  EXPECT_EQ(list->AsArray()[0].GetString("severity"), "error");
}

TEST(LintReportTest, EmptyFindingsJson) {
  auto parsed = JsonValue::Parse(FormatJson({}));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetDouble("count"), 0.0);
}

// ---- golden report ---------------------------------------------------

// A corpus of the awkward cases: statements split over lines, literals
// and comments holding rule triggers, directive bodies, suppressions in
// every position. The whole report (findings, stale suppressions, fix
// edits) is pinned byte for byte, so a change to any line number,
// column or message shows up here.
constexpr char kGoldenHeader[] = R"cc(#ifndef GOLDEN_WRONG_H
#define GOLDEN_WRONG_H
#include <map>
using namespace std;  // NOLINT(sgcl-R5)
namespace golden {
Status Save(int fd);
Result<std::map<int,
                int>> LoadMany(int fd);
Result<int> ReadOne(int fd);
}  // namespace golden
#endif  // GOLDEN_WRONG_H
)cc";

constexpr char kGoldenDefineHeader[] = R"cc(#ifndef SGCL_CORE_GOLDEN_DEFINE_H_
#define OTHER_GUARD_H_  // NOLINT
#endif
)cc";

constexpr char kGoldenSource[] = R"cc(#include "core/golden.h"
#define SEED_IT() srand(1)
#define MAKE_IT(T) \
  new T
#define CHECK_IT(x) SGCL_CHECK(x++)
namespace golden {
const char* kDoc = "x;  // NOLINT(sgcl-R2)";
void Use(int* p, int i) {
  Save(3);
  Save(
      4);
  int x = 1'000'000; int y = rand();
  const char* raw = R"(rand() new int // NOLINT)";
  /* rand() new int // */ int z = 0;
  SGCL_CHECK(i <
             (i <<= 2));
  SGCL_CHECK(f(g(i)) == (i = 3));
  delete[] p;
  long t = time(0);
  const bool q =
      Save(5).ok();
  Save(6),
      Save(7);
  ReadOne(2);
  LoadMany(2);
  std::random_device rd; auto now = std::chrono::system_clock::now();
}
struct S {
  S(const S&) = delete;
  void* operator new(size_t n);
  S(int v);  // NOLINT(google-explicit-constructor)
};
// Prose mentioning NOLINT(sgcl-R5) is not a directive.
/* NOLINT(sgcl-R5) */ int* leak = new int(1);
// NOLINTNEXTLINE(google-explicit-constructor)
S::S(int v) {}
int* w = new int(2);  // NOLINT(sgcl-R5): pool-owned
int* u = new int(3);  // NOLINT(sgcl-R2)
}  // namespace golden
// NOLINTNEXTLINE(sgcl-R5))cc";

constexpr char kGoldenServe[] = R"cc(#include <atomic>
void Reload() { auto m = LoadCheckpoint("x"); std::ifstream in("y"); }
std::atomic<int> hits{0};
int Hits() { return hits.load(); }
)cc";

constexpr char kGoldenCheckpoint[] = R"cc(void Write(const char* b, size_t n) {
  FILE* f = fopen("p", "wb");
  fwrite(b, 1, n, f);
  std::ofstream out("q");  // NOLINT(sgcl-R6): test-only path
  int* scratch = new int[4];
}
)cc";

constexpr char kGoldenReport[] =
    R"golden({"count":25,"findings":[)golden"
    R"golden({"file":"src/core/golden.cc","line":2,"rule":"sgcl-R2","severity":"error","message":"srand() breaks bitwise determinism; use common/rng (seeded PRNG) or add an allowlist entry for legitimate wall-clock use"},)golden"
    R"golden({"file":"src/core/golden.cc","line":4,"rule":"sgcl-R5","severity":"error","message":"naked 'new': use make_unique/containers, or suppress for intentionally leaked singletons"},)golden"
    R"golden({"file":"src/core/golden.cc","line":9,"rule":"sgcl-R1","severity":"warning","message":"result of fallible call 'Save' is discarded; bind it, return it, or wrap it in a check macro"},)golden"
    R"golden({"file":"src/core/golden.cc","line":12,"rule":"sgcl-R2","severity":"error","message":"rand() breaks bitwise determinism; use common/rng (seeded PRNG) or add an allowlist entry for legitimate wall-clock use"},)golden"
    R"golden({"file":"src/core/golden.cc","line":15,"rule":"sgcl-R3","severity":"error","message":"compound assignment inside SGCL_CHECK: checks must be side-effect free (they compile out or abort)"},)golden"
    R"golden({"file":"src/core/golden.cc","line":17,"rule":"sgcl-R3","severity":"error","message":"assignment inside SGCL_CHECK: checks must be side-effect free (they compile out or abort)"},)golden"
    R"golden({"file":"src/core/golden.cc","line":18,"rule":"sgcl-R5","severity":"error","message":"naked 'delete': owning pointers belong in unique_ptr"},)golden"
    R"golden({"file":"src/core/golden.cc","line":19,"rule":"sgcl-R2","severity":"error","message":"time(nullptr)-style seeding breaks bitwise determinism; use common/rng (seeded PRNG) or add an allowlist entry for legitimate wall-clock use"},)golden"
    R"golden({"file":"src/core/golden.cc","line":24,"rule":"sgcl-R1","severity":"warning","message":"result of fallible call 'ReadOne' is discarded; bind it, return it, or wrap it in a check macro"},)golden"
    R"golden({"file":"src/core/golden.cc","line":26,"rule":"sgcl-R2","severity":"error","message":"std::chrono::system_clock breaks bitwise determinism; use common/rng (seeded PRNG) or add an allowlist entry for legitimate wall-clock use"},)golden"
    R"golden({"file":"src/core/golden.cc","line":26,"rule":"sgcl-R2","severity":"error","message":"std::random_device breaks bitwise determinism; use common/rng (seeded PRNG) or add an allowlist entry for legitimate wall-clock use"},)golden"
    R"golden({"file":"src/core/golden.cc","line":38,"rule":"sgcl-R5","severity":"error","message":"naked 'new': use make_unique/containers, or suppress for intentionally leaked singletons"},)golden"
    R"golden({"file":"src/core/golden.cc","line":38,"rule":"sgcl-nolint","severity":"warning","message":"NOLINT(sgcl-R2) suppresses nothing here; remove it"},)golden"
    R"golden({"file":"src/core/golden.cc","line":40,"rule":"sgcl-nolint","severity":"warning","message":"NOLINT(sgcl-R5) suppresses nothing here; remove it"},)golden"
    R"golden({"file":"src/core/golden.h","line":1,"rule":"sgcl-R4","severity":"error","message":"include guard 'GOLDEN_WRONG_H' does not match path (expected SGCL_CORE_GOLDEN_H_)"},)golden"
    R"golden({"file":"src/core/golden.h","line":4,"rule":"sgcl-R4","severity":"error","message":"'using namespace' in a header leaks into every includer"},)golden"
    R"golden({"file":"src/core/golden.h","line":4,"rule":"sgcl-nolint","severity":"warning","message":"NOLINT(sgcl-R5) suppresses nothing here; remove it"},)golden"
    R"golden({"file":"src/core/golden_define.h","line":1,"rule":"sgcl-R4","severity":"error","message":"#ifndef SGCL_CORE_GOLDEN_DEFINE_H_ is not followed by a matching #define"},)golden"
    R"golden({"file":"src/core/golden_define.h","line":2,"rule":"sgcl-nolint","severity":"warning","message":"NOLINT(*) suppresses nothing here; remove it"},)golden"
    R"golden({"file":"src/nn/golden_checkpoint.cc","line":2,"rule":"sgcl-R6","severity":"error","message":"raw 'fopen' in a checkpoint path bypasses the atomic-write API; persist through AtomicWriteFile (common/io.h) so a crash can never publish a torn checkpoint"},)golden"
    R"golden({"file":"src/nn/golden_checkpoint.cc","line":3,"rule":"sgcl-R6","severity":"error","message":"raw 'fwrite' in a checkpoint path bypasses the atomic-write API; persist through AtomicWriteFile (common/io.h) so a crash can never publish a torn checkpoint"},)golden"
    R"golden({"file":"src/serve/golden_serve.cc","line":2,"rule":"sgcl-R7","severity":"error","message":"'LoadCheckpoint' in the serving layer: src/serve/ must not touch the filesystem — load checkpoints and datasets in the CLI before ServeService::Start so request handlers never block on disk"},)golden"
    R"golden({"file":"src/serve/golden_serve.cc","line":2,"rule":"sgcl-R7","severity":"error","message":"'ifstream' in the serving layer: src/serve/ must not touch the filesystem — load checkpoints and datasets in the CLI before ServeService::Start so request handlers never block on disk"},)golden"
    R"golden({"file":"src/serve/golden_serve.cc","line":4,"rule":"sgcl-R10","severity":"warning","message":"atomic load() without an explicit memory order defaults to seq_cst on a hot path; spell the ordering (std::memory_order_seq_cst if that is really what you want)"},)golden"
    R"golden({"file":"tools/golden_allowlist.txt","line":9,"rule":"sgcl-nolint","severity":"warning","message":"allowlist entry 'src/core/missing.cc:sgcl-R2' no longer suppresses anything; delete it"})golden"
    R"golden(]}
)golden"
    "src/core/golden.h:1:8:14:SGCL_CORE_GOLDEN_H_\n"
    "src/core/golden.h:2:8:14:SGCL_CORE_GOLDEN_H_\n"
    "src/core/golden.h:11:11:14:SGCL_CORE_GOLDEN_H_\n"
    "src/core/golden_define.h:2:8:14:SGCL_CORE_GOLDEN_DEFINE_H_\n"
    "src/serve/golden_serve.cc:4:30:0:std::memory_order_seq_cst\n";

TEST(LintGoldenTest, ReportAndFixesAreByteStable) {
  LintOptions options;
  options.report_stale_nolint = true;
  options.allowlist_path = "tools/golden_allowlist.txt";
  options.allow.push_back({"src/nn/golden_checkpoint.cc", "sgcl-R5", 4});
  options.allow.push_back({"src/core/missing.cc", "sgcl-R2", 9});
  Linter linter(options);
  linter.AddFile("src/serve/golden_serve.cc", kGoldenServe);
  linter.AddFile("src/core/golden.h", kGoldenHeader);
  linter.AddFile("src/core/golden_define.h", kGoldenDefineHeader);
  linter.AddFile("src/core/golden.cc", kGoldenSource);
  linter.AddFile("src/nn/golden_checkpoint.cc", kGoldenCheckpoint);
  const std::vector<Finding> findings = linter.Run();
  std::string report = FormatJson(findings);
  for (const Finding& f : findings) {
    for (const FixEdit& e : f.fixes) {
      report += f.file + ":" + std::to_string(e.line) + ":" +
                std::to_string(e.col) + ":" + std::to_string(e.len) + ":" +
                e.replacement + "\n";
    }
  }
  EXPECT_EQ(report, kGoldenReport);
}

}  // namespace
}  // namespace sgcl::lint
