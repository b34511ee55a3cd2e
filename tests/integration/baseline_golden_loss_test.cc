// Golden per-epoch losses, pinned as hex floats, for every trained
// baseline in RegisteredPretrainerNames(), plus JOAOv2's final
// augmentation weights. Thirteen graphs at batch 4 give three batches
// per epoch and a dropped size-1 tail, so a change to the shuffle, the
// batching rule, the step order or the epoch hook of the training loop
// fails here.
//
// Bits are pinned for the ISA they were recorded on, under the same rule
// as golden_loss_test.cc: exact on the x86-64-v4 clone, 1e-3 relative
// elsewhere. On a mismatch the test prints the actual values as literals,
// ready to paste.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/joao.h"
#include "baselines/registry.h"
#include "data/synthetic_molecule.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

// Mirrors the SGCL_TARGET_CLONES condition in common/simd.h: true when
// this binary runs the x86-64-v4 clone the goldens were recorded with.
bool RunsRecordedIsa() {
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__) &&         \
    !defined(__SANITIZE_ADDRESS__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v4") != 0;
#else
  return false;
#endif
}

template <typename T>
std::string HexLiterals(const std::vector<T>& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%a%s", i == 0 ? "" : ", ",
                  static_cast<double>(values[i]),
                  sizeof(T) == sizeof(float) ? "f" : "");
    out += buf;
  }
  return out + "}";
}

template <typename T>
void ExpectGolden(const std::string& what, const std::vector<T>& actual,
                  const std::vector<T>& golden) {
  ASSERT_EQ(actual.size(), golden.size())
      << what << " actual " << HexLiterals(actual);
  if (RunsRecordedIsa()) {
    EXPECT_EQ(actual, golden) << what << " actual " << HexLiterals(actual);
    return;
  }
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_NEAR(actual[i], golden[i], 1e-3 * std::fabs(golden[i]))
        << what << " [" << i << "], actual " << HexLiterals(actual);
  }
}

// Pretrainer::Pretrain once returned a bare PretrainStats and now
// returns a Result; accepting both lets one unedited test pin the losses
// on either side of that change.
[[maybe_unused]] PretrainStats StatsOf(PretrainStats stats) { return stats; }
[[maybe_unused]] PretrainStats StatsOf(Result<PretrainStats> stats) {
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return stats.ok() ? *stats : PretrainStats{};
}

constexpr uint64_t kSeed = 29;

BaselineConfig GoldenConfig() {
  BaselineConfig cfg;
  cfg.encoder.arch = GnnArch::kGin;
  cfg.encoder.in_dim = kMoleculeFeatDim;
  cfg.encoder.hidden_dim = 8;
  cfg.encoder.num_layers = 2;
  cfg.batch_size = 4;
  cfg.epochs = 3;
  return cfg;
}

// Runs `name` from the registry over 13 ZINC-like graphs: three
// batches of four per epoch, and a size-1 tail the loop drops.
std::unique_ptr<Pretrainer> TrainGolden(const std::string& name,
                                        PretrainStats* stats) {
  const GraphDataset ds = MakeZincLikeDataset(/*num_graphs=*/13, /*seed=*/41);
  auto method = MakePretrainer(name, GoldenConfig(),
                               MakeUnsupervisedConfig(kMoleculeFeatDim),
                               kSeed);
  EXPECT_TRUE(method.ok()) << name;
  if (!method.ok()) return nullptr;
  *stats = StatsOf((*method)->Pretrain(ds, {}));
  return std::move(*method);
}

// Per-epoch losses of every trained method, keyed by registry name.
std::map<std::string, std::vector<float>> GoldenLosses() {
  return {
      {"InfoGraph", {0x1.8043fap+3f, 0x1.06282cp+3f, 0x1.427658p+2f}},
      {"Infomax", {0x1.8043fap+3f, 0x1.06282cp+3f, 0x1.427658p+2f}},
      {"GraphCL", {0x1.103fbp+0f, 0x1.0c1d9ep+0f, 0x1.fa4734p-1f}},
      {"JOAOv2", {0x1.0f770ep+0f, 0x1.05144cp+0f, 0x1.ee497ep-1f}},
      {"AD-GCL", {0x1.068ef6p+0f, 0x1.e929b4p-1f, 0x1.ee1e84p-1f}},
      {"SimGRACE", {0x1.0a347cp+0f, 0x1.fa1ba6p-1f, 0x1.c1febep-1f}},
      {"RGCL", {0x1.2c9c32p+0f, 0x1.25d10ep+0f, 0x1.1bdce6p+0f}},
      {"AutoGCL", {0x1.092b58p+0f, 0x1.0ab2d8p+0f, 0x1.d98cb6p-1f}},
      {"AttrMasking", {0x1.27c3ccp+1f, 0x1.244614p+1f, 0x1.29069cp+1f}},
      {"ContextPred", {0x1.771ae8p-1f, 0x1.6c8226p-1f, 0x1.62fe18p-1f}},
      {"GAE", {0x1.edaad2p-1f, 0x1.bceebep-1f, 0x1.906954p-1f}},
  };
}

TEST(BaselineGoldenLossTest, EveryTrainedMethod) {
  const std::map<std::string, std::vector<float>> goldens = GoldenLosses();
  int pinned = 0;
  for (const std::string& name : RegisteredPretrainerNames()) {
    if (name == "SGCL" || name == "No Pre-Train") continue;
    SCOPED_TRACE(name);
    const auto golden = goldens.find(name);
    ASSERT_NE(golden, goldens.end()) << name << " has no golden row";
    PretrainStats stats;
    ASSERT_NE(TrainGolden(name, &stats), nullptr);
    ExpectGolden(name, stats.epoch_losses, golden->second);
    ++pinned;
  }
  EXPECT_EQ(pinned, 11);
}

TEST(BaselineGoldenLossTest, JoaoAugmentationWeights) {
  PretrainStats stats;
  std::unique_ptr<Pretrainer> method = TrainGolden("JOAOv2", &stats);
  const auto* joao = dynamic_cast<const JoaoBaseline*>(method.get());
  ASSERT_NE(joao, nullptr);
  ExpectGolden<double>("JOAOv2 aug_weights", joao->aug_weights(),
                       {0x1.4p+0, 0x1.29ff725c25726p+0, 0x1.29ff725c25726p+0,
                        0x1.37a55e2871bcp-1});
}

}  // namespace
}  // namespace sgcl
