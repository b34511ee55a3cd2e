#include "baselines/registry.h"

#include "data/synthetic_tu.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

BaselineConfig SmallBaselineConfig(int64_t feat_dim) {
  BaselineConfig cfg;
  cfg.encoder.arch = GnnArch::kGin;
  cfg.encoder.in_dim = feat_dim;
  cfg.encoder.hidden_dim = 8;
  cfg.encoder.num_layers = 2;
  cfg.epochs = 1;
  cfg.batch_size = 8;
  return cfg;
}

TEST(RegistryTest, EveryRegisteredNameConstructs) {
  SgclConfig sgcl_cfg = MakeUnsupervisedConfig(8);
  sgcl_cfg.encoder.hidden_dim = 8;
  sgcl_cfg.encoder.num_layers = 2;
  sgcl_cfg.proj_dim = 8;
  for (const std::string& name : RegisteredPretrainerNames()) {
    auto method =
        MakePretrainer(name, SmallBaselineConfig(8), sgcl_cfg, /*seed=*/1);
    ASSERT_TRUE(method.ok()) << name;
    EXPECT_EQ((*method)->name(), name);
    EXPECT_NE((*method)->mutable_encoder(), nullptr) << name;
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  SgclConfig sgcl_cfg = MakeUnsupervisedConfig(8);
  auto method = MakePretrainer("DoesNotExist", SmallBaselineConfig(8),
                               sgcl_cfg, 1);
  EXPECT_FALSE(method.ok());
  EXPECT_EQ(method.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, ConstructedMethodsCanTrainOneEpoch) {
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.05;
  opt.node_cap = 12;
  opt.seed = 44;
  GraphDataset ds = MakeTuDataset(TuDataset::kMutag, opt);
  SgclConfig sgcl_cfg = MakeUnsupervisedConfig(ds.feat_dim());
  sgcl_cfg.encoder.hidden_dim = 8;
  sgcl_cfg.encoder.num_layers = 2;
  sgcl_cfg.proj_dim = 8;
  sgcl_cfg.epochs = 1;
  sgcl_cfg.batch_size = 8;
  // A representative subset (full sweep lives in pretrainers_test).
  for (const std::string name : {"SGCL", "GraphCL", "GAE", "Infomax"}) {
    auto method = MakePretrainer(name, SmallBaselineConfig(ds.feat_dim()),
                                 sgcl_cfg, 2);
    ASSERT_TRUE(method.ok()) << name;
    (*method)->Pretrain(ds, {}).value();
    Tensor emb = (*method)->EmbedGraphs({&ds.graph(0), &ds.graph(1)});
    EXPECT_EQ(emb.rows(), 2) << name;
  }
}

}  // namespace
}  // namespace sgcl
