// Integration tests for the full SGCL model and trainer: the objective is
// finite and decreases, gradients reach both towers, ablation flags alter
// the computation, and embeddings are usable downstream.
#include "core/sgcl_model.h"

#include <cmath>
#include <map>

#include "common/trace.h"
#include "core/sgcl_trainer.h"
#include "data/synthetic_tu.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"

namespace sgcl {
namespace {

GraphDataset SmallDataset(uint64_t seed = 17) {
  SyntheticTuOptions opt;
  opt.graph_fraction = 0.05;  // ~20 MUTAG-like graphs
  opt.node_cap = 20;
  opt.seed = seed;
  return MakeTuDataset(TuDataset::kMutag, opt);
}

SgclConfig SmallConfig(int64_t feat_dim) {
  SgclConfig cfg = MakeUnsupervisedConfig(feat_dim);
  cfg.encoder.hidden_dim = 16;
  cfg.encoder.num_layers = 2;
  cfg.proj_dim = 16;
  cfg.batch_size = 8;
  cfg.epochs = 3;
  return cfg;
}

std::vector<const Graph*> FirstGraphs(const GraphDataset& ds, int n) {
  std::vector<const Graph*> out;
  for (int i = 0; i < n; ++i) out.push_back(&ds.graph(i));
  return out;
}

TEST(SgclModelTest, LossIsFiniteAndPositive) {
  GraphDataset ds = SmallDataset();
  Rng rng(1);
  SgclModel model(SmallConfig(ds.feat_dim()), &rng);
  SgclLossStats stats;
  Tensor loss = model.ComputeLoss(FirstGraphs(ds, 6), &rng, &stats);
  EXPECT_TRUE(std::isfinite(loss.item()));
  EXPECT_GT(stats.total, 0.0f);
  EXPECT_GT(stats.semantic, 0.0f);
  EXPECT_GT(stats.complement, 0.0f);
  EXPECT_GT(stats.weight_norm, 0.0f);
  // Total = L_s + lambda_c L_c + lambda_W Theta_W + the generator-tower
  // term; with an untrained model every InfoNCE term is close to
  // log(batch), so the total clearly exceeds the Eq. 27 partial sum minus
  // slack.
  EXPECT_GT(stats.total, 0.5f * stats.semantic);
}

TEST(SgclModelTest, GradientsReachBothTowersAndHeads) {
  GraphDataset ds = SmallDataset();
  Rng rng(2);
  SgclModel model(SmallConfig(ds.feat_dim()), &rng);
  for (Tensor& p : model.Parameters()) p.ZeroGrad();
  Tensor loss = model.ComputeLoss(FirstGraphs(ds, 6), &rng);
  loss.Backward();
  auto grad_mass = [](const std::vector<Tensor>& params) {
    double total = 0.0;
    for (const Tensor& p : params) {
      for (float g : p.impl()->grad) total += std::fabs(g);
    }
    return total;
  };
  EXPECT_GT(grad_mass(model.encoder_k().Parameters()), 1e-8)
      << "f_k got no gradient";
  EXPECT_GT(grad_mass(model.encoder_q().Parameters()), 1e-8)
      << "f_q got no gradient (soft-mask path broken)";
}

TEST(SgclModelTest, AblationFlagsChangeTheObjective) {
  GraphDataset ds = SmallDataset();
  auto graphs = FirstGraphs(ds, 6);
  SgclConfig base_cfg = SmallConfig(ds.feat_dim());

  Rng rng_a(3);
  SgclModel full(base_cfg, &rng_a);
  Rng rng_use(10);
  SgclLossStats full_stats;
  (void)full.ComputeLoss(graphs, &rng_use, &full_stats);

  SgclConfig no_lc = base_cfg;
  no_lc.lambda_c = 0.0f;
  Rng rng_b(3);
  SgclModel m_no_lc(no_lc, &rng_b);
  Rng rng_use2(10);
  SgclLossStats s_no_lc;
  (void)m_no_lc.ComputeLoss(graphs, &rng_use2, &s_no_lc);
  EXPECT_EQ(s_no_lc.complement, 0.0f);

  SgclConfig no_lw = base_cfg;
  no_lw.lambda_w = 0.0f;
  Rng rng_c(3);
  SgclModel m_no_lw(no_lw, &rng_c);
  Rng rng_use3(10);
  SgclLossStats s_no_lw;
  (void)m_no_lw.ComputeLoss(graphs, &rng_use3, &s_no_lw);
  EXPECT_EQ(s_no_lw.weight_norm, 0.0f);

  SgclConfig random_aug = base_cfg;
  random_aug.augmentation = AugmentationMode::kRandom;
  Rng rng_d(3);
  SgclModel m_rand(random_aug, &rng_d);
  Rng rng_use4(10);
  Tensor loss_rand = m_rand.ComputeLoss(graphs, &rng_use4);
  EXPECT_TRUE(std::isfinite(loss_rand.item()));
}

TEST(SgclModelTest, EmbeddingsHaveExpectedShapeAndNoGrad) {
  GraphDataset ds = SmallDataset();
  Rng rng(4);
  SgclConfig cfg = SmallConfig(ds.feat_dim());
  SgclModel model(cfg, &rng);
  Tensor emb = model.EmbedGraphs(FirstGraphs(ds, 5));
  EXPECT_EQ(emb.rows(), 5);
  EXPECT_EQ(emb.cols(), cfg.encoder.hidden_dim);
  EXPECT_FALSE(emb.requires_grad());
}

TEST(SgclModelTest, PreservationProbsRespectBinarization) {
  GraphDataset ds = SmallDataset();
  Rng rng(5);
  SgclModel model(SmallConfig(ds.feat_dim()), &rng);
  const Graph& g = ds.graph(0);
  std::vector<float> k = model.NodeLipschitzConstants(g);
  std::vector<float> p = model.NodePreservationProbs(g);
  ASSERT_EQ(k.size(), p.size());
  std::vector<uint8_t> binary = BinarizeLipschitz(k);
  for (size_t v = 0; v < p.size(); ++v) {
    if (binary[v]) {
      EXPECT_FLOAT_EQ(p[v], 1.0f);
    } else {
      EXPECT_GE(p[v], 0.0f);
      EXPECT_LE(p[v], 1.0f);
    }
  }
}

TEST(SgclTrainerTest, LossDecreasesOverPretraining) {
  GraphDataset ds = SmallDataset(99);
  SgclConfig cfg = SmallConfig(ds.feat_dim());
  cfg.epochs = 8;
  SgclTrainer trainer(cfg, /*seed=*/7);
  PretrainStats stats = trainer.Pretrain(ds).value();
  ASSERT_EQ(stats.epoch_losses.size(), 8u);
  for (float l : stats.epoch_losses) EXPECT_TRUE(std::isfinite(l));
  // Averaged late loss below averaged early loss.
  const float early = (stats.epoch_losses[0] + stats.epoch_losses[1]) / 2.0f;
  const float late = (stats.epoch_losses[6] + stats.epoch_losses[7]) / 2.0f;
  EXPECT_LT(late, early + 0.05f);
}

TEST(SgclTrainerTest, PretrainOnSubsetOnly) {
  GraphDataset ds = SmallDataset(123);
  SgclConfig cfg = SmallConfig(ds.feat_dim());
  cfg.epochs = 2;
  SgclTrainer trainer(cfg, 8);
  PretrainStats stats = trainer.Pretrain(ds, {0, 1, 2, 3, 4, 5}).value();
  EXPECT_EQ(stats.epoch_losses.size(), 2u);
}

TEST(SgclModelTest, ExactGeneratorModeWorksEndToEnd) {
  GraphDataset ds = SmallDataset(55);
  SgclConfig cfg = SmallConfig(ds.feat_dim());
  cfg.lipschitz_mode = LipschitzMode::kExact;
  Rng rng(9);
  SgclModel model(cfg, &rng);
  Tensor loss = model.ComputeLoss(FirstGraphs(ds, 4), &rng);
  EXPECT_TRUE(std::isfinite(loss.item()));
}

TEST(SgclModelTest, LossSpanCoversNoEncoderPass) {
  // Every encoder pass the losses need runs under its own "encode" span,
  // so the "loss" stage times only the loss math. Parent links of a
  // sampled trace show the nesting exactly, whatever the clock says.
  GraphDataset ds = SmallDataset();
  Rng rng(5);
  SgclConfig cfg = SmallConfig(ds.feat_dim());
  cfg.lambda_c = 0.01f;
  cfg.generator_loss_weight = 0.5f;
  SgclModel model(cfg, &rng);
  TraceCollector& collector = TraceCollector::Global();
  collector.Clear();
  collector.SetSampleRate(1.0);
  const TraceContext ctx = collector.MaybeStartTrace();
  ASSERT_TRUE(ctx.valid());
  {
    ScopedTraceContext install(ctx);
    TraceSpan root("test/batch");
    (void)model.ComputeLoss(FirstGraphs(ds, 6), &rng);
  }
  collector.SetSampleRate(0.0);
  const auto traces = collector.Traces();
  collector.Clear();
  ASSERT_EQ(traces.size(), 1u);
  std::map<uint64_t, const TraceCollector::Span*> by_id;
  for (const auto& s : traces[0].spans) by_id[s.span_id] = &s;
  int encode_spans = 0;
  int loss_spans = 0;
  for (const auto& s : traces[0].spans) {
    if (s.name == "loss") ++loss_spans;
    if (s.name != "encode") continue;
    ++encode_spans;
    for (auto it = by_id.find(s.parent_span_id); it != by_id.end();
         it = by_id.find(it->second->parent_span_id)) {
      EXPECT_NE(it->second->name, "loss") << "an encode span runs inside loss";
    }
  }
  // f_q on the anchor, f_k on the anchor and sample views, f_q on the
  // sample view (generator loss), f_k on the complement view.
  EXPECT_EQ(encode_spans, 4);
  EXPECT_GE(loss_spans, 1);
}

}  // namespace
}  // namespace sgcl
