// Host-independent cost of one SGCL training step. Time depends on the
// host; these counters do not, so a change that adds tape nodes or
// buffer bytes to the step shows here on any machine:
//   tensor/tape_nodes        op outputs wired into the tape
//   tensor/data_bytes        data buffer bytes handed to tensors
//   tensor/grad_bytes        gradient buffer bytes handed to tensors
//   tensor/buffer_heap_bytes bytes the recycler newly took from the heap
//   tensor/matmul_flops      forward matmul flops
// The step is the train_mol model (GIN, hidden 64, 3 layers) on one fixed
// batch of 32 ZINC-like molecules: ComputeLoss, Backward, ZeroGrad. A
// change that moves a pin on purpose updates it and says why.
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "core/sgcl_model.h"
#include "data/synthetic_molecule.h"
#include "gtest/gtest.h"
#include "nn/gin_conv.h"
#include "tensor/ops.h"

namespace sgcl {
namespace {

struct Counts {
  int64_t tape_nodes = 0;
  int64_t data_bytes = 0;
  int64_t grad_bytes = 0;
  int64_t heap_bytes = 0;
  int64_t matmul_flops = 0;
};

Counts Read() {
  MetricsRegistry& r = MetricsRegistry::Global();
  return {r.GetCounter("tensor/tape_nodes")->value(),
          r.GetCounter("tensor/data_bytes")->value(),
          r.GetCounter("tensor/grad_bytes")->value(),
          r.GetCounter("tensor/buffer_heap_bytes")->value(),
          r.GetCounter("tensor/matmul_flops")->value()};
}

Counts Since(const Counts& before) {
  const Counts now = Read();
  return {now.tape_nodes - before.tape_nodes,
          now.data_bytes - before.data_bytes,
          now.grad_bytes - before.grad_bytes,
          now.heap_bytes - before.heap_bytes,
          now.matmul_flops - before.matmul_flops};
}

TEST(StepCountersTest, OneFixedSgclStep) {
  const GraphDataset dataset = MakeZincLikeDataset(32, /*seed=*/3);
  std::vector<const Graph*> graphs;
  for (int64_t i = 0; i < dataset.size(); ++i) graphs.push_back(&dataset.graph(i));
  SgclConfig config = MakeUnsupervisedConfig(kMoleculeFeatDim);
  config.encoder.hidden_dim = 64;
  config.encoder.num_layers = 3;
  config.proj_dim = 64;
  Rng init(1);
  SgclModel model(config, &init);
  // One pool thread, as in perfbench. With more, how many GEMM chunks
  // hold scratch at once depends on scheduling, so a later step can
  // still take a scratch block or two from the heap.
  SetParallelThreads(1);
  std::vector<Counts> steps;
  for (int s = 0; s < 3; ++s) {
    const Counts before = Read();
    Rng rng(7);
    Tensor loss = model.ComputeLoss(graphs, &rng);
    loss.Backward();
    for (Tensor& p : model.Parameters()) p.ZeroGrad();
    loss = Tensor();
    steps.push_back(Since(before));
  }
  SetParallelThreads(0);
  const Counts& step = steps.back();
  RecordProperty("tape_nodes", static_cast<int>(step.tape_nodes));
  RecordProperty("data_bytes", static_cast<int>(step.data_bytes));
  RecordProperty("grad_bytes", static_cast<int>(step.grad_bytes));
  RecordProperty("matmul_flops", static_cast<int>(step.matmul_flops));
  for (const Counts& c : steps) {
    EXPECT_EQ(c.tape_nodes, step.tape_nodes);
    EXPECT_EQ(c.data_bytes, step.data_bytes);
    EXPECT_EQ(c.grad_bytes, step.grad_bytes);
    EXPECT_EQ(c.matmul_flops, step.matmul_flops);
  }
  EXPECT_EQ(step.tape_nodes, 146);
  EXPECT_EQ(step.data_bytes, 11439004);
  EXPECT_EQ(step.grad_bytes, 10818260);
  EXPECT_EQ(step.matmul_flops, 204649728);
  // After two identical steps every buffer comes back from the recycler.
  EXPECT_EQ(step.heap_bytes, 0);
}

TEST(StepCountersTest, GinConvIsAtMostFourTapeNodes) {
  Rng rng(2);
  Graph g(4, 3);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 3);
  const GraphBatch batch = GraphBatch::FromGraphPtrs({&g});
  GinConv conv(3, 8, &rng);
  const Tensor x = Tensor::Ones({4, 3}, /*requires_grad=*/true);
  Counts before = Read();
  Tensor y = conv.Forward(x, batch);
  // The aggregation and one Affine node per MLP layer.
  EXPECT_EQ(Since(before).tape_nodes, 3);
  before = Read();
  y = conv.ForwardRelu(x, batch);
  EXPECT_EQ(Since(before).tape_nodes, 3);
  before = Read();
  GraphBatch weighted = batch;
  weighted.edge_weights = Tensor::Full({6, 1}, 0.5f, /*requires_grad=*/true);
  y = conv.ForwardRelu(x, weighted);
  EXPECT_LE(Since(before).tape_nodes, 4);
}

}  // namespace
}  // namespace sgcl
