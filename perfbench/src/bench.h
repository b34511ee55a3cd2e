// Workload entry points of the sgcl benchmark (see ../README.md).
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <string>

#include "util.h"

namespace perfbench {

// Threads of the shared sgcl ThreadPool in every workload. Pinned so the
// figures do not depend on the host's core count. With one thread,
// parallel sections run inline, which keeps run-to-run spread low on a
// small shared host; the pool still runs prefetch tasks, which the two
// ranks of train_stream_w2 share.
inline constexpr int kPoolThreads = 1;

struct RunOptions {
  uint64_t seed = 0;
  double seconds = 10.0;  // measured time per run
  bool trace = false;     // traced run: per-layer metrics
  std::string work_dir;   // scratch space inside the checkout
  std::string trace_out;  // chrome trace of the traced run
  std::string reference;  // reference-loss file for the training check
};

RunResult RunTrainMol(const RunOptions& options);
RunResult RunTrainStreamW2(const RunOptions& options);
RunResult RunServeEmbed(const RunOptions& options);

// Serving self-test: a stalling embed override must show in p99.
RunResult RunServeStallSelfTest(const RunOptions& options);

// Writes the training reference losses the correctness check compares
// against.
int WriteTrainReference(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
