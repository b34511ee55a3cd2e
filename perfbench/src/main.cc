// sgcl_perfbench: runs one benchmark workload and prints its result as
// one JSON line (see ../README.md and ../run.py, which wraps it).
//
//   sgcl_perfbench --workload=train_mol|train_stream_w2|serve_embed
//                  --seed=N --seconds=S --trace=0|1 --work-dir=DIR
//                  [--trace-out=FILE] [--reference=FILE]
//   sgcl_perfbench --selftest=stall --work-dir=DIR
//   sgcl_perfbench --write-reference=FILE
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/trace.h"

namespace perfbench {
namespace {

int Run(int argc, char** argv) {
  std::string workload;
  std::string selftest;
  std::string write_reference;
  int trace = 0;
  RunOptions options;
  sgcl::FlagSet flags("sgcl_perfbench");
  flags.String("workload", &workload,
               "train_mol, train_stream_w2 or serve_embed");
  flags.Uint64("seed", &options.seed, "input seed");
  flags.Double("seconds", &options.seconds, "measured seconds");
  flags.Int("trace", &trace, "1 = traced run with per-layer metrics");
  flags.String("work-dir", &options.work_dir, "scratch directory");
  flags.String("trace-out", &options.trace_out,
               "chrome trace of the traced run");
  flags.String("reference", &options.reference,
               "reference losses for the training check");
  flags.String("selftest", &selftest, "stall: serving stall self-test");
  flags.String("write-reference", &write_reference,
               "write the training reference losses to this file and exit");
  const sgcl::Status st = flags.Parse(argc, argv, 1);
  if (flags.help_requested()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n%s", st.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  sgcl::SetLogLevel(sgcl::LogLevel::kWarning);
  if (!write_reference.empty()) return WriteTrainReference(write_reference);
  if (options.work_dir.empty() || options.seconds <= 0.0) {
    std::fprintf(stderr, "error: --work-dir and --seconds > 0 are required\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  options.trace = trace != 0;

  RunResult result;
  if (selftest == "stall") {
    result = RunServeStallSelfTest(options);
  } else if (workload == "train_mol") {
    result = RunTrainMol(options);
  } else if (workload == "train_stream_w2") {
    result = RunTrainStreamW2(options);
  } else if (workload == "serve_embed") {
    result = RunServeEmbed(options);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (options.trace && !options.trace_out.empty()) {
    const sgcl::Status written =
        sgcl::TraceCollector::Global().WriteChromeTrace(options.trace_out);
    if (!written.ok()) {
      result.AddCheck("trace_written", false, written.ToString());
    }
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
