#include "baselines/registry.h"

#include "baselines/adgcl.h"
#include "baselines/attr_masking.h"
#include "baselines/context_pred.h"
#include "baselines/gae.h"
#include "baselines/graphcl.h"
#include "baselines/infograph.h"
#include "baselines/joao.h"
#include "baselines/simgrace.h"
#include "baselines/view_generator.h"

namespace sgcl {

std::vector<std::string> RegisteredPretrainerNames() {
  return {"SGCL",        "InfoGraph", "Infomax",     "GraphCL",
          "JOAOv2",      "AD-GCL",    "SimGRACE",    "RGCL",
          "AutoGCL",     "AttrMasking", "ContextPred", "GAE",
          "No Pre-Train"};
}

Result<std::unique_ptr<Pretrainer>> MakePretrainer(
    const std::string& name, const BaselineConfig& baseline_config,
    const SgclConfig& sgcl_config, uint64_t seed) {
  BaselineConfig cfg = baseline_config;
  cfg.seed = seed;
  std::unique_ptr<Pretrainer> method;
  if (name == "SGCL") {
    method = std::make_unique<SgclTrainer>(sgcl_config, seed);
  } else if (name == "InfoGraph") {
    method = std::make_unique<InfoGraphBaseline>(cfg);
  } else if (name == "Infomax") {
    method = std::make_unique<InfoGraphBaseline>(cfg, "Infomax");
  } else if (name == "GraphCL") {
    method = std::make_unique<GraphClBaseline>(cfg);
  } else if (name == "JOAOv2") {
    method = std::make_unique<JoaoBaseline>(cfg);
  } else if (name == "AD-GCL") {
    method = std::make_unique<AdGclBaseline>(cfg);
  } else if (name == "SimGRACE") {
    method = std::make_unique<SimGraceBaseline>(cfg);
  } else if (name == "RGCL") {
    method =
        std::make_unique<LearnableViewBaseline>(cfg, ViewGenVariant::kRgcl);
  } else if (name == "AutoGCL") {
    method = std::make_unique<LearnableViewBaseline>(
        cfg, ViewGenVariant::kAutoGcl);
  } else if (name == "AttrMasking") {
    method = std::make_unique<AttrMaskingBaseline>(cfg);
  } else if (name == "ContextPred") {
    method = std::make_unique<ContextPredBaseline>(cfg);
  } else if (name == "GAE") {
    method = std::make_unique<GaeBaseline>(cfg);
  } else if (name == "No Pre-Train") {
    method = std::make_unique<NoPretrain>(cfg, seed);
  } else {
    return Status::NotFound("unknown pretrainer \"" + name + "\"");
  }
  return method;
}

}  // namespace sgcl
