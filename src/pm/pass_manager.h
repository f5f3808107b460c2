// PassManager — owns the pass pipeline: ordering, optional post-pass IR
// verification, per-pass instrumentation, and analysis-cache invalidation.
//
// core::compile builds one declaratively from PipelineOptions + Scheme
// (see core::buildPipeline) and runs it; tests build small ad-hoc pipelines
// directly.  The caller owns the AnalysisManager so later consumers (the
// list scheduler) can keep using analyses the passes left valid.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "ir/function.h"
#include "pm/analysis_manager.h"
#include "pm/pass.h"
#include "pm/report.h"

namespace casted::pm {

class PassManager {
 public:
  struct Options {
    // Verify the IR after each pass (cheap; keep on outside the inner loops
    // of big sweeps).  Verification failure throws FatalError.
    bool verifyAfterEachPass = true;
  };

  PassManager() = default;
  explicit PassManager(Options options) : options_(options) {}

  PassManager(PassManager&&) = default;
  PassManager& operator=(PassManager&&) = default;

  template <typename PassT, typename... Args>
  void emplacePass(Args&&... args) {
    passes_.push_back(std::make_unique<PassT>(std::forward<Args>(args)...));
  }

  std::size_t passCount() const { return passes_.size(); }
  const Pass& pass(std::size_t index) const { return *passes_[index]; }

  const Options& options() const { return options_; }

  // Runs every pass in order over `program`.  After a pass that does not
  // preserve analyses, all of `am`'s caches are invalidated.  The returned
  // report carries one entry per pass plus the cache counters at return
  // time (the caller may keep using `am` and re-read the counters).
  PipelineReport run(ir::Program& program, AnalysisManager& am) const;

 private:
  Options options_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace casted::pm
