#include "pm/pass_manager.h"

#include <chrono>
#include <string>

#include "ir/verifier.h"
#include "support/trace.h"

namespace casted::pm {

PipelineReport PassManager::run(ir::Program& program,
                                AnalysisManager& am) const {
  PipelineReport report;
  report.sourceInsns = program.insnCount();

  for (const std::unique_ptr<Pass>& pass : passes_) {
    const std::size_t before = program.insnCount();
    const auto start = std::chrono::steady_clock::now();
    PassResult result;
    {
      // Build the event name only when it will be recorded: the disabled
      // path must not allocate.
      const bool traced = trace::enabled();
      const trace::Scope scope(
          traced ? "pm." + std::string(pass->name()) : std::string(), traced);
      result = pass->run(program, am);
    }
    const auto end = std::chrono::steady_clock::now();

    if (result.preserved == Preserved::kNone) {
      am.invalidateAll();
    }

    PassReport entry;
    entry.pass = std::string(pass->name());
    entry.millis =
        std::chrono::duration<double, std::milli>(end - start).count();
    entry.insnsAfter = program.insnCount();
    entry.insnDelta = static_cast<std::int64_t>(entry.insnsAfter) -
                      static_cast<std::int64_t>(before);
    // The gate comes first so the disabled path never pays the name
    // concatenation.
    if (trace::enabled()) {
      trace::counterAdd("pm." + entry.pass + ".insn_delta", entry.insnDelta);
      trace::counterAdd("pm." + entry.pass + ".runs");
    }
    entry.preservedAnalyses = result.preserved == Preserved::kAll;
    entry.stats = std::move(result.stats);
    if (options_.verifyAfterEachPass) {
      ir::verifyOrThrow(program);
      entry.verified = true;
    }
    report.passes.push_back(std::move(entry));
  }

  report.finalInsns = program.insnCount();
  report.analysisHits = am.hits();
  report.analysisMisses = am.misses();
  return report;
}

}  // namespace casted::pm
