#include "core/pipeline.h"

#include "ir/verifier.h"
#include "sched/list_scheduler.h"
#include "support/trace.h"

namespace casted::core {

pm::PassManager buildPipeline(passes::Scheme scheme,
                              const PipelineOptions& options) {
  pm::PassManager manager({.verifyAfterEachPass = options.verifyAfterPasses});
  manager.emplacePass<passes::EarlyOptsPass>();
  if (scheme != passes::Scheme::kNoed) {
    manager.emplacePass<passes::ErrorDetectionPass>(options.errorDetection);
  }
  if (options.modelRegisterPressure) {
    manager.emplacePass<passes::SpillPass>();
  }
  if (options.runLateOptimisations) {
    manager.emplacePass<passes::LocalCsePass>(options.lateOpts);
    manager.emplacePass<passes::DcePass>(options.lateOpts);
  }
  manager.emplacePass<passes::AssignmentPass>(scheme);
  manager.emplacePass<passes::ProtectionLintPass>(scheme);
  return manager;
}

CompiledProgram compile(const ir::Program& source,
                        const arch::MachineConfig& machine,
                        passes::Scheme scheme,
                        const PipelineOptions& options) {
  machine.validate();
  const trace::Scope compileScope("core.compile");
  trace::counterAdd("core.compiles");
  CompiledProgram compiled;
  compiled.program = source;
  compiled.scheme = scheme;
  compiled.machine = machine;

  if (options.verifyAfterPasses) {
    ir::verifyOrThrow(compiled.program);
  }

  const pm::PassManager manager = buildPipeline(scheme, options);
  pm::AnalysisManager am(machine);
  compiled.report = manager.run(compiled.program, am);
  {
    // The scheduler walks the same block DFGs the assignment pass used (it
    // preserves them: only `cluster` fields changed).
    const trace::Scope scope("core.schedule");
    compiled.schedule = sched::scheduleProgram(compiled.program, machine, &am);
  }
  compiled.report.analysisHits = am.hits();
  compiled.report.analysisMisses = am.misses();
  {
    const trace::Scope scope("core.decode");
    compiled.decoded = std::make_shared<const sim::DecodedProgram>(
        sim::DecodedProgram::build(compiled.program, compiled.schedule,
                                   compiled.machine));
  }
  return compiled;
}

sim::RunResult run(const CompiledProgram& compiled, sim::SimOptions options) {
  if (options.engine == sim::Engine::kDecoded && compiled.decoded != nullptr) {
    return sim::runDecoded(*compiled.decoded, options);
  }
  return sim::simulate(compiled.program, compiled.schedule, compiled.machine,
                       std::move(options));
}

fault::CoverageReport campaign(const CompiledProgram& compiled,
                               const fault::CampaignOptions& options) {
  return fault::runCampaign(compiled.program, compiled.schedule,
                            compiled.machine, options,
                            compiled.decoded.get());
}

fault::GroundTruthReport groundTruth(const CompiledProgram& compiled,
                                     const fault::ExhaustiveOptions& options) {
  return fault::enumerateFaultSpace(compiled.program, compiled.schedule,
                                    compiled.machine, options,
                                    compiled.decoded.get());
}

}  // namespace casted::core
