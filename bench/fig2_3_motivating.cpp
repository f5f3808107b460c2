// Figures 2 & 3: the motivating examples, rendered as actual bundle
// schedules from our scheduler.
//
// Example 1 (Fig. 2): single-issue clusters, delay 1 — the single core is
// resource constrained, DCED beats SCED, CASTED at least matches DCED.
// Example 2 (Fig. 3): two-wide clusters, delay 3 — DCED pays communication
// on every check.  On this block SCED and DCED tie, and CASTED beats both.
//
// Exits 1 when, in either example, CASTED's block is slower than the
// better fixed scheme's.
#include "bench_util.h"
#include "dfg/dfg.h"
#include "ir/builder.h"
#include "sched/list_scheduler.h"

namespace {

using namespace casted;

// The running example of §II-B: a small expression DAG feeding one
// non-replicated store.
ir::Program motivatingProgram() {
  ir::Program prog;
  prog.allocateGlobal("output", 8);
  ir::Function& fn = prog.addFunction("main");
  ir::IrBuilder b(fn);
  b.setBlock(b.createBlock("entry"));
  const ir::Reg base = b.movImm(
      static_cast<std::int64_t>(prog.symbol("output").address));
  const ir::Reg a = b.addImm(base, 3);        // A
  const ir::Reg c1 = b.addImm(base, 5);       // B
  const ir::Reg c2 = b.addImm(base, 7);       // C
  const ir::Reg d = b.add(b.add(a, c1), c2);  // D
  b.store(base, 0, d);                        // non-replicated store
  b.halt(b.movImm(0));
  return prog;
}

// Prints the example's schedules and verdict; false when CASTED is slower
// than the better fixed scheme.
bool showExample(const char* title, std::uint32_t issueWidth,
                 std::uint32_t delay) {
  std::printf("#### %s (issue %u per cluster, delay %u) ####\n\n", title,
              issueWidth, delay);
  const arch::MachineConfig machine =
      arch::makePaperMachine(issueWidth, delay);
  const ir::Program source = motivatingProgram();

  TextTable verdict({"scheme", "block cycles"});
  std::uint64_t sced = 0;
  std::uint64_t dced = 0;
  std::uint64_t casted = 0;
  for (passes::Scheme scheme : passes::kAllSchemes) {
    core::PipelineOptions options;
    options.runLateOptimisations = false;  // keep the example verbatim
    const core::CompiledProgram bin =
        core::compile(source, machine, scheme, options);
    const sched::BlockSchedule& schedule =
        bin.schedule.functions[0].blocks[0];
    std::printf("%s schedule:\n%s\n", schemeName(scheme),
                schedule.render(bin.program.function(0).block(0),
                                machine.clusterCount, machine.issueWidth)
                    .c_str());
    verdict.addRow({schemeName(scheme), std::to_string(schedule.length)});
    switch (scheme) {
      case passes::Scheme::kSced:
        sced = schedule.length;
        break;
      case passes::Scheme::kDced:
        dced = schedule.length;
        break;
      case passes::Scheme::kCasted:
        casted = schedule.length;
        break;
      default:
        break;
    }
  }
  const std::uint64_t best = std::min(sced, dced);
  std::printf("%s", verdict.render().c_str());
  std::printf("among fixed schemes: %s;  CASTED %s the best fixed\n\n",
              sced == dced ? "SCED and DCED tie"
                           : (sced < dced ? "SCED wins" : "DCED wins"),
              casted < best ? "beats"
                            : (casted == best ? "matches" : "LOSES TO"));
  return casted <= best;
}

}  // namespace

int main() {
  benchutil::printHeader(
      "fig2_3_motivating — the paper's motivating schedules",
      "Figs. 2 and 3 (DCED wins when resource constrained; the delay "
      "erases its edge; CASTED adapts)");
  const bool first = showExample("Example 1 / Fig. 2", 1, 1);
  const bool second = showExample("Example 2 / Fig. 3", 2, 3);
  return first && second ? 0 : 1;
}
