// ProtectionLint — static classification of every def site under the active
// detection scheme.
//
// The error-detection pass (Algorithm 1) promises a sphere of replication:
// corruption of a replicated value diverges the two instruction streams and
// is caught by a CHECK before it can leave through a store or control flow.
// This analysis verifies that structure instruction by instruction and
// classifies every register an instruction defines as
//   * protected    — corruption is caught by a check (or never observable):
//                    every escape the value can reach compares it against an
//                    independent shadow;
//   * sphere-exit  — as protected, but the value is itself read directly by
//                    a non-replicated consumer (store, branch, call, ...),
//                    i.e. it leaves the sphere through a guarded exit;
//   * unprotected  — a silent-data-corruption channel exists: the value can
//                    reach a non-replicated consumer with no check, or with
//                    a check whose two operands the same corruption poisons
//                    (call results, unreplicated values, spilled values).
//
// The analysis is intentionally conservative in the sound direction: it
// over-approximates data flow (register-name-level reachability, no kill
// analysis), so it may call a site unprotected that never misbehaves — but a
// site it calls protected or sphere-exit must never classify as data-corrupt
// under exhaustive injection.  That contract is enforced by
// tests/exhaustive_ground_truth_test.cpp against fault::enumerateFaultSpace.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/function.h"
#include "passes/scheme.h"
#include "pm/pass.h"

namespace casted::passes {

enum class Protection : std::uint8_t {
  kProtected,
  kSphereExit,
  kUnprotected,
};

const char* protectionName(Protection protection);

// Why a site got its classification.
enum class LintReason : std::uint8_t {
  kNoDetection,      // unprotected: the scheme is NOED
  kLibrary,          // unprotected: the function is not protected
  kUncheckedEscape,  // unprotected: reaches an unguarded escape
  kPoisonsCheck,     // unprotected: reaches both operands of an escape's check
  kDirectExit,       // sphere-exit
  kAllGuarded,       // protected
};

// Classification of one register defined by one static instruction (calls
// produce one site per returned register).
struct LintSite {
  ir::FuncId func = 0;
  ir::BlockId block = 0;
  std::uint32_t node = 0;  // instruction index within the block
  ir::InsnId insn = ir::kInvalidInsn;
  ir::Reg def;
  Protection protection = Protection::kUnprotected;
  LintReason why = LintReason::kNoDetection;
  // The escape that decided kUncheckedEscape / kPoisonsCheck: its consumer,
  // the register it reads and (kPoisonsCheck) the check's shadow operand.
  ir::Opcode consumer = ir::Opcode::kNop;
  ir::Reg use;
  ir::Reg shadow;

  // Why this classification, human-readable.
  std::string reason() const;
};

struct ProtectionLintResult {
  std::vector<LintSite> sites;  // one per (def-producing insn, def)

  std::uint64_t count(Protection protection) const;
  // Unprotected sites — the protection gaps.
  std::uint64_t gaps() const { return count(Protection::kUnprotected); }
  // Gap listing for reports; all sites when `gapsOnly` is false.
  std::string toString(bool gapsOnly = true) const;
};

// Classifies every def site of `program` as compiled under `scheme`.  The
// scheme matters only as NOED-vs-protected (SCED/DCED/CASTED differ in
// cluster placement, not protection structure); under NOED every def is
// unprotected by construction.
ProtectionLintResult lintProtection(const ir::Program& program, Scheme scheme);

// pm adapter.  Analysis-only: mutates nothing, preserves all caches.
// Stats: "protected", "sphere-exit", "unprotected".
class ProtectionLintPass final : public pm::Pass {
 public:
  explicit ProtectionLintPass(Scheme scheme) : scheme_(scheme) {}

  std::string_view name() const override { return "protection-lint"; }
  pm::PassResult run(ir::Program& program, pm::AnalysisManager& am) override;

 private:
  Scheme scheme_;
};

}  // namespace casted::passes
