#include "ir/builder.h"

#include "support/check.h"

namespace casted::ir {

BasicBlock& IrBuilder::createBlock(std::string name) {
  return fn_.addBlock(std::move(name));
}

BasicBlock& IrBuilder::currentBlock() {
  CASTED_CHECK(current_ != nullptr) << "no current block set in @"
                                    << fn_.name();
  return *current_;
}

Instruction& IrBuilder::emit(Opcode op, std::vector<Reg> defs,
                             std::vector<Reg> uses) {
  BasicBlock& block = currentBlock();
  CASTED_CHECK(block.empty() || !block.insns().back().isTerminator())
      << "appending after terminator in bb" << block.id() << " of @"
      << fn_.name();
  Instruction insn;
  insn.op = op;
  insn.id = fn_.newInsnId();
  insn.defs = std::move(defs);
  insn.uses = std::move(uses);
  block.insns().push_back(std::move(insn));
  return block.insns().back();
}

void IrBuilder::movTo(Reg dst, Reg src) {
  CASTED_CHECK(dst.cls == src.cls) << "movTo class mismatch";
  emit(copyOpcodeFor(dst.cls), {dst}, {src});
}

void IrBuilder::movImmTo(Reg dst, std::int64_t imm) {
  CASTED_CHECK(dst.cls == RegClass::kGp) << "movImmTo needs a GP register";
  emit(Opcode::kMovImm, {dst}, {}).imm = imm;
}

void IrBuilder::addImmTo(Reg dst, Reg src, std::int64_t imm) {
  CASTED_CHECK(dst.cls == RegClass::kGp && src.cls == RegClass::kGp)
      << "addImmTo needs GP registers";
  emit(Opcode::kAddImm, {dst}, {src}).imm = imm;
}

void IrBuilder::binaryTo(Opcode op, Reg dst, Reg a, Reg b) {
  CASTED_CHECK(opcodeInfo(op).defCount == 1 && opcodeInfo(op).useCount == 2)
      << "binaryTo needs a binary opcode";
  CASTED_CHECK(dst.cls == opcodeInfo(op).defClass) << "binaryTo class mismatch";
  emit(op, {dst}, {a, b});
}

Reg IrBuilder::movImm(std::int64_t value) {
  const Reg def = fn_.newReg(RegClass::kGp);
  emit(Opcode::kMovImm, {def}, {}).imm = value;
  return def;
}

Reg IrBuilder::mov(Reg src) { return unary(Opcode::kMov, src); }

Reg IrBuilder::select(Reg pred, Reg a, Reg b) {
  const Reg def = fn_.newReg(RegClass::kGp);
  emit(Opcode::kSelect, {def}, {pred, a, b});
  return def;
}

Reg IrBuilder::pSetImm(bool value) {
  const Reg def = fn_.newReg(RegClass::kPr);
  emit(Opcode::kPSetImm, {def}, {}).imm = value ? 1 : 0;
  return def;
}

Reg IrBuilder::fMovImm(double value) {
  const Reg def = fn_.newReg(RegClass::kFp);
  emit(Opcode::kFMovImm, {def}, {}).fimm = value;
  return def;
}

Reg IrBuilder::load(Reg base, std::int64_t offset) {
  const Reg def = fn_.newReg(RegClass::kGp);
  emit(Opcode::kLoad, {def}, {base}).imm = offset;
  return def;
}

Reg IrBuilder::loadB(Reg base, std::int64_t offset) {
  const Reg def = fn_.newReg(RegClass::kGp);
  emit(Opcode::kLoadB, {def}, {base}).imm = offset;
  return def;
}

Reg IrBuilder::fLoad(Reg base, std::int64_t offset) {
  const Reg def = fn_.newReg(RegClass::kFp);
  emit(Opcode::kFLoad, {def}, {base}).imm = offset;
  return def;
}

void IrBuilder::store(Reg base, std::int64_t offset, Reg value) {
  emit(Opcode::kStore, {}, {base, value}).imm = offset;
}

void IrBuilder::storeB(Reg base, std::int64_t offset, Reg value) {
  emit(Opcode::kStoreB, {}, {base, value}).imm = offset;
}

void IrBuilder::fStore(Reg base, std::int64_t offset, Reg value) {
  emit(Opcode::kFStore, {}, {base, value}).imm = offset;
}

void IrBuilder::br(const BasicBlock& target) {
  emit(Opcode::kBr, {}, {}).target = target.id();
}

void IrBuilder::brCond(Reg pred, const BasicBlock& taken,
                       const BasicBlock& notTaken) {
  Instruction& insn = emit(Opcode::kBrCond, {}, {pred});
  insn.target = taken.id();
  insn.target2 = notTaken.id();
}

std::vector<Reg> IrBuilder::call(const Function& callee,
                                 std::span<const Reg> args) {
  CASTED_CHECK(args.size() == callee.params().size())
      << "call to @" << callee.name() << " passes " << args.size()
      << " args, expected " << callee.params().size();
  std::vector<Reg> results;
  results.reserve(callee.returnClasses().size());
  for (RegClass cls : callee.returnClasses()) {
    results.push_back(fn_.newReg(cls));
  }
  Instruction& insn = emit(Opcode::kCall, results,
                           std::vector<Reg>(args.begin(), args.end()));
  insn.callee = callee.id();
  return results;
}

std::vector<Reg> IrBuilder::call(const Function& callee,
                                 std::initializer_list<Reg> args) {
  return call(callee, std::span<const Reg>(args.begin(), args.size()));
}

void IrBuilder::ret(std::span<const Reg> values) {
  CASTED_CHECK(values.size() == fn_.returnClasses().size())
      << "@" << fn_.name() << " returns " << values.size() << " values, "
      << "declared " << fn_.returnClasses().size();
  emit(Opcode::kRet, {}, std::vector<Reg>(values.begin(), values.end()));
}

void IrBuilder::ret(std::initializer_list<Reg> values) {
  ret(std::span<const Reg>(values.begin(), values.size()));
}

void IrBuilder::halt(Reg exitCode) { emit(Opcode::kHalt, {}, {exitCode}); }

Reg IrBuilder::binary(Opcode op, Reg a, Reg b) {
  const OpcodeInfo& info = opcodeInfo(op);
  const Reg def = fn_.newReg(info.defClass);
  emit(op, {def}, {a, b});
  return def;
}

Reg IrBuilder::unary(Opcode op, Reg a) {
  const OpcodeInfo& info = opcodeInfo(op);
  const Reg def = fn_.newReg(info.defClass);
  emit(op, {def}, {a});
  return def;
}

Reg IrBuilder::unaryImm(Opcode op, Reg a, std::int64_t imm) {
  const OpcodeInfo& info = opcodeInfo(op);
  const Reg def = fn_.newReg(info.defClass);
  emit(op, {def}, {a}).imm = imm;
  return def;
}

Reg IrBuilder::compare(Opcode op, Reg a, Reg b) {
  const Reg def = fn_.newReg(RegClass::kPr);
  emit(op, {def}, {a, b});
  return def;
}

Reg IrBuilder::compareImm(Opcode op, Reg a, std::int64_t imm) {
  const Reg def = fn_.newReg(RegClass::kPr);
  emit(op, {def}, {a}).imm = imm;
  return def;
}

}  // namespace casted::ir
