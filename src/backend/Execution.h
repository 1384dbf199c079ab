//===----------------------------------------------------------------------===//
///
/// \file
/// One entry point for "run the compiled program": dispatches to the
/// definitional tree interpreter or to the link-and-execute bytecode VM
/// according to ExecOptions::Engine, the one engine selector. Driver-level
/// callers (fuzzer, tests) go through here so flipping the engine is one
/// option, not a code change.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_BACKEND_EXECUTION_H
#define MPC_BACKEND_EXECUTION_H

#include "backend/Bytecode.h"
#include "backend/Interpreter.h"

namespace mpc {

/// Which engine executes guest programs after compilation: the
/// definitional tree-walker or the direct-threaded bytecode VM. The
/// tree-walker stays the semantic oracle; the VM must match it byte for
/// byte.
enum class ExecEngine : uint8_t { TreeWalk, VM };

/// Execution knobs. The VM links with default LinkOptions (superinstructions
/// on); callers that need other link options link and run the VM directly.
struct ExecOptions {
  ExecEngine Engine = ExecEngine::TreeWalk;
  uint64_t StepLimit = 50'000'000;
};

/// Runs `main(args)` on \p EntryPoint with the selected engine. The
/// tree-walker executes \p Units; the VM links and executes \p Prog.
/// Both report through the same ExecResult shape (output, uncaught flag,
/// error text) and both honor the step limit and the context's
/// CancelToken.
ExecResult executeProgram(CompilerContext &Comp,
                          const std::vector<CompilationUnit> &Units,
                          const Program &Prog, Symbol *EntryPoint,
                          const ExecOptions &Opts = {},
                          const std::vector<std::string> &Args = {});

} // namespace mpc

#endif // MPC_BACKEND_EXECUTION_H
