#include "backend/Execution.h"

#include "backend/Linker.h"
#include "backend/VM.h"

using namespace mpc;

ExecResult mpc::executeProgram(CompilerContext &Comp,
                               const std::vector<CompilationUnit> &Units,
                               const Program &Prog, Symbol *EntryPoint,
                               const ExecOptions &Opts,
                               const std::vector<std::string> &Args) {
  if (!EntryPoint) {
    ExecResult R;
    R.Uncaught = true;
    R.Error = "no entry point";
    return R;
  }
  if (Opts.Engine == ExecEngine::VM) {
    LinkedProgram Linked = linkProgram(Prog, Comp);
    VM M(Comp, Linked, Opts.StepLimit);
    return M.runMain(EntryPoint, Args);
  }
  Interpreter I(Comp, Units, Opts.StepLimit);
  return I.runMain(EntryPoint, Args);
}
