#include "workload/Fuzzer.h"

#include "backend/Execution.h"
#include "driver/Driver.h"

#include <exception>

using namespace mpc;

std::string mpc::renderDiags(const DiagnosticEngine &Diags) {
  std::string S;
  for (const Diagnostic &D : Diags.all()) {
    if (D.Loc.FileId < Diags.fileCount())
      S += Diags.fileName(D.Loc.FileId);
    else
      S += "<unknown>";
    S += ":" + std::to_string(D.Loc.Line) + ":" + std::to_string(D.Loc.Col);
    switch (D.Severity) {
    case DiagSeverity::Error:
      S += ": error: ";
      break;
    case DiagSeverity::Warning:
      S += ": warning: ";
      break;
    case DiagSeverity::Note:
      S += ": note: ";
      break;
    }
    S += D.Message;
    S += '\n';
  }
  return S;
}

namespace {

std::string diffOutcomes(const FuzzOutcome &A, const FuzzOutcome &B) {
  std::string D;
  if (A.Crashed != B.Crashed)
    D += "crashed " + std::to_string(A.Crashed) + " vs " +
         std::to_string(B.Crashed) + "; ";
  if (A.HasErrors != B.HasErrors)
    D += "hasErrors " + std::to_string(A.HasErrors) + " vs " +
         std::to_string(B.HasErrors) + "; ";
  if (A.DiagText != B.DiagText)
    D += "diagnostics differ:\n--- first\n" + A.DiagText +
         "--- second\n" + B.DiagText;
  if (A.Output != B.Output)
    D += "program output differs:\n--- first\n" + A.Output +
         "--- second\n" + B.Output;
  if (A.Uncaught != B.Uncaught || A.Error != B.Error)
    D += "error state differs: '" + A.Error + "' vs '" + B.Error + "'; ";
  if (A.EngineDiff != B.EngineDiff)
    D += "engine agreement differs:\n--- first\n" + A.EngineDiff +
         "\n--- second\n" + B.EngineDiff;
  return D;
}

void setRun(FuzzOutcome &O, const ExecResult &R) {
  O.Output = R.Output;
  O.Uncaught = R.Uncaught;
  O.Error = R.Uncaught ? R.Error : "";
}

} // namespace

FuzzOutcome mpc::runPipelineOnce(CompilerContext &Comp,
                                 std::vector<SourceInput> Sources) {
  FuzzOutcome O;
  try {
    CompileOutput Out =
        compileProgram(Comp, std::move(Sources), PipelineKind::StandardFused);
    O.HasErrors = Comp.diags().hasErrors();
    O.DiagText = renderDiags(Comp.diags());
    if (!O.HasErrors && !Out.EntryPoints.empty()) {
      // Both engines run every program: the tree-walker is the oracle
      // and gives the outcome, and the bytecode VM must agree with it.
      ExecOptions Opts;
      setRun(O, executeProgram(Comp, Out.Units, Out.Prog,
                               Out.EntryPoints.front(), Opts));
      FuzzOutcome OnVM = O;
      Opts.Engine = ExecEngine::VM;
      setRun(OnVM, executeProgram(Comp, Out.Units, Out.Prog,
                                  Out.EntryPoints.front(), Opts));
      O.EngineDiff = diffOutcomes(O, OnVM);
    }
  } catch (const std::exception &E) {
    O.Crashed = true;
    O.Error = E.what();
  } catch (...) {
    O.Crashed = true;
    O.Error = "non-standard exception";
  }
  return O;
}

namespace {

std::string caseLabel(const FuzzCase &C) {
  return std::string(familyName(C.F)) + " seed=" + std::to_string(C.Seed) +
         " scale=" + std::to_string(C.Scale);
}

FuzzOutcome runCold(const FuzzCase &C) {
  CompilerContext Comp;
  return runPipelineOnce(Comp, generateFamily(C.F, C.Seed, C.Scale));
}

} // namespace

FuzzOutcome mpc::runFuzzCase(const FuzzCase &C, FuzzStats &Stats) {
  ++Stats.CasesRun;
  FuzzOutcome Cold = runCold(C);

  if (Cold.Crashed)
    Stats.Violations.push_back(
        {C, "crash", caseLabel(C) + ": " + Cold.Error});
  if (!Cold.EngineDiff.empty())
    Stats.Violations.push_back(
        {C, "engine-mismatch",
         caseLabel(C) + ": tree-walker first, VM second: " + Cold.EngineDiff});
  if (Cold.HasErrors)
    ++Stats.ErrorCompiles;
  else
    ++Stats.CleanCompiles;
  for (char Ch : Cold.DiagText)
    if (Ch == '\n')
      ++Stats.DiagsSeen;

  if (familyIsValid(C.F)) {
    if (Cold.HasErrors)
      Stats.Violations.push_back({C, "valid-family-rejected",
                                  caseLabel(C) + ":\n" + Cold.DiagText});
    else if (Cold.Uncaught)
      Stats.Violations.push_back({C, "valid-family-rejected",
                                  caseLabel(C) +
                                      ": uncaught exception: " + Cold.Error});
    else if (Cold.Output.empty())
      Stats.Violations.push_back(
          {C, "valid-family-rejected",
           caseLabel(C) + ": produced no program output"});
  }

  // Determinism: a second cold run must be byte-identical.
  FuzzOutcome Cold2 = runCold(C);
  if (!(Cold == Cold2))
    Stats.Violations.push_back(
        {C, "nondeterministic", caseLabel(C) + ": " +
                                    diffOutcomes(Cold, Cold2)});
  return Cold;
}

FuzzStats mpc::runFuzzCampaign(const std::vector<Family> &Families,
                               uint64_t StartSeed, uint64_t NumSeeds,
                               double Scale) {
  FuzzStats Stats;
  for (uint64_t S = 0; S < NumSeeds; ++S)
    for (Family F : Families)
      runFuzzCase({F, StartSeed + S, Scale}, Stats);
  return Stats;
}
