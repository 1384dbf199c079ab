//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic full-pipeline fuzzing harness. Feeds seeded generator
/// families (valid and adversarial) through lex -> parse -> type ->
/// transforms -> execution and checks the totality properties the
/// compile service depends on:
///
///   1. no input crashes the compiler — invalid programs produce
///      diagnostics, never aborts or unhandled exceptions;
///   2. diagnostics and program output are deterministic — two cold runs
///      of the same seed are byte-identical;
///   3. valid families compile cleanly and their programs run to output;
///   4. the engines agree — every program that runs gives the same
///      output, uncaught flag and error text on the tree-walker and on
///      the bytecode VM.
///
/// Every case is reproducible from (family, seed, scale) alone; a failure
/// report names all three.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_WORKLOAD_FUZZER_H
#define MPC_WORKLOAD_FUZZER_H

#include "core/CompilerContext.h"
#include "workload/ProgramGenerator.h"

#include <string>
#include <vector>

namespace mpc {

/// One fuzz input: a (family, seed) pair at a given size scale.
struct FuzzCase {
  Family F = Family::Mixed;
  uint64_t Seed = 0;
  double Scale = 0.25;
};

/// What one compile (+ run, when clean) produced. All fields are
/// deterministic functions of the input program.
struct FuzzOutcome {
  bool Crashed = false;   // an exception escaped the pipeline
  bool HasErrors = false; // frontend reported diagnostics
  std::string DiagText;   // rendered diagnostics, stable format
  std::string Output;     // tree-walker stdout (clean compiles only)
  bool Uncaught = false;  // tree-walker uncaught MiniScala exception
  std::string Error;      // crash / uncaught-exception message
  std::string EngineDiff; // how the VM's run differs; empty if it agrees

  bool operator==(const FuzzOutcome &O) const {
    return Crashed == O.Crashed && HasErrors == O.HasErrors &&
           DiagText == O.DiagText && Output == O.Output &&
           Uncaught == O.Uncaught && Error == O.Error &&
           EngineDiff == O.EngineDiff;
  }
};

/// One property violation, with enough context to replay the case.
struct FuzzViolation {
  FuzzCase Case;
  std::string Kind; // "crash" | "valid-family-rejected" |
                    // "nondeterministic" | "engine-mismatch"
  std::string Detail;
};

/// Campaign tallies.
struct FuzzStats {
  uint64_t CasesRun = 0;
  uint64_t CleanCompiles = 0;
  uint64_t ErrorCompiles = 0;
  uint64_t DiagsSeen = 0;
  std::vector<FuzzViolation> Violations;

  bool ok() const { return Violations.empty(); }
};

/// Renders diagnostics in the stable "file:line:col: severity: msg" form
/// used for byte-comparisons.
std::string renderDiags(const DiagnosticEngine &Diags);

/// Compiles \p Sources on \p Comp with the standard fused pipeline and,
/// when the compile is clean and has an entry point, runs it on the
/// tree-walker (the outcome) and on the bytecode VM (EngineDiff).
/// Exceptions are captured into the outcome instead of escaping. All
/// pipeline outputs are destroyed before this returns.
FuzzOutcome runPipelineOnce(CompilerContext &Comp,
                            std::vector<SourceInput> Sources);

/// Runs one case's checks: a cold compile and an identical cold rerun
/// (determinism), each in a fresh context. Appends any violations to
/// \p Stats and returns the first outcome.
FuzzOutcome runFuzzCase(const FuzzCase &C, FuzzStats &Stats);

/// Full campaign over \p Families x [StartSeed, StartSeed + NumSeeds).
FuzzStats runFuzzCampaign(const std::vector<Family> &Families,
                          uint64_t StartSeed, uint64_t NumSeeds,
                          double Scale);

} // namespace mpc

#endif // MPC_WORKLOAD_FUZZER_H
