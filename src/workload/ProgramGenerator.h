//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic synthetic MiniScala program generator — the substitute
/// for the paper's evaluation inputs (Scala stdlib, 34 kLOC; Dotty,
/// 50 kLOC). Profiles control the feature mix; sizes are calibrated to
/// the paper's ~12 tree nodes per source line.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_WORKLOAD_PROGRAMGENERATOR_H
#define MPC_WORKLOAD_PROGRAMGENERATOR_H

#include "frontend/Frontend.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mpc {

/// Feature-mix profile of the generated code base.
struct WorkloadProfile {
  std::string Name;
  uint64_t Seed = 1;
  unsigned TargetLoc = 1000;  // approximate generated source lines
  unsigned UnitsHint = 10;    // number of compilation units (files)
  unsigned MatchPercent = 60; // how often methods use pattern matching
  unsigned LazyPercent = 30;
  unsigned ClosurePercent = 40;
  unsigned TryPercent = 25;
  unsigned VarargPercent = 20;
  unsigned TraitPercent = 40;
};

/// The paper's two evaluation inputs, scaled by \p Scale (1.0 = paper
/// size; tests use small scales).
WorkloadProfile stdlibProfile(double Scale = 1.0);
WorkloadProfile dottyProfile(double Scale = 1.0);

/// Generates the source files of a synthetic code base.
std::vector<SourceInput> generateWorkload(const WorkloadProfile &Profile);

/// Counts source lines of a generated workload.
uint64_t countLines(const std::vector<SourceInput> &Sources);

/// Named stress families for fuzzing, differential testing, and soak
/// traffic. Valid families generate well-typed programs that include an
/// `object Main { def main(args: Array[String]): Unit }` entry point, so
/// the full pipeline (transforms + interpreter) can run them. Invalid
/// families deterministically corrupt a valid base program and exercise
/// the frontend's error paths: the only acceptable outcome for them is
/// diagnostics, never a crash.
enum class Family : uint8_t {
  // Valid.
  Mixed,           // the profile-driven generator plus an entry point
  DeepInheritance, // long override chains, super calls, virtual dispatch
  ClosureHeavy,    // higher-order methods and capture-heavy lambdas
  MegaMethods,     // few classes, very long method bodies
  ManyTinyUnits,   // wide programs: many one-class compilation units
  // Invalid / adversarial.
  Truncated,        // a unit cut off mid-token/mid-definition
  TokenMutation,    // word-level replace/delete/duplicate mutations
  UnbalancedDelims, // deleted or inserted braces/parens/brackets
  TypeErrorSeeded,  // parses cleanly, fails in the typer
  // Valid (appended, so the families above keep their values).
  Generics, // generic classes, methods and function values at concrete types
};

const char *familyName(Family F);
bool familyIsValid(Family F);
/// All families in declaration order (stable across runs, for iteration).
const std::vector<Family> &allFamilies();

/// Generates one deterministic program for (family, seed). \p Scale
/// stretches program size; 1.0 is a few hundred lines. Equal arguments
/// yield byte-identical sources.
std::vector<SourceInput> generateFamily(Family F, uint64_t Seed,
                                        double Scale = 1.0);

} // namespace mpc

#endif // MPC_WORKLOAD_PROGRAMGENERATOR_H
