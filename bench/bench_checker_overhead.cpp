//===----------------------------------------------------------------------===//
// §6.3: "The runtime overhead of the dynamic checks depends significantly
// on the specific code being compiled, but the approximate slowdown in
// the running time of the compiler is about 1.5x."
//
// This bench compiles both workloads with the TreeChecker disabled and
// enabled (global invariants + bottom-up retype + accumulated phase
// postconditions after every group, exactly Listing 9) and reports the
// whole-compiler slowdown over benchReps() repetitions as the median and
// range (BenchCommon::summarize), alternating the configurations per
// repetition.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "frontend/Frontend.h"
#include "frontend/TypeAssigner.h"
#include "support/OStream.h"
#include "support/Timer.h"
#include "transforms/StandardPlan.h"

#include <cstdio>
#include <cstdlib>

using namespace mpc;
using namespace mpc::bench;

namespace {

struct CheckedRun {
  double TotalSec = 0;
  double TransformSec = 0;
  uint64_t FailuresFound = 0;
};

CheckedRun runWithChecking(const WorkloadProfile &Profile, bool Check) {
  CheckedRun R;
  auto Sources = generateWorkload(Profile);

  CompilerContext Comp;
  Comp.options().CheckTrees = Check;

  std::vector<std::string> Errors;
  PhasePlan Plan = makeStandardPlan(/*Fuse=*/true, Errors);
  if (!Errors.empty()) {
    std::fprintf(stderr, "plan error: %s\n", Errors.front().c_str());
    std::abort();
  }

  Timer Total;
  std::vector<CompilationUnit> Units = runFrontEnd(Comp, std::move(Sources));
  if (Comp.diags().hasErrors()) {
    Comp.diags().printAll(errs());
    std::abort();
  }

  TreeChecker Checker(makeRetypeChecker());
  TransformPipeline Pipeline(Plan);
  Timer Transform;
  PipelineResult PR = Pipeline.run(Units, Comp, Check ? &Checker : nullptr);
  R.TransformSec = Transform.elapsedSeconds();
  Program Prog = generateCode(Units, Comp);
  (void)Prog;
  R.TotalSec = Total.elapsedSeconds();
  R.FailuresFound = PR.CheckFailures.size();
  return R;
}

void runWorkload(const WorkloadProfile &P, unsigned Reps) {
  std::vector<double> OffTransform, OnTransform, OffTotal, OnTotal;
  uint64_t Failures = 0;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    CheckedRun Off = runWithChecking(P, false);
    CheckedRun On = runWithChecking(P, true);
    OffTransform.push_back(Off.TransformSec);
    OnTransform.push_back(On.TransformSec);
    OffTotal.push_back(Off.TotalSec);
    OnTotal.push_back(On.TotalSec);
    Failures += On.FailuresFound;
  }
  Summary OffT = summarize(OffTransform), OnT = summarize(OnTransform);
  Summary OffA = summarize(OffTotal), OnA = summarize(OnTotal);

  std::printf("\n[%s: %u reps]\n", P.Name.c_str(), Reps);
  std::printf("  %-28s %24s %24s %10s\n", "", "-Ycheck off", "-Ycheck on",
              "ratio");
  std::printf("  %-28s %24s %24s %9.2fx\n", "tree transformations",
              fmtSummary(OffT).c_str(), fmtSummary(OnT).c_str(),
              OnT.Median / OffT.Median);
  std::printf("  %-28s %24s %24s %9.2fx\n", "whole compiler",
              fmtSummary(OffA).c_str(), fmtSummary(OnA).c_str(),
              OnA.Median / OffA.Median);
  std::printf("  checker failures: %llu (must be 0 on a healthy pipeline)\n",
              (unsigned long long)Failures);
  if (Failures != 0)
    std::abort();
}

} // namespace

int main() {
  printHeader("§6.3 — dynamic-checker overhead",
              "approximate whole-compiler slowdown about 1.5x");
  double Scale = benchScale(0.5);
  unsigned Reps = benchReps();
  std::printf("workload scale: %.2f, repetitions: %u "
              "(MPC_BENCH_SCALE / MPC_BENCH_REPS to change)\n",
              Scale, Reps);
  runWorkload(stdlibProfile(Scale), Reps);
  runWorkload(dottyProfile(Scale), Reps);
  return 0;
}
