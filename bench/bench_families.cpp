//===----------------------------------------------------------------------===//
// Stress-family benchmark: full-pipeline wall time per generator family.
// Valid families measure the compile cost of adversarially-shaped (but
// well-typed) programs plus one run on each engine (runPipelineOnce runs
// the tree-walker and the VM); invalid families measure the error path —
// parse recovery, poisoned typing, and diagnostics — which the compile
// service pays on every malformed job.
//
// Protocol: MPC_BENCH_REPS repetitions of an 8-seed batch per family,
// median and range of batch wall time, plus diagnostics counters from the
// last repetition. A crash in any family fails the run.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Timer.h"
#include "workload/Fuzzer.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

namespace {

/// Returns false when a case crashed.
bool runFamily(Family F, double Scale, unsigned Reps) {
  const uint64_t Seeds = 8;
  std::vector<double> Samples;
  uint64_t Diags = 0, Clean = 0;
  uint64_t Loc = 0;
  for (uint64_t S = 0; S < Seeds; ++S)
    Loc += countLines(generateFamily(F, S, Scale));

  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    Diags = Clean = 0;
    Timer T;
    for (uint64_t S = 0; S < Seeds; ++S) {
      CompilerContext Comp;
      FuzzOutcome O = runPipelineOnce(Comp, generateFamily(F, S, Scale));
      if (O.Crashed) {
        std::printf("  CRASH in %s seed %llu: %s\n", familyName(F),
                    (unsigned long long)S, O.Error.c_str());
        return false;
      }
      if (O.HasErrors)
        ++Diags;
      else
        ++Clean;
    }
    Samples.push_back(T.elapsedSeconds());
  }

  std::printf("  %-18s %24s  (%llu LOC, %llu clean, %llu diagnosed)\n",
              familyName(F), fmtSummary(summarize(Samples)).c_str(),
              (unsigned long long)Loc, (unsigned long long)Clean,
              (unsigned long long)Diags);
  return true;
}

} // namespace

int main() {
  printHeader("Stress families — full pipeline per generator family",
              "error-path and adversarial-shape benchmark (no paper figure)");
  double Scale = benchScale(0.3);
  unsigned Reps = benchReps();
  std::printf("family scale: %.2f, repetitions: %u, 8 seeds per batch "
              "(MPC_BENCH_SCALE / MPC_BENCH_REPS to change)\n\n",
              Scale, Reps);
  // Warm-up so allocator state spreads evenly across families.
  for (Family F : allFamilies()) {
    CompilerContext Comp;
    (void)runPipelineOnce(Comp, generateFamily(F, 0, 0.1));
  }
  bool Ok = true;
  for (Family F : allFamilies())
    Ok &= runFamily(F, Scale, Reps);
  return Ok ? 0 : 1;
}
