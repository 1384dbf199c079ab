//===----------------------------------------------------------------------===//
// Figure 4: execution time of the tree-transformation pipeline, the
// typechecker (front end) and the code-generation backend, comparing the
// Miniphase (fused) and Megaphase (unfused) versions of the compiler on
// the stdlib-like (34 kLOC) and dotty-like (50 kLOC) workloads. Each
// configuration is measured over repetitions; rows report the median and
// range (BenchCommon::summarize).
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

namespace {

struct StageSamples {
  std::vector<double> Frontend, Transform, Backend, Total;
  RunResult Last;

  void record(const RunResult &R) {
    Frontend.push_back(R.FrontendSec);
    Transform.push_back(R.TransformSec);
    Backend.push_back(R.BackendSec);
    Total.push_back(R.FrontendSec + R.TransformSec + R.BackendSec);
    Last = R;
  }
};

void runWorkload(const WorkloadProfile &P, unsigned Reps) {
  // Alternate the configurations so allocator/page-cache drift spreads
  // evenly across both sample sets.
  StageSamples Fused, Unfused;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    Fused.record(
        runOnce(P, PipelineKind::StandardFused, StopAfter::Everything, false));
    Unfused.record(runOnce(P, PipelineKind::StandardUnfused,
                           StopAfter::Everything, false));
  }

  std::printf("\n[%s: %llu LOC, %llu nodes, %llu vs %llu traversals, "
              "%llu subtrees pruned]\n",
              P.Name.c_str(), (unsigned long long)Fused.Last.Loc,
              (unsigned long long)Fused.Last.NodesBeforeTransforms,
              (unsigned long long)Fused.Last.Traversals,
              (unsigned long long)Unfused.Last.Traversals,
              (unsigned long long)Fused.Last.SubtreesPruned);
  std::printf("  %-22s %24s %24s %10s\n", "stage", "miniphase", "megaphase",
              "delta");
  auto Row = [](const char *Stage, const std::vector<double> &A,
                const std::vector<double> &B) {
    Summary SA = summarize(A), SB = summarize(B);
    std::printf("  %-22s %24s %24s %10s\n", Stage, fmtSummary(SA).c_str(),
                fmtSummary(SB).c_str(),
                fmtPct(SA.Median / SB.Median - 1.0).c_str());
  };
  Row("frontend (typer)", Fused.Frontend, Unfused.Frontend);
  Row("tree transformations", Fused.Transform, Unfused.Transform);
  Row("backend (codegen)", Fused.Backend, Unfused.Backend);
  Row("total", Fused.Total, Unfused.Total);

  Summary TF = summarize(Fused.Transform), TU = summarize(Unfused.Transform);
  Summary AF = summarize(Fused.Total), AU = summarize(Unfused.Total);
  std::printf("  measured transform speedup: %s   (paper: %s)\n",
              fmtPct(TF.Median / TU.Median - 1.0).c_str(),
              P.Name == "stdlib" ? "-37%" : "-34%");
  std::printf("  measured total speedup:     %s   (paper: %s)\n",
              fmtPct(AF.Median / AU.Median - 1.0).c_str(),
              P.Name == "stdlib" ? "-15%" : "-16%");
}

} // namespace

int main() {
  printHeader("Figure 4 — stage execution times, Miniphase vs Megaphase",
              "transformations -37% (stdlib) / -34% (dotty); total "
              "-15% / -16%");
  double Scale = benchScale(1.0);
  unsigned Reps = benchReps();
  std::printf("workload scale: %.2f, repetitions: %u "
              "(MPC_BENCH_SCALE / MPC_BENCH_REPS to change)\n",
              Scale, Reps);
  // Warm up the allocator before measuring.
  runOnce(stdlibProfile(0.05), PipelineKind::StandardFused,
          StopAfter::Everything, false);
  runWorkload(stdlibProfile(Scale), Reps);
  runWorkload(dottyProfile(Scale), Reps);
  return 0;
}
