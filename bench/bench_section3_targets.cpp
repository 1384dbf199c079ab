//===----------------------------------------------------------------------===//
// Section 3: the target performance characteristics the framework was
// designed against — ≥12,000 transformed LOC/second, ~12 nodes per line,
// and a per-node visit budget of 140ns (fused, 10 traversals) vs 14ns
// (100 separate Megaphase traversals). Timed figures are the median and
// range over benchReps() repetitions.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

int main() {
  printHeader("Section 3 — target performance characteristics",
              "transform >= 12 kLOC/s; ~12 nodes/LOC; 140 ns/node visit "
              "budget for fused traversals");
  double Scale = benchScale(1.0);
  unsigned Reps = benchReps();
  WorkloadProfile P = stdlibProfile(Scale);
  // Alternate the configurations so host drift spreads over both.
  std::vector<double> LocPerSec, NsFused, NsUnfused;
  RunResult Fused, Unfused;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    Fused =
        runOnce(P, PipelineKind::StandardFused, StopAfter::Transforms, false);
    Unfused = runOnce(P, PipelineKind::StandardUnfused,
                      StopAfter::Transforms, false);
    LocPerSec.push_back(double(Fused.Loc) / Fused.TransformSec);
    NsFused.push_back(Fused.TransformSec * 1e9 /
                      (double(Fused.NodesBeforeTransforms) *
                       double(Fused.Traversals)));
    NsUnfused.push_back(Unfused.TransformSec * 1e9 /
                        (double(Unfused.NodesBeforeTransforms) *
                         double(Unfused.Traversals)));
  }

  std::printf("workload: %llu LOC, %llu typed nodes, %u reps\n",
              (unsigned long long)Fused.Loc,
              (unsigned long long)Fused.NodesBeforeTransforms, Reps);
  std::printf("  nodes per line:            %6.1f   (paper assumes ~12)\n",
              double(Fused.NodesBeforeTransforms) / double(Fused.Loc));
  std::printf("  transform throughput:      %s LOC/s  (target >= 12000)\n",
              fmtSummary(summarize(LocPerSec), "", 0).c_str());
  std::printf("  traversals (fused):        %6llu   (paper targets ~10 "
              "for ~100 phases)\n",
              (unsigned long long)Fused.Traversals);
  std::printf("  ns per node visit, fused:  %s   (budget 140 ns)\n",
              fmtSummary(summarize(NsFused), "", 1).c_str());
  std::printf("  ns per node visit, split:  %s   (budget 14 ns)\n",
              fmtSummary(summarize(NsUnfused), "", 1).c_str());
  return 0;
}
