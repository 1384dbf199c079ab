//===----------------------------------------------------------------------===//
///
/// \file
/// Shared measurement harness for the figure benchmarks. Mirrors the
/// paper's methodology (§5.3): to isolate the tree-transformation
/// pipeline, a run stopping after the front end is subtracted from a run
/// stopping after the transformations. Each bench repeats a configuration
/// benchReps() times and prints the median and range of the samples.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_BENCH_BENCHCOMMON_H
#define MPC_BENCH_BENCHCOMMON_H

#include "backend/CodeGen.h"
#include "driver/Driver.h"
#include "core/Pipeline.h"
#include "memsim/CacheSim.h"
#include "memsim/ManagedHeap.h"
#include "memsim/PerfCounters.h"
#include "workload/ProgramGenerator.h"

#include <string>
#include <vector>

namespace mpc {
namespace bench {

/// How far to run the compiler.
enum class StopAfter { Frontend, Transforms, Everything };

/// One measured compiler run.
struct RunResult {
  double FrontendSec = 0;
  double TransformSec = 0;
  double BackendSec = 0;
  uint64_t Traversals = 0;
  uint64_t Loc = 0;
  uint64_t NodesBeforeTransforms = 0;
  /// Subtrees the fusion engine pruned in the transform stage.
  uint64_t SubtreesPruned = 0;
  /// Real-storage allocator counters for the whole run (system-allocator
  /// calls, slab-served allocations, slab pages).
  uint64_t RealAllocs = 0;
  uint64_t SlabHits = 0;
  uint64_t PagesMapped = 0;
  HeapStats Heap;        // whole-run heap statistics
  CacheCounters Cache;   // simulated cache counters (when simulated)
  PerfStats Perf;        // simulated instruction/cycle counters
};

/// Runs the compiler on \p Profile's generated sources. When \p Simulate,
/// the cache/perf simulators are attached (slow; used by Figs 7/8).
/// \p SlabHeap selects the real-storage backend (the simulated heap
/// figures are identical either way; fig5 compares the real side).
RunResult runOnce(const WorkloadProfile &Profile, PipelineKind Kind,
                  StopAfter Stop, bool Simulate,
                  uint64_t YoungGenBytes = 0, bool SlabHeap = true);

/// Transform-stage isolation via subtraction of a frontend-only run
/// (paper §5.3). Returns (through-transforms minus frontend-only).
struct IsolatedTransforms {
  HeapStats Heap;
  CacheCounters Cache;
  PerfStats Perf;
  RunResult Full; // the through-transforms run, for times
};
IsolatedTransforms isolateTransforms(const WorkloadProfile &Profile,
                                     PipelineKind Kind, bool Simulate,
                                     uint64_t YoungGenBytes = 0);

/// Reads MPC_BENCH_SCALE (default \p Def) — lets CI run the benches at
/// reduced size.
double benchScale(double Def = 1.0);

/// Reads MPC_BENCH_REPS (default \p Def, floor 2) — how many repetitions
/// the figure benches measure per configuration.
unsigned benchReps(unsigned Def = 5);

/// Median and range of a sample set: the one summary every bench prints.
struct Summary {
  double Median = 0;
  double Min = 0;
  double Max = 0;
};
Summary summarize(std::vector<double> Samples);

/// Formats a summary as "<median><unit> [<min>, <max>]" with \p Digits
/// decimals, e.g. "0.123s [0.120, 0.131]".
std::string fmtSummary(const Summary &S, const char *Unit = "s",
                       int Digits = 3);

/// Formatting helpers.
void printHeader(const std::string &Title, const std::string &PaperClaim);
std::string fmtPct(double Ratio); // e.g. "-35.2%"
std::string fmtMB(uint64_t Bytes);

} // namespace bench
} // namespace mpc

#endif // MPC_BENCH_BENCHCOMMON_H
