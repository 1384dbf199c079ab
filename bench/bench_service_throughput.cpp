//===----------------------------------------------------------------------===//
// Compile-service throughput benchmark: jobs/sec through the persistent
// worker pool (a fresh context per job over the shared page pool) — the
// measurement behind the "compiler as a resident service" direction (the
// paper's §9 parallel-compilation future work meets a compile-server
// deployment).
//
// Protocol: MPC_BENCH_REPS repetitions (default 5), mean ±CV, with the
// service.* counters (pages shared and mapped, worker utilization) from
// the last repetition. MPC_BENCH_THREADS overrides the worker
// count (default: hardware concurrency).
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/CompileService.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>

using namespace mpc;
using namespace mpc::bench;

namespace {

unsigned benchThreads() {
  if (const char *Env = std::getenv("MPC_BENCH_THREADS"))
    return static_cast<unsigned>(std::atoi(Env));
  return 0; // hardware concurrency
}

/// Pre-generated job sources, cloned into fresh BatchJobs per repetition.
std::vector<std::vector<SourceInput>> makeJobSources(unsigned NumJobs,
                                                     double Scale) {
  std::vector<std::vector<SourceInput>> Jobs;
  Jobs.reserve(NumJobs);
  for (uint64_t Seed = 1; Seed <= NumJobs; ++Seed) {
    WorkloadProfile P = stdlibProfile(Scale);
    P.Seed = Seed;
    P.UnitsHint = 2;
    Jobs.push_back(generateWorkload(P));
  }
  return Jobs;
}

struct Outcome {
  SampleStats JobsPerSec;
  uint64_t PagesShared = 0;
  uint64_t PagesMapped = 0;
  uint64_t RealAllocs = 0;
  uint64_t Utilization = 0;
  uint64_t QueueDepthPeak = 0;
  double QueueWaitSec = 0;   // summed across jobs, last repetition
  double CompileSec = 0;     // summed phase time across jobs, last repetition
};

Outcome measure(const std::vector<std::vector<SourceInput>> &JobSources,
                unsigned Reps) {
  std::vector<double> Rates;
  Outcome Out;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    ServiceConfig Cfg;
    Cfg.Threads = benchThreads();
    // With the artifact cache on, repetitions would replay instead of
    // recompiling (that effect has its own benchmark,
    // bench_cache_warm_edit).
    Cfg.Cache.Enabled = false;
    CompileService Service(Cfg);
    Timer T;
    for (const std::vector<SourceInput> &Sources : JobSources) {
      BatchJob J;
      J.Sources = Sources;
      Service.enqueue(std::move(J));
    }
    std::vector<BatchResult> Results = Service.drain();
    double Sec = T.elapsedSeconds();
    for (const BatchResult &R : Results)
      if (R.HadErrors) {
        std::fprintf(stderr, "bench job failed:\n%s\n", R.DiagText.c_str());
        std::abort();
      }
    Rates.push_back(double(JobSources.size()) / Sec);
    Out.QueueWaitSec = 0;
    Out.CompileSec = 0;
    for (const BatchResult &R : Results) {
      Out.QueueWaitSec += R.Out.Timings.QueueWaitSec;
      Out.CompileSec += R.Out.Timings.totalSec();
    }
    Out.QueueDepthPeak = Service.stats().get("service.queueDepthPeak");
    Out.PagesShared = Service.stats().get("service.pagesShared");
    Out.PagesMapped = Service.stats().get("service.pagesMapped");
    Out.RealAllocs = Service.stats().get("service.realAllocs");
    Out.Utilization = Service.stats().get("service.workerUtilization");
  }
  Out.JobsPerSec = meanCv(Rates);
  return Out;
}

} // namespace

int main() {
  printHeader("Compile-service throughput — cold contexts, shared pages",
              "repo-specific service benchmark (no paper figure)");
  double Scale = benchScale(0.05);
  unsigned Reps = benchReps();
  unsigned NumJobs = 16;
  std::printf("jobs per drain: %u, workload scale: %.3f, repetitions: %u\n",
              NumJobs, Scale, Reps);

  auto JobSources = makeJobSources(NumJobs, Scale);
  // Warm-up so page-cache and allocator state spread evenly.
  measure(JobSources, 1);

  Outcome R = measure(JobSources, Reps);

  std::printf("\n  %-28s %10.1f jobs/s ±%.1f%%\n", "service throughput",
              R.JobsPerSec.Mean, R.JobsPerSec.CvPct);
  std::printf("  pagesShared=%llu pagesMapped=%llu realAllocs=%llu "
              "workerUtilization=%llu%%\n",
              (unsigned long long)R.PagesShared,
              (unsigned long long)R.PagesMapped,
              (unsigned long long)R.RealAllocs,
              (unsigned long long)R.Utilization);

  // Queueing behavior: how long jobs sat in the admission queue versus
  // actually compiling, and how deep the queue got. The whole job set is
  // enqueued up-front, so queue wait dominates until the pool drains.
  std::printf("  queue wait vs compile (summed): %.1f ms / %.1f ms; "
              "queue depth peak: %llu\n",
              1e3 * R.QueueWaitSec, 1e3 * R.CompileSec,
              (unsigned long long)R.QueueDepthPeak);

  jsonMetric("service_throughput", "jobs_per_sec", R.JobsPerSec.Mean);
  jsonMetric("service_throughput", "cv_pct", R.JobsPerSec.CvPct);
  jsonMetric("service_throughput", "pages_shared", double(R.PagesShared));
  jsonMetric("service_throughput", "pages_mapped", double(R.PagesMapped));
  jsonMetric("service_throughput", "worker_utilization_pct",
             double(R.Utilization));
  jsonMetric("service_throughput", "queue_wait_sec", R.QueueWaitSec);
  jsonMetric("service_throughput", "compile_sec", R.CompileSec);
  jsonMetric("service_throughput", "queue_depth_peak",
             double(R.QueueDepthPeak));
  return 0;
}
