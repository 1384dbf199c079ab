//===----------------------------------------------------------------------===//
// Fault-containment tests: seeded fault injection (allocation failures,
// injected phase exceptions, artificial delays) against the compile
// service at several worker counts. The bar:
//
//   * workers survive every injected fault (all jobs complete, the
//     service keeps serving);
//   * every injected escape becomes exactly one Faulted result
//     (service.jobsFaulted accounting matches exactly);
//   * jobs compiled after the faults are byte-identical to a clean
//     serial cold run — no poisoned state leaks forward through the
//     shared page pool.
//===----------------------------------------------------------------------===//

#include "driver/CompileService.h"
#include "support/FaultInjector.h"
#include "workload/Corpus.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

std::vector<BatchJob> faultJobs() {
  std::vector<BatchJob> Jobs;
  const auto &Corpus = corpusPrograms();
  for (size_t I = 0; I < 16; ++I) {
    const CorpusProgram &P = Corpus[I % Corpus.size()];
    BatchJob J;
    J.Sources.push_back({P.Name + ".scala", P.Source});
    J.WantDump = true;
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

std::vector<BatchResult> serialCold(std::vector<BatchJob> Jobs) {
  return compileBatch(std::move(Jobs), /*Threads=*/1);
}

/// Runs the job set under \p FC at \p Threads workers, then — injector
/// gone — the same jobs again on the same (possibly fault-scarred)
/// service, asserting the containment contract throughout.
void runFaultMatrix(const FaultConfig &FC, unsigned Threads,
                    const std::vector<BatchResult> &Clean) {
  std::string Label = "threads=" + std::to_string(Threads);
  ServiceConfig Cfg;
  Cfg.Threads = Threads;
  Cfg.Cache.Enabled = false; // every job must really compile
  CompileService Service(Cfg);

  uint64_t ExpectedFaults = 0;
  {
    ScopedFaultInjector Injector(FC);
    for (BatchJob &J : faultJobs())
      Service.enqueue(std::move(J));
    std::vector<BatchResult> Results = Service.drain();
    ASSERT_EQ(Results.size(), Clean.size()) << Label;

    size_t Faulted = 0, Ok = 0;
    for (size_t I = 0; I < Results.size(); ++I) {
      if (Results[I].Status == JobStatus::Faulted) {
        ++Faulted;
        EXPECT_TRUE(Results[I].HadErrors) << Label << " job " << I;
        EXPECT_NE(Results[I].DiagText.find("faulted"), std::string::npos)
            << Label << " job " << I;
      } else {
        ASSERT_EQ(Results[I].Status, JobStatus::Ok) << Label << " job " << I;
        ++Ok;
        // An un-faulted job is untouched by its neighbors' faults.
        EXPECT_EQ(Results[I].DumpText, Clean[I].DumpText)
            << Label << " job " << I;
      }
    }
    // The seeds below are chosen so both populations exist — a matrix
    // run that faults nothing (or everything) tests nothing.
    EXPECT_GT(Faulted, 0u) << Label;
    EXPECT_GT(Ok, 0u) << Label;

    // Internal consistency: every injected escape became exactly one
    // Faulted result.
    FaultInjector::Stats FS = Injector.injector().stats();
    ExpectedFaults =
        FS.StageThrows + FS.PageAllocFailures + FS.FallbackFailures;
    EXPECT_EQ(Faulted, ExpectedFaults) << Label;
    EXPECT_EQ(Service.stats().get("service.jobsFaulted"), ExpectedFaults)
        << Label;
    EXPECT_EQ(Service.stats().get("service.jobsCompleted"), Clean.size())
        << Label;
  }

  // Injector withdrawn: the same jobs on the same service — drawing
  // pages that faulted jobs released into the shared pool — must be
  // byte-identical to the clean serial cold run.
  for (BatchJob &J : faultJobs())
    Service.enqueue(std::move(J));
  std::vector<BatchResult> After = Service.drain();
  ASSERT_EQ(After.size(), Clean.size()) << Label;
  for (size_t I = 0; I < After.size(); ++I) {
    EXPECT_EQ(After[I].Status, JobStatus::Ok) << Label << " job " << I;
    EXPECT_EQ(After[I].DumpText, Clean[I].DumpText) << Label << " job " << I;
    EXPECT_EQ(After[I].DiagText, Clean[I].DiagText) << Label << " job " << I;
  }
  // No new faults after the injector left.
  EXPECT_EQ(Service.stats().get("service.jobsFaulted"), ExpectedFaults)
      << Label;
}

TEST(ServiceFault, InjectedPhaseExceptionsAreContained) {
  FaultConfig FC;
  FC.Seed = 7;
  FC.StageThrowRate = 0.02;
  std::vector<BatchResult> Clean = serialCold(faultJobs());
  for (unsigned Threads : {1u, 4u, 8u})
    runFaultMatrix(FC, Threads, Clean);
}

TEST(ServiceFault, AllocationFailuresAreContained) {
  // Page-grant failures strike the allocator UNDER an allocation whose
  // simulated accounting already ran — a poisoned context that must
  // still be destroyed cleanly.
  FaultConfig FC;
  FC.Seed = 11;
  FC.PageAllocFailRate = 0.05;
  std::vector<BatchResult> Clean = serialCold(faultJobs());
  for (unsigned Threads : {1u, 4u, 8u})
    runFaultMatrix(FC, Threads, Clean);
}

TEST(ServiceFault, MixedFaultLoadIsContained) {
  FaultConfig FC;
  FC.Seed = 3;
  FC.StageThrowRate = 0.01;
  FC.PageAllocFailRate = 0.02;
  FC.StageDelayRate = 0.05;
  FC.StageDelayMicros = 100;
  std::vector<BatchResult> Clean = serialCold(faultJobs());
  for (unsigned Threads : {1u, 4u, 8u})
    runFaultMatrix(FC, Threads, Clean);
}

TEST(ServiceFault, DelaysAloneChangeNothing) {
  // Pure delay injection: no faults, outputs byte-identical — the
  // injector's observation cost is zero.
  FaultConfig FC;
  FC.StageDelayRate = 0.2;
  FC.StageDelayMicros = 100;
  ScopedFaultInjector Injector(FC);

  std::vector<BatchResult> Clean = serialCold(faultJobs());
  ServiceConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);
  for (BatchJob &J : faultJobs())
    Service.enqueue(std::move(J));
  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), Clean.size());
  for (size_t I = 0; I < Results.size(); ++I) {
    EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
    EXPECT_EQ(Results[I].DumpText, Clean[I].DumpText) << "job " << I;
  }
  EXPECT_GT(Injector.injector().stats().StageDelays, 0u);
  EXPECT_EQ(Service.stats().get("service.jobsFaulted"), 0u);
}

TEST(ServiceFault, PoolTakeMissesForceFreshMappingsHarmlessly) {
  // Injected shared-pool misses push the allocator onto the cold
  // fresh-mapping path; outputs must not care where pages came from.
  FaultConfig FC;
  FC.PoolTakeMissRate = 0.5;
  ScopedFaultInjector Injector(FC);

  std::vector<BatchResult> Clean = serialCold(faultJobs());
  ServiceConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);
  for (int Round = 0; Round < 2; ++Round) {
    for (BatchJob &J : faultJobs())
      Service.enqueue(std::move(J));
    std::vector<BatchResult> Results = Service.drain();
    ASSERT_EQ(Results.size(), Clean.size());
    for (size_t I = 0; I < Results.size(); ++I) {
      EXPECT_EQ(Results[I].Status, JobStatus::Ok)
          << "round " << Round << " job " << I;
      EXPECT_EQ(Results[I].DumpText, Clean[I].DumpText)
          << "round " << Round << " job " << I;
    }
  }
  EXPECT_GT(Injector.injector().stats().PoolMisses, 0u);
  EXPECT_EQ(Service.stats().get("service.jobsFaulted"), 0u);
}

TEST(ServiceFault, FaultedBatchJobStillReturnsItsContext) {
  // The firewall lives in runBatchJob, so compileBatch's parallel loop
  // benefits too: a faulted job hands back its context instead of losing
  // it to the unwind, and its neighbors are untouched. Every slab-page
  // acquisition fails, so exactly the one job with the slab heap on
  // faults; the slab-off jobs never take a page, and their output does
  // not depend on the backend.
  const size_t FaultedIdx = 1;
  auto MakeJobs = [&] {
    std::vector<BatchJob> Jobs = faultJobs();
    Jobs.resize(4);
    for (size_t I = 0; I < Jobs.size(); ++I)
      Jobs[I].Options.SlabHeap = I == FaultedIdx;
    return Jobs;
  };
  std::vector<BatchResult> Serial = serialCold(MakeJobs());

  FaultConfig FC;
  FC.PageAllocFailRate = 1.0;
  ScopedFaultInjector Injector(FC);
  std::vector<BatchResult> Results = compileBatch(MakeJobs(), /*Threads=*/2);
  ASSERT_EQ(Results.size(), Serial.size());
  for (size_t I = 0; I < Results.size(); ++I) {
    ASSERT_NE(Results[I].Comp, nullptr) << "job " << I;
    if (I == FaultedIdx) {
      EXPECT_EQ(Results[I].Status, JobStatus::Faulted);
      EXPECT_TRUE(Results[I].HadErrors);
    } else {
      EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
      EXPECT_EQ(Results[I].DumpText, Serial[I].DumpText) << "job " << I;
    }
  }
  EXPECT_EQ(Injector.injector().stats().PageAllocFailures, 1u);
}

} // namespace
