//===----------------------------------------------------------------------===//
// Compile-service tests: the persistent worker pool, with a fresh context
// per job over the shared page pool, must be observationally identical to
// serial cold-context compilation.
//
//   * Determinism differential: per-job typed tree dumps and HeapStats
//     are byte-identical to a serial compileBatch baseline at worker
//     counts 1, 4, and 8, over the corpus plus generated stdlib/dotty
//     workloads.
//   * Page-pool stress: many small jobs churn pages through the shared
//     pool (service.pagesShared > 0) with no allocator corruption — the
//     SlabAllocator's internal invariants run under every job.
//   * Queue behavior: enqueue-while-running across multiple drains keeps
//     id order and accumulates counters.
//   * Completion handlers: every job's own handler runs exactly once with
//     its status, refusals before tryEnqueue() returns, all before stop()
//     returns.
//   * Artifact cache: a cache-hit drain is byte-identical to a
//     cache-disabled run at worker counts 1/4/8, error results replay
//     byte-identically, and the service counters track hits/misses/bytes.
//   * Stats: stats() holds still between drains, and the deterministic
//     counters reach equal totals at 1 and 4 workers.
//===----------------------------------------------------------------------===//

#include "ServiceTestSupport.h"
#include "driver/CompileService.h"
#include "support/FaultInjector.h"
#include "workload/Corpus.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>

using namespace mpc;

namespace {

/// The job list both sides compile: every corpus program plus two
/// generated code bases (the paper's stdlib/dotty stand-ins, tiny scale).
std::vector<BatchJob> serviceJobs() {
  std::vector<BatchJob> Jobs;
  for (const CorpusProgram &P : corpusPrograms()) {
    BatchJob J;
    J.Sources.push_back({P.Name + ".scala", P.Source});
    J.WantDump = true;
    Jobs.push_back(std::move(J));
  }
  for (bool Dotty : {false, true}) {
    WorkloadProfile P = Dotty ? dottyProfile(0.02) : stdlibProfile(0.02);
    P.UnitsHint = 2;
    BatchJob J;
    J.Sources = generateWorkload(P);
    J.WantDump = true;
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

void expectSameHeap(const HeapStats &A, const HeapStats &B,
                    const std::string &Label) {
  EXPECT_EQ(A.AllocatedBytes, B.AllocatedBytes) << Label;
  EXPECT_EQ(A.AllocatedObjects, B.AllocatedObjects) << Label;
  EXPECT_EQ(A.TenuredBytes, B.TenuredBytes) << Label;
  EXPECT_EQ(A.TenuredObjects, B.TenuredObjects) << Label;
  EXPECT_EQ(A.TenuredBeforeBoundaryBytes, B.TenuredBeforeBoundaryBytes)
      << Label;
  EXPECT_EQ(A.FreedBytes, B.FreedBytes) << Label;
  EXPECT_EQ(A.FreedObjects, B.FreedObjects) << Label;
  EXPECT_EQ(A.MinorGCs, B.MinorGCs) << Label;
  EXPECT_EQ(A.LiveBytes, B.LiveBytes) << Label;
  EXPECT_EQ(A.PeakLiveBytes, B.PeakLiveBytes) << Label;
}

/// The reference: one cold context per job, no service, no page pool.
std::vector<BatchResult> serialColdBaseline(std::vector<BatchJob> Jobs) {
  return compileBatch(std::move(Jobs), /*Threads=*/1);
}

TEST(CompileService, ServiceMatchesSerialColdAtEveryThreadCount) {
  std::vector<BatchResult> Baseline = serialColdBaseline(serviceJobs());
  for (unsigned Threads : {1u, 4u, 8u}) {
    ServiceConfig Cfg;
    Cfg.Threads = Threads;
    ResultCollector Sink;
    CompileService Service(Cfg);
    std::vector<BatchJob> Jobs = serviceJobs();
    for (BatchJob &J : Jobs)
      Sink.submit(Service, std::move(J));
    std::vector<BatchResult> Results = Sink.drain(Service);
    ASSERT_EQ(Results.size(), Baseline.size()) << Threads << " threads";
    for (size_t I = 0; I < Results.size(); ++I) {
      std::string Label =
          "job " + std::to_string(I) + " @ " + std::to_string(Threads) +
          " threads";
      EXPECT_FALSE(Results[I].HadErrors)
          << Label << ": " << Results[I].DiagText;
      EXPECT_FALSE(Results[I].DumpText.empty()) << Label;
      EXPECT_EQ(Results[I].DumpText, Baseline[I].DumpText) << Label;
      expectSameHeap(Results[I].Heap, Baseline[I].Heap, Label);
      // Service mode: contexts were destroyed, not returned.
      EXPECT_EQ(Results[I].Comp, nullptr) << Label;
    }
    EXPECT_EQ(Service.stats().get("service.jobsCompleted"), Jobs.size());
  }
}

TEST(CompileService, PagePoolStressSharesPagesAcrossJobs) {
  ServiceConfig Cfg;
  Cfg.Threads = 4;
  ResultCollector Sink;
  CompileService Service(Cfg);
  ASSERT_NE(Service.pagePool(), nullptr);
  // Many small jobs: every completion releases its pages into the shared
  // pool, every start pulls from it.
  unsigned NumJobs = 24;
  for (uint64_t Seed = 1; Seed <= NumJobs; ++Seed) {
    WorkloadProfile P = stdlibProfile(0.01);
    P.Seed = Seed;
    P.UnitsHint = 1;
    BatchJob J;
    J.Sources = generateWorkload(P);
    Sink.submit(Service, std::move(J));
  }
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), NumJobs);
  for (size_t I = 0; I < Results.size(); ++I)
    EXPECT_FALSE(Results[I].HadErrors) << "job " << I;
  EXPECT_EQ(Service.stats().get("service.jobsCompleted"), NumJobs);
  // Pages mapped by earlier jobs served later ones.
  EXPECT_GT(Service.stats().get("service.pagesShared"), 0u);
  // Every context is destroyed, so its pages are back in the pool.
  EXPECT_GT(Service.pagePool()->size(), 0u);
  PagePool::Stats PS = Service.pagePool()->stats();
  EXPECT_GE(PS.PagesPut, PS.PagesTaken);
}

TEST(CompileService, EnqueueWhileRunningKeepsOrderAcrossDrains) {
  // Cache off so wave 2 recompiles rather than replaying the cache.
  ServiceConfig Cfg;
  Cfg.Threads = 2;
  Cfg.Cache.Enabled = false;
  ResultCollector Sink;
  CompileService Service(Cfg);
  const auto &Corpus = corpusPrograms();
  auto JobFor = [&](size_t I) {
    BatchJob J;
    J.Sources.push_back(
        {Corpus[I].Name + ".scala", Corpus[I].Source});
    J.WantDump = true;
    return J;
  };
  // First wave enqueued while workers may already be chewing on it.
  std::vector<uint64_t> Ids;
  for (size_t I = 0; I < 3 && I < Corpus.size(); ++I)
    Ids.push_back(Sink.submit(Service, JobFor(I)).Id);
  std::vector<BatchResult> Wave1 = Sink.drain(Service);
  ASSERT_EQ(Wave1.size(), Ids.size());
  EXPECT_EQ(Ids.front(), 0u);
  // Second wave on the same (still running) service.
  for (size_t I = 0; I < 3 && I < Corpus.size(); ++I)
    Sink.submit(Service, JobFor(I));
  std::vector<BatchResult> Wave2 = Sink.drain(Service);
  ASSERT_EQ(Wave2.size(), Wave1.size());
  for (size_t I = 0; I < Wave1.size(); ++I)
    EXPECT_EQ(Wave1[I].DumpText, Wave2[I].DumpText) << "job " << I;
  EXPECT_EQ(Service.stats().get("service.jobsCompleted"),
            Wave1.size() + Wave2.size());
}

//===----------------------------------------------------------------------===//
// Artifact cache
//===----------------------------------------------------------------------===//

TEST(CompileService, CacheHitDrainIsByteIdenticalToCacheDisabledRun) {
  // The correctness bar of the cache: replayed results must be
  // indistinguishable from compiled ones. Baseline = cache-disabled
  // serial service; cached services enqueue the same jobs TWICE, so the
  // second drain is served entirely from the cache.
  ServiceConfig BaseCfg;
  BaseCfg.Threads = 1;
  BaseCfg.Cache.Enabled = false;
  ResultCollector BaselineSink;
  CompileService Baseline(BaseCfg);
  for (BatchJob &J : serviceJobs())
    BaselineSink.submit(Baseline, std::move(J));
  std::vector<BatchResult> Expected = BaselineSink.drain(Baseline);

  for (unsigned Threads : {1u, 4u, 8u}) {
    ServiceConfig Cfg;
    Cfg.Threads = Threads;
    ResultCollector Sink;
    CompileService Service(Cfg);
    ASSERT_NE(Service.artifactCache(), nullptr);
    for (int Round = 0; Round < 2; ++Round) {
      for (BatchJob &J : serviceJobs())
        Sink.submit(Service, std::move(J));
      std::vector<BatchResult> Results = Sink.drain(Service);
      ASSERT_EQ(Results.size(), Expected.size());
      for (size_t I = 0; I < Results.size(); ++I) {
        std::string Label = "job " + std::to_string(I) + " round " +
                            std::to_string(Round) + " @ " +
                            std::to_string(Threads) + " threads";
        EXPECT_EQ(Results[I].DumpText, Expected[I].DumpText) << Label;
        EXPECT_EQ(Results[I].DiagText, Expected[I].DiagText) << Label;
        EXPECT_EQ(Results[I].HadErrors, Expected[I].HadErrors) << Label;
        expectSameHeap(Results[I].Heap, Expected[I].Heap, Label);
        EXPECT_EQ(Results[I].Comp, nullptr) << Label;
      }
    }
    // Round 1 all missed, round 2 all hit.
    EXPECT_EQ(Service.stats().get("service.cacheMisses"), Expected.size())
        << Threads << " threads";
    EXPECT_EQ(Service.stats().get("service.cacheHits"), Expected.size())
        << Threads << " threads";
    EXPECT_GT(Service.stats().get("service.cacheBytes"), 0u);
    EXPECT_EQ(Service.stats().get("service.jobsCompleted"),
              2 * Expected.size());
  }
}

TEST(CompileService, CacheKeysOnSourceContent) {
  // Same file name, different text: must miss. Different name, same
  // text: must also miss (file names appear in dumps/diagnostics).
  ServiceConfig Cfg;
  Cfg.Threads = 1;
  ResultCollector Sink;
  CompileService Service(Cfg);
  auto Enqueue = [&](const std::string &Name, const std::string &Text) {
    BatchJob J;
    J.Sources.push_back({Name, Text});
    J.WantDump = true;
    Sink.submit(Service, std::move(J));
  };
  Enqueue("a.scala", corpusPrograms()[0].Source);
  Enqueue("a.scala", corpusPrograms()[1].Source);
  Enqueue("b.scala", corpusPrograms()[0].Source);
  Enqueue("a.scala", corpusPrograms()[0].Source); // the only repeat
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 4u);
  EXPECT_EQ(Results[3].DumpText, Results[0].DumpText);
  EXPECT_EQ(Service.stats().get("service.cacheMisses"), 3u);
  EXPECT_EQ(Service.stats().get("service.cacheHits"), 1u);
}

TEST(CompileService, ErrorResultsReplayDeterministically) {
  // The second failing job is a hit and its diagnostics replay
  // byte-identically.
  ServiceConfig Cfg;
  Cfg.Threads = 1;
  ResultCollector Sink;
  CompileService Service(Cfg);
  std::string Bad = "class C { def f(): Int = missing }";
  for (int I = 0; I < 2; ++I) {
    BatchJob J;
    J.Sources.push_back({"bad.scala", Bad});
    Sink.submit(Service, std::move(J));
  }
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_TRUE(Results[0].HadErrors);
  EXPECT_TRUE(Results[1].HadErrors);
  EXPECT_EQ(Results[0].DiagText, Results[1].DiagText);
  EXPECT_EQ(Service.stats().get("service.cacheHits"), 1u);
}

TEST(CompileService, CacheEvictionKeepsBytesUnderCap) {
  // A churn stream of distinct jobs through a deliberately tiny cache:
  // service.cacheBytes must stay under MaxBytes while evictions mount.
  auto ChurnJob = [](uint64_t Seed) {
    WorkloadProfile P = stdlibProfile(0.01);
    P.Seed = Seed;
    P.UnitsHint = 1;
    BatchJob J;
    J.Sources = generateWorkload(P);
    J.WantDump = true; // dumps make artifacts big enough to churn
    return J;
  };
  const uint64_t NumJobs = 24;
  // Probe pass: measure what the whole stream occupies uncapped, then
  // cap the real cache at a third of that — evictions are then certain,
  // and every artifact still fits individually (they are similar sizes).
  uint64_t TotalBytes;
  {
    ServiceConfig Probe;
    Probe.Threads = 2;
    ResultCollector Sink;
    CompileService Service(Probe);
    for (uint64_t Seed = 1; Seed <= NumJobs; ++Seed)
      Sink.submit(Service, ChurnJob(Seed));
    Service.drain();
    TotalBytes = Service.stats().get("service.cacheBytes");
    ASSERT_GT(TotalBytes, 0u);
    EXPECT_EQ(Service.stats().get("service.cacheEvictions"), 0u);
  }

  ServiceConfig Cfg;
  Cfg.Threads = 2;
  Cfg.Cache.MaxBytes = TotalBytes / 3;
  ResultCollector Sink;
  CompileService Service(Cfg);
  for (uint64_t Seed = 1; Seed <= NumJobs; ++Seed) {
    Sink.submit(Service, ChurnJob(Seed));
    std::vector<BatchResult> R = Sink.drain(Service);
    ASSERT_EQ(R.size(), 1u);
    EXPECT_FALSE(R[0].HadErrors);
    EXPECT_LE(Service.stats().get("service.cacheBytes"), Cfg.Cache.MaxBytes)
        << "after job " << Seed;
  }
  ASSERT_NE(Service.artifactCache(), nullptr);
  EXPECT_GT(Service.stats().get("service.cacheEvictions"), 0u);
  EXPECT_LE(Service.artifactCache()->bytes(), Cfg.Cache.MaxBytes);
  // Churned entries really left: the cache holds fewer than the stream.
  EXPECT_LT(Service.artifactCache()->entries(), NumJobs);
}

//===----------------------------------------------------------------------===//
// The completion-handler contract (what the network server builds on)
//===----------------------------------------------------------------------===//

/// Every job runs its own handler exactly once with its status — Ok,
/// Rejected (refused under RejectNewest, shed under ShedOldest),
/// DeadlineExceeded and Faulted. A refusal runs it before tryEnqueue()
/// returns, while the only worker is held at a gate, and stop() returns
/// only after every handler has run.
TEST(CompileService, EveryJobRunsItsOwnHandlerOnceWithItsStatus) {
  for (QueuePolicy Policy : {QueuePolicy::RejectNewest,
                             QueuePolicy::ShedOldest}) {
    const bool Shed = Policy == QueuePolicy::ShedOldest;
    const std::string Label = Shed ? "ShedOldest" : "RejectNewest";
    // The first job waits at the gate; every slab-page acquisition
    // fails, so exactly the one job with the slab heap on faults.
    WorkerGate Gate;
    FaultConfig FC = Gate.config();
    FC.PageAllocFailRate = 1.0;
    ScopedFaultInjector Injector(FC);

    ResultCollector Sink;
    ServiceConfig Cfg;
    Cfg.Threads = 1;
    Cfg.MaxQueueDepth = 3;
    Cfg.Policy = Policy;
    Cfg.Cache.Enabled = false;
    CompileService Service(Cfg);

    auto Job = [](double DeadlineSec = 0, bool Slab = false) {
      BatchJob J;
      J.Sources.push_back({"ok.scala", corpusPrograms()[0].Source});
      J.Options.SlabHeap = Slab;
      J.DeadlineSec = DeadlineSec;
      return J;
    };
    // 0 runs at the gate; 1 (the oldest queued job), 2 (a 1 ms deadline)
    // and 3 (slab heap on) fill the queue; 4 arrives at a full queue.
    ASSERT_TRUE(Sink.submit(Service, Job()).Accepted) << Label;
    Gate.awaitBlocked();
    ASSERT_TRUE(Sink.submit(Service, Job()).Accepted) << Label;
    ASSERT_TRUE(Sink.submit(Service, Job(/*DeadlineSec=*/0.001)).Accepted)
        << Label;
    ASSERT_TRUE(
        Sink.submit(Service, Job(/*DeadlineSec=*/0, /*Slab=*/true)).Accepted)
        << Label;
    AdmitResult Last = Sink.submit(Service, Job());
    EXPECT_EQ(Last.Accepted, Shed) << Label;
    EXPECT_EQ(Last.JobsShed, Shed ? 1u : 0u) << Label;
    // The refused arrival (RejectNewest) or the shed oldest job
    // (ShedOldest) has its answer already; the worker is still held.
    const size_t RefusedIdx = Shed ? 1 : 4;
    EXPECT_EQ(Sink.handlerRuns(), 1u) << Label;
    EXPECT_EQ(Sink.runsOf(RefusedIdx), 1u) << Label;
    EXPECT_EQ(Sink.statusOf(RefusedIdx), JobStatus::Rejected) << Label;

    // Let job 2's deadline pass in the queue, then open the gate.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Gate.release();
    Service.stop();

    // No waiting: stop() has returned, so every handler has run.
    EXPECT_EQ(Sink.handlerRuns(), 5u) << Label;
    const JobStatus Expected[5] = {
        JobStatus::Ok,
        Shed ? JobStatus::Rejected : JobStatus::Ok,
        JobStatus::DeadlineExceeded,
        JobStatus::Faulted,
        Shed ? JobStatus::Ok : JobStatus::Rejected,
    };
    for (size_t I = 0; I < 5; ++I) {
      EXPECT_EQ(Sink.runsOf(I), 1u) << Label << " job " << I;
      EXPECT_EQ(Sink.statusOf(I), Expected[I]) << Label << " job " << I;
    }

    // After stop() a job is refused without an id, and its handler still
    // runs once, before tryEnqueue() returns.
    EXPECT_EQ(Sink.submit(Service, Job()).Id, InvalidJobId) << Label;
    EXPECT_EQ(Sink.runsOf(5), 1u) << Label;
    EXPECT_EQ(Sink.statusOf(5), JobStatus::Rejected) << Label;
  }
}

TEST(CompileService, ErrorsStayIsolatedWithoutContexts) {
  ServiceConfig Cfg;
  Cfg.Threads = 2;
  ResultCollector Sink;
  CompileService Service(Cfg);
  BatchJob Good;
  Good.Sources.push_back({"ok.scala", corpusPrograms()[0].Source});
  BatchJob Bad;
  Bad.Sources.push_back({"bad.scala", "class C { def f(): Int = missing }"});
  Sink.submit(Service, std::move(Good));
  Sink.submit(Service, std::move(Bad));
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_FALSE(Results[0].HadErrors);
  EXPECT_TRUE(Results[1].HadErrors);
  EXPECT_NE(Results[1].DiagText.find("not found: missing"),
            std::string::npos);
}

/// stats() is a snapshot taken by drain(): jobs that complete after it
/// do not move it, and the next drain folds them in. The deterministic
/// counters (everything but wall-clock and page-pool gauges) reach the
/// same totals at 1 and 4 workers.
TEST(CompileService, StatsStableBetweenDrainsAndEqualAcrossWorkerCounts) {
  auto Wave = [](uint64_t FirstSeed) {
    std::vector<BatchJob> Jobs;
    for (uint64_t Seed = FirstSeed; Seed < FirstSeed + 4; ++Seed) {
      WorkloadProfile P = stdlibProfile(0.01);
      P.Seed = Seed;
      P.UnitsHint = 1;
      BatchJob J;
      J.Sources = generateWorkload(P);
      Jobs.push_back(std::move(J));
    }
    BatchJob Bad;
    Bad.Sources.push_back({"bad.scala", "class C { def f(): Int = nope }"});
    Jobs.push_back(std::move(Bad));
    return Jobs;
  };
  auto Deterministic = [](const StatsRegistry &S) {
    static const char *Varying[] = {
        "service.busyMicros",    "service.workerUtilization",
        "service.pagesShared",   "service.pagesMapped",
        "service.realAllocs",    "service.queueDepthPeak",
        "heap.pagesMapped",      "heap.realAllocs",
        "heap.pagesTrimmed"};
    std::map<std::string, uint64_t> Out = S.all();
    for (const char *Key : Varying)
      Out.erase(Key);
    return Out;
  };
  std::map<std::string, uint64_t> Totals[2];
  for (unsigned Idx = 0; Idx < 2; ++Idx) {
    unsigned Threads = Idx == 0 ? 1 : 4;
    std::string Label = std::to_string(Threads) + " threads";
    ResultCollector Sink;
    ServiceConfig Cfg;
    Cfg.Threads = Threads;
    CompileService Service(Cfg);
    for (BatchJob &J : Wave(1))
      ASSERT_TRUE(Sink.submit(Service, std::move(J)).Accepted) << Label;
    Service.drain();
    std::map<std::string, uint64_t> AfterFirst = Service.stats().all();
    EXPECT_EQ(AfterFirst.at("service.jobsCompleted"), 5u) << Label;

    for (BatchJob &J : Wave(101))
      ASSERT_TRUE(Sink.submit(Service, std::move(J)).Accepted) << Label;
    // Wait for every job's handler without draining.
    Sink.waitForRuns(10);
    EXPECT_EQ(Service.stats().all(), AfterFirst) << Label;

    Service.drain();
    EXPECT_EQ(Service.stats().get("service.jobsCompleted"), 10u) << Label;
    EXPECT_GT(Service.stats().get("fusion.nodesVisited"), 0u) << Label;
    Totals[Idx] = Deterministic(Service.stats());
  }
  EXPECT_EQ(Totals[0], Totals[1]);
}

} // namespace
