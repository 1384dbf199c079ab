//===----------------------------------------------------------------------===//
// Admission-control tests for the compile service: bounded queue with the
// three QueuePolicy behaviors, the two priority lanes with their
// anti-starvation burst cap, per-job deadlines (in queue and in compile),
// and the stop()/shutdown contract.
//
// Determinism technique: most tests run ONE worker gated on the fault
// injector's StageHook — the worker blocks inside its first job while the
// test builds an exact queue state, then the gate opens and the dequeue
// schedule is fully reproducible (asserted via BatchResult::DequeueSeq).
//===----------------------------------------------------------------------===//

#include "ServiceTestSupport.h"
#include "driver/CompileService.h"
#include "support/FaultInjector.h"
#include "workload/Corpus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace mpc;

namespace {

BatchJob tinyJob(size_t CorpusIdx, JobPriority Priority = JobPriority::Batch,
                 double DeadlineSec = 0) {
  const auto &Corpus = corpusPrograms();
  const CorpusProgram &P = Corpus[CorpusIdx % Corpus.size()];
  BatchJob J;
  J.Sources.push_back({P.Name + ".scala", P.Source});
  J.WantDump = true;
  J.Priority = Priority;
  J.DeadlineSec = DeadlineSec;
  return J;
}

/// Serial cold compile of one job — the unloaded reference output.
BatchResult serialReference(BatchJob Job) {
  std::vector<BatchJob> Jobs;
  Jobs.push_back(std::move(Job));
  return std::move(compileBatch(std::move(Jobs), /*Threads=*/1)[0]);
}

//===----------------------------------------------------------------------===//
// ShedOldest under open-loop overload
//===----------------------------------------------------------------------===//

TEST(ServiceAdmission, ShedOldestBoundsQueueAndKeepsAcceptedJobsExact) {
  WorkerGate Gate;
  ScopedFaultInjector Injector(Gate.config());

  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.MaxQueueDepth = 8;
  Cfg.Policy = QueuePolicy::ShedOldest;
  Cfg.Cache.Enabled = false;
  ResultCollector Sink;
  CompileService Service(Cfg);

  // Job 0 blocks inside the worker; 40 more arrive open-loop. The queue
  // holds 8, so arrivals 9.. displace the oldest queued job each.
  const size_t Extra = 40;
  uint64_t TotalShed = 0;
  ASSERT_TRUE(Sink.submit(Service, tinyJob(0)).Accepted);
  Gate.awaitBlocked();
  for (size_t I = 1; I <= Extra; ++I) {
    AdmitResult A = Sink.submit(Service, tinyJob(I));
    EXPECT_TRUE(A.Accepted) << "arrival " << I;
    EXPECT_EQ(A.Id, I);
    TotalShed += A.JobsShed;
    EXPECT_LE(Service.queuedJobs(), Cfg.MaxQueueDepth) << "arrival " << I;
  }
  // Every admission past the eight queue slots shed exactly one victim.
  EXPECT_EQ(TotalShed, Extra - Cfg.MaxQueueDepth);

  Gate.release();
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 1 + Extra); // every id owns a slot, in order

  // The survivors: job 0 (running at overload time) and the newest 8.
  size_t Shed = 0, Survived = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    bool ShouldSurvive = I == 0 || I > Extra - Cfg.MaxQueueDepth;
    if (ShouldSurvive) {
      ++Survived;
      EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
      EXPECT_FALSE(Results[I].HadErrors) << "job " << I;
      // Accepted jobs' output is byte-identical to an unloaded run.
      BatchResult Ref = serialReference(tinyJob(I));
      EXPECT_EQ(Results[I].DumpText, Ref.DumpText) << "job " << I;
      EXPECT_EQ(Results[I].DiagText, Ref.DiagText) << "job " << I;
    } else {
      ++Shed;
      EXPECT_EQ(Results[I].Status, JobStatus::Rejected) << "job " << I;
      EXPECT_TRUE(Results[I].HadErrors) << "job " << I;
      EXPECT_NE(Results[I].DiagText.find("shed"), std::string::npos)
          << "job " << I;
      EXPECT_TRUE(Results[I].DumpText.empty()) << "job " << I;
    }
  }
  EXPECT_EQ(Shed, TotalShed);
  EXPECT_EQ(Survived, 1 + Cfg.MaxQueueDepth);
  EXPECT_EQ(Service.stats().get("service.jobsShed"), TotalShed);
  EXPECT_EQ(Service.stats().get("service.jobsRejected"), 0u);
  EXPECT_EQ(Service.stats().get("service.queueDepthPeak"), Cfg.MaxQueueDepth);
}

TEST(ServiceAdmission, ShedOldestPrefersBatchLaneVictims) {
  WorkerGate Gate;
  ScopedFaultInjector Injector(Gate.config());

  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.MaxQueueDepth = 4;
  Cfg.Policy = QueuePolicy::ShedOldest;
  Cfg.Cache.Enabled = false;
  ResultCollector Sink;
  CompileService Service(Cfg);

  Sink.submit(Service, tinyJob(0)); // blocks the worker
  Gate.awaitBlocked();
  // Queue: two interactive (ids 1, 2), two batch (ids 3, 4). The next
  // arrival must shed the OLDEST BATCH job (id 3), not an interactive one.
  Sink.submit(Service, tinyJob(1, JobPriority::Interactive));
  Sink.submit(Service, tinyJob(2, JobPriority::Interactive));
  Sink.submit(Service, tinyJob(3, JobPriority::Batch));
  Sink.submit(Service, tinyJob(4, JobPriority::Batch));
  AdmitResult A = Sink.submit(Service, tinyJob(5, JobPriority::Interactive));
  EXPECT_TRUE(A.Accepted);
  EXPECT_EQ(A.JobsShed, 1u);

  Gate.release();
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 6u);
  EXPECT_EQ(Results[3].Status, JobStatus::Rejected); // the batch victim
  for (size_t I : {size_t(1), size_t(2), size_t(4), size_t(5)})
    EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
}

//===----------------------------------------------------------------------===//
// RejectNewest and Block
//===----------------------------------------------------------------------===//

TEST(ServiceAdmission, RejectNewestRefusesArrivalsAtFullQueue) {
  WorkerGate Gate;
  ScopedFaultInjector Injector(Gate.config());

  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.MaxQueueDepth = 4;
  Cfg.Policy = QueuePolicy::RejectNewest;
  Cfg.Cache.Enabled = false;
  ResultCollector Sink;
  CompileService Service(Cfg);

  Sink.submit(Service, tinyJob(0)); // blocks the worker
  Gate.awaitBlocked();
  for (size_t I = 1; I <= 4; ++I)
    EXPECT_TRUE(Sink.submit(Service, tinyJob(I)).Accepted) << "arrival " << I;
  // Queue full: the next three arrivals are refused, each still owning
  // an id and a (immediately completed) Rejected slot.
  for (size_t I = 5; I <= 7; ++I) {
    AdmitResult A = Sink.submit(Service, tinyJob(I));
    EXPECT_FALSE(A.Accepted) << "arrival " << I;
    EXPECT_EQ(A.Id, I);
    EXPECT_EQ(A.JobsShed, 0u);
  }

  Gate.release();
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 8u);
  for (size_t I = 0; I <= 4; ++I)
    EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
  for (size_t I = 5; I <= 7; ++I) {
    EXPECT_EQ(Results[I].Status, JobStatus::Rejected) << "job " << I;
    EXPECT_NE(Results[I].DiagText.find("rejected"), std::string::npos);
  }
  EXPECT_EQ(Service.stats().get("service.jobsRejected"), 3u);
  EXPECT_EQ(Service.stats().get("service.jobsShed"), 0u);
}

TEST(ServiceAdmission, BlockPolicyThrottlesProducerWithoutLoss) {
  // Closed loop: a depth-2 Block queue admits everything eventually and
  // the producer simply waits — no result is ever degraded.
  ServiceConfig Cfg;
  Cfg.Threads = 2;
  Cfg.MaxQueueDepth = 2;
  Cfg.Policy = QueuePolicy::Block;
  Cfg.Cache.Enabled = false;
  ResultCollector Sink;
  CompileService Service(Cfg);
  const size_t N = 16;
  for (size_t I = 0; I < N; ++I) {
    AdmitResult A = Sink.submit(Service, tinyJob(I));
    EXPECT_TRUE(A.Accepted) << "arrival " << I;
  }
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), N);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
  EXPECT_LE(Service.stats().get("service.queueDepthPeak"), 2u);
  EXPECT_EQ(Service.stats().get("service.jobsRejected"), 0u);
  EXPECT_EQ(Service.stats().get("service.jobsShed"), 0u);
}

//===----------------------------------------------------------------------===//
// Priority lanes
//===----------------------------------------------------------------------===//

TEST(ServiceAdmission, PriorityLanesFollowBurstCappedSchedule) {
  WorkerGate Gate;
  ScopedFaultInjector Injector(Gate.config());

  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.Cache.Enabled = false;
  ResultCollector Sink;
  CompileService Service(Cfg);

  // The blocker is interactive, so SinceBatch == 1 when the gate opens.
  Sink.submit(Service, tinyJob(0, JobPriority::Interactive));
  Gate.awaitBlocked();
  for (size_t I = 0; I < 8; ++I)
    Sink.submit(Service, tinyJob(1 + I, JobPriority::Interactive));
  Sink.submit(Service, tinyJob(9, JobPriority::Batch));
  Sink.submit(Service, tinyJob(10, JobPriority::Batch));

  Gate.release();
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 11u);
  // One gated worker => the dequeue schedule is exact. Interactive jobs
  // I0..I7 (enqueue ids 1..8) and batch B0,B1 (ids 9,10) interleave as:
  // blocker, I0, I1, B0, I2, I3, I4, B1, I5, I6, I7 — batch gets a slot
  // after every InteractiveRunCap (3) consecutive interactive dequeues.
  const uint64_t ExpectedSeq[11] = {0, 1, 2, 4, 5, 6, 8, 9, 10, 3, 7};
  for (size_t I = 0; I < 11; ++I) {
    EXPECT_EQ(Results[I].DequeueSeq, ExpectedSeq[I]) << "job " << I;
    EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
  }
}

TEST(ServiceAdmission, InteractiveJumpsAheadOfQueuedBatchWork) {
  WorkerGate Gate;
  ScopedFaultInjector Injector(Gate.config());

  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.Cache.Enabled = false;
  ResultCollector Sink;
  CompileService Service(Cfg);

  Sink.submit(Service, tinyJob(0)); // blocks the worker (batch)
  Gate.awaitBlocked();
  Sink.submit(Service, tinyJob(1, JobPriority::Batch));
  Sink.submit(Service, tinyJob(2, JobPriority::Batch));
  Sink.submit(Service, tinyJob(3, JobPriority::Interactive));

  Gate.release();
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 4u);
  // The late interactive arrival (id 3) dequeues before both queued
  // batch jobs.
  EXPECT_LT(Results[3].DequeueSeq, Results[1].DequeueSeq);
  EXPECT_LT(Results[3].DequeueSeq, Results[2].DequeueSeq);
}

//===----------------------------------------------------------------------===//
// Deadlines
//===----------------------------------------------------------------------===//

TEST(ServiceAdmission, DeadlineExpiredInQueueCompletesWithoutCompiling) {
  WorkerGate Gate;
  ScopedFaultInjector Injector(Gate.config());

  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.Cache.Enabled = false;
  ResultCollector Sink;
  CompileService Service(Cfg);

  Sink.submit(Service, tinyJob(0)); // blocks the worker
  Gate.awaitBlocked();
  // 1 ms deadline, then the queue wait is forced well past it.
  Sink.submit(Service, tinyJob(1, JobPriority::Batch, /*DeadlineSec=*/0.001));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Gate.release();

  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Results[0].Status, JobStatus::Ok);
  EXPECT_EQ(Results[1].Status, JobStatus::DeadlineExceeded);
  EXPECT_TRUE(Results[1].HadErrors);
  EXPECT_NE(Results[1].DiagText.find("deadline"), std::string::npos);
  EXPECT_GE(Results[1].Out.Timings.QueueWaitSec, 0.001);
  EXPECT_EQ(Service.stats().get("service.jobsDeadlineExceeded"), 1u);
}

TEST(ServiceAdmission, DeadlineExceededMidCompileLeavesTheServiceHealthy) {
  // Injected per-stage delays make the job reliably slower than its
  // deadline without depending on machine speed; the checkpoint at the
  // next phase boundary cancels it. The deadline must be generous enough
  // that a loaded machine still dequeues the job before expiry (an
  // in-queue expiry would never touch a context), yet far below the
  // injected per-stage delay so the job always dies mid-compile.
  FaultConfig FC;
  FC.StageDelayRate = 1.0;
  FC.StageDelayMicros = 100000; // 100 ms per stage point vs a 30 ms deadline

  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.Cache.Enabled = false;
  ResultCollector Sink;
  CompileService Service(Cfg);

  {
    ScopedFaultInjector Injector(FC);
    Sink.submit(Service, tinyJob(0, JobPriority::Batch, /*DeadlineSec=*/0.03));
    std::vector<BatchResult> Results = Sink.drain(Service);
    ASSERT_EQ(Results.size(), 1u);
    EXPECT_EQ(Results[0].Status, JobStatus::DeadlineExceeded);
    EXPECT_TRUE(Results[0].HadErrors);
    EXPECT_NE(Results[0].DiagText.find("deadline"), std::string::npos);
  }

  // A deadline unwind only crosses RAII tree holders and is no fault —
  // the next job on the same service is byte-identical to an unloaded
  // run.
  BatchResult Ref = serialReference(tinyJob(1));
  Sink.submit(Service, tinyJob(1));
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].Status, JobStatus::Ok);
  EXPECT_EQ(Results[0].DumpText, Ref.DumpText);
  EXPECT_EQ(Service.stats().get("service.jobsFaulted"), 0u);
  EXPECT_EQ(Service.stats().get("service.jobsDeadlineExceeded"), 1u);
}

TEST(ServiceAdmission, JobsWithoutDeadlinesNeverExpire) {
  // Delays injected everywhere, no deadline set: everything completes Ok.
  FaultConfig FC;
  FC.StageDelayRate = 1.0;
  FC.StageDelayMicros = 200;
  ScopedFaultInjector Injector(FC);

  ServiceConfig Cfg;
  Cfg.Threads = 2;
  Cfg.Cache.Enabled = false;
  ResultCollector Sink;
  CompileService Service(Cfg);
  for (size_t I = 0; I < 4; ++I)
    Sink.submit(Service, tinyJob(I));
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
  EXPECT_EQ(Service.stats().get("service.jobsDeadlineExceeded"), 0u);
}

//===----------------------------------------------------------------------===//
// stop() and the shutdown race
//===----------------------------------------------------------------------===//

TEST(ServiceAdmission, StopDrainsAcceptedWorkAndRefusesNewWork) {
  ServiceConfig Cfg;
  Cfg.Threads = 2;
  Cfg.Cache.Enabled = false;
  ResultCollector Sink;
  CompileService Service(Cfg);
  for (size_t I = 0; I < 4; ++I)
    ASSERT_TRUE(Sink.submit(Service, tinyJob(I)).Accepted);
  Service.stop();
  // Admitted-before-stop jobs ran to completion; new work is refused
  // with no id and no slot.
  AdmitResult After = Sink.submit(Service, tinyJob(0));
  EXPECT_FALSE(After.Accepted);
  EXPECT_EQ(After.Id, InvalidJobId);
  EXPECT_EQ(Sink.submit(Service, tinyJob(0)).Id, InvalidJobId);
  std::vector<BatchResult> Results = Sink.drain(Service);
  ASSERT_EQ(Results.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
  Service.stop(); // idempotent; the destructor will be the third call
}

TEST(ServiceAdmission, EnqueueRacingShutdownIsClean) {
  // Regression for the shutdown race: a producer hammering tryEnqueue
  // while another thread stops the service. Every admission must resolve
  // consistently — accepted jobs get results, refused jobs get nothing,
  // and nothing crashes or hangs.
  for (int Round = 0; Round < 8; ++Round) {
    ServiceConfig Cfg;
    Cfg.Threads = 2;
    Cfg.Cache.Enabled = false;
    ResultCollector Sink;
    auto Service = std::make_unique<CompileService>(Cfg);

    std::atomic<bool> Go{false};
    std::atomic<uint64_t> Accepted{0};
    std::thread Producer([&] {
      while (!Go.load())
        std::this_thread::yield();
      for (int I = 0; I < 64; ++I) {
        AdmitResult A = Sink.submit(*Service, tinyJob(I));
        if (!A.Accepted)
          break; // the service stopped underneath us — expected
        ++Accepted;
      }
    });
    Go.store(true);
    // Stop somewhere in the middle of the producer's burst.
    std::this_thread::sleep_for(std::chrono::microseconds(50 * Round));
    Service->stop();
    Producer.join();
    std::vector<BatchResult> Results = Sink.drain(*Service);
    EXPECT_EQ(Results.size(), Accepted.load()) << "round " << Round;
    for (const BatchResult &R : Results)
      EXPECT_EQ(R.Status, JobStatus::Ok);
    Service.reset(); // destructor after explicit stop: must be a no-op
  }
}

} // namespace
