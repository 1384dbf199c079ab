//===----------------------------------------------------------------------===//
// Soak test: a long-lived service under a randomized mixed stream —
// valid jobs (corpus and generic programs), invalid jobs (parse/type
// errors), deadline-doomed jobs, and low-rate fault injection — must
// reach a resource fixed point:
//
//   * service.pagesMapped (fresh system mappings) plateaus after warmup:
//     steady-state rounds run on pages earlier jobs released into the
//     shared pool, so a fault/error mix cannot slowly grow the footprint;
//   * the shared page pool stays within its configured cap.
//
// Bounded by construction (fixed rounds of tiny jobs, wall time a few
// seconds) so it can ride in the sanitizer CI jobs.
//===----------------------------------------------------------------------===//

#include "ServiceTestSupport.h"
#include "driver/CompileService.h"
#include "support/FaultInjector.h"
#include "support/Rng.h"
#include "workload/Corpus.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

TEST(ServiceSoak, MixedFaultedStreamReachesResourceFixedPoint) {
  // Low-rate faults + per-stage delays, deterministic from the seed.
  FaultConfig FC;
  FC.Seed = 17;
  FC.StageThrowRate = 0.01;
  FC.PageAllocFailRate = 0.005;
  FC.StageDelayRate = 0.02;
  FC.StageDelayMicros = 50;
  ScopedFaultInjector Injector(FC);

  ServiceConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Cache.Enabled = false; // every job exercises a real context
  Cfg.MaxQueueDepth = 32;
  Cfg.Policy = QueuePolicy::ShedOldest;
  ResultCollector Sink;
  CompileService Service(Cfg);
  ASSERT_NE(Service.pagePool(), nullptr);
  const size_t PoolCap = Service.pagePool()->config().MaxPages;

  const unsigned Rounds = 24;
  const unsigned JobsPerRound = 32;
  const unsigned WarmupRounds = 6;
  const uint64_t MappedSlackPerRound = 8;

  Rng R(0x50a6'7e57ULL); // fixed seed: the stream is part of the test
  uint64_t MappedAfterWarmup = 0;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    for (unsigned I = 0; I < JobsPerRound; ++I) {
      BatchJob J;
      uint64_t Roll = R.next() % 100;
      if (Roll < 45) {
        const auto &Corpus = corpusPrograms();
        const CorpusProgram &P = Corpus[R.next() % Corpus.size()];
        J.Sources.push_back({P.Name + ".scala", P.Source});
      } else if (Roll < 55) {
        // Generic code, so Erasure's cast insertion runs in the soak.
        J.Sources = generateFamily(Family::Generics, R.next() % 64,
                                   /*Scale=*/0.1);
      } else if (Roll < 65) {
        J.Sources.push_back({"parse_err.scala", "class { def broken("});
      } else if (Roll < 75) {
        J.Sources.push_back(
            {"type_err.scala", "class C { def f(): Int = missing }"});
      } else if (Roll < 90) {
        // Adversarial generator families: truncated, token-mutated,
        // delimiter-broken, and type-error-seeded programs stress parse
        // recovery and the poisoned-type path.
        static const Family Adversarial[] = {
            Family::Truncated, Family::TokenMutation,
            Family::UnbalancedDelims, Family::TypeErrorSeeded};
        Family F = Adversarial[R.next() % 4];
        J.Sources = generateFamily(F, R.next() % 64, /*Scale=*/0.1);
      } else {
        // Deadline-doomed: expires while queued or at the first
        // checkpoint (the injected delays make sure checkpoints see it).
        const auto &Corpus = corpusPrograms();
        const CorpusProgram &P = Corpus[R.next() % Corpus.size()];
        J.Sources.push_back({P.Name + ".scala", P.Source});
        J.DeadlineSec = 1e-7;
      }
      J.Priority =
          R.next() % 4 == 0 ? JobPriority::Interactive : JobPriority::Batch;
      Sink.submit(Service, std::move(J));
    }
    std::vector<BatchResult> Results = Sink.drain(Service);
    EXPECT_LE(Results.size(), size_t(JobsPerRound));

    // Fixed-point assertions, once the page pool is warm.
    uint64_t Mapped = Service.stats().get("service.pagesMapped");
    if (Round + 1 == WarmupRounds)
      MappedAfterWarmup = Mapped;
    if (Round + 1 > WarmupRounds) {
      uint64_t Budget = MappedAfterWarmup +
                        MappedSlackPerRound * (Round + 1 - WarmupRounds);
      EXPECT_LE(Mapped, Budget) << "round " << Round;
    }
    EXPECT_LE(Service.pagePool()->size(), PoolCap) << "round " << Round;
  }

  // The stream really was mixed: successes, failures, and robustness
  // paths all ran.
  EXPECT_GT(Service.stats().get("service.jobsCompleted"), 0u);
  EXPECT_GT(Service.stats().get("service.jobsDeadlineExceeded") +
                Service.stats().get("service.jobsFaulted"),
            0u);
}

} // namespace
