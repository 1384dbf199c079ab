//===----------------------------------------------------------------------===//
// Scaffolding shared by the compile-service tests.
//
//   * ResultCollector: submits each job with a completion handler that
//     files the result under the job's submission index, counts how often
//     each handler ran, and hands the results of admitted jobs back in id
//     (= admission) order.
//   * WorkerGate: holds the first job a worker starts, so a test can build
//     an exact queue state behind it.
//===----------------------------------------------------------------------===//

#ifndef MPC_TESTS_DRIVER_SERVICETESTSUPPORT_H
#define MPC_TESTS_DRIVER_SERVICETESTSUPPORT_H

#include "driver/CompileService.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <vector>

namespace mpc {

/// Not for use while another thread submits: drain() takes every
/// submission made so far.
class ResultCollector {
public:
  /// Submits \p Job to \p Service; its handler files the result.
  AdmitResult submit(CompileService &Service, BatchJob Job) {
    size_t Slot;
    {
      std::lock_guard<std::mutex> Lock(M);
      Slot = Slots.size();
      Slots.emplace_back();
    }
    AdmitResult A =
        Service.tryEnqueue(std::move(Job), [this, Slot](BatchResult R) {
          std::lock_guard<std::mutex> Lock(M);
          Slots[Slot].Result = std::move(R);
          ++Slots[Slot].Runs;
          ++Runs;
          RunCv.notify_all();
        });
    std::lock_guard<std::mutex> Lock(M);
    Slots[Slot].Id = A.Id;
    return A;
  }

  /// Handler runs so far, over every submission.
  size_t handlerRuns() {
    std::lock_guard<std::mutex> Lock(M);
    return Runs;
  }

  /// Blocks until handlerRuns() reaches \p N.
  void waitForRuns(size_t N) {
    std::unique_lock<std::mutex> Lock(M);
    RunCv.wait(Lock, [&] { return Runs >= N; });
  }

  /// How often the handler of submission \p Index ran, and the status it
  /// last received.
  unsigned runsOf(size_t Index) {
    std::lock_guard<std::mutex> Lock(M);
    return Slots.at(Index).Runs;
  }
  JobStatus statusOf(size_t Index) {
    std::lock_guard<std::mutex> Lock(M);
    return Slots.at(Index).Result.Status;
  }

  /// Waits for every submitted job's handler, runs \p Service's drain()
  /// (the stats merge), and returns the results of the admitted jobs —
  /// every job with an id, refusals at a full queue included — in id
  /// order. The collector starts over afterwards.
  std::vector<BatchResult> drain(CompileService &Service) {
    std::vector<Filed> Taken;
    {
      std::unique_lock<std::mutex> Lock(M);
      RunCv.wait(Lock, [&] { return Runs >= Slots.size(); });
      Taken.swap(Slots);
      Runs = 0;
    }
    Service.drain();
    std::erase_if(Taken, [](const Filed &F) { return F.Id == InvalidJobId; });
    std::sort(Taken.begin(), Taken.end(),
              [](const Filed &L, const Filed &R) { return L.Id < R.Id; });
    std::vector<BatchResult> Out;
    Out.reserve(Taken.size());
    for (Filed &F : Taken)
      Out.push_back(std::move(F.Result));
    return Out;
  }

private:
  struct Filed {
    uint64_t Id = InvalidJobId;
    unsigned Runs = 0;
    BatchResult Result;
  };

  std::mutex M;
  std::condition_variable RunCv;
  std::vector<Filed> Slots;
  size_t Runs = 0;
};

/// Blocks the first stage arrival (i.e. the first job a worker starts)
/// until release() — the scaffolding for building exact queue states
/// behind a busy single worker.
class WorkerGate {
public:
  FaultConfig config() {
    FaultConfig Cfg;
    Cfg.StageHook = [this](FaultSite) {
      std::unique_lock<std::mutex> Lock(M);
      if (Armed) {
        Armed = false;
        Blocked = true;
        BlockedCv.notify_all();
        ReleaseCv.wait(Lock, [this] { return Released; });
      }
    };
    return Cfg;
  }

  /// Waits until the worker is parked inside the gate.
  void awaitBlocked() {
    std::unique_lock<std::mutex> Lock(M);
    BlockedCv.wait(Lock, [this] { return Blocked; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Released = true;
    }
    ReleaseCv.notify_all();
  }

private:
  std::mutex M;
  std::condition_variable BlockedCv, ReleaseCv;
  bool Armed = true;
  bool Blocked = false;
  bool Released = false;
};

} // namespace mpc

#endif // MPC_TESTS_DRIVER_SERVICETESTSUPPORT_H
