#include "driver/CompileService.h"

#include "support/Timer.h"

#include <utility>

using namespace mpc;

CompileService::CompileService(ServiceConfig Config)
    : Cfg(Config),
      Cache(Cfg.Cache.Enabled ? std::make_unique<ArtifactCache>(Cfg.Cache)
                              : nullptr),
      StartedAt(std::chrono::steady_clock::now()) {
  unsigned N = Cfg.Threads;
  if (N == 0) {
    N = std::thread::hardware_concurrency();
    if (N == 0)
      N = 1;
  }
  Workers.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Workers.emplace_back([this] { workerMain(); });
}

CompileService::~CompileService() { stop(); }

void CompileService::stop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  // Wake everyone: workers drain the already-admitted queue and exit;
  // Block-policy producers waiting for space fail their admission.
  QueueCv.notify_all();
  SpaceCv.notify_all();
  // The join phase is guarded separately (never under M — workers need M
  // to finish) and is idempotent: a second stop(), or the destructor
  // after an explicit stop(), finds nothing joinable.
  std::lock_guard<std::mutex> JoinLock(JoinM);
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  // Refused and shed jobs complete on their admitting threads, which may
  // still be running those handlers.
  std::unique_lock<std::mutex> Lock(M);
  DoneCv.wait(Lock, [this] { return CompletedJobs == NextJobId; });
}

void CompileService::markCompleted(uint64_t N) {
  std::lock_guard<std::mutex> Lock(M);
  CompletedJobs += N;
  // Notify under the lock: once stop() sees the last completion the
  // service may be destroyed.
  DoneCv.notify_all();
}

namespace {

/// The result a job gets when it never reaches a worker.
BatchResult refusal(double QueueWaitSec, const char *Why) {
  BatchResult R;
  R.Status = JobStatus::Rejected;
  R.HadErrors = true;
  R.DiagText = std::string("error: ") + Why + "\n";
  R.Out.Timings.QueueWaitSec = QueueWaitSec;
  return R;
}

} // namespace

AdmitResult CompileService::tryEnqueue(BatchJob Job,
                                       CompletionHandler OnDone) {
  AdmitResult A;
  // Jobs this call completes without a worker: the arrival itself when
  // refused, or the victims it sheds. Their handlers run once M is
  // released.
  std::vector<std::pair<CompletionHandler, BatchResult>> Refused;
  {
    std::unique_lock<std::mutex> Lock(M);
    if (Cfg.MaxQueueDepth != 0 && !Stopping &&
        queueDepthLocked() >= Cfg.MaxQueueDepth) {
      switch (Cfg.Policy) {
      case QueuePolicy::Block:
        SpaceCv.wait(Lock, [this] {
          return Stopping || queueDepthLocked() < Cfg.MaxQueueDepth;
        });
        break;
      case QueuePolicy::RejectNewest:
        // The arrival is refused but still gets an id, so ids stay
        // gapless in admission order.
        ++JobsRejected;
        A.Id = NextJobId++;
        Refused.emplace_back(std::move(OnDone),
                             refusal(0, "compile job rejected: queue full"));
        break;
      case QueuePolicy::ShedOldest: {
        // Make room by completing the oldest queued job as Rejected —
        // batch lane first, so interactive work is the last to be shed.
        auto Now = std::chrono::steady_clock::now();
        while (queueDepthLocked() >= Cfg.MaxQueueDepth) {
          std::deque<QueuedJob> &Lane =
              !BatchLane.empty() ? BatchLane : InteractiveLane;
          QueuedJob Victim = std::move(Lane.front());
          Lane.pop_front();
          ++JobsShed;
          ++A.JobsShed;
          Refused.emplace_back(
              std::move(Victim.OnDone),
              refusal(std::chrono::duration<double>(Now - Victim.EnqueuedAt)
                          .count(),
                      "compile job shed: queue full, displaced by a newer "
                      "job"));
        }
        break;
      }
      }
    }
    if (Stopping) {
      // No id: the job was never admitted, so nothing waits for it.
      Lock.unlock();
      OnDone(refusal(0, "compile service stopped"));
      return A;
    }
    if (A.Id == InvalidJobId) { // not refused above: admit it
      A.Id = NextJobId++;
      A.Accepted = true;
      std::deque<QueuedJob> &Lane =
          Job.Priority == JobPriority::Interactive ? InteractiveLane
                                                   : BatchLane;
      Lane.push_back(QueuedJob{std::move(Job), std::move(OnDone),
                               std::chrono::steady_clock::now()});
      if (queueDepthLocked() > QueueDepthPeak)
        QueueDepthPeak = queueDepthLocked();
    }
  }
  if (A.Accepted)
    QueueCv.notify_one();
  for (auto &[Handler, R] : Refused)
    Handler(std::move(R));
  if (!Refused.empty())
    markCompleted(Refused.size());
  return A;
}

void CompileService::workerMain() {
  while (true) {
    uint64_t Seq;
    double QueueWait;
    QueuedJob QJ;
    {
      std::unique_lock<std::mutex> Lock(M);
      QueueCv.wait(Lock, [this] {
        return Stopping || !InteractiveLane.empty() || !BatchLane.empty();
      });
      if (InteractiveLane.empty() && BatchLane.empty())
        return; // Stopping, and nothing left to do
      // One dequeue per JOB (not per slice): whichever worker frees up
      // first takes the next job, so long jobs don't starve the rest.
      // Lane choice: interactive first, except that after
      // InteractiveRunCap consecutive interactive takes with batch work
      // waiting, the batch lane gets the next slot (anti-starvation).
      bool TakeBatch =
          !BatchLane.empty() &&
          (InteractiveLane.empty() || SinceBatch >= InteractiveRunCap);
      std::deque<QueuedJob> &Lane = TakeBatch ? BatchLane : InteractiveLane;
      if (TakeBatch)
        SinceBatch = 0;
      else
        ++SinceBatch;
      QJ = std::move(Lane.front());
      Lane.pop_front();
      Seq = DequeueCounter++;
      QueueWait = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - QJ.EnqueuedAt)
                      .count();
    }
    // A slot opened up for a Block-policy producer.
    SpaceCv.notify_one();

    BatchResult Result;
    StatsRegistry JobStats;
    double Deadline = QJ.Job.DeadlineSec;
    if (Deadline > 0 && QueueWait >= Deadline) {
      // The deadline (measured from admission) expired while the job sat
      // in the queue: complete it without compiling — and without
      // consulting the cache, so an expired job's status never depends
      // on what happens to be cached.
      Result.Status = JobStatus::DeadlineExceeded;
      Result.HadErrors = true;
      Result.DiagText = "error: job deadline exceeded while queued\n";
      JobStats.add("service.jobsCompleted", 1);
      JobStats.add("service.jobsDeadlineExceeded", 1);
    } else {
      // The remaining budget is what runBatchJob arms as the in-compile
      // deadline: queue wait counts against the job's total allowance.
      if (Deadline > 0)
        QJ.Job.DeadlineSec = Deadline - QueueWait;
      Result = runJob(std::move(QJ.Job), JobStats);
    }
    // Fold the job's counters in before it counts as complete, so a
    // drain that has waited for this job also sees them.
    {
      std::lock_guard<std::mutex> Lock(PendingM);
      PendingStats.merge(JobStats);
    }
    Result.DequeueSeq = Seq;
    // Per-request, even on a cache replay (the compile-stage timings are
    // the cached copy; the wait is this request's own).
    Result.Out.Timings.QueueWaitSec = QueueWait;
    // The handler runs before the job counts as complete, so quiescence
    // (drain(), stop()) implies it has run.
    QJ.OnDone(std::move(Result));
    // Drop what the handler captured (a connection and its socket, say)
    // now rather than when this worker takes its next job.
    QJ.OnDone = nullptr;
    markCompleted(1);
  }
}

namespace {

/// Rebuilds a service-mode BatchResult from a cached payload — exactly
/// the shape the miss path leaves after stripping context-owned data, so
/// replayed and compiled results are indistinguishable byte for byte.
BatchResult replayArtifact(CachedArtifact Artifact) {
  BatchResult R;
  R.Out.Timings = Artifact.Timings;
  R.Out.PlanErrors = std::move(Artifact.PlanErrors);
  R.HadErrors = Artifact.HadErrors;
  R.DiagText = std::move(Artifact.DiagText);
  R.DumpText = std::move(Artifact.DumpText);
  R.Heap = Artifact.Heap;
  return R;
}

/// The replayable slice of a finished (already stripped) service result.
CachedArtifact captureArtifact(const BatchResult &R) {
  CachedArtifact Artifact;
  Artifact.Timings = R.Out.Timings;
  Artifact.PlanErrors = R.Out.PlanErrors;
  Artifact.HadErrors = R.HadErrors;
  Artifact.DiagText = R.DiagText;
  Artifact.DumpText = R.DumpText;
  Artifact.Heap = R.Heap;
  return Artifact;
}

} // namespace

BatchResult CompileService::runJob(BatchJob Job, StatsRegistry &JobStats) {
  Timer Busy;

  // Consult the artifact cache first: a hit replays the stored result
  // without constructing a context.
  JobKey Key;
  if (Cache) {
    Key = jobKeyFor(Job);
    CachedArtifact Artifact;
    if (Cache->lookup(Key, Artifact)) {
      JobStats.add("service.jobsCompleted", 1);
      JobStats.add("service.cacheHits", 1);
      BatchResult R = replayArtifact(std::move(Artifact));
      JobStats.add("service.busyMicros",
                static_cast<uint64_t>(Busy.elapsedSeconds() * 1e6));
      return R;
    }
    JobStats.add("service.cacheMisses", 1);
  }

  auto Comp = std::make_unique<CompilerContext>(Job.Options);
  Comp->heap().setPagePool(&Pages);
  BatchResult R = runBatchJob(std::move(Job), std::move(Comp));

  JobStats.add("service.jobsCompleted", 1);
  if (R.Status == JobStatus::DeadlineExceeded)
    JobStats.add("service.jobsDeadlineExceeded", 1);
  else if (R.Status == JobStatus::Faulted)
    JobStats.add("service.jobsFaulted", 1);
  const SlabAllocator::Stats &Backend = R.Comp->heap().backendStats();
  JobStats.add("service.pagesShared", Backend.PagesFromPool);
  JobStats.add("service.pagesMapped", Backend.PagesMapped);
  JobStats.add("service.realAllocs", Backend.SystemCalls);
  // The job's pipeline counters join the service aggregate.
  JobStats.merge(R.Comp->stats());

  // Strip everything context-owned — the units' trees live in the
  // context heap, and the bytecode / entry points / check failures
  // reference its symbols — then destroy the context, which returns its
  // pages to the shared pool. A faulted job's context goes the same way:
  // destruction frees pages wholesale and needs no clean heap.
  R.Out.Units.clear();
  R.Out.Prog = Program();
  R.Out.EntryPoints.clear();
  R.Out.CheckFailures.clear();
  R.Comp.reset();
  // Install the stripped result for future hits — completed compiles
  // only: a rejected/cancelled/faulted result describes this request's
  // scheduling fate, not the job's content, and must never replay for
  // an equal key.
  if (Cache && R.Status == JobStatus::Ok)
    Cache->insert(Key, captureArtifact(R));

  JobStats.add("service.busyMicros",
               static_cast<uint64_t>(Busy.elapsedSeconds() * 1e6));
  return R;
}

size_t CompileService::queuedJobs() const {
  std::lock_guard<std::mutex> Lock(M);
  return queueDepthLocked();
}

void CompileService::drain() {
  uint64_t Rejected, Shed, DepthPeak;
  {
    std::unique_lock<std::mutex> Lock(M);
    uint64_t Target = NextJobId;
    DoneCv.wait(Lock, [&] { return CompletedJobs >= Target; });
    Rejected = JobsRejected;
    Shed = JobsShed;
    DepthPeak = QueueDepthPeak;
  }

  // Each drain folds only the counters of jobs completed since the
  // previous one, so the registry accumulates lifetime totals.
  {
    std::lock_guard<std::mutex> Lock(PendingM);
    Stats.merge(PendingStats);
    PendingStats.clear();
  }
  double WallSec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - StartedAt)
                       .count();
  double Capacity = WallSec * static_cast<double>(Workers.size());
  double BusySec = static_cast<double>(Stats.get("service.busyMicros")) / 1e6;
  Stats.counter("service.workerUtilization") =
      Capacity > 0 ? static_cast<uint64_t>(100.0 * BusySec / Capacity) : 0;
  // Occupancy gauges (not deltas): refreshed to the current value each
  // drain. Hits/misses accumulate through the pending counters above; the
  // admission counters are service-lifetime totals read under M.
  Stats.counter("service.jobsRejected") = Rejected;
  Stats.counter("service.jobsShed") = Shed;
  Stats.counter("service.queueDepthPeak") = DepthPeak;
  if (Cache) {
    ArtifactCache::Stats CS = Cache->stats();
    Stats.counter("service.cacheBytes") = CS.Bytes;
    Stats.counter("service.cacheEntries") = CS.Entries;
    Stats.counter("service.cacheEvictions") = CS.Evictions;
    Stats.counter("service.cacheIntegrityRejects") = CS.IntegrityRejects;
  }
  Stats.counter("heap.pagesTrimmed") = Pages.stats().PagesTrimmed;
}
