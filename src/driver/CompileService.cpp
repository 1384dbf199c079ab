#include "driver/CompileService.h"

#include "support/Timer.h"

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
}

void CompileService::completeRejectedLocked(
    uint64_t Id, double QueueWaitSec, const char *Why,
    std::vector<PendingReject> &Deferred) {
  BatchResult R;
  R.Status = JobStatus::Rejected;
  R.HadErrors = true;
  R.DiagText = std::string("error: ") + Why + "\n";
  R.Out.Timings.QueueWaitSec = QueueWaitSec;
  if (Cfg.OnResult) {
    // Streaming mode: no drain-window slot exists; the caller fires the
    // callback once M is released (user code never runs under the lock).
    Deferred.push_back(PendingReject{Id, std::move(R)});
  } else {
    Done[Id - DrainedUpTo] = std::make_unique<BatchResult>(std::move(R));
  }
  ++CompletedJobs;
}

AdmitResult CompileService::tryEnqueue(BatchJob Job) {
  AdmitResult A;
  bool NotifyDone = false;
  bool Refused = false;
  std::vector<PendingReject> Deferred;
  {
    std::unique_lock<std::mutex> Lock(M);
    if (Stopping)
      return A; // refused: no id, no slot, no result owed
    if (Cfg.MaxQueueDepth != 0 && queueDepthLocked() >= Cfg.MaxQueueDepth) {
      switch (Cfg.Policy) {
      case QueuePolicy::Block:
        SpaceCv.wait(Lock, [this] {
          return Stopping || queueDepthLocked() < Cfg.MaxQueueDepth;
        });
        if (Stopping)
          return A;
        break;
      case QueuePolicy::RejectNewest: {
        // The arrival is refused but still owns a slot: its Rejected
        // result completes immediately, keeping drain() in-order with no
        // gaps in the id sequence.
        ++JobsRejected;
        A.Id = NextJobId++;
        if (!Cfg.OnResult)
          Done.emplace_back();
        completeRejectedLocked(A.Id, 0, "compile job rejected: queue full",
                               Deferred);
        NotifyDone = true;
        Refused = true;
        break;
      }
      case QueuePolicy::ShedOldest: {
        // Make room by completing the oldest queued job as Rejected —
        // batch lane first, so interactive work is the last to be shed.
        // The shed victim's slot was reserved at its own admission;
        // filling it preserves in-order delivery.
        auto Now = std::chrono::steady_clock::now();
        while (queueDepthLocked() >= Cfg.MaxQueueDepth) {
          std::deque<QueuedJob> &Lane =
              !BatchLane.empty() ? BatchLane : InteractiveLane;
          QueuedJob Victim = std::move(Lane.front());
          Lane.pop_front();
          ++JobsShed;
          ++A.JobsShed;
          completeRejectedLocked(
              Victim.Id,
              std::chrono::duration<double>(Now - Victim.EnqueuedAt).count(),
              "compile job shed: queue full, displaced by a newer job",
              Deferred);
        }
        NotifyDone = true;
        break;
      }
      }
    }
    if (!Refused) {
      A.Id = NextJobId++;
      A.Accepted = true;
      if (!Cfg.OnResult)
        Done.emplace_back(); // result slot; filled by whichever worker runs it
      std::deque<QueuedJob> &Lane =
          Job.Priority == JobPriority::Interactive ? InteractiveLane
                                                   : BatchLane;
      Lane.push_back(
          QueuedJob{A.Id, std::move(Job), std::chrono::steady_clock::now()});
      if (queueDepthLocked() > QueueDepthPeak)
        QueueDepthPeak = queueDepthLocked();
    }
  }
  // Streaming mode: deliver refusals now that M is released.
  for (PendingReject &P : Deferred)
    Cfg.OnResult(P.Id, std::move(P.R));
  if (A.Accepted)
    QueueCv.notify_one();
  if (NotifyDone)
    DoneCv.notify_all();
  return A;
}

uint64_t CompileService::enqueue(BatchJob Job) {
  return tryEnqueue(std::move(Job)).Id;
}

void CompileService::workerMain() {
  while (true) {
    uint64_t Id;
    uint64_t Seq;
    double QueueWait;
    BatchJob Job;
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
      QueuedJob QJ = std::move(Lane.front());
      Lane.pop_front();
      Id = QJ.Id;
      Job = std::move(QJ.Job);
      Seq = DequeueCounter++;
      QueueWait = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - QJ.EnqueuedAt)
                      .count();
    }
    // A slot opened up for a Block-policy producer.
    SpaceCv.notify_one();

    std::unique_ptr<BatchResult> Result;
    StatsRegistry JobStats;
    double Deadline = Job.DeadlineSec;
    if (Deadline > 0 && QueueWait >= Deadline) {
      // The deadline (measured from enqueue) expired while the job sat in
      // the queue: complete it without compiling — and without consulting
      // the cache, so an expired job's status never depends on what
      // happens to be cached.
      Result = std::make_unique<BatchResult>();
      Result->Status = JobStatus::DeadlineExceeded;
      Result->HadErrors = true;
      Result->DiagText = "error: job deadline exceeded while queued\n";
      JobStats.add("service.jobsCompleted", 1);
      JobStats.add("service.jobsDeadlineExceeded", 1);
    } else {
      // The remaining budget is what runBatchJob arms as the in-compile
      // deadline: queue wait counts against the job's total allowance.
      if (Deadline > 0)
        Job.DeadlineSec = Deadline - QueueWait;
      Result = std::make_unique<BatchResult>(runJob(std::move(Job), JobStats));
    }
    // Fold the job's counters in before it counts as complete, so a
    // drain that has waited for this job also sees them.
    {
      std::lock_guard<std::mutex> Lock(PendingM);
      PendingStats.merge(JobStats);
    }
    Result->DequeueSeq = Seq;
    // Per-request, even on a cache replay (the compile-stage timings are
    // the cached copy; the wait is this request's own).
    Result->Out.Timings.QueueWaitSec = QueueWait;
    if (Cfg.OnResult) {
      // Streaming mode: hand the result over right now, on this worker
      // thread, before counting it complete — so quiescence (drain(),
      // stop()) implies the callback has run for every admitted job.
      Cfg.OnResult(Id, std::move(*Result));
      std::lock_guard<std::mutex> Lock(M);
      ++CompletedJobs;
    } else {
      std::lock_guard<std::mutex> Lock(M);
      // A job can only be drained after completing, so its slot is still
      // inside the window even if other drains happened meanwhile. The
      // slot was reserved at enqueue time — completion fills it in place
      // and never grows the window under the lock.
      Done[Id - DrainedUpTo] = std::move(Result);
      ++CompletedJobs;
    }
    DoneCv.notify_all();
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

size_t CompileService::pendingJobs() const {
  std::lock_guard<std::mutex> Lock(M);
  return static_cast<size_t>(NextJobId - CompletedJobs);
}

size_t CompileService::queuedJobs() const {
  std::lock_guard<std::mutex> Lock(M);
  return queueDepthLocked();
}

std::vector<BatchResult> CompileService::drain() {
  std::vector<BatchResult> Results;
  uint64_t Target;
  uint64_t Rejected, Shed, DepthPeak;
  {
    std::unique_lock<std::mutex> Lock(M);
    Target = NextJobId;
    if (Cfg.OnResult) {
      // Streaming mode: results were handed to the callback as they
      // completed; drain() degenerates to a quiescence barrier plus the
      // stats merge below.
      DoneCv.wait(Lock, [&] { return CompletedJobs >= Target; });
      DrainedUpTo = Target;
    } else {
      // Completed slots never empty again, so a monotonic cursor checks
      // each slot once across all wakeups — O(window) for the whole wait,
      // not per notification.
      uint64_t Scanned = DrainedUpTo;
      DoneCv.wait(Lock, [&] {
        while (Scanned < Target && Done[Scanned - DrainedUpTo])
          ++Scanned;
        return Scanned >= Target;
      });
      Results.reserve(Target - DrainedUpTo);
      while (DrainedUpTo < Target) {
        Results.push_back(std::move(*Done.front()));
        Done.pop_front();
        ++DrainedUpTo;
      }
    }
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
  return Results;
}
