//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-service layer: a persistent worker pool that treats the
/// compiler as a long-lived service rather than a one-shot CLI run.
///
/// Ideas on top of the old batch driver:
///
///   1. Work queue with admission control. Jobs are enqueued (including
///      while the service is running) onto a mutex+condvar queue split
///      into two priority lanes (Interactive ahead of Batch, with an
///      anti-starvation burst cap); each worker dequeues ONE job at a
///      time, so scheduling is load-balanced rather than sliced, and
///      results are delivered in enqueue order at drain(). The queue is
///      optionally bounded (ServiceConfig::MaxQueueDepth): arrivals at a
///      full queue block, are rejected, or shed the oldest queued job
///      (QueuePolicy), with refused jobs completing in the drain window
///      as JobStatus::Rejected — overload degrades answers, never the
///      in-order delivery contract.
///
///   1b. Deadlines and fault containment. A job's soft deadline
///      (BatchJob::DeadlineSec, measured from enqueue) is enforced by
///      cooperative checkpoints at phase boundaries; an expired job
///      unwinds cleanly to JobStatus::DeadlineExceeded. Any other
///      exception is caught by the worker firewall in runBatchJob: the
///      job fails (JobStatus::Faulted) and the worker lives on.
///
///   2. Cold contexts over a shared page pool. Every job that misses the
///      cache compiles in a freshly constructed CompilerContext, which is
///      destroyed as soon as the result is stripped. The contexts' slab
///      heaps attach to one service-owned PagePool (the default
///      1024-page cap), so the 64 KiB pages a finished job releases serve
///      the next job on any worker — that pool, not context reuse, keeps
///      the service's footprint flat.
///
///   3. Job-local stats. A worker records one job's counters (jobs
///      completed, pages obtained from the shared pool, busy time, the
///      context's pipeline counters) in a StatsRegistry of its own and
///      folds it once, when the job completes, into one lock-guarded
///      pending registry; drain() merges that registry into stats() and
///      derives service.workerUtilization, so stats() only moves at a
///      drain.
///
///   4. Content-addressed artifact cache. Each dequeued job derives its
///      JobKey (hash of sources + cache-relevant options + pipeline
///      kind, see driver/Batch.h) and consults the ArtifactCache first:
///      a hit replays the stored result into the drain window without
///      touching a context at all; a miss compiles and installs the
///      replayable payload. Replay is byte-identical to a cache-disabled
///      run (pinned by CompileServiceTest), counters surface as
///      service.cacheHits/cacheMisses/cacheBytes/cacheEvictions, and
///      capacity is LRU-bounded by CacheConfig::MaxBytes.
///
/// Results carry no context: the worker snapshots everything the caller
/// may want (dumps, heap stats, diagnostics), strips the output of
/// context-owned data, and destroys the context. Callers that need the
/// lowered trees themselves use compileBatch (Batch.h).
///
//===----------------------------------------------------------------------===//

#ifndef MPC_DRIVER_COMPILESERVICE_H
#define MPC_DRIVER_COMPILESERVICE_H

#include "driver/ArtifactCache.h"
#include "driver/Batch.h"
#include "memsim/PagePool.h"
#include "support/Statistics.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mpc {

/// What the service does when a job arrives at a full queue
/// (ServiceConfig::MaxQueueDepth).
enum class QueuePolicy : uint8_t {
  /// tryEnqueue() blocks until a worker frees a slot (or the service
  /// stops). The closed-loop default: producers self-throttle.
  Block,
  /// The arriving job is refused: it still gets an id and completes
  /// immediately in the drain window with JobStatus::Rejected.
  RejectNewest,
  /// The arriving job is admitted and the oldest *queued* job is shed in
  /// its place (Batch lane first — interactive work is the last to go).
  /// Shed jobs complete with JobStatus::Rejected in the drain window, so
  /// in-order delivery is preserved under overload.
  ShedOldest,
};

/// Anti-starvation cap for the priority lanes: after this many
/// consecutive interactive dequeues while batch work waits, the next
/// dequeue takes from the batch lane regardless.
inline constexpr unsigned InteractiveRunCap = 3;

/// Sentinel id returned by enqueue()/tryEnqueue() after stop(): the job
/// was not admitted and owns no slot in the drain window.
inline constexpr uint64_t InvalidJobId = ~uint64_t(0);

/// What admission control decided about one tryEnqueue() call.
struct AdmitResult {
  uint64_t Id = InvalidJobId;
  /// False: the job was refused (queue full under RejectNewest, or the
  /// service is stopped). When Id != InvalidJobId the refusal still
  /// delivers a Rejected result in the drain window.
  bool Accepted = false;
  /// Queued jobs this admission displaced (ShedOldest only).
  uint64_t JobsShed = 0;
};

/// Service tuning knobs.
struct ServiceConfig {
  /// Worker threads; 0 = hardware concurrency (min 1).
  unsigned Threads = 0;
  /// Admission bound: queued-but-not-running jobs the service holds
  /// before Policy kicks in. 0 = unbounded (the historical behavior).
  size_t MaxQueueDepth = 0;
  /// What to do with arrivals at a full queue.
  QueuePolicy Policy = QueuePolicy::Block;
  /// Artifact-cache policy: consult-before-compile with LRU-bounded
  /// storage.
  CacheConfig Cache;
  /// Streaming delivery (the network server's mode): when set, every
  /// completed job — including rejected/shed ones — is handed to this
  /// callback the moment it finishes, in *completion* order, instead of
  /// being parked in the drain window. The callback runs on the
  /// completing worker's thread (or the admitting thread for refusals),
  /// never under the service lock, and must be thread-safe; it must not
  /// call back into drain(). stop() returns only after the callback has
  /// fired for every admitted job — the graceful-drain contract a server
  /// builds on. drain() still merges stats (and waits for quiescence)
  /// but returns no results in this mode.
  std::function<void(uint64_t Id, BatchResult Result)> OnResult;
};

/// The persistent compile service.
class CompileService {
public:
  explicit CompileService(ServiceConfig Config = ServiceConfig());
  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;
  /// Equivalent to stop(): finishes already-admitted jobs, then joins.
  ~CompileService();

  /// Admission-controlled enqueue; legal at any time, from any thread.
  /// Applies MaxQueueDepth/Policy at a full queue and reports what
  /// happened. After stop() the job is refused with Id == InvalidJobId.
  AdmitResult tryEnqueue(BatchJob Job);

  /// Queues a job; legal at any time, including while workers are busy
  /// and from multiple threads. Returns the job's id (== its position in
  /// the overall enqueue order). Convenience over tryEnqueue(): a job
  /// refused by admission control still returns its id (its Rejected
  /// result arrives at drain); only after stop() does it return
  /// InvalidJobId, with no result owed.
  uint64_t enqueue(BatchJob Job);

  /// Stops the service: no further admissions, already-admitted queued
  /// jobs still run, then workers exit and are joined. Idempotent and
  /// safe to race with enqueue()/tryEnqueue() from other threads (they
  /// fail cleanly). The destructor calls this.
  void stop();

  /// Blocks until every job enqueued so far is complete and returns
  /// their results in enqueue order (starting after the previous drain's
  /// last job). Also merges the counters of the jobs completed since the
  /// previous drain into stats() and refreshes service.workerUtilization.
  /// Single consumer: call from one thread at a time (enqueue() may race
  /// it freely).
  std::vector<BatchResult> drain();

  /// Jobs enqueued but not yet completed by a worker (queued + running).
  /// Monotone within a burst, 0 after a drain completes with no new
  /// enqueues — the backlog signal an open-loop load generator throttles
  /// on. Thread-safe.
  size_t pendingJobs() const;

  /// Jobs currently sitting in the admission queue (both lanes, not yet
  /// taken by a worker). Thread-safe.
  size_t queuedJobs() const;

  /// Merged service counters: service.jobsCompleted, pagesShared,
  /// pagesMapped, workerUtilization (percent), the cache counters
  /// (service.cacheHits/cacheMisses/cacheBytes/cacheEvictions), the
  /// admission/robustness counters (service.jobsRejected, jobsShed,
  /// jobsDeadlineExceeded, jobsFaulted, queueDepthPeak), plus the
  /// aggregated per-job context counters (fusion.*, heap.*, frontend.*)
  /// of compiled jobs. Stable between drain() calls.
  StatsRegistry &stats() { return Stats; }

  /// The shared page pool every job's context draws its pages from.
  PagePool *pagePool() { return &Pages; }

  /// The artifact cache in effect, or null (cache disabled).
  ArtifactCache *artifactCache() { return Cache.get(); }

  unsigned threadCount() const {
    return static_cast<unsigned>(Workers.size());
  }

private:
  /// One admitted-but-not-yet-running job. EnqueuedAt feeds the queue
  /// wait (reported per result and counted against the soft deadline).
  struct QueuedJob {
    uint64_t Id;
    BatchJob Job;
    std::chrono::steady_clock::time_point EnqueuedAt;
  };

  void workerMain();
  /// Runs one dequeued job, recording its counters in \p JobStats.
  BatchResult runJob(BatchJob Job, StatsRegistry &JobStats);
  /// Queue depth across both lanes. Caller holds M.
  size_t queueDepthLocked() const {
    return InteractiveLane.size() + BatchLane.size();
  }
  /// A refusal result pending callback delivery (OnResult mode): built
  /// under M, fired after M is released.
  struct PendingReject {
    uint64_t Id;
    BatchResult R;
  };
  /// Completes \p Id with a Rejected result without it ever reaching a
  /// worker: into the drain window, or (OnResult mode) onto \p Deferred
  /// for the caller to deliver outside the lock. Caller holds M; caller
  /// notifies DoneCv.
  void completeRejectedLocked(uint64_t Id, double QueueWaitSec,
                              const char *Why,
                              std::vector<PendingReject> &Deferred);

  ServiceConfig Cfg;
  // Declared before Workers, so it outlives every context they create.
  PagePool Pages;
  std::unique_ptr<ArtifactCache> Cache;

  mutable std::mutex M;
  std::condition_variable QueueCv; // workers: queue non-empty or stopping
  std::condition_variable DoneCv;  // drain(): a job finished
  std::condition_variable SpaceCv; // Block-policy producers: a slot freed
  /// The admission queue, split by JobPriority. Workers prefer the
  /// interactive lane; SinceBatch enforces the InteractiveRunCap so
  /// the batch lane cannot starve.
  std::deque<QueuedJob> InteractiveLane;
  std::deque<QueuedJob> BatchLane;
  unsigned SinceBatch = 0;     // interactive takes since the last batch take
  uint64_t DequeueCounter = 0; // BatchResult::DequeueSeq source
  /// Result slots for the undrained id window [DrainedUpTo, NextJobId):
  /// the slot is reserved by enqueue() (the window only ever grows
  /// there), a completing worker fills Done[Id - DrainedUpTo] in place,
  /// and drain() hands the completed prefix out and slides the window —
  /// so the deque stays bounded by the in-flight job count on a
  /// long-lived service and completion never grows it under the lock.
  std::deque<std::unique_ptr<BatchResult>> Done;
  uint64_t NextJobId = 0;
  uint64_t DrainedUpTo = 0;
  uint64_t CompletedJobs = 0;
  bool Stopping = false;
  // Admission counters (under M); published as gauges at drain().
  uint64_t JobsRejected = 0;
  uint64_t JobsShed = 0;
  uint64_t QueueDepthPeak = 0;

  /// Counters of jobs completed since the last drain, folded in once per
  /// job; drain() moves them into Stats.
  std::mutex PendingM;
  StatsRegistry PendingStats;
  StatsRegistry Stats;
  std::chrono::steady_clock::time_point StartedAt;
  std::mutex JoinM; // serializes stop()'s join phase (idempotent stop)
  std::vector<std::thread> Workers;
};

} // namespace mpc

#endif // MPC_DRIVER_COMPILESERVICE_H
