//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel batch compilation: many independent compiler runs sharing a
/// worker pool. This is the paper's evaluation setting ("batch compilation
/// in a big project", §5.2) and a first step toward its §9 future work on
/// parallel compilation — compiler *instances* are embarrassingly
/// parallel because every run owns its CompilerContext (trees, symbols,
/// interner), so no compiler state is shared between workers.
///
/// compileBatch() runs N threads over the job list, each job in a fresh
/// CompilerContext that comes back with its result: isolated contexts,
/// results in job order, bit-identical to a serial run. The long-lived
/// CompileService (CompileService.h) shares runBatchJob with it but keeps
/// no contexts — it strips each result and destroys the context.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_DRIVER_BATCH_H
#define MPC_DRIVER_BATCH_H

#include "driver/Driver.h"
#include "support/Fingerprint.h"

#include <memory>

namespace mpc {

/// Scheduling class of a job in the compile service's admission queue.
/// Interactive jobs (IDE requests, incremental rebuilds) jump ahead of
/// Batch jobs, subject to the anti-starvation burst cap
/// (InteractiveRunCap in CompileService.h).
enum class JobPriority : uint8_t {
  Interactive,
  Batch,
};

/// How a job's run ended. Everything except Ok also sets
/// BatchResult::HadErrors with an explanatory DiagText.
enum class JobStatus : uint8_t {
  /// Compiled (possibly with source-level diagnostics).
  Ok,
  /// Never compiled: refused or shed by the service's admission control.
  Rejected,
  /// Cancelled at a checkpoint after its soft deadline expired (or spent
  /// the whole deadline waiting in the queue). The context unwinds
  /// through RAII tree holders only.
  DeadlineExceeded,
  /// An exception escaped the compile; the worker's firewall converted it
  /// into this failed result. The job's context comes back with the
  /// result but is only fit for destruction.
  Faulted,
};

/// One independent compile job.
struct BatchJob {
  std::vector<SourceInput> Sources;
  PipelineKind Kind = PipelineKind::StandardFused;
  /// Options applied to the job's context (CheckTrees etc.). The fusion
  /// and copier flags are still derived from \p Kind.
  CompilerOptions Options;
  /// Render a typed tree dump of every lowered unit into
  /// BatchResult::DumpText. This is how compile-service results stay
  /// comparable (the trees themselves die with the job's context).
  bool WantDump = false;
  /// Queue lane in the compile service (ignored by plain compileBatch).
  /// Scheduling metadata only — deliberately NOT part of the JobKey, so
  /// an interactive job can replay a batch job's cached artifact.
  JobPriority Priority = JobPriority::Batch;
  /// Soft deadline in seconds, measured from enqueue (so queue wait
  /// counts against it); 0 = none. Enforced cooperatively at phase
  /// boundaries — see CompilerContext::checkpoint(). Cache-irrelevant,
  /// like Priority.
  double DeadlineSec = 0;
};

/// Content-addressed identity of a BatchJob: everything that determines
/// the job's observable output (sources in order, cache-relevant options,
/// pipeline kind, dump request) folded into one 128-bit fingerprint. Two
/// jobs with equal keys produce byte-identical results, so the compile
/// service's ArtifactCache can replay one for the other.
struct JobKey {
  Fingerprint FP;

  bool operator==(const JobKey &O) const { return FP == O.FP; }
  bool operator!=(const JobKey &O) const { return FP != O.FP; }
  std::string hex() const { return FP.hex(); }
};

/// Hash adaptor for keying unordered containers by JobKey — the key is
/// already a high-quality hash, so one lane is the bucket index.
struct JobKeyHasher {
  size_t operator()(const JobKey &K) const {
    return static_cast<size_t>(K.FP.Lo);
  }
};

/// Content fingerprint of one source input (name and text, each
/// length-folded, so renames and edits both change it).
Fingerprint fingerprintSource(const SourceInput &Source);

/// Derives the job's content-addressed key. See Batch.cpp for the
/// CompilerOptions audit: every field is either mixed into the key or
/// explicitly listed as cache-irrelevant, with a sizeof tripwire that
/// fails the build when a new field is added unaudited.
JobKey jobKeyFor(const BatchJob &Job);

/// The outcome of one job. compileBatch returns the context alongside the
/// output because the lowered trees it contains live in the context's
/// heap. The compile service destroys the context instead: there Comp is
/// null and Out carries no context-owned data.
struct BatchResult {
  std::unique_ptr<CompilerContext> Comp;
  CompileOutput Out;
  JobStatus Status = JobStatus::Ok;
  bool HadErrors = false;
  std::string DiagText; // rendered diagnostics when HadErrors
  std::string DumpText; // typed tree dumps when BatchJob::WantDump
  /// Simulated-heap statistics snapshot taken right after the compile
  /// (before any teardown), so service and serial/parallel batch runs
  /// are comparable field by field.
  HeapStats Heap;
  /// Order this job was taken off the service queue (0-based, service
  /// lifetime scope) — makes the priority-lane schedule observable to
  /// tests. Stays 0 for jobs that never reached a worker (rejected/shed).
  uint64_t DequeueSeq = 0;
};

/// Compiles one job in \p Comp, snapshotting diagnostics, heap stats,
/// and (when requested) tree dumps into the result. The shared per-job
/// core of compileBatch and the CompileService workers.
///
/// This is also the fault boundary: a DeadlineExceeded unwind (the job's
/// DeadlineSec, armed here as a stack-local CancelToken) or any other
/// exception escaping the compile is caught and folded into the result's
/// Status — the context is always returned inside the result, never lost
/// to the unwind.
BatchResult runBatchJob(BatchJob Job, std::unique_ptr<CompilerContext> Comp);

/// Compiles all \p Jobs using up to \p Threads workers (0 = hardware
/// concurrency). Results are returned in job order regardless of worker
/// scheduling, each with the isolated CompilerContext that produced it,
/// so outputs are bit-identical to a serial run. With one thread (or one
/// job) the compile runs inline on the calling thread.
std::vector<BatchResult> compileBatch(std::vector<BatchJob> Jobs,
                                      unsigned Threads = 0);

} // namespace mpc

#endif // MPC_DRIVER_BATCH_H
