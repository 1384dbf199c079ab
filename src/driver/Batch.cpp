#include "driver/Batch.h"

#include "ast/TreePrinter.h"
#include "support/CancelToken.h"
#include "support/OStream.h"

#include <atomic>
#include <chrono>
#include <thread>

using namespace mpc;

//===----------------------------------------------------------------------===//
// Job keys (content-addressed identity)
//===----------------------------------------------------------------------===//

// CACHE-RELEVANCE AUDIT of CompilerOptions. Every field must appear in
// exactly one of these lists; the static_assert below trips when a field
// is added (or one changes size) without extending the audit, so a new
// option can never silently alias cache entries.
//
//   Mixed into the key (affect dumps, diagnostics, or the simulated
//   HeapStats the cache replays):
//     CheckTrees       checker failures surface in output
//     IdentitySkip     node reuse changes allocation clock
//     SubtreePruning   observationally identical, but mixed anyway so the
//                      pruning ablation never shares entries (conservative)
//     Strategy         dispatch strategy, mixed conservatively
//
//   Cache-IRRELEVANT (excluded deliberately):
//     FuseMiniphases   compileProgram overwrites both from the job's
//     AlwaysCopy       PipelineKind (StandardFused / Legacy), which the
//                      key already holds; the caller's values never reach
//                      the pipeline.
//     SlabHeap         selects the real-storage backend only; the
//                      simulated stats and all rendered output are
//                      byte-identical either way (pinned by the
//                      SlabAllocatorTest invariance suite), so slab-on
//                      and slab-off jobs may share one cache entry.
static_assert(sizeof(CompilerOptions) == 12,
              "CompilerOptions changed: audit the cache-relevance lists "
              "above, extend optionsFingerprint(), then update this size");

namespace {

Fingerprint optionsFingerprint(const CompilerOptions &O) {
  const unsigned char Bits[4] = {
      static_cast<unsigned char>(O.CheckTrees),
      static_cast<unsigned char>(O.IdentitySkip),
      static_cast<unsigned char>(O.SubtreePruning),
      static_cast<unsigned char>(O.Strategy),
  };
  return fingerprintBytes(Bits, sizeof(Bits));
}

} // namespace

Fingerprint mpc::fingerprintSource(const SourceInput &Source) {
  return combine(fingerprintString(Source.FileName),
                 fingerprintString(Source.Text));
}

JobKey mpc::jobKeyFor(const BatchJob &Job) {
  // Domain tag so a JobKey can never collide with a bare source
  // fingerprint someone stores in the same table. Note what is absent
  // below: BatchJob::Priority and DeadlineSec are scheduling metadata
  // with no effect on the compiled output, so jobs differing only in
  // them deliberately share one cache entry.
  Fingerprint FP = fingerprintUInt(0x4a4f424bu /* "JOBK" */);
  // Order-sensitive fold: unit order assigns file ids and shapes output.
  for (const SourceInput &S : Job.Sources)
    FP = combine(FP, fingerprintSource(S));
  FP = combine(FP, optionsFingerprint(Job.Options));
  FP = combine(FP, fingerprintUInt(static_cast<uint64_t>(Job.Kind)));
  FP = combine(FP, fingerprintUInt(Job.WantDump ? 1 : 0));
  return JobKey{FP};
}

BatchResult mpc::runBatchJob(BatchJob Job,
                             std::unique_ptr<CompilerContext> Comp) {
  BatchResult R;
  // The context moves into the result BEFORE the compile runs, so the
  // firewall below hands it back even when the compile unwinds — it must
  // never be lost to an exception.
  R.Comp = std::move(Comp);

  // Arm the job's soft deadline as a stack-local token. The token lives
  // on this frame, so every exit path below detaches it before the
  // context escapes.
  CancelToken Token;
  if (Job.DeadlineSec > 0) {
    Token.armDeadline(CancelToken::Clock::now() +
                      std::chrono::duration_cast<CancelToken::Clock::duration>(
                          std::chrono::duration<double>(Job.DeadlineSec)));
    R.Comp->setCancelToken(&Token);
  }

  bool WantDump = Job.WantDump;
  try {
    R.Out = compileProgram(*R.Comp, std::move(Job.Sources), Job.Kind);
    R.HadErrors = R.Comp->diags().hasErrors();
  } catch (const DeadlineExceeded &E) {
    // Checkpoints only throw between units / at phase boundaries, where
    // all trees are RAII-held — the unwind released them.
    R.Status = JobStatus::DeadlineExceeded;
    R.HadErrors = true;
    R.DiagText = std::string("error: ") + E.what() + "\n";
    WantDump = false;
  } catch (const std::exception &E) {
    // Worker firewall: an arbitrary exception becomes a failed result.
    // Unlike a deadline unwind, the throw site is unknown (it may have
    // interrupted an allocation mid-charge), so the context is only fit
    // for destruction.
    R.Status = JobStatus::Faulted;
    R.HadErrors = true;
    R.DiagText = std::string("error: compile job faulted: ") + E.what() + "\n";
    WantDump = false;
  } catch (...) {
    R.Status = JobStatus::Faulted;
    R.HadErrors = true;
    R.DiagText = "error: compile job faulted: unknown exception\n";
    WantDump = false;
  }
  R.Comp->setCancelToken(nullptr);

  // Render any diagnostics (not just errors): the compile service
  // destroys the context after the job, so this snapshot is the only
  // place warnings and notes survive there. On a cancelled/faulted run
  // the explanatory text above takes their place.
  if (R.Status == JobStatus::Ok && !R.Comp->diags().all().empty()) {
    StringOStream OS;
    R.Comp->diags().printAll(OS);
    R.DiagText = OS.str();
  }
  R.Heap = R.Comp->heap().stats();
  if (WantDump && R.Status == JobStatus::Ok) {
    PrintOptions PO;
    PO.ShowTypes = true;
    for (const CompilationUnit &U : R.Out.Units) {
      R.DumpText += "// === " + U.FileName + " ===\n";
      R.DumpText += treeToString(U.Root.get(), PO);
      R.DumpText += '\n';
    }
  }
  return R;
}

std::vector<BatchResult> mpc::compileBatch(std::vector<BatchJob> Jobs,
                                           unsigned Threads) {
  if (Threads == 0) {
    Threads = std::thread::hardware_concurrency();
    if (Threads == 0)
      Threads = 1;
  }
  if (Threads > Jobs.size())
    Threads = static_cast<unsigned>(Jobs.size());

  // Workers pull job indices from one atomic counter; each job gets a
  // fresh context and writes its own result slot, so the results come
  // back in job order with nothing shared between workers.
  std::vector<BatchResult> Results(Jobs.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Jobs.size();) {
      auto Comp = std::make_unique<CompilerContext>(Jobs[I].Options);
      Results[I] = runBatchJob(std::move(Jobs[I]), std::move(Comp));
    }
  };
  // Serial runs stay inline on the calling thread (no spawn) — the
  // historical contract profilers and debuggers rely on.
  if (Threads <= 1) {
    Worker();
    return Results;
  }
  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
  return Results;
}
