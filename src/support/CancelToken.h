//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative cancellation for in-flight compile jobs.
///
/// A CancelToken is armed with a soft deadline (and/or cancelled
/// explicitly from another thread) and polled at *checkpoints* — the
/// frontend's per-source loop, every pipeline phase boundary, and the
/// driver's stage boundaries. A checkpoint that observes an expired token
/// throws DeadlineExceeded; because every tree is reference-counted and
/// every intermediate holder is RAII, the unwind releases all tree
/// storage a cancelled job held.
///
/// Checkpoints run *between* units or phases, never inside a tree
/// traversal, so cancellation latency is bounded by one phase boundary —
/// the compile service's "a wedged job frees its worker" guarantee. The
/// one exception is the interpreter: its runtime is controlled by the
/// program under test (a guest loop runs arbitrarily long), so its
/// dispatch loop polls every 256th step as well.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_SUPPORT_CANCELTOKEN_H
#define MPC_SUPPORT_CANCELTOKEN_H

#include <atomic>
#include <chrono>
#include <stdexcept>

namespace mpc {

/// Thrown by a cancellation checkpoint once its token has expired. The
/// worker firewall (driver/Batch.cpp) turns it into a clean
/// DeadlineExceeded result instead of a hung worker.
class DeadlineExceeded : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Deadline + cancellation flag shared between the thread running a job
/// and anyone who wants it to stop. cancel() may race checkpoints freely;
/// armDeadline() must happen before the work starts.
class CancelToken {
public:
  using Clock = std::chrono::steady_clock;

  /// Requests cancellation (thread-safe; sticky).
  void cancel() { Cancelled.store(true, std::memory_order_relaxed); }

  /// Arms a soft deadline. Checkpoints after \p At throw. Not
  /// thread-safe: arm before handing the token to the working thread.
  void armDeadline(Clock::time_point At) {
    Deadline = At;
    HasDeadline = true;
  }

  bool expired() const {
    if (Cancelled.load(std::memory_order_relaxed))
      return true;
    return HasDeadline && Clock::now() >= Deadline;
  }

  /// The checkpoint: cheap when armed and healthy (one clock read), free
  /// to call from any stage that owns the token's context.
  void checkpoint() const {
    if (expired())
      throw DeadlineExceeded(
          Cancelled.load(std::memory_order_relaxed)
              ? "job cancelled at checkpoint"
              : "job deadline exceeded at checkpoint");
  }

private:
  std::atomic<bool> Cancelled{false};
  Clock::time_point Deadline{};
  bool HasDeadline = false;
};

} // namespace mpc

#endif // MPC_SUPPORT_CANCELTOKEN_H
