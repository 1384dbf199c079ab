//===----------------------------------------------------------------------===//
///
/// \file
/// Named counters in the spirit of LLVM's Statistic class. Phases bump
/// counters (nodes visited, trees rebuilt, hooks executed...) and benchmarks
/// read them back to explain measured effects. The compile service
/// collects each job's counters in a job-local registry and merges them
/// into its own when results are drained.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_SUPPORT_STATISTICS_H
#define MPC_SUPPORT_STATISTICS_H

#include <cstdint>
#include <map>
#include <string>

namespace mpc {

class OStream;

/// A bag of named uint64 counters. Not thread-safe; within one compiler
/// run counters are bumped by a single thread.
class StatsRegistry {
public:
  uint64_t &counter(const std::string &Key) { return Counters[Key]; }

  void add(const std::string &Key, uint64_t Delta) { Counters[Key] += Delta; }

  uint64_t get(const std::string &Key) const {
    auto It = Counters.find(Key);
    return It == Counters.end() ? 0 : It->second;
  }

  void clear() { Counters.clear(); }

  /// Adds every counter of \p Other into this registry.
  void merge(const StatsRegistry &Other) {
    for (const auto &[Key, Value] : Other.Counters)
      Counters[Key] += Value;
  }

  /// Prints "key = value" lines sorted by key.
  void print(OStream &OS) const;

  /// Like print, restricted to counters whose key starts with \p Prefix
  /// (e.g. "fusion." for the fused-traversal counters).
  void printPrefixed(OStream &OS, const std::string &Prefix) const;

  const std::map<std::string, uint64_t> &all() const { return Counters; }

private:
  std::map<std::string, uint64_t> Counters;
};

} // namespace mpc

#endif // MPC_SUPPORT_STATISTICS_H
