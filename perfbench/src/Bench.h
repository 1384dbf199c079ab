//===----------------------------------------------------------------------===//
///
/// \file
/// Shared harness of the repository benchmark: options, sample
/// statistics, the in-memory span recorder of traced runs, and the
/// report every workload fills in and main() prints.
///
/// A workload runs its set-up several times and keeps the median, warms
/// up, then measures for a fixed number of seconds. Untraced runs report
/// the end-to-end metrics; traced runs (--trace 1) wrap every public call
/// into a compiler layer in a span and report the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Everything a run is parameterized by. The fixed workload settings
/// (offered rate, latency limits, traffic shares) are constants in each
/// workload's source file, not options.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory of the guest programs and their expected outputs.
  std::string ProgramsDir = "perfbench/programs";
  /// Where a traced run writes its spans (created if missing).
  std::string TraceDir = ".bench_build/traces";
  /// Set-up repetitions; setup_s is their median.
  unsigned SetupReps = 5;
  /// Small inputs for the benchmark's own tests.
  bool Tiny = false;
};

/// Percentile by linear interpolation between closest ranks (0..100).
double percentile(std::vector<double> Values, double P);
double median(std::vector<double> Values);
double mean(const std::vector<double> &Values);

/// One recorded span. Spans of one op share Op; Parent indexes the
/// recorder's span vector (-1 for a root).
struct Span {
  uint64_t Op = 0;
  int64_t Parent = -1;
  const char *Name = "";
  Clock::time_point Start, End;
};

/// In-memory span store of a traced run; written out once at the end.
class Tracer {
public:
  /// Records a finished span and returns its index (the parent handle of
  /// spans recorded under it).
  int64_t add(uint64_t Op, int64_t Parent, const char *Name,
              Clock::time_point Start, Clock::time_point End) {
    Spans.push_back({Op, Parent, Name, Start, End});
    return static_cast<int64_t>(Spans.size()) - 1;
  }
  /// Reserves a span slot whose interval is filled in later by close();
  /// lets a parent be recorded before its children finish.
  int64_t open(uint64_t Op, int64_t Parent, const char *Name) {
    return add(Op, Parent, Name, Clock::time_point(), Clock::time_point());
  }
  void close(int64_t Idx, Clock::time_point Start, Clock::time_point End) {
    Spans[Idx].Start = Start;
    Spans[Idx].End = End;
  }
  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span in milliseconds: its duration minus the
  /// durations of its direct children.
  std::vector<double> selfMs() const;

  /// Self time in milliseconds summed per span name, and the number of
  /// spans of each name.
  struct Totals {
    std::map<std::string, double> SelfMs;
    std::map<std::string, uint64_t> Count;
  };
  Totals totals() const;

  /// Writes every span as one JSON object per line. False on I/O error.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
};

/// What a workload measured. Metrics keep insertion order for printing.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Harness-level check failures (set-up errors, count mismatches).
  std::vector<std::string> Problems;
  /// First few op failures, for the human-readable summary.
  std::vector<std::string> FailureSamples;
  /// Lines printed before the result (workload facts, trace summary).
  std::vector<std::string> Details;

  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;

  void metric(const std::string &Name, double Value, const std::string &Unit);
  void fail(const std::string &Why);
  void problem(const std::string &Why) { Problems.push_back(Why); }
  void detail(const std::string &Line) { Details.push_back(Line); }
  bool correct() const { return Failed == 0 && Problems.empty(); }
};

/// Host speed probe. The benchmark runs on shared hosts whose speed for
/// memory-heavy work drifts by up to 2x over seconds to minutes (other
/// tenants' cache and memory traffic; the clock rate itself stays put),
/// more than any bound a regression check could use. So a fixed
/// reference kernel is timed between ops: search-tree inserts, walks and
/// lookups over 2.5 MB of small nodes, the memory behaviour of a
/// compiler, using none of the repository's code and a buffer of its own
/// that the rest of the heap cannot fragment. Every end-to-end time is
/// reported as it would read at the reference speed: multiplied by
/// ReferenceMs over the median kernel time of the samples taken near it.
/// A change to the code under test moves the op times and not the
/// kernel, so it shows in full.
class SpeedProbe {
public:
  /// Kernel time, in ms, at the reference speed: about the kernel's
  /// median on the 4-vCPU Xeon (Sapphire Rapids, KVM) host the benchmark
  /// was built on.
  static constexpr double ReferenceMs = 22.0;

  /// Runs the kernel once and records when it ran and how long it took.
  /// Samples must be taken from one thread at a time.
  void sample();
  /// The factor that turns a wall time measured at \p At into reference
  /// time: ReferenceMs over the median of the samples within WindowSec of
  /// \p At (or of the MinSamples samples nearest to it, if fewer lie
  /// there). 1 without samples.
  double scale(Clock::time_point At) const;
  /// Median kernel time over every sample, in ms.
  double medianMs() const;
  size_t size() const { return Samples.size(); }

private:
  static constexpr double WindowSec = 2.5;
  static constexpr size_t MinSamples = 9;
  struct Sample {
    Clock::time_point At;
    double Ms;
  };
  std::vector<Sample> Samples;
  /// The kernel's working memory, allocated by the first sample.
  struct Node {
    uint64_t Key, Val;
    uint32_t Kid[2];
    uint64_t Payload[5];
  };
  std::vector<Node> Nodes;
  std::vector<uint32_t> Stack;
};

/// Median of \p Reps timed runs of \p SetupOnce, in seconds at the
/// probe's reference speed; the probe samples around every run.
template <typename Fn>
double medianSetup(unsigned Reps, SpeedProbe &Probe, Fn &&SetupOnce) {
  constexpr unsigned SamplesAround = 4;
  std::vector<double> Times;
  for (unsigned R = 0; R < (Reps ? Reps : 1); ++R) {
    for (unsigned S = 0; S < SamplesAround; ++S)
      Probe.sample();
    Clock::time_point T0 = Clock::now();
    SetupOnce(R + 1 == (Reps ? Reps : 1));
    Clock::time_point T1 = Clock::now();
    for (unsigned S = 0; S < SamplesAround; ++S)
      Probe.sample();
    Times.push_back(std::chrono::duration<double>(T1 - T0).count() *
                    Probe.scale(T0 + (T1 - T0) / 2));
  }
  return median(Times);
}

/// Fills in the end-to-end metrics shared by every workload: p50 and p90
/// over all op latencies, and throughput as the number of ops over
/// \p Seconds (the time spent in ops for a closed loop, the measured span
/// for an open loop). Latencies and seconds are in reference time
/// (SpeedProbe); \p RawLatencyMs, the same latencies in wall time, and
/// \p Probe go to a detail line only.
void reportEndToEnd(Report &R, const std::vector<double> &LatencyMs,
                    double Seconds, double SetupSec, double SloShare,
                    const std::vector<double> &RawLatencyMs,
                    const SpeedProbe &Probe);

/// Adds the per-layer self-time summary of a traced run: one detail line
/// per span name (mean self ms per op) and one with the sum of the self
/// times in op trees next to the traced op time. A span's self time is
/// its duration minus its children's, so that sum equals the op time by
/// construction; the line shows the partition, it checks nothing.
/// Returns the per-op mean self time of each span name.
std::map<std::string, double> summarizeTrace(Report &R, const Tracer &T,
                                             uint64_t Ops, double OpMeanMs);

/// splitmix64: per-op seeds derived from the run seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

/// The workloads.
Report runCompileBatch(const Options &O);
Report runGuestExec(const Options &O);
Report runServeMixed(const Options &O);

/// Runs every guest program on the tree-walking interpreter (the
/// semantic oracle) and on the VM, printing one line per program; true
/// when both match the hand-written expected output.
bool checkGuestOracle(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
