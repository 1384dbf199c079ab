//===----------------------------------------------------------------------===//
//
// perfbench: the repository benchmark.
//
//   perfbench --workload <compile_batch|guest_exec|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--setup-reps <n>] [--programs-dir <dir>]
//
// Prints a human-readable table of every metric with its unit, then, as
// the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. perfbench/run.py builds this binary and runs it.
//
//   perfbench --oracle-check   runs every guest program on the
//                              tree-walking interpreter and the VM and
//                              compares both to the expected outputs.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <sys/resource.h>

using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics (BENCHMARK.json "end_to_end").
const MetricSpec EndToEnd[] = {
    {"throughput_ops_per_s", "1/s"}, {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},        {"setup_s", "s"},
    {"peak_rss_mb", "MB"},           {"slo_share", "share"},
};

/// The per-layer metrics (BENCHMARK.json "per_layer"). Every traced run
/// prints all of them; a layer a workload does not exercise reads 0.
const MetricSpec PerLayer[] = {
    {"frontend.self_ms", "ms"},
    {"frontend.diagnosed_share", "share"},
    {"core.pipeline.self_ms", "ms"},
    {"core.pipeline.traversals", "count"},
    {"core.pipeline.nodes_visited", "count"},
    {"core.pipeline.hooks_run", "count"},
    {"core.pipeline.subtrees_pruned", "count"},
    {"core.pipeline.prune_ratio", "ratio"},
    {"core.pipeline.unfused_self_ms", "ms"},
    {"core.pipeline.fused_saving", "share"},
    {"backend.codegen.self_ms", "ms"},
    {"backend.codegen.instrs", "count"},
    {"memsim.real_allocs", "count"},
    {"memsim.slab_hit_ratio", "ratio"},
    {"memsim.pages_mapped", "count"},
    {"backend.link.self_ms", "ms"},
    {"backend.link.instrs", "count"},
    {"backend.link.superinstrs", "count"},
    {"backend.vm.init_ms", "ms"},
    {"backend.vm.run_ms", "ms"},
    {"backend.vm.run_ms.sieve", "ms"},
    {"backend.vm.run_ms.recursion", "ms"},
    {"backend.vm.run_ms.shapes", "ms"},
    {"backend.vm.run_ms.closures", "ms"},
    {"backend.vm.run_ms.strings", "ms"},
    {"backend.vm.dispatches", "count"},
    {"backend.vm.dispatches_per_s", "1/s"},
    {"backend.vm.ic_call_hit_ratio", "ratio"},
    {"backend.vm.ic_field_hit_ratio", "ratio"},
    {"backend.vm.allocs", "count"},
    {"driver.queue_wait_ms_p50", "ms"},
    {"driver.queue_wait_ms_p90", "ms"},
    {"driver.compile_ms_p50", "ms"},
    {"driver.cache.hit_ratio", "ratio"},
    {"driver.cache.evictions", "count"},
    {"driver.service.utilization", "share"},
    {"driver.service.contexts_reused_ratio", "ratio"},
    {"driver.service.rejected", "count"},
    {"driver.service.shed", "count"},
    {"net.residual_ms_p50", "ms"},
    {"net.residual_ms_p90", "ms"},
    {"net.retry_after", "count"},
    {"net.reconnects", "count"},
    {"net.protocol_errors", "count"},
    {"net.bytes_written", "bytes"},
    {"net.loadgen.lag_ms_p90", "ms"},
    {"residual_ms", "ms"},
    {"trace.op_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

std::string number(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : "0";
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--setup-reps <n>]\n",
               Why);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool Oracle = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--oracle-check") {
      Oracle = true;
    } else if (A == "--tiny") {
      O.Tiny = true;
    } else if (!(V = Next())) {
      return usage(("missing value for " + A).c_str());
    } else if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::atof(V);
    } else if (A == "--trace") {
      O.Trace = std::atoi(V) != 0;
    } else if (A == "--programs-dir") {
      O.ProgramsDir = V;
    } else if (A == "--trace-dir") {
      O.TraceDir = V;
    } else if (A == "--setup-reps") {
      O.SetupReps = static_cast<unsigned>(std::atoi(V));
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (Oracle)
    return checkGuestOracle(O) ? 0 : 1;
  if (O.Seconds <= 0)
    return usage("--seconds must be positive");

  if (O.Trace) {
    std::error_code Ec;
    std::filesystem::create_directories(O.TraceDir, Ec);
  }
  Report R;
  if (O.Workload == "compile_batch")
    R = runCompileBatch(O);
  else if (O.Workload == "guest_exec")
    R = runGuestExec(O);
  else if (O.Workload == "serve_mixed")
    R = runServeMixed(O);
  else
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  if (!O.Trace) {
    rusage RU;
    getrusage(RUSAGE_SELF, &RU);
    R.metric("peak_rss_mb", double(RU.ru_maxrss) / 1024.0, "MB");
  }

  // Print exactly the catalog of this mode, in catalog order.
  std::string Json;
  const MetricSpec *Begin = O.Trace ? std::begin(PerLayer) : std::begin(EndToEnd);
  const MetricSpec *End = O.Trace ? std::end(PerLayer) : std::end(EndToEnd);
  for (const Report::Metric &M : R.Metrics) {
    bool Known = false;
    for (const MetricSpec *S = Begin; S != End; ++S)
      Known |= M.Name == S->Name;
    if (!Known)
      R.problem("metric outside the catalog: " + M.Name);
  }

  for (const std::string &L : R.Details)
    std::printf("# %s\n", L.c_str());
  for (const std::string &P : R.Problems)
    std::printf("# PROBLEM %s\n", P.c_str());
  for (const std::string &F : R.FailureSamples)
    std::printf("# FAILED %s\n", F.c_str());
  std::printf("# %s seed %llu: attempted %llu, failed %llu, fail_share %s\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              number(R.Attempted ? double(R.Failed) / double(R.Attempted) : 1)
                  .c_str());

  bool AllFinite = true;
  for (const MetricSpec *S = Begin; S != End; ++S) {
    double Value = 0;
    for (const Report::Metric &M : R.Metrics)
      if (M.Name == S->Name)
        Value = M.Value;
    if (!std::isfinite(Value)) {
      AllFinite = false;
      Value = 0;
    }
    std::printf("%-38s %16s %s\n", S->Name, number(Value).c_str(), S->Unit);
    Json += std::string(Json.empty() ? "" : ", ") + "\"" + S->Name +
            "\": {\"value\": " + number(Value) + ", \"unit\": \"" + S->Unit +
            "\"}";
  }
  bool Correct = R.correct() && AllFinite && R.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, R.Attempted)),
              static_cast<unsigned long long>(R.Failed), Json.c_str());
  return 0;
}
