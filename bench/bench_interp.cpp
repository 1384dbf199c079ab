//===----------------------------------------------------------------------===//
// Bytecode-VM dispatch profile: links each guest program with
// superinstruction fusion OFF, runs it once with profiling on, and prints
// the per-opcode dispatch histogram and the hottest dynamic opcode pairs —
// the measurement that chose the fusion table in Linker.cpp (see README
// "Bytecode VM"). Guest-execution rates are perfbench's guest_exec
// workload (`backend.vm.dispatches_per_s`), so this bench times nothing.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "backend/Linker.h"
#include "backend/VM.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace mpc;
using namespace mpc::bench;

namespace {

constexpr uint64_t BenchStepLimit = 1ull << 40;

/// Returns false when the program does not compile.
bool profileFamily(Family F, uint64_t Seed, double Scale) {
  CompilerContext Comp;
  CompileOutput Out =
      compileProgram(Comp, generateFamily(F, Seed, Scale),
                     PipelineKind::StandardFused);
  if (Comp.diags().hasErrors() || Out.EntryPoints.empty()) {
    std::printf("[%s] compile failed\n", familyName(F));
    return false;
  }
  LinkOptions LO;
  LO.Superinstructions = false;
  LinkedProgram Linked = linkProgram(Out.Prog, Comp, LO);
  VM M(Comp, Linked, BenchStepLimit);
  M.enablePairCounts();
  M.runMain(Out.EntryPoints.front());

  // Per-opcode histogram, from the backend.vm.dispatch.<op> counters that
  // only a profiled run fills.
  const StatsRegistry &Stats = Comp.stats();
  const char Prefix[] = "backend.vm.dispatch.";
  struct OpRow {
    std::string Op;
    uint64_t Count;
  };
  std::vector<OpRow> Ops;
  for (const auto &[Key, N] : Stats.all())
    if (Key.rfind(Prefix, 0) == 0 && N > 0)
      Ops.push_back({Key.substr(std::strlen(Prefix)), N});
  std::sort(Ops.begin(), Ops.end(),
            [](const OpRow &X, const OpRow &Y) { return X.Count > Y.Count; });
  uint64_t Steps = Stats.get("backend.vm.steps");

  std::printf("\n[%s seed %llu: %llu dispatches, fusion off]\n",
              familyName(F), (unsigned long long)Seed,
              (unsigned long long)Steps);
  std::printf("  hottest opcodes:\n");
  for (size_t I = 0; I < std::min<size_t>(Ops.size(), 10); ++I)
    std::printf("    %-16s %12llu  (%.1f%%)\n", Ops[I].Op.c_str(),
                (unsigned long long)Ops[I].Count,
                100.0 * double(Ops[I].Count) / double(Steps ? Steps : 1));

  const std::vector<uint64_t> &Pairs = M.pairCounts();
  const size_t N = static_cast<size_t>(LOp::NumLOps);
  struct PairRow {
    size_t A, B;
    uint64_t Count;
  };
  std::vector<PairRow> Top;
  for (size_t A = 0; A < N; ++A)
    for (size_t B = 0; B < N; ++B)
      if (Pairs[A * N + B] > 0)
        Top.push_back({A, B, Pairs[A * N + B]});
  std::sort(Top.begin(), Top.end(),
            [](const PairRow &X, const PairRow &Y) {
              return X.Count > Y.Count;
            });

  std::printf("  hottest dynamic opcode pairs:\n");
  for (size_t I = 0; I < std::min<size_t>(Top.size(), 12); ++I)
    std::printf("    %-14s ; %-14s %12llu\n",
                lopName(static_cast<LOp>(Top[I].A)),
                lopName(static_cast<LOp>(Top[I].B)),
                (unsigned long long)Top[I].Count);
  return true;
}

} // namespace

int main() {
  printHeader("Bytecode VM dispatch profile — opcodes and opcode pairs",
              "not a paper figure; the data behind the superinstruction "
              "table");
  double Scale = benchScale(1.0);
  std::printf("workload scale: %.2f (MPC_BENCH_SCALE to change)\n", Scale);
  bool Ok = true;
  for (Family F : {Family::ClosureHeavy, Family::MegaMethods, Family::Mixed})
    Ok &= profileFamily(F, /*Seed=*/1, Scale);
  return Ok ? 0 : 1;
}
