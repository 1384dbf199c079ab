//===----------------------------------------------------------------------===//
// Microbenchmark: raw per-node cost of fused vs separate traversals as the
// number of miniphases grows — the mechanism behind Figure 4 in isolation,
// on sparse-rewrite phases over a synthetic tree. Each sample times
// back-to-back traversals (64 at MPC_BENCH_SCALE=1) and reports ns per
// (leaf x phase) item; rows give the median and range over benchReps()
// samples, alternating the two configurations per repetition.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/FusedBlock.h"
#include "core/Phase.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <functional>

using namespace mpc;
using namespace mpc::bench;

namespace {

/// A miniphase that rewrites 1/16th of Literal nodes (realistic sparsity).
class TouchLiterals : public MiniPhase {
public:
  explicit TouchLiterals(int Which)
      : MiniPhase("TouchLiterals" + std::to_string(Which), "micro"),
        Which(Which) {
    declareTransforms({TreeKind::Literal});
  }
  TreePtr transformLiteral(Literal *T, PhaseRunContext &Ctx) override {
    const Constant &C = T->value();
    if (C.kind() != Constant::Int || (C.intValue() & 15) != Which % 16)
      return TreePtr(T);
    return Ctx.trees().makeLiteral(
        T->loc(), Constant::makeInt(C.intValue() + 1), T->type());
  }
  int Which;
};

/// Builds a binary-ish tree of Blocks over Int literals.
TreePtr buildTree(CompilerContext &Comp, unsigned Leaves) {
  TreeContext &Trees = Comp.trees();
  TypeContext &Types = Comp.types();
  Rng R(42);
  TreeList Stats;
  TreeList Pending;
  for (unsigned I = 0; I < Leaves; ++I) {
    Pending.push_back(Trees.makeLiteral(
        SourceLoc(), Constant::makeInt(int64_t(R.below(1 << 20))),
        Types.intType()));
    if (Pending.size() == 8) {
      TreePtr Last = std::move(Pending.back());
      Pending.pop_back();
      Stats.push_back(Trees.makeBlock(SourceLoc(), std::move(Pending),
                                      std::move(Last)));
      Pending.clear();
    }
  }
  TreePtr Tail = Trees.makeLiteral(SourceLoc(), Constant::makeInt(0),
                                   Types.intType());
  for (TreePtr &P : Pending)
    Stats.push_back(std::move(P));
  return Trees.makeBlock(SourceLoc(), std::move(Stats), std::move(Tail));
}

constexpr unsigned Leaves = 4096;

/// One configuration under test: its own context, tree and phases.
struct Setup {
  CompilerContext Comp;
  CompilationUnit Unit;
  std::vector<std::unique_ptr<MiniPhase>> Owned;

  explicit Setup(unsigned NumPhases) {
    Unit.Root = buildTree(Comp, Leaves);
    for (unsigned I = 0; I < NumPhases; ++I)
      Owned.push_back(std::make_unique<TouchLiterals>(I));
  }
};

/// Runs \p Traverse \p Inner times; returns ns per (leaf x phase) item.
double nsPerItem(unsigned Inner, unsigned NumPhases,
                 const std::function<void()> &Traverse) {
  Timer T;
  for (unsigned I = 0; I < Inner; ++I)
    Traverse();
  return T.elapsedSeconds() * 1e9 / (double(Inner) * Leaves * NumPhases);
}

void runPhaseCount(unsigned NumPhases, unsigned Inner, unsigned Reps) {
  Setup Fused(NumPhases), Separate(NumPhases);
  std::vector<MiniPhase *> Phases;
  for (auto &P : Fused.Owned)
    Phases.push_back(P.get());
  FusedBlock Block(Phases);
  auto RunFused = [&] { Block.runOnUnit(Fused.Unit, Fused.Comp); };
  auto RunSeparate = [&] {
    // One traversal per phase (Listing 4).
    for (auto &P : Separate.Owned)
      P->runOnUnit(Separate.Unit, Separate.Comp);
  };

  RunFused(); // warm-up
  RunSeparate();
  std::vector<double> FusedNs, SeparateNs;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    FusedNs.push_back(nsPerItem(Inner, NumPhases, RunFused));
    SeparateNs.push_back(nsPerItem(Inner, NumPhases, RunSeparate));
  }
  Summary F = summarize(FusedNs), S = summarize(SeparateNs);
  std::printf("  %6u %28s %28s %10s\n", NumPhases,
              fmtSummary(F, "", 2).c_str(), fmtSummary(S, "", 2).c_str(),
              fmtPct(F.Median / S.Median - 1.0).c_str());
}

} // namespace

int main() {
  printHeader("Micro — fused vs separate traversal cost per node",
              "a fused traversal amortizes the walk over its miniphases "
              "(the mechanism behind Figure 4)");
  double Scale = benchScale(1.0);
  unsigned Reps = benchReps();
  unsigned Inner = std::max(1u, static_cast<unsigned>(64 * Scale));
  std::printf("%u leaves, %u traversals per sample, repetitions: %u "
              "(MPC_BENCH_SCALE / MPC_BENCH_REPS to change)\n\n",
              Leaves, Inner, Reps);
  std::printf("  %6s %28s %28s %10s\n", "phases", "fused ns/item",
              "separate ns/item", "delta");
  for (unsigned NumPhases : {1u, 4u, 8u, 16u, 27u})
    runPhaseCount(NumPhases, Inner, Reps);
  return 0;
}
