//===----------------------------------------------------------------------===//
// DAG-input tests: a unit whose tree shares a subtree between parents (the
// paper's §9 DAG case) is walked as a tree. The fused block transforms the
// shared subtree at each occurrence, so every occurrence comes out
// correctly transformed, and the rebuilt occurrences are separate nodes.
//===----------------------------------------------------------------------===//

#include "ast/TreeUtils.h"
#include "core/FusedBlock.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

/// Counts literal transforms; bumps each literal by +1.
class BumpLiterals : public MiniPhase {
public:
  BumpLiterals() : MiniPhase("Bump", "test") {
    declareTransforms({TreeKind::Literal});
  }
  TreePtr transformLiteral(Literal *T, PhaseRunContext &Ctx) override {
    ++Hits;
    return Ctx.trees().makeLiteral(
        T->loc(), Constant::makeInt(T->value().intValue() + 1), T->type());
  }
  int Hits = 0;
};

/// A Block whose two statement slots reference the SAME subtree — a DAG.
CompilationUnit sharedLiteralUnit(CompilerContext &Comp, int Value) {
  TreePtr Shared = Comp.trees().makeLiteral(
      SourceLoc(), Constant::makeInt(Value), Comp.types().intType());
  TreeList Stats;
  Stats.push_back(Shared);
  Stats.push_back(Shared);
  CompilationUnit Unit;
  Unit.Root = Comp.trees().makeBlock(
      SourceLoc(), std::move(Stats),
      Comp.trees().makeLiteral(SourceLoc(), Constant::makeInt(0),
                               Comp.types().intType()));
  return Unit;
}

TEST(DagFusion, SharedSubtreeIsTransformedAtEachOccurrence) {
  CompilerContext Comp;
  BumpLiterals Bump;
  FusedBlock Blk({&Bump});
  CompilationUnit Unit = sharedLiteralUnit(Comp, 10);
  Blk.runOnUnit(Unit, Comp);
  // Both occurrences of the shared literal plus the block's own result.
  EXPECT_EQ(Bump.Hits, 3);
  auto *Root = cast<Block>(Unit.Root.get());
  // Values agree but the nodes were rebuilt independently.
  EXPECT_EQ(cast<Literal>(Root->stat(0))->value().intValue(), 11);
  EXPECT_EQ(cast<Literal>(Root->stat(1))->value().intValue(), 11);
  EXPECT_NE(Root->stat(0), Root->stat(1));
}

} // namespace
