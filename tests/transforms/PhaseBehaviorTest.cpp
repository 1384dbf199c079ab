//===----------------------------------------------------------------------===//
// Per-phase behaviour tests: each miniphase's characteristic rewrite is
// checked on focused inputs by compiling a small program up to (and
// including) the phase's group and inspecting the lowered tree.
//===----------------------------------------------------------------------===//

#include "ast/TreeUtils.h"
#include "core/Pipeline.h"
#include "frontend/Frontend.h"
#include "transforms/StandardPlan.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

/// Compiles `Source` and runs groups until (including) the group holding
/// phase `UpTo`; returns the unit.
CompilationUnit lowerThrough(CompilerContext &Comp, const char *Source,
                             const std::string &UpTo) {
  std::vector<SourceInput> Sources;
  Sources.push_back({"t.scala", Source});
  std::vector<CompilationUnit> Units =
      runFrontEnd(Comp, std::move(Sources));
  EXPECT_FALSE(Comp.diags().hasErrors());

  std::vector<std::string> Errors;
  PhasePlan Plan = makeStandardPlan(true, Errors);
  EXPECT_TRUE(Errors.empty());
  for (const PhaseGroup &G : Plan.groups()) {
    if (G.isFused()) {
      for (CompilationUnit &U : Units)
        G.Block->runOnUnit(U, Comp);
    } else {
      for (Phase *P : G.Members)
        for (CompilationUnit &U : Units)
          P->runOnUnit(U, Comp);
    }
    for (Phase *P : G.Members)
      if (P->name() == UpTo)
        return std::move(Units[0]);
  }
  ADD_FAILURE() << "phase " << UpTo << " not found in plan";
  return std::move(Units[0]);
}

TEST(FirstTransform, MaterializesEmptyApplications) {
  // The paper's Listing 1 normalization: `def f = 1` used as `f`.
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def f: Int = 1
  def g(): Int = f + 1
}
)",
                                   "TailRec");
  // Every method-typed reference is now wrapped in an Apply; the DefDef
  // for f has an (empty) parameter list.
  std::vector<Tree *> Defs;
  collectKind(U.Root.get(), TreeKind::DefDef, Defs);
  for (Tree *D : Defs)
    EXPECT_FALSE(cast<DefDef>(D)->paramListSizes().empty());
}

TEST(Uncurry, FlattensParameterLists) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def add(a: Int)(b: Int): Int = a + b
  def use(): Int = add(1)(2)
}
)",
                                   "TailRec");
  std::vector<Tree *> Defs;
  collectKind(U.Root.get(), TreeKind::DefDef, Defs);
  for (Tree *D : Defs) {
    EXPECT_LE(cast<DefDef>(D)->paramListSizes().size(), 1u);
    // Signatures flattened too.
    const Type *Info = cast<DefDef>(D)->sym()->info();
    if (const auto *MT = dyn_cast<MethodType>(Info)) {
      EXPECT_FALSE(isa<MethodType>(MT->result()));
    }
  }
  // No nested method-typed Apply remains.
  forEachSubtree(U.Root.get(), [](Tree *T) {
    if (auto *A = dyn_cast<Apply>(T)) {
      if (auto *Inner = dyn_cast<Apply>(A->fun())) {
        EXPECT_FALSE(Inner->type() && isa<MethodType>(Inner->type()));
      }
    }
  });
}

TEST(ElimRepeated, PackagesVarargs) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def sum(xs: Int*): Int = xs.length
  def use(): Int = sum(1, 2, 3)
}
)",
                                   "TailRec");
  // Call site packages trailing args into one SeqLiteral.
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::SeqLiteral), 1u);
  Tree *Seq = findFirst(U.Root.get(), TreeKind::SeqLiteral);
  EXPECT_EQ(Seq->numKids(), 3u);
}

TEST(TailRec, RewritesSelfTailCallsToJumps) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def loop(n: Int, acc: Int): Int =
    if (n <= 0) acc else loop(n - 1, acc + n)
  def notTail(n: Int): Int =
    if (n <= 0) 0 else 1 + notTail(n - 1)
}
)",
                                   "TailRec");
  // `loop` got a Labeled/Goto; `notTail` must not.
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::Labeled), 1u);
  EXPECT_GE(countKind(U.Root.get(), TreeKind::Goto), 1u);
  std::vector<Tree *> Defs;
  collectKind(U.Root.get(), TreeKind::DefDef, Defs);
  for (Tree *D : Defs) {
    auto *DD = cast<DefDef>(D);
    if (DD->sym()->name().text() == "notTail") {
      EXPECT_EQ(countKind(DD, TreeKind::Goto), 0u);
    }
  }
}

TEST(LiftTry, LiftsOnlyExpressionPositionTries) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def statementPos(x: Int): Int =
    try x catch { case t: Throwable => 0 }
  def expressionPos(x: Int): Int =
    1 + (try x catch { case t: Throwable => 0 })
}
)",
                                   "TailRec");
  // Exactly one lifted method was synthesized (for the expression one).
  std::vector<Tree *> Defs;
  collectKind(U.Root.get(), TreeKind::DefDef, Defs);
  int Lifted = 0;
  for (Tree *D : Defs)
    if (cast<DefDef>(D)->sym()->name().text().find("liftedTree") !=
        std::string_view::npos)
      ++Lifted;
  EXPECT_EQ(Lifted, 1);
}

TEST(PatternMatcher, EliminatesAllMatchForms) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
case class P(a: Int, b: Int)
class C {
  def f(x: Any): Int = x match {
    case 1 | 2 => 100
    case P(a, b) if a < b => a
    case p @ P(a, _) => a
    case s: String => s.length
    case _ => 0
  }
}
)",
                                   "ExplicitOuter");
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::Match), 0u);
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::UnApply), 0u);
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::Alternative), 0u);
  // Lowered to conditionals with type tests.
  EXPECT_GE(countKind(U.Root.get(), TreeKind::If), 4u);
}

TEST(Getters, ValsBecomeAccessors) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  val x: Int = 5
  private val hidden: Int = 6
  var mutable: Int = 7
  def use(): Int = x + hidden + mutable
}
)",
                                   "ExplicitOuter");
  std::vector<Tree *> Defs;
  collectKind(U.Root.get(), TreeKind::DefDef, Defs);
  bool XIsGetter = false;
  for (Tree *D : Defs)
    if (cast<DefDef>(D)->sym()->name().text() == "x")
      XIsGetter = cast<DefDef>(D)->sym()->is(SymFlag::Accessor);
  EXPECT_TRUE(XIsGetter);
  // Private vals and vars stay fields.
  std::vector<Tree *> Vals;
  collectKind(U.Root.get(), TreeKind::ValDef, Vals);
  bool HiddenIsField = false, MutableIsField = false;
  for (Tree *V : Vals) {
    if (cast<ValDef>(V)->sym()->name().text() == "hidden")
      HiddenIsField = cast<ValDef>(V)->sym()->is(SymFlag::Field);
    if (cast<ValDef>(V)->sym()->name().text() == "mutable")
      MutableIsField = cast<ValDef>(V)->sym()->is(SymFlag::Field);
  }
  EXPECT_TRUE(HiddenIsField);
  EXPECT_TRUE(MutableIsField);
}

TEST(ErasureTest, NodeTypesAreErased) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
case class Box[T](value: T)
class C {
  def f(b: Box[Int], g: (Int) => Int): Int = g(b.value)
  def pick(c: Boolean, x: Box[Int], y: Box[Int]): Box[Int] =
    if (c) x else y
}
)",
                                   "Erasure");
  ErasurePhase Checker;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(Checker.checkPostCondition(T, Comp))
        << "unerased type survives: "
        << (T->type() ? T->type()->show() : "<none>");
  });
}

/// Lowers \p Source through the group before Erasure, then runs a fresh
/// Erasure on the unit. \p Before receives the pre-Erasure root, which
/// keeps the old tree alive (so node addresses stay unique) and
/// \p Created the number of nodes Erasure allocated.
CompilationUnit eraseFresh(CompilerContext &Comp, const char *Source,
                           TreePtr &Before, uint64_t &Created) {
  CompilationUnit U = lowerThrough(Comp, Source, "ExplicitOuter");
  Before = U.Root;
  uint64_t N0 = Comp.trees().nodesCreated();
  ErasurePhase Erasure;
  Erasure.runOnUnit(U, Comp);
  Created = Comp.trees().nodesCreated() - N0;
  return U;
}

/// True when \p Old and \p Out differ in their own type or payload types
/// (not counting children).
bool ownTypesDiffer(const Tree *Old, const Tree *Out) {
  if (Old->type() != Out->type())
    return true;
  if (const auto *N = dyn_cast<New>(Old))
    return N->classTy() != cast<New>(Out)->classTy();
  if (const auto *SL = dyn_cast<SeqLiteral>(Old))
    return SL->elemType() != cast<SeqLiteral>(Out)->elemType();
  if (const auto *TA = dyn_cast<TypeApply>(Old))
    return TA->typeArgs() != cast<TypeApply>(Out)->typeArgs();
  return false;
}

/// Walks the pre- and post-Erasure trees in parallel (unwrapping inserted
/// casts and erased type applications) and checks copy-on-change: a node
/// of the output is new only when its own types changed or one of its
/// children is new. Counts kept and rebuilt nodes.
void expectOnlyChangedSpinesRebuilt(Tree *Old, Tree *Out, unsigned &Kept,
                                    unsigned &Rebuilt) {
  if (!Old || !Out) {
    EXPECT_EQ(Old, Out);
    return;
  }
  if (isa<Typed>(Out) && !isa<Typed>(Old))
    Out = Out->kid(0); // cast inserted by Erasure
  if (isa<TypeApply>(Old) && !isa<TypeApply>(Out))
    Old = Old->kid(0); // generic application erased to its function
  ASSERT_EQ(Old->kind(), Out->kind());
  if (Old == Out) {
    ++Kept;
    return;
  }
  ++Rebuilt;
  ASSERT_EQ(Old->numKids(), Out->numKids());
  bool KidChanged = false;
  for (unsigned I = 0; I < Old->numKids(); ++I) {
    // An inserted cast or an erased type application also makes the
    // child pointer differ.
    if (Old->kid(I) != Out->kid(I))
      KidChanged = true;
    expectOnlyChangedSpinesRebuilt(Old->kid(I), Out->kid(I), Kept, Rebuilt);
  }
  EXPECT_TRUE(KidChanged || ownTypesDiffer(Old, Out))
      << "rebuilt an unchanged " << treeKindName(Old->kind());
}

/// Every program of the Generics family makes Erasure insert casts, so
/// the suites that draw from the valid families exercise cast insertion.
TEST(ErasureTest, GenericsFamilyMakesErasureInsertCasts) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    std::vector<SourceInput> Sources =
        generateFamily(Family::Generics, Seed, /*Scale=*/0.25);
    ASSERT_EQ(Sources.size(), 1u);
    CompilerContext Comp;
    TreePtr Before;
    uint64_t Created = 0;
    CompilationUnit U =
        eraseFresh(Comp, Sources[0].Text.c_str(), Before, Created);
    std::vector<Tree *> CastsBefore, CastsAfter;
    collectKind(Before.get(), TreeKind::Typed, CastsBefore);
    collectKind(U.Root.get(), TreeKind::Typed, CastsAfter);
    EXPECT_GT(CastsAfter.size(), CastsBefore.size()) << "seed " << Seed;
  }
}

TEST(ErasureTest, MonomorphicUnitIsReturnedUntouched) {
  CompilerContext Comp;
  TreePtr Before;
  uint64_t Created = 0;
  CompilationUnit U = eraseFresh(Comp, R"(
class Counter {
  var n: Int = 0
  def inc(by: Int): Int = { n = n + by; n }
  def twice(): Int = inc(1) + inc(2)
}
object Main {
  def main(args: Array[String]): Unit = {
    val c = new Counter()
    val xs = Array(1, 2, 3)
    println(c.twice() + xs.length)
  }
}
)",
                                 Before, Created);
  EXPECT_EQ(U.Root.get(), Before.get());
  EXPECT_EQ(Created, 0u);
}

TEST(ErasureTest, OnlyAncestorsOfErasedNodesAreRebuilt) {
  CompilerContext Comp;
  TreePtr Before;
  uint64_t Created = 0;
  CompilationUnit U = eraseFresh(Comp, R"(
class Cell[T](init: T) {
  var item: T = init
}
class C {
  def plain(a: Int, b: Int): Int = a * b + 1
  def get(c: Cell[Int]): Int = c.item + 1
  def pick(c: Boolean, x: Cell[Int], y: Cell[Int]): Cell[Int] =
    if (c) x else y
}
)",
                                 Before, Created);
  EXPECT_NE(U.Root.get(), Before.get());
  EXPECT_GT(Created, 0u);
  unsigned Kept = 0, Rebuilt = 0;
  expectOnlyChangedSpinesRebuilt(Before.get(), U.Root.get(), Kept, Rebuilt);
  EXPECT_GT(Kept, 0u);
  EXPECT_GT(Rebuilt, 0u);

  // The monomorphic method survives by pointer.
  auto FindPlain = [](Tree *Root) -> Tree * {
    std::vector<Tree *> Defs;
    collectKind(Root, TreeKind::DefDef, Defs);
    for (Tree *D : Defs)
      if (cast<DefDef>(D)->sym()->name().text() == "plain")
        return D;
    return nullptr;
  };
  ASSERT_NE(FindPlain(Before.get()), nullptr);
  EXPECT_EQ(FindPlain(Before.get()), FindPlain(U.Root.get()));

  // The generic field read keeps its cast back to the static type.
  bool SawCastFieldRead = false;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    if (auto *Ty = dyn_cast<Typed>(T))
      if (auto *Sel = dyn_cast<Select>(Ty->kid(0)))
        if (Sel->sym()->name().text() == "item" &&
            Ty->type() != Sel->type())
          SawCastFieldRead = true;
  });
  EXPECT_TRUE(SawCastFieldRead);

  ErasurePhase Checker;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(Checker.checkPostCondition(T, Comp))
        << "unerased type survives: "
        << (T->type() ? T->type()->show() : "<none>");
  });
}

TEST(LazyValsTest, ExpandsToFlagAndStorage) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  lazy val x: Int = 42
  def use(): Int = x
}
)",
                                   "ElimStaticThis");
  // The class gained the storage + flag fields.
  std::vector<Tree *> Vals;
  collectKind(U.Root.get(), TreeKind::ValDef, Vals);
  bool SawStorage = false, SawFlag = false;
  for (Tree *V : Vals) {
    auto Name = cast<ValDef>(V)->sym()->name().text();
    if (Name.find("$lzy") != std::string_view::npos)
      SawStorage = true;
    if (Name.find("$flag") != std::string_view::npos)
      SawFlag = true;
  }
  EXPECT_TRUE(SawStorage);
  EXPECT_TRUE(SawFlag);
  // No lazy accessor remains in classes.
  LazyValsPhase LV;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(LV.checkPostCondition(T, Comp));
  });
}

TEST(MixinTest, CopiesTraitMembersIntoClasses) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
trait T {
  def greet(): Int = 42
}
class C extends T
)",
                                   "ElimStaticThis");
  std::vector<Tree *> Classes;
  collectKind(U.Root.get(), TreeKind::ClassDef, Classes);
  bool CHasGreet = false;
  for (Tree *Cls : Classes) {
    auto *CD = cast<ClassDef>(Cls);
    if (CD->sym()->name().text() != "C")
      continue;
    for (const TreePtr &M : CD->kids())
      if (auto *DD = dyn_cast_or_null<DefDef>(M.get()))
        if (DD->sym()->name().text() == "greet" && DD->rhs())
          CHasGreet = true;
  }
  EXPECT_TRUE(CHasGreet);
}

TEST(ConstructorsTest, FieldInitializersMoveToInit) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C(a: Int) {
  val b: Int = a * 2
}
)",
                                   "ElimStaticThis");
  ConstructorsPhase CP;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(CP.checkPostCondition(T, Comp))
        << "field with initializer survived Constructors";
  });
}

TEST(FunctionValuesTest, ClosuresBecomeClasses) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def make(n: Int): (Int) => Int = (x: Int) => x + n
}
)",
                                   "ElimStaticThis");
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::Closure), 0u);
  // An anonfun class with an apply method appeared at top level.
  std::vector<Tree *> Classes;
  collectKind(U.Root.get(), TreeKind::ClassDef, Classes);
  bool SawAnon = false;
  for (Tree *Cls : Classes)
    if (cast<ClassDef>(Cls)->sym()->name().text().find("anonfun") !=
        std::string_view::npos)
      SawAnon = true;
  EXPECT_TRUE(SawAnon);
}

TEST(LambdaLiftTest, NoLocalMethodsRemainInBlocks) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def f(n: Int): Int = {
    val base = n + 1
    def helper(k: Int): Int = base + k
    helper(3)
  }
}
)",
                                   "RestoreScopes");
  LambdaLiftPhase LL;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(LL.checkPostCondition(T, Comp));
  });
  // No nested classes remain either (Flatten ran).
  FlattenPhase FP;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(FP.checkPostCondition(T, Comp));
  });
}

TEST(SplitterTest, NoUnionSelectionsAfterGroupB) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class A { def m(): Int = 1 }
class B { def m(): Int = 2 }
class C {
  def pick(f: Boolean, a: A, b: B): A | B = if (f) a else b
  def use(f: Boolean, a: A, b: B): Int = pick(f, a, b).m()
}
)",
                                   "ExplicitOuter");
  SplitterPhase SP;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(SP.checkPostCondition(T, Comp));
  });
}

TEST(WholePlan, AllPostconditionsHoldOnCleanPrograms) {
  // The full §6.3 discipline: after the complete pipeline, every phase's
  // postcondition holds on every subtree of a representative program.
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
trait Greeter { def hello(): Int = 1 }
case class Pair(a: Int, b: Int)
object Main extends Greeter {
  def swap(p: Pair): Pair = p match { case Pair(a, b) => Pair(b, a) }
  def main(args: Array[String]): Unit = println(swap(Pair(1, 2)))
}
)",
                                   "LabelDefs");
  std::vector<std::string> Errors;
  PhasePlan Plan = makeStandardPlan(true, Errors);
  for (Phase *P : Plan.phases()) {
    forEachSubtree(U.Root.get(), [&](Tree *T) {
      EXPECT_TRUE(P->checkPostCondition(T, Comp))
          << "postcondition of " << P->name() << " violated";
    });
  }
}

} // namespace
