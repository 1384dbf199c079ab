//===----------------------------------------------------------------------===//
// Golden lowering test: pins the exact output of the transformation
// pipeline and the code generator, so a rewrite of a phase (or of the
// traversal machinery under it) that claims to change nothing but speed
// can prove it.
//
// For each input — stdlibProfile(0.05), dottyProfile(0.04), one program
// per valid ProgramGenerator family and a hand-written generic program —
// and each pipeline (fused, unfused, legacy), two 128-bit Fingerprint
// constants are pinned:
//
//   * Dumps: every unit's tree printed with ShowTypes + ShowSymbolIds
//     after every phase group, folded in group order and unit order;
//   * Bytecode: a canonical text rendering of the generated Program
//     (classes, fields, methods, every instruction operand, handlers).
//
// The constants were recorded with this test on commit d1a53ca, before
// the copy-on-change Erasure rewrite and the pruned CapturedVars /
// LambdaLift pre-walks touched any source file. A mismatch prints the
// actual values; re-recording is only legitimate for a change that is
// meant to alter the lowered output.
//===----------------------------------------------------------------------===//

#include "ast/TreePrinter.h"
#include "driver/Driver.h"
#include "frontend/Frontend.h"
#include "support/Fingerprint.h"
#include "transforms/StandardPlan.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

using namespace mpc;

namespace {

struct GoldenInput {
  const char *Name;
  std::vector<SourceInput> (*Make)();
};

std::vector<SourceInput> stdlibInput() {
  return generateWorkload(stdlibProfile(0.05));
}
std::vector<SourceInput> dottyInput() {
  return generateWorkload(dottyProfile(0.04));
}
template <Family F> std::vector<SourceInput> familyInput() {
  return generateFamily(F, /*Seed=*/1, /*Scale=*/1.0);
}
/// The generated inputs make Erasure insert no cast; this one makes it
/// cast generic field reads, generic method results and function values.
std::vector<SourceInput> genericsInput() {
  return {{"generics.scala", R"(
class Cell[T](init: T) {
  var item: T = init
  def get(): T = item
  def set(x: T): Unit = { item = x }
}
case class Pair[A, B](first: A, second: B)
trait Shape { def area(): Int }
class Sq(side: Int) extends Shape { def area(): Int = side * side }
object Main {
  def id[A](x: A): A = x
  def twice[A](f: (A) => A, x: A): A = f(f(x))
  def firstOf[A, B](p: Pair[A, B]): A = p.first
  def main(args: Array[String]): Unit = {
    val c = new Cell[Int](3)
    c.set(c.get() + c.item)
    println(c.item + 1)
    val s = new Cell[String]("a")
    s.set(s.get() + "b")
    println(s.item)
    println(id[Int](41) + 1)
    println(twice[Int]((n: Int) => n * 3, 2))
    val p = Pair[Int, String](7, "x")
    println(firstOf[Int, String](p) + 1)
    println(p.second + "y")
    val sh = new Cell[Shape](new Sq(4))
    println(sh.get().area())
    val any: Any = c.get()
    if (any.isInstanceOf[Int]) println(any.asInstanceOf[Int] + 2)
  }
}
)"}};
}

const GoldenInput Inputs[] = {
    {"stdlib", stdlibInput},
    {"dotty", dottyInput},
    {"mixed", familyInput<Family::Mixed>},
    {"deep_inheritance", familyInput<Family::DeepInheritance>},
    {"closure_heavy", familyInput<Family::ClosureHeavy>},
    {"mega_methods", familyInput<Family::MegaMethods>},
    {"many_tiny_units", familyInput<Family::ManyTinyUnits>},
    {"generics", genericsInput},
};

struct GoldenPipeline {
  const char *Name;
  PipelineKind Kind;
};

const GoldenPipeline Pipelines[] = {
    {"fused", PipelineKind::StandardFused},
    {"unfused", PipelineKind::StandardUnfused},
    {"legacy", PipelineKind::Legacy},
};

/// Pinned values, indexed [input][pipeline]: {dumps, bytecode} hex.
struct GoldenPair {
  const char *Dumps;
  const char *Bytecode;
};

const GoldenPair Golden[std::size(Inputs)][std::size(Pipelines)] = {
    // stdlib
    {
     {"8089648523dcd972834fc377924f45a6",
      "92e934c9118a2afa2378427f4045f5c4"},
     {"d93f14e8bac3ffff5ab68cf1dae533c3",
      "39218937d7e480ec5319e29380d401f8"},
     {"d93f14e8bac3ffff5ab68cf1dae533c3",
      "39218937d7e480ec5319e29380d401f8"}},
    // dotty
    {
     {"5554059500ab067d54769f423f8ae62b",
      "1a4c763515241ab610e2d54fb3aa87f8"},
     {"59d3c721c057f1bd0c819de79d80ce6e",
      "dcdcf6c71b8fac5984e19a1893ca87d4"},
     {"59d3c721c057f1bd0c819de79d80ce6e",
      "dcdcf6c71b8fac5984e19a1893ca87d4"}},
    // mixed
    {
     {"1bf2d0ea3305986f436562fa6d877adc",
      "11573a4607898cf282215aee72ef2836"},
     {"253b2cc01829146d67c0e048beb16444",
      "b81b42b4fa76b17ee1b6e633a4267a8b"},
     {"253b2cc01829146d67c0e048beb16444",
      "b81b42b4fa76b17ee1b6e633a4267a8b"}},
    // deep_inheritance
    {
     {"c4bc628a74ca0a9dec108ee2e62c6c19",
      "562208a740c02676b0bfdf1a0849de8b"},
     {"eeb5b0807a4b8b41e19707737224d000",
      "562208a740c02676b0bfdf1a0849de8b"},
     {"eeb5b0807a4b8b41e19707737224d000",
      "562208a740c02676b0bfdf1a0849de8b"}},
    // closure_heavy
    {
     {"311dde068ba00f62e3829dac5150c352",
      "9c367eae7ae9e6ec7e81898f9cd0e1b7"},
     {"da888c472a6f65e199a503a7ffc15702",
      "9c367eae7ae9e6ec7e81898f9cd0e1b7"},
     {"da888c472a6f65e199a503a7ffc15702",
      "9c367eae7ae9e6ec7e81898f9cd0e1b7"}},
    // mega_methods
    {
     {"2252c8d27e73e236c4f20911f8a7d6f1",
      "a0f7d081dcec8d3713d6a43005a4a391"},
     {"56dc3193da8c2963d8eba20867e733c8",
      "a0f7d081dcec8d3713d6a43005a4a391"},
     {"56dc3193da8c2963d8eba20867e733c8",
      "a0f7d081dcec8d3713d6a43005a4a391"}},
    // many_tiny_units
    {
     {"d3644e2345d2b7a019e1dc262174ddbb",
      "5cbc910885720ea163e9c04c97597a3e"},
     {"f5dbd29e13f6f95fcf9752ce07ca7421",
      "5cbc910885720ea163e9c04c97597a3e"},
     {"f5dbd29e13f6f95fcf9752ce07ca7421",
      "5cbc910885720ea163e9c04c97597a3e"}},
    // generics
    {
     {"9e8bbc9469f6f03610a66d7ab7a1ba35",
      "13e712443a80d5a4a6002183993d96d7"},
     {"7661b5a532e2e267c8f027805317716e",
      "13e712443a80d5a4a6002183993d96d7"},
     {"7661b5a532e2e267c8f027805317716e",
      "13e712443a80d5a4a6002183993d96d7"}},
};

/// Folds every unit's post-group dump into \p Acc.
void foldDumps(const std::vector<CompilationUnit> &Units, Fingerprint &Acc) {
  PrintOptions PO;
  PO.ShowTypes = true;
  PO.ShowSymbolIds = true;
  for (const CompilationUnit &U : Units)
    Acc = fingerprintString(treeToString(U.Root.get(), PO), Acc);
}

/// Runs the frontend and \p Kind's plan group by group, exactly as
/// TransformPipeline::run does, fingerprinting the trees after each group.
Fingerprint lowerAndFingerprintDumps(std::vector<SourceInput> Sources,
                                     PipelineKind Kind) {
  CompilerContext Comp;
  bool Fuse = Kind == PipelineKind::StandardFused;
  Comp.options().FuseMiniphases = Fuse;
  Comp.options().AlwaysCopy = Kind == PipelineKind::Legacy;
  std::vector<std::string> Errors;
  PhasePlan Plan = makeStandardPlan(Fuse, Errors);
  EXPECT_TRUE(Errors.empty());

  std::vector<CompilationUnit> Units = runFrontEnd(Comp, std::move(Sources));
  EXPECT_FALSE(Comp.diags().hasErrors());
  Fingerprint Acc;
  foldDumps(Units, Acc);
  for (const PhaseGroup &G : Plan.groups()) {
    if (G.isFused()) {
      for (CompilationUnit &U : Units)
        G.Block->runOnUnit(U, Comp);
    } else {
      for (Phase *P : G.Members)
        for (CompilationUnit &U : Units)
          P->runOnUnit(U, Comp);
    }
    foldDumps(Units, Acc);
  }
  return Acc;
}

std::string symText(const Symbol *S) {
  if (!S)
    return "-";
  return S->fullName() + "#" + std::to_string(S->id());
}

std::string typeText(const Type *T) { return T ? T->show() : "-"; }

/// Canonical text of a generated program: every field of every
/// instruction and handler, symbols by full name and id.
std::string renderProgram(const Program &Prog) {
  std::string S;
  auto Line = [&S](const std::string &L) {
    S += L;
    S += '\n';
  };
  for (const ClassFile &C : Prog.Classes) {
    Line("class " + symText(C.Cls));
    for (const Symbol *F : C.Fields)
      Line(" field " + symText(F));
    for (const MethodCode &M : C.Methods) {
      std::string Head = " method " + symText(M.Method) + " locals " +
                         std::to_string(M.MaxLocals) + " params";
      for (const Symbol *P : M.Params)
        Head += " " + symText(P);
      Line(Head);
      for (const Instr &I : M.Code) {
        uint64_t NumBits;
        std::memcpy(&NumBits, &I.Num, sizeof NumBits);
        Line("  " + std::to_string(static_cast<unsigned>(I.Code)) + " " +
             std::to_string(I.Imm) + " " + std::to_string(NumBits) + " '" +
             I.Str + "' " + symText(I.Sym) + " " + typeText(I.TypeRef) +
             " " + symText(I.SuperCls) + " " + std::to_string(I.Target) +
             " " + std::to_string(I.ArgCount));
      }
      for (const Handler &H : M.Handlers)
        Line("  handler " + std::to_string(H.Start) + " " +
             std::to_string(H.End) + " " + std::to_string(H.Entry) + " " +
             typeText(H.CatchType) + " " + (H.IsFinally ? "finally" : ""));
    }
  }
  for (const Symbol *E : Prog.EntryPoints)
    Line("entry " + symText(E));
  return S;
}

/// Compiles with compileProgram and fingerprints the generated bytecode.
Fingerprint compileAndFingerprintBytecode(std::vector<SourceInput> Sources,
                                          PipelineKind Kind) {
  CompilerContext Comp;
  CompileOutput Out = compileProgram(Comp, std::move(Sources), Kind);
  EXPECT_FALSE(Comp.diags().hasErrors());
  EXPECT_TRUE(Out.PlanErrors.empty());
  EXPECT_FALSE(Out.Prog.Classes.empty());
  return fingerprintString(renderProgram(Out.Prog));
}

class LoweringGolden
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LoweringGolden, OutputMatchesPinnedFingerprints) {
  const auto &[In, Pl] = GetParam();
  const GoldenInput &Input = Inputs[In];
  const GoldenPipeline &Pipe = Pipelines[Pl];
  const GoldenPair &Want = Golden[In][Pl];

  std::string Dumps =
      lowerAndFingerprintDumps(Input.Make(), Pipe.Kind).hex();
  std::string Bytecode =
      compileAndFingerprintBytecode(Input.Make(), Pipe.Kind).hex();
  EXPECT_EQ(Dumps, Want.Dumps)
      << Input.Name << " @ " << Pipe.Name << ": post-group dumps changed";
  EXPECT_EQ(Bytecode, Want.Bytecode)
      << Input.Name << " @ " << Pipe.Name << ": bytecode changed";
}

INSTANTIATE_TEST_SUITE_P(
    AllInputs, LoweringGolden,
    ::testing::Combine(::testing::Range(0, int(std::size(Inputs))),
                       ::testing::Range(0, int(std::size(Pipelines)))),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &Info) {
      return std::string(Inputs[std::get<0>(Info.param)].Name) + "_" +
             Pipelines[std::get<1>(Info.param)].Name;
    });

} // namespace
