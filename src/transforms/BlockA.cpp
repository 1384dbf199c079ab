//===----------------------------------------------------------------------===//
///
/// \file
/// Fusion block A: normalization phases (RefChecks, FirstTransform,
/// Uncurry, ElimRepeated, ClassOf, LiftTry, TailRec).
///
//===----------------------------------------------------------------------===//

#include "transforms/Phases.h"

#include "ast/TreeUtils.h"
#include "transforms/TransformUtils.h"


using namespace mpc;

//===----------------------------------------------------------------------===//
// RefChecks
//===----------------------------------------------------------------------===//

RefChecksPhase::RefChecksPhase()
    : MiniPhase("RefChecks",
                "checks related to abstract members and overriding") {
  declareTransforms({TreeKind::ClassDef});
}

TreePtr RefChecksPhase::transformClassDef(ClassDef *T, PhaseRunContext &Ctx) {
  ClassSymbol *Cls = T->sym();
  for (Symbol *M : Cls->members()) {
    // `override` requires a matching inherited member — and that member
    // must not be final.
    if (M->is(SymFlag::Override)) {
      bool Found = false;
      for (const Type *P : Cls->parents()) {
        ClassSymbol *PCls = P->classSymbol();
        if (!PCls)
          continue;
        if (Symbol *Inherited = PCls->findMember(M->name())) {
          Found = true;
          if (Inherited->is(SymFlag::Final))
            Ctx.Comp.diags().error(
                M->loc(), "member " + M->name().str() +
                              " overrides a final member of " +
                              PCls->name().str());
        }
      }
      if (!Found)
        Ctx.Comp.diags().error(M->loc(), "member " + M->name().str() +
                                             " overrides nothing");
    }
    // Vars are not allowed in traits (keeps Mixin simple; see DESIGN.md).
    if (Cls->isTrait() && M->is(SymFlag::Mutable))
      Ctx.Comp.diags().error(M->loc(), "traits may not declare vars");
  }
  // Concrete classes must implement inherited abstract members.
  if (!Cls->isTrait() && !Cls->is(SymFlag::Abstract)) {
    std::vector<ClassSymbol *> Ancestors;
    Cls->collectAncestors(Ancestors);
    for (ClassSymbol *Anc : Ancestors) {
      for (Symbol *M : Anc->members()) {
        if (!M->is(SymFlag::Abstract))
          continue;
        bool Implemented = false;
        if (Symbol *Impl = Cls->findMember(M->name()))
          Implemented = !Impl->is(SymFlag::Abstract);
        if (!Implemented)
          Ctx.Comp.diags().error(
              Cls->loc(), "class " + Cls->name().str() +
                              " must implement abstract member " +
                              M->name().str());
      }
    }
  }
  return TreePtr(T);
}

//===----------------------------------------------------------------------===//
// FirstTransform
//===----------------------------------------------------------------------===//

FirstTransformPhase::FirstTransformPhase()
    : MiniPhase("FirstTransform",
                "some transformations to put trees into a canonical form") {
  declareTransforms({TreeKind::Ident, TreeKind::Select, TreeKind::TypeApply,
                     TreeKind::DefDef, TreeKind::If});
}

/// True when \p T is a reference to a parameterless method used in value
/// position (node typed with the result, not the method type).
static bool isAutoApplied(const Tree *T, const Symbol *Sym) {
  if (!Sym || !Sym->isMethod() || Sym->is(SymFlag::Constructor))
    return false;
  const Type *Ty = T->type();
  return Ty && !isa<MethodType>(Ty) && !isa<PolyType>(Ty);
}

/// Wraps an auto-applied method reference in an explicit empty Apply.
static TreePtr wrapAutoApply(PhaseRunContext &Ctx, Tree *T) {
  const Type *ResultTy = T->type();
  const Type *MT = Ctx.types().methodType({}, ResultTy);
  TreePtr Fun = Ctx.trees().withType(T, MT);
  return Ctx.trees().makeApply(T->loc(), std::move(Fun), {}, ResultTy);
}

TreePtr FirstTransformPhase::transformIdent(Ident *T, PhaseRunContext &Ctx) {
  if (isAutoApplied(T, T->sym()))
    return wrapAutoApply(Ctx, T);
  return TreePtr(T);
}

TreePtr FirstTransformPhase::transformSelect(Select *T,
                                             PhaseRunContext &Ctx) {
  if (isAutoApplied(T, T->sym()))
    return wrapAutoApply(Ctx, T);
  return TreePtr(T);
}

TreePtr FirstTransformPhase::transformTypeApply(TypeApply *T,
                                                PhaseRunContext &Ctx) {
  // Auto-applied generic nullary (isInstanceOf, classOf...).
  const Type *Ty = T->type();
  if (Ty && !isa<MethodType>(Ty) && !isa<PolyType>(Ty))
    return wrapAutoApply(Ctx, T);
  return TreePtr(T);
}

TreePtr FirstTransformPhase::transformDefDef(DefDef *T,
                                             PhaseRunContext &Ctx) {
  // `def f = e` gets its empty parameter list (paper's Listing 1 example).
  if (!T->paramListSizes().empty())
    return TreePtr(T);
  TreeList Kids = T->kids();
  TreePtr Rhs = std::move(Kids.back());
  return Ctx.trees().makeDefDef(T->loc(), T->sym(), {0}, {},
                                std::move(Rhs));
}

TreePtr FirstTransformPhase::transformIf(If *T, PhaseRunContext &Ctx) {
  // Constant-condition folding (the transformation the paper describes as
  // buried inside scalac's refchecks, §2.1).
  (void)Ctx;
  const auto *Cond = dyn_cast<Literal>(T->cond());
  if (!Cond || Cond->value().kind() != Constant::Bool)
    return TreePtr(T);
  return TreePtr(Cond->value().boolValue() ? T->thenp() : T->elsep());
}

bool FirstTransformPhase::checkPostCondition(const Tree *T,
                                             CompilerContext &Comp) const {
  (void)Comp;
  // Every method definition has at least one parameter list.
  if (const auto *DD = dyn_cast<DefDef>(T))
    return !DD->paramListSizes().empty();
  return true;
}

//===----------------------------------------------------------------------===//
// Uncurry
//===----------------------------------------------------------------------===//

UncurryPhase::UncurryPhase()
    : MiniPhase("Uncurry", "flattens multiple parameter lists") {
  declareTransforms({TreeKind::DefDef, TreeKind::Apply});
  addRunsAfter("FirstTransform");
}

/// Flattens a curried method signature into one parameter list.
static const Type *flattenMethodType(TypeContext &Types, const Type *Info) {
  if (const auto *PT = dyn_cast<PolyType>(Info)) {
    const Type *Flat = flattenMethodType(Types, PT->underlying());
    return Types.polyType(PT->typeParams(), Flat);
  }
  const auto *MT = dyn_cast<MethodType>(Info);
  if (!MT || !isa<MethodType>(MT->result()))
    return Info;
  std::vector<const Type *> Params = MT->params();
  const Type *Walk = MT->result();
  while (const auto *Inner = dyn_cast<MethodType>(Walk)) {
    for (const Type *P : Inner->params())
      Params.push_back(P);
    Walk = Inner->result();
  }
  return Types.methodType(std::move(Params), Walk);
}

TreePtr UncurryPhase::transformDefDef(DefDef *T, PhaseRunContext &Ctx) {
  Symbol *Sym = T->sym();
  Sym->setInfo(flattenMethodType(Ctx.types(), Sym->info()));
  if (T->paramListSizes().size() <= 1)
    return TreePtr(T);
  uint32_t Total = 0;
  for (uint32_t S : T->paramListSizes())
    Total += S;
  TreeList Kids = T->kids();
  TreePtr Rhs = std::move(Kids.back());
  Kids.pop_back();
  return Ctx.trees().makeDefDef(T->loc(), Sym, {Total}, std::move(Kids),
                                std::move(Rhs));
}

TreePtr UncurryPhase::transformApply(Apply *T, PhaseRunContext &Ctx) {
  // Apply(Apply(f, as), bs) with a method-typed inner apply is a curried
  // call: merge into Apply(f, as ++ bs).
  auto *Inner = dyn_cast<Apply>(T->fun());
  if (!Inner || !Inner->type() || !isa<MethodType>(Inner->type()))
    return TreePtr(T);
  const auto *InnerMT = cast<MethodType>(Inner->type());
  const auto *InnerFunMT =
      dyn_cast_or_null<MethodType>(Inner->fun()->type());
  std::vector<const Type *> AllParams;
  if (InnerFunMT)
    AllParams = InnerFunMT->params();
  for (const Type *P : InnerMT->params())
    AllParams.push_back(P);
  const Type *MergedMT =
      Ctx.types().methodType(std::move(AllParams), InnerMT->result());
  TreePtr NewFun = Ctx.trees().withType(Inner->fun(), MergedMT);
  TreeList Args;
  for (unsigned I = 0; I < Inner->numArgs(); ++I)
    Args.push_back(TreePtr(Inner->arg(I)));
  for (unsigned I = 0; I < T->numArgs(); ++I)
    Args.push_back(TreePtr(T->arg(I)));
  return Ctx.trees().makeApply(T->loc(), std::move(NewFun), std::move(Args),
                               T->type());
}

bool UncurryPhase::checkPostCondition(const Tree *T,
                                      CompilerContext &Comp) const {
  (void)Comp;
  if (const auto *DD = dyn_cast<DefDef>(T))
    return DD->paramListSizes().size() <= 1;
  // No application whose function is itself a method-typed application.
  if (const auto *A = dyn_cast<Apply>(T)) {
    if (const auto *Inner = dyn_cast<Apply>(A->fun()))
      return !Inner->type() || !isa<MethodType>(Inner->type());
  }
  return true;
}

//===----------------------------------------------------------------------===//
// ElimRepeated
//===----------------------------------------------------------------------===//

ElimRepeatedPhase::ElimRepeatedPhase()
    : MiniPhase("ElimRepeated",
                "rewrites vararg parameters and arguments") {
  declareTransforms({TreeKind::DefDef, TreeKind::Apply});
  addRunsAfter("Uncurry");
}

TreePtr ElimRepeatedPhase::transformDefDef(DefDef *T, PhaseRunContext &Ctx) {
  TypeContext &Types = Ctx.types();
  Symbol *Sym = T->sym();
  // Rewrite the parameter symbol infos.
  for (unsigned I = 0; I < T->numParamsTotal(); ++I) {
    auto *PD = cast<ValDef>(T->paramAt(I));
    if (const auto *RT = dyn_cast_or_null<RepeatedType>(PD->sym()->info()))
      PD->sym()->setInfo(Types.arrayType(RT->elem()));
  }
  // Rewrite the method signature.
  const Type *Info = Sym->info();
  const PolyType *Poly = dyn_cast<PolyType>(Info);
  const auto *MT = cast<MethodType>(Poly ? Poly->underlying() : Info);
  if (MT->params().empty() || !isa<RepeatedType>(MT->params().back()))
    return TreePtr(T);
  std::vector<const Type *> Params = MT->params();
  Params.back() =
      Types.arrayType(cast<RepeatedType>(Params.back())->elem());
  const Type *NewMT = Types.methodType(std::move(Params), MT->result());
  Sym->setInfo(Poly ? Types.polyType(Poly->typeParams(), NewMT) : NewMT);
  return TreePtr(T);
}

TreePtr ElimRepeatedPhase::transformApply(Apply *T, PhaseRunContext &Ctx) {
  const auto *MT = dyn_cast_or_null<MethodType>(T->fun()->type());
  if (!MT || MT->params().empty() ||
      !isa<RepeatedType>(MT->params().back()))
    return TreePtr(T);
  TypeContext &Types = Ctx.types();
  const Type *Elem = cast<RepeatedType>(MT->params().back())->elem();
  size_t Fixed = MT->params().size() - 1;

  TreeList FixedArgs;
  TreeList VarArgs;
  for (unsigned I = 0; I < T->numArgs(); ++I) {
    if (I < Fixed)
      FixedArgs.push_back(TreePtr(T->arg(I)));
    else
      VarArgs.push_back(TreePtr(T->arg(I)));
  }
  TreePtr Packed = Ctx.trees().makeSeqLiteral(
      T->loc(), std::move(VarArgs), Elem, Types.arrayType(Elem));
  FixedArgs.push_back(std::move(Packed));

  std::vector<const Type *> Params = MT->params();
  Params.back() = Types.arrayType(Elem);
  TreePtr NewFun = Ctx.trees().withType(
      T->fun(), Types.methodType(std::move(Params), MT->result()));
  return Ctx.trees().makeApply(T->loc(), std::move(NewFun),
                               std::move(FixedArgs), T->type());
}

bool ElimRepeatedPhase::checkPostCondition(const Tree *T,
                                           CompilerContext &Comp) const {
  (void)Comp;
  if (const auto *DD = dyn_cast<DefDef>(T)) {
    for (unsigned I = 0; I < DD->numParamsTotal(); ++I) {
      const auto *PD = cast<ValDef>(DD->paramAt(I));
      if (PD->sym()->info() && isa<RepeatedType>(PD->sym()->info()))
        return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// ClassOf
//===----------------------------------------------------------------------===//

ClassOfPhase::ClassOfPhase()
    : MiniPhase("ClassOf", "expands Predef.classOf calls") {
  declareTransforms({TreeKind::Apply});
  addRunsAfter("FirstTransform");
}

TreePtr ClassOfPhase::transformApply(Apply *T, PhaseRunContext &Ctx) {
  const auto *TApp = dyn_cast<TypeApply>(T->fun());
  if (!TApp)
    return TreePtr(T);
  Symbol *Sym = nullptr;
  if (const auto *Sel = dyn_cast<Select>(TApp->fun()))
    Sym = Sel->sym();
  else if (const auto *Id = dyn_cast<Ident>(TApp->fun()))
    Sym = Id->sym();
  if (Sym != Ctx.syms().classOfMethod())
    return TreePtr(T);
  return Ctx.trees().makeLiteral(
      T->loc(), Constant::makeClazz(TApp->typeArgs()[0]), T->type());
}

//===----------------------------------------------------------------------===//
// LiftTry
//===----------------------------------------------------------------------===//

LiftTryPhase::LiftTryPhase()
    : MiniPhase("LiftTry", "puts try expressions that might execute on "
                           "non-empty stacks into their own methods") {
  declareTransforms({TreeKind::Try});
  declarePrepares({TreeKind::Apply, TreeKind::New, TreeKind::Assign,
                   TreeKind::Select, TreeKind::SeqLiteral, TreeKind::Throw,
                   TreeKind::DefDef, TreeKind::Closure});
}

void LiftTryPhase::prepareForUnit(PhaseRunContext &Ctx) {
  (void)Ctx;
  Frames.clear();
  Frames.push_back({nullptr, 0});
}

#define LIFTTRY_EXPR_CONTEXT(Kind)                                            \
  void LiftTryPhase::prepareFor##Kind(Kind *T, PhaseRunContext &Ctx) {        \
    (void)T;                                                                  \
    (void)Ctx;                                                                \
    if (!Frames.empty())                                                      \
      ++Frames.back().Depth;                                                  \
  }                                                                           \
  void LiftTryPhase::leave##Kind(Kind *T, PhaseRunContext &Ctx) {             \
    (void)T;                                                                  \
    (void)Ctx;                                                                \
    if (!Frames.empty())                                                      \
      --Frames.back().Depth;                                                  \
  }

LIFTTRY_EXPR_CONTEXT(Apply)
LIFTTRY_EXPR_CONTEXT(New)
LIFTTRY_EXPR_CONTEXT(Assign)
LIFTTRY_EXPR_CONTEXT(Select)
LIFTTRY_EXPR_CONTEXT(SeqLiteral)
LIFTTRY_EXPR_CONTEXT(Throw)
#undef LIFTTRY_EXPR_CONTEXT

void LiftTryPhase::prepareForDefDef(DefDef *T, PhaseRunContext &Ctx) {
  (void)Ctx;
  Frames.push_back({T->sym(), 0});
}
void LiftTryPhase::leaveDefDef(DefDef *T, PhaseRunContext &Ctx) {
  (void)T;
  (void)Ctx;
  Frames.pop_back();
}
void LiftTryPhase::prepareForClosure(Closure *T, PhaseRunContext &Ctx) {
  (void)T;
  (void)Ctx;
  // A closure body starts on an empty stack of its own.
  Frames.push_back({Frames.back().Method, 0});
}
void LiftTryPhase::leaveClosure(Closure *T, PhaseRunContext &Ctx) {
  (void)T;
  (void)Ctx;
  Frames.pop_back();
}

TreePtr LiftTryPhase::transformTry(Try *T, PhaseRunContext &Ctx) {
  if (Frames.empty() || Frames.back().Depth <= 0 || !Frames.back().Method)
    return TreePtr(T);
  // Lift: { def liftedTree$N(): T = <try>; liftedTree$N() }.
  TypeContext &Types = Ctx.types();
  const Type *Ty = T->type();
  Symbol *Lifted = Ctx.syms().makeTerm(
      Ctx.syms().freshName("liftedTree"), Frames.back().Method,
      SymFlag::Method | SymFlag::Local | SymFlag::Synthetic,
      Types.methodType({}, Ty));
  TreePtr Def =
      Ctx.trees().makeDefDef(T->loc(), Lifted, {0}, {}, TreePtr(T));
  TreePtr CallFun =
      Ctx.trees().makeIdent(T->loc(), Lifted, Lifted->info());
  TreePtr Call = Ctx.trees().makeApply(T->loc(), std::move(CallFun), {}, Ty);
  TreeList Stats;
  Stats.push_back(std::move(Def));
  return Ctx.trees().makeBlock(T->loc(), std::move(Stats), std::move(Call));
}

//===----------------------------------------------------------------------===//
// TailRec
//===----------------------------------------------------------------------===//

TailRecPhase::TailRecPhase()
    : MiniPhase("TailRec", "rewrites self-recursive tail calls to jumps") {
  declareTransforms({TreeKind::DefDef});
  addRunsAfter("Uncurry");
}

namespace {
/// Rewrites tail positions of a method body, replacing self tail calls by
/// parameter reassignment + Goto.
class TailCallRewriter {
public:
  TailCallRewriter(PhaseRunContext &Ctx, Symbol *Method,
                   std::vector<Symbol *> Params, Symbol *Label)
      : Ctx(Ctx), Method(Method), Params(std::move(Params)), Label(Label) {}

  bool Changed = false;

  TreePtr rewrite(Tree *T) {
    TreeContext &Trees = Ctx.trees();
    switch (T->kind()) {
    case TreeKind::Apply: {
      auto *A = cast<Apply>(T);
      if (!isSelfCall(A))
        return TreePtr(T);
      Changed = true;
      // Evaluate args into temps, then reassign params and jump.
      TreeList Stats;
      std::vector<Symbol *> Temps;
      for (unsigned I = 0; I < A->numArgs(); ++I) {
        Symbol *Tmp = Ctx.syms().makeTerm(
            Ctx.syms().freshName("tailArg"), Method,
            SymFlag::Local | SymFlag::Synthetic, Params[I]->info());
        Temps.push_back(Tmp);
        Stats.push_back(
            Trees.makeValDef(T->loc(), Tmp, TreePtr(A->arg(I))));
      }
      for (unsigned I = 0; I < A->numArgs(); ++I) {
        TreePtr Lhs =
            Trees.makeIdent(T->loc(), Params[I], Params[I]->info());
        TreePtr Rhs =
            Trees.makeIdent(T->loc(), Temps[I], Temps[I]->info());
        Stats.push_back(Trees.makeAssign(T->loc(), std::move(Lhs),
                                         std::move(Rhs),
                                         Ctx.types().unitType()));
      }
      TreePtr Jump = Trees.makeGoto(T->loc(), Label,
                                    Ctx.types().nothingType());
      return Trees.makeBlock(T->loc(), std::move(Stats), std::move(Jump));
    }
    case TreeKind::Block: {
      auto *B = cast<Block>(T);
      TreePtr NewExpr = rewrite(B->expr());
      if (NewExpr.get() == B->expr())
        return TreePtr(T);
      TreeList Kids = T->kids();
      Kids.back() = std::move(NewExpr);
      return Trees.withNewChildren(T, std::move(Kids));
    }
    case TreeKind::If: {
      auto *I = cast<If>(T);
      TreePtr NewThen = rewrite(I->thenp());
      TreePtr NewElse = rewrite(I->elsep());
      if (NewThen.get() == I->thenp() && NewElse.get() == I->elsep())
        return TreePtr(T);
      TreeList Kids = T->kids();
      Kids[1] = std::move(NewThen);
      Kids[2] = std::move(NewElse);
      return Trees.withNewChildren(T, std::move(Kids));
    }
    case TreeKind::Match: {
      auto *M = cast<Match>(T);
      TreeList Kids = T->kids();
      bool Any = false;
      for (unsigned I = 0; I < M->numCases(); ++I) {
        auto *C = cast<CaseDef>(M->caseAt(I));
        TreePtr NewBody = rewrite(C->body());
        if (NewBody.get() != C->body()) {
          Any = true;
          TreeList CKids = C->kids();
          CKids[2] = std::move(NewBody);
          Kids[1 + I] = Trees.withNewChildren(C, std::move(CKids));
        }
      }
      if (!Any)
        return TreePtr(T);
      return Trees.withNewChildren(T, std::move(Kids));
    }
    case TreeKind::Labeled: {
      auto *L = cast<Labeled>(T);
      TreePtr NewBody = rewrite(L->body());
      if (NewBody.get() == L->body())
        return TreePtr(T);
      TreeList Kids = T->kids();
      Kids[0] = std::move(NewBody);
      return Trees.withNewChildren(T, std::move(Kids));
    }
    default:
      return TreePtr(T);
    }
  }

private:
  bool isSelfCall(Apply *A) const {
    Symbol *Callee = nullptr;
    if (const auto *Sel = dyn_cast<Select>(A->fun())) {
      if (!isa<This>(Sel->qual()))
        return false;
      Callee = Sel->sym();
    } else if (const auto *Id = dyn_cast<Ident>(A->fun())) {
      Callee = Id->sym();
    }
    return Callee == Method && A->numArgs() == Params.size();
  }

  PhaseRunContext &Ctx;
  Symbol *Method;
  std::vector<Symbol *> Params;
  Symbol *Label;
};
} // namespace

TreePtr TailRecPhase::transformDefDef(DefDef *T, PhaseRunContext &Ctx) {
  if (!T->rhs() || T->sym()->is(SymFlag::Constructor))
    return TreePtr(T);
  std::vector<Symbol *> Params;
  for (unsigned I = 0; I < T->numParamsTotal(); ++I)
    Params.push_back(cast<ValDef>(T->paramAt(I))->sym());

  Symbol *Label = Ctx.syms().makeTerm(
      Ctx.syms().freshName("tailLabel"), T->sym(),
      SymFlag::Label | SymFlag::Synthetic);
  TailCallRewriter RW(Ctx, T->sym(), Params, Label);
  TreePtr NewBody = RW.rewrite(T->rhs());
  if (!RW.Changed)
    return TreePtr(T);
  ++NumRewritten;
  // Reassigned parameters become mutable.
  for (Symbol *P : Params)
    P->setFlag(SymFlag::Mutable);
  TreePtr Looped = Ctx.trees().makeLabeled(T->loc(), Label,
                                           std::move(NewBody),
                                           T->rhs()->type());
  TreeList Kids = T->kids();
  Kids.back() = std::move(Looped);
  return Ctx.trees().withNewChildren(T, std::move(Kids));
}
