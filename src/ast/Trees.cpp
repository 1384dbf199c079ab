#include "ast/Trees.h"

#include <new>

using namespace mpc;

const char *mpc::treeKindName(TreeKind K) {
  switch (K) {
#define TREE_KIND(Name)                                                        \
  case TreeKind::Name:                                                         \
    return #Name;
#include "ast/TreeKinds.def"
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Allocation / destruction
//===----------------------------------------------------------------------===//

template <typename NodeT, typename... Args>
GcRef<NodeT> TreeContext::allocate(size_t ExtraBytes, Args &&...CtorArgs) {
  // The managed-heap charge approximates a JVM node: the object itself plus
  // its child-list cells (ExtraBytes = 8 per child, mirroring cons cells).
  // The real storage behind the charge is sizeof(NodeT) from the slab
  // backend; spilled child arrays are separate raw slab blocks.
  size_t Charge = sizeof(NodeT) + ExtraBytes;
  uint64_t Birth = 0;
  void *Mem = Heap.allocate(sizeof(NodeT), Charge, Birth);
  auto *Node = new (Mem) NodeT(*this, std::forward<Args>(CtorArgs)...);
  Node->Birth = Birth;
  Node->AllocSize = static_cast<uint32_t>(Charge);
  ++NumCreated;
  if (Cache)
    Cache->store(reinterpret_cast<uint64_t>(Node), sizeof(NodeT));
  return GcRef<NodeT>(Node);
}

void TreeContext::destroy(Tree *T) {
  uint64_t Birth = T->Birth;
  uint32_t Charge = T->AllocSize;
  size_t NodeBytes = 0;
  switch (T->kind()) {
#define TREE_KIND(Name)                                                        \
  case TreeKind::Name:                                                         \
    NodeBytes = sizeof(Name);                                                  \
    static_cast<Name *>(T)->~Name();                                           \
    break;
#include "ast/TreeKinds.def"
  }
  Heap.deallocate(T, NodeBytes, Charge, Birth);
}

//===----------------------------------------------------------------------===//
// Factory methods
//===----------------------------------------------------------------------===//

GcRef<Ident> TreeContext::makeIdent(SourceLoc L, Symbol *Sym, const Type *Ty) {
  assert(Sym && "Ident requires a symbol");
  return allocate<Ident>(0, L, Ty, Sym);
}

GcRef<Select> TreeContext::makeSelect(SourceLoc L, TreePtr Qual, Symbol *Sym,
                                      const Type *Ty) {
  assert(Qual && "Select requires a qualifier");
  assert(Sym && "Select requires a symbol");
  return allocate<Select>(8, L, Ty, KidSpan(&Qual, 1), Sym);
}

GcRef<This> TreeContext::makeThis(SourceLoc L, ClassSymbol *Cls,
                                  const Type *Ty) {
  return allocate<This>(0, L, Ty, Cls);
}

GcRef<Super> TreeContext::makeSuper(SourceLoc L, ClassSymbol *FromCls,
                                    ClassSymbol *Target, const Type *Ty) {
  return allocate<Super>(0, L, Ty, FromCls, Target);
}

GcRef<Literal> TreeContext::makeLiteral(SourceLoc L, Constant V,
                                        const Type *Ty) {
  return allocate<Literal>(0, L, Ty, V);
}

GcRef<Apply> TreeContext::makeApply(SourceLoc L, TreePtr Fun, TreeList Args,
                                    const Type *Ty) {
  assert(Fun && "Apply requires a function");
  TreeList Ks;
  Ks.reserve(Args.size() + 1);
  Ks.push_back(std::move(Fun));
  for (TreePtr &A : Args) {
    assert(A && "Apply argument must be non-null");
    Ks.push_back(std::move(A));
  }
  return allocate<Apply>(8 * Ks.size(), L, Ty, KidSpan(Ks));
}

GcRef<Apply> TreeContext::makeApply(SourceLoc L, TreePtr *FunAndArgs,
                                    size_t NumKids, const Type *Ty) {
  assert(NumKids >= 1 && FunAndArgs[0] && "Apply requires a function");
#ifndef NDEBUG
  for (size_t I = 1; I < NumKids; ++I)
    assert(FunAndArgs[I] && "Apply argument must be non-null");
#endif
  return allocate<Apply>(8 * NumKids, L, Ty, KidSpan(FunAndArgs, NumKids));
}

GcRef<TypeApply> TreeContext::makeTypeApply(SourceLoc L, TreePtr Fun,
                                            std::vector<const Type *> TArgs,
                                            const Type *Ty) {
  assert(Fun && "TypeApply requires a function");
  return allocate<TypeApply>(8, L, Ty, KidSpan(&Fun, 1), std::move(TArgs));
}

GcRef<New> TreeContext::makeNew(SourceLoc L, const Type *ClsTy,
                                TreeList Args) {
  assert(ClsTy && "New requires a class type");
  return allocate<New>(8 * Args.size(), L, ClsTy, ClsTy, KidSpan(Args));
}

GcRef<New> TreeContext::makeNew(SourceLoc L, const Type *ClsTy, TreePtr *Args,
                                size_t NumArgs) {
  assert(ClsTy && "New requires a class type");
  return allocate<New>(8 * NumArgs, L, ClsTy, ClsTy, KidSpan(Args, NumArgs));
}

GcRef<Typed> TreeContext::makeTyped(SourceLoc L, TreePtr Expr,
                                    const Type *TargetTy) {
  assert(Expr && "Typed requires an expression");
  return allocate<Typed>(8, L, TargetTy, KidSpan(&Expr, 1));
}

GcRef<Assign> TreeContext::makeAssign(SourceLoc L, TreePtr Lhs, TreePtr Rhs,
                                      const Type *UnitTy) {
  TreePtr Ks[2] = {std::move(Lhs), std::move(Rhs)};
  return allocate<Assign>(16, L, UnitTy, KidSpan(Ks, 2));
}

GcRef<Block> TreeContext::makeBlock(SourceLoc L, TreeList Stats,
                                    TreePtr Expr) {
  assert(Expr && "Block requires a result expression");
  const Type *Ty = Expr->type();
  TreeList Ks = std::move(Stats);
  Ks.push_back(std::move(Expr));
  return allocate<Block>(8 * Ks.size(), L, Ty, KidSpan(Ks));
}

GcRef<If> TreeContext::makeIf(SourceLoc L, TreePtr Cond, TreePtr Then,
                              TreePtr Else, const Type *Ty) {
  assert(Cond && Then && Else && "If requires all three children");
  TreePtr Ks[3] = {std::move(Cond), std::move(Then), std::move(Else)};
  return allocate<If>(24, L, Ty, KidSpan(Ks, 3));
}

GcRef<Closure> TreeContext::makeClosure(SourceLoc L, TreeList Params,
                                        TreePtr Body, const Type *Ty) {
  assert(Body && "Closure requires a body");
  TreeList Ks = std::move(Params);
  Ks.push_back(std::move(Body));
  return allocate<Closure>(8 * Ks.size(), L, Ty, KidSpan(Ks));
}

GcRef<Match> TreeContext::makeMatch(SourceLoc L, TreePtr Sel, TreeList Cases,
                                    const Type *Ty) {
  assert(Sel && "Match requires a selector");
  TreeList Ks;
  Ks.reserve(Cases.size() + 1);
  Ks.push_back(std::move(Sel));
  for (TreePtr &C : Cases)
    Ks.push_back(std::move(C));
  return allocate<Match>(8 * Ks.size(), L, Ty, KidSpan(Ks));
}

GcRef<CaseDef> TreeContext::makeCaseDef(SourceLoc L, TreePtr Pat,
                                        TreePtr Guard, TreePtr Body) {
  assert(Pat && Body && "CaseDef requires pattern and body");
  const Type *Ty = Body->type();
  TreePtr Ks[3] = {std::move(Pat), std::move(Guard) /* nullable slot */,
                   std::move(Body)};
  return allocate<CaseDef>(24, L, Ty, KidSpan(Ks, 3));
}

GcRef<Bind> TreeContext::makeBind(SourceLoc L, Symbol *Sym, TreePtr Pat) {
  assert(Sym && Pat && "Bind requires symbol and pattern");
  return allocate<Bind>(8, L, Sym->info(), Sym, KidSpan(&Pat, 1));
}

GcRef<Alternative> TreeContext::makeAlternative(SourceLoc L, TreeList Pats,
                                                const Type *Ty) {
  return allocate<Alternative>(8 * Pats.size(), L, Ty, KidSpan(Pats));
}

GcRef<UnApply> TreeContext::makeUnApply(SourceLoc L, ClassSymbol *Cls,
                                        TreeList Pats, const Type *Ty) {
  assert(Cls && "UnApply requires a case class");
  return allocate<UnApply>(8 * Pats.size(), L, Ty, Cls, KidSpan(Pats));
}

GcRef<Try> TreeContext::makeTry(SourceLoc L, TreePtr Body, TreeList Catches,
                                TreePtr Finalizer, const Type *Ty) {
  assert(Body && "Try requires a body");
  TreeList Ks;
  Ks.reserve(Catches.size() + 2);
  Ks.push_back(std::move(Body));
  Ks.push_back(std::move(Finalizer)); // nullable slot
  for (TreePtr &C : Catches)
    Ks.push_back(std::move(C));
  return allocate<Try>(8 * Ks.size(), L, Ty, KidSpan(Ks));
}

GcRef<Throw> TreeContext::makeThrow(SourceLoc L, TreePtr Expr,
                                    const Type *NothingTy) {
  assert(Expr && "Throw requires an expression");
  return allocate<Throw>(8, L, NothingTy, KidSpan(&Expr, 1));
}

GcRef<Return> TreeContext::makeReturn(SourceLoc L, TreePtr Expr,
                                      Symbol *FromMethod,
                                      const Type *NothingTy) {
  // Nullable slot.
  return allocate<Return>(8, L, NothingTy, FromMethod, KidSpan(&Expr, 1));
}

GcRef<WhileDo> TreeContext::makeWhileDo(SourceLoc L, TreePtr Cond,
                                        TreePtr Body, const Type *UnitTy) {
  assert(Cond && Body && "WhileDo requires condition and body");
  TreePtr Ks[2] = {std::move(Cond), std::move(Body)};
  return allocate<WhileDo>(16, L, UnitTy, KidSpan(Ks, 2));
}

GcRef<Labeled> TreeContext::makeLabeled(SourceLoc L, Symbol *Label,
                                        TreePtr Body, const Type *Ty) {
  assert(Label && Body && "Labeled requires label and body");
  return allocate<Labeled>(8, L, Ty, Label, KidSpan(&Body, 1));
}

GcRef<Goto> TreeContext::makeGoto(SourceLoc L, Symbol *Label,
                                  const Type *NothingTy) {
  assert(Label && "Goto requires a label");
  return allocate<Goto>(0, L, NothingTy, Label);
}

GcRef<SeqLiteral> TreeContext::makeSeqLiteral(SourceLoc L, TreeList Elems,
                                              const Type *ElemTy,
                                              const Type *Ty) {
  return allocate<SeqLiteral>(8 * Elems.size(), L, Ty, ElemTy,
                              KidSpan(Elems));
}

GcRef<SeqLiteral> TreeContext::makeSeqLiteral(SourceLoc L, TreePtr *Elems,
                                              size_t NumElems,
                                              const Type *ElemTy,
                                              const Type *Ty) {
  return allocate<SeqLiteral>(8 * NumElems, L, Ty, ElemTy,
                              KidSpan(Elems, NumElems));
}

GcRef<ValDef> TreeContext::makeValDef(SourceLoc L, Symbol *Sym, TreePtr Rhs) {
  assert(Sym && "ValDef requires a symbol");
  // Nullable slot.
  return allocate<ValDef>(8, L, nullptr, Sym, KidSpan(&Rhs, 1));
}

GcRef<DefDef> TreeContext::makeDefDef(SourceLoc L, Symbol *Sym,
                                      std::vector<uint32_t> ParamListSizes,
                                      TreeList Params, TreePtr Rhs) {
  assert(Sym && "DefDef requires a symbol");
#ifndef NDEBUG
  size_t Total = 0;
  for (uint32_t S : ParamListSizes)
    Total += S;
  assert(Total == Params.size() && "param list sizes inconsistent");
#endif
  TreeList Ks = std::move(Params);
  Ks.push_back(std::move(Rhs)); // nullable slot
  return allocate<DefDef>(8 * Ks.size(), L, nullptr, Sym,
                          std::move(ParamListSizes), KidSpan(Ks));
}

GcRef<ClassDef> TreeContext::makeClassDef(SourceLoc L, ClassSymbol *Sym,
                                          TreeList Body) {
  assert(Sym && "ClassDef requires a class symbol");
  return allocate<ClassDef>(8 * Body.size(), L, nullptr, Sym, KidSpan(Body));
}

GcRef<PackageDef> TreeContext::makePackageDef(SourceLoc L, Name PkgName,
                                              TreeList Stats) {
  return allocate<PackageDef>(8 * Stats.size(), L, nullptr, PkgName,
                              KidSpan(Stats));
}

//===----------------------------------------------------------------------===//
// withNewChildren — the copier with the reuse optimization.
//===----------------------------------------------------------------------===//

TreePtr TreeContext::withNewChildren(Tree *T, TreePtr *NewKids, size_t N) {
  assert(T && "withNewChildren on null tree");
  assert(N == T->numKids() && "withNewChildren must preserve arity");

  bool AllSame = true;
  for (size_t I = 0; I < N; ++I) {
    if (NewKids[I].get() != T->kid(static_cast<unsigned>(I))) {
      AllSame = false;
      break;
    }
  }
  if (AllSame) {
    ++NumReused;
    return TreePtr(T);
  }
  return withNewChildrenForced(T, NewKids, N);
}

TreePtr TreeContext::withNewChildren(Tree *T, TreeList NewKids) {
  return withNewChildren(T, NewKids.data(), NewKids.size());
}

TreePtr TreeContext::withNewChildrenForced(Tree *T, TreePtr *NewKids,
                                           size_t N) {
  assert(T && "withNewChildren on null tree");
  assert(N == T->numKids() && "withNewChildren must preserve arity");
  ++NumRebuilt;
  return rebuildNode(T, KidSpan(NewKids, N), T->type());
}

TreePtr TreeContext::withNewChildrenForced(Tree *T, TreeList NewKids) {
  return withNewChildrenForced(T, NewKids.data(), NewKids.size());
}

TreePtr TreeContext::withNewChildrenAndType(Tree *T, TreePtr *NewKids,
                                            size_t N, const Type *Ty) {
  assert(T && "withNewChildrenAndType on null tree");
  assert(N == T->numKids() && "withNewChildrenAndType must preserve arity");
  ++NumRebuilt;
  return rebuildNode(T, KidSpan(NewKids, N), Ty);
}

TreePtr TreeContext::withType(Tree *T, const Type *NewTy) {
  assert(T && "withType on null tree");
  if (T->type() == NewTy) {
    ++NumTypeReused;
    return TreePtr(T);
  }
  // Share the child refs with the original node directly — the rebuild
  // retains each once into the new node's storage, with no intermediate
  // list copy.
  ++NumTypeShared;
  return rebuildNode(T, KidSpan::share(T->kids().data(), T->numKids()),
                     NewTy);
}

TreePtr TreeContext::rebuildNode(Tree *T, KidSpan NewKids, const Type *Ty) {
  SourceLoc L = T->loc();
  size_t N = NewKids.size();
  switch (T->kind()) {
  case TreeKind::Ident:
    return allocate<Ident>(0, L, Ty, cast<Ident>(T)->sym());
  case TreeKind::This:
    return allocate<This>(0, L, Ty, cast<This>(T)->cls());
  case TreeKind::Super:
    return allocate<Super>(0, L, Ty, cast<Super>(T)->fromClass(),
                           cast<Super>(T)->target());
  case TreeKind::Literal:
    return allocate<Literal>(0, L, Ty, cast<Literal>(T)->value());
  case TreeKind::Goto:
    return allocate<Goto>(0, L, Ty, cast<Goto>(T)->label());
  case TreeKind::Select:
    return allocate<Select>(8, L, Ty, NewKids, cast<Select>(T)->sym());
  case TreeKind::Apply:
    return allocate<Apply>(8 * N, L, Ty, NewKids);
  case TreeKind::TypeApply:
    return allocate<TypeApply>(8, L, Ty, NewKids,
                               cast<TypeApply>(T)->typeArgs());
  case TreeKind::New:
    return allocate<New>(8 * N, L, Ty, cast<New>(T)->classTy(), NewKids);
  case TreeKind::Typed:
    return allocate<Typed>(8, L, Ty, NewKids);
  case TreeKind::Assign:
    return allocate<Assign>(16, L, Ty, NewKids);
  case TreeKind::Block:
    return allocate<Block>(8 * N, L, Ty, NewKids);
  case TreeKind::If:
    return allocate<If>(24, L, Ty, NewKids);
  case TreeKind::Closure:
    return allocate<Closure>(8 * N, L, Ty, NewKids);
  case TreeKind::Match:
    return allocate<Match>(8 * N, L, Ty, NewKids);
  case TreeKind::CaseDef:
    return allocate<CaseDef>(24, L, Ty, NewKids);
  case TreeKind::Bind:
    return allocate<Bind>(8, L, Ty, cast<Bind>(T)->sym(), NewKids);
  case TreeKind::Alternative:
    return allocate<Alternative>(8 * N, L, Ty, NewKids);
  case TreeKind::UnApply:
    return allocate<UnApply>(8 * N, L, Ty, cast<UnApply>(T)->caseClass(),
                             NewKids);
  case TreeKind::Try:
    return allocate<Try>(8 * N, L, Ty, NewKids);
  case TreeKind::Throw:
    return allocate<Throw>(8, L, Ty, NewKids);
  case TreeKind::Return:
    return allocate<Return>(8, L, Ty, cast<Return>(T)->fromMethod(),
                            NewKids);
  case TreeKind::WhileDo:
    return allocate<WhileDo>(16, L, Ty, NewKids);
  case TreeKind::Labeled:
    return allocate<Labeled>(8, L, Ty, cast<Labeled>(T)->label(), NewKids);
  case TreeKind::SeqLiteral:
    return allocate<SeqLiteral>(8 * N, L, Ty,
                                cast<SeqLiteral>(T)->elemType(), NewKids);
  case TreeKind::ValDef:
    return allocate<ValDef>(8, L, Ty, cast<ValDef>(T)->sym(), NewKids);
  case TreeKind::DefDef:
    return allocate<DefDef>(8 * N, L, Ty, cast<DefDef>(T)->sym(),
                            cast<DefDef>(T)->paramListSizes(), NewKids);
  case TreeKind::ClassDef:
    return allocate<ClassDef>(8 * N, L, Ty, cast<ClassDef>(T)->sym(),
                              NewKids);
  case TreeKind::PackageDef:
    return allocate<PackageDef>(8 * N, L, Ty, cast<PackageDef>(T)->pkgName(),
                                NewKids);
  }
  assert(false && "unhandled tree kind in rebuildNode");
  return TreePtr(T);
}
