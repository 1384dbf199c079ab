//===----------------------------------------------------------------------===//
///
/// \file
/// The Erasure megaphase (paper §6.2.2). Erases generics, unions,
/// intersections, function and by-name types to the runtime model. It
/// modifies the types of many trees and mutates the global symbol table,
/// which is why it cannot be fused with other phases: it violates fusion
/// rule 2 (later phases could not handle half-erased trees) and rule 3
/// (it assumes Splitter finished the entire compilation unit). It stays
/// one whole-tree walk of its own, so it is written to cost what it
/// changes:
///
///   * copy-on-change — every node kind, Select, Apply, New, SeqLiteral
///     and TypeApply included, is returned by pointer when its erased
///     children, erased type and erased payload types (class type,
///     element type, type arguments) equal the originals; only erased
///     nodes and their ancestors are rebuilt. The Typed casts that make a
///     refined static type explicit are inserted exactly as before, around
///     the kept node when it is kept;
///   * stack-shaped child scratch — the erased children of a node go into
///     one per-unit buffer (as in FusedBlock::walk) and are moved straight
///     into a rebuilt node, so no list is allocated per visited node;
///   * a per-run type memo — TypeContext hash-conses every type, so the
///     erased form of a type is cached by address in a FlatPtrMap shared
///     by the symbol-info rewrite and the tree walk. The static eraseType
///     stays the uncached reference function.
///
//===----------------------------------------------------------------------===//

#include "transforms/Phases.h"

#include "ast/TreeUtils.h"

using namespace mpc;

ErasurePhase::ErasurePhase()
    : Phase("Erasure", "rewrites types to the runtime model, erasing type "
                       "parameters, unions and refinements") {
  addRunsAfterGroupsOf("Splitter");
  addRunsAfterGroupsOf("ElimByName");
}

/// Nearest common class ancestor for erased unions.
static ClassSymbol *commonAncestor(ClassSymbol *A, ClassSymbol *B) {
  if (!A || !B)
    return nullptr;
  if (B->derivesFrom(A))
    return A;
  std::vector<ClassSymbol *> Ancestors;
  A->collectAncestors(Ancestors);
  ClassSymbol *Best = nullptr;
  for (ClassSymbol *Anc : Ancestors) {
    if (!B->derivesFrom(Anc))
      continue;
    if (!Best || Anc->derivesFrom(Best))
      Best = Anc;
  }
  return Best;
}

const Type *ErasurePhase::eraseType(const Type *T, CompilerContext &Comp) {
  if (!T)
    return nullptr;
  TypeContext &Types = Comp.types();
  switch (T->kind()) {
  case TypeKind::Primitive:
    return T;
  case TypeKind::Class: {
    const auto *CT = cast<ClassType>(T);
    if (CT->args().empty())
      return T;
    return Types.classType(CT->cls());
  }
  case TypeKind::Array:
    return Types.arrayType(eraseType(cast<ArrayType>(T)->elem(), Comp));
  case TypeKind::Method: {
    const auto *MT = cast<MethodType>(T);
    std::vector<const Type *> Params;
    for (const Type *P : MT->params())
      Params.push_back(eraseType(P, Comp));
    return Types.methodType(std::move(Params),
                            eraseType(MT->result(), Comp));
  }
  case TypeKind::Poly:
    return eraseType(cast<PolyType>(T)->underlying(), Comp);
  case TypeKind::Function: {
    const auto *FT = cast<FunctionType>(T);
    unsigned Arity = static_cast<unsigned>(FT->params().size());
    return Types.classType(Comp.syms().functionClass(Arity));
  }
  case TypeKind::Expr:
    return Types.classType(Comp.syms().functionClass(0));
  case TypeKind::Repeated:
    return Types.arrayType(
        eraseType(cast<RepeatedType>(T)->elem(), Comp));
  case TypeKind::Union: {
    const auto *UT = cast<UnionType>(T);
    const Type *L = eraseType(UT->left(), Comp);
    const Type *R = eraseType(UT->right(), Comp);
    if (L == R)
      return L;
    if (L->isNothing())
      return R;
    if (R->isNothing())
      return L;
    ClassSymbol *Join = commonAncestor(L->classSymbol(), R->classSymbol());
    if (Join)
      return Types.classType(Join);
    return Comp.syms().objectType();
  }
  case TypeKind::Intersection:
    return eraseType(cast<IntersectionType>(T)->left(), Comp);
  case TypeKind::TypeParam:
    return Comp.syms().objectType();
  case TypeKind::Error:
    // Never reached in a clean run: the driver stops before transforms
    // when the frontend reported errors. Kept total for safety.
    return T;
  }
  return T;
}

const Type *ErasurePhase::erased(const Type *T, CompilerContext &Comp) {
  if (!T)
    return nullptr;
  // Primitives and unparameterized classes, most node types, erase to
  // themselves without a memo probe.
  if (T->kind() == TypeKind::Primitive ||
      (T->kind() == TypeKind::Class && cast<ClassType>(T)->args().empty()))
    return T;
  if (const Type **Hit = ErasedTypes.find(T))
    return *Hit;
  const Type *E = eraseType(T, Comp);
  ErasedTypes.insert(T, E);
  return E;
}

void ErasurePhase::eraseSymbolInfos(CompilerContext &Comp) {
  for (const auto &Owned : Comp.syms().allSymbols()) {
    Symbol *S = Owned.get();
    if (S->is(SymFlag::TypeParam))
      continue;
    if (const Type *Info = S->info())
      S->setInfo(erased(Info, Comp));
  }
}

TreePtr ErasurePhase::eraseTree(Tree *T, CompilerContext &Comp,
                                std::vector<TreePtr> &KidScratch,
                                bool IsStoreTarget) {
  TreeContext &Trees = Comp.trees();

  // Erase children first (postorder, like any other phase) into the
  // stack-shaped scratch; slots are indexed from Base because recursion
  // may grow (and reallocate) the buffer.
  unsigned N = T->numKids();
  size_t Base = KidScratch.size();
  bool KidsChanged = false;
  bool IsAssign = T->kind() == TreeKind::Assign;
  for (unsigned I = 0; I < N; ++I) {
    Tree *Kid = T->kid(I);
    TreePtr NK =
        Kid ? eraseTree(Kid, Comp, KidScratch, IsAssign && I == 0) : TreePtr();
    if (NK.get() != Kid)
      KidsChanged = true;
    KidScratch.push_back(std::move(NK));
  }
  TreePtr *Kids = KidScratch.data() + Base;
  const Type *ErasedTy = erased(T->type(), Comp);

  // Each case returns T itself when the node it would build has T's
  // children, type and payload.
  TreePtr Out = [&]() -> TreePtr {
    switch (T->kind()) {
    case TreeKind::TypeApply: {
      // Generic applications erase to their function; the isInstanceOf /
      // asInstanceOf intrinsics keep their (erased) type argument.
      auto *TA = cast<TypeApply>(T);
      Symbol *Sym = nullptr;
      if (const auto *Sel = dyn_cast<Select>(TA->fun()))
        Sym = Sel->sym();
      bool IsTest = Sym == Comp.syms().isInstanceOfMethod() ||
                    Sym == Comp.syms().asInstanceOfMethod() ||
                    Sym == Comp.syms().newArrayMethod();
      if (!IsTest)
        return std::move(Kids[0]);
      std::vector<const Type *> Args;
      Args.reserve(TA->typeArgs().size());
      bool Changed = KidsChanged || ErasedTy != T->type();
      for (const Type *A : TA->typeArgs()) {
        Args.push_back(erased(A, Comp));
        Changed |= Args.back() != A;
      }
      if (!Changed)
        return TreePtr(T);
      return Trees.makeTypeApply(T->loc(), std::move(Kids[0]),
                                 std::move(Args), ErasedTy);
    }
    case TreeKind::New: {
      const Type *OldCls = cast<New>(T)->classTy();
      const Type *ClsTy = erased(OldCls, Comp);
      if (!KidsChanged && ClsTy == OldCls && ClsTy == T->type())
        return TreePtr(T);
      return Trees.makeNew(T->loc(), ClsTy, Kids, N);
    }
    case TreeKind::SeqLiteral: {
      const Type *OldElem = cast<SeqLiteral>(T)->elemType();
      const Type *Elem = erased(OldElem, Comp);
      const Type *ArrTy = Comp.types().arrayType(Elem);
      if (!KidsChanged && Elem == OldElem && ArrTy == T->type())
        return TreePtr(T);
      return Trees.makeSeqLiteral(T->loc(), Kids, N, Elem, ArrTy);
    }
    case TreeKind::Apply: {
      // The value has the erased result type of the (erased) function;
      // when the statically known type was more precise, insert a cast.
      const auto *MT = dyn_cast_or_null<MethodType>(Kids[0]->type());
      const Type *ResultTy = MT ? MT->result() : ErasedTy;
      TreePtr Node = !KidsChanged && ResultTy == T->type()
                         ? TreePtr(T)
                         : TreePtr(Trees.makeApply(T->loc(), Kids, N,
                                                   ResultTy));
      if (ResultTy != ErasedTy && ErasedTy &&
          !Comp.types().isSubtype(ResultTy, ErasedTy))
        Node = Trees.makeTyped(T->loc(), std::move(Node), ErasedTy);
      return Node;
    }
    case TreeKind::Select: {
      Symbol *Sym = cast<Select>(T)->sym();
      const Type *OldTy = T->type();
      bool IsValuePos = OldTy && !isa<MethodType>(OldTy) &&
                        !isa<PolyType>(OldTy);
      // Field read: the value has the erased declared type, cast if the
      // static type was more precise (a store target is a location, not
      // a value, and stays uncast). Method position: the erased
      // signature recorded on the node.
      bool IsFieldRead = IsValuePos && Sym && Sym->info() &&
                         !isa<MethodType>(Sym->info());
      const Type *NodeTy = IsFieldRead ? Sym->info() : ErasedTy;
      TreePtr Node = !KidsChanged && NodeTy == OldTy
                         ? TreePtr(T)
                         : TreePtr(Trees.makeSelect(
                               T->loc(), std::move(Kids[0]), Sym, NodeTy));
      if (IsFieldRead && !IsStoreTarget && NodeTy != ErasedTy && ErasedTy &&
          !Comp.types().isSubtype(NodeTy, ErasedTy))
        Node = Trees.makeTyped(T->loc(), std::move(Node), ErasedTy);
      return Node;
    }
    default:
      if (KidsChanged)
        return Trees.withNewChildrenAndType(T, Kids, N, ErasedTy);
      if (ErasedTy == T->type())
        return TreePtr(T);
      return Trees.withType(T, ErasedTy);
    }
  }();
  KidScratch.resize(Base);
  return Out;
}

void ErasurePhase::runOnUnit(CompilationUnit &Unit, CompilerContext &Comp) {
  // Global symbol-table rewrite happens once per pipeline run — the global
  // mutation that makes Erasure unfusable (rule 3).
  if (!SymbolsErased) {
    eraseSymbolInfos(Comp);
    SymbolsErased = true;
  }
  // The scratch is local so an unwind mid-walk releases the refs it holds
  // while their context is still alive.
  std::vector<TreePtr> KidScratch;
  Unit.Root = eraseTree(Unit.Root.get(), Comp, KidScratch,
                        /*IsStoreTarget=*/false);
}

/// True when \p T contains no pre-erasure type forms.
static bool typeIsErased(const Type *T) {
  if (!T)
    return true;
  switch (T->kind()) {
  case TypeKind::Primitive:
    return true;
  case TypeKind::Class:
    return cast<ClassType>(T)->args().empty();
  case TypeKind::Array:
    return typeIsErased(cast<ArrayType>(T)->elem());
  case TypeKind::Method: {
    const auto *MT = cast<MethodType>(T);
    for (const Type *P : MT->params())
      if (!typeIsErased(P))
        return false;
    return typeIsErased(MT->result());
  }
  default:
    return false;
  }
}

bool ErasurePhase::checkPostCondition(const Tree *T,
                                      CompilerContext &Comp) const {
  (void)Comp;
  if (!typeIsErased(T->type()))
    return false;
  if (const auto *VD = dyn_cast<ValDef>(T))
    return typeIsErased(VD->sym()->info());
  if (const auto *DD = dyn_cast<DefDef>(T))
    return typeIsErased(DD->sym()->info());
  return true;
}
