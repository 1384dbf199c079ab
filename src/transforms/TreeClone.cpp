#include "transforms/TreeClone.h"

#include "ast/TreeUtils.h"

#include <set>

using namespace mpc;

namespace {
class Cloner {
public:
  Cloner(CompilerContext &Comp, SymbolMap &Subst, Symbol *NewOwner,
         ClassSymbol *ThisFrom, TreePtr ThisReplacement,
         const IdentMap *Idents)
      : Comp(Comp), Subst(Subst), NewOwner(NewOwner), ThisFrom(ThisFrom),
        ThisReplacement(std::move(ThisReplacement)), Idents(Idents) {}

  Symbol *mapSym(Symbol *S) {
    if (!S)
      return S;
    auto It = Subst.find(S);
    return It == Subst.end() ? S : It->second;
  }

  /// Fresh clone for a locally-defined symbol.
  Symbol *freshLocal(Symbol *S) {
    auto It = Subst.find(S);
    if (It != Subst.end())
      return It->second;
    Symbol *Clone = Comp.syms().makeTerm(
        S->name(), NewOwner ? NewOwner : S->owner(), S->flags(), S->info());
    Clone->setLoc(S->loc());
    Subst[S] = Clone;
    return Clone;
  }

  TreePtr clone(Tree *T) {
    if (!T)
      return nullptr;
    TreeContext &Trees = Comp.trees();
    SourceLoc L = T->loc();
    const Type *Ty = T->type();

    switch (T->kind()) {
    case TreeKind::Ident: {
      Symbol *S = cast<Ident>(T)->sym();
      if (Idents) {
        auto It = Idents->find(S);
        if (It != Idents->end())
          return It->second;
      }
      return Trees.makeIdent(L, mapSym(S), Ty);
    }
    case TreeKind::This: {
      auto *TN = cast<This>(T);
      if (ThisReplacement && TN->cls() == ThisFrom)
        return ThisReplacement;
      return TreePtr(T); // `this` of unrelated classes is shared as-is
    }
    case TreeKind::Literal:
    case TreeKind::Super:
      return TreePtr(T); // leaves without symbol payloads to remap
    case TreeKind::Goto:
      return Trees.makeGoto(L, mapSym(cast<Goto>(T)->label()), Ty);
    case TreeKind::Select: {
      auto *S = cast<Select>(T);
      return Trees.makeSelect(L, clone(S->qual()), mapSym(S->sym()), Ty);
    }
    case TreeKind::Bind: {
      auto *B = cast<Bind>(T);
      Symbol *Fresh = freshLocal(B->sym());
      TreePtr Pat = clone(B->pat());
      return Trees.makeBind(L, Fresh, std::move(Pat));
    }
    case TreeKind::Labeled: {
      auto *LB = cast<Labeled>(T);
      Symbol *Fresh = freshLocal(LB->label());
      return Trees.makeLabeled(L, Fresh, clone(LB->body()), Ty);
    }
    case TreeKind::Return: {
      // The return target is remapped if the enclosing method was cloned.
      auto *R = cast<Return>(T);
      return Trees.makeReturn(L, clone(R->expr()), mapSym(R->fromMethod()),
                              Ty);
    }
    case TreeKind::ValDef: {
      auto *VD = cast<ValDef>(T);
      Symbol *Fresh = freshLocal(VD->sym());
      return Trees.makeValDef(L, Fresh, clone(VD->rhs()));
    }
    case TreeKind::DefDef: {
      auto *DD = cast<DefDef>(T);
      Symbol *Fresh = freshLocal(DD->sym());
      TreeList Params;
      for (unsigned I = 0; I < DD->numParamsTotal(); ++I)
        Params.push_back(clone(DD->paramAt(I)));
      // Params of the cloned method belong to it.
      for (TreePtr &P : Params)
        if (P)
          cast<ValDef>(P.get())->sym()->setOwner(Fresh);
      return Trees.makeDefDef(L, Fresh, DD->paramListSizes(),
                              std::move(Params), clone(DD->rhs()));
    }
    case TreeKind::ClassDef:
      // Classes are not cloned structurally; share the subtree.
      return TreePtr(T);
    default: {
      // Generic: clone children, rebuild with the same payload.
      TreeList NewKids;
      NewKids.reserve(T->numKids());
      bool Changed = false;
      for (const TreePtr &K : T->kids()) {
        TreePtr NK = clone(K.get());
        if (NK.get() != K.get())
          Changed = true;
        NewKids.push_back(std::move(NK));
      }
      if (!Changed)
        return TreePtr(T);
      return Trees.withNewChildrenForced(T, std::move(NewKids));
    }
    }
  }

private:
  CompilerContext &Comp;
  SymbolMap &Subst;
  Symbol *NewOwner;
  ClassSymbol *ThisFrom;
  TreePtr ThisReplacement;
  const IdentMap *Idents;
};
} // namespace

TreePtr mpc::cloneTree(CompilerContext &Comp, Tree *T, SymbolMap &Subst,
                       Symbol *NewOwner, ClassSymbol *ThisFrom,
                       TreePtr ThisReplacement, const IdentMap *Idents) {
  Cloner C(Comp, Subst, NewOwner, ThisFrom, std::move(ThisReplacement),
           Idents);
  return C.clone(T);
}

namespace {
/// The reference scan of freeLocals: collects, in first-use order, the
/// local value symbols referenced in a subtree but not defined in it.
struct RefScan {
  const std::set<Symbol *> &Defined;
  std::set<Symbol *> Seen;
  std::vector<Symbol *> &Free;
  bool *UsesThis;

  void scan(Tree *Node) {
    Symbol *Ref = nullptr;
    if (auto *Id = dyn_cast<Ident>(Node))
      Ref = Id->sym();
    if (Ref && Ref->is(SymFlag::Local) && !Ref->isClass() &&
        !Ref->is(SymFlag::Field) && !Ref->is(SymFlag::Method) &&
        !Defined.count(Ref) && Seen.insert(Ref).second)
      Free.push_back(Ref);
    if (UsesThis && isa<This>(Node))
      *UsesThis = true;
    bool IsCase = isa<CaseDef>(Node);
    for (unsigned I = 0; I < Node->numKids(); ++I) {
      if (IsCase && I == 0)
        continue; // skip the pattern slot
      if (Tree *Kid = Node->kid(I))
        scan(Kid);
    }
  }
};
} // namespace

std::vector<Symbol *> mpc::freeLocals(Tree *T, bool *UsesThis) {
  std::vector<Symbol *> Free;
  std::set<Symbol *> Defined;
  if (UsesThis)
    *UsesThis = false;

  // First collect every symbol defined inside the subtree.
  forEachSubtree(T, [&](Tree *Node) {
    if (auto *VD = dyn_cast<ValDef>(Node))
      Defined.insert(VD->sym());
    else if (auto *DD = dyn_cast<DefDef>(Node))
      Defined.insert(DD->sym());
    else if (auto *B = dyn_cast<Bind>(Node))
      Defined.insert(B->sym());
    else if (auto *LB = dyn_cast<Labeled>(Node))
      Defined.insert(LB->label());
  });
  // Then find references to local symbols defined elsewhere. Identifiers
  // in pattern position (a CaseDef's pattern, e.g. wildcards in catch
  // handlers) are binders/placeholders, not references.
  if (T)
    RefScan{Defined, {}, Free, UsesThis}.scan(T);
  return Free;
}
