#include "ast/TreeUtils.h"

using namespace mpc;

uint64_t mpc::countNodes(Tree *T) {
  if (!T)
    return 0;
  uint64_t N = 1;
  for (const TreePtr &K : T->kids())
    N += countNodes(K.get());
  return N;
}

unsigned mpc::treeDepth(Tree *T) {
  if (!T)
    return 0;
  unsigned Max = 0;
  for (const TreePtr &K : T->kids()) {
    unsigned D = treeDepth(K.get());
    if (D > Max)
      Max = D;
  }
  return Max + 1;
}

uint64_t mpc::countKind(Tree *T, TreeKind K) {
  if (!T)
    return 0;
  uint64_t N = T->kind() == K ? 1 : 0;
  for (const TreePtr &Kid : T->kids())
    N += countKind(Kid.get(), K);
  return N;
}

Tree *mpc::findFirst(Tree *T, TreeKind K) {
  if (!T)
    return nullptr;
  if (T->kind() == K)
    return T;
  for (const TreePtr &Kid : T->kids())
    if (Tree *Found = findFirst(Kid.get(), K))
      return Found;
  return nullptr;
}

void mpc::collectKind(Tree *T, TreeKind K, std::vector<Tree *> &Out) {
  if (!T)
    return;
  if (T->kind() == K)
    Out.push_back(T);
  for (const TreePtr &Kid : T->kids())
    collectKind(Kid.get(), K, Out);
}

/// Compares the non-child payload of two same-kind nodes.
static bool payloadEquals(const Tree *A, const Tree *B) {
  switch (A->kind()) {
  case TreeKind::Ident:
    return cast<Ident>(A)->sym() == cast<Ident>(B)->sym();
  case TreeKind::Select:
    return cast<Select>(A)->sym() == cast<Select>(B)->sym();
  case TreeKind::This:
    return cast<This>(A)->cls() == cast<This>(B)->cls();
  case TreeKind::Super:
    return cast<Super>(A)->fromClass() == cast<Super>(B)->fromClass() &&
           cast<Super>(A)->target() == cast<Super>(B)->target();
  case TreeKind::Literal:
    return cast<Literal>(A)->value() == cast<Literal>(B)->value();
  case TreeKind::TypeApply:
    return cast<TypeApply>(A)->typeArgs() == cast<TypeApply>(B)->typeArgs();
  case TreeKind::New:
    return cast<New>(A)->classTy() == cast<New>(B)->classTy();
  case TreeKind::Bind:
    return cast<Bind>(A)->sym() == cast<Bind>(B)->sym();
  case TreeKind::UnApply:
    return cast<UnApply>(A)->caseClass() == cast<UnApply>(B)->caseClass();
  case TreeKind::Return:
    return cast<Return>(A)->fromMethod() == cast<Return>(B)->fromMethod();
  case TreeKind::Labeled:
    return cast<Labeled>(A)->label() == cast<Labeled>(B)->label();
  case TreeKind::Goto:
    return cast<Goto>(A)->label() == cast<Goto>(B)->label();
  case TreeKind::SeqLiteral:
    return cast<SeqLiteral>(A)->elemType() == cast<SeqLiteral>(B)->elemType();
  case TreeKind::ValDef:
    return cast<ValDef>(A)->sym() == cast<ValDef>(B)->sym();
  case TreeKind::DefDef:
    return cast<DefDef>(A)->sym() == cast<DefDef>(B)->sym() &&
           cast<DefDef>(A)->paramListSizes() ==
               cast<DefDef>(B)->paramListSizes();
  case TreeKind::ClassDef:
    return cast<ClassDef>(A)->sym() == cast<ClassDef>(B)->sym();
  case TreeKind::PackageDef:
    return cast<PackageDef>(A)->pkgName() == cast<PackageDef>(B)->pkgName();
  default:
    return true;
  }
}

bool mpc::treeEquals(const Tree *A, const Tree *B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  if (A->kind() != B->kind() || A->type() != B->type())
    return false;
  if (!payloadEquals(A, B))
    return false;
  if (A->numKids() != B->numKids())
    return false;
  for (unsigned I = 0; I < A->numKids(); ++I)
    if (!treeEquals(A->kid(I), B->kid(I)))
      return false;
  return true;
}
