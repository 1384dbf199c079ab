//===----------------------------------------------------------------------===//
///
/// \file
/// Generic tree traversal and inspection helpers used by tests, checkers,
/// and phases that need local analyses (free variables, tail positions...).
///
//===----------------------------------------------------------------------===//

#ifndef MPC_AST_TREEUTILS_H
#define MPC_AST_TREEUTILS_H

#include "ast/Trees.h"

namespace mpc {

/// Calls \p Fn on every node of the subtree rooted at \p T (preorder,
/// including \p T itself). Null children are skipped.
template <typename FnT> void forEachSubtree(Tree *T, FnT &&Fn) {
  if (!T)
    return;
  Fn(T);
  for (const TreePtr &K : T->kids())
    forEachSubtree(K.get(), Fn);
}

/// Returns true if \p Pred holds for any node of the subtree.
template <typename PredT> bool anySubtree(Tree *T, PredT &&Pred) {
  if (!T)
    return false;
  if (Pred(T))
    return true;
  for (const TreePtr &K : T->kids())
    if (anySubtree(K.get(), Pred))
      return true;
  return false;
}

/// Number of nodes in the subtree (nulls not counted).
uint64_t countNodes(Tree *T);

/// Maximum depth of the subtree (a leaf has depth 1).
unsigned treeDepth(Tree *T);

/// Number of nodes of kind \p K in the subtree.
uint64_t countKind(Tree *T, TreeKind K);

/// First node of kind \p K in preorder, or null.
Tree *findFirst(Tree *T, TreeKind K);

/// Structural equality: same kinds, same payloads (symbols, constants,
/// types, names) and recursively equal children. Pointer-distinct trees
/// can compare equal.
bool treeEquals(const Tree *A, const Tree *B);

/// Collects every node of kind \p K in preorder.
void collectKind(Tree *T, TreeKind K, std::vector<Tree *> &Out);

} // namespace mpc

#endif // MPC_AST_TREEUTILS_H
