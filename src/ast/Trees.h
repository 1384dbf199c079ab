//===----------------------------------------------------------------------===//
///
/// \file
/// The tree intermediate representation (paper Listing 2, generalized).
///
/// Trees are immutable: phases never mutate a node, they build a new one via
/// TreeContext and the framework rebuilds the spine (withNewChildren). The
/// copier reuses the original node when no child changed — the paper's
/// "optimization avoids the copying in the (quite common) case where a
/// transform returns a tree with the same fields as its input".
///
/// Nodes are reference counted. Immutability rules out cycles, so counts
/// are exact; each node records its allocation-clock birth so the
/// ManagedHeap can attribute generational promotion (Figures 5/6).
///
/// Storage layout: every node keeps its children in one uniform TreeKids
/// (typed accessors map onto fixed slots). Up to TreeKids::InlineCap
/// children are stored inline in the node itself; only higher arities
/// spill to a single slab-backed array — so leaves and the common low-
/// arity nodes (Select, If, Assign, ...) cost zero allocations beyond the
/// node. Child lists are handed to constructors as a borrowed KidSpan and
/// moved (or, for withType, reference-shared) straight into the node,
/// which keeps the rebuild hot paths free of intermediate vectors. The
/// uniform layout lets traversal, rebuild, equality and printing logic be
/// generic over kinds while hooks still get fully typed node classes.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_AST_TREES_H
#define MPC_AST_TREES_H

#include "ast/Constant.h"
#include "ast/Symbols.h"
#include "ast/Types.h"
#include "memsim/CacheSim.h"
#include "memsim/ManagedHeap.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace mpc {

class Tree;
class TreeContext;

/// Kind discriminator generated from TreeKinds.def.
enum class TreeKind : uint8_t {
#define TREE_KIND(Name) Name,
#include "ast/TreeKinds.def"
};

/// Number of concrete tree kinds.
constexpr unsigned NumTreeKinds = 0
#define TREE_KIND(Name) +1
#include "ast/TreeKinds.def"
    ;
static_assert(NumTreeKinds <= 32, "KindSet uses a 32-bit mask");

/// Printable kind name.
const char *treeKindName(TreeKind K);

/// A small set of tree kinds (used for phase transform/prepare masks).
class KindSet {
public:
  constexpr KindSet() : Bits(0) {}
  constexpr KindSet(std::initializer_list<TreeKind> Kinds) : Bits(0) {
    for (TreeKind K : Kinds)
      Bits |= bit(K);
  }
  static constexpr KindSet all() {
    KindSet S;
    S.Bits = (NumTreeKinds == 32) ? ~0u : ((1u << NumTreeKinds) - 1);
    return S;
  }
  bool contains(TreeKind K) const { return (Bits & bit(K)) != 0; }
  void insert(TreeKind K) { Bits |= bit(K); }
  bool empty() const { return Bits == 0; }
  constexpr uint32_t bits() const { return Bits; }

private:
  static constexpr uint32_t bit(TreeKind K) {
    return 1u << static_cast<unsigned>(K);
  }
  uint32_t Bits;
};

/// Intrusive reference-counted pointer to a Tree (or subclass).
template <typename T> class GcRef {
public:
  GcRef() : Ptr(nullptr) {}
  GcRef(std::nullptr_t) : Ptr(nullptr) {}
  GcRef(T *P) : Ptr(P) { retain(); }
  GcRef(const GcRef &O) : Ptr(O.Ptr) { retain(); }
  GcRef(GcRef &&O) noexcept : Ptr(O.Ptr) { O.Ptr = nullptr; }
  /// Upcast conversion (e.g. GcRef<Apply> -> GcRef<Tree>).
  template <typename U>
    requires std::is_convertible_v<U *, T *>
  GcRef(const GcRef<U> &O) : Ptr(O.get()) {
    retain();
  }
  ~GcRef() { release(); }

  GcRef &operator=(const GcRef &O) {
    if (this != &O) {
      GcRef Tmp(O);
      std::swap(Ptr, Tmp.Ptr);
    }
    return *this;
  }
  GcRef &operator=(GcRef &&O) noexcept {
    std::swap(Ptr, O.Ptr);
    return *this;
  }

  T *get() const { return Ptr; }
  T *operator->() const {
    assert(Ptr && "dereferencing null GcRef");
    return Ptr;
  }
  T &operator*() const {
    assert(Ptr && "dereferencing null GcRef");
    return *Ptr;
  }
  explicit operator bool() const { return Ptr != nullptr; }
  bool operator==(const GcRef &O) const { return Ptr == O.Ptr; }
  bool operator!=(const GcRef &O) const { return Ptr != O.Ptr; }
  bool operator==(const T *P) const { return Ptr == P; }

private:
  void retain() const;
  void release();
  T *Ptr;
};

using TreePtr = GcRef<Tree>;
using TreeList = std::vector<TreePtr>;

/// A borrowed view of the children handed to a node constructor, consumed
/// exactly once by the Tree base constructor. By default the referenced
/// slots are moved from (the caller's storage — a factory-local TreeList,
/// a stack array, or the fusion engine's scratch buffer — is left holding
/// nulls). share() instead copy-retains the slots, which is how withType
/// shares its children with the original node without an intermediate
/// list copy.
class KidSpan {
public:
  KidSpan() = default;
  KidSpan(TreeList &L)
      : Ptr(L.data()), N(static_cast<uint32_t>(L.size())) {}
  KidSpan(TreePtr *P, size_t Count)
      : Ptr(P), N(static_cast<uint32_t>(Count)) {}
  /// Copy-retaining view (source slots are left untouched).
  static KidSpan share(const TreePtr *P, size_t Count) {
    KidSpan S;
    S.Ptr = const_cast<TreePtr *>(P);
    S.N = static_cast<uint32_t>(Count);
    S.Move = false;
    return S;
  }
  size_t size() const { return N; }

private:
  friend class TreeKids;
  TreePtr *Ptr = nullptr;
  uint32_t N = 0;
  bool Move = true;
};

/// Inline-first child storage. Up to InlineCap children live directly in
/// the node; higher arities spill to a single contiguous array obtained
/// from the ManagedHeap's slab backend (never charged to the simulated
/// allocation clock — the child cells are already folded into the owning
/// node's charge). The spill block embeds its heap so destruction needs
/// no context. Immutable after construction, like the node that owns it.
class TreeKids {
public:
  /// Children stored inline before spilling (covers leaves and the
  /// 1–3-ary kinds, the overwhelming majority of nodes).
  static constexpr unsigned InlineCap = 3;

  TreeKids(KidSpan Src, ManagedHeap &Heap) : Num(Src.N) {
    TreePtr *Dst = Inline;
    if (Num > InlineCap) {
      void *Raw = Heap.rawAllocate(spillBytes(Num));
      *static_cast<ManagedHeap **>(Raw) = &Heap;
      Spill = reinterpret_cast<TreePtr *>(static_cast<char *>(Raw) +
                                          SpillHdrBytes);
      Dst = Spill;
    }
    for (uint32_t I = 0; I < Num; ++I) {
      if (Dst == Spill) {
        if (Src.Move)
          new (Dst + I) TreePtr(std::move(Src.Ptr[I]));
        else
          new (Dst + I) TreePtr(Src.Ptr[I]);
      } else {
        if (Src.Move)
          Dst[I] = std::move(Src.Ptr[I]);
        else
          Dst[I] = Src.Ptr[I];
      }
    }
  }
  TreeKids(const TreeKids &) = delete;
  TreeKids &operator=(const TreeKids &) = delete;
  ~TreeKids() {
    if (!Spill)
      return; // inline refs released by the member array's destructor
    for (uint32_t I = 0; I < Num; ++I)
      std::destroy_at(Spill + I);
    void *Raw = reinterpret_cast<char *>(Spill) - SpillHdrBytes;
    ManagedHeap *Heap = *static_cast<ManagedHeap **>(Raw);
    Heap->rawDeallocate(Raw, spillBytes(Num));
  }

  size_t size() const { return Num; }
  bool empty() const { return Num == 0; }
  const TreePtr *data() const { return Spill ? Spill : Inline; }
  const TreePtr *begin() const { return data(); }
  const TreePtr *end() const { return data() + Num; }
  const TreePtr &operator[](size_t I) const {
    assert(I < Num && "child index out of range");
    return data()[I];
  }
  /// True when the children live in a spilled array (exposed for the
  /// children-storage tests).
  bool spilled() const { return Spill != nullptr; }

  /// Copies out to a plain list (compatibility with transform code that
  /// edits a child list before rebuilding).
  operator TreeList() const { return TreeList(begin(), end()); }

private:
  static constexpr size_t SpillHdrBytes = sizeof(ManagedHeap *);
  static size_t spillBytes(uint32_t N) {
    return SpillHdrBytes + N * sizeof(TreePtr);
  }

  TreePtr *Spill = nullptr;
  uint32_t Num = 0;
  TreePtr Inline[InlineCap];
};

/// Root of the tree hierarchy. No vtable: the kind tag plus switch-based
/// dispatch keeps nodes compact and mirrors the paper's transform dispatch.
class Tree {
public:
  TreeKind kind() const { return K; }
  const Type *type() const { return Ty; }
  SourceLoc loc() const { return Loc; }
  TreeContext &context() const { return *Ctx; }

  /// Children, uniformly. Entries may be null only in the documented
  /// nullable slots (ValDef/DefDef rhs, Try finalizer, CaseDef guard).
  unsigned numKids() const { return static_cast<unsigned>(Kids.size()); }
  Tree *kid(unsigned I) const { return Kids[I].get(); }
  const TreeKids &kids() const { return Kids; }

  /// Kind summary of this subtree: the bit of kind() unioned with every
  /// descendant's summary. Computed once at construction (children are
  /// immutable, so it can never go stale) and used by the fusion engine
  /// to skip whole subtrees no constituent phase is interested in.
  uint32_t kindsBelow() const { return KindsBelowBits; }

  /// Reference count (exposed for allocation-lifetime tests).
  uint32_t refCount() const { return RefCount; }

  /// Bytes charged to the managed heap for this node.
  uint32_t allocBytes() const { return AllocSize; }

  /// Allocation-clock value at creation (ManagedHeap accounting).
  uint64_t birthClock() const { return Birth; }

  static bool classof(const Tree *) { return true; }

protected:
  Tree(TreeKind K, TreeContext &Ctx, SourceLoc Loc, const Type *Ty,
       KidSpan Kids); // defined after TreeContext (needs the heap)
  ~Tree() = default;

private:
  friend class TreeContext;
  template <typename T> friend class GcRef;

  void retain() const { ++RefCount; }
  void release(); // defined after TreeContext

  TreeContext *Ctx;
  const Type *Ty;
  TreeKids Kids;
  uint64_t Birth = 0;
  mutable uint32_t RefCount = 0;
  uint32_t AllocSize = 0;
  uint32_t KindsBelowBits = 0;
  SourceLoc Loc;
  TreeKind K;
};

template <typename T> void GcRef<T>::retain() const {
  if (Ptr)
    static_cast<const Tree *>(Ptr)->retain();
}

//===----------------------------------------------------------------------===//
// Node classes. Each documents its child-slot layout.
//===----------------------------------------------------------------------===//

/// Reference to a definition by symbol.
class Ident : public Tree {
public:
  Symbol *sym() const { return Sym; }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Ident; }

private:
  friend class TreeContext;
  Ident(TreeContext &C, SourceLoc L, const Type *Ty, Symbol *Sym)
      : Tree(TreeKind::Ident, C, L, Ty, {}), Sym(Sym) {}
  Symbol *Sym;
};

/// Member selection: kid 0 = qualifier.
class Select : public Tree {
public:
  Tree *qual() const { return kid(0); }
  Symbol *sym() const { return Sym; }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Select; }

private:
  friend class TreeContext;
  Select(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Qual,
         Symbol *Sym)
      : Tree(TreeKind::Select, C, L, Ty, Qual), Sym(Sym) {}
  Symbol *Sym;
};

/// `this` of class \p cls().
class This : public Tree {
public:
  ClassSymbol *cls() const { return Cls; }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::This; }

private:
  friend class TreeContext;
  This(TreeContext &C, SourceLoc L, const Type *Ty, ClassSymbol *Cls)
      : Tree(TreeKind::This, C, L, Ty, {}), Cls(Cls) {}
  ClassSymbol *Cls;
};

/// `super` qualifier; appears only as Select(Super, member).
class Super : public Tree {
public:
  ClassSymbol *fromClass() const { return FromCls; }
  ClassSymbol *target() const { return Target; }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Super; }

private:
  friend class TreeContext;
  Super(TreeContext &C, SourceLoc L, const Type *Ty, ClassSymbol *FromCls,
        ClassSymbol *Target)
      : Tree(TreeKind::Super, C, L, Ty, {}), FromCls(FromCls), Target(Target) {
  }
  ClassSymbol *FromCls;
  ClassSymbol *Target;
};

/// A literal constant.
class Literal : public Tree {
public:
  const Constant &value() const { return Value; }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Literal; }

private:
  friend class TreeContext;
  Literal(TreeContext &C, SourceLoc L, const Type *Ty, Constant V)
      : Tree(TreeKind::Literal, C, L, Ty, {}), Value(V) {}
  Constant Value;
};

/// Application: kid 0 = function, kids 1.. = arguments.
class Apply : public Tree {
public:
  Tree *fun() const { return kid(0); }
  unsigned numArgs() const { return numKids() - 1; }
  Tree *arg(unsigned I) const { return kid(1 + I); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Apply; }

private:
  friend class TreeContext;
  Apply(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan FunAndArgs)
      : Tree(TreeKind::Apply, C, L, Ty, FunAndArgs) {}
};

/// Type application: kid 0 = function; type arguments as types.
class TypeApply : public Tree {
public:
  Tree *fun() const { return kid(0); }
  const std::vector<const Type *> &typeArgs() const { return TypeArgs; }
  static bool classof(const Tree *T) {
    return T->kind() == TreeKind::TypeApply;
  }

private:
  friend class TreeContext;
  TypeApply(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Fun,
            std::vector<const Type *> TypeArgs)
      : Tree(TreeKind::TypeApply, C, L, Ty, Fun),
        TypeArgs(std::move(TypeArgs)) {}
  std::vector<const Type *> TypeArgs;
};

/// Instance creation `new C(args)`: kids = constructor arguments.
class New : public Tree {
public:
  const Type *classTy() const { return ClsTy; }
  unsigned numArgs() const { return numKids(); }
  Tree *arg(unsigned I) const { return kid(I); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::New; }

private:
  friend class TreeContext;
  New(TreeContext &C, SourceLoc L, const Type *Ty, const Type *ClsTy,
      KidSpan Args)
      : Tree(TreeKind::New, C, L, Ty, Args), ClsTy(ClsTy) {}
  const Type *ClsTy;
};

/// Ascription / checked cast / type pattern. The node's own type is the
/// target type; kid 0 = expression (or inner pattern).
class Typed : public Tree {
public:
  Tree *expr() const { return kid(0); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Typed; }

private:
  friend class TreeContext;
  Typed(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Expr)
      : Tree(TreeKind::Typed, C, L, Ty, Expr) {}
};

/// Assignment: kid 0 = lhs, kid 1 = rhs.
class Assign : public Tree {
public:
  Tree *lhs() const { return kid(0); }
  Tree *rhs() const { return kid(1); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Assign; }

private:
  friend class TreeContext;
  Assign(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Ks)
      : Tree(TreeKind::Assign, C, L, Ty, Ks) {}
};

/// Statement sequence: kids 0..n-2 = statements, last kid = result expr.
class Block : public Tree {
public:
  unsigned numStats() const { return numKids() - 1; }
  Tree *stat(unsigned I) const { return kid(I); }
  Tree *expr() const { return kid(numKids() - 1); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Block; }

private:
  friend class TreeContext;
  Block(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Ks)
      : Tree(TreeKind::Block, C, L, Ty, Ks) {}
};

/// Conditional (always has an else; the typer inserts `()` if missing).
class If : public Tree {
public:
  Tree *cond() const { return kid(0); }
  Tree *thenp() const { return kid(1); }
  Tree *elsep() const { return kid(2); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::If; }

private:
  friend class TreeContext;
  If(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Ks)
      : Tree(TreeKind::If, C, L, Ty, Ks) {}
};

/// Lambda: kids 0..n-2 = parameter ValDefs, last kid = body.
class Closure : public Tree {
public:
  unsigned numParams() const { return numKids() - 1; }
  Tree *param(unsigned I) const { return kid(I); }
  Tree *body() const { return kid(numKids() - 1); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Closure; }

private:
  friend class TreeContext;
  Closure(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Ks)
      : Tree(TreeKind::Closure, C, L, Ty, Ks) {}
};

/// Pattern match: kid 0 = selector, kids 1.. = CaseDefs.
class Match : public Tree {
public:
  Tree *selector() const { return kid(0); }
  unsigned numCases() const { return numKids() - 1; }
  Tree *caseAt(unsigned I) const { return kid(1 + I); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Match; }

private:
  friend class TreeContext;
  Match(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Ks)
      : Tree(TreeKind::Match, C, L, Ty, Ks) {}
};

/// One case: kid 0 = pattern, kid 1 = guard (nullable), kid 2 = body.
class CaseDef : public Tree {
public:
  Tree *pat() const { return kid(0); }
  Tree *guard() const { return kid(1); }
  Tree *body() const { return kid(2); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::CaseDef; }

private:
  friend class TreeContext;
  CaseDef(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Ks)
      : Tree(TreeKind::CaseDef, C, L, Ty, Ks) {}
};

/// Pattern binder `x @ pat`: kid 0 = inner pattern.
class Bind : public Tree {
public:
  Symbol *sym() const { return Sym; }
  Tree *pat() const { return kid(0); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Bind; }

private:
  friend class TreeContext;
  Bind(TreeContext &C, SourceLoc L, const Type *Ty, Symbol *Sym, KidSpan Pat)
      : Tree(TreeKind::Bind, C, L, Ty, Pat), Sym(Sym) {}
  Symbol *Sym;
};

/// Pattern alternative `p1 | p2 | ...`: kids = alternatives.
class Alternative : public Tree {
public:
  static bool classof(const Tree *T) {
    return T->kind() == TreeKind::Alternative;
  }

private:
  friend class TreeContext;
  Alternative(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Ks)
      : Tree(TreeKind::Alternative, C, L, Ty, Ks) {}
};

/// Case-class extractor pattern `C(p1, ..., pn)`: kids = sub-patterns.
class UnApply : public Tree {
public:
  ClassSymbol *caseClass() const { return Cls; }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::UnApply; }

private:
  friend class TreeContext;
  UnApply(TreeContext &C, SourceLoc L, const Type *Ty, ClassSymbol *Cls,
          KidSpan Ks)
      : Tree(TreeKind::UnApply, C, L, Ty, Ks), Cls(Cls) {}
  ClassSymbol *Cls;
};

/// try/catch/finally: kid 0 = body, kid 1 = finalizer (nullable),
/// kids 2.. = catch CaseDefs.
class Try : public Tree {
public:
  Tree *body() const { return kid(0); }
  Tree *finalizer() const { return kid(1); }
  unsigned numCatches() const { return numKids() - 2; }
  Tree *catchAt(unsigned I) const { return kid(2 + I); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Try; }

private:
  friend class TreeContext;
  Try(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Ks)
      : Tree(TreeKind::Try, C, L, Ty, Ks) {}
};

/// throw: kid 0 = exception expression.
class Throw : public Tree {
public:
  Tree *expr() const { return kid(0); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Throw; }

private:
  friend class TreeContext;
  Throw(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Ks)
      : Tree(TreeKind::Throw, C, L, Ty, Ks) {}
};

/// return from method \p fromMethod(): kid 0 = value (nullable for Unit).
class Return : public Tree {
public:
  Tree *expr() const { return kid(0); }
  Symbol *fromMethod() const { return From; }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Return; }

private:
  friend class TreeContext;
  Return(TreeContext &C, SourceLoc L, const Type *Ty, Symbol *From,
         KidSpan Ks)
      : Tree(TreeKind::Return, C, L, Ty, Ks), From(From) {}
  Symbol *From;
};

/// while loop: kid 0 = condition, kid 1 = body.
class WhileDo : public Tree {
public:
  Tree *cond() const { return kid(0); }
  Tree *body() const { return kid(1); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::WhileDo; }

private:
  friend class TreeContext;
  WhileDo(TreeContext &C, SourceLoc L, const Type *Ty, KidSpan Ks)
      : Tree(TreeKind::WhileDo, C, L, Ty, Ks) {}
};

/// Labeled block (TailRec / PatternMatcher output): kid 0 = body.
/// A Goto to the label re-enters the body (loop semantics).
class Labeled : public Tree {
public:
  Symbol *label() const { return Label; }
  Tree *body() const { return kid(0); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Labeled; }

private:
  friend class TreeContext;
  Labeled(TreeContext &C, SourceLoc L, const Type *Ty, Symbol *Label,
          KidSpan Ks)
      : Tree(TreeKind::Labeled, C, L, Ty, Ks), Label(Label) {}
  Symbol *Label;
};

/// Jump back to an enclosing Labeled.
class Goto : public Tree {
public:
  Symbol *label() const { return Label; }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::Goto; }

private:
  friend class TreeContext;
  Goto(TreeContext &C, SourceLoc L, const Type *Ty, Symbol *Label)
      : Tree(TreeKind::Goto, C, L, Ty, {}), Label(Label) {}
  Symbol *Label;
};

/// Sequence literal (vararg packaging, ElimRepeated): kids = elements.
class SeqLiteral : public Tree {
public:
  const Type *elemType() const { return ElemTy; }
  static bool classof(const Tree *T) {
    return T->kind() == TreeKind::SeqLiteral;
  }

private:
  friend class TreeContext;
  SeqLiteral(TreeContext &C, SourceLoc L, const Type *Ty, const Type *ElemTy,
             KidSpan Ks)
      : Tree(TreeKind::SeqLiteral, C, L, Ty, Ks), ElemTy(ElemTy) {}
  const Type *ElemTy;
};

/// Value definition: kid 0 = rhs (nullable for abstract/field decls).
class ValDef : public Tree {
public:
  Symbol *sym() const { return Sym; }
  Tree *rhs() const { return kid(0); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::ValDef; }

private:
  friend class TreeContext;
  ValDef(TreeContext &C, SourceLoc L, const Type *Ty, Symbol *Sym, KidSpan Ks)
      : Tree(TreeKind::ValDef, C, L, Ty, Ks), Sym(Sym) {
    Sym->setDefTree(this);
  }
  Symbol *Sym;
};

/// Method definition. Kids: parameter ValDefs of all lists concatenated,
/// then the rhs (nullable for abstract methods). paramListSizes() recovers
/// the currying structure until Uncurry flattens it.
class DefDef : public Tree {
public:
  Symbol *sym() const { return Sym; }
  const std::vector<uint32_t> &paramListSizes() const { return ParamSizes; }
  unsigned numParamsTotal() const { return numKids() - 1; }
  Tree *paramAt(unsigned I) const { return kid(I); }
  Tree *rhs() const { return kid(numKids() - 1); }
  static bool classof(const Tree *T) { return T->kind() == TreeKind::DefDef; }

private:
  friend class TreeContext;
  DefDef(TreeContext &C, SourceLoc L, const Type *Ty, Symbol *Sym,
         std::vector<uint32_t> ParamSizes, KidSpan Ks)
      : Tree(TreeKind::DefDef, C, L, Ty, Ks), Sym(Sym),
        ParamSizes(std::move(ParamSizes)) {
    Sym->setDefTree(this);
  }
  Symbol *Sym;
  std::vector<uint32_t> ParamSizes;
};

/// Class/trait/object-class definition: kids = body statements.
class ClassDef : public Tree {
public:
  ClassSymbol *sym() const { return Sym; }
  static bool classof(const Tree *T) {
    return T->kind() == TreeKind::ClassDef;
  }

private:
  friend class TreeContext;
  ClassDef(TreeContext &C, SourceLoc L, const Type *Ty, ClassSymbol *Sym,
           KidSpan Ks)
      : Tree(TreeKind::ClassDef, C, L, Ty, Ks), Sym(Sym) {
    Sym->setDefTree(this);
  }
  ClassSymbol *Sym;
};

/// Top of a compilation unit: kids = top-level definitions.
class PackageDef : public Tree {
public:
  Name pkgName() const { return PkgName; }
  static bool classof(const Tree *T) {
    return T->kind() == TreeKind::PackageDef;
  }

private:
  friend class TreeContext;
  PackageDef(TreeContext &C, SourceLoc L, const Type *Ty, Name PkgName,
             KidSpan Ks)
      : Tree(TreeKind::PackageDef, C, L, Ty, Ks), PkgName(PkgName) {}
  Name PkgName;
};

//===----------------------------------------------------------------------===//
// TreeContext: creation, rebuilding, and instrumentation.
//===----------------------------------------------------------------------===//

/// Creates and destroys tree nodes, charging the ManagedHeap and optionally
/// driving the cache simulator (allocation performs stores).
class TreeContext {
public:
  explicit TreeContext(ManagedHeap &Heap) : Heap(Heap) {}
  TreeContext(const TreeContext &) = delete;
  TreeContext &operator=(const TreeContext &) = delete;

  /// Attaches/detaches the cache simulator (null = no instrumentation).
  void setCacheSim(CacheSim *CS) { Cache = CS; }
  CacheSim *cacheSim() const { return Cache; }
  ManagedHeap &heap() { return Heap; }

  /// Total nodes created through this context (for stats).
  uint64_t nodesCreated() const { return NumCreated; }

  // Factory methods (one per kind). All types are final; parser output goes
  // through the frontend's own syntax representation, so every Tree is
  // created fully attributed.
  GcRef<Ident> makeIdent(SourceLoc L, Symbol *Sym, const Type *Ty);
  GcRef<Select> makeSelect(SourceLoc L, TreePtr Qual, Symbol *Sym,
                           const Type *Ty);
  GcRef<This> makeThis(SourceLoc L, ClassSymbol *Cls, const Type *Ty);
  GcRef<Super> makeSuper(SourceLoc L, ClassSymbol *FromCls,
                         ClassSymbol *Target, const Type *Ty);
  GcRef<Literal> makeLiteral(SourceLoc L, Constant V, const Type *Ty);
  GcRef<Apply> makeApply(SourceLoc L, TreePtr Fun, TreeList Args,
                         const Type *Ty);
  /// Span overload for the typer's stack-shaped argument scratch:
  /// \p FunAndArgs[0] is the function, the rest are the arguments; the
  /// slots are moved from (left null) without an intermediate list.
  GcRef<Apply> makeApply(SourceLoc L, TreePtr *FunAndArgs, size_t NumKids,
                         const Type *Ty);
  GcRef<TypeApply> makeTypeApply(SourceLoc L, TreePtr Fun,
                                 std::vector<const Type *> TypeArgs,
                                 const Type *Ty);
  GcRef<New> makeNew(SourceLoc L, const Type *ClsTy, TreeList Args);
  GcRef<New> makeNew(SourceLoc L, const Type *ClsTy, TreePtr *Args,
                     size_t NumArgs);
  GcRef<Typed> makeTyped(SourceLoc L, TreePtr Expr, const Type *TargetTy);
  GcRef<Assign> makeAssign(SourceLoc L, TreePtr Lhs, TreePtr Rhs,
                           const Type *UnitTy);
  GcRef<Block> makeBlock(SourceLoc L, TreeList Stats, TreePtr Expr);
  GcRef<If> makeIf(SourceLoc L, TreePtr Cond, TreePtr Then, TreePtr Else,
                   const Type *Ty);
  GcRef<Closure> makeClosure(SourceLoc L, TreeList Params, TreePtr Body,
                             const Type *Ty);
  GcRef<Match> makeMatch(SourceLoc L, TreePtr Sel, TreeList Cases,
                         const Type *Ty);
  GcRef<CaseDef> makeCaseDef(SourceLoc L, TreePtr Pat, TreePtr Guard,
                             TreePtr Body);
  GcRef<Bind> makeBind(SourceLoc L, Symbol *Sym, TreePtr Pat);
  GcRef<Alternative> makeAlternative(SourceLoc L, TreeList Pats,
                                     const Type *Ty);
  GcRef<UnApply> makeUnApply(SourceLoc L, ClassSymbol *Cls, TreeList Pats,
                             const Type *Ty);
  GcRef<Try> makeTry(SourceLoc L, TreePtr Body, TreeList Catches,
                     TreePtr Finalizer, const Type *Ty);
  GcRef<Throw> makeThrow(SourceLoc L, TreePtr Expr, const Type *NothingTy);
  GcRef<Return> makeReturn(SourceLoc L, TreePtr Expr, Symbol *FromMethod,
                           const Type *NothingTy);
  GcRef<WhileDo> makeWhileDo(SourceLoc L, TreePtr Cond, TreePtr Body,
                             const Type *UnitTy);
  GcRef<Labeled> makeLabeled(SourceLoc L, Symbol *Label, TreePtr Body,
                             const Type *Ty);
  GcRef<Goto> makeGoto(SourceLoc L, Symbol *Label, const Type *NothingTy);
  GcRef<SeqLiteral> makeSeqLiteral(SourceLoc L, TreeList Elems,
                                   const Type *ElemTy, const Type *Ty);
  GcRef<SeqLiteral> makeSeqLiteral(SourceLoc L, TreePtr *Elems,
                                   size_t NumElems, const Type *ElemTy,
                                   const Type *Ty);
  GcRef<ValDef> makeValDef(SourceLoc L, Symbol *Sym, TreePtr Rhs);
  GcRef<DefDef> makeDefDef(SourceLoc L, Symbol *Sym,
                           std::vector<uint32_t> ParamListSizes,
                           TreeList Params, TreePtr Rhs);
  GcRef<ClassDef> makeClassDef(SourceLoc L, ClassSymbol *Sym, TreeList Body);
  GcRef<PackageDef> makePackageDef(SourceLoc L, Name PkgName, TreeList Stats);

  /// The copier (paper: withNewChildren + reuse optimization). Returns the
  /// original node when every child is pointer-identical; otherwise builds
  /// a node of the same kind/payload/type with the new children. The span
  /// overload moves from \p NewKids (the fusion engine's scratch buffer)
  /// without any intermediate list.
  TreePtr withNewChildren(Tree *T, TreeList NewKids);
  TreePtr withNewChildren(Tree *T, TreePtr *NewKids, size_t N);

  /// Copier without the reuse optimization: always allocates a fresh node
  /// (the scalac-baseline configuration of Figure 9).
  TreePtr withNewChildrenForced(Tree *T, TreeList NewKids);
  TreePtr withNewChildrenForced(Tree *T, TreePtr *NewKids, size_t N);

  /// Copy of \p T (same payload and children) with a different type.
  /// Used by the typer's adaptation steps. Shares the children with the
  /// original by reference (no intermediate list copy).
  TreePtr withType(Tree *T, const Type *NewTy);

  /// withNewChildrenForced and withType in one rebuild: a fresh node of
  /// \p T's kind and payload with \p NewKids (moved from) and type \p Ty.
  /// Counted as a rebuild.
  TreePtr withNewChildrenAndType(Tree *T, TreePtr *NewKids, size_t N,
                                 const Type *Ty);

  /// Statistics: how often withNewChildren reused vs. rebuilt.
  uint64_t reuseCount() const { return NumReused; }
  uint64_t rebuildCount() const { return NumRebuilt; }
  /// Statistics for withType: calls that returned the original node
  /// (type already matched) vs. rebuilds that shared the child refs
  /// directly instead of copying the list.
  uint64_t typeReuseCount() const { return NumTypeReused; }
  uint64_t typeShareCount() const { return NumTypeShared; }

private:
  friend class Tree;

  template <typename NodeT, typename... Args>
  GcRef<NodeT> allocate(size_t ExtraBytes, Args &&...CtorArgs);

  TreePtr rebuildNode(Tree *T, KidSpan NewKids, const Type *Ty);

  void destroy(Tree *T);

  ManagedHeap &Heap;
  CacheSim *Cache = nullptr;
  uint64_t NumCreated = 0;
  uint64_t NumReused = 0;
  uint64_t NumRebuilt = 0;
  uint64_t NumTypeReused = 0;
  uint64_t NumTypeShared = 0;
};

inline Tree::Tree(TreeKind K, TreeContext &Ctx, SourceLoc Loc, const Type *Ty,
                  KidSpan KidsIn)
    : Ctx(&Ctx), Ty(Ty), Kids(KidsIn, Ctx.heap()), Loc(Loc), K(K) {
  uint32_t Below = 1u << static_cast<unsigned>(K);
  for (const TreePtr &Kid : Kids)
    if (Kid)
      Below |= Kid->KindsBelowBits;
  KindsBelowBits = Below;
}

template <typename T> void GcRef<T>::release() {
  if (!Ptr)
    return;
  static_cast<Tree *>(Ptr)->release();
  Ptr = nullptr;
}

inline void Tree::release() {
  assert(RefCount > 0 && "over-release of tree node");
  if (--RefCount == 0)
    Ctx->destroy(this);
}

} // namespace mpc

#endif // MPC_AST_TREES_H
