//===----------------------------------------------------------------------===//
///
/// \file
/// Symbols: unique identities for definitions (classes, methods, fields,
/// locals, type parameters), as described in the paper's §2. Symbols carry
/// semantic information (flags, an info Type, an owner) and a weak pointer
/// to their current defining tree, which phases keep up to date as they
/// rebuild definitions.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_AST_SYMBOLS_H
#define MPC_AST_SYMBOLS_H

#include "ast/Types.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/FlatPtrMap.h"
#include "support/NameTable.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace mpc {

class Tree;

/// Symbol property flags. A symbol may carry many.
namespace SymFlag {
enum : uint64_t {
  None = 0,
  Method = 1ull << 0,
  Mutable = 1ull << 1,      // var
  Lazy = 1ull << 2,         // lazy val
  Case = 1ull << 3,         // case class
  Trait = 1ull << 4,
  Module = 1ull << 5,       // object (the term side)
  ModuleClass = 1ull << 6,  // object (the class side)
  Package = 1ull << 7,
  Synthetic = 1ull << 8,
  Private = 1ull << 9,
  Label = 1ull << 10,       // Labeled/Goto target
  Param = 1ull << 11,
  Accessor = 1ull << 12,    // getter generated by the Getters phase
  TypeParam = 1ull << 13,
  Final = 1ull << 14,
  Abstract = 1ull << 15,
  Override = 1ull << 16,
  Field = 1ull << 17,       // backing field (Memoize / Constructors)
  Local = 1ull << 18,       // local value/method inside a method body
  Captured = 1ull << 19,    // var captured by a closure (CapturedVars)
  EntryPoint = 1ull << 20,  // main method (CollectEntryPoints)
  Lifted = 1ull << 21,      // moved to class scope by LambdaLift
  Constructor = 1ull << 22, // <init>
  Boxed = 1ull << 23,       // CapturedVars: value now holds a Ref box
  Builtin = 1ull << 24,     // predefined by the SymbolTable
  Static = 1ull << 25,      // module member addressed without instance
  PrimOp = 1ull << 26,      // primitive operator intrinsic (Int.+ etc.)
};
} // namespace SymFlag

/// Dense identity of a primitive operator symbol, fixed at builtin
/// registration. Every consumer that used to compare the operator's name
/// text (codegen, tree interpreter, VM linker) switches on this instead.
enum class PrimOpKind : int8_t {
  None = -1,
  Add,   // +
  Sub,   // -
  Mul,   // *
  Div,   // /
  Rem,   // %
  CmpLt, // <
  CmpLe, // <=
  CmpGt, // >
  CmpGe, // >=
  CmpEq, // ==
  CmpNe, // !=
  Neg,   // unary_-
  And,   // && (eager here; the frontend desugars short-circuiting)
  Or,    // ||
  Not,   // unary_!
};

/// A named definition. Term symbols use this class directly; classes use
/// ClassSymbol below.
class Symbol {
public:
  enum class SymKind : uint8_t { Term, Class };

  Symbol(SymKind K, uint32_t Id, Name N, Symbol *Owner, uint64_t Flags)
      : Kind(K), Id(Id), N(N), Owner(Owner), Flags(Flags) {}
  virtual ~Symbol() = default;

  SymKind symKind() const { return Kind; }
  uint32_t id() const { return Id; }
  Name name() const { return N; }
  Symbol *owner() const { return Owner; }
  void setOwner(Symbol *NewOwner) { Owner = NewOwner; }

  uint64_t flags() const { return Flags; }
  bool is(uint64_t Flag) const { return (Flags & Flag) != 0; }
  void setFlag(uint64_t Flag) { Flags |= Flag; }
  void clearFlag(uint64_t Flag) { Flags &= ~Flag; }

  /// The symbol's declared/structural type: method signature for methods,
  /// value type for vals/vars/params.
  const Type *info() const { return Info; }
  void setInfo(const Type *T) { Info = T; }

  /// The tree currently defining this symbol (weak; updated by phases).
  Tree *defTree() const { return DefTree; }
  void setDefTree(Tree *T) { DefTree = T; }

  SourceLoc loc() const { return Loc; }
  void setLoc(SourceLoc L) { Loc = L; }

  bool isMethod() const { return is(SymFlag::Method); }
  bool isClass() const { return Kind == SymKind::Class; }
  bool isTerm() const { return Kind == SymKind::Term; }

  /// The innermost enclosing class (or this, if a class).
  ClassSymbol *enclosingClass();

  /// "Owner.Owner.Name" — stable, for diagnostics and printing.
  std::string fullName() const;

  static bool classof(const Symbol *) { return true; }

private:
  SymKind Kind;
  uint32_t Id;
  Name N;
  Symbol *Owner;
  uint64_t Flags;
  const Type *Info = nullptr;
  Tree *DefTree = nullptr;
  SourceLoc Loc;
};

/// A class, trait, or module class. Tracks parents, members, and (for case
/// classes) the constructor fields used by pattern matching.
class ClassSymbol : public Symbol {
public:
  ClassSymbol(uint32_t Id, Name N, Symbol *Owner, uint64_t Flags)
      : Symbol(SymKind::Class, Id, N, Owner, Flags) {}

  /// Parent types; the first is the superclass, the rest are traits.
  const std::vector<const Type *> &parents() const { return Parents; }
  void setParents(std::vector<const Type *> P) { Parents = std::move(P); }

  /// The superclass symbol, or null for the root class.
  ClassSymbol *superClass() const;

  /// All declared members (fields, methods, nested classes), in order.
  const std::vector<Symbol *> &members() const { return Members; }
  void enterMember(Symbol *S) {
    Members.push_back(S);
    MemberIdxDirty = true;
  }
  void removeMember(Symbol *S);
  bool hasMember(Symbol *S) const;

  /// Declared type parameters.
  const std::vector<Symbol *> &typeParams() const { return TypeParams; }
  void setTypeParams(std::vector<Symbol *> TP) { TypeParams = std::move(TP); }

  /// Case-class constructor fields, in declaration order (pattern matching
  /// destructures by position).
  const std::vector<Symbol *> &caseFields() const { return CaseFields; }
  void setCaseFields(std::vector<Symbol *> F) { CaseFields = std::move(F); }

  /// Looks up a member by name in this class only. Classes beyond a
  /// handful of members answer from a lazily (re)built flat
  /// ordinal-keyed index instead of a linear scan; on duplicate names
  /// the index keeps the first declaration, matching scan order.
  Symbol *findDeclaredMember(Name MemberName) const;

  /// Looks up a member by name in this class and its ancestors.
  Symbol *findMember(Name MemberName) const;

  /// True if this class equals \p Other or inherits from it.
  bool derivesFrom(const ClassSymbol *Other) const;

  /// All ancestor classes/traits (not including this), depth-first.
  void collectAncestors(std::vector<ClassSymbol *> &Out) const;

  bool isTrait() const { return is(SymFlag::Trait); }

  static bool classof(const Symbol *S) {
    return S->symKind() == SymKind::Class;
  }

private:
  std::vector<const Type *> Parents;
  std::vector<Symbol *> Members;
  std::vector<Symbol *> TypeParams;
  std::vector<Symbol *> CaseFields;
  /// Lazily built name-ordinal -> member index (first declaration wins),
  /// invalidated whenever Members changes. Mutable: rebuilt inside the
  /// const lookup path; contexts are single-threaded, so no locking.
  mutable FlatOrdMap<Symbol *> MemberIdx;
  mutable bool MemberIdxDirty = true;
};

/// Frequently used names, interned once.
struct StdNames {
  Name Init;          // <init>
  Name Apply;         // apply
  Name Main;          // main
  Name Elem;          // elem (Ref boxes)
  Name ModuleInstance;// MODULE$
  Name Outer;         // $outer
  Name This;          // this
  Name Wildcard;      // _
  Name Length;        // length
  Name Update;        // update
  Name Println;       // println
  Name Print;         // print
  Name ClassOf;       // classOf
  Name Value;         // value (NonLocalReturn payload)
  Name Message;       // message (Throwable)
  Name Equals;        // equals
  Name EqEq;          // ==
  Name BangEq;        // !=
  Name GetClass;      // getClass
  Name ToString;      // toString
  Name IsInstanceOf;  // isInstanceOf
  Name AsInstanceOf;  // asInstanceOf
  Name Label;         // label base name
  Name LiftedTry;     // liftedTree base name
  Name Bitmap;        // bitmap$ base name
};

/// Creates and owns all symbols; provides the builtin world: Object, String,
/// Throwable & friends, FunctionN, Ref boxes, the Predef and Runtime
/// modules, and the name table.
class SymbolTable {
public:
  explicit SymbolTable(NameTable &Names, TypeContext &Types);
  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;

  /// Creates a fresh term symbol.
  Symbol *makeTerm(Name N, Symbol *Owner, uint64_t Flags,
                   const Type *Info = nullptr);
  /// Creates a fresh class symbol.
  ClassSymbol *makeClass(Name N, Symbol *Owner, uint64_t Flags);

  /// Fresh synthetic name "Base$<n>", unique per table.
  Name freshName(std::string_view Base);

  NameTable &names() { return Names; }
  TypeContext &types() { return Types; }
  const StdNames &std() const { return Std; }

  // Builtin classes.
  ClassSymbol *objectClass() const { return ObjectCls; }
  ClassSymbol *stringClass() const { return StringCls; }
  ClassSymbol *throwableClass() const { return ThrowableCls; }
  ClassSymbol *matchErrorClass() const { return MatchErrorCls; }
  ClassSymbol *nonLocalReturnClass() const { return NonLocalReturnCls; }
  ClassSymbol *functionClass(unsigned Arity) const;
  /// Ref box classes for captured vars; \p Underlying selects Int/Object/...
  ClassSymbol *refClassFor(const Type *Underlying) const;

  // Builtin module *class* symbols and their singleton value symbols.
  ClassSymbol *predefModuleClass() const { return PredefCls; }
  Symbol *predefModule() const { return PredefVal; }
  ClassSymbol *runtimeModuleClass() const { return RuntimeCls; }
  Symbol *runtimeModule() const { return RuntimeVal; }

  // Builtin methods (used by transforms to route intrinsics).
  Symbol *printlnMethod() const { return PrintlnSym; }
  Symbol *printMethod() const { return PrintSym; }
  Symbol *classOfMethod() const { return ClassOfSym; }
  Symbol *runtimeEqualsMethod() const { return RuntimeEqualsSym; }
  Symbol *isInstanceOfMethod() const { return IsInstanceOfSym; }
  Symbol *asInstanceOfMethod() const { return AsInstanceOfSym; }
  Symbol *rootPackage() const { return RootPkg; }
  /// Runtime.newArray[T](length): Array[T] — `new Array[T](n)` intrinsic.
  Symbol *newArrayMethod() const { return NewArraySym; }

  /// Intrinsic operator member of a primitive type (e.g. Int.+), or null.
  /// A flat array lookup: (prim kind, dense op index from the name's
  /// ordinal) — no map, no hashing, on the typer/interpreter hot path.
  Symbol *primOp(PrimKind P, Name Op) const;
  /// True if \p S is one of the primitive operator symbols (flag test).
  bool isPrimOp(const Symbol *S) const { return S->is(SymFlag::PrimOp); }
  /// Dense identity of the primitive operator named \p Op
  /// (PrimOpKind::None when the name is no operator). Lets the code
  /// generator, the tree interpreter, and the bytecode VM dispatch on a
  /// small integer instead of comparing name text.
  PrimOpKind primOpKindOf(Name Op) const;

  // Array pseudo-members (Array[T] is a special type, not a class; these
  // symbols give Select nodes on arrays an identity).
  Symbol *arrayApply() const { return ArrayApplySym; }
  Symbol *arrayUpdate() const { return ArrayUpdateSym; }
  Symbol *arrayLength() const { return ArrayLengthSym; }

  /// Object type (ClassType of the Object class) — the AnyRef of MiniScala.
  const Type *objectType() const { return ObjectTy; }
  const Type *stringType() const { return StringTy; }
  const Type *throwableType() const { return ThrowableTy; }

  size_t symbolCount() const { return Symbols.size(); }

  /// All created symbols in creation order (deterministic iteration).
  const std::vector<std::unique_ptr<Symbol>> &allSymbols() const {
    return Symbols;
  }

private:
  ClassSymbol *makeBuiltinClass(const char *ClsName, ClassSymbol *Super,
                                uint64_t Flags = 0);

  NameTable &Names;
  TypeContext &Types;
  StdNames Std;
  std::vector<std::unique_ptr<Symbol>> Symbols;
  uint32_t NextId = 1;
  uint64_t FreshCounter = 0;

  Symbol *RootPkg = nullptr;
  ClassSymbol *ObjectCls = nullptr;
  ClassSymbol *StringCls = nullptr;
  ClassSymbol *ThrowableCls = nullptr;
  ClassSymbol *MatchErrorCls = nullptr;
  ClassSymbol *NonLocalReturnCls = nullptr;
  ClassSymbol *PredefCls = nullptr;
  Symbol *PredefVal = nullptr;
  ClassSymbol *RuntimeCls = nullptr;
  Symbol *RuntimeVal = nullptr;
  Symbol *PrintlnSym = nullptr;
  Symbol *PrintSym = nullptr;
  Symbol *ClassOfSym = nullptr;
  Symbol *RuntimeEqualsSym = nullptr;
  Symbol *IsInstanceOfSym = nullptr;
  Symbol *AsInstanceOfSym = nullptr;
  Symbol *NewArraySym = nullptr;
  Symbol *ArrayApplySym = nullptr;
  Symbol *ArrayUpdateSym = nullptr;
  Symbol *ArrayLengthSym = nullptr;
  /// Flat prim-op dispatch: name ordinal -> dense op index (-1 when the
  /// name is no operator), then (prim kind, op index) -> symbol. Operator
  /// names are interned during construction, so their ordinals are small
  /// and the ordinal-indexed vector stays tiny.
  static constexpr unsigned NumPrimKinds = 7; // mirrors PrimKind
  static constexpr unsigned MaxPrimOps = 16;
  std::vector<int16_t> PrimOpIdxByOrdinal;
  /// Name ordinal -> PrimOpKind (as int8_t; -1 = not an operator name).
  /// Parallel to PrimOpIdxByOrdinal, filled at builtin registration.
  std::vector<int8_t> PrimOpKindByOrdinal;
  int16_t NumPrimOpNames = 0;
  Symbol *PrimOpTable[NumPrimKinds][MaxPrimOps] = {};
  const Type *ObjectTy = nullptr;
  const Type *StringTy = nullptr;
  const Type *ThrowableTy = nullptr;
  static constexpr unsigned MaxFunctionArity = 5;
  ClassSymbol *FunctionCls[MaxFunctionArity + 1] = {};
  ClassSymbol *IntRefCls = nullptr;
  ClassSymbol *ObjectRefCls = nullptr;
  ClassSymbol *BooleanRefCls = nullptr;
  ClassSymbol *DoubleRefCls = nullptr;
};

} // namespace mpc

#endif // MPC_AST_SYMBOLS_H
