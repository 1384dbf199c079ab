#include "ast/Symbols.h"

#include <algorithm>
#include <cassert>

using namespace mpc;

ClassSymbol *Symbol::enclosingClass() {
  Symbol *S = this;
  while (S && !S->isClass())
    S = S->owner();
  return static_cast<ClassSymbol *>(S);
}

std::string Symbol::fullName() const {
  std::string Result(name().text());
  for (Symbol *S = owner(); S && !S->is(SymFlag::Package); S = S->owner()) {
    std::string Prefix(S->name().text());
    Result = Prefix + "." + Result;
  }
  return Result;
}

ClassSymbol *ClassSymbol::superClass() const {
  for (const Type *P : Parents) {
    ClassSymbol *Cls = P->classSymbol();
    if (Cls && !Cls->isTrait())
      return Cls;
  }
  // Trait-only parent lists still have a superclass via the first trait's
  // own superclass chain; the root class has no parents at all.
  for (const Type *P : Parents)
    if (ClassSymbol *Cls = P->classSymbol())
      return Cls->superClass();
  return nullptr;
}

void ClassSymbol::removeMember(Symbol *S) {
  auto It = std::find(Members.begin(), Members.end(), S);
  if (It != Members.end()) {
    Members.erase(It);
    MemberIdxDirty = true;
  }
}

bool ClassSymbol::hasMember(Symbol *S) const {
  return std::find(Members.begin(), Members.end(), S) != Members.end();
}

Symbol *ClassSymbol::findDeclaredMember(Name MemberName) const {
  // Tiny classes stay on the linear scan (an index would cost more to
  // maintain than it saves); larger ones answer from the flat
  // ordinal-keyed index, rebuilt lazily after any member mutation.
  if (Members.size() < 8) {
    for (Symbol *M : Members)
      if (M->name() == MemberName)
        return M;
    return nullptr;
  }
  if (MemberIdxDirty) {
    MemberIdx.clear();
    // insertIfAbsent keeps the first declaration on duplicate names,
    // matching the scan's first-match semantics.
    for (Symbol *M : Members)
      MemberIdx.insertIfAbsent(M->name().ordinal(), M);
    MemberIdxDirty = false;
  }
  Symbol *const *Found = MemberIdx.find(MemberName.ordinal());
  return Found ? *Found : nullptr;
}

Symbol *ClassSymbol::findMember(Name MemberName) const {
  if (Symbol *M = findDeclaredMember(MemberName))
    return M;
  for (const Type *P : Parents) {
    ClassSymbol *Cls = P->classSymbol();
    if (!Cls)
      continue;
    if (Symbol *M = Cls->findMember(MemberName))
      return M;
  }
  return nullptr;
}

bool ClassSymbol::derivesFrom(const ClassSymbol *Other) const {
  if (this == Other)
    return true;
  for (const Type *P : Parents) {
    ClassSymbol *Cls = P->classSymbol();
    if (Cls && Cls->derivesFrom(Other))
      return true;
  }
  return false;
}

void ClassSymbol::collectAncestors(std::vector<ClassSymbol *> &Out) const {
  for (const Type *P : Parents) {
    ClassSymbol *Cls = P->classSymbol();
    if (!Cls)
      continue;
    if (std::find(Out.begin(), Out.end(), Cls) == Out.end()) {
      Out.push_back(Cls);
      Cls->collectAncestors(Out);
    }
  }
}

//===----------------------------------------------------------------------===//
// SymbolTable
//===----------------------------------------------------------------------===//

SymbolTable::SymbolTable(NameTable &Names, TypeContext &Types)
    : Names(Names), Types(Types) {
  Std.Init = Names.intern("<init>");
  Std.Apply = Names.intern("apply");
  Std.Main = Names.intern("main");
  Std.Elem = Names.intern("elem");
  Std.ModuleInstance = Names.intern("MODULE$");
  Std.Outer = Names.intern("$outer");
  Std.This = Names.intern("this");
  Std.Wildcard = Names.intern("_");
  Std.Length = Names.intern("length");
  Std.Update = Names.intern("update");
  Std.Println = Names.intern("println");
  Std.Print = Names.intern("print");
  Std.ClassOf = Names.intern("classOf");
  Std.Value = Names.intern("value");
  Std.Message = Names.intern("message");
  Std.Equals = Names.intern("equals");
  Std.EqEq = Names.intern("==");
  Std.BangEq = Names.intern("!=");
  Std.GetClass = Names.intern("getClass");
  Std.ToString = Names.intern("toString");
  Std.IsInstanceOf = Names.intern("isInstanceOf");
  Std.AsInstanceOf = Names.intern("asInstanceOf");
  Std.Label = Names.intern("label");
  Std.LiftedTry = Names.intern("liftedTree");
  Std.Bitmap = Names.intern("bitmap");

  RootPkg = makeTerm(Names.intern("<root>"), nullptr,
                     SymFlag::Package | SymFlag::Builtin);

  // The root reference class (AnyRef / java.lang.Object analogue).
  ObjectCls = makeBuiltinClass("Object", nullptr);
  ObjectTy = Types.classType(ObjectCls);

  StringCls = makeBuiltinClass("String", ObjectCls, SymFlag::Final);
  StringTy = Types.classType(StringCls);

  ThrowableCls = makeBuiltinClass("Throwable", ObjectCls);
  ThrowableTy = Types.classType(ThrowableCls);
  {
    Symbol *Msg = makeTerm(Std.Message, ThrowableCls,
                           SymFlag::Field | SymFlag::Builtin, StringTy);
    ThrowableCls->enterMember(Msg);
  }

  MatchErrorCls = makeBuiltinClass("MatchError", ThrowableCls);
  NonLocalReturnCls = makeBuiltinClass("NonLocalReturnControl", ThrowableCls);
  {
    Symbol *Val =
        makeTerm(Std.Value, NonLocalReturnCls,
                 SymFlag::Field | SymFlag::Builtin, Types.anyType());
    NonLocalReturnCls->enterMember(Val);
  }

  // Function0..Function5 with an abstract apply member. The apply signature
  // is generic in spirit; we give it Object-typed params, and the typer
  // special-cases application of FunctionType values anyway.
  for (unsigned Arity = 0; Arity <= MaxFunctionArity; ++Arity) {
    std::string ClsName = "Function" + std::to_string(Arity);
    ClassSymbol *F = makeBuiltinClass(ClsName.c_str(), ObjectCls,
                                      SymFlag::Trait);
    std::vector<const Type *> Params(Arity, Types.anyType());
    Symbol *ApplySym =
        makeTerm(Std.Apply, F,
                 SymFlag::Method | SymFlag::Abstract | SymFlag::Builtin,
                 Types.methodType(std::move(Params), Types.anyType()));
    F->enterMember(ApplySym);
    FunctionCls[Arity] = F;
  }

  // Ref boxes for captured vars.
  auto MakeRef = [&](const char *ClsName, const Type *ElemTy) {
    ClassSymbol *R = makeBuiltinClass(ClsName, ObjectCls, SymFlag::Final);
    Symbol *Elem = makeTerm(Std.Elem, R,
                            SymFlag::Field | SymFlag::Mutable |
                                SymFlag::Builtin,
                            ElemTy);
    R->enterMember(Elem);
    return R;
  };
  IntRefCls = MakeRef("IntRef", Types.intType());
  BooleanRefCls = MakeRef("BooleanRef", Types.booleanType());
  DoubleRefCls = MakeRef("DoubleRef", Types.doubleType());
  ObjectRefCls = MakeRef("ObjectRef", ObjectTy);

  // Predef module: println/print/classOf.
  PredefCls = makeBuiltinClass("Predef$", ObjectCls, SymFlag::ModuleClass);
  PredefVal = makeTerm(Names.intern("Predef"), RootPkg,
                       SymFlag::Module | SymFlag::Builtin | SymFlag::Final,
                       Types.classType(PredefCls));
  PrintlnSym = makeTerm(Std.Println, PredefCls,
                        SymFlag::Method | SymFlag::Builtin,
                        Types.methodType({Types.anyType()}, Types.unitType()));
  PredefCls->enterMember(PrintlnSym);
  PrintSym = makeTerm(Std.Print, PredefCls,
                      SymFlag::Method | SymFlag::Builtin,
                      Types.methodType({Types.anyType()}, Types.unitType()));
  PredefCls->enterMember(PrintSym);
  {
    // classOf[T](): Object — a PolyType over one type parameter.
    Symbol *TP = makeTerm(Names.intern("T"), PredefCls,
                          SymFlag::TypeParam | SymFlag::Builtin);
    ClassOfSym = makeTerm(Std.ClassOf, PredefCls,
                          SymFlag::Method | SymFlag::Builtin,
                          Types.polyType({TP}, Types.methodType({}, ObjectTy)));
    PredefCls->enterMember(ClassOfSym);
  }

  // Runtime module: null-safe equals used by InterceptedMethods.
  RuntimeCls = makeBuiltinClass("Runtime$", ObjectCls, SymFlag::ModuleClass);
  RuntimeVal = makeTerm(Names.intern("Runtime"), RootPkg,
                        SymFlag::Module | SymFlag::Builtin | SymFlag::Final,
                        Types.classType(RuntimeCls));
  RuntimeEqualsSym =
      makeTerm(Std.Equals, RuntimeCls, SymFlag::Method | SymFlag::Builtin,
               Types.methodType({Types.anyType(), Types.anyType()},
                                Types.booleanType()));
  RuntimeCls->enterMember(RuntimeEqualsSym);

  // isInstanceOf / asInstanceOf intrinsics: [T]()Boolean and [T]()T.
  {
    Symbol *TP1 = makeTerm(Names.intern("T"), ObjectCls,
                           SymFlag::TypeParam | SymFlag::Builtin);
    IsInstanceOfSym = makeTerm(
        Std.IsInstanceOf, ObjectCls,
        SymFlag::Method | SymFlag::Builtin | SymFlag::Final,
        Types.polyType({TP1}, Types.methodType({}, Types.booleanType())));
    Symbol *TP2 = makeTerm(Names.intern("T"), ObjectCls,
                           SymFlag::TypeParam | SymFlag::Builtin);
    AsInstanceOfSym =
        makeTerm(Std.AsInstanceOf, ObjectCls,
                 SymFlag::Method | SymFlag::Builtin | SymFlag::Final,
                 Types.polyType({TP2}, Types.methodType(
                                           {}, Types.typeParamRef(TP2))));
  }

  // Runtime.newArray[T](Int): Array[T] — backs `new Array[T](n)`.
  {
    Symbol *TP = makeTerm(Names.intern("T"), RuntimeCls,
                          SymFlag::TypeParam | SymFlag::Builtin);
    NewArraySym = makeTerm(
        Names.intern("newArray"), RuntimeCls,
        SymFlag::Method | SymFlag::Builtin,
        Types.polyType({TP},
                       Types.methodType({Types.intType()},
                                        Types.arrayType(
                                            Types.typeParamRef(TP)))));
    RuntimeCls->enterMember(NewArraySym);
  }

  // Object members usable on any reference: ==, !=, equals, toString.
  {
    const Type *EqTy =
        Types.methodType({Types.anyType()}, Types.booleanType());
    auto AddObj = [&](Name N, const Type *Ty) {
      Symbol *S = makeTerm(N, ObjectCls,
                           SymFlag::Method | SymFlag::Builtin, Ty);
      ObjectCls->enterMember(S);
      return S;
    };
    AddObj(Std.EqEq, EqTy);
    AddObj(Std.BangEq, EqTy);
    AddObj(Std.Equals, EqTy);
    AddObj(Std.ToString, Types.methodType({}, StringTy));
    // getClass yields a class literal comparable against classOf[T].
    AddObj(Std.GetClass, Types.methodType({}, ObjectTy));
  }

  // String members: concatenation and length.
  {
    Symbol *Concat = makeTerm(Names.intern("+"), StringCls,
                              SymFlag::Method | SymFlag::Builtin,
                              Types.methodType({Types.anyType()}, StringTy));
    StringCls->enterMember(Concat);
    Symbol *Len = makeTerm(Std.Length, StringCls,
                           SymFlag::Method | SymFlag::Builtin,
                           Types.methodType({}, Types.intType()));
    StringCls->enterMember(Len);
  }

  // Array pseudo-members. Their infos use Any; the typer retypes Select
  // nodes on arrays with the precise element type.
  ArrayApplySym = makeTerm(Std.Apply, ObjectCls,
                           SymFlag::Method | SymFlag::Builtin,
                           Types.methodType({Types.intType()},
                                            Types.anyType()));
  ArrayUpdateSym =
      makeTerm(Std.Update, ObjectCls, SymFlag::Method | SymFlag::Builtin,
               Types.methodType({Types.intType(), Types.anyType()},
                                Types.unitType()));
  ArrayLengthSym = makeTerm(Std.Length, ObjectCls,
                            SymFlag::Method | SymFlag::Builtin,
                            Types.methodType({}, Types.intType()));

  // Builtin constructors for classes that transforms instantiate.
  auto AddInit = [&](ClassSymbol *Cls, std::vector<const Type *> Params) {
    Symbol *Init = makeTerm(Std.Init, Cls,
                            SymFlag::Method | SymFlag::Constructor |
                                SymFlag::Builtin,
                            Types.methodType(std::move(Params),
                                             Types.unitType()));
    Cls->enterMember(Init);
  };
  AddInit(ObjectCls, {});
  AddInit(ThrowableCls, {StringTy});
  AddInit(MatchErrorCls, {});
  AddInit(NonLocalReturnCls, {Types.anyType()});
  AddInit(IntRefCls, {Types.intType()});
  AddInit(BooleanRefCls, {Types.booleanType()});
  AddInit(DoubleRefCls, {Types.doubleType()});
  AddInit(ObjectRefCls, {ObjectTy});

  // Primitive operator intrinsics, registered in the flat dispatch table.
  auto OpIndexOf = [&](Name OpName) -> int16_t {
    uint32_t Ord = OpName.ordinal();
    if (Ord >= PrimOpIdxByOrdinal.size())
      PrimOpIdxByOrdinal.resize(Ord + 1, -1);
    if (PrimOpIdxByOrdinal[Ord] < 0) {
      assert(NumPrimOpNames < static_cast<int16_t>(MaxPrimOps) &&
             "grow MaxPrimOps");
      PrimOpIdxByOrdinal[Ord] = NumPrimOpNames++;
    }
    return PrimOpIdxByOrdinal[Ord];
  };
  auto AddOp = [&](PrimKind P, const char *Op, PrimOpKind Kind,
                   const Type *Ret, bool Unary = false) {
    Name OpName = Names.intern(Op);
    std::vector<const Type *> Params;
    if (!Unary)
      Params.push_back(Types.primType(P));
    Symbol *S = makeTerm(OpName, RootPkg,
                         SymFlag::Method | SymFlag::Builtin | SymFlag::Final |
                             SymFlag::PrimOp,
                         Types.methodType(std::move(Params), Ret));
    PrimOpTable[static_cast<unsigned>(P)][OpIndexOf(OpName)] = S;
    // Record the operator's dense kind next to its name ordinal (the
    // kind depends on the name only, never on the primitive type).
    uint32_t Ord = OpName.ordinal();
    if (Ord >= PrimOpKindByOrdinal.size())
      PrimOpKindByOrdinal.resize(Ord + 1, -1);
    PrimOpKindByOrdinal[Ord] = static_cast<int8_t>(Kind);
  };
  using POK = PrimOpKind;
  constexpr std::pair<const char *, POK> Arith[] = {
      {"+", POK::Add}, {"-", POK::Sub}, {"*", POK::Mul},
      {"/", POK::Div}, {"%", POK::Rem}};
  constexpr std::pair<const char *, POK> Cmp[] = {
      {"<", POK::CmpLt}, {"<=", POK::CmpLe}, {">", POK::CmpGt},
      {">=", POK::CmpGe}, {"==", POK::CmpEq}, {"!=", POK::CmpNe}};
  for (PrimKind P : {PrimKind::Int, PrimKind::Double}) {
    const Type *Self = Types.primType(P);
    for (auto [Op, K] : Arith)
      AddOp(P, Op, K, Self);
    for (auto [Op, K] : Cmp)
      AddOp(P, Op, K, Types.booleanType());
    AddOp(P, "unary_-", POK::Neg, Self, /*Unary=*/true);
  }
  AddOp(PrimKind::Boolean, "&&", POK::And, Types.booleanType());
  AddOp(PrimKind::Boolean, "||", POK::Or, Types.booleanType());
  AddOp(PrimKind::Boolean, "==", POK::CmpEq, Types.booleanType());
  AddOp(PrimKind::Boolean, "!=", POK::CmpNe, Types.booleanType());
  AddOp(PrimKind::Boolean, "unary_!", POK::Not, Types.booleanType(),
        /*Unary=*/true);
}

PrimOpKind SymbolTable::primOpKindOf(Name Op) const {
  uint32_t Ord = Op.ordinal();
  if (Ord >= PrimOpKindByOrdinal.size())
    return PrimOpKind::None;
  return static_cast<PrimOpKind>(PrimOpKindByOrdinal[Ord]);
}

Symbol *SymbolTable::primOp(PrimKind P, Name Op) const {
  uint32_t Ord = Op.ordinal();
  if (Ord >= PrimOpIdxByOrdinal.size())
    return nullptr;
  int16_t Idx = PrimOpIdxByOrdinal[Ord];
  if (Idx < 0)
    return nullptr;
  return PrimOpTable[static_cast<unsigned>(P)][Idx];
}

Symbol *SymbolTable::makeTerm(Name N, Symbol *Owner, uint64_t Flags,
                              const Type *Info) {
  auto Owned = std::make_unique<Symbol>(Symbol::SymKind::Term, NextId++, N,
                                        Owner, Flags);
  Symbol *S = Owned.get();
  S->setInfo(Info);
  Symbols.push_back(std::move(Owned));
  return S;
}

ClassSymbol *SymbolTable::makeClass(Name N, Symbol *Owner, uint64_t Flags) {
  auto Owned = std::make_unique<ClassSymbol>(NextId++, N, Owner, Flags);
  ClassSymbol *S = Owned.get();
  Symbols.push_back(std::move(Owned));
  return S;
}

Name SymbolTable::freshName(std::string_view Base) {
  return Names.internSuffixed(Base, ++FreshCounter);
}

ClassSymbol *SymbolTable::makeBuiltinClass(const char *ClsName,
                                           ClassSymbol *Super,
                                           uint64_t Flags) {
  ClassSymbol *Cls = makeClass(Names.intern(ClsName), RootPkg,
                               Flags | SymFlag::Builtin);
  if (Super)
    Cls->setParents({Types.classType(Super)});
  Cls->setInfo(Types.classType(Cls));
  return Cls;
}

ClassSymbol *SymbolTable::functionClass(unsigned Arity) const {
  assert(Arity <= MaxFunctionArity && "function arity too large");
  return FunctionCls[Arity];
}

ClassSymbol *SymbolTable::refClassFor(const Type *Underlying) const {
  if (Underlying->isPrim(PrimKind::Int))
    return IntRefCls;
  if (Underlying->isPrim(PrimKind::Boolean))
    return BooleanRefCls;
  if (Underlying->isPrim(PrimKind::Double))
    return DoubleRefCls;
  return ObjectRefCls;
}
