//===----------------------------------------------------------------------===//
///
/// \file
/// guest_exec: five hand-written, long-running MiniScala programs (array
/// sieve; recursive fib and n-queens backtracking; megamorphic dispatch
/// with case-class matching; closure folds; string building with
/// try/catch/finally) are compiled once in set-up. Each op is
/// linkProgram -> VM constructor -> VM::runMain, the three calls
/// executeProgram makes for ExecEngine::VM, and its output is checked
/// against the program's hand-written expected output. VM dispatch,
/// inline caches and guest allocation do the work; the compiler does
/// none.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "backend/Interpreter.h"
#include "backend/Linker.h"
#include "backend/VM.h"
#include "driver/Driver.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

using namespace mpc;

namespace perfbench {
namespace {

/// Latency limit of slo_share: above the p90 op time (23-35 ms on the
/// 4-vCPU host the benchmark was built on, depending on the host's load),
/// so a large slowdown shows as ops that miss it.
constexpr double SloMs = 60;

/// The speed probe (about 20 ms) runs after every ProbeEvery-th op:
/// under a tenth of the measured span.
constexpr uint64_t ProbeEvery = 16;

/// Five programs, so with every program run equally often the median
/// and the p90 fall inside one program's run-time cluster, never on the
/// edge between two.
const char *const ProgramNames[] = {"sieve", "recursion", "shapes",
                                    "closures", "strings"};

/// One compiled guest program. Out references Comp's trees and symbols,
/// so it is declared after Comp and destroyed first.
struct Guest {
  std::string Name;
  std::string Expected;
  std::unique_ptr<CompilerContext> Comp;
  CompileOutput Out;
  uint64_t RefSteps = 0;
};

bool readFile(const std::string &Path, std::string &Text) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Text = SS.str();
  return true;
}

/// Compiles every program of ProgramsDir; failures go to \p Errors.
std::vector<Guest> compileGuests(const Options &O,
                                 std::vector<std::string> &Errors) {
  std::vector<Guest> Guests;
  for (const char *Name : ProgramNames) {
    Guest G;
    G.Name = Name;
    std::string Source;
    std::string Base = O.ProgramsDir + "/" + Name;
    if (!readFile(Base + ".scala", Source) ||
        !readFile(Base + ".expected", G.Expected)) {
      Errors.push_back("cannot read " + Base + ".scala/.expected");
      continue;
    }
    G.Comp = std::make_unique<CompilerContext>();
    std::vector<SourceInput> Sources;
    Sources.push_back({G.Name + ".scala", std::move(Source)});
    G.Out = compileProgram(*G.Comp, std::move(Sources),
                           PipelineKind::StandardFused);
    if (!G.Comp->diags().all().empty())
      Errors.push_back(G.Name + ": " + G.Comp->diags().all().front().Message);
    else if (G.Out.EntryPoints.empty())
      Errors.push_back(G.Name + ": no entry point");
    else
      Guests.push_back(std::move(G));
  }
  return Guests;
}

struct ExecOp {
  double OpMs = 0, RunMs = 0;
  ExecResult Res;
};

/// One op: link, construct the VM, run main, tear down. With a tracer the
/// three calls are spans under the op's root span.
ExecOp execOnce(Guest &G, Tracer *T, uint64_t OpId) {
  ExecOp E;
  int64_t Root = T ? T->open(OpId, -1, "op") : -1;
  Clock::time_point A = Clock::now();
  auto Linked =
      std::make_unique<LinkedProgram>(linkProgram(G.Out.Prog, *G.Comp));
  Clock::time_point B = Clock::now();
  std::optional<VM> M;
  M.emplace(*G.Comp, *Linked);
  Clock::time_point C = Clock::now();
  E.Res = M->runMain(G.Out.EntryPoints.front());
  Clock::time_point D = Clock::now();
  M.reset();
  Linked.reset();
  Clock::time_point F = Clock::now();
  E.OpMs = msBetween(A, F);
  E.RunMs = msBetween(C, D);
  if (T) {
    T->add(OpId, Root, "backend.link", A, B);
    T->add(OpId, Root, "backend.vm.init", B, C);
    T->add(OpId, Root, "backend.vm.run", C, D);
    T->close(Root, A, F);
  }
  return E;
}

void checkOp(Report &R, const Guest &G, const ExecOp &E) {
  ++R.Attempted;
  if (E.Res.Uncaught)
    R.fail(G.Name + ": uncaught " + E.Res.Error);
  else if (E.Res.Output != G.Expected)
    R.fail(G.Name + ": output differs from " + G.Name + ".expected");
  else if (E.Res.StepsExecuted != G.RefSteps)
    R.fail(G.Name + ": dispatch count differs from the set-up run");
}

/// The op order within each round: a seeded permutation of the programs.
std::vector<size_t> roundOrder(uint64_t Seed, uint64_t Round, size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[mixSeed(Seed, Round * 64 + I) % I]);
  return Order;
}

/// The link and VM counters an op adds to its context's stats.
const char *const OpCounters[] = {
    "backend.link.instrs",       "backend.link.superinstrs",
    "backend.vm.alloc.objects",  "backend.vm.alloc.arrays",
    "backend.vm.ic.call.hits",   "backend.vm.ic.call.misses",
    "backend.vm.ic.field.hits",  "backend.vm.ic.field.misses"};

} // namespace

Report runGuestExec(const Options &O) {
  Report R;
  std::vector<Guest> Guests;
  // Exact counts of one reference round (one op per program).
  std::map<std::string, uint64_t> Round;
  uint64_t Dispatches = 0;
  SpeedProbe Probe;
  double SetupSec = medianSetup(O.SetupReps, Probe, [&](bool) {
    Guests.clear();
    std::vector<std::string> Errors;
    Guests = compileGuests(O, Errors);
    for (const std::string &E : Errors)
      R.problem("set-up: " + E);
    // Warm-up round; it also records each program's dispatch count.
    Round.clear();
    Dispatches = 0;
    for (Guest &G : Guests) {
      StatsRegistry Before = G.Comp->stats();
      ExecOp E = execOnce(G, nullptr, 0);
      G.RefSteps = E.Res.StepsExecuted;
      if (E.Res.Uncaught || E.Res.Output != G.Expected)
        R.problem("set-up run of " + G.Name + " is wrong: " +
                  (E.Res.Uncaught ? E.Res.Error : E.Res.Output));
      for (const char *Key : OpCounters)
        Round[Key] += G.Comp->stats().get(Key) - Before.get(Key);
      Dispatches += E.Res.StepsExecuted;
    }
  });
  if (Guests.empty()) {
    R.problem("no guest program compiled");
    return R;
  }
  char Buf[256];
  for (const Guest &G : Guests) {
    std::snprintf(Buf, sizeof(Buf), "guest %-9s %10llu dispatches per run",
                  G.Name.c_str(),
                  static_cast<unsigned long long>(G.RefSteps));
    R.detail(Buf);
  }

  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(O.Seconds));
  // Runs end on a round boundary, so every program runs equally often.
  size_t N = Guests.size();
  if (!O.Trace) {
    std::vector<double> Raw;
    std::vector<Clock::time_point> Done;
    std::vector<bool> Passed;
    for (uint64_t I = 0; Clock::now() < Deadline || I % N != 0; ++I) {
      Guest &G = Guests[roundOrder(O.Seed, I / N, N)[I % N]];
      ExecOp E = execOnce(G, nullptr, I);
      uint64_t FailedBefore = R.Failed;
      checkOp(R, G, E);
      Raw.push_back(E.OpMs);
      Done.push_back(Clock::now());
      Passed.push_back(R.Failed == FailedBefore);
      if (I % ProbeEvery == 0)
        Probe.sample();
    }
    std::vector<double> Lat;
    double BusyMs = 0;
    uint64_t WithinSlo = 0;
    for (size_t I = 0; I < Raw.size(); ++I) {
      Lat.push_back(Raw[I] * Probe.scale(Done[I]));
      BusyMs += Lat.back();
      WithinSlo += Passed[I] && Lat.back() <= SloMs;
    }
    reportEndToEnd(R, Lat, BusyMs / 1000, SetupSec,
                   double(WithinSlo) / double(Lat.size()), Raw, Probe);
    return R;
  }

  // Traced run: (untraced, traced) pairs on the same program.
  Tracer T;
  std::vector<double> Untraced, Traced;
  std::map<std::string, std::vector<double>> RunMsByProgram;
  double RunMsTotal = 0;
  uint64_t StepsTotal = 0;
  for (uint64_t I = 0; Clock::now() < Deadline || I % N != 0; ++I) {
    Guest &G = Guests[roundOrder(O.Seed, I / N, N)[I % N]];
    ExecOp U = execOnce(G, nullptr, I);
    checkOp(R, G, U);
    ExecOp Tr = execOnce(G, &T, I);
    checkOp(R, G, Tr);
    Untraced.push_back(U.OpMs);
    Traced.push_back(Tr.OpMs);
    RunMsByProgram[G.Name].push_back(Tr.RunMs);
    RunMsTotal += Tr.RunMs;
    StepsTotal += Tr.Res.StepsExecuted;
  }
  double OpMean = mean(Traced);
  std::map<std::string, double> Self =
      summarizeTrace(R, T, Traced.size(), OpMean);
  R.metric("backend.link.self_ms", Self["backend.link"], "ms");
  R.metric("backend.vm.init_ms", Self["backend.vm.init"], "ms");
  R.metric("backend.vm.run_ms", Self["backend.vm.run"], "ms");
  R.metric("residual_ms", Self["op"], "ms");
  R.metric("trace.op_ms", OpMean, "ms");
  R.metric("trace.overhead_ms", OpMean - mean(Untraced), "ms");
  for (const char *Name : ProgramNames)
    R.metric(std::string("backend.vm.run_ms.") + Name,
             median(RunMsByProgram[Name]), "ms");
  auto Ratio = [&](const char *Hits, const char *Misses) {
    uint64_t All = Round[Hits] + Round[Misses];
    return All ? double(Round[Hits]) / double(All) : 0.0;
  };
  R.metric("backend.link.instrs", double(Round["backend.link.instrs"]),
           "count");
  R.metric("backend.link.superinstrs",
           double(Round["backend.link.superinstrs"]), "count");
  R.metric("backend.vm.dispatches", double(Dispatches), "count");
  R.metric("backend.vm.dispatches_per_s",
           RunMsTotal > 0 ? double(StepsTotal) / (RunMsTotal / 1000) : 0,
           "1/s");
  R.metric("backend.vm.ic_call_hit_ratio",
           Ratio("backend.vm.ic.call.hits", "backend.vm.ic.call.misses"),
           "ratio");
  R.metric("backend.vm.ic_field_hit_ratio",
           Ratio("backend.vm.ic.field.hits", "backend.vm.ic.field.misses"),
           "ratio");
  R.metric("backend.vm.allocs",
           double(Round["backend.vm.alloc.objects"] +
                  Round["backend.vm.alloc.arrays"]),
           "count");
  if (!T.write(O.TraceDir + "/guest_exec.spans.jsonl"))
    R.problem("cannot write the span file under " + O.TraceDir);
  return R;
}

bool checkGuestOracle(const Options &O) {
  std::vector<std::string> Errors;
  std::vector<Guest> Guests = compileGuests(O, Errors);
  for (const std::string &E : Errors)
    std::printf("FAIL %s\n", E.c_str());
  bool Ok = Errors.empty();
  for (Guest &G : Guests) {
    Interpreter I(*G.Comp, G.Out.Units);
    ExecResult Tree = I.runMain(G.Out.EntryPoints.front());
    ExecOp E = execOnce(G, nullptr, 0);
    bool Same = !Tree.Uncaught && !E.Res.Uncaught &&
                Tree.Output == E.Res.Output && Tree.Output == G.Expected;
    std::printf("%s %s: tree-walker %s, VM %s\n", Same ? "ok  " : "FAIL",
                G.Name.c_str(),
                Tree.Output == G.Expected ? "matches expected" : "differs",
                E.Res.Output == G.Expected ? "matches expected" : "differs");
    Ok = Ok && Same;
  }
  return Ok;
}

} // namespace perfbench
