//===----------------------------------------------------------------------===//
// Frontend stage benchmark: lexer, parser, and typer wall time measured
// separately (the figure benches only report the frontend as one lump).
// This is the harness behind the frontend hot-path work: per-unit syntax
// arenas, the open-addressed NameTable, flat scope lookup, and the
// open-addressed type interner all land on these paths.
//
// Protocol: 5 repetitions (MPC_BENCH_REPS), median and range per stage,
// plus the frontend.* counters (names interned, syntax-arena bytes,
// scope-table probes) from the last repetition.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "frontend/Frontend.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Typer.h"
#include "support/OStream.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>

using namespace mpc;
using namespace mpc::bench;

namespace {

struct StageSamples {
  std::vector<double> Lex, Parse, Type, Total;
  uint64_t NamesInterned = 0;
  uint64_t ArenaBytes = 0;
  uint64_t ScopeProbes = 0;
  uint64_t SynNodes = 0;
  uint64_t Loc = 0;
};

void runWorkload(const WorkloadProfile &Profile, unsigned Reps,
                 bool Warmup = false) {
  auto Sources = generateWorkload(Profile);
  StageSamples S;
  S.Loc = countLines(Sources);

  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    CompilerContext Comp;
    size_t Names0 = Comp.names().size();

    // Stage 1: lex every unit.
    std::vector<ParsedUnit> Parsed;
    std::vector<SynList<Token>> TokenStreams;
    std::vector<Token> TokScratch;
    Parsed.reserve(Sources.size());
    TokenStreams.reserve(Sources.size());
    Timer T;
    for (const SourceInput &Src : Sources) {
      ParsedUnit PU;
      PU.FileName = Src.FileName;
      PU.FileId = Comp.diags().addFile(Src.FileName);
      PU.Source = Src.Text;
      PU.Arena = std::make_shared<SynArena>();
      Lexer Lex(PU.Source, PU.FileId, Comp.names(), Comp.diags());
      TokenStreams.push_back(Lex.lexAll(*PU.Arena, TokScratch));
      Parsed.push_back(std::move(PU));
    }
    double LexSec = T.elapsedSeconds();

    // Stage 2: parse every unit.
    T.reset();
    uint64_t SynNodes = 0, ArenaBytes = 0;
    for (size_t I = 0; I < Parsed.size(); ++I) {
      Parser P(TokenStreams[I], *Parsed[I].Arena, Comp.names(),
               Comp.diags());
      Parsed[I].Unit = P.parseUnit();
      SynNodes += Parsed[I].Arena->nodeCount();
      ArenaBytes += Parsed[I].Arena->bytesUsed();
    }
    double ParseSec = T.elapsedSeconds();

    // Stage 3: name + type every unit.
    T.reset();
    Typer Ty(Comp);
    std::vector<CompilationUnit> Units = Ty.run(Parsed);
    double TypeSec = T.elapsedSeconds();

    if (Comp.diags().hasErrors()) {
      Comp.diags().printAll(errs());
      std::abort();
    }
    (void)Units;

    S.Lex.push_back(LexSec);
    S.Parse.push_back(ParseSec);
    S.Type.push_back(TypeSec);
    S.Total.push_back(LexSec + ParseSec + TypeSec);
    S.NamesInterned = Comp.names().size() - Names0;
    S.ArenaBytes = ArenaBytes;
    S.ScopeProbes = Ty.scopeProbes();
    S.SynNodes = SynNodes;
  }
  if (Warmup)
    return;

  std::printf("\n[%s: %llu LOC, %llu syntax nodes]\n", Profile.Name.c_str(),
              (unsigned long long)S.Loc, (unsigned long long)S.SynNodes);
  auto Row = [](const char *Stage, const std::vector<double> &V) {
    std::printf("  %-18s %24s\n", Stage, fmtSummary(summarize(V)).c_str());
  };
  Row("lexer", S.Lex);
  Row("parser", S.Parse);
  Row("typer", S.Type);
  Row("frontend total", S.Total);
  std::printf("  names interned: %llu, syntax-arena bytes: %llu, "
              "scope probes: %llu\n",
              (unsigned long long)S.NamesInterned,
              (unsigned long long)S.ArenaBytes,
              (unsigned long long)S.ScopeProbes);
}

} // namespace

int main() {
  printHeader("Frontend stages — lexer / parser / typer wall time",
              "repo-specific hot-path benchmark (no paper figure)");
  double Scale = benchScale(1.0);
  unsigned Reps = benchReps();
  std::printf("workload scale: %.2f, repetitions: %u "
              "(MPC_BENCH_SCALE / MPC_BENCH_REPS to change)\n",
              Scale, Reps);
  // Warm-up run so allocator/page-cache state spreads evenly.
  runWorkload(stdlibProfile(0.05), 2, /*Warmup=*/true);
  runWorkload(stdlibProfile(Scale), Reps);
  runWorkload(dottyProfile(Scale), Reps);
  return 0;
}
