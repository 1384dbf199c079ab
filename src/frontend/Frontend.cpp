#include "frontend/Frontend.h"

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "support/FaultInjector.h"
#include "support/OStream.h"

#include <cassert>
#include <stdexcept>

using namespace mpc;

std::vector<CompilationUnit>
mpc::runFrontEnd(CompilerContext &Comp, std::vector<SourceInput> Sources) {
  size_t Names0 = Comp.names().size();
  size_t Emitted0 = Comp.diags().emittedCount();
  uint64_t Suppressed0 = Comp.diags().suppressedCount();
  uint64_t ArenaBytes = 0;
  std::vector<ParsedUnit> Parsed;
  std::vector<Token> TokScratch; // one collection buffer for all units
  for (SourceInput &Src : Sources) {
    // Frontend stage loop: cancellation checkpoint + fault point between
    // sources. At this boundary only RAII state (parsed units, arenas) is
    // live, so an unwind from either releases everything it held.
    Comp.checkpoint();
    faultStagePoint(FaultSite::FrontendEntry);
    ParsedUnit PU;
    PU.FileName = Src.FileName;
    PU.FileId = Comp.diags().addFile(Src.FileName);
    PU.Source = std::move(Src.Text);
    PU.Arena = std::make_shared<SynArena>();

    Lexer Lex(PU.Source, PU.FileId, Comp.names(), Comp.diags());
    Parser P(Lex.lexAll(*PU.Arena, TokScratch), *PU.Arena, Comp.names(),
             Comp.diags());
    PU.Unit = P.parseUnit();
    ArenaBytes += PU.Arena->bytesUsed();
    Parsed.push_back(std::move(PU));
  }
  // Last pre-typer boundary: typing is the longest uninterruptible
  // stretch of the frontend, so check once more before entering it.
  Comp.checkpoint();
  Typer T(Comp);
  std::vector<CompilationUnit> Units = T.run(Parsed);
  // frontend.scopeProbes is recorded by the typer itself.
  Comp.stats().add("frontend.namesInterned", Comp.names().size() - Names0);
  Comp.stats().add("frontend.arenaBytes", ArenaBytes);
  Comp.stats().add("frontend.diagsEmitted",
                   Comp.diags().emittedCount() - Emitted0);
  Comp.stats().add("frontend.diagsSuppressed",
                   Comp.diags().suppressedCount() - Suppressed0);
  return Units;
}

CompilationUnit mpc::compileSingleSource(CompilerContext &Comp,
                                         const std::string &Text,
                                         bool RequireClean) {
  std::vector<SourceInput> Sources;
  Sources.push_back({"<test>", Text});
  std::vector<CompilationUnit> Units = runFrontEnd(Comp, std::move(Sources));
  if (RequireClean && Comp.diags().hasErrors()) {
    // Throw (rather than assert) so release builds and long-running fuzz
    // campaigns fail loudly with the diagnostics attached instead of
    // sailing past a compiled-out assert.
    std::string Msg = "frontend reported errors on test source:";
    for (const Diagnostic &D : Comp.diags().all()) {
      Msg += "\n  ";
      Msg += Comp.diags().fileName(D.Loc.FileId);
      Msg += ":" + std::to_string(D.Loc.Line) + ":" +
             std::to_string(D.Loc.Col) + ": " + D.Message;
    }
    throw std::runtime_error(Msg);
  }
  assert(Units.size() == 1);
  return std::move(Units[0]);
}
