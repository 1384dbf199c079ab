//===----------------------------------------------------------------------===//
///
/// \file
/// Source locations and diagnostic collection. The compiler reports problems
/// through a DiagnosticEngine rather than aborting, so tests can assert on
/// produced diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_SUPPORT_DIAGNOSTICS_H
#define MPC_SUPPORT_DIAGNOSTICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace mpc {

class OStream;

/// A position in a source file: 1-based line/column, file id into the
/// driver's file table. Line 0 means "no location".
struct SourceLoc {
  uint32_t FileId = 0;
  uint32_t Line = 0;
  uint32_t Col = 0;

  bool isValid() const { return Line != 0; }
  bool operator==(const SourceLoc &O) const {
    return FileId == O.FileId && Line == O.Line && Col == O.Col;
  }
};

enum class DiagSeverity { Note, Warning, Error };

/// One reported problem.
struct Diagnostic {
  DiagSeverity Severity;
  SourceLoc Loc;
  std::string Message;
};

/// Collects diagnostics; printing is separate from reporting.
///
/// To keep pathological inputs (fuzzed or machine-generated garbage) from
/// flooding memory and logs, each file stores at most MaxPerFile
/// diagnostics; the first one past the cap is replaced with a single
/// "too many errors, stopping" summary and the rest are counted but
/// dropped. Suppressed errors still count toward errorCount(), so
/// hasErrors() and driver decisions are unaffected by the cap.
class DiagnosticEngine {
public:
  void error(SourceLoc Loc, std::string Message) {
    ++NumErrors;
    report(DiagSeverity::Error, Loc, std::move(Message));
  }
  void warning(SourceLoc Loc, std::string Message) {
    report(DiagSeverity::Warning, Loc, std::move(Message));
  }
  void note(SourceLoc Loc, std::string Message) {
    report(DiagSeverity::Note, Loc, std::move(Message));
  }

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &all() const { return Diags; }

  /// Diagnostics actually stored (including per-file cap summaries).
  size_t emittedCount() const { return Diags.size(); }
  /// Diagnostics dropped by the per-file cap.
  uint64_t suppressedCount() const { return NumSuppressed; }
  /// Sets the per-file diagnostic cap; 0 disables capping.
  void setMaxDiagnosticsPerFile(uint32_t Max) { MaxPerFile = Max; }
  uint32_t maxDiagnosticsPerFile() const { return MaxPerFile; }

  /// Registers a file name, returning its id for SourceLocs.
  uint32_t addFile(std::string FileName) {
    Files.push_back(std::move(FileName));
    return static_cast<uint32_t>(Files.size() - 1);
  }
  const std::string &fileName(uint32_t Id) const { return Files[Id]; }
  size_t fileCount() const { return Files.size(); }

  /// Pretty-prints all diagnostics in "file:line:col: severity: msg" form.
  void printAll(OStream &OS) const;

  void clear() {
    Diags.clear();
    PerFile.clear();
    NumErrors = 0;
    NumSuppressed = 0;
  }

private:
  void report(DiagSeverity Sev, SourceLoc Loc, std::string Message) {
    if (MaxPerFile != 0) {
      uint32_t F = Loc.FileId;
      if (F >= PerFile.size())
        PerFile.resize(F + 1, 0);
      uint32_t &Emitted = PerFile[F];
      if (Emitted >= MaxPerFile) {
        ++NumSuppressed;
        if (Emitted == MaxPerFile) {
          ++Emitted; // sentinel: the summary was written for this file
          Diags.push_back({DiagSeverity::Note, Loc,
                           "too many errors, stopping diagnostics for "
                           "this file"});
        }
        return;
      }
      ++Emitted;
    }
    Diags.push_back({Sev, Loc, std::move(Message)});
  }

  std::vector<Diagnostic> Diags;
  std::vector<std::string> Files;
  std::vector<uint32_t> PerFile; // diagnostics emitted per FileId
  unsigned NumErrors = 0;
  uint64_t NumSuppressed = 0;
  uint32_t MaxPerFile = 64;
};

} // namespace mpc

#endif // MPC_SUPPORT_DIAGNOSTICS_H
