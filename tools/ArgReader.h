//===----------------------------------------------------------------------===//
//
// ArgReader: the command-line reader of the network tools (mpc_served,
// mpc_load_client). Flags are read left to right; every value is checked
// as it is read, and a missing, malformed, non-finite or out-of-range one
// ends the program with status 2 — before the tool connects, binds or
// starts a thread.
//
//===----------------------------------------------------------------------===//

#ifndef MPC_TOOLS_ARGREADER_H
#define MPC_TOOLS_ARGREADER_H

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

class ArgReader {
public:
  ArgReader(const char *Tool, int Argc, char **Argv)
      : Tool(Tool), Argc(Argc), Argv(Argv) {}

  /// Moves to the next flag; false when none is left.
  bool next() { return ++I < Argc; }

  /// The current flag.
  std::string flag() const { return Argv[I]; }

  /// Consumes the value after the current flag.
  const char *value() {
    if (I + 1 >= Argc)
      fail(flag() + " needs a value");
    return Argv[++I];
  }

  /// Consumes the value as a plain decimal integer in [Lo, Hi].
  uint64_t integer(uint64_t Lo, uint64_t Hi) {
    std::string Flag = flag();
    const char *S = value();
    char *End = nullptr;
    errno = 0;
    // strtoull would accept a sign or leading space; demand a digit first.
    unsigned long long V = 0;
    if (std::isdigit(static_cast<unsigned char>(S[0])))
      V = std::strtoull(S, &End, 10);
    if (!End || *End != '\0' || errno == ERANGE || V < Lo || V > Hi)
      fail(Flag + " '" + S + "' is not an integer in [" + std::to_string(Lo) +
           ", " + std::to_string(Hi) + "]");
    return V;
  }

  /// Consumes the value as a finite number in [0, Hi].
  double number(double Hi) {
    std::string Flag = flag();
    const char *S = value();
    char *End = nullptr;
    double V = std::strtod(S, &End);
    if (End == S || *End != '\0' || !std::isfinite(V) || V < 0 || V > Hi) {
      char HiText[32];
      std::snprintf(HiText, sizeof(HiText), "%g", Hi);
      fail(Flag + " '" + S + "' is not a finite number in [0, " + HiText +
           "]");
    }
    return V;
  }

  /// Prints "<tool>: <Message>" and exits with status 2.
  [[noreturn]] void fail(const std::string &Message) const {
    std::fprintf(stderr, "%s: %s\n", Tool, Message.c_str());
    std::exit(2);
  }

private:
  const char *Tool;
  int Argc;
  char **Argv;
  int I = 0;
};

#endif // MPC_TOOLS_ARGREADER_H
