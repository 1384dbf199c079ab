//===----------------------------------------------------------------------===//
//
// mpc_load_client: open-loop load generator against a running
// mpc_served instance.
//
//   mpc_load_client --port N [--rps R] [--requests N] [--connections N]
//                   [--seed N] [--scale F] [--variants N]
//                   [--deadline-ms N]
//
// --rps 0 (the default) runs closed-loop as fast as the connection pool
// allows — that measures the saturation ceiling; positive --rps offers a
// fixed open-loop arrival schedule and reports p50/p95/p99 end-to-end
// latency plus the server-reported queue-wait split.
//
// Every value is checked before anything connects or any thread starts:
// a malformed, non-finite or out-of-range value ends the run with status 2.
//
//===----------------------------------------------------------------------===//

#include "net/LoadGen.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace mpc::net;

namespace {

/// One worker thread runs per connection.
constexpr unsigned MaxConnections = 256;
/// One latency is stored per request. With a whole --rps (so >= 1 when
/// open-loop) the last scheduled arrival, NumRequests / Rps seconds in,
/// stays far inside the clock's range.
constexpr uint64_t MaxRequests = 10'000'000;
constexpr uint64_t MaxRps = 1'000'000;
/// Every variant is generated up front, at up to MaxScale times the base
/// workload.
constexpr double MaxScale = 10;
constexpr uint64_t MaxVariants = 1024;

const char *argValue(int Argc, char **Argv, int &I, const char *Flag) {
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "mpc_load_client: %s needs a value\n", Flag);
    std::exit(2);
  }
  return Argv[++I];
}

/// The decimal integer after \p Flag, which must lie in [Lo, Hi].
uint64_t argInt(int Argc, char **Argv, int &I, const char *Flag,
                uint64_t Lo, uint64_t Hi) {
  const char *S = argValue(Argc, Argv, I, Flag);
  char *End = nullptr;
  errno = 0;
  // strtoull would accept a sign or leading space; demand a digit first.
  unsigned long long V = 0;
  if (std::isdigit(static_cast<unsigned char>(S[0])))
    V = std::strtoull(S, &End, 10);
  if (!End || *End != '\0' || errno == ERANGE || V < Lo || V > Hi) {
    std::fprintf(stderr,
                 "mpc_load_client: %s '%s' is not an integer in [%llu, %llu]\n",
                 Flag, S, (unsigned long long)Lo, (unsigned long long)Hi);
    std::exit(2);
  }
  return V;
}

/// The finite number after \p Flag, which must lie in [0, Hi].
double argNum(int Argc, char **Argv, int &I, const char *Flag, double Hi) {
  const char *S = argValue(Argc, Argv, I, Flag);
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (End == S || *End != '\0' || !std::isfinite(V) || V < 0 || V > Hi) {
    std::fprintf(stderr,
                 "mpc_load_client: %s '%s' is not a finite number in "
                 "[0, %g]\n",
                 Flag, S, Hi);
    std::exit(2);
  }
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  LoadGenConfig Cfg;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--port")
      Cfg.Port =
          static_cast<uint16_t>(argInt(Argc, Argv, I, "--port", 1, 65535));
    else if (A == "--rps")
      Cfg.Rps = double(argInt(Argc, Argv, I, "--rps", 0, MaxRps));
    else if (A == "--requests")
      Cfg.NumRequests = argInt(Argc, Argv, I, "--requests", 1, MaxRequests);
    else if (A == "--connections")
      Cfg.Connections = static_cast<unsigned>(
          argInt(Argc, Argv, I, "--connections", 1, MaxConnections));
    else if (A == "--seed")
      Cfg.Seed = argInt(Argc, Argv, I, "--seed", 0, UINT64_MAX);
    else if (A == "--scale")
      Cfg.SourceScale = argNum(Argc, Argv, I, "--scale", MaxScale);
    else if (A == "--variants")
      Cfg.Variants = static_cast<unsigned>(
          argInt(Argc, Argv, I, "--variants", 1, MaxVariants));
    else if (A == "--deadline-ms")
      Cfg.DeadlineMillis =
          argInt(Argc, Argv, I, "--deadline-ms", 0, UINT64_MAX);
    else {
      std::fprintf(stderr, "mpc_load_client: unknown flag '%s'\n",
                   A.c_str());
      return 2;
    }
  }
  if (Cfg.Port == 0) {
    std::fprintf(stderr, "mpc_load_client: --port is required\n");
    return 2;
  }

  LoadGenReport Rep = runLoadGen(Cfg);
  std::printf("%s\n", formatReport(Rep).c_str());
  // Transport-level failure of every request = the server was not there.
  return Rep.Completed > 0 ? 0 : 1;
}
