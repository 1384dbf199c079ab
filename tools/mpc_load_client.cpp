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

#include "ArgReader.h"
#include "net/LoadGen.h"

#include <cstdio>
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

} // namespace

int main(int Argc, char **Argv) {
  LoadGenConfig Cfg;
  ArgReader Args("mpc_load_client", Argc, Argv);
  while (Args.next()) {
    std::string A = Args.flag();
    if (A == "--port")
      Cfg.Port = static_cast<uint16_t>(Args.integer(1, 65535));
    else if (A == "--rps")
      Cfg.Rps = double(Args.integer(0, MaxRps));
    else if (A == "--requests")
      Cfg.NumRequests = Args.integer(1, MaxRequests);
    else if (A == "--connections")
      Cfg.Connections =
          static_cast<unsigned>(Args.integer(1, MaxConnections));
    else if (A == "--seed")
      Cfg.Seed = Args.integer(0, UINT64_MAX);
    else if (A == "--scale")
      Cfg.SourceScale = Args.number(MaxScale);
    else if (A == "--variants")
      Cfg.Variants = static_cast<unsigned>(Args.integer(1, MaxVariants));
    else if (A == "--deadline-ms")
      Cfg.DeadlineMillis = Args.integer(0, UINT64_MAX);
    else
      Args.fail("unknown flag '" + A + "'");
  }
  if (Cfg.Port == 0)
    Args.fail("--port is required");

  LoadGenReport Rep = runLoadGen(Cfg);
  std::printf("%s\n", formatReport(Rep).c_str());
  // Transport-level failure of every request = the server was not there.
  return Rep.Completed > 0 ? 0 : 1;
}
