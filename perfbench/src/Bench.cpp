#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Rank = P / 100.0 * double(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Rank - double(Lo);
  return Values[Lo] * (1 - Frac) + Values[Hi] * Frac;
}

double median(std::vector<double> Values) {
  return percentile(std::move(Values), 50);
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / double(Values.size());
}

uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::vector<double> Tracer::selfMs() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = msBetween(Spans[I].Start, Spans[I].End);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= msBetween(S.Start, S.End);
  return Self;
}

Tracer::Totals Tracer::totals() const {
  std::vector<double> Self = selfMs();
  Totals T;
  for (size_t I = 0; I < Spans.size(); ++I) {
    T.SelfMs[Spans[I].Name] += Self[I];
    ++T.Count[Spans[I].Name];
  }
  return T;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Clock::time_point T0 = Spans.empty() ? Clock::time_point() : Spans[0].Start;
  for (const Span &S : Spans) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"op\": %llu, \"parent\": %lld, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                  static_cast<unsigned long long>(S.Op),
                  static_cast<long long>(S.Parent), S.Name,
                  msBetween(T0, S.Start) * 1000, msBetween(T0, S.End) * 1000);
    Out << Buf;
  }
  return static_cast<bool>(Out);
}

void SpeedProbe::sample() {
  constexpr uint32_t Keys = 40000, None = ~0u;
  Clock::time_point T0 = Clock::now();
  if (Nodes.size() != Keys) {
    Nodes.resize(Keys);
    Stack.reserve(Keys);
  }
  uint64_t X = 0x9e3779b97f4a7c15ULL;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  // Insert Keys random keys into an unbalanced search tree whose nodes
  // are taken from Nodes in insertion order, as an arena hands them out.
  for (uint32_t I = 0; I < Keys; ++I) {
    Node &N = Nodes[I];
    N.Key = Next();
    N.Val = I;
    N.Kid[0] = N.Kid[1] = None;
    for (uint32_t At = 0; I > 0;) {
      uint32_t &Kid = Nodes[At].Kid[N.Key > Nodes[At].Key];
      if (Kid == None) {
        Kid = I;
        break;
      }
      At = Kid;
    }
  }
  // Three in-order walks, then a lookup of every key.
  uint64_t Sum = 0;
  for (unsigned Pass = 0; Pass < 3; ++Pass) {
    Stack.clear();
    for (uint32_t At = 0; At != None || !Stack.empty();) {
      for (; At != None; At = Nodes[At].Kid[0])
        Stack.push_back(At);
      At = Stack.back();
      Stack.pop_back();
      Sum += Nodes[At].Val;
      At = Nodes[At].Kid[1];
    }
  }
  X = 0x9e3779b97f4a7c15ULL;
  for (uint32_t I = 0; I < Keys; ++I) {
    uint64_t Key = Next();
    uint32_t At = 0;
    while (Nodes[At].Key != Key)
      At = Nodes[At].Kid[Key > Nodes[At].Key];
    Sum += Nodes[At].Val;
  }
  static volatile uint64_t Sink;
  Sink = Sum;
  Clock::time_point T1 = Clock::now();
  Samples.push_back({T0 + (T1 - T0) / 2, msBetween(T0, T1)});
}

double SpeedProbe::scale(Clock::time_point At) const {
  if (Samples.empty())
    return 1;
  auto Window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(WindowSec));
  auto ByTime = [](const Sample &S, Clock::time_point T) { return S.At < T; };
  size_t Lo = std::lower_bound(Samples.begin(), Samples.end(), At - Window,
                               ByTime) -
              Samples.begin();
  size_t Hi = std::lower_bound(Samples.begin(), Samples.end(), At + Window,
                               ByTime) -
              Samples.begin();
  // Too few in the window: widen towards the nearer neighbour.
  while (Hi - Lo < MinSamples && (Lo > 0 || Hi < Samples.size())) {
    if (Hi == Samples.size() ||
        (Lo > 0 && At - Samples[Lo - 1].At < Samples[Hi].At - At))
      --Lo;
    else
      ++Hi;
  }
  std::vector<double> Ms;
  for (size_t I = Lo; I < Hi; ++I)
    Ms.push_back(Samples[I].Ms);
  return ReferenceMs / median(std::move(Ms));
}

double SpeedProbe::medianMs() const {
  std::vector<double> Ms;
  for (const Sample &S : Samples)
    Ms.push_back(S.Ms);
  return median(std::move(Ms));
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Metrics.push_back({Name, Value, Unit});
}

void Report::fail(const std::string &Why) {
  ++Failed;
  if (FailureSamples.size() < 5)
    FailureSamples.push_back(Why);
}

void reportEndToEnd(Report &R, const std::vector<double> &LatencyMs,
                    double Seconds, double SetupSec, double SloShare,
                    const std::vector<double> &RawLatencyMs,
                    const SpeedProbe &Probe) {
  R.metric("throughput_ops_per_s",
           Seconds > 0 ? double(LatencyMs.size()) / Seconds : 0, "1/s");
  R.metric("latency_ms_p50", percentile(LatencyMs, 50), "ms");
  R.metric("latency_ms_p90", percentile(LatencyMs, 90), "ms");
  R.metric("setup_s", SetupSec, "s");
  R.metric("slo_share", SloShare, "share");
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "latency samples: %zu (%zu beyond p90)",
                LatencyMs.size(), LatencyMs.size() / 10);
  R.detail(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "wall time: latency p50 %.4f p90 %.4f ms; speed probe "
                "median %.4f ms (reference %.1f ms) over %zu samples",
                percentile(RawLatencyMs, 50), percentile(RawLatencyMs, 90),
                Probe.medianMs(), SpeedProbe::ReferenceMs, Probe.size());
  R.detail(Buf);
}

std::map<std::string, double> summarizeTrace(Report &R, const Tracer &T,
                                             uint64_t Ops, double OpMeanMs) {
  // Which spans hang under an op root: only those partition op time.
  const std::vector<Span> &Spans = T.spans();
  std::vector<char> InOp(Spans.size(), 0);
  for (size_t I = 0; I < Spans.size(); ++I)
    InOp[I] = Spans[I].Parent >= 0 ? InOp[Spans[I].Parent]
                                   : std::string(Spans[I].Name) == "op";
  std::vector<double> Self = T.selfMs();
  double OpTreeSelf = 0;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (InOp[I])
      OpTreeSelf += Self[I];
  Tracer::Totals Tot = T.totals();
  std::map<std::string, double> PerOp;
  double Div = Ops ? double(Ops) : 1;
  for (const auto &[Name, Ms] : Tot.SelfMs) {
    PerOp[Name] = Ms / Div;
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "trace %-24s self %10.4f ms/op  (%llu spans)",
                  Name.c_str(), Ms / Div,
                  static_cast<unsigned long long>(Tot.Count[Name]));
    R.detail(Buf);
  }
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "trace layers + residual = %.4f ms/op, traced op = %.4f ms/op",
                OpTreeSelf / Div, OpMeanMs);
  R.detail(Buf);
  return PerOp;
}

} // namespace perfbench
