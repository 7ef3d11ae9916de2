//===- Report.h - Statistics, spans and the result line of the benchmark -===//
///
/// \file
/// The small pieces every workload of the harness shares: a seeded
/// generator for input permutations, percentiles over op timings, the
/// host-speed calibration, the in-memory span recorder of the traced mode (written as Chrome
/// trace_event JSON at exit) and the one-line JSON result.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the whole input make-up derives from the seed through this
/// one generator, so a seed names the same inputs on every host.
class SeededRng {
public:
  explicit SeededRng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

private:
  uint64_t State;
};

/// A Fisher-Yates permutation of 0..N-1 drawn from \p Seed and \p Salt
/// (different salts give independent orders from one seed).
inline std::vector<unsigned> permutation(unsigned N, uint64_t Seed,
                                         uint64_t Salt) {
  std::vector<unsigned> P(N);
  for (unsigned I = 0; I != N; ++I)
    P[I] = I;
  SeededRng R(Seed * 0x2545f4914f6cdd1dull + Salt);
  for (unsigned I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.next() % I]);
  return P;
}

/// Linear-interpolation quantile \p Q (0..1) of \p Values; 0 if empty.
inline double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * (Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - Lo);
}

/// Host-speed calibration. On a shared VM the host's speed drifts by
/// 10-25% over minutes (co-tenants, frequency), the same for every
/// workload, while ratios inside one process stay within a few percent.
/// The harness interleaves a fixed interpreter-like loop (a switch over
/// a pseudo-random opcode string: branchy, register-only, no memory
/// footprint) with the measured ops, about every 250 ms, and scales the
/// run's times by RefMs / (median loop time), i.e. reports them at the
/// speed of the host the loop took RefMs on. The loop runs no repository
/// code, so a change to the program moves the scaled times in full.
class HostClock {
public:
  /// The loop's median time on the reference host (the 4-core Xeon VM
  /// the benchmark was tuned on).
  static constexpr double RefMs = 3.0;

  HostClock() {
    SeededRng R(0x5eed);
    for (uint8_t &Op : Code)
      Op = static_cast<uint8_t>(R.next() % 6);
  }

  /// Runs the loop once and records its time.
  void calibrate() {
    uint64_t T0 = nowNanos();
    int64_t Reg[4] = {1, 2, 3, 4};
    for (unsigned Rep = 0; Rep != 80; ++Rep)
      for (uint8_t Op : Code)
        switch (Op) {
        case 0: Reg[0] += Reg[1]; break;
        case 1: Reg[1] ^= Reg[2] << 1; break;
        case 2: Reg[2] = Reg[2] * 3 + Reg[3]; break;
        case 3: Reg[3] += (Reg[0] & 1) ? Reg[0] : -1; break;
        case 4: Reg[0] = Reg[3] >> 2; break;
        default: Reg[1] += Rep; break;
        }
    Sink = Reg[0] + Reg[1] + Reg[2] + Reg[3];
    uint64_t T1 = nowNanos();
    Ms.push_back((T1 - T0) / 1e6);
    SpentNanos += T1 - T0;
    Last = T1;
  }

  /// Calibrates if 250 ms passed since the last calibration; call it
  /// between rounds of measured ops.
  void tick() {
    if (nowNanos() - Last >= 250'000'000)
      calibrate();
  }

  /// What a time measured in this run is multiplied by.
  double factor() const { return RefMs / quantile(Ms, 0.5); }
  double medianMs() const { return quantile(Ms, 0.5); }
  /// Wall time spent in the loop, to leave out of the window.
  uint64_t spentNanos() const { return SpentNanos; }

private:
  uint8_t Code[4096];
  std::vector<double> Ms;
  uint64_t SpentNanos = 0, Last = 0;
  volatile int64_t Sink = 0; ///< keeps the loop's result alive
};

/// Spans recorded by the traced mode around the harness's calls into the
/// program: kept in memory, written once at exit.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span; returns its index (or -1 when tracing is off).
  /// \p Parent is the index of the enclosing span, -1 for none.
  int begin(const char *Name, int Parent, uint64_t Op, int64_t Arg = -1) {
    if (!Enabled)
      return -1;
    Spans.push_back({Name, Parent, Op, Arg, nowNanos(), 0});
    return static_cast<int>(Spans.size() - 1);
  }

  /// Closes span \p Index and returns its duration in nanoseconds.
  uint64_t end(int Index) {
    if (Index < 0)
      return 0;
    Span &S = Spans[Index];
    S.End = nowNanos();
    return S.End - S.Start;
  }

  /// Writes every span as a Chrome trace_event "X" event (Perfetto and
  /// chrome://tracing load it). Returns false if the file cannot be
  /// written.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    uint64_t Base = Spans.empty() ? 0 : Spans.front().Start;
    std::fprintf(F, "{\"traceEvents\":[\n");
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%d,\"op\":%llu,\"arg\":%lld}}\n",
                   I ? "," : "", S.Name, (S.Start - Base) / 1e3,
                   (S.End - S.Start) / 1e3, I, S.Parent,
                   static_cast<unsigned long long>(S.Op),
                   static_cast<long long>(S.Arg));
    }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  struct Span {
    const char *Name;
    int Parent;
    uint64_t Op;
    int64_t Arg;
    uint64_t Start, End;
  };
  bool Enabled;
  std::vector<Span> Spans;
};

/// The benchmark's result: op counts, correctness and named metrics.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, std::pair<double, std::string>> Metrics;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }

  /// The single JSON line the benchmark ends its standard output with.
  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                Correct ? "true" : "false",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    bool First = true;
    for (const auto &[Name, VU] : Metrics) {
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  First ? "" : ", ", Name.c_str(), VU.first,
                  VU.second.c_str());
      First = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
