//===- harness.cpp - Table 1 at peak, JIT compile and cold start ----------===//
//
// The benchmark harness. It builds the Table 1 program (27 rows), runs
// one workload for a fixed time and ends its standard output with one
// JSON result line:
//
//   perfbench --workload peak_pea|peak_noea|compile|cold_start|pea_speedup
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// peak_pea, peak_noea and compile are the workloads of BENCHMARK.json;
// cold_start and pea_speedup are reference measurements (README.md).
//
// Compilation is synchronous everywhere (VMOptions::CompilerThreads = 0),
// so tier-up happens at the same call on every run and the only threads
// are the mutator and the adaptive scavenge workers. Every output is
// checked after the measured window against a JIT-off interpreter
// isolate (the oracle) and the PEA properties; see README.md for the
// workloads, metrics and checks.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "bytecode/CodeBuilder.h"
#include "workloads/Harness.h"

#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <memory>

using namespace jvm;
using namespace jvm::workloads;
using namespace perfbench;

namespace {

/// Set-ups per run: setup_s is their median, and the peak and compile
/// workloads rotate their ops over the isolates these set-ups warmed.
constexpr unsigned SetupRounds = 3;
/// Upper limit of warm-up passes; a pass that compiles and deoptimizes
/// nothing ends the warm-up long before it.
constexpr unsigned MaxWarmPasses = 100;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
};

/// One row call: its result and the isolate counters it moved.
struct RowSample {
  int64_t Result = 0;
  uint64_t Allocs = 0, Bytes = 0, Monitors = 0;
  uint64_t Nanos = 0; ///< traced passes only

  bool sameCounts(const RowSample &O) const {
    return Allocs == O.Allocs && Bytes == O.Bytes && Monitors == O.Monitors;
  }
};

/// One pass over all rows, indexed by row id (BenchmarkSet::Rows order).
using Pass = std::vector<RowSample>;

struct Bench {
  BenchmarkSet Set = buildBenchmarkSet();
  /// A method returning 0 that the compile workload calls after each
  /// compile: a call is a safe point, where the isolate frees the code
  /// the compile retired.
  MethodId SafePoint = NoMethod;
  /// Row ids in the order every pass of this seed runs them.
  std::vector<unsigned> Order;

  explicit Bench(uint64_t Seed) {
    SafePoint = Set.WP.P.addMethod("perfbench_safepoint", NoClass, {},
                                   ValueType::Int);
    CodeBuilder C(Set.WP.P, SafePoint);
    C.constI(0).retInt();
    C.finish();
    Order = permutation(Set.Rows.size(), Seed, /*Salt=*/1);
  }

  const Program &program() const { return Set.WP.P; }
  unsigned numRows() const { return Set.Rows.size(); }
};

VMOptions peakOptions(EscapeAnalysisMode Mode) {
  VMOptions VO = HarnessOptions().VM; // threshold 500, synchronous
  VO.Compiler.EAMode = Mode;
  VO.Compiler.EnableSpesh = false;
  VO.Exec = ExecMode::Native;
  VO.EnableNativeTier = true;
  VO.Memory = memory::MemoryConfig();
  return VO;
}

/// The defaults (linear tier, threshold 200, native code emitted) with
/// synchronous compilation.
VMOptions coldOptions(EscapeAnalysisMode Mode) {
  VMOptions VO;
  VO.Compiler.EAMode = Mode;
  VO.Compiler.EnableSpesh = false;
  VO.CompilerThreads = 0;
  VO.CompileThreshold = 200;
  VO.Exec = ExecMode::Linear;
  VO.EnableNativeTier = true;
  VO.Memory = memory::MemoryConfig();
  return VO;
}

VMOptions oracleOptions() {
  VMOptions VO;
  VO.EnableJit = false;
  VO.CompilerThreads = 0;
  VO.Exec = ExecMode::Linear;
  VO.Memory = memory::MemoryConfig();
  return VO;
}

/// Runs every row once in the seed's order, reading the isolate's
/// allocation and monitor counters around each call.
void runPass(Isolate &I, const Bench &B, Pass &Out, SpanLog &Spans,
             int Parent, uint64_t Op) {
  Runtime &RT = I.runtime();
  Out.assign(B.numRows(), RowSample());
  for (unsigned R : B.Order) {
    const BenchmarkRow &Row = B.Set.Rows[R];
    uint64_t A0 = RT.heap().allocationCount();
    uint64_t B0 = RT.heap().allocatedBytes();
    uint64_t M0 = RT.metrics().MonitorOps;
    int S = Spans.begin("row", Parent, Op, R);
    int64_t V = I.call(Row.Driver, {Value::makeInt(Row.Scale)}).asInt();
    RowSample &Out1 = Out[R];
    Out1.Nanos = Spans.end(S);
    Out1.Result = V;
    Out1.Allocs = RT.heap().allocationCount() - A0;
    Out1.Bytes = RT.heap().allocatedBytes() - B0;
    Out1.Monitors = RT.metrics().MonitorOps - M0;
  }
}

/// Runs the set-up method, then whole passes until one pass compiles,
/// invalidates and deoptimizes nothing and interprets no method but the
/// row drivers (called once a pass, they stay below the threshold): the
/// isolate is at peak. The passes are appended to \p Passes for the
/// output checks.
void warmUp(Isolate &I, const Bench &B, std::vector<Pass> &Passes,
            SpanLog &Spans, int Parent) {
  I.call(B.Set.WP.Setup, {});
  for (unsigned P = 0; P != MaxWarmPasses; ++P) {
    auto Activity = [&] {
      const RuntimeMetrics &M = I.runtime().metrics();
      return I.jitMetrics().Compilations + I.jitMetrics().Invalidations +
             M.Deopts + M.InterpretedCalls;
    };
    uint64_t Before = Activity();
    Passes.emplace_back();
    runPass(I, B, Passes.back(), Spans, Parent, P);
    if (Activity() == Before + B.numRows()) {
      std::fprintf(stderr, "perfbench: peak after %u warm-up passes\n", P + 1);
      return;
    }
  }
  std::fprintf(stderr, "perfbench: warm-up did not settle in %u passes\n",
               MaxWarmPasses);
}

/// Counters of one isolate that per-op metrics are deltas of.
struct Counters {
  uint64_t Interpreted = 0, CompiledOps = 0, CompiledCalls = 0,
           InterpretedCalls = 0, Deopts = 0, Compiles = 0, Scavenges = 0,
           Promoted = 0, GcNanos = 0;

  static Counters of(Isolate &I) {
    const RuntimeMetrics &M = I.runtime().metrics();
    const Heap &H = I.runtime().heap();
    Counters C;
    C.Interpreted = M.InterpretedOps;
    C.CompiledOps = M.CompiledOps;
    C.CompiledCalls = M.CompiledCalls;
    C.InterpretedCalls = M.InterpretedCalls;
    C.Deopts = M.Deopts;
    C.Compiles = I.jitMetrics().Compilations;
    C.Scavenges = H.scavenges();
    C.Promoted = H.bytesPromoted();
    for (const auto &G : H.gcRecords())
      C.GcNanos += G.PauseNanos;
    return C;
  }

  Counters &operator+=(const Counters &O) {
    Interpreted += O.Interpreted;
    CompiledOps += O.CompiledOps;
    CompiledCalls += O.CompiledCalls;
    InterpretedCalls += O.InterpretedCalls;
    Deopts += O.Deopts;
    Compiles += O.Compiles;
    Scavenges += O.Scavenges;
    Promoted += O.Promoted;
    GcNanos += O.GcNanos;
    return *this;
  }

  Counters operator-(const Counters &O) const {
    Counters C;
    C.Interpreted = Interpreted - O.Interpreted;
    C.CompiledOps = CompiledOps - O.CompiledOps;
    C.CompiledCalls = CompiledCalls - O.CompiledCalls;
    C.InterpretedCalls = InterpretedCalls - O.InterpretedCalls;
    C.Deopts = Deopts - O.Deopts;
    C.Compiles = Compiles - O.Compiles;
    C.Scavenges = Scavenges - O.Scavenges;
    C.Promoted = Promoted - O.Promoted;
    C.GcNanos = GcNanos - O.GcNanos;
    return C;
  }
};

/// Compile work of every isolate of a run (set-up and window), for the
/// per-compile layer metrics.
struct CompileTotals {
  uint64_t Compiles = 0, CompileNanos = 0, EmitNanos = 0, StallNanos = 0,
           Fallbacks = 0, FinalNodes = 0, NativeBytes = 0;
  PhaseTimes Phases;

  void add(Isolate &I) {
    const JitMetrics &J = I.jitMetrics();
    Compiles += J.Compilations;
    CompileNanos += J.CompileNanos;
    EmitNanos += J.NativeEmitNanos;
    StallNanos += J.MutatorStallNanos;
    Fallbacks += J.NativeFallbacks;
    Phases += J.PhaseNanos;
    for (unsigned M = 0, E = I.runtime().program().numMethods(); M != E; ++M)
      for (const CompileLog::Record &R : I.compileLog().recordsFor(M)) {
        FinalNodes += R.FinalNodes;
        NativeBytes += R.NativeBytes;
      }
  }
};

/// Machine code installed in \p I right now, in bytes.
uint64_t installedNativeBytes(const Isolate &I) {
  uint64_t Bytes = 0;
  for (unsigned M = 0, E = I.runtime().program().numMethods(); M != E; ++M)
    if (const NativeCode *N = I.compiledNative(M))
      Bytes += N->codeSize();
  return Bytes;
}

double peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // kilobytes on Linux
}

/// The oracle: one pass of a JIT-off isolate from the set-up method on,
/// in the seed's row order. Computed after the measured window, so it is
/// part of neither the window nor setup_s.
struct Oracle {
  Pass Expected;
  uint64_t Nanos = 0;
  uint64_t Bytecodes = 0;
};

Oracle runOracle(const Bench &B, SpanLog &Spans, int Parent) {
  Isolate I(B.program(), oracleOptions());
  I.call(B.Set.WP.Setup, {});
  Oracle O;
  SpanLog Off(false);
  uint64_t Bc0 = I.runtime().metrics().InterpretedOps;
  int S = Spans.begin("oracle", Parent, 0);
  uint64_t T0 = nowNanos();
  runPass(I, B, O.Expected, Off, -1, 0);
  O.Nanos = nowNanos() - T0;
  Spans.end(S);
  O.Bytecodes = I.runtime().metrics().InterpretedOps - Bc0;
  return O;
}

bool sameResults(const Pass &P, const Oracle &O) {
  for (unsigned R = 0; R != P.size(); ++R)
    if (P[R].Result != O.Expected[R].Result)
      return false;
  return true;
}

/// The PEA property per row: with PEA, neither allocations nor monitor
/// operations exceed those of the EA-off run of the same row.
bool peaNeverWorse(const Pass &Pea, const Pass &NoEa) {
  for (unsigned R = 0; R != Pea.size(); ++R)
    if (Pea[R].Allocs > NoEa[R].Allocs || Pea[R].Monitors > NoEa[R].Monitors)
      return false;
  return true;
}

/// Prints the per-row counts of one pass with and without PEA, with the
/// reduction, to standard error (the README's Table 1 comparison).
void printRowCounts(const Bench &B, const Pass &Pea, const Pass &NoEa) {
  auto Delta = [](double With, double Without) {
    return Without ? (With - Without) * 100 / Without : 0.0;
  };
  std::fprintf(stderr, "%-12s %10s %10s %7s %10s %10s %7s %9s %9s %7s\n",
               "row", "KiB pea", "KiB noea", "bytes", "allocs", "noea",
               "allocs", "monitors", "noea", "mon");
  for (unsigned R = 0; R != B.numRows(); ++R)
    std::fprintf(stderr,
                 "%-12s %10.1f %10.1f %+6.1f%% %10llu %10llu %+6.1f%% "
                 "%9llu %9llu %+6.1f%%\n",
                 B.Set.Rows[R].Name.c_str(), Pea[R].Bytes / 1024.0,
                 NoEa[R].Bytes / 1024.0, Delta(Pea[R].Bytes, NoEa[R].Bytes),
                 static_cast<unsigned long long>(Pea[R].Allocs),
                 static_cast<unsigned long long>(NoEa[R].Allocs),
                 Delta(Pea[R].Allocs, NoEa[R].Allocs),
                 static_cast<unsigned long long>(Pea[R].Monitors),
                 static_cast<unsigned long long>(NoEa[R].Monitors),
                 Delta(Pea[R].Monitors, NoEa[R].Monitors));
}

/// Everything one workload measured; reportEndToEnd and reportLayers
/// turn it into metrics.
struct Run {
  const Bench *B = nullptr;
  std::vector<double> SetupSeconds;
  std::vector<double> IsolateMs;
  std::vector<double> OpMs;
  std::vector<bool> OpTraced;
  uint64_t WindowNanos = 0;
  Counters Window;       ///< summed over the window's isolates
  Pass Counted;          ///< a pass whose counts are the per-op counts
  uint64_t CodeBytes = 0;
  double RssMiB = 0;
  PEAStats Escape;       ///< escape work behind one isolate's code
  CompileTotals Compiles;
  std::vector<Pass> RowTimes; ///< traced passes, for row.<name>.ms_p50
  Oracle Or;
  double AllocNs = 0;
  HostClock Host; ///< calibrated during the window
};

/// A timed Heap::allocateInstance loop in a fresh heap: the median over
/// batches of the nanoseconds per two-int instance (a Pair).
double allocProbe(ClassId Cls) {
  Heap H{memory::MemoryConfig()};
  const std::vector<ValueType> Fields{ValueType::Int, ValueType::Int};
  constexpr unsigned Batch = 1 << 16, Batches = 15;
  std::vector<double> Ns;
  for (unsigned K = 0; K != Batches; ++K) {
    uint64_t T0 = nowNanos();
    for (unsigned I = 0; I != Batch; ++I)
      H.allocateInstance(Cls, Fields);
    Ns.push_back(static_cast<double>(nowNanos() - T0) / Batch);
  }
  return quantile(Ns, 0.5);
}

/// Constructs and warms SetupRounds isolates, recording each set-up.
std::vector<std::unique_ptr<Isolate>>
setUpIsolates(const Bench &B, const VMOptions &VO, Run &Out,
              std::vector<Pass> &WarmPasses, SpanLog &Spans,
              MethodId AlsoCompile = NoMethod) {
  std::vector<std::unique_ptr<Isolate>> Isos;
  for (unsigned K = 0; K != SetupRounds; ++K) {
    int S = Spans.begin("isolate", -1, K);
    uint64_t T0 = nowNanos();
    Isos.push_back(std::make_unique<Isolate>(B.program(), VO));
    uint64_t T1 = nowNanos();
    warmUp(*Isos.back(), B, WarmPasses, Spans, S);
    if (AlsoCompile != NoMethod)
      Isos.back()->compileNow(AlsoCompile);
    Out.SetupSeconds.push_back((nowNanos() - T0) / 1e9);
    Out.IsolateMs.push_back((T1 - T0) / 1e6);
    Spans.end(S);
  }
  return Isos;
}

uint64_t deadlineAfter(double Seconds) {
  return nowNanos() + static_cast<uint64_t>(Seconds * 1e9);
}

//===----------------------------------------------------------------------===//
// peak_pea / peak_noea: one op is one pass over all rows at peak.
//===----------------------------------------------------------------------===//

void runPeak(const Options &O, const Bench &B, EscapeAnalysisMode Mode,
             Run &Out, Result &Res, SpanLog &Spans) {
  std::vector<Pass> WarmPasses;
  auto Isos = setUpIsolates(B, peakOptions(Mode), Out, WarmPasses, Spans);
  Out.Escape = Isos[0]->jitMetrics().EscapeStats;

  std::vector<Counters> Before;
  for (auto &I : Isos)
    Before.push_back(Counters::of(*I));
  SpanLog Off(false);
  std::vector<Pass> Ops;
  uint64_t Start = nowNanos(), Deadline = deadlineAfter(O.Seconds);
  Out.Host.calibrate();
  for (uint64_t Round = 0; Round == 0 || nowNanos() < Deadline; ++Round) {
    // The traced mode traces every other round; the untraced rounds
    // give trace.overhead_pct.
    bool Traced = Spans.enabled() && Round % 2 == 0;
    SpanLog &Log = Traced ? Spans : Off;
    for (auto &I : Isos) {
      uint64_t Op = Ops.size();
      Ops.emplace_back();
      int S = Log.begin("pass", -1, Op);
      uint64_t T0 = nowNanos();
      runPass(*I, B, Ops.back(), Log, S, Op);
      Out.OpMs.push_back((nowNanos() - T0) / 1e6);
      Out.OpTraced.push_back(Traced);
      Log.end(S);
      if (Traced)
        Out.RowTimes.push_back(Ops.back());
    }
    Out.Host.tick();
  }
  Out.WindowNanos = nowNanos() - Start - Out.Host.spentNanos();
  Out.RssMiB = peakRssMiB();
  for (unsigned K = 0; K != Isos.size(); ++K)
    Out.Window += Counters::of(*Isos[K]) - Before[K];
  Out.CodeBytes = installedNativeBytes(*Isos[0]);
  for (auto &I : Isos)
    Out.Compiles.add(*I);
  Out.Counted = Ops[0];

  // Checks: the oracle, the same counts on every op, and the PEA
  // property against a warmed isolate of the other mode.
  int C = Spans.begin("check", -1, 0);
  Out.Or = runOracle(B, Spans, C);
  EscapeAnalysisMode OtherMode = Mode == EscapeAnalysisMode::Partial
                                     ? EscapeAnalysisMode::None
                                     : EscapeAnalysisMode::Partial;
  std::vector<Pass> OtherPasses;
  {
    Isolate Other(B.program(), peakOptions(OtherMode));
    SpanLog NoSpans(false);
    warmUp(Other, B, OtherPasses, NoSpans, -1);
  }
  const Pass &OtherPeak = OtherPasses.back();
  for (const Pass &P : WarmPasses)
    Res.Correct &= sameResults(P, Out.Or);
  for (const Pass &P : OtherPasses)
    Res.Correct &= sameResults(P, Out.Or);
  for (const Pass &P : Ops) {
    bool Ok = sameResults(P, Out.Or);
    for (unsigned R = 0; R != P.size(); ++R)
      Ok &= P[R].sameCounts(Ops[0][R]);
    Ok &= Mode == EscapeAnalysisMode::Partial ? peaNeverWorse(P, OtherPeak)
                                              : peaNeverWorse(OtherPeak, P);
    ++Res.Attempted;
    Res.Failed += !Ok;
  }
  Spans.end(C);
  if (Mode == EscapeAnalysisMode::Partial)
    printRowCounts(B, Ops[0], OtherPeak);
  else
    printRowCounts(B, OtherPeak, Ops[0]);
}

//===----------------------------------------------------------------------===//
// pea_speedup (a reference measurement, not a benchmark workload): PEA
// and EA-off isolates in one process, their passes interleaved.
//===----------------------------------------------------------------------===//

void runSpeedup(const Options &O, const Bench &B, Result &Res) {
  Run Pea, NoEa;
  std::vector<Pass> Passes;
  SpanLog Off(false);
  auto PeaIsos = setUpIsolates(B, peakOptions(EscapeAnalysisMode::Partial),
                               Pea, Passes, Off);
  auto NoEaIsos = setUpIsolates(B, peakOptions(EscapeAnalysisMode::None),
                                NoEa, Passes, Off);
  std::vector<double> Ratios;
  Pass P;
  uint64_t Deadline = deadlineAfter(O.Seconds);
  for (uint64_t Round = 0; Round == 0 || nowNanos() < Deadline; ++Round)
    for (unsigned K = 0; K != SetupRounds; ++K) {
      // Alternate which mode goes first, so neither always runs second.
      for (unsigned Side = 0; Side != 2; ++Side) {
        bool IsPea = (Side + Round) % 2 == 0;
        uint64_t T0 = nowNanos();
        runPass(IsPea ? *PeaIsos[K] : *NoEaIsos[K], B, P, Off, -1, 0);
        (IsPea ? Pea : NoEa).OpMs.push_back((nowNanos() - T0) / 1e6);
        Passes.push_back(P);
      }
      Ratios.push_back(NoEa.OpMs.back() / Pea.OpMs.back());
    }
  Oracle Or = runOracle(B, Off, -1);
  for (const Pass &Done : Passes)
    Res.Correct &= sameResults(Done, Or);
  Res.Attempted = Pea.OpMs.size() + NoEa.OpMs.size();
  double PeaMs = quantile(Pea.OpMs, 0.5), NoEaMs = quantile(NoEa.OpMs, 0.5);
  Res.set("pea_ms_p50", PeaMs, "ms");
  Res.set("noea_ms_p50", NoEaMs, "ms");
  Res.set("speedup", NoEaMs / PeaMs, "x");
  Res.set("pair_speedup_q1", quantile(Ratios, 0.25), "x");
  Res.set("pair_speedup_q3", quantile(Ratios, 0.75), "x");
}

//===----------------------------------------------------------------------===//
// compile: one op is one compileNow of a kernel hot at peak.
//===----------------------------------------------------------------------===//

void runCompile(const Options &O, const Bench &B, Run &Out, Result &Res,
                SpanLog &Spans) {
  std::vector<Pass> WarmPasses;
  auto Isos =
      setUpIsolates(B, peakOptions(EscapeAnalysisMode::Partial), Out,
                    WarmPasses, Spans, /*AlsoCompile=*/B.SafePoint);
  Out.Escape = Isos[0]->jitMetrics().EscapeStats;

  // The kernels: every method the warm-up compiled, in the seed's order.
  std::vector<MethodId> Kernels;
  for (unsigned M = 0, E = B.program().numMethods(); M != E; ++M)
    if (static_cast<MethodId>(M) != B.SafePoint && Isos[0]->compiledGraph(M))
      Kernels.push_back(M);
  for (auto &I : Isos)
    for (unsigned M = 0, E = B.program().numMethods(); M != E; ++M)
      Res.Correct &= (I->compiledGraph(M) != nullptr) ==
                     (static_cast<MethodId>(M) == B.SafePoint ||
                      std::find(Kernels.begin(), Kernels.end(),
                                static_cast<MethodId>(M)) != Kernels.end());
  std::vector<unsigned> Perm = permutation(Kernels.size(), O.Seed, 2);

  // Compile-log records per (isolate, kernel) before the window.
  std::vector<std::vector<size_t>> LogBefore(Isos.size());
  std::vector<Counters> Before;
  for (unsigned K = 0; K != Isos.size(); ++K) {
    for (MethodId M : Kernels)
      LogBefore[K].push_back(Isos[K]->compileLog().recordsFor(M).size());
    Before.push_back(Counters::of(*Isos[K]));
  }

  SpanLog Off(false);
  uint64_t Ops = 0;
  uint64_t Start = nowNanos(), Deadline = deadlineAfter(O.Seconds);
  Out.Host.calibrate();
  for (uint64_t Round = 0; Round == 0 || nowNanos() < Deadline; ++Round) {
    bool Traced = Spans.enabled() && Round % 2 == 0;
    SpanLog &Log = Traced ? Spans : Off;
    for (unsigned P : Perm)
      for (auto &I : Isos) {
        int S = Log.begin("compile", -1, Ops, Kernels[P]);
        uint64_t T0 = nowNanos();
        I->compileNow(Kernels[P]);
        I->call(B.SafePoint, {});
        Out.OpMs.push_back((nowNanos() - T0) / 1e6);
        Out.OpTraced.push_back(Traced);
        Log.end(S);
        ++Ops;
      }
    Out.Host.tick();
  }
  Out.WindowNanos = nowNanos() - Start - Out.Host.spentNanos();
  Out.RssMiB = peakRssMiB();
  for (unsigned K = 0; K != Isos.size(); ++K)
    Out.Window += Counters::of(*Isos[K]) - Before[K];
  Out.CodeBytes = installedNativeBytes(*Isos[0]);
  for (auto &I : Isos)
    Out.Compiles.add(*I);

  // Checks. Profiles are frozen during the window (no method ran in the
  // interpreter), so every recompile of a kernel must give the same
  // final graph size and machine code size, on every isolate; each
  // compile-log record is one op.
  int C = Spans.begin("check", -1, 0);
  Res.Attempted = Ops;
  uint64_t Matched = 0;
  for (unsigned J = 0; J != Kernels.size(); ++J) {
    std::vector<CompileLog::Record> Ref =
        Isos[0]->compileLog().recordsFor(Kernels[J]);
    const CompileLog::Record &First = Ref[LogBefore[0][J]];
    for (unsigned K = 0; K != Isos.size(); ++K) {
      std::vector<CompileLog::Record> Recs =
          Isos[K]->compileLog().recordsFor(Kernels[J]);
      for (size_t N = LogBefore[K][J]; N < Recs.size(); ++N)
        Matched += Recs[N].Installed &&
                   Recs[N].FinalNodes == First.FinalNodes &&
                   Recs[N].NativeBytes == First.NativeBytes;
    }
  }
  Res.Failed = Ops - std::min(Ops, Matched);
  // The code the window installed must still compute the oracle's
  // results; its counts are the workload's per-op counts.
  Out.Or = runOracle(B, Spans, C);
  for (const Pass &P : WarmPasses)
    Res.Correct &= sameResults(P, Out.Or);
  std::vector<Pass> Final(Isos.size());
  for (unsigned K = 0; K != Isos.size(); ++K) {
    runPass(*Isos[K], B, Final[K], Spans, C, K);
    Res.Correct &= sameResults(Final[K], Out.Or);
    for (unsigned R = 0; R != B.numRows(); ++R)
      Res.Correct &= Final[K][R].sameCounts(Final[0][R]);
  }
  if (Spans.enabled())
    Out.RowTimes = Final;
  Out.Counted = Final[0];
  Spans.end(C);
}

//===----------------------------------------------------------------------===//
// cold_start (a reference measurement, too noisy on a shared host to gate
// on): one op is a new isolate, its set-up method and one pass.
//===----------------------------------------------------------------------===//

struct ColdOp {
  Pass Rows;
  uint64_t Nanos = 0, IsolateNanos = 0, CodeBytes = 0;
  Counters Work;
  PEAStats Escape;
};

ColdOp coldOp(const Bench &B, EscapeAnalysisMode Mode, SpanLog &Spans,
              uint64_t Op, CompileTotals *Totals) {
  ColdOp C;
  int S = Spans.begin("cold", -1, Op);
  uint64_t T0 = nowNanos();
  int SI = Spans.begin("isolate", S, Op);
  auto I = std::make_unique<Isolate>(B.program(), coldOptions(Mode));
  C.IsolateNanos = nowNanos() - T0;
  Counters Before = Counters::of(*I);
  I->call(B.Set.WP.Setup, {});
  Spans.end(SI);
  runPass(*I, B, C.Rows, Spans, S, Op);
  C.Nanos = nowNanos() - T0;
  Spans.end(S);
  // Bookkeeping and teardown are outside the op's time.
  C.Work = Counters::of(*I) - Before;
  C.CodeBytes = installedNativeBytes(*I);
  C.Escape = I->jitMetrics().EscapeStats;
  if (Totals)
    Totals->add(*I);
  return C;
}

void runCold(const Options &O, const Bench &B, Run &Out, Result &Res,
             SpanLog &Spans) {
  // Set-up: three discarded cold ops, which finish the process's lazy
  // one-time work (code cache mapping, first-touch pages).
  SpanLog Off(false);
  std::vector<Pass> SetupPasses;
  for (unsigned K = 0; K != SetupRounds; ++K) {
    ColdOp C = coldOp(B, EscapeAnalysisMode::Partial, Off, K,
                      &Out.Compiles);
    Out.SetupSeconds.push_back(C.Nanos / 1e9);
    SetupPasses.push_back(std::move(C.Rows));
  }

  std::vector<ColdOp> Ops;
  uint64_t Start = nowNanos(), Deadline = deadlineAfter(O.Seconds);
  Out.Host.calibrate();
  for (uint64_t Round = 0; Round == 0 || nowNanos() < Deadline; ++Round) {
    bool Traced = Spans.enabled() && Round % 2 == 0;
    Ops.push_back(coldOp(B, EscapeAnalysisMode::Partial,
                         Traced ? Spans : Off, Round, &Out.Compiles));
    Out.OpMs.push_back(Ops.back().Nanos / 1e6);
    Out.OpTraced.push_back(Traced);
    Out.IsolateMs.push_back(Ops.back().IsolateNanos / 1e6);
    if (Traced)
      Out.RowTimes.push_back(Ops.back().Rows);
    Out.Host.tick();
  }
  Out.WindowNanos = nowNanos() - Start - Out.Host.spentNanos();
  Out.RssMiB = peakRssMiB();
  for (const ColdOp &C : Ops)
    Out.Window += C.Work;
  Out.CodeBytes = Ops[0].CodeBytes;
  Out.Escape = Ops[0].Escape;
  Out.Counted = Ops[0].Rows;

  int C = Spans.begin("check", -1, 0);
  Out.Or = runOracle(B, Spans, C);
  Pass NoEa = coldOp(B, EscapeAnalysisMode::None, Off, 0, nullptr).Rows;
  Res.Correct &= sameResults(NoEa, Out.Or);
  for (const Pass &P : SetupPasses)
    Res.Correct &= sameResults(P, Out.Or);
  for (const ColdOp &Op : Ops) {
    bool Ok = sameResults(Op.Rows, Out.Or) && peaNeverWorse(Op.Rows, NoEa) &&
              Op.CodeBytes == Ops[0].CodeBytes;
    for (unsigned R = 0; R != Op.Rows.size(); ++R)
      Ok &= Op.Rows[R].sameCounts(Ops[0].Rows[R]);
    ++Res.Attempted;
    Res.Failed += !Ok;
  }
  Spans.end(C);
}

//===----------------------------------------------------------------------===//
// Metrics.
//===----------------------------------------------------------------------===//

std::vector<double> opsWhere(const Run &R, bool Traced) {
  std::vector<double> V;
  for (size_t I = 0; I != R.OpMs.size(); ++I)
    if (R.OpTraced[I] == Traced)
      V.push_back(R.OpMs[I]);
  return V;
}

void reportEndToEnd(const Run &R, Result &Res) {
  double Ops = R.OpMs.size();
  uint64_t Allocs = 0, Bytes = 0, Monitors = 0;
  for (const RowSample &S : R.Counted) {
    Allocs += S.Allocs;
    Bytes += S.Bytes;
    Monitors += S.Monitors;
  }
  // Times at the reference host's speed (see HostClock); the raw
  // figures go to standard error.
  double F = R.Host.factor();
  double Setup = quantile(R.SetupSeconds, 0.5);
  double OpsPerS = Ops / (R.WindowNanos / 1e9);
  double P50 = quantile(R.OpMs, 0.5), P90 = quantile(R.OpMs, 0.9);
  std::fprintf(stderr,
               "perfbench: host loop %.4f ms (factor %.4f); unscaled "
               "setup_s %.6g ops_per_s %.6g op_ms_p50 %.6g op_ms_p90 %.6g\n",
               R.Host.medianMs(), F, Setup, OpsPerS, P50, P90);
  Res.set("setup_s", Setup * F, "s");
  Res.set("ops_per_s", OpsPerS / F, "1/s");
  Res.set("op_ms_p50", P50 * F, "ms");
  Res.set("op_ms_p90", P90 * F, "ms");
  Res.set("allocs_per_op", Allocs, "count");
  Res.set("alloc_kb_per_op", Bytes / 1024.0, "KiB");
  Res.set("monitor_ops_per_op", Monitors, "count");
  Res.set("code_kb", R.CodeBytes / 1024.0, "KiB");
  Res.set("peak_rss_mb", R.RssMiB, "MiB");
}

void reportLayers(const Run &R, Result &Res) {
  const Bench &B = *R.B;
  double Ops = R.OpMs.size();
  for (unsigned Row = 0; Row != B.numRows(); ++Row) {
    std::vector<double> Ms;
    for (const Pass &P : R.RowTimes)
      Ms.push_back(P[Row].Nanos / 1e6);
    Res.set("row." + B.Set.Rows[Row].Name + ".ms_p50", quantile(Ms, 0.5),
            "ms");
  }
  Res.set("interp.bytecodes_per_op", R.Window.Interpreted / Ops, "count");
  Res.set("interp.ns_per_bytecode",
          R.Or.Bytecodes ? double(R.Or.Nanos) / R.Or.Bytecodes : 0, "ns");

  const CompileTotals &C = R.Compiles;
  double Compiles = C.Compiles ? C.Compiles : 1;
  Res.set("compiler.compiles_per_op", R.Window.Compiles / Ops, "count");
  for (const char *Phase : {"build", "inline", "canon", "gvn", "dce", "verify",
                            "schedule", "emit"})
    Res.set(std::string("compiler.") + Phase + "_us",
            C.Phases.nanosFor(Phase) / 1e3 / Compiles, "us");
  Res.set("compiler.final_nodes", C.FinalNodes / Compiles, "count");

  Res.set("pea.escape_us", C.Phases.nanosFor("escape-partial") / 1e3 / Compiles,
          "us");
  Res.set("pea.virtualized", R.Escape.VirtualizedAllocations, "count");
  Res.set("pea.materialize_sites", R.Escape.MaterializeSites, "count");
  Res.set("pea.elided_monitor_ops", R.Escape.ElidedMonitorOps, "count");

  Res.set("jit.emit_us", C.EmitNanos / 1e3 / Compiles, "us");
  Res.set("jit.native_kb", C.NativeBytes / 1024.0 / Compiles, "KiB");
  Res.set("jit.fallbacks", C.Fallbacks / Compiles, "count");

  Res.set("vm.isolate_ms", quantile(R.IsolateMs, 0.5), "ms");
  // compileNow and threshold compiles share one synchronous path; what it
  // spends outside the pipeline and the emitter is install work.
  double Install = double(C.StallNanos) - C.CompileNanos - C.EmitNanos;
  Res.set("vm.install_us", Install / 1e3 / Compiles, "us");
  Res.set("vm.compiled_ops_per_op", R.Window.CompiledOps / Ops, "count");
  Res.set("vm.compiled_calls_per_op", R.Window.CompiledCalls / Ops, "count");
  Res.set("vm.interpreted_calls_per_op", R.Window.InterpretedCalls / Ops,
          "count");
  Res.set("vm.deopts", R.Window.Deopts / Ops, "count");

  Res.set("memory.scavenges_per_op", R.Window.Scavenges / Ops, "count");
  Res.set("memory.gc_ms_per_op", R.Window.GcNanos / 1e6 / Ops, "ms");
  Res.set("memory.promoted_kb_per_op", R.Window.Promoted / 1024.0 / Ops,
          "KiB");
  Res.set("memory.alloc_ns", R.AllocNs, "ns");
  Res.set("host.loop_ms", R.Host.medianMs(), "ms");

  double Traced = quantile(opsWhere(R, true), 0.5);
  double Untraced = quantile(opsWhere(R, false), 0.5);
  Res.set("trace.overhead_pct",
          Untraced > 0 ? (Traced / Untraced - 1) * 100 : 0, "%");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    const char *V = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload")
      O.Workload = V;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(V, &End, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(V, &End);
    else if (Flag == "--trace" && (!std::strcmp(V, "0") || !std::strcmp(V, "1")))
      O.Trace = V[0] == '1';
    else if (Flag == "--trace-out")
      O.TraceOut = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return Argc % 2 == 1 && O.Seconds > 0 && O.Seconds <= 3600 &&
         (O.Workload == "peak_pea" || O.Workload == "peak_noea" ||
          O.Workload == "compile" || O.Workload == "cold_start" ||
          O.Workload == "pea_speedup");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload peak_pea|peak_noea|compile|"
                 "cold_start|pea_speedup --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  Bench B(O.Seed);
  SpanLog Spans(O.Trace);
  Run R;
  R.B = &B;
  Result Res;
  if (O.Workload == "peak_pea")
    runPeak(O, B, EscapeAnalysisMode::Partial, R, Res, Spans);
  else if (O.Workload == "peak_noea")
    runPeak(O, B, EscapeAnalysisMode::None, R, Res, Spans);
  else if (O.Workload == "compile")
    runCompile(O, B, R, Res, Spans);
  else if (O.Workload == "pea_speedup")
    runSpeedup(O, B, Res);
  else
    runCold(O, B, R, Res, Spans);
  Res.Correct &= Res.Failed == 0;

  if (O.Workload == "pea_speedup") {
    // Reference measurement: its own metrics, printed as they are.
  } else if (O.Trace) {
    R.AllocNs = allocProbe(B.Set.WP.Pair);
    reportLayers(R, Res);
    if (!O.TraceOut.empty() && !Spans.write(O.TraceOut)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());
      return 1;
    }
  } else {
    reportEndToEnd(R, Res);
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %llu ops, %llu failed\n",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               static_cast<unsigned long long>(Res.Attempted),
               static_cast<unsigned long long>(Res.Failed));
  Res.print();
  return Res.Correct ? 0 : 1;
}
